"""Ratio biomarker scores, their invariances, and model serialization."""

import json
import re

import numpy as np
import pytest

from ratiomarker.composition import (
    Outcome,
    StrictlyPositiveMatrix,
    pairwise_logratios,
)
from ratiomarker.errors import ValidationError
from ratiomarker.glm import fit_glm
from ratiomarker.learn.biomarker import (
    LearnerConfig,
    RatioBiomarker,
    balance_from_logs,
    evaluate_biomarker,
    load_model,
    orient_and_fit,
    predict,
    serialize_model,
    slr_from_values,
)
from ratiomarker.metrics import auc_score, r2_score


def random_matrix(seed, n=12, g=7):
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(0.0, 1.0, (n, g)))
    return StrictlyPositiveMatrix(
        vals, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(g)]
    )


class TestRatioBiomarkerValidation:
    def test_sets_are_sorted_tuples(self):
        b = RatioBiomarker((3, 1), (2,), "balance")
        assert b.numerator == (1, 3)
        assert b.denominator == (2,)

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("features [2] appear on both")):
            RatioBiomarker((1, 2), (2, 3), "balance")

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            RatioBiomarker((), (1,), "balance")

    def test_duplicate_within_side_rejected(self):
        with pytest.raises(ValidationError):
            RatioBiomarker((1, 1), (2,), "balance")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            RatioBiomarker((0,), (1,), "isometric")

    def test_out_of_range_caught_by_validate_for(self):
        b = RatioBiomarker((0,), (6,), "balance")
        with pytest.raises(ValidationError, match=re.escape("indices must lie in [0, 4]")):
            b.validate_for(5)

    def test_size_and_swap(self):
        b = RatioBiomarker((0, 2), (1,), "slr")
        assert b.size == 3
        s = b.swapped()
        assert s.numerator == (1,)
        assert s.denominator == (0, 2)
        assert s.mode == "slr"


class TestLearnerConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            LearnerConfig(seed=-1)


class TestBalanceScores:
    def test_matches_mean_log_difference(self):
        m = random_matrix(1)
        logs = np.log(m.values)
        num, den = [0, 3], [1, 4, 6]
        got = balance_from_logs(logs, num, den)
        want = logs[:, num].mean(axis=1) - logs[:, den].mean(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_singleton_balance_equals_pairwise_column_exactly(self):
        # Bit-for-bit equality, not tolerance: both are computed as the
        # same difference of logs.
        m = random_matrix(2)
        ratios, pairs = pairwise_logratios(m)
        for col, (j, k) in enumerate(pairs):
            b = balance_from_logs(np.log(m.values), [j], [k])
            assert np.array_equal(b, ratios[:, col])

    def test_antisymmetry_is_exact(self):
        m = random_matrix(3)
        logs = np.log(m.values)
        a = balance_from_logs(logs, [0, 2], [4])
        b = balance_from_logs(logs, [4], [0, 2])
        assert np.array_equal(a, -b)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        m = random_matrix(4)
        scales = np.exp(rng.normal(0.0, 3.0, m.n_samples))
        scaled = StrictlyPositiveMatrix(
            m.values * scales[:, None],
            list(m.sample_ids),
            list(m.feature_ids),
        )
        a = balance_from_logs(np.log(m.values), [0, 1], [5])
        b = balance_from_logs(np.log(scaled.values), [0, 1], [5])
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestSlrScores:
    def test_matches_log_sum_ratio(self):
        m = random_matrix(5)
        num, den = [1, 2], [0, 5]
        got = slr_from_values(m.values, num, den)
        want = np.log(m.values[:, num].sum(axis=1)) - np.log(
            m.values[:, den].sum(axis=1)
        )
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_antisymmetry_is_exact(self):
        m = random_matrix(6)
        a = slr_from_values(m.values, [1, 3], [0])
        b = slr_from_values(m.values, [0], [1, 3])
        assert np.array_equal(a, -b)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        m = random_matrix(7)
        scales = np.exp(rng.normal(0.0, 3.0, m.n_samples))
        a = slr_from_values(m.values, [0, 1], [2, 3])
        b = slr_from_values(m.values * scales[:, None], [0, 1], [2, 3])
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_slr_and_balance_differ_for_multi_feature_sides(self):
        # Sum-of-parts and mean-of-logs are genuinely different statistics;
        # the two modes must not collapse into each other.
        m = random_matrix(8)
        slr = slr_from_values(m.values, [0, 1], [2, 3])
        bal = balance_from_logs(np.log(m.values), [0, 1], [2, 3])
        assert not np.allclose(slr, bal)

    def test_evaluate_dispatch(self):
        m = random_matrix(9)
        b1 = RatioBiomarker((0,), (1,), "balance")
        b2 = RatioBiomarker((0,), (1,), "slr")
        np.testing.assert_allclose(
            evaluate_biomarker(b1, m),
            balance_from_logs(np.log(m.values), [0], [1]),
        )
        np.testing.assert_allclose(
            evaluate_biomarker(b2, m), slr_from_values(m.values, [0], [1])
        )


class TestMetrics:
    def test_auc_matches_pair_counting(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            y = (rng.random(n) < 0.5).astype(float)
            if y.min() == y.max():
                continue
            scores = rng.normal(0.0, 1.0, n)
            got = auc_score(y, scores)
            pos = scores[y == 1.0]
            neg = scores[y == 0.0]
            wins = sum(
                1.0 if p > q else 0.5 if p == q else 0.0
                for p in pos
                for q in neg
            )
            want = wins / (len(pos) * len(neg))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_auc_handles_ties_as_half(self):
        y = np.array([0.0, 0.0, 1.0, 1.0])
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(auc_score(y, scores), 0.5)

    def test_auc_single_class_is_nan(self):
        assert np.isnan(auc_score(np.ones(4), np.arange(4.0)))

    def test_r2_matches_definition(self):
        rng = np.random.default_rng(11)
        y = rng.normal(0.0, 2.0, 50)
        pred = y + rng.normal(0.0, 0.5, 50)
        ss_res = np.sum((y - pred) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        np.testing.assert_allclose(
            r2_score(y, pred), 1.0 - ss_res / ss_tot, rtol=1e-12
        )

    def test_r2_constant_target_is_nan(self):
        assert np.isnan(r2_score(np.full(5, 3.0), np.arange(5.0)))


def oriented(biomarker, matrix, outcome):
    """`orient_and_fit` with a blank search record."""
    return orient_and_fit(biomarker, matrix, outcome, 0.0, 0.0, 0, {})


class TestModelSerialization:
    def fitted_model(self, seed=12):
        m = random_matrix(seed, n=20)
        rng = np.random.default_rng(seed)
        y = (rng.random(20) < 0.5).astype(float)
        y[:3] = 0.0
        y[-3:] = 1.0
        out = Outcome.binary(y)
        model = orient_and_fit(
            RatioBiomarker((0, 2), (5,), "balance"),
            m, out, 0.8, 0.05, seed, {},
        )
        return model, m

    def test_round_trip_preserves_structure(self):
        model, _ = self.fitted_model()
        back = load_model(serialize_model(model))
        assert back.biomarker == model.biomarker
        assert back.feature_ids == model.feature_ids
        np.testing.assert_allclose(back.glm.beta, model.glm.beta, rtol=1e-15)
        np.testing.assert_allclose(back.glm.beta0, model.glm.beta0, rtol=1e-15)
        assert back.glm.link == model.glm.link
        np.testing.assert_allclose(back.cv_score, model.cv_score)

    def test_serialized_form_is_sorted_json(self):
        model, _ = self.fitted_model()
        text = serialize_model(model)
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text

    def test_non_finite_statistics_round_trip_as_null(self):
        model, _ = self.fitted_model()
        model.glm.se = float("nan")
        model.glm.p_value = float("nan")
        model.cv_score = float("-inf")
        text = serialize_model(model)

        def reject(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        data = json.loads(text, parse_constant=reject)
        assert data["se"] is None and data["p_value"] is None
        assert data["cv_score"] is None
        assert data["cv_se"] == model.cv_se
        back = load_model(text)
        assert np.isnan(back.glm.se) and np.isnan(back.glm.p_value)
        assert np.isnan(back.cv_score)
        assert back.glm.beta == model.glm.beta
        assert serialize_model(back) == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "model is not valid JSON"),
            ("[]", "not a serialized biomarker model"),
            ('{"format": "other"}', "not a serialized biomarker model"),
        ],
    )
    def test_load_rejects_text_that_is_not_a_model(self, text, message):
        with pytest.raises(ValidationError, match=message):
            load_model(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta", None),
            ("feature_ids", None),
            ("feature_ids", 5),
            ("numerator_indices", ["a"]),
            ("beta0", "0.5"),
            ("se", [1.0]),
            ("seed", 1.5),
            ("link", "probit"),
        ],
    )
    def test_load_names_a_missing_or_ill_typed_field(self, key, value):
        data = json.loads(serialize_model(self.fitted_model()[0]))
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ValidationError, match=f"'{key}' is missing or ill-typed"):
            load_model(json.dumps(data))

    def test_serialization_is_deterministic(self):
        model, _ = self.fitted_model()
        assert serialize_model(model) == serialize_model(model)

    def test_predict_round_trip(self):
        model, m = self.fitted_model()
        back = load_model(serialize_model(model))
        np.testing.assert_allclose(
            predict(back, m), predict(model, m), rtol=1e-15
        )

    def test_predict_rejects_wrong_features(self):
        model, m = self.fitted_model()
        renamed = StrictlyPositiveMatrix(
            m.values, list(m.sample_ids), [f"x{j}" for j in range(m.n_features)]
        )
        with pytest.raises(ValidationError, match="matrix features do not match"):
            predict(model, renamed)


class TestOrientation:
    def test_fitted_coefficient_is_nonnegative(self):
        # Learners may hand in either side order; the final model is
        # normalized so the ratio coefficient is not negative.
        rng = np.random.default_rng(13)
        for seed in range(6):
            m = random_matrix(seed + 40, n=24)
            z = balance_from_logs(np.log(m.values), [0], [1])
            y = (z > np.median(z)).astype(float)
            out = Outcome.binary(y)
            for bio in [
                RatioBiomarker((0,), (1,), "balance"),
                RatioBiomarker((1,), (0,), "balance"),
            ]:
                assert oriented(bio, m, out).glm.beta >= 0.0

    def test_swap_preserves_predictions(self):
        rng = np.random.default_rng(14)
        m = random_matrix(44, n=24)
        z = balance_from_logs(np.log(m.values), [2], [3])
        y = (z > np.median(z)).astype(float)
        out = Outcome.binary(y)
        a = oriented(RatioBiomarker((2,), (3,), "balance"), m, out)
        b = oriented(RatioBiomarker((3,), (2,), "balance"), m, out)
        assert a.biomarker == b.biomarker
        za = evaluate_biomarker(a.biomarker, m)
        np.testing.assert_allclose(
            a.glm.predict_response(za), b.glm.predict_response(za), rtol=1e-8
        )

    def test_model_carries_the_fit_and_the_search_record(self):
        m = random_matrix(45, n=24)
        z = balance_from_logs(np.log(m.values), [1], [4])
        out = Outcome.binary((z < np.median(z)).astype(float))
        model = orient_and_fit(
            RatioBiomarker((1,), (4,), "balance"), m, out,
            0.7, 0.1, 5, {"learner": "x"},
        )
        # The outcome falls with z, so the sides were swapped.
        assert model.biomarker == RatioBiomarker((4,), (1,), "balance")
        assert model.glm.beta >= 0.0
        assert model.training_scores.tobytes() == model.glm.predict_response(
            evaluate_biomarker(model.biomarker, m)
        ).tobytes()
        assert model.feature_ids == m.feature_ids
        assert (model.cv_score, model.cv_se, model.seed) == (0.7, 0.1, 5)
        assert model.diagnostics == {"learner": "x"}
