"""Fold construction and out-of-fold candidate scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_by_column

from ratiomarker.composition import Outcome, StrictlyPositiveMatrix
from ratiomarker.errors import DimensionMismatch, ValidationError
from ratiomarker.glm import ModelSpec
from ratiomarker.learn import (
    evolutionary_slr,
    forward_stepwise_balance,
    relaxed_gradient_learner,
)
from ratiomarker.learn.scoring import (
    check_learnable,
    cv_score_values,
    make_folds,
    score_candidates,
)


class TestMakeFolds:
    def test_folds_partition_samples(self):
        rng = np.random.default_rng(0)
        out = Outcome.binary((np.arange(23) % 2).astype(float))
        folds = make_folds(out, 5, rng)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == 23

    def test_binary_folds_are_stratified(self):
        rng = np.random.default_rng(1)
        y = np.zeros(40)
        y[:10] = 1.0  # 25% positives
        out = Outcome.binary(y)
        folds = make_folds(out, 5, rng)
        for _, test in folds:
            n_pos = int(out.values[test].sum())
            assert n_pos == 2  # 10 positives dealt evenly into 5 folds

    def test_deterministic_given_rng_state(self):
        out = Outcome.binary((np.arange(20) % 2).astype(float))
        a = make_folds(out, 4, np.random.default_rng(7))
        b = make_folds(out, 4, np.random.default_rng(7))
        for (tr_a, te_a), (tr_b, te_b) in zip(a, b):
            np.testing.assert_array_equal(tr_a, tr_b)
            np.testing.assert_array_equal(te_a, te_b)

    def test_continuous_folds_are_balanced_in_size(self):
        rng = np.random.default_rng(2)
        out = Outcome.continuous(np.linspace(0, 1, 21))
        folds = make_folds(out, 4, rng)
        sizes = sorted(test.size for _, test in folds)
        assert sizes == [5, 5, 5, 6]

    def test_too_many_folds_rejected(self):
        out = Outcome.binary(np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValidationError):
            make_folds(out, 4, np.random.default_rng(0))


class TestCheckLearnable:
    def test_needs_two_per_class(self):
        with pytest.raises(ValidationError):
            check_learnable(
                Outcome.binary(np.array([0.0, 1.0, 1.0, 1.0])), 2
            )
        check_learnable(Outcome.binary(np.array([0.0, 0.0, 1.0, 1.0])), 2)

    def test_fold_count_bound(self):
        out = Outcome.continuous(np.arange(3.0))
        with pytest.raises(ValidationError):
            check_learnable(out, 4)


@pytest.mark.parametrize(
    "learner", [forward_stepwise_balance, relaxed_gradient_learner, evolutionary_slr]
)
class TestLearnerPreconditions:
    matrix = StrictlyPositiveMatrix(
        np.exp(np.random.default_rng(0).normal(size=(10, 4))),
        [f"s{i}" for i in range(10)],
        [f"f{j}" for j in range(4)],
    )

    def test_wrong_length_outcome_is_checked_first(self, learner):
        # Nine samples with a one-sample class: the dimension check wins.
        y = np.zeros(9)
        y[0] = 1.0
        with pytest.raises(DimensionMismatch):
            learner(self.matrix, Outcome.binary(y))

    def test_one_sample_class(self, learner):
        y = np.zeros(10)
        y[0] = 1.0
        with pytest.raises(ValidationError, match="2 samples per class"):
            learner(self.matrix, Outcome.binary(y))


class TestCvScore:
    def separable_data(self, seed=3, n=40):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 1.0, n)
        y = (z + rng.normal(0.0, 0.3, n) > 0).astype(float)
        return z, Outcome.binary(y)

    def test_informative_score_beats_noise(self):
        z, out = self.separable_data()
        rng = np.random.default_rng(4)
        folds = make_folds(out, 5, np.random.default_rng(5))
        spec = ModelSpec(link="logistic")
        good, _, _ = cv_score_values(z, out, spec, folds)
        noise, _, _ = cv_score_values(
            rng.normal(0.0, 1.0, out.n), out, spec, folds
        )
        assert good > 0.85
        assert noise < good

    def test_returns_per_fold_scores(self):
        z, out = self.separable_data()
        folds = make_folds(out, 5, np.random.default_rng(6))
        mean, se, per_fold = cv_score_values(
            z, out, ModelSpec(link="logistic"), folds
        )
        assert len(per_fold) == 5
        arr = np.asarray(per_fold)
        np.testing.assert_allclose(mean, arr.mean())
        np.testing.assert_allclose(
            se, arr.std(ddof=1) / np.sqrt(5), rtol=1e-12
        )

    def test_unfittable_candidate_scores_neg_inf(self):
        _, out = self.separable_data()
        folds = make_folds(out, 5, np.random.default_rng(7))
        mean, se, per_fold = cv_score_values(
            np.zeros(out.n), out, ModelSpec(link="logistic"), folds
        )
        assert mean == float("-inf")
        assert per_fold == []

    def test_continuous_uses_r2(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0.0, 1.0, 50)
        y = 2.0 * z + rng.normal(0.0, 0.1, 50)
        out = Outcome.continuous(y)
        folds = make_folds(out, 5, np.random.default_rng(9))
        mean, _, _ = cv_score_values(z, out, ModelSpec(link="identity"), folds)
        assert mean > 0.95


@st.composite
def scoring_cases(draw):
    """Outcome, folds and a candidate matrix with the awkward columns.

    Values lie on a grid of step 1/32 at the finest, so ties are common.
    The grid also keeps apart what the oracle's rounding of
    beta * z + beta0 could merge: two distinct values closer than that
    rounding resolves tie in the oracle's ranks but not in the kernel's,
    the one case where the two may legitimately differ.
    """
    n = draw(st.integers(4, 30))

    def draw_vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    binary = draw(st.booleans())
    if binary:
        y = draw_vector(st.sampled_from([0.0, 1.0]))
        y[draw(st.integers(0, n - 1))] = 1.0 - y[0]  # both classes present
        out = Outcome.binary(y)
    else:
        y = draw_vector(st.integers(-20, 20)) / 4.0
        out = Outcome.continuous(y)
    n_folds = draw(st.integers(2, min(n, 10)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 99)))
        folds = make_folds(out, n_folds, rng)
    else:
        fold_of = draw_vector(st.integers(0, n_folds - 1))
        fold_of[:n_folds] = np.arange(n_folds)  # no fold is empty
        folds = [
            (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
            for f in range(n_folds)
        ]
    grid = st.integers(-64, 64)

    def free():
        return draw_vector(grid) / 8.0

    columns = []
    kinds = st.sampled_from(
        [
            "free",
            "informative",
            "negated",
            "constant",
            "constant_in_one_fold",
            "zero_statistic",
        ]
    )
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind == "free":
            z = free()
        elif kind in ("informative", "negated"):
            z = y * draw(st.integers(1, 16)) / 8.0 + free() / 4.0
            z = -z if kind == "negated" else z
        elif kind == "constant":
            z = np.full(n, draw(grid) / 8.0)
        else:
            train, _ = folds[draw(st.integers(0, n_folds - 1))]
            z = free()
            if kind == "constant_in_one_fold":
                z[train] = draw(grid) / 8.0
            else:
                # Equal class means on this training fold: the score
                # statistic sum((y - mean(y)) * z) there is zero.
                z[train] = 1.0
                for cls in (0.0, 1.0):
                    rows = train[y[train] == cls]
                    z[rows[0 : rows.size - rows.size % 2 : 2]] = 2.0
                    z[rows[1 : rows.size - rows.size % 2 : 2]] = 0.0
        columns.append(z)
    spec = ModelSpec(link="logistic" if binary else "identity")
    return out, folds, np.column_stack(columns), spec


class TestScoreCandidates:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(scoring_cases())
    def test_equals_the_column_by_column_oracle_bit_for_bit(self, case):
        out, folds, z_matrix, spec = case
        mean, se = score_candidates(z_matrix, out, spec, folds)
        want_mean, want_se = column_by_column(z_matrix, out, spec, folds)
        assert mean.tobytes() == want_mean.tobytes()
        assert se.tobytes() == want_se.tobytes()

    def test_planted_pairs_match_the_oracle_and_its_winner(self):
        rng = np.random.default_rng(11)
        n, g = 60, 12
        logs = rng.normal(0.0, 1.0, (n, g))
        y = (np.arange(n) % 2).astype(float)
        logs[:, 3] += 1.5 * y
        out = Outcome.binary(y)
        folds = make_folds(out, 5, np.random.default_rng(12))
        jj, kk = np.triu_indices(g, 1)
        z_matrix = logs[:, jj] - logs[:, kk]
        spec = ModelSpec(link="logistic")
        mean, se = score_candidates(z_matrix, out, spec, folds)
        want_mean, want_se = column_by_column(z_matrix, out, spec, folds)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(se, want_se)
        assert 3 in (jj[np.argmax(mean)], kk[np.argmax(mean)])

    def test_non_finite_column_scores_neg_inf(self):
        out = Outcome.binary((np.arange(20) % 2).astype(float))
        folds = make_folds(out, 4, np.random.default_rng(0))
        z_matrix = np.column_stack([np.arange(20.0), np.arange(20.0)])
        z_matrix[5, 1] = np.inf
        mean, se = score_candidates(z_matrix, out, ModelSpec(), folds)
        assert np.isfinite(mean[0])
        assert mean[1] == float("-inf") and se[1] == 0.0

    def test_row_count_must_match_the_outcome(self):
        out = Outcome.binary((np.arange(20) % 2).astype(float))
        folds = make_folds(out, 4, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            score_candidates(np.zeros((19, 2)), out, ModelSpec(), folds)
