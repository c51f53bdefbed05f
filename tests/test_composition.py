"""Closure, clr, pairwise log-ratios, and zero handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiomarker.composition import (
    CompositionMatrix,
    Outcome,
    StrictlyPositiveMatrix,
    ZeroPolicy,
    apply_zero_policy,
    close_to_proportions,
    clr_transform,
    pairwise_logratios,
    ratio_labels,
    ratio_pairs,
)
from ratiomarker.errors import (
    AllFeaturesRemoved,
    DimensionMismatch,
    ValidationError,
    ZeroRemains,
)
from ratiomarker.glm import differential_ratio_analysis


def random_positive(rng, n, g, scale=10.0):
    return np.exp(rng.normal(0.0, 1.0, (n, g))) * scale


def make_matrix(values, cls=StrictlyPositiveMatrix):
    n, g = values.shape
    return cls(
        values,
        [f"s{i}" for i in range(n)],
        [f"f{j}" for j in range(g)],
    )


class TestMatrixValidation:
    def test_sample_feature_counts(self):
        m = make_matrix(np.ones((3, 4)))
        assert m.n_samples == 3
        assert m.n_features == 4

    def test_rejects_nan(self):
        vals = np.ones((2, 2))
        vals[0, 1] = np.nan
        with pytest.raises(ValidationError):
            make_matrix(vals)

    def test_rejects_negative(self):
        vals = np.ones((2, 2))
        vals[1, 0] = -3.0
        with pytest.raises(ValidationError):
            make_matrix(vals, cls=CompositionMatrix)

    def test_strict_matrix_rejects_zero(self):
        vals = np.ones((2, 2))
        vals[0, 0] = 0.0
        with pytest.raises(ValidationError):
            make_matrix(vals)

    def test_count_matrix_allows_zero(self):
        vals = np.ones((2, 2))
        vals[0, 0] = 0.0
        m = make_matrix(vals, cls=CompositionMatrix)
        assert m.values[0, 0] == 0.0

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            StrictlyPositiveMatrix(np.ones((2, 2)), ["a", "a"], ["x", "y"])
        with pytest.raises(ValidationError):
            StrictlyPositiveMatrix(np.ones((2, 2)), ["a", "b"], ["x", "x"])

    def test_rejects_id_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StrictlyPositiveMatrix(np.ones((2, 2)), ["a"], ["x", "y"])

    def test_row_subset_keeps_the_given_order(self):
        rng = np.random.default_rng(0)
        m = make_matrix(random_positive(rng, 5, 3))
        sub = StrictlyPositiveMatrix(
            m.values[[3, 1]], [m.sample_ids[i] for i in (3, 1)], m.feature_ids
        )
        assert sub.sample_ids == ["s3", "s1"]
        np.testing.assert_array_equal(sub.values, m.values[[3, 1]])


class TestClosure:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        m = make_matrix(random_positive(rng, 20, 7))
        p = close_to_proportions(m)
        np.testing.assert_allclose(p.values.sum(axis=1), 1.0, rtol=1e-12)

    def test_preserves_within_sample_ratios(self):
        rng = np.random.default_rng(2)
        m = make_matrix(random_positive(rng, 10, 5))
        p = close_to_proportions(m)
        np.testing.assert_allclose(
            p.values[:, 0] / p.values[:, 3],
            m.values[:, 0] / m.values[:, 3],
            rtol=1e-12,
        )


class TestClr:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        m = make_matrix(random_positive(rng, 15, 6))
        got = clr_transform(m)
        logs = np.log(m.values)
        want = logs - logs.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        m = make_matrix(random_positive(rng, 30, 9))
        got = clr_transform(m)
        np.testing.assert_allclose(got.sum(axis=1), 0.0, atol=1e-12)

    def test_per_sample_scale_invariance(self):
        rng = np.random.default_rng(5)
        vals = random_positive(rng, 12, 5)
        scales = np.exp(rng.normal(0.0, 2.0, 12))
        a = clr_transform(make_matrix(vals))
        b = clr_transform(make_matrix(vals * scales[:, None]))
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestPairwise:
    def test_pair_enumeration(self):
        jj, kk = ratio_pairs(4)
        assert jj.tolist() == [0, 0, 0, 1, 1, 2]
        assert kk.tolist() == [1, 2, 3, 2, 3, 3]
        assert list(ratio_labels(list("abcd"), jj, kk)) == [
            "a/b", "a/c", "a/d", "b/c", "b/d", "c/d"
        ]

    def test_pair_count(self):
        for g in [2, 3, 7, 11]:
            jj, kk = ratio_pairs(g)
            assert jj.size == kk.size == g * (g - 1) // 2

    def test_values_against_loops(self):
        rng = np.random.default_rng(6)
        m = make_matrix(random_positive(rng, 8, 5))
        got, pairs = pairwise_logratios(m)
        jj, kk = ratio_pairs(5)
        assert pairs == list(zip(jj.tolist(), kk.tolist()))
        for col, (j, k) in enumerate(pairs):
            want = np.log(m.values[:, j]) - np.log(m.values[:, k])
            np.testing.assert_allclose(got[:, col], want, rtol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        vals = random_positive(rng, 10, 6)
        scales = np.exp(rng.normal(0.0, 2.0, 10))
        a, _ = pairwise_logratios(make_matrix(vals))
        b, _ = pairwise_logratios(make_matrix(vals * scales[:, None]))
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestZeroPolicy:
    def matrix_with_zero_fractions(self, fractions, n=10):
        # Column j gets fractions[j] of its entries zeroed, from the top.
        rng = np.random.default_rng(8)
        vals = random_positive(rng, n, len(fractions))
        for j, f in enumerate(fractions):
            vals[: int(round(f * n)), j] = 0.0
        return make_matrix(vals, cls=CompositionMatrix)

    def test_removes_mostly_zero_features(self):
        m = self.matrix_with_zero_fractions([0.0, 0.8, 0.2, 0.6])
        pos, removed = apply_zero_policy(m, ZeroPolicy())
        assert removed == ["f1", "f3"]
        assert pos.feature_ids == ["f0", "f2"]

    def test_replacement_is_half_min_positive(self):
        # Each zero becomes half the smallest positive kept entry of its
        # own sample.
        m = self.matrix_with_zero_fractions([0.0, 0.2, 0.3])
        pos, _ = apply_zero_policy(m, ZeroPolicy())
        zero = m.values == 0.0
        for i in range(m.n_samples):
            row = m.values[i]
            half_min = row[row > 0].min() / 2.0
            np.testing.assert_allclose(pos.values[i, zero[i]], half_min, rtol=1e-14)
        # Samples 0, 1 and 2 hold zeros, and each gets its own value.
        assert len(set(pos.values[zero].tolist())) == 3

    def test_positive_entries_untouched(self):
        m = self.matrix_with_zero_fractions([0.0, 0.3, 0.9])
        pos, _ = apply_zero_policy(m, ZeroPolicy())
        mask = m.values[:, [0, 1]] > 0
        np.testing.assert_array_equal(
            pos.values[mask], m.values[:, [0, 1]][mask]
        )

    def test_all_removed_raises(self):
        m = self.matrix_with_zero_fractions([0.9, 0.8, 0.7])
        with pytest.raises(AllFeaturesRemoved):
            apply_zero_policy(m, ZeroPolicy())

    def test_none_replacement_raises_on_remaining_zero(self):
        m = self.matrix_with_zero_fractions([0.0, 0.2])
        with pytest.raises(ZeroRemains):
            apply_zero_policy(m, ZeroPolicy(replacement="none"))

    def test_all_zero_matrix_has_no_detection_limit(self):
        m = self.matrix_with_zero_fractions([1.0, 1.0, 1.0])
        with pytest.raises(ZeroRemains, match="no positive entry"):
            apply_zero_policy(m, ZeroPolicy(max_zero_fraction=1.0))

    def test_sample_without_positive_entry_is_named(self):
        # Each feature is one-third zeros and kept, and sample s1 has no
        # positive entry to set its detection limit.
        vals = np.array([[2.0, 3.0], [0.0, 0.0], [5.0, 6.0]])
        m = make_matrix(vals, cls=CompositionMatrix)
        with pytest.raises(ZeroRemains, match="sample 's1' has no positive entry"):
            apply_zero_policy(m, ZeroPolicy())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 24),
        g=st.integers(2, 7),
        lam=st.floats(0.5, 6.0),
        power=st.sampled_from([-3, -1, 1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_imputation_commutes_with_per_sample_rescaling(
        self, n, g, lam, power, seed
    ):
        # Poisson counts whose first two features stay positive but in
        # samples 0 and 1, where feature 0 is zero; every other sample,
        # sample 0 among them, is rescaled.
        rng = np.random.default_rng(seed)
        counts = rng.poisson(lam, (n, g + 2)).astype(float)
        counts[:, :2] += 1.0
        counts[:2, 0] = 0.0
        scale = np.where(np.arange(n) % 2 == 0, 10.0**power, 1.0)[:, None]
        m = make_matrix(counts, cls=CompositionMatrix)
        scaled = make_matrix(counts * scale, cls=CompositionMatrix)
        pos, removed = apply_zero_policy(m, ZeroPolicy())
        pos_scaled, removed_scaled = apply_zero_policy(scaled, ZeroPolicy())
        assert removed_scaled == removed
        np.testing.assert_allclose(pos_scaled.values, pos.values * scale, rtol=1e-14)
        outcome = Outcome.binary(np.arange(n) % 3 == 0)
        res = differential_ratio_analysis(pos, outcome)
        res_scaled = differential_ratio_analysis(pos_scaled, outcome)
        np.testing.assert_allclose(res_scaled.beta, res.beta, rtol=0.0, atol=1e-10)

    def test_strict_threshold_zero(self):
        m = self.matrix_with_zero_fractions([0.0, 0.1, 0.0])
        pos, removed = apply_zero_policy(
            m, ZeroPolicy(max_zero_fraction=0.0)
        )
        assert removed == ["f1"]
        assert pos.feature_ids == ["f0", "f2"]

    def test_no_zeros_is_identity(self):
        rng = np.random.default_rng(9)
        m = make_matrix(random_positive(rng, 6, 4), cls=CompositionMatrix)
        pos, removed = apply_zero_policy(m, ZeroPolicy())
        assert removed == []
        np.testing.assert_array_equal(pos.values, m.values)


class TestOutcome:
    def test_binary_accepts_zero_one(self):
        out = Outcome.binary(np.array([0.0, 1.0, 1.0, 0.0]))
        assert out.n == 4

    def test_binary_rejects_other_values(self):
        with pytest.raises(ValidationError):
            Outcome.binary(np.array([0.0, 2.0]))

    def test_both_classes_present(self):
        out = Outcome.binary(np.array([1.0, 1.0, 1.0]))
        assert not out.both_classes_present()
        out = Outcome.binary(np.array([0.0, 1.0, 1.0]))
        assert out.both_classes_present()

    def test_continuous_rejects_nan(self):
        with pytest.raises(ValidationError):
            Outcome.continuous(np.array([0.5, np.nan]))

    def test_subset(self):
        out = Outcome.binary(np.array([0.0, 1.0, 0.0, 1.0]))
        sub = out.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.values, [1.0, 1.0])
        assert sub.kind == "binary"
