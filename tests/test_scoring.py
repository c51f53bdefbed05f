"""Fold construction and out-of-fold candidate scoring."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    column_by_column,
    cv_score_values,
    reference_mean_and_se,
    reference_score_candidates,
)

from ratiomarker.composition import Outcome, StrictlyPositiveMatrix
from ratiomarker.errors import ValidationError
from ratiomarker.glm import TOL
from ratiomarker.learn import (
    LearnerConfig,
    evolutionary_slr,
    forward_stepwise_balance,
    relaxed_gradient_learner,
)
from ratiomarker.learn import scoring
from ratiomarker.learn.biomarker import balance_from_logs, slr_from_values
from ratiomarker.learn.scoring import (
    _FoldArrays,
    _mean_and_se,
    _score_sets,
    check_learnable,
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
            check_learnable(Outcome.binary(np.array([0.0, 1.0, 1.0, 1.0])))
        check_learnable(Outcome.binary(np.array([0.0, 0.0, 1.0, 1.0])))


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
        with pytest.raises(ValidationError, match="outcome length does not match"):
            learner(self.matrix, Outcome.binary(y))

    def test_one_sample_class(self, learner):
        y = np.zeros(10)
        y[0] = 1.0
        with pytest.raises(ValidationError, match="2 samples per class"):
            learner(self.matrix, Outcome.binary(y))

    def test_more_folds_than_samples(self, learner):
        # `make_folds` is the one check of the fold count.
        out = Outcome.continuous(np.arange(10.0))
        with pytest.raises(ValidationError, match="cannot make 11 folds from 10"):
            learner(self.matrix, out, LearnerConfig(cv_folds=11))

    @pytest.mark.parametrize("value", [0.3, 2.0])
    def test_continuous_outcome_that_does_not_vary(self, learner, value):
        # 0.3 is not exact in binary, so its deviations from the mean are
        # rounding noise; 2.0 is, and they are zeros. Both are rejected.
        out = Outcome.continuous(np.full(10, value))
        with pytest.raises(ValidationError, match="does not vary"):
            learner(self.matrix, out, LearnerConfig(cv_folds=2))


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
        good, _, _ = cv_score_values(z, out, folds)
        noise, _, _ = cv_score_values(rng.normal(0.0, 1.0, out.n), out, folds)
        assert good > 0.85
        assert noise < good

    def test_returns_per_fold_scores(self):
        z, out = self.separable_data()
        folds = make_folds(out, 5, np.random.default_rng(6))
        mean, se, per_fold = cv_score_values(z, out, folds)
        assert len(per_fold) == 5
        arr = np.asarray(per_fold)
        np.testing.assert_allclose(mean, arr.mean())
        np.testing.assert_allclose(
            se, arr.std(ddof=1) / np.sqrt(5), rtol=1e-12
        )

    def test_unfittable_candidate_scores_neg_inf(self):
        _, out = self.separable_data()
        folds = make_folds(out, 5, np.random.default_rng(7))
        mean, se, per_fold = cv_score_values(np.zeros(out.n), out, folds)
        assert mean == float("-inf")
        assert per_fold == []

    def test_continuous_uses_r2(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0.0, 1.0, 50)
        y = 2.0 * z + rng.normal(0.0, 0.1, 50)
        out = Outcome.continuous(y)
        folds = make_folds(out, 5, np.random.default_rng(9))
        mean, _, _ = cv_score_values(z, out, folds)
        assert mean > 0.95


@st.composite
def scoring_cases(draw, binary=st.booleans()):
    """Outcome, folds and a candidate matrix with the awkward columns.

    Values lie on a grid of step 1/32 at the finest, so ties are common.
    The grid also keeps apart what the oracle's rounding of
    beta * z + beta0 could merge: two distinct values closer than that
    rounding resolves tie in the oracle's ranks but not in the kernel's,
    the one case where the two may legitimately differ. The columns off
    the grid are constant up to rounding, log(3a) - log(a) and 0.1, so
    the sign path must call them dead wherever a fit rejects them.
    """
    n = draw(st.integers(4, 30))

    def draw_vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    binary = draw(binary)
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
            "far_from_zero",
            "tripled",
            "tenth",
        ]
    )
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind == "free":
            z = free()
        elif kind in ("informative", "negated"):
            z = y * draw(st.integers(1, 16)) / 8.0 + free() / 4.0
            z = -z if kind == "negated" else z
        elif kind == "far_from_zero":
            z = y * draw(st.integers(1, 16)) / 8.0 + free() / 4.0
            z = z + draw(st.sampled_from([-1e6, -1e4, 1e4, 1e6]))
        elif kind == "constant":
            z = np.full(n, draw(grid) / 8.0)
        elif kind == "tripled":
            a = draw_vector(st.integers(1, 64)) / 8.0
            z = np.log(3.0 * a) - np.log(a)
        elif kind == "tenth":
            z = np.full(n, 0.1)
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
    return out, folds, np.column_stack(columns)


@st.composite
def sign_path_cases(draw):
    """A binary `scoring_cases` case widened to 1 to 2,000 columns: its
    awkward columns, columns whose score statistic lies near the sign
    margin on one training fold, and seeded grid columns, in a seeded
    order so that they fall anywhere in the ranking's chunks. A split with
    a single-class training fold is fitted column by column, so it gets
    few grid columns."""
    out, folds, z_matrix = draw(scoring_cases(binary=st.just(True)))
    y = out.values
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = out.n
    columns = list(z_matrix.T)
    for factor in draw(st.lists(st.sampled_from([0.5, 0.99, 1.01, 2.0, -0.99, -1.01]))):
        train, _ = folds[draw(st.integers(0, len(folds) - 1))]
        centred = y[train] - y[train].mean()
        z = rng.integers(-64, 65, n) / 8.0
        if not centred.any():
            continue
        # Move the statistic on `train` to `factor` times the margin.
        margin = scoring._SIGN_MARGIN * TOL * (1.0 + np.abs(z[train]).max())
        z[train] += (factor * margin - centred @ z[train]) / (centred @ centred) * centred
        columns.append(z)
    batched = all(0.0 < y[train].mean() < 1.0 for train, _ in folds)
    n_grid = draw(st.integers(0, 2000 - len(columns) if batched else 20))
    columns.extend(rng.integers(-64, 65, (n_grid, n)) / 8.0)
    z_matrix = np.column_stack(columns)
    return out, folds, z_matrix[:, rng.permutation(z_matrix.shape[1])]


class TestScoreCandidates:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(sign_path_cases())
    def test_equals_the_per_fold_sign_path_bit_for_bit(self, case):
        out, folds, z_matrix = case
        mean, se = score_candidates(z_matrix, _FoldArrays(out, folds))
        want_mean, want_se = reference_score_candidates(z_matrix, out, folds)
        assert mean.tobytes() == want_mean.tobytes()
        assert se.tobytes() == want_se.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(scoring_cases())
    def test_equals_the_column_by_column_oracle_bit_for_bit(self, case):
        out, folds, z_matrix = case
        mean, se = score_candidates(z_matrix, _FoldArrays(out, folds))
        want_mean, want_se = column_by_column(z_matrix, out, folds)
        assert mean.tobytes() == want_mean.tobytes()
        assert se.tobytes() == want_se.tobytes()

    @pytest.mark.parametrize("chunk", [1, 250, None], ids=["column", "few", "default"])
    def test_planted_pairs_match_the_oracle_and_its_winner(self, monkeypatch, chunk):
        # 66 columns of 5 folds x 12 rows: one column per ranked chunk, four
        # columns per chunk, and the default chunk that holds them all.
        if chunk is not None:
            monkeypatch.setattr(scoring, "_RANK_ELEMENTS", chunk)
        rng = np.random.default_rng(11)
        n, g = 60, 12
        logs = rng.normal(0.0, 1.0, (n, g))
        y = (np.arange(n) % 2).astype(float)
        logs[:, 3] += 1.5 * y
        out = Outcome.binary(y)
        folds = make_folds(out, 5, np.random.default_rng(12))
        jj, kk = np.triu_indices(g, 1)
        z_matrix = logs[:, jj] - logs[:, kk]
        mean, se = score_candidates(z_matrix, _FoldArrays(out, folds))
        want_mean, want_se = column_by_column(z_matrix, out, folds)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(se, want_se)
        assert 3 in (jj[np.argmax(mean)], kk[np.argmax(mean)])

    def test_non_finite_column_scores_neg_inf(self):
        out = Outcome.binary((np.arange(20) % 2).astype(float))
        folds = make_folds(out, 4, np.random.default_rng(0))
        z_matrix = np.column_stack([np.arange(20.0), np.arange(20.0)])
        z_matrix[5, 1] = np.inf
        mean, se = score_candidates(z_matrix, _FoldArrays(out, folds))
        assert np.isfinite(mean[0])
        assert mean[1] == float("-inf") and se[1] == 0.0

    def test_row_count_must_match_the_outcome(self):
        out = Outcome.binary((np.arange(20) % 2).astype(float))
        folds = make_folds(out, 4, np.random.default_rng(0))
        shape = re.escape("candidate matrix of shape (19, 2) for 20 samples")
        with pytest.raises(ValidationError, match=shape):
            score_candidates(np.zeros((19, 2)), _FoldArrays(out, folds))


@st.composite
def fold_score_tables(draw):
    """Candidates x folds tables of fold scores with NaN patterns, and
    dead rows; more than 63 folds would overflow a 64-bit mask code."""
    c = draw(st.integers(0, 15))
    n_folds = draw(st.one_of(st.integers(2, 7), st.integers(62, 70)))
    nan_share = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    scores = draw(
        hnp.arrays(
            np.float64,
            (c, n_folds),
            elements=st.one_of(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
            ),
        )
    )
    blank = draw(hnp.arrays(np.float64, (c, n_folds), elements=st.floats(0.0, 1.0)))
    scores[blank < nan_share] = np.nan
    dead = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)), dtype=bool)
    return scores, dead


class TestMeanAndSe:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fold_score_tables())
    def test_equals_the_reference_bit_for_bit(self, case):
        scores, dead = case
        mean, se = _mean_and_se(scores, dead)
        want_mean, want_se = reference_mean_and_se(scores, dead)
        assert mean.tobytes() == want_mean.tobytes()
        assert se.tobytes() == want_se.tobytes()

    def test_fast_path_equals_the_reference_bit_for_bit(self):
        # No dead row and every fold scored: one reduction of the table.
        rng = np.random.default_rng(3)
        for c, n_folds in ((1, 2), (40, 5), (300, 10), (7, 1)):
            scores = rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()], (c, n_folds))
            dead = np.zeros(c, dtype=bool)
            mean, se = _mean_and_se(scores, dead)
            want_mean, want_se = reference_mean_and_se(scores, dead)
            assert mean.tobytes() == want_mean.tobytes()
            assert se.tobytes() == want_se.tobytes()


@st.composite
def candidate_sets(draw):
    """A positive n x G matrix and C candidates, each two disjoint
    nonempty sides of 1 to G - 1 features, as G x C 0/1 indicators."""
    n = draw(st.integers(1, 20))
    g = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.exp(rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 5.0])), (n, g)))
    c = draw(st.integers(1, 40))
    num, den = np.zeros((2, g, c))
    for j in range(c):
        size = draw(st.integers(2, g))
        picked = rng.permutation(g)[:size]
        split = draw(st.integers(1, size - 1))
        num[picked[:split], j] = 1.0
        den[picked[split:], j] = 1.0
    return values, num, den


class TestSetColumns:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(candidate_sets(), st.sampled_from(["balance", "slr"]))
    def test_columns_match_the_per_set_scores(self, case, mode):
        values, num, den = case
        built = []

        def record(z, folds):
            built.append(z)
            return np.zeros(z.shape[1]), np.zeros(z.shape[1])

        data = np.log(values) if mode == "balance" else values
        score = balance_from_logs if mode == "balance" else slr_from_values
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "score_candidates", record)
            _score_sets(data, mode, num, den, None)
        (z,) = built
        for j in range(num.shape[1]):
            want = score(data, np.flatnonzero(num[:, j]), np.flatnonzero(den[:, j]))
            np.testing.assert_allclose(z[:, j], want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestFoldArrays:
    """Each learner builds the arrays of its fold split once."""

    @pytest.mark.parametrize(
        "learner", [forward_stepwise_balance, relaxed_gradient_learner, evolutionary_slr]
    )
    def test_one_build_per_split(self, monkeypatch, learner):
        builds = []
        init = _FoldArrays.__init__

        def counting(self, outcome, folds):
            builds.append(outcome)
            init(self, outcome, folds)

        monkeypatch.setattr(_FoldArrays, "__init__", counting)
        rng = np.random.default_rng(21)
        n, g = 40, 6
        values = np.exp(rng.normal(0.0, 1.0, (n, g)))
        y = (np.arange(n) % 2).astype(float)
        values[:, 1] *= np.exp(1.5 * y)
        matrix = StrictlyPositiveMatrix(
            values, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(g)]
        )
        config = LearnerConfig(seed=21, epochs=50, population=12, generations=5)
        learner(matrix, Outcome.binary(y), config)
        assert len(builds) == 1

    def test_a_split_that_is_no_partition_is_fitted(self):
        # Fold 1 trains on a row that fold 0 tests, and on its own test row.
        out = Outcome.binary((np.arange(12) % 2).astype(float))
        folds = [
            (np.arange(6, 12), np.arange(6)),
            (np.arange(0, 8), np.arange(7, 12)),
        ]
        split = _FoldArrays(out, folds)
        assert not split.batched
        z_matrix = np.random.default_rng(4).normal(size=(12, 5))
        mean, se = score_candidates(z_matrix, split)
        want_mean, want_se = column_by_column(z_matrix, out, folds)
        assert mean.tobytes() == want_mean.tobytes()
        assert se.tobytes() == want_se.tobytes()
