"""The AUC rows against scipy and against the old midrank kernel, and the
R squared rows against the scalar formula.

`conftest.reference_midranks`, once the package's own midrank kernel, must
equal `scipy.stats.rankdata` byte for byte on 1-D and 2-D inputs of every
width, with heavy ties, signed zeros, infinities and NaN. `_auc_rows` sums
positions for tie-free slices and midranks for tied ones, in sorted order,
and must equal the AUC that sums midranks in the input's order
(`conftest.reference_auc_rows`) byte for byte, with tie-free and tied
slices mixed in one call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from conftest import reference_auc, reference_auc_rows, reference_midranks, reference_r2

from ratiomarker.metrics import _auc_rows, _r2_rows, auc_score, r2_score

# Few distinct values make heavy ties; -0.0 and 0.0 must tie.
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
ELEMENTS = st.one_of(TIED, ANY_FLOAT)


def arrays(ndim):
    shape = hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=12)
    return hnp.arrays(np.float64, shape, elements=ELEMENTS)


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes()
    )


class TestMidranks:
    @settings(max_examples=300, deadline=None)
    @given(arrays(1))
    def test_one_dimensional_equals_scipy(self, a):
        assert same_bytes(reference_midranks(a), rankdata(a))

    @settings(max_examples=300, deadline=None)
    @given(arrays(2))
    def test_each_row_equals_scipy(self, a):
        assert same_bytes(reference_midranks(a), rankdata(a, axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(arrays(2), st.data())
    def test_a_nan_blanks_only_its_row(self, a, data):
        row = data.draw(st.integers(0, a.shape[0] - 1))
        col = data.draw(st.integers(0, a.shape[1] - 1))
        a[row, col] = np.nan
        got = reference_midranks(a)
        assert np.isnan(got[row]).all()
        assert same_bytes(got, rankdata(a, axis=-1))

    def test_ties_get_their_mean_rank(self):
        got = reference_midranks(np.array([3.0, -0.0, 1.0, 0.0, 3.0, 3.0, -np.inf]))
        np.testing.assert_array_equal(got, [6.0, 2.5, 4.0, 2.5, 6.0, 6.0, 1.0])


FINITE = st.floats(-1e6, 1e6, width=64)
FINITE_TIED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), FINITE)


@st.composite
def stacked_folds(draw):
    """Per-fold labels and finite C x m score blocks of unequal m; some
    folds have one class, and some slices hold a NaN."""
    n_folds = draw(st.integers(1, 5))
    c = draw(st.integers(1, 6))
    folds = []
    for _ in range(n_folds):
        m = draw(st.integers(1, 12))
        y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m)))
        scores = draw(hnp.arrays(np.float64, (c, m), elements=FINITE_TIED))
        if draw(st.booleans()):
            scores[draw(st.integers(0, c - 1)), draw(st.integers(0, m - 1))] = np.nan
        folds.append((y, scores))
    return folds


@st.composite
def mixed_chunks(draw):
    """Labels (folds x width) and scores (C x folds x width) as the scorer
    stacks them, whose slices tie or not within one call. Every slice
    starts with distinct scores; a drawn set of them, from none to all,
    then ties -0.0 with 0.0 or repeats a value, so that a call holds fewer
    or more ties than slices. Fold 0 may be padded with two or more +inf,
    which ties its every slice, and a NaN may go into a tied and into a
    tie-free slice."""
    c = draw(st.integers(1, 6))
    n_folds = draw(st.integers(1, 4))
    width = draw(st.integers(5, 12))
    size = n_folds * width
    labels = np.array(
        draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
    ).reshape(n_folds, width)
    scores = np.empty((c, n_folds, width))
    slices = list(np.ndindex(c, n_folds))
    for index in slices:
        scores[index] = np.array(draw(st.permutations(range(width)))) - width / 2
    tied = draw(st.lists(st.sampled_from(slices), unique=True, max_size=len(slices)))
    for index in tied:
        if draw(st.booleans()):
            scores[index][:2] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
        else:
            scores[index][1] = scores[index][0]
    if draw(st.booleans()):
        pads = draw(st.integers(2, width - 3))
        labels[0, -pads:] = -1.0
        scores[:, 0, -pads:] = np.inf
        tied += [index for index in slices if index[1] == 0]
    free = [index for index in slices if index not in tied]
    for group in (tied, free):
        if group and draw(st.booleans()):
            scores[group[0]][2] = np.nan
    return labels, scores


class TestAuc:
    @settings(max_examples=200, deadline=None)
    @given(arrays(2), st.data())
    def test_rows_equal_the_scipy_reference(self, scores, data):
        width = scores.shape[1]
        y = np.array(
            data.draw(
                st.lists(st.sampled_from([0.0, 1.0]), min_size=width, max_size=width)
            )
        )
        got = _auc_rows(y, scores)
        want = np.array([reference_auc(y, row) for row in scores])
        assert same_bytes(got, want)
        assert same_bytes(np.array([auc_score(y, row) for row in scores]), want)

    @settings(max_examples=300, deadline=None)
    @given(stacked_folds())
    def test_stacked_folds_equal_one_call_per_fold(self, folds):
        # Short folds padded with label -1 and score +inf, as the scorer
        # stacks them.
        width = max(y.size for y, _ in folds)
        labels = np.full((len(folds), width), -1.0)
        stacked = np.full((folds[0][1].shape[0], len(folds), width), np.inf)
        for f, (y, scores) in enumerate(folds):
            labels[f, : y.size] = y
            stacked[:, f, : y.size] = scores
        want = np.array([_auc_rows(y, scores) for y, scores in folds]).T
        assert same_bytes(_auc_rows(labels, stacked), want)

    @settings(max_examples=300, deadline=None)
    @given(stacked_folds(), st.sampled_from([0.0, -0.0, np.inf]))
    def test_sorted_rank_sums_equal_the_scattered_ones(self, folds, tie):
        # Padded as the scorer stacks folds; some slices tie a score with
        # `tie` (-0.0 against 0.0, or +inf against the padding).
        width = max(y.size for y, _ in folds)
        labels = np.full((len(folds), width), -1.0)
        stacked = np.full((folds[0][1].shape[0], len(folds), width), np.inf)
        for f, (y, scores) in enumerate(folds):
            labels[f, : y.size] = y
            stacked[:, f, : y.size] = scores
        stacked[0, :, 0] = tie
        for y, scores in ((labels, stacked), (labels[0], stacked[:, 0])):
            assert same_bytes(_auc_rows(y, scores), reference_auc_rows(y, scores))

    @settings(max_examples=300, deadline=None)
    @given(mixed_chunks())
    def test_tie_free_and_tied_slices_in_one_call(self, chunk):
        # Tie-free slices sum positions, tied ones midranks; both must
        # give the scattered midrank sums' bits, stacked and one by one.
        labels, scores = chunk
        want = reference_auc_rows(labels, scores)
        assert same_bytes(_auc_rows(labels, scores), want)
        for c, f in np.ndindex(scores.shape[:2]):
            y, row = labels[f], scores[c, f]
            assert same_bytes(_auc_rows(y, row), reference_auc_rows(y, row))

    @pytest.mark.parametrize("width", [0, 1])
    def test_widths_zero_and_one(self, width):
        y = np.ones((2, width))
        for scores in (np.zeros((3, 2, width)), np.zeros(width)):
            labels = y if scores.ndim == 3 else y[0]
            got = _auc_rows(labels, scores)
            assert same_bytes(got, reference_auc_rows(labels, scores))
            assert np.isnan(got).all()

    def test_absent_class_and_nan_scores_give_nan(self):
        assert np.isnan(auc_score(np.zeros(4), np.arange(4.0)))
        assert np.isnan(auc_score([0.0, 1.0, 1.0], [0.2, np.nan, 0.9]))
        assert np.isnan(_auc_rows(np.ones(3), np.ones((2, 3)))).all()


class TestR2:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=FINITE),
            hnp.arrays(np.float64, (3, n), elements=FINITE),
        )
    ))
    def test_rows_equal_the_scalar_reference(self, case):
        y, predictions = case
        want = np.array([reference_r2(y, row) for row in predictions])
        # A near-constant y overflows SS_res / SS_tot to inf in both forms.
        with np.errstate(over="ignore"):
            assert same_bytes(_r2_rows(y, predictions), want)
            rows = [r2_score(y, row) for row in predictions]
        assert same_bytes(np.array(rows), want)

    def test_constant_outcome_gives_nan_in_every_row(self):
        assert np.isnan(_r2_rows(np.ones(3), np.ones((2, 3)))).all()

    def test_outcome_constant_up_to_rounding_gives_nan(self):
        # The mean of ten 0.3s is not 0.3, so SS_tot is rounding noise.
        assert np.isnan(r2_score(np.full(10, 0.3), np.full(10, 0.301)))
