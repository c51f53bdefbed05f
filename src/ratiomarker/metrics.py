"""Scoring helpers: AUC for binary outcomes, R squared for continuous."""

import math

import numpy as np


def _flat(spread, size, scale):
    """Whether data of `size` values, the largest of magnitude `scale`, have
    no variation: their `spread` (a range, a centred norm or a leading
    singular value, in the data's own units) is at most size * eps * scale.
    Elementwise; a NaN spread is not flat."""
    return spread <= size * np.finfo(float).eps * scale


def _auc_rows(y, scores):
    """AUC of every slice of `scores` along its last axis against `y`.

    The rank-sum (Mann-Whitney) form: the probability that a random
    positive outscores a random negative, counting ties as one half. NaN
    when either class is absent, and for a slice that holds a NaN.

    `y` may be stacked labels, (folds x width) against scores of
    (C x folds x width), to rank every fold in one pass. A short fold is
    padded with the label -1 and finite scores with +inf, which ranks last
    and so leaves the real ranks alone.

    Each slice's scores and labels are gathered in sorted order by flat
    index. Tie-free slices sum their positives' 1-based positions in one
    product, tied ones (-0.0 ties 0.0, two +inf pads tie) their midranks;
    once there are as many ties as slices, all sum midranks. The sums are
    exact in any order. NaN sorts last, so it ends the slice holding it.
    """
    y = np.asarray(y, dtype=float)
    scores = np.asarray(scores, dtype=float)
    positive = y == 1.0
    n_pos = positive.sum(axis=-1)
    n_neg = (y == 0.0).sum(axis=-1)
    *rows, width = scores.shape
    order = np.argsort(scores, axis=-1)
    order += width * np.arange(math.prod(rows)).reshape(*rows, 1)
    ordered = scores.ravel()[order]
    ranked_positive = np.broadcast_to(positive, scores.shape).ravel()[order]
    starts = np.ones(scores.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    ties = starts.size - np.count_nonzero(starts)
    few = ties < math.prod(rows)
    rank_sum = ranked_positive @ np.arange(1.0, width + 1) if few else np.empty(rows)
    if ties:
        pick = ~starts.all(axis=-1) if few else ...
        starts, ranked_positive = starts[pick], ranked_positive[pick]
        first = np.broadcast_to(np.arange(width), starts.shape)[starts]
        size = np.diff(np.flatnonzero(starts), append=starts.size)
        midranks = np.repeat(first + (size + 1) / 2.0, size).reshape(starts.shape)
        rank_sum[pick] = np.where(ranked_positive, midranks, 0.0).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    undefined = (n_pos == 0) | (n_neg == 0) | np.isnan(ordered[..., -1:]).any(axis=-1)
    return np.where(undefined, np.nan, auc)


def auc_score(y, scores) -> float:
    """Area under the ROC curve via midranks.

    Equals the probability that a random positive outscores a random
    negative, counting ties as one half. Returns NaN when either class is
    absent.
    """
    return float(_auc_rows(y, scores))


def _r2_rows(y, predictions):
    """R squared of every slice of `predictions` along its last axis
    against `y`. NaN for every slice when `y` does not vary."""
    y = np.asarray(y, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if _flat(np.sqrt(ss_tot), y.size, np.abs(y).max(initial=0.0)):
        return np.full(predictions.shape[:-1], np.nan)
    return 1.0 - ((y - predictions) ** 2).sum(axis=-1) / ss_tot


def r2_score(y, predictions) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    SS_tot is taken about the mean of `y`. Returns NaN when `y` does not
    vary (see `_flat`), leaving the degenerate case to the caller.
    """
    return float(_r2_rows(y, predictions))
