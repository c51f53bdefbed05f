"""Scoring helpers: AUC for binary outcomes, R squared for continuous."""

import numpy as np


def _flat(spread, size, scale):
    """Whether data of `size` values, the largest of magnitude `scale`, have
    no variation: their `spread` (a range, a centred norm or a leading
    singular value, in the data's own units) is at most size * eps * scale.
    Elementwise; a NaN spread is not flat."""
    return spread <= size * np.finfo(float).eps * scale


def _midranks(a) -> np.ndarray:
    """1-based ranks along the last axis, each tie group given its mean rank.

    Equals `scipy.stats.rankdata(a, axis=-1)` bit for bit: a slice that
    holds a NaN is all NaN, and -0.0 ties with 0.0. Midranks are
    half-integers, so they are exact. Equal values get one midrank
    whatever order the sort leaves them in, so the sort need not be
    stable.
    """
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, axis=-1)
    ordered = np.take_along_axis(a, order, axis=-1)
    # A tie group starts where the sorted value changes; the start's
    # 0-based position and the group's size give its midrank.
    starts = np.ones(a.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    first = np.broadcast_to(np.arange(a.shape[-1]), a.shape)[starts]
    size = np.diff(np.flatnonzero(starts), append=a.size)
    ranks = np.empty(a.shape)
    np.put_along_axis(
        ranks,
        order,
        np.repeat(first + (size + 1) / 2.0, size).reshape(a.shape),
        axis=-1,
    )
    has_nan = np.isnan(a).any(axis=-1, keepdims=True)
    if has_nan.any():
        ranks = np.where(has_nan, np.nan, ranks)
    return ranks


def _auc_rows(y, scores):
    """AUC of every slice of `scores` along its last axis against `y`.

    The rank-sum (Mann-Whitney) form: the probability that a random
    positive outscores a random negative, counting ties as one half. NaN
    when either class is absent, and for a slice that holds a NaN.

    `y` may be stacked labels, (folds x width) against scores of
    (C x folds x width), to rank every fold in one pass. A short fold is
    padded with the label -1 and finite scores with +inf, which ranks last
    and so leaves the real ranks alone; midranks are half-integers, so the
    rank sums are exact.
    """
    y = np.asarray(y, dtype=float)
    positive = y == 1.0
    n_pos = positive.sum(axis=-1)
    n_neg = (y == 0.0).sum(axis=-1)
    rank_sum = np.where(positive, _midranks(scores), 0.0).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return np.where((n_pos == 0) | (n_neg == 0), np.nan, auc)


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
