"""Cross-validation folds and candidate scoring shared by the learners.

Folds are a pure function of the RNG, so every learner that draws its folds
from a seeded generator is reproducible bit for bit. Binary outcomes get
stratified folds. A candidate's score is the mean out-of-fold AUC (binary)
or R squared (continuous); folds whose score is undefined (a single-class
test fold, say) are skipped in the aggregation, and a candidate that cannot
be fitted in some fold scores -inf.

`score_candidates` is the one scorer: it scores every column of an n x C
matrix at once. For a binary outcome, whose link is logistic, AUC does not
change under an increasing map, so a fold's AUC depends only on the sign of
the fitted beta. The penalized profile log-likelihood of beta is concave,
and the ridge is on beta and on the intercept at the mean score, so its
slope at beta = 0 is the score statistic sum((y - mean(y)) * (z - mean(z)))
on the training rows, and the sign of beta is the sign of that statistic,
up to the fitter's tolerance. Those columns are not fitted: sign * z of
every fold's test rows goes into (a chunk of columns) x folds x (largest
test fold) arrays, short folds padded with +inf and the label -1, and one
`metrics._auc_rows` call per chunk ranks every fold of it. The other
columns are fitted, once per fold in one call of the GLM kernel on the
training rows, and beta * z + beta0 is scored on the test rows: those
whose statistic is too close to zero to fix the sign against the fitter's
tolerance, those with non-finite values, every column when a training fold
lacks a class, and every column of a continuous outcome.

A learner builds the `_FoldArrays` of its fold split once, and every
scoring of the split reuses them. One product of Z.T with the n x K
centred training labels gives every fold's score statistic. The folds
partition the rows, so a fold's training range is read off the other
folds' test ranges, which the ranking gathers anyway; a split that is no
partition is fitted.

The reference, `cv_score_values` in `tests/conftest.py`, fits one GLM per
fold and column. The scorer equals it bit for bit except in one case: two
distinct test values so close that the reference's rounding of
beta * z + beta0 makes them equal, which the reference ranks as a tie and
the sign path does not.

`_score_sets` builds C candidate columns from G x C 0/1 indicators N and
D of their sides: logs @ N / |num| - logs @ D / |den| for balances,
log(values @ N) - log(values @ D) for summed log-ratios. The products sum
in another order than `balance_from_logs` and `slr_from_values`, so the
columns differ in rounding (below 1e-14 of a column's largest entry). A
binary score depends only on the order of a fold's test values and moves
only where two of them tie within that rounding; a continuous R squared
can move in its last bits.
"""

import math

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import ValidationError
from ..glm import TOL, _fit_rows
from ..metrics import _auc_rows, _flat, _r2_rows
from .biomarker import LearnerConfig

# How far beyond the fitter's tolerance the score statistic must lie before
# its sign is taken as the sign of the fitted beta.
_SIGN_MARGIN = 1e3
# Stacked values per chunk of the sign path's ranking. Each ranking
# temporary is then at most 64 KiB, below glibc's 128 KiB mmap threshold,
# so the chunks reuse heap memory instead of faulting in fresh pages.
_RANK_ELEMENTS = 1 << 13


def make_folds(outcome: Outcome, n_folds: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) index arrays for each fold, stratified when binary."""
    n = outcome.n
    if n_folds > n:
        raise ValidationError(f"cannot make {n_folds} folds from {n} samples")
    fold_of = np.empty(n, dtype=int)
    if outcome.kind == "binary":
        for cls in (0.0, 1.0):
            idx = np.flatnonzero(outcome.values == cls)
            idx = idx[rng.permutation(idx.size)]
            fold_of[idx] = np.arange(idx.size) % n_folds
    else:
        perm = rng.permutation(n)
        fold_of[perm] = np.arange(n) % n_folds
    return [
        (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
        for f in range(n_folds)
    ]


def check_learnable(outcome: Outcome):
    """Preconditions every learner shares; `make_folds` bounds the folds.
    A continuous outcome must vary, so its standard deviation is positive."""
    y = outcome.values
    if outcome.kind == "binary":
        if min(y.sum(), y.size - y.sum()) < 2:
            raise ValidationError("binary outcome needs at least 2 samples per class")
    elif _flat(float(y.std()) * math.sqrt(y.size), y.size, np.abs(y).max()):
        raise ValidationError("continuous outcome does not vary; nothing to learn")


def _learner_setup(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None,
) -> LearnerConfig:
    """The preamble of every learner: the default config, then the
    dimension check, then `check_learnable`."""
    config = config or LearnerConfig()
    if outcome.n != matrix.n_samples:
        raise ValidationError("outcome length does not match sample count")
    check_learnable(outcome)
    return config


class _FoldArrays:
    """A fold split of `outcome`, its (train, test) `pairs`, and what every
    scoring of it shares: each fold's training outcome and whether the sign
    path applies (a binary outcome with both classes in every training
    fold, and nonempty test folds that partition the rows, each fold
    training on the rest). For the sign path: the n x K centred training
    labels, zero on each fold's test rows, and the K x (largest test fold)
    test rows and labels, a short fold padded with its own rows and the
    label -1."""

    def __init__(self, outcome: Outcome, folds):
        self.outcome = outcome
        self.pairs = [(train, test) for train, test in folds]
        self.subsets = [outcome.subset(train) for train, _ in self.pairs]
        fold_of = np.full(outcome.n, -1)
        for f, (_, test) in enumerate(self.pairs):
            fold_of[test] = f
        self.batched = outcome.kind == "binary" and (fold_of >= 0).all() and all(
            subset.both_classes_present()
            and test.size
            and (fold_of[test] == f).all()
            and np.array_equal(np.sort(train), np.flatnonzero(fold_of != f))
            for f, ((train, test), subset) in enumerate(zip(self.pairs, self.subsets))
        )
        if not self.batched:
            return
        k = len(self.pairs)
        self.train_sizes = np.array([train.size for train, _ in self.pairs])
        self.centred = np.zeros((outcome.n, k))
        width = max(test.size for _, test in self.pairs)
        self.rows = np.empty((k, width), dtype=np.intp)
        self.labels = np.full((k, width), -1.0)
        for f, ((train, test), subset) in enumerate(zip(self.pairs, self.subsets)):
            self.centred[train, f] = subset.values - subset.values.mean()
            self.rows[f] = np.resize(test, width)
            self.labels[f, : test.size] = outcome.values[test]
        self.pad = self.labels == -1.0


def _score_sets(data, mode, num, den, folds):
    """`score_candidates` of the biomarker of each of C candidates, whose
    sides are the columns of the G x C 0/1 indicators `num` and `den`:
    `data` is the log matrix in "balance" mode, the values in "slr"."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if mode == "balance":
        z = data @ num / num.sum(axis=0) - data @ den / den.sum(axis=0)
    else:
        z = np.log(data @ num) - np.log(data @ den)
    return score_candidates(z, folds)


def score_candidates(Z: np.ndarray, folds: _FoldArrays) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold (mean, standard error) of every column of Z (n x C) on
    the split `folds`, against its outcome. A column that cannot be fitted
    in some fold scores -inf with SE 0. See the module docstring for which
    columns are fitted.
    """
    Z = np.asarray(Z, dtype=float)
    n = folds.outcome.n
    if Z.ndim != 2 or Z.shape[0] != n:
        raise ValidationError(f"candidate matrix of shape {Z.shape} for {n} samples")
    if not folds.batched:
        return _fitted_scores(Z, folds)

    # Non-finite columns are fitted, which rejects them; zeros keep them
    # out of the way here.
    finite = np.all(np.isfinite(Z), axis=0)
    z_all = Z if finite.all() else np.where(finite, Z, 0.0)
    # columns x folds: each fold's score statistic, and each column's range
    # on each fold's test rows.
    stat = z_all.T @ folds.centred
    signs = np.where(stat > 0.0, 1.0, -1.0)
    high, low, aucs = (np.empty(stat.shape) for _ in range(3))
    rows, labels = folds.rows, folds.labels
    step = max(1, _RANK_ELEMENTS // rows.size)
    for lo in range(0, Z.shape[1], step):
        cols = slice(lo, lo + step)
        # columns x folds x width: every fold's test scores.
        block = z_all.T[cols, rows]
        high[cols] = block.max(axis=-1)
        low[cols] = block.min(axis=-1)
        block *= signs[cols, :, None]
        block[:, folds.pad] = np.inf
        aucs[cols] = _auc_rows(labels, block)
    # A fold's training rows are the other folds' test rows, so its range
    # runs from the least of their minima to the greatest of their maxima.
    top, bottom = _max_of_others(high), -_max_of_others(-low)
    # The kernel's rule, so a column is dead here iff a fit rejects it.
    magnitude = np.maximum(top, -bottom)
    dead = _flat(top - bottom, folds.train_sizes, magnitude).any(axis=1) & finite
    margin = _SIGN_MARGIN * TOL * (1.0 + magnitude)
    undecided = ~finite | (np.abs(stat) <= margin).any(axis=1)
    mean, se = _mean_and_se(aucs, dead)
    to_fit = np.flatnonzero(undecided & ~dead)
    if to_fit.size:
        mean[to_fit], se[to_fit] = _fitted_scores(Z[:, to_fit], folds)
    return mean, se


def _max_of_others(x):
    """For each entry of x (columns x folds), the largest other entry of
    its row: the second largest where it is the largest, else the largest."""
    ordered = np.sort(x, axis=1)
    return np.where(x == ordered[:, -1:], ordered[:, -2:-1], ordered[:, -1:])


def _fitted_scores(Z, folds):
    """(mean, SE) of every column of Z from one GLM fit per fold: all
    columns are fitted on the training rows in one kernel call, and
    beta * z + beta0 is scored on the test rows."""
    zt = np.ascontiguousarray(Z.T)
    y = folds.outcome.values
    binary = folds.outcome.kind == "binary"
    dead = np.zeros(len(zt), dtype=bool)
    scores = np.full((len(zt), len(folds.pairs)), np.nan)
    for f, ((train, test), subset) in enumerate(zip(folds.pairs, folds.subsets)):
        live = np.flatnonzero(~dead)
        if not live.size:
            break
        fits = _fit_rows(zt[np.ix_(live, train)], subset)
        fitted = np.array([e is None for e in fits.errors], dtype=bool)
        dead[live[~fitted]] = True
        live = live[fitted]
        beta, beta0 = fits.beta[fitted, None], fits.beta0[fitted, None]
        eta = beta * zt[np.ix_(live, test)] + beta0
        if binary:
            scores[live, f] = _auc_rows(y[test], eta)
        else:
            scores[live, f] = _r2_rows(y[test], eta)
    return _mean_and_se(scores, dead)


def _mean_and_se(scores, dead):
    """Mean and standard error of each row of scores (candidates x folds)
    over its folds that are not NaN, reduced as a 1-D array of those fold
    scores is; -inf with SE 0 for a dead row or one with no scored fold."""
    n_folds = scores.shape[1]
    se = np.zeros(len(scores))
    scored = ~np.isnan(scores)
    if n_folds and not dead.any() and scored.all():
        # Every row scored in every fold: the whole table is one sub-array.
        if n_folds >= 2:
            se = scores.std(axis=1, ddof=1) / math.sqrt(n_folds)
        return scores.mean(axis=1), se
    mean = np.full(len(scores), float("-inf"))
    # Live rows sorted by their scored-fold mask; each run of one mask is
    # reduced as one sub-array.
    rows = np.flatnonzero(~dead)
    rows = rows[np.lexsort(scored[rows].T)]
    masks = scored[rows]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (masks[1:] != masks[:-1]).any(axis=1)
    for group, mask in zip(np.split(rows, np.flatnonzero(first)[1:]), masks[first]):
        k = int(mask.sum())
        if k == 0:
            continue
        valid = scores[np.ix_(group, np.flatnonzero(mask))]
        mean[group] = valid.mean(axis=1)
        if k >= 2:
            se[group] = valid.std(axis=1, ddof=1) / math.sqrt(k)
    return mean, se
