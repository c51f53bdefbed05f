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

The reference, `cv_score_values` in `tests/conftest.py`, fits one GLM per
fold and column. The scorer equals it bit for bit except in one case: two
distinct test values so close that the reference's rounding of
beta * z + beta0 makes them equal, which the reference ranks as a tie and
the sign path does not.
"""

import math

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import DimensionMismatch, ValidationError
from ..glm import TOL, _fit_rows
from ..metrics import _auc_rows, _flat, _r2_rows
from .biomarker import LearnerConfig, balance_from_logs, slr_from_values

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
        raise DimensionMismatch("outcome length does not match sample count")
    check_learnable(outcome)
    return config


def _score_sets(data, mode, sets, outcome, folds):
    """`score_candidates` of the biomarker of each (numerator, denominator)
    set: `data` is the log matrix in "balance" mode, the values in "slr"."""
    score = balance_from_logs if mode == "balance" else slr_from_values
    z = np.column_stack([score(data, num, den) for num, den in sets])
    return score_candidates(z, outcome, folds)


def score_candidates(
    Z: np.ndarray,
    outcome: Outcome,
    folds,
) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold (mean, standard error) of every column of Z (n x C).

    A column that cannot be fitted in some fold scores -inf with SE 0. See
    the module docstring for which columns are fitted.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != outcome.n:
        raise DimensionMismatch(
            f"candidate matrix of shape {Z.shape} for {outcome.n} samples"
        )
    y = outcome.values
    batched = outcome.kind == "binary" and all(
        train.size and 0.0 < y[train].mean() < 1.0 for train, _ in folds
    )
    if not batched:
        return _fitted_scores(Z, outcome, folds)

    # Non-finite columns are fitted, which rejects them; zeros keep them
    # out of the way here.
    finite = np.all(np.isfinite(Z), axis=0)
    z_all = Z if finite.all() else np.where(finite, Z, 0.0)
    undecided = ~finite
    dead = np.zeros(Z.shape[1], dtype=bool)
    width = max(test.size for _, test in folds)
    signs = np.empty((Z.shape[1], len(folds)))
    # Each fold's test rows; a short fold is padded with row 0, masked below.
    rows = np.zeros((len(folds), width), dtype=np.intp)
    labels = np.full((len(folds), width), -1.0)
    for f, (train, test) in enumerate(folds):
        z_train = z_all[train]
        y_train = y[train]
        ybar = y_train.mean()
        stat = (y_train - ybar) @ z_train
        top = z_train.max(axis=0)
        bottom = z_train.min(axis=0)
        # The kernel's rule, so a column is dead here iff a fit rejects it.
        magnitude = np.maximum(top, -bottom)
        dead |= _flat(top - bottom, train.size, magnitude)
        margin = _SIGN_MARGIN * TOL * (1.0 + magnitude)
        undecided |= np.abs(stat) <= margin
        signs[:, f] = np.where(stat > 0.0, 1.0, -1.0)
        rows[f, : test.size] = test
        labels[f, : test.size] = y[test]
    dead &= finite
    pad = labels == -1.0
    aucs = np.empty((Z.shape[1], len(folds)))
    step = max(1, _RANK_ELEMENTS // (len(folds) * width))
    for lo in range(0, Z.shape[1], step):
        cols = slice(lo, lo + step)
        # columns x folds x width: every fold's signed test scores.
        signed = z_all.T[cols, rows] * signs[cols, :, None]
        signed[:, pad] = np.inf
        aucs[cols] = _auc_rows(labels, signed)
    mean, se = _mean_and_se(aucs, dead)
    to_fit = np.flatnonzero(undecided & ~dead)
    if to_fit.size:
        mean[to_fit], se[to_fit] = _fitted_scores(Z[:, to_fit], outcome, folds)
    return mean, se


def _fitted_scores(Z, outcome, folds):
    """(mean, SE) of every column of Z from one GLM fit per fold: all
    columns are fitted on the training rows in one kernel call, and
    beta * z + beta0 is scored on the test rows."""
    zt = np.ascontiguousarray(Z.T)
    y = outcome.values
    dead = np.zeros(len(zt), dtype=bool)
    scores = np.full((len(zt), len(folds)), np.nan)
    for f, (train, test) in enumerate(folds):
        live = np.flatnonzero(~dead)
        if not live.size:
            break
        fits = _fit_rows(zt[np.ix_(live, train)], outcome.subset(train))
        fitted = np.array([e is None for e in fits.errors], dtype=bool)
        dead[live[~fitted]] = True
        live = live[fitted]
        beta, beta0 = fits.beta[fitted, None], fits.beta0[fitted, None]
        eta = beta * zt[np.ix_(live, test)] + beta0
        if outcome.kind == "binary":
            scores[live, f] = _auc_rows(y[test], eta)
        else:
            scores[live, f] = _r2_rows(y[test], eta)
    return _mean_and_se(scores, dead)


def _mean_and_se(scores, dead):
    """Mean and standard error of each row of scores (candidates x folds)
    over its folds that are not NaN, reduced as a 1-D array of those fold
    scores is; -inf with SE 0 for a dead row or one with no scored fold."""
    mean = np.full(len(scores), float("-inf"))
    se = np.zeros(len(scores))
    scored = ~np.isnan(scores)
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
