"""Cross-validation folds and candidate scoring shared by the learners.

Folds are a pure function of the RNG, so every learner that draws its folds
from a seeded generator is reproducible bit for bit. Binary outcomes get
stratified folds. A candidate's score is the mean out-of-fold AUC (binary)
or R squared (continuous); folds whose score is undefined (a single-class
test fold, say) are skipped in the aggregation.

`cv_score_values` scores one candidate the direct way: per fold one GLM
fit on the training rows and one AUC or R squared of beta * z + beta0 on
the test rows. It is the reference that `score_candidates` must reproduce
bit for bit.

`score_candidates` scores every column of an n x C matrix at once. For a
binary outcome with the logistic link, AUC does not change under an
increasing map, so a fold's AUC depends only on the sign of the fitted
beta. The penalized profile log-likelihood of beta is concave, so that sign
is the sign of the score statistic sum((y - mean(y)) * z) on the training
rows, up to the fitter's tolerance and the ridge. The kernel therefore fits
nothing: it ranks sign * z on each test fold for all columns together and
applies the rank-sum formula of `metrics.auc_score`, so ties and fold AUCs
come out exactly as the reference's. The reference scores the columns the
kernel cannot settle: those whose statistic is too close to zero to fix the
sign against the fitter's tolerance (the fitter stops at beta = 0 on some
of them, with AUC 0.5), those with non-finite values, every column when a
training fold lacks a class, and every column of a continuous outcome.

The two differ in one case only: two distinct test values so close that
the reference's rounding of beta * z + beta0 makes them equal, which the
reference ranks as a tie and the kernel does not.
"""

import math

import numpy as np
from scipy.stats import rankdata

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import DimensionMismatch, ValidationError
from ..glm import ModelSpec, fit_glm
from ..metrics import auc_score, r2_score
from .biomarker import LearnerConfig

# How far beyond the fitter's tolerance and ridge the score statistic must
# lie before its sign is taken as the sign of the fitted beta.
_SIGN_MARGIN = 1e3


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


def check_learnable(outcome: Outcome, n_folds: int):
    """Preconditions every learner shares."""
    if outcome.kind == "binary":
        n_pos = int(np.sum(outcome.values == 1.0))
        n_neg = outcome.n - n_pos
        if min(n_pos, n_neg) < 2:
            raise ValidationError(
                "binary outcome needs at least 2 samples per class"
            )
    if n_folds > outcome.n:
        raise ValidationError("more CV folds than samples")


def _learner_setup(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None,
    spec: ModelSpec | None,
) -> tuple[LearnerConfig, ModelSpec]:
    """The preamble of every learner: default config and spec, then the
    dimension check, then `check_learnable`."""
    config = config or LearnerConfig()
    spec = spec or ModelSpec.for_outcome(outcome)
    if outcome.n != matrix.n_samples:
        raise DimensionMismatch("outcome length does not match sample count")
    check_learnable(outcome, config.cv_folds)
    return config, spec


def cv_score_values(
    z: np.ndarray,
    outcome: Outcome,
    spec: ModelSpec,
    folds,
) -> tuple[float, float, list[float]]:
    """Out-of-fold score of a fixed score vector.

    Returns (mean, standard error, per-fold scores). A candidate whose fit
    fails in any fold (constant score in training, say) is unusable and
    scores -inf.
    """
    scores = []
    for train, test in folds:
        try:
            fit = fit_glm(z[train], outcome.subset(train), spec)
        except ValidationError:
            return float("-inf"), 0.0, []
        eta = fit.beta * z[test] + fit.beta0
        if outcome.kind == "binary":
            scores.append(auc_score(outcome.values[test], eta))
        else:
            scores.append(r2_score(outcome.values[test], eta))
    arr = np.asarray(scores, dtype=float)
    valid = arr[~np.isnan(arr)]
    if valid.size == 0:
        return float("-inf"), 0.0, scores
    mean = float(valid.mean())
    if valid.size >= 2:
        se = float(valid.std(ddof=1) / math.sqrt(valid.size))
    else:
        se = 0.0
    return mean, se, scores


def score_candidates(
    Z: np.ndarray,
    outcome: Outcome,
    spec: ModelSpec,
    folds,
) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold (mean, standard error) of every column of Z (n x C).

    Equal bit for bit to `cv_score_values` applied column by column,
    including -inf with SE 0 for a column that cannot be fitted in some
    fold. See the module docstring for how binary outcomes avoid the fits.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != outcome.n:
        raise DimensionMismatch(
            f"candidate matrix of shape {Z.shape} for {outcome.n} samples"
        )
    y = outcome.values
    batched = outcome.kind == "binary" and spec.link == "logistic" and all(
        train.size and 0.0 < y[train].mean() < 1.0 for train, _ in folds
    )
    if not batched:
        return _score_columns(Z, range(Z.shape[1]), outcome, spec, folds)

    # Non-finite columns go to the oracle; zeros keep them out of the way.
    finite = np.all(np.isfinite(Z), axis=0)
    z_all = Z if finite.all() else np.where(finite, Z, 0.0)
    by_oracle = ~finite
    dead = np.zeros(Z.shape[1], dtype=bool)
    fold_aucs = []
    for train, test in folds:
        z_train = z_all[train]
        y_train = y[train]
        ybar = y_train.mean()
        stat = (y_train - ybar) @ z_train
        top = z_train.max(axis=0)
        bottom = z_train.min(axis=0)
        dead |= top == bottom
        margin = (
            _SIGN_MARGIN
            * (spec.tol + spec.ridge * (1.0 + abs(math.log(ybar / (1.0 - ybar)))))
            * (1.0 + np.maximum(top, -bottom))
        )
        by_oracle |= np.abs(stat) <= margin
        y_test = y[test]
        n_pos = int(np.sum(y_test == 1.0))
        n_neg = int(np.sum(y_test == 0.0))
        if n_pos == 0 or n_neg == 0:
            continue
        sign = np.where(stat > 0.0, 1.0, -1.0)
        ranks = rankdata(z_all[test] * sign, axis=0)
        rank_sum = ranks[y_test == 1.0].sum(axis=0)
        fold_aucs.append(
            (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        )

    n_cols = Z.shape[1]
    mean = np.full(n_cols, float("-inf"))
    se = np.zeros(n_cols)
    if fold_aucs:
        # One row per candidate, so each row reduces exactly as the
        # oracle's 1-D array of fold scores does.
        aucs = np.ascontiguousarray(np.transpose(fold_aucs))
        mean = aucs.mean(axis=1)
        if len(fold_aucs) >= 2:
            se = aucs.std(axis=1, ddof=1) / math.sqrt(len(fold_aucs))
    dead &= finite
    mean[dead] = float("-inf")
    se[dead] = 0.0
    oracle = np.flatnonzero(by_oracle & ~dead)
    if oracle.size:
        mean[oracle], se[oracle] = _score_columns(Z, oracle, outcome, spec, folds)
    return mean, se


def _score_columns(Z, columns, outcome, spec, folds):
    """(mean, SE) of the given columns of Z, one `cv_score_values` each."""
    scored = [cv_score_values(Z[:, c], outcome, spec, folds)[:2] for c in columns]
    mean = np.array([m for m, _ in scored], dtype=float)
    se = np.array([s for _, s in scored], dtype=float)
    return mean, se
