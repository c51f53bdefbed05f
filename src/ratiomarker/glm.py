"""Generalized linear models for ratio scores, and differential analysis.

The central regression is y ~ phi(beta * z + beta0) where z is a per-sample
score (a log-ratio, a balance, or any transformed feature column), phi is
the identity for continuous outcomes and the logistic function for binary
ones. Identity fits are ordinary least squares; logistic fits use damped
Newton iterations on a ridge-stabilized log-likelihood.

One kernel, `_fit_rows`, does every fit: it takes a columns x samples
array and fits each row as its own score. `fit_glm` is its one-row call,
`_fit_columns` feeds it the blocks of `daa` and `ratios`, and
`learn.scoring.score_candidates` calls it once per fold. The kernel centres
each score. The logistic ridge is on the slope and on the intercept at the
mean score, and convergence is tested on the gradient in those
coordinates, so adding a constant to a score moves beta0 alone (up to
rounding), as it does for least squares. Centring also makes the
determinant of the 2x2 system n * sum((z - mean(z))^2) rather than a
difference of two large sums. Every reduction runs along a row (`sum` or
`einsum`, never BLAS), so a row's result does not depend on the block it
is fitted in. The kernel
computes no p-values: `fit_glm` and `_fit_columns` each compute the Wald
p-values once, over their whole result vector, with the tails of
`special`. The scalar two-column fitters in `tests/conftest.py`, which use
scipy, are the references; p-values agree with them to rounding level.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .composition import (
    Outcome,
    StrictlyPositiveMatrix,
    _column_blocks,
    _pairwise_logratio_blocks,
    clr_transform,
    close_to_proportions,
    ratio_pairs,
)
from .errors import DegenerateDesign, ValidationError
from .metrics import _flat
from .special import expit, ndtr, softplus, stdtr

# The logistic fit's ridge on (beta, intercept at the mean score), its
# convergence tolerance on the gradient norm, and its Newton iteration cap.
RIDGE = 1e-6
TOL = 1e-8
MAX_ITER = 100


@dataclass
class FittedGlm:
    """Coefficients and inference for one fitted score model."""

    beta: float
    beta0: float
    se: float
    p_value: float
    converged: bool
    n_iter: int
    link: str
    note: str = ""

    def linear_predictor(self, z) -> np.ndarray:
        return self.beta * np.asarray(z, dtype=float) + self.beta0

    def predict_response(self, z) -> np.ndarray:
        eta = self.linear_predictor(z)
        if self.link != "logistic":
            return eta
        with np.errstate(over="ignore"):
            return expit(eta)


def fit_glm(z, outcome: Outcome) -> FittedGlm:
    """Fit y ~ phi(beta * z + beta0), with the link the outcome implies.

    Identity link: least squares, Wald p-value from the t distribution.
    Logistic link: damped Newton with the ridge RIDGE on beta and on the
    intercept at the mean score, Wald p-value from the normal distribution.
    Convergence is declared when the gradient norm in those coordinates
    drops to TOL * (1 + |beta|). Non-convergence is reported on the result,
    not raised; a score that cannot be fitted raises `ValidationError`.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.size != outcome.n:
        raise ValidationError(f"score length {z.size} vs outcome length {outcome.n}")
    fits = _fit_rows(z[None, :], outcome)
    if fits.errors[0] is not None:
        raise fits.errors[0]
    p_value = _wald_p_values(fits.beta, fits.se, outcome)
    return FittedGlm(
        beta=float(fits.beta[0]),
        beta0=float(fits.beta0[0]),
        se=float(fits.se[0]),
        p_value=float(p_value[0]),
        converged=bool(fits.converged[0]),
        n_iter=int(fits.n_iter[0]),
        link=outcome.link,
        note=fits.notes[0],
    )


class _Fits(NamedTuple):
    """Per-row results of `_fit_rows`. A rejected row has NaN statistics,
    its error in `errors` and the error's message as its note."""

    beta: np.ndarray
    beta0: np.ndarray
    se: np.ndarray
    n_iter: np.ndarray
    converged: np.ndarray
    notes: list[str]
    errors: list[ValidationError | None]


def _fit_rows(zt, outcome: Outcome, scale: float = 0.0) -> _Fits:
    """Fit every row of zt (columns x samples) as its own score, with the
    link the outcome implies.

    A row is rejected, in this order, for a non-finite value, for a range
    that `metrics._flat` calls constant, or because a binary outcome has one
    class only; an identity fit whose centred score underflows is singular.
    The range is judged against the row's magnitude, or `scale` if larger:
    the magnitude of the values the rows were computed from, whose rounding
    a cancelling difference such as a log-ratio keeps.
    """
    zt = np.ascontiguousarray(zt, dtype=float)
    c = zt.shape[0]
    errors: list[ValidationError | None] = [None] * c
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(zt).all(axis=1)
        top, bottom = zt.max(axis=1), zt.min(axis=1)
        magnitude = np.maximum(np.maximum(top, -bottom), scale)
        constant = _flat(top - bottom, zt.shape[1], magnitude)
    one_class = outcome.kind == "binary" and not outcome.both_classes_present()
    for j in range(c):
        if not finite[j]:
            errors[j] = ValidationError("score contains non-finite values")
        elif constant[j]:
            errors[j] = DegenerateDesign("score is constant; nothing to fit")
        elif one_class:
            errors[j] = ValidationError("binary outcome must contain both classes")
    beta, beta0, se = (np.full(c, np.nan) for _ in range(3))
    n_iter = np.zeros(c, dtype=int)
    converged = np.zeros(c, dtype=bool)
    notes = [""] * c
    rows = np.flatnonzero([e is None for e in errors])
    if rows.size:
        z = zt if rows.size == c else zt[rows]
        if outcome.kind == "continuous":
            beta[rows], beta0[rows], se[rows], singular = _fit_identity_rows(
                z, outcome.values
            )
            for j in rows[singular]:
                errors[j] = DegenerateDesign("design matrix is singular")
            converged[rows[~singular]] = True
        else:
            # exp(-eta) in expit overflows to inf for eta below about -709,
            # and expit is then 0, as it should be.
            with np.errstate(over="ignore"):
                fit = _fit_logistic_rows(z, outcome.values)
            beta[rows], beta0[rows], se[rows] = fit[:3]
            n_iter[rows], converged[rows], gnorm = fit[3:]
            # Without overlap of the classes there is no finite maximum.
            pos, neg = z[:, outcome.values == 1.0], z[:, outcome.values == 0.0]
            separated = neg.max(axis=1) <= pos.min(axis=1)
            separated |= pos.max(axis=1) <= neg.min(axis=1)
            for j, g, sep in zip(rows, gnorm, separated):
                if not converged[j]:
                    notes[j] = (
                        f"did not converge in {MAX_ITER} iterations"
                        f" (gradient norm {g:.3g})"
                    )
                elif sep:
                    notes[j] = "outcome is separated by the score; beta is set by the ridge"
    for j, e in enumerate(errors):
        if e is not None:
            notes[j] = str(e)
    return _Fits(beta, beta0, se, n_iter, converged, notes, errors)


def _wald_p_values(beta, se, outcome: Outcome) -> np.ndarray:
    """Two-sided Wald p-values of beta / se for fits to `outcome`: normal
    tails for the logistic link, Student's t with n - 2 degrees of freedom
    for the identity link. NaN where beta or se is NaN (a rejected fit, or
    dof <= 0); se == 0 gives 0, or 1 at beta == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.divide(beta, se)
    np.negative(np.abs(stat, out=stat), out=stat)
    p = ndtr(stat) if outcome.kind == "binary" else stdtr(outcome.n - 2, stat)
    p *= 2.0
    zero = se == 0.0
    p[zero] = beta[zero] == 0.0
    return p


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _fit_identity_rows(z, y):
    """Least squares of y on every row of z: beta, beta0, se, and the rows
    whose centred score has no spread left, which are NaN. se is NaN when
    dof <= 0."""
    n = y.size
    zbar = z.mean(axis=1)
    zc = z - zbar[:, None]
    ybar = y.mean()
    yc = y - ybar
    szz = _rowdot(zc, zc)
    singular = ~(szz > 0.0)
    szz[singular] = np.nan
    beta = np.einsum("ij,j->i", zc, yc) / szz
    beta0 = ybar - beta * zbar
    if n <= 2:
        return beta, beta0, np.full(beta.shape, np.nan), singular
    resid = yc - zc * beta[:, None]
    se = np.sqrt(_rowdot(resid, resid) / (n - 2) / szz)
    return beta, beta0, se, singular


def _penalized_nll_rows(eta, y, b1, a):
    nll = softplus(eta).sum(axis=1) - np.einsum("ij,j->i", eta, y)
    return nll + 0.5 * RIDGE * (b1 * b1 + a * a)


def _fit_logistic_rows(z, y):
    """Damped Newton on every row of z at once.

    The state of a row is its slope b1 and its intercept a at the mean
    score, so eta = b1 * (z - zbar) + a, and the ridge is on (b1, a). Each
    row converges when the norm of its gradient drops to TOL * (1 + |b1|)
    within MAX_ITER Newton steps, halves its own step until its penalized
    objective stops increasing, and leaves the active set once it stops.
    Returns beta, beta0, se, iterations, converged and the final gradient
    norm per row.
    """
    c, n = z.shape
    zbar = z.mean(axis=1)
    zc = z - zbar[:, None]
    ybar = float(y.mean())
    out = np.empty((4, c))  # slope, intercept at the mean, se, gradient norm
    n_iter = np.empty(c, dtype=int)
    converged = np.zeros(c, dtype=bool)
    # The active rows' state.
    act = np.arange(c)
    b1 = np.zeros(c)
    a = np.full(c, math.log(ybar / (1.0 - ybar)))
    eta = np.repeat(a[:, None], n, axis=1)
    f_cur = _penalized_nll_rows(eta, y, b1, a)
    for it in range(MAX_ITER + 1):
        mu = expit(eta)
        r = mu - y
        g0 = r.sum(axis=1) + RIDGE * a
        g1 = _rowdot(r, zc) + RIDGE * b1
        gnorm = np.sqrt(g1 * g1 + g0 * g0)
        w = mu * (1.0 - mu)
        wz = w * zc
        h00 = w.sum(axis=1) + RIDGE
        h10 = wz.sum(axis=1)
        h11 = _rowdot(wz, zc) + RIDGE
        det = h11 * h00 - h10 * h10
        last = it == MAX_ITER
        conv = (gnorm <= TOL * (1.0 + np.abs(b1))) & (not last)
        stop = conv | last
        if stop.any():
            done = act[stop]
            with np.errstate(divide="ignore", invalid="ignore"):
                se = np.sqrt(np.maximum(h00[stop] / det[stop], 0.0))
            out[:, done] = b1[stop], a[stop], se, gnorm[stop]
            n_iter[done] = np.where(conv[stop], it + 1, MAX_ITER)
            converged[done] = conv[stop]
            keep = ~stop
            if not keep.any():
                break
            act, zc, eta = act[keep], zc[keep], eta[keep]
            b1, a, g0, g1, f_cur = b1[keep], a[keep], g0[keep], g1[keep], f_cur[keep]
            h11, h10, h00, det = h11[keep], h10[keep], h00[keep], det[keep]
        d1 = (h00 * g1 - h10 * g0) / det
        d0 = (h11 * g0 - h10 * g1) / det
        t1, ta = b1 - d1, a - d0
        trial = zc * t1[:, None] + ta[:, None]
        f_new = _penalized_nll_rows(trial, y, t1, ta)
        step = np.ones_like(t1)
        # Halve each row's step until its penalized objective stops
        # increasing, at most 50 times.
        for _ in range(50):
            up = np.flatnonzero(~(f_new <= f_cur + 1e-12 * (1.0 + np.abs(f_cur))))
            if not up.size:
                break
            step[up] *= 0.5
            t1[up] = b1[up] - step[up] * d1[up]
            ta[up] = a[up] - step[up] * d0[up]
            trial[up] = zc[up] * t1[up, None] + ta[up, None]
            f_new[up] = _penalized_nll_rows(trial[up], y, t1[up], ta[up])
        b1, a, eta, f_cur = t1, ta, trial, f_new
    beta, intercept, se, gnorm = out
    return beta, intercept - beta * zbar, se, n_iter, converged, gnorm


def _fit_columns(blocks, n_columns: int, outcome: Outcome, scale: float = 0.0):
    """Fit every column of each n x c block in `blocks`, `n_columns` in
    all, as its own score; `scale` is that of `_fit_rows`.

    Returns beta, p-value and note per column, as one `fit_glm` per column
    gives them: a column `fit_glm` rejects is a NaN row whose note is the
    error, and a fit that did not converge keeps its numbers with that note.
    Each block is written into arrays of the full length, and the p-values
    are computed once, over the whole vector.
    """
    beta = np.empty(n_columns)
    se = np.empty(n_columns)
    notes = [""] * n_columns
    start = 0
    for z in blocks:
        fits = _fit_rows(z.T, outcome, scale)
        stop = start + len(fits.notes)
        beta[start:stop] = fits.beta
        se[start:stop] = fits.se
        notes[start:stop] = fits.notes
        start = stop
    assert start == n_columns
    return beta, _wald_p_values(beta, se, outcome), notes


def benjamini_hochberg(p_values) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values.

    NaN entries (flagged tests) are passed through and do not count toward
    the number of tests. Adjusted values are monotone in the raw ones,
    never smaller, and capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    adjusted = np.full(p.shape, np.nan)
    m = int(np.count_nonzero(~np.isnan(p)))
    if m == 0:
        return adjusted
    # A stable sort puts NaN last and ties in index order.
    order = np.argsort(p, kind="stable")[:m]
    ranked = p[order] * m / np.arange(1, m + 1)
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted[order] = np.minimum(ranked, 1.0)
    return adjusted


@dataclass
class DaaResult:
    """Per-feature differential abundance table."""

    feature_ids: list[str]
    beta: np.ndarray
    p_value: np.ndarray
    p_adjusted: np.ndarray
    notion: str
    notes: list[str] = field(default_factory=list)

    def significant(self, alpha: float = 0.05) -> np.ndarray:
        return _significant(self.p_adjusted, alpha)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be a probability in (0, 1)")


def _significant(p_adjusted: np.ndarray, alpha: float) -> np.ndarray:
    """The tests whose BH-adjusted p-value falls below alpha; a flagged
    (NaN) test compares false and is never significant."""
    _check_alpha(alpha)
    return p_adjusted < alpha


def daa(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    transform: str = "clr",
) -> DaaResult:
    """Differential abundance analysis under a chosen data notion.

    `transform` selects what "abundance" means: "clr" tests centered
    log-ratio columns, "prop" tests closed proportions directly.
    The two notions can disagree in sign; that disagreement is real and
    is the reason both are offered. Features whose column cannot be fitted
    (constant, for example) are flagged via a note and get NaN statistics;
    the analysis never aborts on them. Columns are fitted in blocks of
    bounded size.
    """
    if outcome.n != matrix.n_samples:
        raise ValidationError("outcome length does not match sample count")
    if transform == "clr":
        columns = clr_transform(matrix)
        notion = "clr"
    elif transform == "prop":
        columns = close_to_proportions(matrix).values
        notion = "relative"
    else:
        raise ValidationError(f"unknown transform {transform!r}")
    blocks = (columns[:, cols] for cols in _column_blocks(*columns.shape))
    scale = np.abs(np.log(matrix.values)).max() if notion == "clr" else 0.0
    beta, p_value, notes = _fit_columns(blocks, columns.shape[1], outcome, scale)
    return DaaResult(
        feature_ids=list(matrix.feature_ids),
        beta=beta,
        p_value=p_value,
        p_adjusted=benjamini_hochberg(p_value),
        notion=notion,
        notes=notes,
    )


@dataclass
class RatioAnalysis:
    """All-pairs log-ratio tests plus per-feature attribution scores.

    Ratio i is log x_j - log x_k for j = numerator[i], k = denominator[i],
    the layout of `composition.ratio_pairs`; `composition.ratio_labels`
    names them.
    """

    feature_ids: list[str]
    numerator: np.ndarray
    denominator: np.ndarray
    beta: np.ndarray
    p_value: np.ndarray
    p_adjusted: np.ndarray
    attribution: np.ndarray
    alpha: float
    notes: list[str] = field(default_factory=list)

    @property
    def n_significant(self) -> int:
        return int(np.sum(_significant(self.p_adjusted, self.alpha)))


def differential_ratio_analysis(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    alpha: float = 0.05,
    max_features: int = 2000,
) -> RatioAnalysis:
    """Fit a GLM to every pairwise log-ratio and attribute hits to features.

    The attribution score of feature j is the fraction of its G-1 ratios
    whose BH-adjusted p-value falls below `alpha`. Ratio statistics depend
    only on within-sample ratios, so they are invariant to per-sample
    rescaling. Feature count is capped because the test count grows
    quadratically; the ratio table itself is never held whole, as ratios
    are built and fitted in blocks of bounded size, and no Python object
    is kept per ratio but its note.
    """
    _check_alpha(alpha)
    g = matrix.n_features
    if g > max_features:
        raise ValidationError(
            f"{g} features would give {g * (g - 1) // 2} ratio tests"
            f" (cap {max_features})"
        )
    if outcome.n != matrix.n_samples:
        raise ValidationError("outcome length does not match sample count")
    jj, kk = ratio_pairs(g)
    logs = np.log(matrix.values)
    blocks = (z for _, z in _pairwise_logratio_blocks(logs, jj, kk))
    beta, p_value, notes = _fit_columns(blocks, jj.size, outcome, np.abs(logs).max())
    p_adjusted = benjamini_hochberg(p_value)
    significant = _significant(p_adjusted, alpha)
    counts = np.zeros(g)
    np.add.at(counts, jj[significant], 1.0)
    np.add.at(counts, kk[significant], 1.0)
    return RatioAnalysis(
        feature_ids=list(matrix.feature_ids),
        numerator=jj,
        denominator=kk,
        beta=beta,
        p_value=p_value,
        p_adjusted=p_adjusted,
        attribution=counts / (g - 1),
        alpha=alpha,
        notes=notes,
    )
