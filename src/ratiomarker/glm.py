"""Generalized linear models for ratio scores, and differential analysis.

The central regression is y ~ phi(beta * z + beta0) where z is a per-sample
score (a log-ratio, a balance, or any transformed feature column), phi is
the identity for continuous outcomes and the logistic function for binary
ones. Identity fits are ordinary least squares; logistic fits use damped
Newton iterations on a ridge-stabilized log-likelihood.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import expit, ndtr, stdtr

from .composition import (
    Outcome,
    StrictlyPositiveMatrix,
    _column_blocks,
    _pairwise_logratio_blocks,
    clr_transform,
    close_to_proportions,
    pairwise_logratio_pairs,
)
from .errors import (
    DegenerateDesign,
    DimensionMismatch,
    TooManyFeatures,
    ValidationError,
)

LINKS = ("identity", "logistic")


@dataclass
class ModelSpec:
    """Link choice and optimizer settings for a single-score GLM."""

    link: str = "logistic"
    max_iter: int = 100
    tol: float = 1e-8
    ridge: float = 1e-6

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValidationError(f"unknown link {self.link!r}")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.tol <= 0.0:
            raise ValidationError("tol must be positive")
        if self.ridge < 0.0:
            raise ValidationError("ridge must be nonnegative")

    @classmethod
    def for_outcome(cls, outcome: Outcome, link: str = "auto") -> "ModelSpec":
        """The default spec: with link "auto", logistic for a binary outcome
        and identity otherwise."""
        if link == "auto":
            link = "logistic" if outcome.kind == "binary" else "identity"
        return cls(link=link)


@dataclass
class FittedGlm:
    """Coefficients and inference for one fitted score model."""

    beta: float
    beta0: float
    covariate_betas: np.ndarray | None
    se: float
    p_value: float
    converged: bool
    n_iter: int
    link: str
    note: str = ""

    def linear_predictor(self, z, covariates=None) -> np.ndarray:
        eta = self.beta * np.asarray(z, dtype=float) + self.beta0
        if self.covariate_betas is not None and len(self.covariate_betas):
            if covariates is None:
                raise ValidationError("model was fitted with covariates")
            eta = eta + np.asarray(covariates, dtype=float) @ self.covariate_betas
        return eta

    def predict_response(self, z, covariates=None) -> np.ndarray:
        eta = self.linear_predictor(z, covariates)
        return expit(eta) if self.link == "logistic" else eta


def _solve_spd(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Closed form for the ubiquitous 2x2 case keeps CV scans fast.
    if h.shape[0] == 2:
        a, b = h[0, 0], h[0, 1]
        c = h[1, 1]
        det = a * c - b * b
        return np.array([(c * g[0] - b * g[1]) / det, (a * g[1] - b * g[0]) / det])
    return np.linalg.solve(h, g)


def _penalized_nll(x, y, beta, ridge) -> float:
    eta = x @ beta
    nll = float(np.sum(np.logaddexp(0.0, eta)) - y @ eta)
    return nll + 0.5 * ridge * float(beta @ beta)


def fit_glm(
    z,
    outcome: Outcome,
    spec: ModelSpec | None = None,
    covariates=None,
) -> FittedGlm:
    """Fit y ~ phi(beta * z + covariates @ b + beta0).

    Identity link: least squares, Wald p-value from the t distribution.
    Logistic link: ridge-stabilized damped Newton, Wald p-value from the
    normal distribution. Convergence is declared when the gradient norm
    drops to tol * (1 + |beta|). Non-convergence is reported on the result,
    not raised.
    """
    if spec is None:
        spec = ModelSpec()
    z = np.asarray(z, dtype=float).ravel()
    y = outcome.values
    if z.size != y.size:
        raise DimensionMismatch(f"score length {z.size} vs outcome length {y.size}")
    if covariates is not None:
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if covariates.shape[0] != z.size:
            raise DimensionMismatch("covariate rows do not match score length")
    if not np.all(np.isfinite(z)):
        raise ValidationError("score contains non-finite values")
    if np.ptp(z) == 0.0:
        raise DegenerateDesign("score is constant; nothing to fit")
    if spec.link == "logistic":
        if outcome.kind != "binary":
            raise ValidationError("logistic link requires a binary outcome")
        if not outcome.both_classes_present():
            raise ValidationError("binary outcome must contain both classes")
    elif outcome.kind != "continuous":
        raise ValidationError("identity link requires a continuous outcome")

    columns = [z[:, None]]
    if covariates is not None:
        columns.append(covariates)
    columns.append(np.ones((z.size, 1)))
    x = np.hstack(columns)
    n, p = x.shape

    if spec.link == "identity":
        return _fit_identity(x, y, n, p, covariates)
    return _fit_logistic(x, y, n, p, spec, covariates)


def _fit_identity(x, y, n, p, covariates) -> FittedGlm:
    if p == 2:
        # Normal equations in closed form; the design is well conditioned
        # for single-score fits and this path dominates CV scans.
        sz = float(x[:, 0].sum())
        szz = float(x[:, 0] @ x[:, 0])
        sy = float(y.sum())
        szy = float(x[:, 0] @ y)
        det = szz * n - sz * sz
        if det == 0.0:
            raise DegenerateDesign("design matrix is singular")
        beta = (n * szy - sz * sy) / det
        beta0 = (szz * sy - sz * szy) / det
        coef = np.array([beta, beta0])
    else:
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    dof = n - p
    rss = float(resid @ resid)
    if dof <= 0:
        se = float("nan")
        p_value = float("nan")
    else:
        sigma2 = rss / dof
        xtx = x.T @ x
        try:
            cov = sigma2 * np.linalg.inv(xtx)
        except np.linalg.LinAlgError:
            cov = sigma2 * np.linalg.pinv(xtx)
        var = max(float(cov[0, 0]), 0.0)
        se = math.sqrt(var)
        if se == 0.0:
            # A perfect fit leaves no residual noise; the score axis is
            # infinitely significant unless beta is itself zero.
            p_value = 1.0 if coef[0] == 0.0 else 0.0
        else:
            t_stat = coef[0] / se
            p_value = float(2.0 * stdtr(dof, -abs(t_stat)))
    cov_betas = coef[1:-1].copy() if covariates is not None else None
    return FittedGlm(
        beta=float(coef[0]),
        beta0=float(coef[-1]),
        covariate_betas=cov_betas,
        se=se,
        p_value=p_value,
        converged=True,
        n_iter=0,
        link="identity",
    )


def _fit_logistic(x, y, n, p, spec, covariates) -> FittedGlm:
    beta = np.zeros(p)
    ybar = float(y.mean())
    beta[-1] = math.log(ybar / (1.0 - ybar))
    ridge = spec.ridge
    f_cur = _penalized_nll(x, y, beta, ridge)
    converged = False
    n_iter = 0
    grad = None
    for n_iter in range(1, spec.max_iter + 1):
        eta = x @ beta
        mu = expit(eta)
        grad = x.T @ (mu - y) + ridge * beta
        if np.linalg.norm(grad) <= spec.tol * (1.0 + abs(beta[0])):
            converged = True
            break
        w = mu * (1.0 - mu)
        hess = (x * w[:, None]).T @ x
        hess[np.diag_indices(p)] += ridge
        direction = _solve_spd(hess, grad)
        step = 1.0
        trial = beta - direction
        f_new = _penalized_nll(x, y, trial, ridge)
        # Halve the step until the penalized objective stops increasing.
        for _ in range(50):
            if f_new <= f_cur + 1e-12 * (1.0 + abs(f_cur)):
                break
            step *= 0.5
            trial = beta - step * direction
            f_new = _penalized_nll(x, y, trial, ridge)
        beta = trial
        f_cur = f_new
    eta = x @ beta
    mu = expit(eta)
    grad = x.T @ (mu - y) + ridge * beta
    w = mu * (1.0 - mu)
    hess = (x * w[:, None]).T @ x
    hess[np.diag_indices(p)] += ridge
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(hess)
    se = math.sqrt(max(float(cov[0, 0]), 0.0))
    if se == 0.0:
        p_value = 1.0 if beta[0] == 0.0 else 0.0
    else:
        p_value = float(2.0 * ndtr(-abs(beta[0] / se)))
    cov_betas = beta[1:-1].copy() if covariates is not None else None
    note = "" if converged else (
        f"did not converge in {spec.max_iter} iterations"
        f" (gradient norm {np.linalg.norm(grad):.3g})"
    )
    return FittedGlm(
        beta=float(beta[0]),
        beta0=float(beta[-1]),
        covariate_betas=cov_betas,
        se=se,
        p_value=p_value,
        converged=converged,
        n_iter=n_iter,
        link="logistic",
        note=note,
    )


def benjamini_hochberg(p_values) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values.

    NaN entries (flagged tests) are passed through and do not count toward
    the number of tests. Adjusted values are monotone in the raw ones,
    never smaller, and capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    adjusted = np.full(p.shape, np.nan)
    valid = np.flatnonzero(~np.isnan(p))
    m = valid.size
    if m == 0:
        return adjusted
    order = valid[np.argsort(p[valid], kind="stable")]
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
        with np.errstate(invalid="ignore"):
            return np.asarray(self.p_adjusted < alpha) & ~np.isnan(self.p_adjusted)


# A 2x2 system whose determinant keeps less than this share of the product
# of its diagonal has lost six of sixteen digits to cancellation; there the
# summation order alone moves a batched fit away from `fit_glm`'s.
_MIN_RELATIVE_DET = 1e-6


def _fit_columns(blocks, outcome: Outcome, spec: ModelSpec):
    """Fit every column of each n x c block in `blocks` as its own score.

    Returns beta, p-value and note per column, as one `fit_glm` per column
    gives them: a column `fit_glm` rejects (non-finite, constant, a link
    that does not suit the outcome) is a NaN row whose note is the error,
    and a fit that did not converge keeps its numbers with that note. The
    columns of a block are fitted together; those the batched arithmetic
    cannot stand in for (rejected, ill-conditioned, or not converged, whose
    note quotes a gradient norm) are fitted by `fit_glm` itself.
    """
    betas, p_values, notes = [np.empty(0)], [np.empty(0)], []
    for z in blocks:
        beta, p_value, block_notes = _fit_block(z, outcome, spec)
        betas.append(beta)
        p_values.append(p_value)
        notes.extend(block_notes)
    return np.concatenate(betas), np.concatenate(p_values), notes


def _fit_block(z: np.ndarray, outcome: Outcome, spec: ModelSpec):
    n, c = z.shape
    beta = np.full(c, np.nan)
    p_value = np.full(c, np.nan)
    notes = [""] * c
    with np.errstate(invalid="ignore"):
        batched = np.isfinite(z).all(axis=0) & (np.ptp(z, axis=0) > 0.0)
    if spec.link == "logistic":
        batched &= outcome.both_classes_present()
        fit = _fit_logistic_block
    else:
        batched &= outcome.kind == "continuous"
        fit = _fit_identity_block
    cols = np.flatnonzero(batched)
    if cols.size:
        beta[cols], p_value[cols], refit = fit(
            z if cols.size == c else z[:, cols], outcome.values, spec
        )
        batched[cols[refit]] = False
    for j in np.flatnonzero(~batched):
        try:
            one = fit_glm(z[:, j], outcome, spec)
        except ValidationError as exc:
            beta[j], p_value[j], notes[j] = np.nan, np.nan, str(exc)
            continue
        beta[j], p_value[j], notes[j] = one.beta, one.p_value, one.note
    return beta, p_value, notes


def _ill_conditioned(a, b, c):
    """Columns whose 2x2 system [[a, b], [b, c]] is singular or too close
    to it for the batched arithmetic; `fit_glm` fits those."""
    det = a * c - b * b
    with np.errstate(invalid="ignore"):
        return det, ~(det > _MIN_RELATIVE_DET * a * c) | ~np.isfinite(det)


def _wald_p_values(beta, se, tail):
    """Two-sided p-values of beta / se; se == 0 gives 0, or 1 at beta == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 2.0 * tail(-np.abs(beta / se))
    return np.where(se == 0.0, np.where(beta == 0.0, 1.0, 0.0), p)


def _fit_identity_block(z, y, spec):
    """Least squares of y on every column of z, from sufficient statistics."""
    n = z.shape[0]
    sz = z.sum(axis=0)
    szz = np.einsum("ij,ij->j", z, z)
    sy = float(y.sum())
    szy = y @ z
    det, singular = _ill_conditioned(szz, sz, float(n))
    det = np.where(singular, 1.0, det)
    beta = (n * szy - sz * sy) / det
    beta0 = (szz * sy - sz * szy) / det
    dof = n - 2
    if dof <= 0:
        return beta, np.full(beta.shape, np.nan), singular
    resid = y[:, None] - (z * beta + beta0)
    sigma2 = np.einsum("ij,ij->j", resid, resid) / dof
    se = np.sqrt(np.maximum(sigma2 * n / det, 0.0))
    return beta, _wald_p_values(beta, se, partial(stdtr, dof)), singular


def _penalized_nll_block(eta, y, b1, b0, ridge):
    nll = np.logaddexp(0.0, eta).sum(axis=0) - y @ eta
    return nll + 0.5 * ridge * (b1 * b1 + b0 * b0)


def _fit_logistic_block(z, y, spec):
    """`_fit_logistic` on every column of z at once.

    Each column takes the Newton steps and step halvings `_fit_logistic`
    takes and leaves the active set once it stops. A column whose Hessian
    is ill-conditioned, or that has not converged in `spec.max_iter`
    iterations, is marked for a refit.
    """
    n, c = z.shape
    ridge = spec.ridge
    ybar = float(y.mean())
    beta = np.zeros(c)
    se = np.zeros(c)
    refit = np.zeros(c, dtype=bool)
    # The active columns' state: scores, slope, intercept, linear
    # predictor and penalized objective.
    act = np.arange(c)
    za = z
    b1 = np.zeros(c)
    b0 = np.full(c, math.log(ybar / (1.0 - ybar)))
    eta = np.repeat(b0[None, :], n, axis=0)
    f_cur = _penalized_nll_block(eta, y, b1, b0, ridge)
    for n_iter in range(spec.max_iter + 1):
        mu = expit(eta)
        r = mu - y[:, None]
        g1 = np.einsum("ij,ij->j", za, r) + ridge * b1
        g0 = r.sum(axis=0) + ridge * b0
        gnorm = np.sqrt(g1 * g1 + g0 * g0)
        w = mu * (1.0 - mu)
        wz = w * za
        h11 = np.einsum("ij,ij->j", wz, za) + ridge
        h10 = wz.sum(axis=0)
        h00 = w.sum(axis=0) + ridge
        det, bad = _ill_conditioned(h11, h10, h00)
        last = n_iter == spec.max_iter
        converged = (gnorm <= spec.tol * (1.0 + np.abs(b1))) & (not last)
        stop = converged | bad | last
        if stop.any():
            done = act[stop]
            beta[done] = b1[stop]
            with np.errstate(divide="ignore", invalid="ignore"):
                se[done] = np.sqrt(np.maximum(h00[stop] / det[stop], 0.0))
            refit[done] = (bad | ~converged)[stop]
            keep = ~stop
            if not keep.any():
                break
            act, za, eta, f_cur = act[keep], za[:, keep], eta[:, keep], f_cur[keep]
            b1, b0, g1, g0 = b1[keep], b0[keep], g1[keep], g0[keep]
            h11, h10, h00, det = h11[keep], h10[keep], h00[keep], det[keep]
        d1 = (h00 * g1 - h10 * g0) / det
        d0 = (h11 * g0 - h10 * g1) / det
        t1, t0 = b1 - d1, b0 - d0
        trial = za * t1 + t0
        f_new = _penalized_nll_block(trial, y, t1, t0, ridge)
        step = np.ones_like(t1)
        # Halve each column's step until its penalized objective stops
        # increasing, at most 50 times, as `_fit_logistic` does.
        for _ in range(50):
            up = np.flatnonzero(~(f_new <= f_cur + 1e-12 * (1.0 + np.abs(f_cur))))
            if not up.size:
                break
            step[up] *= 0.5
            t1[up] = b1[up] - step[up] * d1[up]
            t0[up] = b0[up] - step[up] * d0[up]
            trial[:, up] = za[:, up] * t1[up] + t0[up]
            f_new[up] = _penalized_nll_block(trial[:, up], y, t1[up], t0[up], ridge)
        b1, b0, eta, f_cur = t1, t0, trial, f_new
    return beta, _wald_p_values(beta, se, ndtr), refit


def _daa_result(columns, feature_ids, outcome, spec, notion) -> DaaResult:
    if columns.shape[0] != outcome.n:
        raise DimensionMismatch("outcome length does not match column rows")
    if columns.shape[1] != len(feature_ids):
        raise DimensionMismatch("feature id count does not match columns")
    spec = spec or ModelSpec.for_outcome(outcome)
    blocks = (columns[:, cols] for cols in _column_blocks(*columns.shape))
    beta, p_value, notes = _fit_columns(blocks, outcome, spec)
    return DaaResult(
        feature_ids=list(feature_ids),
        beta=beta,
        p_value=p_value,
        p_adjusted=benjamini_hochberg(p_value),
        notion=notion,
        notes=notes,
    )


def daa(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    transform: str = "clr",
    spec: ModelSpec | None = None,
) -> DaaResult:
    """Differential abundance analysis under a chosen data notion.

    `transform` selects what "abundance" means: "clr" tests centered
    log-ratio columns, "proportions" tests closed proportions directly.
    The two notions can disagree in sign; that disagreement is real and
    is the reason both are offered. Features whose column cannot be fitted
    (constant, for example) are flagged via a note and get NaN statistics;
    the analysis never aborts on them. Columns are fitted in blocks of
    bounded size.
    """
    if outcome.n != matrix.n_samples:
        raise DimensionMismatch("outcome length does not match sample count")
    if transform == "clr":
        columns = clr_transform(matrix)
        notion = "clr"
    elif transform in ("proportions", "prop"):
        columns = close_to_proportions(matrix).values
        notion = "relative"
    else:
        raise ValidationError(f"unknown transform {transform!r}")
    return _daa_result(columns, matrix.feature_ids, outcome, spec, notion)


def daa_columns(
    columns,
    feature_ids,
    outcome: Outcome,
    spec: ModelSpec | None = None,
) -> DaaResult:
    """Differential analysis of caller-supplied transformed columns."""
    columns = np.asarray(columns, dtype=float)
    return _daa_result(columns, feature_ids, outcome, spec, "user_supplied")


@dataclass
class RatioAnalysis:
    """All-pairs log-ratio tests plus per-feature attribution scores."""

    feature_ids: list[str]
    pair_indices: list[tuple[int, int]]
    pair_labels: list[str]
    beta: np.ndarray
    p_value: np.ndarray
    p_adjusted: np.ndarray
    attribution: np.ndarray
    alpha: float
    notes: list[str] = field(default_factory=list)

    @property
    def n_significant(self) -> int:
        return int(np.sum(self.significant_mask()))

    def significant_mask(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.asarray(self.p_adjusted < self.alpha) & ~np.isnan(
                self.p_adjusted
            )


def differential_ratio_analysis(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    spec: ModelSpec | None = None,
    alpha: float = 0.05,
    max_features: int = 2000,
) -> RatioAnalysis:
    """Fit a GLM to every pairwise log-ratio and attribute hits to features.

    The attribution score of feature j is the fraction of its G-1 ratios
    whose BH-adjusted p-value falls below `alpha`. Ratio statistics depend
    only on within-sample ratios, so they are invariant to per-sample
    rescaling. Feature count is capped because the test count grows
    quadratically; the ratio table itself is never held whole, as ratios
    are built and fitted in blocks of bounded size.
    """
    g = matrix.n_features
    if g > max_features:
        raise TooManyFeatures(
            f"{g} features would give {g * (g - 1) // 2} ratio tests"
            f" (cap {max_features})"
        )
    if outcome.n != matrix.n_samples:
        raise DimensionMismatch("outcome length does not match sample count")
    spec = spec or ModelSpec.for_outcome(outcome)
    blocks = _pairwise_logratio_blocks(np.log(matrix.values))
    beta, p_value, notes = _fit_columns((z for _, z in blocks), outcome, spec)
    pairs = pairwise_logratio_pairs(g)
    p_adjusted = benjamini_hochberg(p_value)
    with np.errstate(invalid="ignore"):
        significant = (p_adjusted < alpha) & ~np.isnan(p_adjusted)
    counts = np.zeros(g)
    for (j, k), sig in zip(pairs, significant):
        if sig:
            counts[j] += 1
            counts[k] += 1
    labels = [
        f"{matrix.feature_ids[j]}/{matrix.feature_ids[k]}" for j, k in pairs
    ]
    return RatioAnalysis(
        feature_ids=list(matrix.feature_ids),
        pair_indices=pairs,
        pair_labels=labels,
        beta=beta,
        p_value=p_value,
        p_adjusted=p_adjusted,
        attribution=counts / (g - 1),
        alpha=alpha,
        notes=notes,
    )
