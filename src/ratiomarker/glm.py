"""Generalized linear models for ratio scores, and differential analysis.

The central regression is y ~ phi(beta * z + beta0) where z is a per-sample
score (a log-ratio, a balance, or any transformed feature column), phi is
the identity for continuous outcomes and the logistic function for binary
ones. Identity fits are ordinary least squares; logistic fits use damped
Newton iterations on a ridge-stabilized log-likelihood.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr, stdtr

from .composition import Outcome, StrictlyPositiveMatrix, clr_transform, close_to_proportions, pairwise_logratios
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


def _fit_columns(columns: np.ndarray, outcome: Outcome, spec: ModelSpec):
    """Fit each column as a score; failures become NaN rows with a note."""
    n_cols = columns.shape[1]
    beta = np.full(n_cols, np.nan)
    p_value = np.full(n_cols, np.nan)
    notes = [""] * n_cols
    for j in range(n_cols):
        try:
            fit = fit_glm(columns[:, j], outcome, spec)
        except ValidationError as exc:
            notes[j] = str(exc)
            continue
        beta[j] = fit.beta
        p_value[j] = fit.p_value
        if not fit.converged:
            notes[j] = fit.note
    return beta, p_value, notes


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
    the analysis never aborts on them.
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
    spec = spec or ModelSpec.for_outcome(outcome)
    beta, p_value, notes = _fit_columns(columns, outcome, spec)
    return DaaResult(
        feature_ids=list(matrix.feature_ids),
        beta=beta,
        p_value=p_value,
        p_adjusted=benjamini_hochberg(p_value),
        notion=notion,
        notes=notes,
    )


def daa_columns(
    columns,
    feature_ids,
    outcome: Outcome,
    spec: ModelSpec | None = None,
) -> DaaResult:
    """Differential analysis of caller-supplied transformed columns."""
    columns = np.asarray(columns, dtype=float)
    if columns.shape[0] != outcome.n:
        raise DimensionMismatch("outcome length does not match column rows")
    if columns.shape[1] != len(feature_ids):
        raise DimensionMismatch("feature id count does not match columns")
    spec = spec or ModelSpec.for_outcome(outcome)
    beta, p_value, notes = _fit_columns(columns, outcome, spec)
    return DaaResult(
        feature_ids=list(feature_ids),
        beta=beta,
        p_value=p_value,
        p_adjusted=benjamini_hochberg(p_value),
        notion="user_supplied",
        notes=notes,
    )


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
    quadratically.
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
    ratios, pairs = pairwise_logratios(matrix)
    beta, p_value, notes = _fit_columns(ratios, outcome, spec)
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
