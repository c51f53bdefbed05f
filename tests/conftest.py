"""Shared pytest wiring and test helpers.

The acceptance tests register one summary line each; printing them from a
terminal-summary hook keeps the checklist visible even though pytest
captures stdout of passing tests.

The helpers below are the slow references the package's batched code is
checked against: `reference_fit` is a scalar two-column GLM fitter written
with matrix arithmetic, independent of the block kernel in `glm.py`, and
`cv_score_values` scores one candidate with one `fit_glm` per fold.
"""

import math

import numpy as np
from scipy.special import expit, ndtr, stdtr

from ratiomarker.errors import DegenerateDesign, ValidationError
from ratiomarker.glm import FittedGlm, fit_glm
from ratiomarker.metrics import auc_score, r2_score

ACCEPTANCE_LINES = []


def reference_fit(z, outcome, spec) -> FittedGlm:
    """Fit y ~ phi(beta * z + beta0) with the design [z - mean(z), 1].

    The same objective, rules and errors as `fit_glm`: the ridge is on beta
    and the uncentred beta0, convergence is tested on the uncentred
    gradient, steps are halved until the objective stops increasing, and
    se == 0 gives p = 0, or 1 at beta == 0.
    """
    z = np.asarray(z, dtype=float).ravel()
    y = outcome.values
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
    zbar = z.mean()
    x = np.column_stack([z - zbar, np.ones_like(z)])
    if spec.link == "identity":
        return _fit_identity(x, y, zbar)
    return _fit_logistic(x, y, zbar, spec)


def _fit_identity(x, y, zbar) -> FittedGlm:
    # Least squares of y - mean(y) on the centred design, so a constant
    # outcome gives beta == 0 exactly.
    n = y.size
    ybar = y.mean()
    xtx = x.T @ x
    if np.linalg.det(xtx) == 0.0:
        raise DegenerateDesign("design matrix is singular")
    coef = np.linalg.solve(xtx, x.T @ (y - ybar))
    resid = (y - ybar) - x @ coef
    dof = n - 2
    if dof <= 0:
        se = p_value = float("nan")
    else:
        cov = float(resid @ resid) / dof * np.linalg.inv(xtx)
        se = math.sqrt(max(float(cov[0, 0]), 0.0))
        if se == 0.0:
            p_value = 1.0 if coef[0] == 0.0 else 0.0
        else:
            p_value = float(2.0 * stdtr(dof, -abs(coef[0] / se)))
    return FittedGlm(
        beta=float(coef[0]),
        beta0=float(ybar + coef[1] - coef[0] * zbar),
        se=se,
        p_value=p_value,
        converged=True,
        n_iter=0,
        link="identity",
    )


def _fit_logistic(x, y, zbar, spec) -> FittedGlm:
    # theta = (beta, a) with a = beta0 + beta * zbar. The penalty
    # ridge / 2 * (beta^2 + beta0^2) is theta' P theta / 2, and the uncentred
    # gradient is `uncentre @` the centred one.
    ridge = spec.ridge
    penalty = ridge * np.array([[1.0 + zbar * zbar, -zbar], [-zbar, 1.0]])
    uncentre = np.array([[1.0, zbar], [0.0, 1.0]])

    def objective(theta):
        eta = x @ theta
        return float(
            np.sum(np.logaddexp(0.0, eta)) - y @ eta + 0.5 * theta @ penalty @ theta
        )

    def gradient_and_hessian(theta):
        mu = expit(x @ theta)
        w = mu * (1.0 - mu)
        return x.T @ (mu - y) + penalty @ theta, (x * w[:, None]).T @ x + penalty

    ybar = float(y.mean())
    theta = np.array([0.0, math.log(ybar / (1.0 - ybar))])
    f_cur = objective(theta)
    converged = False
    n_iter = 0
    for n_iter in range(1, spec.max_iter + 1):
        grad, hess = gradient_and_hessian(theta)
        if np.linalg.norm(uncentre @ grad) <= spec.tol * (1.0 + abs(theta[0])):
            converged = True
            break
        direction = np.linalg.solve(hess, grad)
        step = 1.0
        trial = theta - direction
        f_new = objective(trial)
        for _ in range(50):
            if f_new <= f_cur + 1e-12 * (1.0 + abs(f_cur)):
                break
            step *= 0.5
            trial = theta - step * direction
            f_new = objective(trial)
        theta = trial
        f_cur = f_new
    grad, hess = gradient_and_hessian(theta)
    se = math.sqrt(max(float(np.linalg.inv(hess)[0, 0]), 0.0))
    if se == 0.0:
        p_value = 1.0 if theta[0] == 0.0 else 0.0
    else:
        p_value = float(2.0 * ndtr(-abs(theta[0] / se)))
    note = "" if converged else (
        f"did not converge in {spec.max_iter} iterations"
        f" (gradient norm {np.linalg.norm(uncentre @ grad):.3g})"
    )
    return FittedGlm(
        beta=float(theta[0]),
        beta0=float(theta[1] - theta[0] * zbar),
        se=se,
        p_value=p_value,
        converged=converged,
        n_iter=n_iter,
        link="logistic",
        note=note,
    )


def cv_score_values(z, outcome, spec, folds) -> tuple[float, float, list[float]]:
    """Reference for `score_candidates`: the out-of-fold score of one score
    vector, with one `fit_glm` per fold.

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


def column_by_column(z_matrix, outcome, spec, folds):
    """Reference for `score_candidates`: one `cv_score_values` per column."""
    scored = [
        cv_score_values(z_matrix[:, c], outcome, spec, folds)[:2]
        for c in range(z_matrix.shape[1])
    ]
    return (
        np.array([m for m, _ in scored], dtype=float),
        np.array([s for _, s in scored], dtype=float),
    )


def fit_glm_by_column(blocks, outcome, spec, fit=fit_glm):
    """Reference for `glm._fit_columns`: one `fit` per column, `fit_glm`
    (the kernel's one-column call) unless another is given.

    A rejected column is a NaN row whose note is the error message; a fit
    keeps its numbers and its note ("" once converged).
    """
    beta, p_value, notes = [], [], []
    for z in blocks:
        for j in range(z.shape[1]):
            try:
                one = fit(z[:, j], outcome, spec)
            except ValidationError as exc:
                beta.append(np.nan)
                p_value.append(np.nan)
                notes.append(str(exc))
                continue
            beta.append(one.beta)
            p_value.append(one.p_value)
            notes.append(one.note)
    return np.array(beta, dtype=float), np.array(p_value, dtype=float), notes


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
