"""Continuous relaxation of ratio-biomarker selection, trained by gradient.

Each feature gets an unconstrained coefficient a_j mapped to soft side
weights w+ = sigmoid(a) and w- = sigmoid(-a). The soft score is
differentiable in a, so (a, beta, beta0) are optimized jointly by momentum
gradient descent on the GLM loss. Discretizing at a cutoff on
|sigmoid(a_j) - 0.5|
recovers hard index sets; the sweep evaluates every distinct cutoff by
cross-validation and keeps the sparsest one whose score is within `lam`
standard errors of the best, then refits the hard sets.
"""

import numpy as np
from scipy.special import expit

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import EmptySideAfterDiscretization, ValidationError
from ..glm import ModelSpec
from .biomarker import (
    MODES,
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    balance_from_logs,
    orient_and_fit,
    slr_from_values,
)
from .scoring import _learner_setup, cv_score_values, make_folds


def relaxed_loss_and_grad(
    params: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    mode: str = "balance",
    link: str = "logistic",
    logs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss and analytic gradient of the soft biomarker model.

    `params` is the flat vector (a_1..a_G, beta, beta0). The loss is the
    mean squared error for the identity link and the mean logistic negative
    log-likelihood for the logistic link.
    """
    params = np.asarray(params, dtype=float)
    g = values.shape[1]
    a = params[:g]
    beta = params[g]
    beta0 = params[g + 1]
    n = values.shape[0]
    s = expit(a)
    s_prime = s * (1.0 - s)

    if mode == "slr":
        s_pos = values @ s
        s_neg = values @ (1.0 - s)
        z = np.log(s_pos) - np.log(s_neg)
        dz_common = 1.0 / s_pos + 1.0 / s_neg
    elif mode == "balance":
        if logs is None:
            logs = np.log(values)
        w_pos = float(s.sum())
        w_neg = float(g - w_pos)
        m_pos = (logs @ s) / w_pos
        m_neg = (logs @ (1.0 - s)) / w_neg
        z = m_pos - m_neg
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    eta = beta * z + beta0
    if link == "logistic":
        loss = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
        resid = (expit(eta) - y) / n
    elif link == "identity":
        diff = eta - y
        loss = float(0.5 * np.mean(diff * diff))
        resid = diff / n
    else:
        raise ValidationError(f"unknown link {link!r}")

    grad = np.empty(g + 2)
    grad[g] = float(resid @ z)
    grad[g + 1] = float(resid.sum())
    if mode == "slr":
        grad[:g] = beta * s_prime * ((resid * dz_common) @ values)
    else:
        r_logs = resid @ logs
        c_pos = float(resid @ m_pos)
        c_neg = float(resid @ m_neg)
        grad[:g] = beta * s_prime * (
            (r_logs - c_pos) / w_pos + (r_logs - c_neg) / w_neg
        )
    return loss, grad


def _hard_sets(a: np.ndarray, cutoff: float) -> tuple[list[int], list[int]]:
    distance = np.abs(expit(a) - 0.5)
    num = np.flatnonzero((distance >= cutoff) & (a > 0.0)).tolist()
    den = np.flatnonzero((distance >= cutoff) & (a < 0.0)).tolist()
    if not num or not den:
        raise EmptySideAfterDiscretization(
            f"cutoff {cutoff:.6g} leaves an empty side"
        )
    return num, den


def _fallback_sets(a: np.ndarray) -> tuple[list[int], list[int]]:
    # Every coefficient ended on the same side; keep the two extremes so the
    # model stays a genuine ratio.
    order = np.argsort(-a, kind="stable")
    return [int(order[0])], [int(order[-1])]


def relaxed_gradient_learner(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
    spec: ModelSpec | None = None,
    mode: str = "balance",
) -> LearnedModel:
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    config, spec = _learner_setup(matrix, outcome, config, spec)
    g = matrix.n_features
    values = matrix.values
    logs = np.log(values)
    y = outcome.values
    rng = np.random.default_rng(config.seed)
    # Near-zero random start: features only earn distance from 0.5 through
    # consistent gradient signal, which keeps the cutoff ranking clean.
    a = rng.normal(0.0, 0.01, g)
    folds = make_folds(outcome, config.cv_folds, rng)

    if spec.link == "logistic":
        ybar = float(y.mean())
        beta0 = float(np.log(ybar / (1.0 - ybar)))
        y_fit = y
    else:
        # Standardizing the response makes the step size scale-free; the
        # hard candidates are refit against the raw response later.
        y_sd = float(y.std())
        y_fit = (y - y.mean()) / (y_sd if y_sd > 0.0 else 1.0)
        beta0 = 0.0
    params = np.concatenate([a, [0.0, beta0]])

    # Plain gradient descent with momentum. Unlike normalized per-coordinate
    # steps, this keeps |a_j| growth proportional to accumulated gradient,
    # so uninformative features are not dragged toward saturation and the
    # cutoff ranking stays faithful to signal strength.
    velocity = np.zeros_like(params)
    loss_curve = np.empty(config.epochs)
    grad = np.zeros_like(params)
    for t in range(config.epochs):
        loss, grad = relaxed_loss_and_grad(
            params, values, y_fit, mode=mode, link=spec.link, logs=logs
        )
        loss_curve[t] = loss
        velocity = 0.9 * velocity + grad
        params = params - config.learning_rate * velocity

    a = params[:g]
    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm <= 1e-3 * (1.0 + abs(loss_curve[-1]))

    def candidate(cutoff: float, num: list[int], den: list[int]) -> dict:
        if mode == "balance":
            z = balance_from_logs(logs, num, den)
        else:
            z = slr_from_values(values, num, den)
        mean, se, _ = cv_score_values(z, outcome, spec, folds)
        return {
            "cutoff": cutoff,
            "numerator": num,
            "denominator": den,
            "size": len(num) + len(den),
            "cv_score": mean,
            "cv_se": se,
        }

    # Sweep cutoffs sparsest-first; candidate sets are nested, so set sizes
    # strictly increase and "sparsest within lam SEs of the best" is a
    # deterministic first-hit scan.
    distance = np.abs(expit(a) - 0.5)
    cutoffs = np.unique(distance)[::-1]
    candidates = []
    for cutoff in cutoffs:
        try:
            num, den = _hard_sets(a, float(cutoff))
        except EmptySideAfterDiscretization:
            continue
        if candidates and candidates[-1]["size"] == len(num) + len(den):
            continue
        candidates.append(candidate(float(cutoff), num, den))

    if not candidates or all(
        c["cv_score"] == float("-inf") for c in candidates
    ):
        chosen = candidate(float("nan"), *_fallback_sets(a))
        candidates = [chosen]
    else:
        best = max(candidates, key=lambda c: c["cv_score"])
        threshold = best["cv_score"] - config.lam * best["cv_se"]
        chosen = next(c for c in candidates if c["cv_score"] >= threshold)

    biomarker = RatioBiomarker(
        tuple(chosen["numerator"]), tuple(chosen["denominator"]), mode
    )
    biomarker, fit, fitted = orient_and_fit(biomarker, matrix, outcome, spec)
    return LearnedModel(
        biomarker=biomarker,
        glm=fit,
        feature_ids=list(matrix.feature_ids),
        cv_score=chosen["cv_score"],
        cv_se=chosen["cv_se"],
        training_scores=fitted,
        seed=config.seed,
        diagnostics={
            "learner": "relaxed",
            "mode": mode,
            "loss_curve": loss_curve.tolist(),
            "grad_norm": grad_norm,
            "converged": converged,
            "cutoffs": candidates,
            "selected_cutoff": chosen["cutoff"],
        },
    )
