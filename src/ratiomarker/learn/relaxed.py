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

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import ValidationError
from ..special import expit
from .biomarker import (
    MODES,
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    orient_and_fit,
)
from .scoring import _learner_setup, _score_sets, make_folds


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
    log-likelihood for the logistic link. Like `special.expit`, this opens
    no errstate; the training loop opens one around all its calls.
    """
    params = np.asarray(params, dtype=float)
    g = values.shape[1]
    a = params[:g]
    beta = params[g]
    beta0 = params[g + 1]
    n = values.shape[0]
    s = expit(a)
    s_other = 1.0 - s
    s_prime = s * s_other

    if mode == "slr":
        s_pos = values @ s
        s_neg = values @ s_other
        z = np.log(s_pos) - np.log(s_neg)
        dz_common = 1.0 / s_pos + 1.0 / s_neg
    elif mode == "balance":
        if logs is None:
            logs = np.log(values)
        w_pos = float(s.sum())
        w_neg = float(g - w_pos)
        m_pos = (logs @ s) / w_pos
        m_neg = (logs @ s_other) / w_neg
        z = m_pos - m_neg
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    eta = beta * z + beta0
    if link == "logistic":
        # sum / n is np.mean's arithmetic, without its Python overhead.
        loss = float((np.logaddexp(0.0, eta) - y * eta).sum() / n)
        resid = (expit(eta) - y) / n
    elif link == "identity":
        diff = eta - y
        loss = float(0.5 * ((diff * diff).sum() / n))
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


def _cutoff_sets(a: np.ndarray) -> list[tuple[float, list[int], list[int]]]:
    """(cutoff, numerator, denominator) at each distinct cutoff on
    |sigmoid(a_j) - 0.5|, sparsest first, where both sides are nonempty and
    the set is larger than the last one kept."""
    # exp(-a) overflows for a below about -709; that side weight is 0.
    with np.errstate(over="ignore"):
        distance = np.abs(expit(a) - 0.5)
    sets, size = [], 0
    for cutoff in np.unique(distance)[::-1]:
        kept = distance >= cutoff
        num = np.flatnonzero(kept & (a > 0.0)).tolist()
        den = np.flatnonzero(kept & (a < 0.0)).tolist()
        if num and den and len(num) + len(den) > size:
            sets.append((float(cutoff), num, den))
            size = len(num) + len(den)
    return sets


def _fallback_sets(a: np.ndarray) -> tuple[list[int], list[int]]:
    # Every coefficient ended on the same side; keep the two extremes so the
    # model stays a genuine ratio.
    order = np.argsort(-a, kind="stable")
    return [int(order[0])], [int(order[-1])]


def relaxed_gradient_learner(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
    mode: str = "balance",
) -> LearnedModel:
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    config = _learner_setup(matrix, outcome, config)
    g = matrix.n_features
    values = matrix.values
    logs = np.log(values)
    y = outcome.values
    rng = np.random.default_rng(config.seed)
    # Near-zero random start: features only earn distance from 0.5 through
    # consistent gradient signal, which keeps the cutoff ranking clean.
    a = rng.normal(0.0, 0.01, g)
    folds = make_folds(outcome, config.cv_folds, rng)

    if outcome.kind == "binary":
        ybar = float(y.mean())
        beta0 = float(np.log(ybar / (1.0 - ybar)))
        y_fit = y
    else:
        # Standardizing the response makes the step size scale-free; the
        # hard candidates are refit against the raw response later.
        y_fit = (y - y.mean()) / float(y.std())
        beta0 = 0.0
    params = np.concatenate([a, [0.0, beta0]])

    # Plain gradient descent with momentum. Unlike normalized per-coordinate
    # steps, this keeps |a_j| growth proportional to accumulated gradient,
    # so uninformative features are not dragged toward saturation and the
    # cutoff ranking stays faithful to signal strength.
    velocity = np.zeros_like(params)
    loss_curve = np.empty(config.epochs)
    # A step size too large for the data overflows the parameters; that is
    # reported once, as the error below, not as numpy warnings.
    with np.errstate(all="ignore"):
        for t in range(config.epochs):
            loss, grad = relaxed_loss_and_grad(
                params, values, y_fit, mode=mode, link=outcome.link, logs=logs
            )
            loss_curve[t] = loss
            velocity = 0.9 * velocity + grad
            params = params - config.learning_rate * velocity
        if not (np.isfinite(params).all() and np.isfinite(loss_curve).all()):
            raise ValidationError("relaxed training diverged; lower the learning rate")
        a = params[:g]

    def scored(sets: list) -> list[dict]:
        """The sweep's table rows for (cutoff, numerator, denominator) sets,
        all scored in one call."""
        means, ses = _score_sets(
            logs if mode == "balance" else values, mode,
            [(num, den) for _, num, den in sets], outcome, folds,
        )
        return [
            {
                "cutoff": cutoff,
                "numerator": num,
                "denominator": den,
                "size": len(num) + len(den),
                "cv_score": float(mean),
                "cv_se": float(se),
            }
            for (cutoff, num, den), mean, se in zip(sets, means, ses)
        ]

    # Candidate sets are nested, so set sizes strictly increase and
    # "sparsest within lam SEs of the best" is a deterministic first-hit scan.
    sets = _cutoff_sets(a)
    candidates = scored(sets) if sets else []
    if all(c["cv_score"] == float("-inf") for c in candidates):
        candidates = scored([(float("nan"), *_fallback_sets(a))])
        chosen = candidates[0]
    else:
        best = max(candidates, key=lambda c: c["cv_score"])
        threshold = best["cv_score"] - config.lam * best["cv_se"]
        chosen = next(c for c in candidates if c["cv_score"] >= threshold)

    biomarker = RatioBiomarker(
        tuple(chosen["numerator"]), tuple(chosen["denominator"]), mode
    )
    return orient_and_fit(
        biomarker, matrix, outcome, chosen["cv_score"], chosen["cv_se"], config.seed,
        {
            "learner": "relaxed",
            "mode": mode,
            "loss_curve": loss_curve.tolist(),
            "cutoffs": candidates,
            "selected_cutoff": chosen["cutoff"],
        },
    )
