"""Continuous relaxation of ratio-biomarker selection, trained by gradient.

Each feature gets an unconstrained coefficient a_j mapped to soft side
weights w+ = sigmoid(a) and w- = sigmoid(-a). The soft score is
differentiable in a, so (a, beta, beta0) are optimized jointly by momentum
gradient descent on the GLM loss. Discretizing at a cutoff on
|sigmoid(a_j) - 0.5|
recovers hard index sets; the sweep evaluates every distinct cutoff by
cross-validation and keeps the sparsest one whose score is within `lam`
standard errors of the best, then refits the hard sets. Fits on one
matrix train together, as the rows of one parameter array.
"""

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import RatiomarkerError, ValidationError
from ..glm import _rowdot
from ..special import expit
from .biomarker import MODES, LearnedModel, LearnerConfig, RatioBiomarker, orient_and_fit
from .scoring import _FoldArrays, _learner_setup, _score_sets, make_folds


def _dot(x: np.ndarray, y: np.ndarray):
    """x . y over the last axis: a scalar for vectors, one per row else."""
    return x.dot(y) if x.ndim == 1 else _rowdot(x, y)


def relaxed_loss_and_grad(
    params: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    mode: str = "balance",
    link: str = "logistic",
    logs: np.ndarray | None = None,
):
    """Loss and analytic gradient of the soft biomarker model.

    `params` is the flat vector (a_1..a_G, beta, beta0) of one fit, or a
    B x (G+2) array of B fits on `values`, with `y` then B x n and one loss
    per fit. The loss is the mean squared error for the identity link and
    the mean logistic negative log-likelihood for the logistic link. Like
    `special.expit`, this opens no errstate; the training loop opens one
    around all its calls.
    """
    params = np.asarray(params, dtype=float)
    n, g = values.shape
    ones = np.ones((g, 1) if params.ndim > 1 else g)  # sums over features, per fit
    beta, beta0 = params[..., g : g + 1], params[..., g + 1 :]
    s = expit(params[..., :g])
    s_other = 1.0 - s
    if mode == "slr":
        s_pos = s @ values.T
        s_neg = s_other @ values.T
        ratio = s_pos / s_neg
        z = np.log(ratio)
    elif mode == "balance":
        logs = np.log(values) if logs is None else logs
        # z = m+ - m-, the sides' weighted mean logs, is logs @ u with
        # u = s (1/w+ + 1/w-) - 1/w-.
        w_pos = s.dot(ones)
        inv_pos, inv_neg = 1.0 / w_pos, 1.0 / (g - w_pos)
        z = (s * (inv_pos + inv_neg) - inv_neg) @ logs.T
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    eta = beta * z + beta0
    if link == "logistic":
        loss = (np.logaddexp(0.0, eta) - y * eta).sum(axis=-1) / n
        resid = expit(eta) - y
    elif link == "identity":
        resid = eta - y
        loss = 0.5 * (_dot(resid, resid) / n)
    else:
        raise ValidationError(f"unknown link {link!r}")
    resid /= n

    grad = np.empty(params.shape)
    grad[..., g] = _dot(resid, z)
    grad[..., g + 1] = resid.sum(axis=-1)
    if mode == "slr":
        r = (resid * ((1.0 + ratio) / s_pos)).dot(values)  # 1/s_pos + 1/s_neg
    else:
        # With r = resid @ logs: resid . m+ = r . s / w+ and
        # resid . m- = (sum(r) - r . s) / w-.
        r = resid.dot(logs)
        rs = (r * s).dot(ones)
        c_pos = rs * inv_pos
        c_neg = (r.dot(ones) - rs) * inv_neg
        r *= inv_pos + inv_neg
        r -= c_pos * inv_pos + c_neg * inv_neg
    s_other *= s
    s_other *= beta
    np.multiply(s_other, r, out=grad[..., :g])
    return loss, grad


def _cutoff_sets(a: np.ndarray) -> list[tuple[float, list[int], list[int]]]:
    """(cutoff, numerator, denominator) at each distinct cutoff on
    |sigmoid(a_j) - 0.5|, sparsest first, where both sides are nonempty and
    the set is larger than the last one kept."""
    # exp(-a) overflows for a below about -709; that side weight is 0.
    with np.errstate(over="ignore"):
        distance = np.abs(expit(a) - 0.5)
    # Farthest first, a cutoff's set `k` is the prefix up to its last
    # feature. Sizes never shrink: a set is kept if it grew, with both sides.
    order = np.argsort(-distance, kind="stable")
    ends = np.flatnonzero(np.diff(distance[order], append=-1.0))
    n_pos, n_neg = np.cumsum(a[order] > 0.0)[ends], np.cumsum(a[order] < 0.0)[ends]
    grew = np.diff(n_pos + n_neg, prepend=0) > 0
    return [
        (float(distance[order[end]]), k[a[k] > 0.0].tolist(), k[a[k] < 0.0].tolist())
        for end in ends[grew & (n_pos > 0) & (n_neg > 0)]
        for k in [np.sort(order[: end + 1])]
    ]


def _train(params, values, y, mode, link, config) -> np.ndarray:
    """Train `params` (a fit, or fits as rows) in place; the loss per step."""
    # Plain gradient descent with momentum. Unlike normalized per-coordinate
    # steps, this keeps |a_j| growth proportional to accumulated gradient,
    # so uninformative features are not dragged toward saturation and the
    # cutoff ranking stays faithful to signal strength.
    logs = np.log(values)
    velocity = np.zeros_like(params)
    step = np.empty_like(params)
    loss_curve = np.empty((config.epochs, *params.shape[:-1]))
    # A step size too large for the data overflows the parameters; that is
    # reported once per fit, as its error, not as numpy warnings.
    with np.errstate(all="ignore"):
        for t in range(config.epochs):
            loss, grad = relaxed_loss_and_grad(params, values, y, mode, link, logs)
            loss_curve[t] = loss
            # velocity = 0.9 * velocity + grad; params -= lr * velocity.
            velocity *= 0.9
            velocity += grad
            params -= np.multiply(velocity, config.learning_rate, out=step)
    return loss_curve


def _select(a, loss_curve, data, matrix, outcome, folds, seed, config, mode):
    """The model of trained `a`: the cutoff sweep on `data`, then `orient_and_fit`."""

    def scored(sets: list) -> list[dict]:
        """The sweep's table rows for (cutoff, numerator, denominator) sets,
        all scored in one call."""
        sides = np.zeros((2, len(a), len(sets)))
        for c, (_, num, den) in enumerate(sets):
            sides[0, num, c] = sides[1, den, c] = 1.0
        means, ses = _score_sets(data, mode, *sides, outcome, folds)
        return [
            dict(cutoff=cutoff, numerator=num, denominator=den, size=len(num) + len(den),
                 cv_score=float(mean), cv_se=float(se))
            for (cutoff, num, den), mean, se in zip(sets, means, ses)
        ]

    # Candidate sets are nested, so set sizes strictly increase and
    # "sparsest within lam SEs of the best" is a deterministic first-hit scan.
    sets = _cutoff_sets(a)
    candidates = scored(sets) if sets else []
    if all(c["cv_score"] == float("-inf") for c in candidates):
        # Every coefficient ended on the same side; keep the two extremes,
        # the last of the smallest, so the model stays a genuine ratio.
        extremes = [int(np.argmax(a))], [a.size - 1 - int(np.argmin(a[::-1]))]
        candidates = scored([(float("nan"), *extremes)])
        chosen = candidates[0]
    else:
        best = max(candidates, key=lambda c: c["cv_score"])
        threshold = best["cv_score"] - config.lam * best["cv_se"]
        chosen = next(c for c in candidates if c["cv_score"] >= threshold)

    biomarker = RatioBiomarker(tuple(chosen["numerator"]), tuple(chosen["denominator"]), mode)
    diagnostics = dict(learner="relaxed", mode=mode, loss_curve=loss_curve.tolist(),
                       cutoffs=candidates, selected_cutoff=chosen["cutoff"])
    return orient_and_fit(
        biomarker, matrix, outcome, chosen["cv_score"], chosen["cv_se"], seed, diagnostics
    )


def _relaxed_fits(matrix, outcomes, config, seeds, mode) -> list:
    """The LearnedModel of each (outcome, seed) pair on `matrix`, or the
    RatiomarkerError that ended that fit alone. Each fit draws its start
    and folds from its seed, and all train as the rows of one parameter
    array (a lone fit as a vector), so the outcomes must share a kind.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    config = config or LearnerConfig()
    g = matrix.n_features
    results, live, starts, targets, folds = [None] * len(outcomes), [], [], [], []
    for i, (outcome, seed) in enumerate(zip(outcomes, seeds)):
        try:
            _learner_setup(matrix, outcome, config)
            rng = np.random.default_rng(seed)
            # Near-zero random start: features only earn distance from 0.5
            # through consistent gradient signal, which keeps the cutoff
            # ranking clean.
            a = rng.normal(0.0, 0.01, g)
            folds.append(_FoldArrays(outcome, make_folds(outcome, config.cv_folds, rng)))
        except RatiomarkerError as exc:
            results[i] = exc
            continue
        y, beta0 = outcome.values, 0.0
        if outcome.kind == "binary":
            beta0 = float(np.log(y.mean() / (1.0 - y.mean())))
        else:
            # Standardizing the response makes the step size scale-free;
            # the hard candidates are refit against the raw response later.
            y = (y - y.mean()) / float(y.std())
        starts.append(np.concatenate([a, [0.0, beta0]]))
        targets.append(y)
        live.append(i)
    if not live:
        return results
    if len({outcomes[i].link for i in live}) > 1:
        raise ValidationError("fits trained as one batch must share an outcome kind")
    # A batch is 2-D; one fit stays 1-D, and so as fast as a lone fit can be.
    params, y_fit = (np.stack(x) if len(live) > 1 else x[0] for x in (starts, targets))
    curves = _train(params, matrix.values, y_fit, mode, outcomes[live[0]].link, config)
    data = np.log(matrix.values) if mode == "balance" else matrix.values
    for i, p, curve, fit_folds in zip(
        live, params.reshape(len(live), -1), curves.reshape(config.epochs, -1).T, folds
    ):
        try:
            if not (np.isfinite(p).all() and np.isfinite(curve).all()):
                raise ValidationError("relaxed training diverged; lower the learning rate")
            results[i] = _select(
                p[:g], curve, data, matrix, outcomes[i], fit_folds, seeds[i], config, mode
            )
        except RatiomarkerError as exc:
            results[i] = exc
    return results


def relaxed_gradient_learner(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
    mode: str = "balance",
) -> LearnedModel:
    """`_relaxed_fits` of one fit, whose error it raises."""
    config = config or LearnerConfig()
    (model,) = _relaxed_fits(matrix, [outcome], config, [config.seed], mode)
    if isinstance(model, RatiomarkerError):
        raise model
    return model
