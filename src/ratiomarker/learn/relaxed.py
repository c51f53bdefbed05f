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

A training step allocates nothing and computes no loss: `_step` writes
into one `_Workspace` per fit or batch and keeps its linear predictor,
and one `_losses` call per block of epochs fills the loss curve.
"""

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import RatiomarkerError, ValidationError
from ..glm import _rowdot
from ..special import expit, softplus
from .biomarker import MODES, LearnedModel, LearnerConfig, RatioBiomarker, orient_and_fit
from .scoring import _FoldArrays, _learner_setup, _score_sets, make_folds

# Linear predictors kept per block of epochs: the block and its softplus stay
# under glibc's 128 KiB mmap threshold, as `scoring._RANK_ELEMENTS` chunks do.
_LOSS_ELEMENTS = 1 << 13


class _Workspace:
    """Every intermediate of `_step` for `params` (a fit, or fits as rows) on
    `values`, which it overwrites, and views of the parts of `params`. The
    mode is one `_relaxed_fits` checked, and the link an `Outcome`'s."""

    def __init__(self, params, values, mode, link):
        n, g = values.shape
        batch = params.shape[:-1]
        self.mode, self.link, self.values, self.n = mode, link, values, float(n)
        self.logs = np.log(values)
        self.ones = np.ones((g, 1) if batch else g)  # sums over features, per fit
        self.s, self.s_other, self.side, self.r = (np.empty(batch + (g,)) for _ in range(4))
        self.z, self.resid, self.s_pos, self.ratio = (np.empty(batch + (n,)) for _ in range(4))
        self.grad = np.empty(params.shape)
        # A fit's beta and beta0 are 0-d views, which numpy applies as
        # scalars, faster than 1-element views; a batch's are columns.
        self.a = params[..., :g]
        if batch:
            self.beta, self.beta0 = params[:, g : g + 1], params[:, g + 1 :]
        else:
            self.beta, self.beta0 = params[..., g], params[..., g + 1]


def _step(ws: _Workspace, y, eta) -> np.ndarray:
    """Write the loss gradient at the workspace's parameters into `ws.grad`,
    and the linear predictor into `eta`. Opens no errstate, like `expit`."""
    values, s, s_other, z, resid, r = ws.values, ws.s, ws.s_other, ws.z, ws.resid, ws.r
    g = values.shape[1]
    expit(ws.a, out=s)
    np.subtract(1.0, s, out=s_other)
    if ws.mode == "slr":
        np.matmul(s, values.T, out=ws.s_pos)
        np.matmul(s_other, values.T, out=z)
        np.divide(ws.s_pos, z, out=ws.ratio)
        np.log(ws.ratio, out=z)
    else:
        # z = m+ - m-, the sides' weighted mean logs, is logs @ u with
        # u = s (1/w+ + 1/w-) - 1/w-.
        w_pos = s.dot(ws.ones)
        inv_pos, inv_neg = 1.0 / w_pos, 1.0 / (g - w_pos)
        inv_sum = inv_pos + inv_neg
        np.multiply(s, inv_sum, out=ws.side)
        ws.side -= inv_neg
        np.matmul(ws.side, ws.logs.T, out=z)

    np.multiply(z, ws.beta, out=eta)
    eta += ws.beta0
    if ws.link == "logistic":
        expit(eta, out=resid)
        resid -= y
    else:
        np.subtract(eta, y, out=resid)
    resid /= ws.n

    grad = ws.grad
    grad[..., g] = resid.dot(z) if resid.ndim == 1 else _rowdot(resid, z)
    grad[..., g + 1] = np.add.reduce(resid, axis=-1)
    if ws.mode == "slr":
        # resid * (1/s_pos + 1/s_neg) = resid * (1 + ratio) / s_pos.
        ratio = ws.ratio
        ratio += 1.0
        ratio /= ws.s_pos
        ratio *= resid
        np.dot(ratio, values, out=r)
    else:
        # With r = resid @ logs: resid . m+ = r . s / w+ and
        # resid . m- = (sum(r) - r . s) / w-.
        np.dot(resid, ws.logs, out=r)
        rs = np.multiply(r, s, out=ws.side).dot(ws.ones)
        c_pos = rs * inv_pos
        c_neg = (r.dot(ws.ones) - rs) * inv_neg
        r *= inv_sum
        r -= c_pos * inv_pos + c_neg * inv_neg
    s_other *= s
    s_other *= ws.beta
    np.multiply(s_other, r, out=grad[..., :g])
    return grad


def _losses(etas, y, link) -> np.ndarray:
    """The loss at each of a block of linear predictors stacked on axis 0:
    the mean logistic NLL, or half the mean squared error. Overwrites `etas`."""
    n = y.shape[-1]
    if link == "logistic":
        loss = softplus(etas)
        loss -= np.multiply(etas, y, out=etas)
        return loss.sum(axis=-1) / n
    np.subtract(etas, y, out=etas)
    return 0.5 * (np.square(etas, out=etas).sum(axis=-1) / n)


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
    ws = _Workspace(params, values, mode, link)
    velocity = np.zeros_like(params)
    step = np.empty_like(params)
    loss_curve = np.empty((config.epochs, *params.shape[:-1]))
    block = min(config.epochs, max(1, _LOSS_ELEMENTS // y.size))
    etas = np.empty((block, *y.shape))
    # A step size too large for the data overflows the parameters; that is
    # reported once per fit, as its error, not as numpy warnings.
    with np.errstate(all="ignore"):
        for start in range(0, config.epochs, block):
            stored = etas[: min(block, config.epochs - start)]
            for eta in stored:
                grad = _step(ws, y, eta)
                # velocity = 0.9 * velocity + grad; params -= lr * velocity.
                velocity *= 0.9
                velocity += grad
                params -= np.multiply(velocity, config.learning_rate, out=step)
            loss_curve[start : start + len(stored)] = _losses(stored, y, link)
    return loss_curve


def _select(a, loss_curve, data, matrix, folds, seed, config, mode):
    """The model of trained `a`: the cutoff sweep on `data`, then
    `orient_and_fit` against the outcome of the split `folds`."""

    def scored(sets: list) -> list[dict]:
        """The sweep's table rows for (cutoff, numerator, denominator) sets,
        all scored in one call."""
        sides = np.zeros((2, len(a), len(sets)))
        for c, (_, num, den) in enumerate(sets):
            sides[0, num, c] = sides[1, den, c] = 1.0
        means, ses = _score_sets(data, mode, *sides, folds)
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
        biomarker, matrix, folds.outcome, chosen["cv_score"], chosen["cv_se"], seed, diagnostics
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
            results[i] = _select(p[:g], curve, data, matrix, fit_folds, seeds[i], config, mode)
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
