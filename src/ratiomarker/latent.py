"""One-dimensional latent representations and their ratio approximations.

Latent pipelines (a first principal component, a first PLS component, a
bottleneck network) summarize many features into one score h per sample,
but the score is a black box over the whole feature set. The bridge
implemented here refits h as a sparse ratio-based biomarker: h is handed as
a continuous outcome to the relaxed learner under the identity link, giving
an interpretable score built from a few features that tracks the latent.
"""

from dataclasses import dataclass, field

import numpy as np

from .composition import Outcome, StrictlyPositiveMatrix
from .errors import (
    DimensionMismatch,
    NotConvergedError,
    RankZero,
    ValidationError,
    ZeroVariance,
)
from .glm import ModelSpec
from .learn.biomarker import LearnedModel, LearnerConfig, predict
from .learn.relaxed import relaxed_gradient_learner


@dataclass
class LatentRepresentation:
    """A per-sample scalar score from some latent pipeline."""

    scores: np.ndarray
    method: str
    source: str = "x"

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float).ravel()
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("latent scores must be finite")


@dataclass
class OmicsPair:
    """Two strictly positive matrices over the same samples, same order."""

    t: StrictlyPositiveMatrix
    u: StrictlyPositiveMatrix

    def __post_init__(self):
        if self.t.sample_ids != self.u.sample_ids:
            raise DimensionMismatch(
                "the two matrices must share sample ids in the same order"
            )

    @property
    def n_samples(self) -> int:
        return self.t.n_samples


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValidationError("expected a 2-d array")
    if not np.all(np.isfinite(x)):
        raise ValidationError("array must be finite")
    return x


def _fix_sign(vector: np.ndarray) -> float:
    """Sign that makes the largest-magnitude entry positive (first on ties)."""
    idx = int(np.argmax(np.abs(vector)))
    return -1.0 if vector[idx] < 0.0 else 1.0


def pca_first_component(
    x, source: str = "x"
) -> tuple[LatentRepresentation, np.ndarray]:
    """First principal component scores and unit-norm loading.

    Columns are centered, the leading right singular vector is the loading,
    and its sign is fixed so the largest-magnitude entry is positive.
    """
    x = _as_2d(x)
    if x.shape[0] < 2:
        raise ValidationError("need at least two samples")
    centered = x - x.mean(axis=0, keepdims=True)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(np.abs(x).max()))
    if singular[0] <= np.finfo(float).eps * max(x.shape) * scale:
        raise RankZero("matrix has no variation to decompose")
    loading = vt[0] * _fix_sign(vt[0])
    return (
        LatentRepresentation(centered @ loading, "pca", source),
        loading,
    )


@dataclass
class PlsComponent:
    """First partial-least-squares component of an (x, y) block pair."""

    x_scores: LatentRepresentation
    y_scores: LatentRepresentation
    x_weights: np.ndarray
    y_weights: np.ndarray
    n_iter: int


def pls_first_component(
    x, y, tol: float = 1e-10, max_iter: int = 500, source: str = "x,y"
) -> PlsComponent:
    """One NIPALS round for the first PLS component.

    Alternates weight and score updates between the blocks until the x-side
    score moves less than `tol` (relative). The y-side score vector is
    initialized from the y column with the largest variance. Signs follow
    the x-weight convention: the largest-magnitude x weight is positive,
    and all of (w, t, c, u) flip together so the fitted directions are
    unchanged.
    """
    x = _as_2d(x)
    y = _as_2d(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch("x and y must have the same number of rows")
    if x.shape[0] < 2:
        raise ValidationError("need at least two samples")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    u = yc[:, int(np.argmax(yc.var(axis=0)))].copy()
    if float(u @ u) == 0.0:
        raise RankZero("y block has no variation")
    t_old = None
    t = np.zeros(x.shape[0])
    w = np.zeros(x.shape[1])
    c = np.zeros(y.shape[1])
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        w = xc.T @ u
        w_norm = float(np.linalg.norm(w))
        if w_norm == 0.0:
            raise RankZero("x block has no covariance with y")
        w = w / w_norm
        t = xc @ w
        c = yc.T @ t
        c_norm = float(np.linalg.norm(c))
        if c_norm == 0.0:
            raise RankZero("y block has no covariance with x")
        c = c / c_norm
        u = yc @ c
        if t_old is not None:
            denom = float(np.linalg.norm(t))
            if denom == 0.0 or np.linalg.norm(t - t_old) / denom < tol:
                break
        t_old = t.copy()
    else:
        raise NotConvergedError(
            f"NIPALS did not converge in {max_iter} iterations",
            n_iter=max_iter,
        )
    sign = _fix_sign(w)
    return PlsComponent(
        x_scores=LatentRepresentation(sign * t, "pls", source),
        y_scores=LatentRepresentation(sign * u, "pls", source),
        x_weights=sign * w,
        y_weights=sign * c,
        n_iter=n_iter,
    )


@dataclass
class EncoderDecoderConfig:
    """Bottleneck network settings; the latent width is fixed at 1."""

    hidden_units: int = 32
    activation: str = "relu"
    epochs: int = 1000
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValidationError("hidden_units must be at least 1")
        if self.activation != "relu":
            raise ValidationError("only the relu activation is supported")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")


def _layer_sizes(d_in: int, hidden: int, d_out: int):
    # encoder: d_in -> hidden -> 1; decoder: 1 -> hidden -> d_out
    return [(d_in, hidden), (hidden, 1), (1, hidden), (hidden, d_out)]


def _param_count(d_in: int, hidden: int, d_out: int) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out))


def _unpack(params: np.ndarray, d_in: int, hidden: int, d_out: int):
    weights = []
    biases = []
    pos = 0
    for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out):
        weights.append(params[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(params[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def _init_params(rng, d_in: int, hidden: int, d_out: int) -> np.ndarray:
    chunks = []
    for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out):
        limit = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-limit, limit, fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def mlp_loss_and_grad(
    params: np.ndarray, x: np.ndarray, y: np.ndarray, hidden: int
) -> tuple[float, np.ndarray]:
    """Mean squared reconstruction error and its analytic gradient.

    The network is input -> hidden relu -> 1 (linear bottleneck) -> hidden
    relu -> output, all weights and biases flattened into one vector in
    layer order.
    """
    n, d_in = x.shape
    d_out = y.shape[1]
    (w1, w2, w3, w4), (b1, b2, b3, b4) = _unpack(params, d_in, hidden, d_out)

    pre1 = x @ w1 + b1
    act1 = np.maximum(pre1, 0.0)
    bottleneck = act1 @ w2 + b2
    pre3 = bottleneck @ w3 + b3
    act3 = np.maximum(pre3, 0.0)
    out = act3 @ w4 + b4
    resid = out - y
    loss = float(np.mean(resid * resid))

    d_out_grad = 2.0 * resid / resid.size
    g_w4 = act3.T @ d_out_grad
    g_b4 = d_out_grad.sum(axis=0)
    d_act3 = d_out_grad @ w4.T
    d_pre3 = d_act3 * (pre3 > 0.0)
    g_w3 = bottleneck.T @ d_pre3
    g_b3 = d_pre3.sum(axis=0)
    d_bottleneck = d_pre3 @ w3.T
    g_w2 = act1.T @ d_bottleneck
    g_b2 = d_bottleneck.sum(axis=0)
    d_act1 = d_bottleneck @ w2.T
    d_pre1 = d_act1 * (pre1 > 0.0)
    g_w1 = x.T @ d_pre1
    g_b1 = d_pre1.sum(axis=0)

    grad = np.concatenate(
        [
            g_w1.ravel(),
            g_b1,
            g_w2.ravel(),
            g_b2,
            g_w3.ravel(),
            g_b3,
            g_w4.ravel(),
            g_b4,
        ]
    )
    return loss, grad


@dataclass
class EncoderDecoderFit:
    """A trained bottleneck network mapping x to y through one scalar."""

    params: np.ndarray
    config: EncoderDecoderConfig
    x_mean: np.ndarray
    y_mean: np.ndarray
    d_in: int
    d_out: int
    loss_curve: np.ndarray
    converged: bool
    final_loss: float
    source: str = "x"

    def encode(self, x) -> LatentRepresentation:
        x = _as_2d(x)
        if x.shape[1] != self.d_in:
            raise DimensionMismatch("input width does not match the network")
        (w1, w2, _, _), (b1, b2, _, _) = _unpack(
            self.params, self.d_in, self.config.hidden_units, self.d_out
        )
        act1 = np.maximum((x - self.x_mean) @ w1 + b1, 0.0)
        return LatentRepresentation(
            (act1 @ w2 + b2).ravel(), "nn", self.source
        )

    def decode(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=float).reshape(-1, 1)
        (_, _, w3, w4), (_, _, b3, b4) = _unpack(
            self.params, self.d_in, self.config.hidden_units, self.d_out
        )
        act3 = np.maximum(scores @ w3 + b3, 0.0)
        return act3 @ w4 + b4 + self.y_mean


def encoder_decoder_latent(
    x, y, config: EncoderDecoderConfig | None = None, source: str = "x"
) -> EncoderDecoderFit:
    """Train the bottleneck network x -> h -> y with Adam on MSE.

    Data are column-centered internally; `decode` adds the target means
    back. Training is deterministic given the seed. Non-convergence is
    reported on the fit (converged flag plus final loss), not raised.
    """
    if config is None:
        config = EncoderDecoderConfig()
    x = _as_2d(x)
    y = _as_2d(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch("x and y must have the same number of rows")
    rng = np.random.default_rng(config.seed)
    x_mean = x.mean(axis=0, keepdims=True)
    y_mean = y.mean(axis=0, keepdims=True)
    xc = x - x_mean
    yc = y - y_mean
    params = _init_params(rng, x.shape[1], config.hidden_units, y.shape[1])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    loss_curve = np.empty(config.epochs)
    grad = np.zeros_like(params)
    for t in range(1, config.epochs + 1):
        loss, grad = mlp_loss_and_grad(params, xc, yc, config.hidden_units)
        loss_curve[t - 1] = loss
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final_loss, grad = mlp_loss_and_grad(params, xc, yc, config.hidden_units)
    converged = float(np.linalg.norm(grad)) <= 1e-3 * (1.0 + final_loss)
    return EncoderDecoderFit(
        params=params,
        config=config,
        x_mean=x_mean,
        y_mean=y_mean,
        d_in=x.shape[1],
        d_out=y.shape[1],
        loss_curve=loss_curve,
        converged=converged,
        final_loss=final_loss,
        source=source,
    )


def least_squares_decode(target, scores) -> np.ndarray:
    """Best linear reconstruction of `target` columns from the latent score."""
    target = _as_2d(target)
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size != target.shape[0]:
        raise DimensionMismatch("score length does not match target rows")
    design = np.column_stack([scores, np.ones(scores.size)])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return design @ coef


def variance_explained(original, reconstruction) -> float:
    """R squared of a reconstruction: 1 - SS_res / SS_tot.

    SS_tot is taken about the column means of the original. A constant
    original has no variance to explain and raises ZeroVariance.
    """
    original = _as_2d(original)
    reconstruction = _as_2d(reconstruction)
    if original.shape != reconstruction.shape:
        raise DimensionMismatch("original and reconstruction shapes differ")
    centered = original - original.mean(axis=0, keepdims=True)
    ss_tot = float(np.sum(centered * centered))
    if ss_tot == 0.0:
        raise ZeroVariance("original matrix is constant")
    resid = original - reconstruction
    return 1.0 - float(np.sum(resid * resid)) / ss_tot


@dataclass
class RbbApproximation:
    """A sparse ratio biomarker distilled from a latent score."""

    model: LearnedModel
    approx_scores: np.ndarray
    latent_r2: float
    active_features: int
    total_features: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def sparsity(self) -> float:
        return self.active_features / self.total_features


def approximate_latent_with_rbb(
    latent: LatentRepresentation,
    matrix: StrictlyPositiveMatrix,
    config: LearnerConfig | None = None,
    mode: str = "balance",
) -> RbbApproximation:
    """Refit a latent score as a sparse ratio biomarker.

    The latent scores become a continuous outcome and the relaxed learner
    fits h ~ beta * z + beta0 under the identity link. Because z depends
    only on within-sample ratios, the approximation inherits invariance to
    per-sample rescaling of the matrix.
    """
    if latent.scores.size != matrix.n_samples:
        raise DimensionMismatch("latent length does not match sample count")
    outcome = Outcome.continuous(latent.scores)
    spec = ModelSpec(link="identity")
    model = relaxed_gradient_learner(
        matrix, outcome, config=config, spec=spec, mode=mode
    )
    approx = predict(model, matrix)
    from .metrics import r2_score

    return RbbApproximation(
        model=model,
        approx_scores=approx,
        latent_r2=r2_score(latent.scores, approx),
        active_features=model.biomarker.size,
        total_features=matrix.n_features,
        diagnostics={"latent_method": latent.method, "mode": mode},
    )
