"""One-dimensional latent representations and their ratio approximations.

Latent pipelines (a first principal component, a first PLS component, a
bottleneck network) summarize many features into one score h per sample,
but the score is a black box over the whole feature set. The bridge
implemented here refits h as a sparse ratio-based biomarker: h is handed as
a continuous outcome to the relaxed learner under the identity link, giving
an interpretable score built from a few features that tracks the latent.
"""

from dataclasses import dataclass

import numpy as np

from .composition import Outcome, StrictlyPositiveMatrix
from .errors import DegenerateDesign, ValidationError
from .learn.biomarker import LearnedModel, LearnerConfig, predict
from .learn.relaxed import relaxed_gradient_learner
from .metrics import _flat, r2_score


@dataclass
class LatentRepresentation:
    """A per-sample scalar score from some latent pipeline."""

    scores: np.ndarray
    method: str

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
            raise ValidationError(
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


def pca_first_component(x) -> tuple[LatentRepresentation, np.ndarray]:
    """First principal component scores and unit-norm loading.

    Columns are centered, the leading right singular vector is the loading,
    and its sign is fixed so the largest-magnitude entry is positive.
    """
    x = _as_2d(x)
    if x.shape[0] < 2:
        raise ValidationError("need at least two samples")
    centered = x - x.mean(axis=0, keepdims=True)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    if _flat(singular[0], x.size, np.abs(x).max()):
        raise DegenerateDesign("matrix has no variation to decompose")
    loading = vt[0] * _fix_sign(vt[0])
    return LatentRepresentation(centered @ loading, "pca"), loading


@dataclass
class PlsComponent:
    """First partial-least-squares component of an (x, y) block pair."""

    x_scores: LatentRepresentation
    y_scores: LatentRepresentation
    x_weights: np.ndarray
    y_weights: np.ndarray


def pls_first_component(x, y) -> PlsComponent:
    """The first PLS component: the leading singular pair of X'Y.

    With both blocks column-centered, the x and y weights are the leading
    left and right singular vectors of the cross-covariance xc' yc, and the
    scores are xc w and yc c. Signs follow the x-weight convention: the
    largest-magnitude x weight is positive, and (w, t, c, u) flip together
    so the fitted directions are unchanged.
    """
    x = _as_2d(x)
    y = _as_2d(y)
    if x.shape[0] != y.shape[0]:
        raise ValidationError("x and y must have the same number of rows")
    if x.shape[0] < 2:
        raise ValidationError("need at least two samples")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    u_svd, singular, vt = np.linalg.svd(xc.T @ yc, full_matrices=False)
    if _flat(singular[0], x.size * y.size, np.abs(x).max() * np.abs(y).max()):
        raise DegenerateDesign("x and y blocks have no covariance")
    sign = _fix_sign(u_svd[:, 0])
    w = sign * u_svd[:, 0]
    c = sign * vt[0]
    return PlsComponent(
        x_scores=LatentRepresentation(xc @ w, "pls"),
        y_scores=LatentRepresentation(yc @ c, "pls"),
        x_weights=w,
        y_weights=c,
    )


@dataclass
class EncoderDecoderConfig:
    """Bottleneck network settings; the latent width is fixed at 1."""

    hidden_units: int = 32
    epochs: int = 1000
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValidationError("hidden_units must be at least 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if not self.learning_rate > 0.0:
            raise ValidationError("learning_rate must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


def _layer_sizes(d_in: int, hidden: int, d_out: int):
    # encoder: d_in -> hidden -> 1; decoder: 1 -> hidden -> d_out
    return [(d_in, hidden), (hidden, 1), (1, hidden), (hidden, d_out)]


def _param_count(d_in: int, hidden: int, d_out: int) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out))


def _blocks(params: np.ndarray, d_in: int, hidden: int, d_out: int):
    """Views of each layer's (fan_in + 1) x fan_out block of `params`: its
    weights, then its bias as the last row."""
    blocks = []
    pos = 0
    for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out):
        size = (fan_in + 1) * fan_out
        blocks.append(params[pos : pos + size].reshape(fan_in + 1, fan_out))
        pos += size
    return blocks


def _init_params(rng, d_in: int, hidden: int, d_out: int) -> np.ndarray:
    chunks = []
    for fan_in, fan_out in _layer_sizes(d_in, hidden, d_out):
        limit = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-limit, limit, fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


class _MlpWorkspace:
    """The layer inputs and gradients of `mlp_loss_and_grad` on one x,
    written in place on every call. Each layer's input ends in a column of
    ones, so a layer is one matmul with its block, and the matmul giving
    the block's gradient also sums the bias's. A workspace belongs to the
    x it was built from: a call with it reads that copy, not its x.

    Keeping them for a whole fit makes a training step allocate nothing.
    An n x d temporary can fall just under the allocator's mmap threshold
    (200 x 80 doubles is 125 KiB, against glibc's default 128 KiB), and
    the heap top it leaves is then trimmed and faulted in again on every
    step.
    """

    def __init__(self, x: np.ndarray, hidden: int, d_out: int):
        n, d_in = x.shape
        self.x = np.column_stack([x, np.ones(n)])
        self.act1 = np.ones((n, hidden + 1))
        self.bottleneck = np.ones((n, 2))
        self.act3 = np.ones((n, hidden + 1))
        self.resid = np.empty((n, d_out))
        self.square = np.empty((n, d_out))
        self.d_hidden = np.empty((n, hidden + 1))
        self.d_bottleneck = np.empty((n, 1))
        self.relu = np.empty((n, hidden + 1), dtype=bool)
        self.grad = np.empty(_param_count(d_in, hidden, d_out))


def mlp_loss_and_grad(
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    hidden: int,
    workspace: _MlpWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Mean squared reconstruction error and its analytic gradient.

    The network is input -> hidden relu -> 1 (linear bottleneck) -> hidden
    relu -> output; each layer's weights and then its bias are flattened
    into one vector in layer order. With a workspace, built from this x,
    the gradient returned is its `grad`, overwritten by the next call;
    without one, a fresh workspace is made.
    """
    d_in, d_out = x.shape[1], y.shape[1]
    ws = _MlpWorkspace(x, hidden, d_out) if workspace is None else workspace
    w1, w2, w3, w4 = _blocks(params, d_in, hidden, d_out)
    g1, g2, g3, g4 = _blocks(ws.grad, d_in, hidden, d_out)
    # The elementwise passes run on whole contiguous arrays, ones columns
    # included: a ReLU keeps a 1, and d_hidden's last column is never read.
    np.matmul(ws.x, w1, out=ws.act1[:, :hidden])
    np.maximum(ws.act1, 0.0, out=ws.act1)
    np.matmul(ws.act1, w2, out=ws.bottleneck[:, :1])
    np.matmul(ws.bottleneck, w3, out=ws.act3[:, :hidden])
    np.maximum(ws.act3, 0.0, out=ws.act3)
    resid = np.matmul(ws.act3, w4, out=ws.resid)
    resid -= y
    loss = float(np.multiply(resid, resid, out=ws.square).sum() / resid.size)

    d_out_grad = resid
    d_out_grad *= 2.0 / resid.size
    np.matmul(ws.act3.T, d_out_grad, out=g4)
    d_act3 = np.matmul(d_out_grad, w4.T, out=ws.d_hidden)
    d_act3 *= np.greater(ws.act3, 0.0, out=ws.relu)
    np.matmul(ws.bottleneck.T, d_act3[:, :hidden], out=g3)
    d_bottleneck = np.matmul(d_act3[:, :hidden], w3[:1].T, out=ws.d_bottleneck)
    np.matmul(ws.act1.T, d_bottleneck, out=g2)
    d_act1 = np.multiply(d_bottleneck, w2.T, out=ws.d_hidden)
    d_act1 *= np.greater(ws.act1, 0.0, out=ws.relu)
    np.matmul(ws.x.T, d_act1[:, :hidden], out=g1)
    return loss, ws.grad


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
    final_loss: float

    def encode(self, x) -> LatentRepresentation:
        x = _as_2d(x)
        if x.shape[1] != self.d_in:
            raise ValidationError("input width does not match the network")
        w1, w2, _, _ = _blocks(self.params, self.d_in, self.config.hidden_units, self.d_out)
        act1 = np.maximum((x - self.x_mean) @ w1[:-1] + w1[-1], 0.0)
        return LatentRepresentation((act1 @ w2[:-1] + w2[-1]).ravel(), "nn")

    def decode(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=float).reshape(-1, 1)
        _, _, w3, w4 = _blocks(self.params, self.d_in, self.config.hidden_units, self.d_out)
        act3 = np.maximum(scores @ w3[:-1] + w3[-1], 0.0)
        return act3 @ w4[:-1] + w4[-1] + self.y_mean


def encoder_decoder_latent(
    x, y, config: EncoderDecoderConfig | None = None
) -> EncoderDecoderFit:
    """Train the bottleneck network x -> h -> y with Adam on MSE.

    Data are column-centered internally; `decode` adds the target means
    back. Training is deterministic given the seed and runs all
    `config.epochs` steps; the fit keeps the loss before each step and the
    loss after the last one. Training that overflows to non-finite weights
    raises ValidationError.
    """
    if config is None:
        config = EncoderDecoderConfig()
    x = _as_2d(x)
    y = _as_2d(y)
    if x.shape[0] != y.shape[0]:
        raise ValidationError("x and y must have the same number of rows")
    rng = np.random.default_rng(config.seed)
    x_mean = x.mean(axis=0, keepdims=True)
    y_mean = y.mean(axis=0, keepdims=True)
    xc = x - x_mean
    yc = y - y_mean
    params = _init_params(rng, x.shape[1], config.hidden_units, y.shape[1])
    workspace = _MlpWorkspace(xc, config.hidden_units, y.shape[1])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    m_hat = np.empty_like(params)
    v_hat = np.empty_like(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    loss_curve = np.empty(config.epochs)
    # A step size too large for the data overflows the weights; that is
    # reported once, as the error below, not as numpy warnings.
    with np.errstate(all="ignore"):
        # Adam, updated in place; each line keeps the operands and order of
        # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
        # params -= lr * m_hat / (sqrt(v_hat) + eps), so the bits are those of
        # the expressions.
        for t in range(1, config.epochs + 1):
            loss, grad = mlp_loss_and_grad(
                params, xc, yc, config.hidden_units, workspace
            )
            loss_curve[t - 1] = loss
            m *= b1
            m += np.multiply(grad, 1.0 - b1, out=m_hat)
            v *= b2
            np.multiply(grad, 1.0 - b2, out=v_hat)
            v += np.multiply(v_hat, grad, out=v_hat)
            np.divide(m, 1.0 - b1**t, out=m_hat)
            m_hat *= config.learning_rate
            np.divide(v, 1.0 - b2**t, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += eps
            m_hat /= v_hat
            params -= m_hat
        final_loss, _ = mlp_loss_and_grad(
            params, xc, yc, config.hidden_units, workspace
        )
    if not (np.all(np.isfinite(params)) and np.isfinite(final_loss)):
        raise ValidationError(
            "network training diverged; lower the network learning rate"
        )
    return EncoderDecoderFit(
        params=params,
        config=config,
        x_mean=x_mean,
        y_mean=y_mean,
        d_in=x.shape[1],
        d_out=y.shape[1],
        loss_curve=loss_curve,
        final_loss=final_loss,
    )


def least_squares_decode(target, scores) -> np.ndarray:
    """Best linear reconstruction of `target` columns from the latent score."""
    target = _as_2d(target)
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size != target.shape[0]:
        raise ValidationError("score length does not match target rows")
    design = np.column_stack([scores, np.ones(scores.size)])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return design @ coef


def variance_explained(original, reconstruction) -> float:
    """R squared of a reconstruction: 1 - SS_res / SS_tot.

    SS_tot is taken about the column means of the original. An original
    without variation (see `metrics._flat`) has no variance to explain and
    raises DegenerateDesign.
    """
    original = _as_2d(original)
    reconstruction = _as_2d(reconstruction)
    if original.shape != reconstruction.shape:
        raise ValidationError("original and reconstruction shapes differ")
    centered = original - original.mean(axis=0, keepdims=True)
    ss_tot = float(np.sum(centered * centered))
    if _flat(np.sqrt(ss_tot), original.size, np.abs(original).max()):
        raise DegenerateDesign("original matrix is constant")
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
        raise ValidationError("latent length does not match sample count")
    outcome = Outcome.continuous(latent.scores)
    model = relaxed_gradient_learner(matrix, outcome, config=config, mode=mode)
    approx = predict(model, matrix)
    return RbbApproximation(
        model=model,
        approx_scores=approx,
        latent_r2=r2_score(latent.scores, approx),
        active_features=model.biomarker.size,
        total_features=matrix.n_features,
    )
