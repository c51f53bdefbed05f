"""Side-by-side comparison of latent pipelines and their RBB stand-ins.

For a pair of omics matrices over the same samples, each latent method is
run under two objectives. Dimension reduction: summarize matrix M by one
score and reconstruct M's clr image. Integration: keep the latent's own
reconstruction target but fit the interpretable stand-in on the OTHER
matrix. Every row reports the unrestricted latent's R squared, the RBB's R
squared, and how many features the RBB used; rows that fail are reported
with their error instead of aborting the table.
"""

from dataclasses import dataclass

import numpy as np

from .composition import Outcome, StrictlyPositiveMatrix, clr_transform
from .errors import RatiomarkerError, ValidationError
from .latent import (
    EncoderDecoderConfig,
    OmicsPair,
    encoder_decoder_latent,
    least_squares_decode,
    pca_first_component,
    pls_first_component,
    variance_explained,
)
from .learn.biomarker import LearnerConfig, predict
from .learn.relaxed import _relaxed_fits
from .parallel import ordered_map


@dataclass
class BenchmarkRow:
    objective: str
    method: str
    latent: str
    original_r2: float
    rbb_source: str
    active_features: int
    total_features: int
    rbb_r2: float
    error: str = ""

    @property
    def rbb_vars(self) -> str:
        if self.error:
            return ""
        return f"{self.active_features} / {self.total_features}"


def synthetic_omics_pair(
    n_samples: int = 200,
    g_t: int = 50,
    g_u: int = 80,
    seed: int = 0,
    noise_sd: float = 0.3,
) -> OmicsPair:
    """Two matrices sharing one latent factor through sparse log loadings.

    A standard-normal factor drives a block of features up and an equally
    sized block down (about an eighth of the features per side, log loading
    +-1) in each matrix, with iid lognormal noise on top. The shared factor
    gives rank-1 cross-covariance, so PLS and cross-matrix networks have a
    real target.
    """
    if not (min(n_samples, g_t, g_u, seed) >= 0 and noise_sd >= 0.0):
        raise ValidationError("sizes, seed and noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    shared = rng.normal(0.0, 1.0, n_samples)

    def block(g: int, prefix: str) -> StrictlyPositiveMatrix:
        per_side = max(2, g // 8)
        loading = np.zeros(g)
        order = rng.permutation(g)
        loading[order[:per_side]] = 1.0
        loading[order[per_side : 2 * per_side]] = -1.0
        logs = shared[:, None] * loading[None, :]
        logs = logs + rng.normal(0.0, noise_sd, (n_samples, g))
        return StrictlyPositiveMatrix(
            np.exp(logs),
            [f"s{i + 1}" for i in range(n_samples)],
            [f"{prefix}{j + 1}" for j in range(g)],
        )

    return OmicsPair(t=block(g_t, "t"), u=block(g_u, "u"))


def _row_seed(base_seed: int, row_index: int) -> int:
    return int(
        np.random.SeedSequence((base_seed, row_index)).generate_state(1)[0]
    )


def _reconstruction_r2(target, scores, network) -> float:
    """Variance of `target` explained by decoding `scores`: by least squares,
    or by the network's own decoder when there is one."""
    if network is None:
        return variance_explained(target, least_squares_decode(target, scores))
    return variance_explained(target, network.decode(scores))


def _unwrap(result):
    if isinstance(result, RatiomarkerError):
        raise result
    return result


def run_benchmark(
    pair: OmicsPair,
    config: LearnerConfig | None = None,
    nn_config: EncoderDecoderConfig | None = None,
    mode: str = "balance",
) -> list[BenchmarkRow]:
    """The 12-row latent-vs-RBB comparison table, in two `ordered_map`
    stages on every CPU in the process's affinity mask: each distinct
    latent is fitted once, then each source matrix trains the six
    stand-ins that read it as one relaxed batch. A row draws its learner
    seed from its index and fails on its own error only, so the rows equal
    those of a one-CPU run (`taskset -c 0` keeps the table to one core).
    """
    if config is None:
        config = LearnerConfig()
    if nn_config is None:
        nn_config = EncoderDecoderConfig()
    clr = {"T": clr_transform(pair.t), "U": clr_transform(pair.u)}
    matrices = {"T": pair.t, "U": pair.u}

    # (objective, latent label, latent, rbb source side). A latent is
    # (method, side it scores, side it reconstructs).
    rows_spec = [
        ("dimension_reduction", "PCA1(clr T)", ("pca", "T", "T"), "T"),
        ("dimension_reduction", "PCA1(clr U)", ("pca", "U", "U"), "U"),
        ("dimension_reduction", "PLS1 t(clr T, clr U)", ("pls", "T", "T"), "T"),
        ("dimension_reduction", "PLS1 u(clr T, clr U)", ("pls", "U", "U"), "U"),
        ("dimension_reduction", "NN(T>h>T)", ("nn", "T", "T"), "T"),
        ("dimension_reduction", "NN(U>h>U)", ("nn", "U", "U"), "U"),
        ("integration", "PCA1(clr T)", ("pca", "T", "T"), "U"),
        ("integration", "PCA1(clr U)", ("pca", "U", "U"), "T"),
        ("integration", "PLS1 t(clr T, clr U)", ("pls", "T", "T"), "U"),
        ("integration", "PLS1 u(clr T, clr U)", ("pls", "U", "U"), "T"),
        ("integration", "NN(T>h>U)", ("nn", "T", "U"), "T"),
        ("integration", "NN(U>h>T)", ("nn", "U", "T"), "U"),
    ]
    # Stage 1's fits, the networks widest first, each with the latents it gives.
    width = {side: x.shape[1] for side, x in clr.items()}
    fits = sorted(
        ([("nn", first, second)] for first in "TU" for second in "TU"),
        key=lambda keys: -width[keys[0][1]] - width[keys[0][2]],
    ) + [[("pca", "T", "T")], [("pca", "U", "U")], [("pls", "T", "T"), ("pls", "U", "U")]]

    def fit_latents(keys):
        """(outcome, R squared, decoding network or None) of each latent of
        one fit, or the error that ended the fit."""
        method, first, second = keys[0]
        network = None
        try:
            if method == "pca":
                got = [pca_first_component(clr[first])[0]]
            elif method == "pls":
                pls_fit = pls_first_component(clr["T"], clr["U"])
                got = [pls_fit.x_scores, pls_fit.y_scores]
            else:
                network = encoder_decoder_latent(clr[first], clr[second], nn_config)
                got = [network.encode(clr[first])]
            r2 = [_reconstruction_r2(clr[k[2]], x.scores, network) for k, x in zip(keys, got)]
            return [(Outcome.continuous(x.scores), q, network) for x, q in zip(got, r2)]
        except RatiomarkerError as exc:
            return [exc] * len(keys)

    latents = {}
    for keys, fitted in zip(fits, ordered_map(fit_latents, fits)):
        latents.update(zip(keys, fitted))

    def distill(source: str) -> dict[int, BenchmarkRow]:
        """The rows whose stand-in reads `source`, by index."""
        matrix = matrices[source]
        indices = [i for i, spec in enumerate(rows_spec) if spec[3] == source]
        live = [i for i in indices if isinstance(latents[rows_spec[i][2]], tuple)]  # fitted
        outcomes = [latents[rows_spec[i][2]][0] for i in live]
        seeds = [_row_seed(config.seed, i) for i in live]
        models = dict(zip(live, _relaxed_fits(matrix, outcomes, config, seeds, mode)))
        rows = {}
        for i in indices:
            objective, label, key, _ = rows_spec[i]
            try:
                _, original_r2, network = _unwrap(latents[key])
                model = _unwrap(models[i])
                rbb_r2 = _reconstruction_r2(clr[key[2]], predict(model, matrix), network)
                result = dict(original_r2=original_r2, active_features=model.biomarker.size,
                              rbb_r2=rbb_r2)
            except RatiomarkerError as exc:
                nan = float("nan")
                result = dict(original_r2=nan, active_features=0, rbb_r2=nan, error=str(exc))
            rows[i] = BenchmarkRow(
                objective=objective, method=key[0], latent=label, rbb_source=source,
                total_features=matrix.n_features, **result,
            )
        return rows

    table = {}
    for rows in ordered_map(distill, ("T", "U")):
        table.update(rows)
    return [table[i] for i in range(len(rows_spec))]


def benchmark_table(rows: list[BenchmarkRow]) -> str:
    """Render rows as a delimited table."""

    def r2(value: float) -> str:
        return "" if np.isnan(value) else f"{value:.4f}"

    header = "objective method latent original_r2 rbb_source rbb_vars rbb_r2 error"
    lines = [header.replace(" ", "\t")] + [
        "\t".join([
            row.objective, row.method, row.latent, r2(row.original_r2),
            row.rbb_source, row.rbb_vars, r2(row.rbb_r2), row.error,
        ])
        for row in rows
    ]
    return "\n".join(lines) + "\n"
