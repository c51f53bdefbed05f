"""Side-by-side comparison of latent pipelines and their RBB stand-ins.

For a pair of omics matrices over the same samples, each latent method is
run under two objectives. Dimension reduction: summarize matrix M by one
score and reconstruct M's clr image. Integration: keep the latent's own
reconstruction target but fit the interpretable stand-in on the OTHER
matrix. Every row reports the unrestricted latent's R squared, the RBB's R
squared, and how many features the RBB used; rows that fail are reported
with their error instead of aborting the table.
"""

from dataclasses import dataclass, replace

import numpy as np

from .composition import StrictlyPositiveMatrix, clr_transform
from .errors import RatiomarkerError
from .latent import (
    EncoderDecoderConfig,
    OmicsPair,
    approximate_latent_with_rbb,
    encoder_decoder_latent,
    least_squares_decode,
    pca_first_component,
    pls_first_component,
    variance_explained,
)
from .learn.biomarker import LearnerConfig
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


def run_benchmark(
    pair: OmicsPair,
    config: LearnerConfig | None = None,
    nn_config: EncoderDecoderConfig | None = None,
    mode: str = "balance",
) -> list[BenchmarkRow]:
    """The 12-row latent-vs-RBB comparison table.

    The rows are independent, so they run through `ordered_map`, on every
    CPU in the process's affinity mask. Each row fits its own latent and
    draws its learner seed from its index, so the rows equal those of a
    one-CPU run (`taskset -c 0` keeps the table to one core).
    """
    if config is None:
        config = LearnerConfig()
    if nn_config is None:
        nn_config = EncoderDecoderConfig()
    clr = {"T": clr_transform(pair.t), "U": clr_transform(pair.u)}
    matrices = {"T": pair.t, "U": pair.u}

    def fit_latent(method: str, first: str, second: str):
        """A row's latent score of clr `first` and the network that decodes
        it into clr `second` (None to decode by least squares). PCA and PLS
        rows reconstruct their own side, so for them `second` is `first`."""
        if method == "pca":
            return pca_first_component(clr[first])[0], None
        if method == "pls":
            pls_fit = pls_first_component(clr["T"], clr["U"])
            return (pls_fit.x_scores if first == "T" else pls_fit.y_scores), None
        network = encoder_decoder_latent(clr[first], clr[second], nn_config)
        return network.encode(clr[first]), network

    # (objective, method, latent label, latent side, target side,
    #  rbb source side); each row fits its own latent.
    rows_spec = [
        ("dimension_reduction", "pca", "PCA1(clr T)", "T", "T", "T"),
        ("dimension_reduction", "pca", "PCA1(clr U)", "U", "U", "U"),
        ("dimension_reduction", "pls", "PLS1 t(clr T, clr U)", "T", "T", "T"),
        ("dimension_reduction", "pls", "PLS1 u(clr T, clr U)", "U", "U", "U"),
        ("dimension_reduction", "nn", "NN(T>h>T)", "T", "T", "T"),
        ("dimension_reduction", "nn", "NN(U>h>U)", "U", "U", "U"),
        ("integration", "pca", "PCA1(clr T)", "T", "T", "U"),
        ("integration", "pca", "PCA1(clr U)", "U", "U", "T"),
        ("integration", "pls", "PLS1 t(clr T, clr U)", "T", "T", "U"),
        ("integration", "pls", "PLS1 u(clr T, clr U)", "U", "U", "T"),
        ("integration", "nn", "NN(T>h>U)", "T", "U", "T"),
        ("integration", "nn", "NN(U>h>T)", "U", "T", "U"),
    ]

    def evaluate(i: int) -> BenchmarkRow:
        objective, method, label, first, second, source_label = rows_spec[i]
        target = clr[second]
        try:
            latent, network = fit_latent(method, first, second)
            original_r2 = _reconstruction_r2(target, latent.scores, network)
            approx = approximate_latent_with_rbb(
                latent,
                matrices[source_label],
                replace(config, seed=_row_seed(config.seed, i)),
                mode=mode,
            )
            result = dict(
                original_r2=original_r2,
                active_features=approx.active_features,
                total_features=approx.total_features,
                rbb_r2=_reconstruction_r2(target, approx.approx_scores, network),
            )
        except RatiomarkerError as exc:
            result = dict(
                original_r2=float("nan"),
                active_features=0,
                total_features=matrices[source_label].n_features,
                rbb_r2=float("nan"),
                error=str(exc),
            )
        return BenchmarkRow(
            objective=objective,
            method=method,
            latent=label,
            rbb_source=source_label,
            **result,
        )

    return list(ordered_map(evaluate, range(len(rows_spec))))


def benchmark_table(rows: list[BenchmarkRow]) -> str:
    """Render rows as a delimited table."""
    header = [
        "objective",
        "method",
        "latent",
        "original_r2",
        "rbb_source",
        "rbb_vars",
        "rbb_r2",
        "error",
    ]
    lines = ["\t".join(header)]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    row.objective,
                    row.method,
                    row.latent,
                    "" if np.isnan(row.original_r2) else f"{row.original_r2:.4f}",
                    row.rbb_source,
                    row.rbb_vars,
                    "" if np.isnan(row.rbb_r2) else f"{row.rbb_r2:.4f}",
                    row.error,
                ]
            )
        )
    return "\n".join(lines) + "\n"
