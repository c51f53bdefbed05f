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
    strength: float = 1.0,
    noise_sd: float = 0.3,
) -> OmicsPair:
    """Two matrices sharing one latent factor through sparse log loadings.

    A standard-normal factor drives a block of features up and an equally
    sized block down (about an eighth of the features per side) in each
    matrix, with iid lognormal noise on top. The shared factor gives rank-1
    cross-covariance, so PLS and cross-matrix networks have a real target.
    """
    rng = np.random.default_rng(seed)
    shared = rng.normal(0.0, 1.0, n_samples)

    def block(g: int, prefix: str) -> StrictlyPositiveMatrix:
        per_side = max(2, g // 8)
        loading = np.zeros(g)
        order = rng.permutation(g)
        loading[order[:per_side]] = strength
        loading[order[per_side : 2 * per_side]] = -strength
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
    """The 12-row latent-vs-RBB comparison table."""
    if config is None:
        config = LearnerConfig()
    if nn_config is None:
        nn_config = EncoderDecoderConfig()
    clr = {"T": clr_transform(pair.t), "U": clr_transform(pair.u)}
    matrices = {"T": pair.t, "U": pair.u}

    cache: dict[str, object] = {}

    def pca(label: str):
        key = f"pca:{label}"
        if key not in cache:
            cache[key] = pca_first_component(clr[label], source=label)
        return cache[key]

    def pls():
        if "pls" not in cache:
            cache["pls"] = pls_first_component(
                clr["T"], clr["U"], source="T,U"
            )
        return cache["pls"]

    def cross_network(src: str, dst: str):
        key = f"nn:{src}:{dst}"
        if key not in cache:
            cache[key] = encoder_decoder_latent(
                clr[src], clr[dst], nn_config, source=src
            )
        return cache[key]

    def pca_latent(label):
        return lambda: pca(label)[0]

    def pls_latent(side):
        return lambda: pls().x_scores if side == "T" else pls().y_scores

    def nn_latent(src, dst):
        return lambda: cross_network(src, dst).encode(clr[src])

    def nn_decoder(src, dst):
        return lambda: cross_network(src, dst)

    # (objective, method, latent label, latent getter, target label,
    #  rbb source label, decoder)
    rows_spec = [
        ("dimension_reduction", "pca", "PCA1(clr T)", pca_latent("T"), "T", "T", None),
        ("dimension_reduction", "pca", "PCA1(clr U)", pca_latent("U"), "U", "U", None),
        ("dimension_reduction", "pls", "PLS1 t(clr T, clr U)", pls_latent("T"), "T", "T", None),
        ("dimension_reduction", "pls", "PLS1 u(clr T, clr U)", pls_latent("U"), "U", "U", None),
        ("dimension_reduction", "nn", "NN(T>h>T)", nn_latent("T", "T"), "T", "T", nn_decoder("T", "T")),
        ("dimension_reduction", "nn", "NN(U>h>U)", nn_latent("U", "U"), "U", "U", nn_decoder("U", "U")),
        ("integration", "pca", "PCA1(clr T)", pca_latent("T"), "T", "U", None),
        ("integration", "pca", "PCA1(clr U)", pca_latent("U"), "U", "T", None),
        ("integration", "pls", "PLS1 t(clr T, clr U)", pls_latent("T"), "T", "U", None),
        ("integration", "pls", "PLS1 u(clr T, clr U)", pls_latent("U"), "U", "T", None),
        ("integration", "nn", "NN(T>h>U)", nn_latent("T", "U"), "U", "T", nn_decoder("T", "U")),
        ("integration", "nn", "NN(U>h>T)", nn_latent("U", "T"), "T", "U", nn_decoder("U", "T")),
    ]

    rows = []
    for i, (objective, method, label, latent_getter, target_label, source_label, decoder_getter) in enumerate(rows_spec):
        target = clr[target_label]
        try:
            latent = latent_getter()
            network = None if decoder_getter is None else decoder_getter()
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
        rows.append(
            BenchmarkRow(
                objective=objective,
                method=method,
                latent=label,
                rbb_source=source_label,
                **result,
            )
        )
    return rows


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
