"""Ground-truth scenarios and a multiplicative sequencing-bias model.

An instrument observes x_ij = t_ij * theta_j * C_i * eps_ij: true abundance
t, a per-feature efficiency theta, a per-sample depth factor C, and
multiplicative lognormal noise eps. Depth and efficiency wreck absolute
abundances but cancel out of within-sample ratios, which is why the same
dataset supports three distinct notions of "differential": absolute (true
abundances), relative (observed proportions), and presential
(presence/absence). The notions genuinely disagree; the report helper makes
the disagreement visible instead of hiding it.
"""

from dataclasses import dataclass, field

import numpy as np

from .composition import CompositionMatrix, Outcome, StrictlyPositiveMatrix
from .errors import ValidationError
from .learn.biomarker import RatioBiomarker


@dataclass
class BiasModel:
    """Multiplicative observation biases for one instrument run."""

    feature_bias: np.ndarray
    depth: np.ndarray
    noise_sd: float = 0.0

    def __post_init__(self):
        self.feature_bias = np.asarray(self.feature_bias, dtype=float).ravel()
        self.depth = np.asarray(self.depth, dtype=float).ravel()
        if np.any(self.feature_bias <= 0.0) or np.any(self.depth <= 0.0):
            raise ValidationError("bias factors must be strictly positive")
        if not self.noise_sd >= 0.0:
            raise ValidationError("noise_sd must be nonnegative")

    @classmethod
    def identity(cls, n_samples: int, n_features: int) -> "BiasModel":
        return cls(np.ones(n_features), np.ones(n_samples), 0.0)

    @classmethod
    def random(
        cls,
        n_samples: int,
        n_features: int,
        seed: int = 0,
        theta_sd: float = 0.5,
        depth_sd: float = 0.5,
        noise_sd: float = 0.1,
    ) -> "BiasModel":
        rng = np.random.default_rng(seed)
        return cls(
            rng.lognormal(0.0, theta_sd, n_features),
            rng.lognormal(0.0, depth_sd, n_samples),
            noise_sd,
        )


@dataclass
class GroundTruthScenario:
    """True abundances, group labels, and an optional planted signal."""

    true_abundances: np.ndarray
    group: np.ndarray
    planted: RatioBiomarker | None = None
    planted_effect: float = 0.0
    sample_ids: list[str] = field(default_factory=list)
    feature_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.true_abundances = np.asarray(self.true_abundances, dtype=float)
        if self.true_abundances.ndim != 2:
            raise ValidationError("true abundances must be a 2-d matrix")
        if np.any(self.true_abundances <= 0.0):
            raise ValidationError("true abundances must be strictly positive")
        n, g = self.true_abundances.shape
        self.group = np.asarray(self.group, dtype=int).ravel()
        if self.group.size != n:
            raise ValidationError("group labels do not match sample count")
        if not set(np.unique(self.group)) <= {0, 1}:
            raise ValidationError("group labels must be 0 or 1")
        if len(set(self.group.tolist())) != 2:
            raise ValidationError("both groups must be nonempty")
        if self.planted is not None:
            self.planted.validate_for(g)
        if not self.sample_ids:
            self.sample_ids = [f"s{i + 1}" for i in range(n)]
        if not self.feature_ids:
            self.feature_ids = [f"g{j + 1}" for j in range(g)]

    @property
    def n_samples(self) -> int:
        return self.true_abundances.shape[0]

    @property
    def n_features(self) -> int:
        return self.true_abundances.shape[1]

    def true_matrix(self) -> StrictlyPositiveMatrix:
        return StrictlyPositiveMatrix(
            self.true_abundances.copy(),
            list(self.sample_ids),
            list(self.feature_ids),
        )


def observe(
    scenario: GroundTruthScenario, bias: BiasModel, seed: int = 0
) -> StrictlyPositiveMatrix:
    """Push true abundances through the bias model.

    Deterministic given the seed. With noise_sd = 0 the output is the exact
    product t * theta * C; depth and efficiency factors cancel out of
    within-sample ratios, so ratio-based statistics of the observation match
    those of the truth up to log rounding.
    """
    if bias.feature_bias.size != scenario.n_features:
        raise ValidationError("feature bias length does not match scenario")
    if bias.depth.size != scenario.n_samples:
        raise ValidationError("depth length does not match scenario")
    observed = scenario.true_abundances * bias.feature_bias[None, :]
    observed = observed * bias.depth[:, None]
    if bias.noise_sd > 0.0:
        rng = np.random.default_rng(seed)
        observed = observed * rng.lognormal(
            0.0, bias.noise_sd, observed.shape
        )
    return StrictlyPositiveMatrix(
        observed, list(scenario.sample_ids), list(scenario.feature_ids)
    )


def group_outcome(scenario: GroundTruthScenario):
    return Outcome.binary(scenario.group.astype(float))


@dataclass
class NotionReport:
    """Signs of the between-group difference under each notion."""

    feature: str
    absolute: int
    relative: int
    presential: int


def da_notion_report(
    scenario: GroundTruthScenario,
    observed: CompositionMatrix,
    feature: str,
) -> NotionReport:
    """Compare the three differential-abundance notions for one feature.

    absolute: sign of the group difference in mean TRUE abundance.
    relative: sign of the group difference in mean OBSERVED proportion.
    presential: sign of the group difference in observed presence rate.
    """
    if observed.values.shape != scenario.true_abundances.shape:
        raise ValidationError("observed matrix does not match scenario shape")
    j = observed.feature_index(feature)
    g0 = scenario.group == 0
    g1 = scenario.group == 1
    true_col = scenario.true_abundances[:, j]
    absolute = np.sign(true_col[g1].mean() - true_col[g0].mean())
    props = observed.values / observed.values.sum(axis=1, keepdims=True)
    relative = np.sign(props[g1, j].mean() - props[g0, j].mean())
    present = (observed.values[:, j] > 0.0).astype(float)
    presential = np.sign(present[g1].mean() - present[g0].mean())
    return NotionReport(
        feature=feature,
        absolute=int(absolute),
        relative=int(relative),
        presential=int(presential),
    )


def planted_signal_scenario(
    n_samples: int,
    n_features: int,
    effect: float = 2.0,
    seed: int = 0,
    log_sd: float = 0.5,
) -> GroundTruthScenario:
    """Two balanced groups with one planted two-feature log-ratio signal.

    Log abundances are iid normal with scale `log_sd`; in group 1 a random
    numerator feature is shifted up by effect/2 on the log scale and a
    random denominator feature down by effect/2, so the planted pairwise
    log-ratio separates the groups by `effect`.
    """
    if n_samples < 4:
        raise ValidationError("need at least 4 samples")
    if n_features < 4:
        raise ValidationError("need at least 4 features")
    if not np.isfinite(effect):
        raise ValidationError("effect must be finite")
    rng = np.random.default_rng(seed)
    num, den = rng.choice(n_features, size=2, replace=False)
    log_abund = rng.normal(0.0, log_sd, (n_samples, n_features))
    group = np.zeros(n_samples, dtype=int)
    group[n_samples // 2 :] = 1
    log_abund[group == 1, num] += effect / 2.0
    log_abund[group == 1, den] -= effect / 2.0
    with np.errstate(over="ignore"):
        true_abundances = np.exp(log_abund)
    if not np.all(np.isfinite(true_abundances) & (true_abundances > 0.0)):
        raise ValidationError(
            "true abundances overflow float64; lower effect or log_sd"
        )
    return GroundTruthScenario(
        true_abundances=true_abundances,
        group=group,
        planted=RatioBiomarker((int(num),), (int(den),), "balance"),
        planted_effect=effect,
    )


def depth_confounded_scenario(n_per_group: int = 2) -> GroundTruthScenario:
    """A deterministic scenario where the notions disagree by construction.

    Group totals quadruple while the first feature only doubles: its true
    abundance goes UP, its share of the total goes DOWN, and it is present
    everywhere. The first feature is the designated one for reporting.
    """
    if n_per_group < 1:
        raise ValidationError("need at least 1 sample per group")
    row0 = np.array([100.0, 450.0, 450.0])
    row1 = np.array([200.0, 1900.0, 1900.0])
    true = np.vstack([np.tile(row0, (n_per_group, 1)), np.tile(row1, (n_per_group, 1))])
    group = np.array([0] * n_per_group + [1] * n_per_group)
    return GroundTruthScenario(
        true_abundances=true,
        group=group,
        planted=None,
        planted_effect=0.0,
        feature_ids=["a", "b", "c"],
    )
