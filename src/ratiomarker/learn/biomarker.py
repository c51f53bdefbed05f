"""Ratio-based biomarkers: index sets, score evaluation, fitted models.

A biomarker is a pair of disjoint feature sets and an aggregation mode.
"balance" scores a sample by the difference of mean log abundances of the
two sets (the log of the ratio of geometric means); "slr" scores it by the
log of the ratio of summed abundances. Both depend only on within-sample
ratios. Scores are always computed as a difference of two per-side log
aggregates, which makes swapping the sides an exact negation and makes a
1-vs-1 balance bitwise equal to the corresponding pairwise log-ratio.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import ValidationError
from ..glm import FittedGlm, fit_glm
from ..tabular import json_text

MODES = ("balance", "slr")


@dataclass(frozen=True)
class RatioBiomarker:
    """Disjoint numerator/denominator feature index sets plus a mode."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    mode: str = "balance"

    def __post_init__(self):
        num = tuple(sorted(int(i) for i in self.numerator))
        den = tuple(sorted(int(i) for i in self.denominator))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        if not num or not den:
            raise ValidationError("both index sets must be nonempty")
        if len(set(num)) != len(num) or len(set(den)) != len(den):
            raise ValidationError("index sets must not repeat features")
        overlap = set(num) & set(den)
        if overlap:
            raise ValidationError(f"features {sorted(overlap)} appear on both sides")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")

    @property
    def size(self) -> int:
        return len(self.numerator) + len(self.denominator)

    def validate_for(self, n_features: int):
        lo = min(self.numerator[0], self.denominator[0])
        hi = max(self.numerator[-1], self.denominator[-1])
        if lo < 0 or hi >= n_features:
            raise ValidationError(
                f"indices must lie in [0, {n_features - 1}]"
            )

    def swapped(self) -> "RatioBiomarker":
        return RatioBiomarker(self.denominator, self.numerator, self.mode)


def balance_from_logs(logs: np.ndarray, numerator, denominator) -> np.ndarray:
    num = np.asarray(numerator, dtype=int)
    den = np.asarray(denominator, dtype=int)
    return logs[:, num].mean(axis=1) - logs[:, den].mean(axis=1)


def slr_from_values(values: np.ndarray, numerator, denominator) -> np.ndarray:
    num = np.asarray(numerator, dtype=int)
    den = np.asarray(denominator, dtype=int)
    return np.log(values[:, num].sum(axis=1)) - np.log(
        values[:, den].sum(axis=1)
    )


def evaluate_biomarker(
    biomarker: RatioBiomarker, matrix: StrictlyPositiveMatrix
) -> np.ndarray:
    """Per-sample biomarker scores for a strictly positive matrix."""
    biomarker.validate_for(matrix.n_features)
    if biomarker.mode == "balance":
        return balance_from_logs(
            np.log(matrix.values), biomarker.numerator, biomarker.denominator
        )
    return slr_from_values(
        matrix.values, biomarker.numerator, biomarker.denominator
    )


@dataclass
class LearnerConfig:
    """Shared knobs for the biomarker learners.

    `lam` trades predictive score for sparsity; its exact meaning is
    learner-specific but lam = 1 always reproduces a one-standard-error
    style rule, and larger values never produce denser models on the same
    data and seed. `population`, `generations`, `mutation_rate`, and
    `tournament_size` only matter for the evolutionary learner;
    `epochs`/`learning_rate` only for gradient-based ones.
    """

    lam: float = 1.0
    epochs: int = 1000
    learning_rate: float = 1.0
    cv_folds: int = 5
    seed: int = 0
    population: int = 64
    generations: int = 100
    mutation_rate: float | None = None
    tournament_size: int = 3

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValidationError("lam must be nonnegative and finite")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if not self.learning_rate > 0.0:
            raise ValidationError("learning_rate must be positive")
        if self.cv_folds < 2:
            raise ValidationError("cv_folds must be at least 2")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.population < 1:
            raise ValidationError("population must be at least 1")
        if self.generations < 0:
            raise ValidationError("generations must be nonnegative")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValidationError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValidationError("tournament_size must be at least 1")


@dataclass
class LearnedModel:
    """A fitted biomarker: index sets, GLM coefficients, CV diagnostics."""

    biomarker: RatioBiomarker
    glm: FittedGlm
    feature_ids: list[str]
    cv_score: float
    cv_se: float
    training_scores: np.ndarray
    seed: int
    diagnostics: dict = field(default_factory=dict)


def predict(model: LearnedModel, matrix: StrictlyPositiveMatrix) -> np.ndarray:
    """Model response on new data (probabilities under the logistic link).

    The new matrix must carry exactly the features the model was trained
    on, in the same order.
    """
    if list(matrix.feature_ids) != list(model.feature_ids):
        raise ValidationError(
            "matrix features do not match the model's training features"
        )
    z = evaluate_biomarker(model.biomarker, matrix)
    return model.glm.predict_response(z)


def orient_and_fit(
    biomarker: RatioBiomarker,
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    cv_score: float,
    cv_se: float,
    seed: int,
    diagnostics: dict,
) -> LearnedModel:
    """The learned model of `biomarker`: a full-data fit with the sign
    convention beta >= 0, and the search's CV statistics, seed and
    diagnostics.

    If the fitted coefficient is negative the sides are swapped and the
    model refitted, so reported numerator features always push the score
    up together with the outcome.
    """
    z = evaluate_biomarker(biomarker, matrix)
    fit = fit_glm(z, outcome)
    if fit.beta < 0.0:
        biomarker = biomarker.swapped()
        z = evaluate_biomarker(biomarker, matrix)
        fit = fit_glm(z, outcome)
    return LearnedModel(
        biomarker, fit, list(matrix.feature_ids), cv_score, cv_se,
        fit.predict_response(z), seed, diagnostics,
    )


def side_features(model: LearnedModel) -> dict:
    """The ids of the model's numerator and denominator features."""
    ids = model.feature_ids
    return {
        "numerator_features": [ids[i] for i in model.biomarker.numerator],
        "denominator_features": [ids[i] for i in model.biomarker.denominator],
    }


def serialize_model(model: LearnedModel) -> str:
    """Deterministic JSON text sufficient to re-evaluate the model.

    Floats round-trip through repr, so a loaded model predicts
    bit-identically to the one that was saved. The text is strict JSON: a
    non-finite se, p-value or CV statistic is written as null.
    """
    glm = model.glm
    payload = {
        "format": "ratiomarker-model",
        "version": 1,
        "mode": model.biomarker.mode,
        "numerator_indices": list(model.biomarker.numerator),
        "denominator_indices": list(model.biomarker.denominator),
        **side_features(model),
        "feature_ids": list(model.feature_ids),
        "link": glm.link,
        "beta": glm.beta,
        "beta0": glm.beta0,
        "se": glm.se,
        "p_value": glm.p_value,
        "converged": glm.converged,
        "cv_score": model.cv_score,
        "cv_se": model.cv_se,
        "seed": model.seed,
    }
    return json_text(payload)


def load_model(text: str) -> LearnedModel:
    """Read a model written by `serialize_model`; a null statistic is NaN.

    Text that is not such a model raises ValidationError naming the problem.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"model is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != "ratiomarker-model":
        raise ValidationError("not a serialized biomarker model")

    def field(key, kind, item=object):
        value = data.get(key)
        if key not in data or not isinstance(value, kind) or (
            isinstance(value, list) and not all(isinstance(v, item) for v in value)
        ):
            raise ValidationError(f"model field {key!r} is missing or ill-typed")
        return value

    def float_or_nan(key):
        value = field(key, (int, float, type(None)))
        return float("nan") if value is None else float(value)

    biomarker = RatioBiomarker(
        tuple(field("numerator_indices", list, int)),
        tuple(field("denominator_indices", list, int)),
        field("mode", str),
    )
    glm = FittedGlm(
        beta=float(field("beta", (int, float))),
        beta0=float(field("beta0", (int, float))),
        se=float_or_nan("se"),
        p_value=float_or_nan("p_value"),
        converged=field("converged", bool),
        n_iter=0,
        link=field("link", str),
    )
    if glm.link not in ("logistic", "identity"):
        raise ValidationError("model field 'link' is missing or ill-typed")
    return LearnedModel(
        biomarker=biomarker,
        glm=glm,
        feature_ids=list(field("feature_ids", list, str)),
        cv_score=float_or_nan("cv_score"),
        cv_se=float_or_nan("cv_se"),
        training_scores=np.array([]),
        seed=field("seed", int),
        diagnostics={},
    )
