"""Evolutionary search over summed-log-ratio biomarkers.

A chromosome assigns each feature to the numerator (+1), the denominator
(-1), or neither (0). Fitness is the cross-validated score of the SLR minus
lam * (active features / G), so sparser chromosomes win ties. Selection is
tournament (size 3 by default) with single-elite carryover, uniform
crossover, and per-gene mutation at rate 1/G. Chromosomes with an empty
side are never evaluated; they get the worst possible fitness.
"""

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..glm import ModelSpec
from .biomarker import (
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    orient_and_fit,
    slr_from_values,
)
from .scoring import _learner_setup, make_folds, score_candidates

_GENES = np.array([0, 1, -1], dtype=np.int8)


def evolutionary_slr(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
    spec: ModelSpec | None = None,
) -> LearnedModel:
    config, spec = _learner_setup(matrix, outcome, config, spec)
    g = matrix.n_features
    values = matrix.values
    rng = np.random.default_rng(config.seed)
    folds = make_folds(outcome, config.cv_folds, rng)
    mutation_rate = (
        config.mutation_rate if config.mutation_rate is not None else 1.0 / g
    )

    # Chromosome bytes -> (penalized fitness, CV mean, CV SE).
    cache: dict[bytes, tuple[float, float, float]] = {}
    worst = (float("-inf"), float("-inf"), 0.0)

    def fitness(chroms) -> np.ndarray:
        """Penalized fitness of each chromosome.

        The uncached ones are scored together in one batch, each distinct
        chromosome once, in order of first appearance.
        """
        todo = {}
        for chrom in chroms:
            key = chrom.tobytes()
            if key in cache or key in todo:
                continue
            num = np.flatnonzero(chrom == 1)
            den = np.flatnonzero(chrom == -1)
            if num.size == 0 or den.size == 0:
                cache[key] = worst
            else:
                todo[key] = (num, den)
        if todo:
            z = np.column_stack(
                [slr_from_values(values, num, den) for num, den in todo.values()]
            )
            means, ses = score_candidates(z, outcome, spec, folds)
            for (key, (num, den)), mean, se in zip(todo.items(), means, ses):
                if mean == float("-inf"):
                    cache[key] = worst
                else:
                    penalty = config.lam * (num.size + den.size) / g
                    cache[key] = (float(mean) - penalty, float(mean), float(se))
        return np.array([cache[chrom.tobytes()][0] for chrom in chroms])

    population = rng.choice(
        _GENES, size=(config.population, g), p=[0.6, 0.2, 0.2]
    ).astype(np.int8)
    fits = fitness(population)
    best_curve = [float(fits.max())]

    def tournament() -> np.ndarray:
        idx = rng.integers(0, config.population, config.tournament_size)
        return population[idx[np.argmax(fits[idx])]]

    for _ in range(config.generations):
        new_pop = [population[int(np.argmax(fits))].copy()]  # elite
        while len(new_pop) < config.population:
            parent_a = tournament()
            parent_b = tournament()
            mask = rng.random(g) < 0.5
            child = np.where(mask, parent_a, parent_b).astype(np.int8)
            mut = rng.random(g) < mutation_rate
            n_mut = int(mut.sum())
            if n_mut:
                child[mut] = _GENES[rng.integers(0, 3, n_mut)]
            new_pop.append(child)
        population = np.array(new_pop, dtype=np.int8)
        fits = fitness(population)
        best_curve.append(float(fits.max()))

    best = population[int(np.argmax(fits))].copy()
    # A degenerate winner can only happen with a tiny population and no
    # working chromosome; repair it so the returned model is a real ratio.
    repaired = False
    for side, gene in (("num", 1), ("den", -1)):
        if not np.any(best == gene):
            free = np.flatnonzero(best == 0)
            pick = (
                int(free[rng.integers(0, free.size)])
                if free.size
                else int(rng.integers(0, g))
            )
            best[pick] = gene
            repaired = True
    fitness([best])
    _, cv_mean, cv_se = cache[best.tobytes()]

    biomarker = RatioBiomarker(
        tuple(np.flatnonzero(best == 1).tolist()),
        tuple(np.flatnonzero(best == -1).tolist()),
        "slr",
    )
    biomarker, fit, fitted = orient_and_fit(biomarker, matrix, outcome, spec)
    return LearnedModel(
        biomarker=biomarker,
        glm=fit,
        feature_ids=list(matrix.feature_ids),
        cv_score=cv_mean,
        cv_se=cv_se,
        training_scores=fitted,
        seed=config.seed,
        diagnostics={
            "learner": "evolutionary",
            "best_fitness_curve": best_curve,
            "evaluations": len(cache),
            "repaired": repaired,
        },
    )
