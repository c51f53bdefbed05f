"""Evolutionary search over summed-log-ratio biomarkers.

A chromosome assigns each feature to the numerator (+1), the denominator
(-1), or neither (0). Fitness is the cross-validated score of the SLR minus
lam * (active features / G), so sparser chromosomes win ties. Selection is
tournament (size 3 by default) with single-elite carryover, uniform
crossover, and per-gene mutation at rate 1/G. Chromosomes with an empty
side are never evaluated; they get the worst possible fitness.

The draw order is a contract, since it fixes the search a seed gives. A
generation of P chromosomes makes three generator calls, in this order:
`integers(0, P, (P - 1, 2, t))` (both tournaments of every child),
`random((P - 1, 2G))` (each child's crossover uniforms, then its mutation
uniforms) and, when n > 0 genes mutate, `integers(0, 3, n)` (the new genes,
in the row-major order of the mutation mask). Versions that drew child by
child give a different search for the same seed.
"""

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from .biomarker import LearnedModel, LearnerConfig, RatioBiomarker, orient_and_fit
from .scoring import _FoldArrays, _learner_setup, _score_sets

_GENES = np.array([0, 1, -1], dtype=np.int8)


def evolutionary_slr(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
) -> LearnedModel:
    config = _learner_setup(matrix, outcome, config)
    g = matrix.n_features
    values = matrix.values
    rng = np.random.default_rng(config.seed)
    folds = _FoldArrays(outcome, config.cv_folds, rng)
    rate = 1.0 / g if config.mutation_rate is None else config.mutation_rate

    # Chromosome bytes -> (penalized fitness, CV mean, CV SE).
    cache: dict[bytes, tuple[float, float, float]] = {}

    def fitness(chroms) -> np.ndarray:
        """Penalized fitness of each chromosome. The uncached ones are
        scored in one batch, each distinct one once, in order of first
        appearance."""
        todo = {}
        for chrom in chroms:
            key = chrom.tobytes()
            if key not in cache:
                todo.setdefault(key, chrom)
        if todo:
            genes = np.array(list(todo.values()))
            num, den = genes == 1, genes == -1
            usable = num.any(axis=1) & den.any(axis=1)
            # An unusable candidate scores -inf with SE 0, as does one with
            # an empty side, which is never scored.
            means, ses = np.full(len(genes), float("-inf")), np.zeros(len(genes))
            if usable.any():
                means[usable], ses[usable] = _score_sets(
                    values, "slr", num[usable].T, den[usable].T, folds
                )
            sizes = np.count_nonzero(genes, axis=1).tolist()
            for key, mean, se, size in zip(todo, means.tolist(), ses.tolist(), sizes):
                cache[key] = (mean - config.lam * size / g, mean, se)
        return np.array([cache[chrom.tobytes()][0] for chrom in chroms])

    population = rng.choice(_GENES, size=(config.population, g), p=[0.6, 0.2, 0.2])
    fits = fitness(population)
    best_curve = [float(fits.max())]
    for _ in range(config.generations):
        population = _next_generation(population, fits, rng, config.tournament_size, rate)
        fits = fitness(population)
        best_curve.append(float(fits.max()))

    best = population[int(np.argmax(fits))].copy()
    # A degenerate winner can only happen with a tiny population and no
    # working chromosome; repair it so the returned model is a real ratio.
    repaired = False
    for gene in (1, -1):
        if not np.any(best == gene):
            free = np.flatnonzero(best == 0)
            pick = free[rng.integers(0, free.size)] if free.size else rng.integers(0, g)
            best[pick] = gene
            repaired = True
    fitness([best])
    _, cv_mean, cv_se = cache[best.tobytes()]

    biomarker = RatioBiomarker(
        tuple(np.flatnonzero(best == 1).tolist()),
        tuple(np.flatnonzero(best == -1).tolist()),
        "slr",
    )
    return orient_and_fit(
        biomarker, matrix, outcome, cv_mean, cv_se, config.seed,
        {
            "learner": "evolutionary",
            "best_fitness_curve": best_curve,
            "evaluations": len(cache),
            "repaired": repaired,
        },
    )


def _next_generation(population, fits, rng, tournament_size, mutation_rate):
    """The elite, then population - 1 children, each bred from the winners
    of two tournaments (the first of the fittest, as `np.argmax` picks it)
    by uniform crossover and per-gene mutation."""
    size, g = population.shape
    picks = rng.integers(0, size, (size - 1, 2, tournament_size))
    uniforms = rng.random((size - 1, 2 * g))
    won = np.argmax(fits[picks], axis=-1)[..., None]
    parents = population[np.take_along_axis(picks, won, axis=-1)[..., 0]]
    children = np.where(uniforms[:, :g] < 0.5, parents[:, 0], parents[:, 1])
    mutated = uniforms[:, g:] < mutation_rate
    if mutated.any():
        children[mutated] = _GENES[rng.integers(0, 3, np.count_nonzero(mutated))]
    return np.concatenate([population[None, np.argmax(fits)], children])
