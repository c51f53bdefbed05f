"""Evolutionary search over summed-log-ratio biomarkers."""

import numpy as np
import pytest

from conftest import reference_next_generation, scorer_by_column
from ratiomarker.composition import Outcome, StrictlyPositiveMatrix
from ratiomarker.learn import scoring
from ratiomarker.learn.biomarker import LearnerConfig
from ratiomarker.learn.evolutionary import _next_generation, evolutionary_slr
from ratiomarker.simulate import (
    BiasModel,
    group_outcome,
    observe,
    planted_signal_scenario,
)


def observed_planted(seed, n=80, g=15, effect=2.5):
    sc = planted_signal_scenario(n, g, effect=effect, seed=seed)
    bias = BiasModel.random(n, g, seed=seed + 700, noise_sd=0.2)
    obs = observe(sc, bias, seed=seed + 1400)
    return sc, obs, group_outcome(sc)


def small_config(seed):
    return LearnerConfig(seed=seed, population=30, generations=25)


class TestSearch:
    def test_planted_features_contained(self):
        hits = 0
        for seed in range(6):
            sc, obs, out = observed_planted(seed)
            model = evolutionary_slr(obs, out, small_config(seed))
            chosen = set(model.biomarker.numerator) | set(
                model.biomarker.denominator
            )
            hits += (
                sc.planted.numerator[0] in chosen
                and sc.planted.denominator[0] in chosen
            )
        assert hits >= 5

    def test_cv_score_is_high(self):
        sc, obs, out = observed_planted(10)
        model = evolutionary_slr(obs, out, small_config(10))
        assert model.cv_score >= 0.9

    def test_best_fitness_never_decreases(self):
        # Single-elite carryover makes the best-so-far curve monotone.
        sc, obs, out = observed_planted(11)
        model = evolutionary_slr(obs, out, small_config(11))
        curve = model.diagnostics["best_fitness_curve"]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_reproducible_for_fixed_seed(self):
        sc, obs, out = observed_planted(12)
        a = evolutionary_slr(obs, out, small_config(12))
        b = evolutionary_slr(obs, out, small_config(12))
        assert a.biomarker == b.biomarker
        np.testing.assert_array_equal(
            a.diagnostics["best_fitness_curve"],
            b.diagnostics["best_fitness_curve"],
        )

    def test_final_model_has_both_sides(self):
        for seed in range(4):
            sc, obs, out = observed_planted(seed + 20)
            model = evolutionary_slr(obs, out, small_config(seed + 20))
            assert len(model.biomarker.numerator) >= 1
            assert len(model.biomarker.denominator) >= 1
            assert model.glm.beta >= 0.0

    def test_cache_bounds_evaluations(self):
        sc, obs, out = observed_planted(13)
        config = small_config(13)
        model = evolutionary_slr(obs, out, config)
        # Distinct chromosomes evaluated can never exceed the number of
        # fitness lookups performed.
        assert model.diagnostics["evaluations"] <= (
            config.population * (config.generations + 1)
        )


class TestSparsityPressure:
    def test_larger_lam_gives_smaller_models(self):
        sizes = {}
        for lam in [0.0, 4.0]:
            total = 0
            for seed in range(3):
                sc, obs, out = observed_planted(seed + 30)
                config = LearnerConfig(
                    seed=seed + 30, population=30, generations=25, lam=lam
                )
                model = evolutionary_slr(obs, out, config)
                total += model.biomarker.size
            sizes[lam] = total
        assert sizes[4.0] <= sizes[0.0]


def assert_same_model(monkeypatch, target, reference, matrix, outcome, config):
    """The learner gives the same model with `target` (a dotted name)
    replaced by its slow reference."""
    fast = evolutionary_slr(matrix, outcome, config)
    monkeypatch.setattr(target, reference)
    slow = evolutionary_slr(matrix, outcome, config)
    assert fast.biomarker == slow.biomarker
    assert fast.cv_score == slow.cv_score
    assert fast.cv_se == slow.cv_se
    assert fast.diagnostics == slow.diagnostics


class TestBatchedScoring:
    """Scoring a generation at once must keep the search and its cache."""

    def assert_same_model(self, monkeypatch, matrix, outcome, config):
        assert_same_model(
            monkeypatch,
            "ratiomarker.learn.scoring.score_candidates",
            scorer_by_column,
            matrix,
            outcome,
            config,
        )

    def test_planted_signal(self, monkeypatch):
        sc, obs, out = observed_planted(14)
        self.assert_same_model(monkeypatch, obs, out, small_config(14))

    def test_each_distinct_chromosome_is_scored_once(self, monkeypatch):
        def recording(z_matrix, folds):
            columns.extend(col.tobytes() for col in z_matrix.T)
            return scorer_by_column(z_matrix, folds)

        columns = []
        monkeypatch.setattr(scoring, "score_candidates", recording)
        sc, obs, out = observed_planted(17)
        model = evolutionary_slr(obs, out, small_config(17))
        assert len(set(columns)) == len(columns)
        # Chromosomes with an empty side are cached without being scored.
        assert len(columns) <= model.diagnostics["evaluations"]

    def test_ties_and_degenerate_chromosomes(self, monkeypatch):
        # Four features make chromosomes with an empty side common, and
        # few abundance levels make exact fitness ties common.
        rng = np.random.default_rng(16)
        n, g = 16, 4
        vals = np.exp(rng.integers(0, 3, (n, g)).astype(float))
        mat = StrictlyPositiveMatrix(
            vals, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(g)]
        )
        y = np.zeros(n)
        y[n // 2:] = 1.0
        self.assert_same_model(
            monkeypatch,
            mat,
            Outcome.binary(y),
            LearnerConfig(seed=16, population=12, generations=10),
        )


@pytest.mark.parametrize("population", [1, 2, 12, 40])
@pytest.mark.parametrize("tournament_size", [1, 3, 5])
@pytest.mark.parametrize(
    "mutation_rate", [0.0, None, 0.5], ids=["no_mutation", "1_over_G", "half"]
)
class TestBulkBreeding:
    """Breeding a generation at once must make the contract's three draws
    and breed from them exactly as one child at a time does."""

    def test_model_equals_the_one_child_reference(
        self, monkeypatch, population, tournament_size, mutation_rate
    ):
        sc, obs, out = observed_planted(40, n=40, g=8)
        config = LearnerConfig(
            seed=40,
            population=population,
            generations=5,
            tournament_size=tournament_size,
            mutation_rate=mutation_rate,
        )
        assert_same_model(
            monkeypatch,
            "ratiomarker.learn.evolutionary._next_generation",
            reference_next_generation,
            obs,
            out,
            config,
        )

    def test_generation_and_generator_state_equal_the_reference(
        self, population, tournament_size, mutation_rate
    ):
        g = 9
        rate = 1.0 / g if mutation_rate is None else mutation_rate
        setup = np.random.default_rng(population * 100 + tournament_size)
        pop = setup.integers(-1, 2, (population, g)).astype(np.int8)
        # Few fitness levels, -inf among them, make tournament ties common.
        fits = setup.choice([-np.inf, 0.5, 0.75, 0.75, 1.0], population)
        fast_rng = np.random.default_rng(3)
        slow_rng = np.random.default_rng(3)
        for _ in range(3):
            got = _next_generation(pop, fits, fast_rng, tournament_size, rate)
            want = reference_next_generation(pop, fits, slow_rng, tournament_size, rate)
            assert got.dtype == want.dtype == np.int8
            np.testing.assert_array_equal(got, want)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
            pop = got


class CountingGenerator:
    """A generator proxy that records the name of every method called."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("population", [1, 2, 12, 40])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.1, 1.0])
class TestDrawOrder:
    """A generation draws its randomness in the contract's three calls."""

    def generation(self, population, seed):
        g = 11
        setup = np.random.default_rng(seed)
        pop = setup.integers(-1, 2, (population, g)).astype(np.int8)
        fits = setup.choice([-np.inf, 0.25, 0.5, 0.5], population)
        return pop, fits

    def test_generator_state_follows_the_three_calls(self, population, mutation_rate):
        t = 3
        pop, fits = self.generation(population, population)
        g = pop.shape[1]
        rng = np.random.default_rng(8)
        copy = np.random.default_rng(8)
        for _ in range(4):
            pop = _next_generation(pop, fits, rng, t, mutation_rate)
            copy.integers(0, population, (population - 1, 2, t))
            uniforms = copy.random((population - 1, 2 * g))
            n = np.count_nonzero(uniforms[:, g:] < mutation_rate)
            if n:
                copy.integers(0, 3, n)
            assert rng.bit_generator.state == copy.bit_generator.state

    def test_a_generation_makes_at_most_three_calls(self, population, mutation_rate):
        pop, fits = self.generation(population, population + 50)
        rng = CountingGenerator(np.random.default_rng(9))
        for _ in range(4):
            rng.calls.clear()
            pop = _next_generation(pop, fits, rng, 3, mutation_rate)
            assert len(rng.calls) <= 3
            assert rng.calls[:2] == ["integers", "random"]
