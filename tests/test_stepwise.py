"""Forward-stepwise balance selection.

The initialization is checked against a brute-force scan written here from
first principles: enumerate every pair, cross-validate it with the same
folds, take the best. Recovery is checked on planted two-feature signals.
"""

import numpy as np
import pytest

from conftest import cv_score_values, scorer_by_column
from ratiomarker.benchmark import synthetic_omics_pair
from ratiomarker.composition import Outcome, StrictlyPositiveMatrix, clr_transform
from ratiomarker.errors import ValidationError
from ratiomarker.latent import pca_first_component
from ratiomarker.learn import scoring, stepwise
from ratiomarker.learn.biomarker import LearnerConfig
from ratiomarker.learn.scoring import _FoldArrays
from ratiomarker.learn.stepwise import forward_stepwise_balance
from ratiomarker.simulate import (
    BiasModel,
    group_outcome,
    observe,
    planted_signal_scenario,
)


def brute_force_best_pair(matrix, outcome, config):
    """Independent exhaustive search over ordered pairs (j, k), j < k."""
    rng = np.random.default_rng(config.seed)
    folds = _FoldArrays(outcome, config.cv_folds, rng).pairs
    logs = np.log(matrix.values)
    best, best_mean = None, float("-inf")
    g = matrix.n_features
    for j in range(g - 1):
        for k in range(j + 1, g):
            mean, _, _ = cv_score_values(logs[:, j] - logs[:, k], outcome, folds)
            if mean > best_mean:
                best, best_mean = (j, k), mean
    return best, best_mean


def observed_planted(seed, n=60, g=10, effect=2.5):
    sc = planted_signal_scenario(n, g, effect=effect, seed=seed)
    bias = BiasModel.random(n, g, seed=seed + 500, noise_sd=0.2)
    obs = observe(sc, bias, seed=seed + 900)
    return sc, obs, group_outcome(sc)


class TestInitializationOracle:
    def test_matches_exhaustive_search(self):
        for seed in range(12):
            rng = np.random.default_rng(seed + 100)
            n, g = 30, 6
            vals = np.exp(rng.normal(0.0, 0.7, (n, g)))
            mat = StrictlyPositiveMatrix(
                vals,
                [f"s{i}" for i in range(n)],
                [f"f{j}" for j in range(g)],
            )
            y = np.zeros(n)
            y[n // 2:] = 1.0
            out = Outcome.binary(y)
            config = LearnerConfig(seed=seed)
            want, _ = brute_force_best_pair(mat, out, config)
            model = forward_stepwise_balance(mat, out, config)
            first = model.diagnostics["steps"][0]
            got = (first["numerator"][0], first["denominator"][0])
            assert got == want

    def test_first_step_score_matches_oracle(self):
        sc, obs, out = observed_planted(3)
        config = LearnerConfig(seed=3)
        _, want_mean = brute_force_best_pair(obs, out, config)
        model = forward_stepwise_balance(obs, out, config)
        np.testing.assert_allclose(
            model.diagnostics["steps"][0]["cv_score"], want_mean, rtol=1e-12
        )


class TestRecovery:
    def test_planted_pair_recovered(self):
        hits = 0
        for seed in range(10):
            sc, obs, out = observed_planted(seed)
            model = forward_stepwise_balance(
                obs, out, LearnerConfig(seed=seed)
            )
            planted = {sc.planted.numerator, sc.planted.denominator}
            got = {model.biomarker.numerator, model.biomarker.denominator}
            hits += (got == planted)
            # Even a miss must keep the planted features in the model.
            chosen = set(model.biomarker.numerator) | set(
                model.biomarker.denominator
            )
            assert sc.planted.numerator[0] in chosen
            assert sc.planted.denominator[0] in chosen
        assert hits >= 8

    def test_cv_score_is_high_on_planted_signal(self):
        sc, obs, out = observed_planted(21)
        model = forward_stepwise_balance(obs, out, LearnerConfig(seed=21))
        assert model.cv_score >= 0.9

    def test_coefficient_oriented_nonnegative(self):
        for seed in [5, 6]:
            sc, obs, out = observed_planted(seed)
            model = forward_stepwise_balance(obs, out, LearnerConfig(seed=seed))
            assert model.glm.beta >= 0.0


class TestStoppingRule:
    def test_trace_sizes_grow_one_at_a_time(self):
        sc, obs, out = observed_planted(9)
        model = forward_stepwise_balance(obs, out, LearnerConfig(seed=9))
        steps = model.diagnostics["steps"]
        sizes = [
            len(s["numerator"]) + len(s["denominator"]) for s in steps
        ]
        assert sizes[0] == 2
        assert all(b - a == 1 for a, b in zip(sizes, sizes[1:]))

    def test_each_accepted_step_clears_the_se_bar(self):
        sc, obs, out = observed_planted(10)
        model = forward_stepwise_balance(obs, out, LearnerConfig(seed=10))
        steps = model.diagnostics["steps"]
        for prev, nxt in zip(steps, steps[1:]):
            assert nxt["cv_score"] > prev["cv_score"] + prev["cv_se"]

    def test_lam_sets_the_stopping_bar(self):
        # A continuous outcome whose one-SE model has four features: a huge
        # lam stops at the initial pair, and no lam gives a denser model
        # than a smaller one.
        pair = synthetic_omics_pair(n_samples=100, g_t=16, g_u=10, seed=0)
        latent, _ = pca_first_component(clr_transform(pair.t))
        outcome = Outcome.continuous(latent.scores)
        sizes = [
            forward_stepwise_balance(
                pair.t, outcome, LearnerConfig(lam=lam)
            ).biomarker.size
            for lam in (0.0, 1.0, 1e9)
        ]
        assert sizes[1:] == [4, 2]
        assert sizes == sorted(sizes, reverse=True)

    def test_final_model_matches_last_trace_entry(self):
        sc, obs, out = observed_planted(11)
        model = forward_stepwise_balance(obs, out, LearnerConfig(seed=11))
        last = model.diagnostics["steps"][-1]
        got = set(model.biomarker.numerator) | set(model.biomarker.denominator)
        want = set(last["numerator"]) | set(last["denominator"])
        assert got == want
        np.testing.assert_allclose(model.cv_score, last["cv_score"])


class TestDegenerateInputs:
    def test_all_constant_ratios_raise(self):
        # Four copies of the same column: every pairwise balance is exactly
        # zero, so no pair is fittable.
        n = 12
        rows = np.exp(np.random.default_rng(0).normal(0.0, 1.0, n))
        vals = np.tile(rows[:, None], (1, 4))
        mat = StrictlyPositiveMatrix(
            vals, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(4)]
        )
        y = np.zeros(n)
        y[n // 2:] = 1.0
        with pytest.raises(ValidationError, match="no feature pair yields"):
            forward_stepwise_balance(
                mat, Outcome.binary(y), LearnerConfig(seed=0)
            )

    def test_reproducible_for_fixed_seed(self):
        sc, obs, out = observed_planted(13)
        a = forward_stepwise_balance(obs, out, LearnerConfig(seed=13))
        b = forward_stepwise_balance(obs, out, LearnerConfig(seed=13))
        assert a.biomarker == b.biomarker
        np.testing.assert_allclose(a.cv_score, b.cv_score, rtol=0)


def patch_scorer(monkeypatch, scorer):
    """Replace `score_candidates` for the whole search: growth scores through
    `scoring._score_sets`, and the 1-vs-1 initialization calls it directly."""
    monkeypatch.setattr(scoring, "score_candidates", scorer)
    monkeypatch.setattr(stepwise, "score_candidates", scorer)


class TestBatchedScoring:
    """The batched kernel must not change a single decision of the search."""

    def assert_same_model(self, monkeypatch, matrix, outcome, config):
        fast = forward_stepwise_balance(matrix, outcome, config)
        patch_scorer(monkeypatch, scorer_by_column)
        slow = forward_stepwise_balance(matrix, outcome, config)
        assert fast.biomarker == slow.biomarker
        assert fast.cv_score == slow.cv_score
        assert fast.cv_se == slow.cv_se
        assert fast.diagnostics == slow.diagnostics

    def test_planted_signal(self, monkeypatch):
        sc, obs, out = observed_planted(14)
        self.assert_same_model(monkeypatch, obs, out, LearnerConfig(seed=14))

    def test_ties_go_to_the_first_candidate(self, monkeypatch):
        # Every candidate of a scan ties, and each scan beats the last, so
        # the search must take the smallest pair, then grow the numerator
        # with the smallest free feature.
        def all_tied(z_matrix, folds):
            scans.append(z_matrix.shape[1])
            level = 0.5 + 0.01 * len(scans)
            return np.full(z_matrix.shape[1], level), np.zeros(z_matrix.shape[1])

        scans = []
        patch_scorer(monkeypatch, all_tied)
        sc, obs, out = observed_planted(16, g=5)
        model = forward_stepwise_balance(obs, out, LearnerConfig(seed=16))
        steps = model.diagnostics["steps"]
        assert [(s["numerator"], s["denominator"]) for s in steps] == [
            ([0], [1]),
            ([0, 2], [1]),
            ([0, 2, 3], [1]),
            ([0, 2, 3, 4], [1]),
        ]
        assert scans == [10, 6, 4, 2]

    def test_tied_candidates_resolve_alike(self, monkeypatch):
        # Few distinct abundance levels and few samples: many candidates
        # tie exactly, so the first-maximum rule decides the search.
        rng = np.random.default_rng(15)
        n, g = 16, 7
        vals = np.exp(rng.integers(0, 3, (n, g)).astype(float))
        mat = StrictlyPositiveMatrix(
            vals, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(g)]
        )
        y = np.zeros(n)
        y[n // 2:] = 1.0
        self.assert_same_model(
            monkeypatch, mat, Outcome.binary(y), LearnerConfig(seed=15)
        )
