"""Relaxed (soft-weight) biomarker learner.

The analytic gradient is validated against central finite differences for
both score modes and both links. The discretization sweep and the sparsity
selection rule are exercised on planted data.
"""

import numpy as np
import pytest

from ratiomarker.composition import Outcome, StrictlyPositiveMatrix
from ratiomarker.errors import ValidationError
from ratiomarker.glm import ModelSpec
from ratiomarker.learn.biomarker import LearnerConfig
from ratiomarker.learn.relaxed import (
    relaxed_gradient_learner,
    relaxed_loss_and_grad,
)
from ratiomarker.simulate import (
    BiasModel,
    group_outcome,
    observe,
    planted_signal_scenario,
)


def numeric_gradient(params, values, y, mode, link, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        plus = params.copy()
        minus = params.copy()
        plus[i] += h
        minus[i] -= h
        lp, _ = relaxed_loss_and_grad(plus, values, y, mode, link)
        lm, _ = relaxed_loss_and_grad(minus, values, y, mode, link)
        grad[i] = (lp - lm) / (2.0 * h)
    return grad


def random_problem(seed, n=15, g=6, binary=True):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.normal(0.0, 0.8, (n, g)))
    if binary:
        y = (rng.random(n) < 0.5).astype(float)
        y[0] = 0.0
        y[1] = 1.0
    else:
        y = rng.normal(0.0, 1.0, n)
    params = np.concatenate(
        [rng.normal(0.0, 0.5, g), rng.normal(0.0, 1.0, 2)]
    )
    return params, values, y


class TestGradient:
    def check(self, mode, link, binary):
        worst = 0.0
        for seed in range(10):
            params, values, y = random_problem(seed, binary=binary)
            _, grad = relaxed_loss_and_grad(params, values, y, mode, link)
            want = numeric_gradient(params, values, y, mode, link)
            scale = np.maximum(np.abs(want), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad - want) / scale)))
        assert worst < 1e-4

    def test_balance_logistic(self):
        self.check("balance", "logistic", binary=True)

    def test_balance_identity(self):
        self.check("balance", "identity", binary=False)

    def test_slr_logistic(self):
        self.check("slr", "logistic", binary=True)

    def test_slr_identity(self):
        self.check("slr", "identity", binary=False)

    def test_loss_is_finite_at_extreme_coefficients(self):
        params, values, y = random_problem(3)
        params[:6] = np.array([40.0, -40.0, 40.0, -40.0, 40.0, -40.0])
        params[6] = 30.0
        loss, grad = relaxed_loss_and_grad(
            params, values, y, "balance", "logistic"
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize(
        "mode, link", [("alr", "logistic"), ("balance", "probit")]
    )
    def test_unknown_mode_or_link_is_a_validation_error(self, mode, link):
        params, values, y = random_problem(0)
        with pytest.raises(ValidationError):
            relaxed_loss_and_grad(params, values, y, mode, link)

    def test_learner_rejects_unknown_mode_before_training(self, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(
            "ratiomarker.learn.relaxed.relaxed_loss_and_grad", untouched
        )
        _, values, y = random_problem(1)
        matrix = StrictlyPositiveMatrix(
            values,
            [f"s{i}" for i in range(len(y))],
            [f"g{j}" for j in range(values.shape[1])],
        )
        with pytest.raises(ValidationError, match="unknown mode"):
            relaxed_gradient_learner(
                matrix, Outcome.binary(y), LearnerConfig(cv_folds=2), mode="alr"
            )


def observed_planted(seed, n=100, g=20, effect=2.0):
    sc = planted_signal_scenario(n, g, effect=effect, seed=seed)
    bias = BiasModel.random(n, g, seed=seed + 300, noise_sd=0.4)
    obs = observe(sc, bias, seed=seed + 600)
    return sc, obs, group_outcome(sc)


class TestRecovery:
    def test_planted_pair_recovered(self):
        hits = 0
        for seed in range(8):
            sc, obs, out = observed_planted(seed)
            model = relaxed_gradient_learner(
                obs, out, LearnerConfig(seed=seed)
            )
            planted = {sc.planted.numerator, sc.planted.denominator}
            got = {model.biomarker.numerator, model.biomarker.denominator}
            hits += (got == planted)
        assert hits >= 6

    def test_loss_decreases(self):
        sc, obs, out = observed_planted(30)
        model = relaxed_gradient_learner(obs, out, LearnerConfig(seed=30))
        curve = model.diagnostics["loss_curve"]
        assert curve[-1] < curve[0]

    def test_reproducible_for_fixed_seed(self):
        sc, obs, out = observed_planted(31)
        a = relaxed_gradient_learner(obs, out, LearnerConfig(seed=31))
        b = relaxed_gradient_learner(obs, out, LearnerConfig(seed=31))
        assert a.biomarker == b.biomarker
        np.testing.assert_array_equal(
            a.diagnostics["loss_curve"], b.diagnostics["loss_curve"]
        )

    def test_slr_mode_also_recovers(self):
        hits = 0
        for seed in range(5):
            sc, obs, out = observed_planted(seed + 40)
            model = relaxed_gradient_learner(
                obs, out, LearnerConfig(seed=seed + 40), mode="slr"
            )
            chosen = set(model.biomarker.numerator) | set(
                model.biomarker.denominator
            )
            hits += (
                sc.planted.numerator[0] in chosen
                and sc.planted.denominator[0] in chosen
            )
        assert hits >= 4


class TestCutoffSweep:
    def test_candidate_sizes_strictly_increase(self):
        sc, obs, out = observed_planted(50)
        model = relaxed_gradient_learner(obs, out, LearnerConfig(seed=50))
        sizes = [c["size"] for c in model.diagnostics["cutoffs"]]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_selection_is_sparsest_within_lam_se(self):
        sc, obs, out = observed_planted(51)
        config = LearnerConfig(seed=51, lam=1.0)
        model = relaxed_gradient_learner(obs, out, config)
        cands = model.diagnostics["cutoffs"]
        best = max(c["cv_score"] for c in cands)
        best_se = next(
            c["cv_se"] for c in cands if c["cv_score"] == best
        )
        threshold = best - config.lam * best_se
        eligible = [c for c in cands if c["cv_score"] >= threshold]
        want = min(eligible, key=lambda c: c["size"])
        assert model.biomarker.size == want["size"]

    def test_lam_zero_takes_the_best_scorer(self):
        sc, obs, out = observed_planted(52)
        model = relaxed_gradient_learner(
            obs, out, LearnerConfig(seed=52, lam=0.0)
        )
        cands = model.diagnostics["cutoffs"]
        best = max(c["cv_score"] for c in cands)
        np.testing.assert_allclose(model.cv_score, best)

    def test_large_lam_prefers_the_sparsest_candidate(self):
        sc, obs, out = observed_planted(53)
        model = relaxed_gradient_learner(
            obs, out, LearnerConfig(seed=53, lam=100.0)
        )
        cands = model.diagnostics["cutoffs"]
        finite = [c for c in cands if np.isfinite(c["cv_score"])]
        assert model.biomarker.size == min(c["size"] for c in finite)


class TestIdentityLinkPath:
    def test_continuous_outcome_runs_and_fits(self):
        rng = np.random.default_rng(60)
        n, g = 80, 12
        sc = planted_signal_scenario(n, g, effect=2.0, seed=60)
        obs = observe(sc, BiasModel.identity(n, g))
        logs = np.log(obs.values)
        target = logs[:, 2] - logs[:, 5] + rng.normal(0.0, 0.1, n)
        out = Outcome.continuous(target)
        model = relaxed_gradient_learner(
            obs, out, LearnerConfig(seed=60), spec=ModelSpec(link="identity")
        )
        assert model.glm.link == "identity"
        assert model.cv_score > 0.5
        chosen = set(model.biomarker.numerator) | set(
            model.biomarker.denominator
        )
        assert {2, 5} <= chosen

    def test_response_scale_does_not_matter(self):
        # The same problem with the target multiplied by 1000 must select
        # the same feature sets.
        rng = np.random.default_rng(61)
        n, g = 80, 12
        sc = planted_signal_scenario(n, g, effect=2.0, seed=61)
        obs = observe(sc, BiasModel.identity(n, g))
        logs = np.log(obs.values)
        target = logs[:, 1] - logs[:, 7] + rng.normal(0.0, 0.1, n)
        a = relaxed_gradient_learner(
            obs, Outcome.continuous(target),
            LearnerConfig(seed=61), spec=ModelSpec(link="identity"),
        )
        b = relaxed_gradient_learner(
            obs, Outcome.continuous(target * 1000.0),
            LearnerConfig(seed=61), spec=ModelSpec(link="identity"),
        )
        assert a.biomarker == b.biomarker
