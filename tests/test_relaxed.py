"""Relaxed (soft-weight) biomarker learner.

The analytic gradient is validated against central finite differences for
both score modes and both links. The discretization sweep and the sparsity
selection rule are exercised on planted data. The in-place training loop
must train the bits of the allocating loop it replaced
(`conftest.allocating_relaxed_training`), at epoch counts on both sides of
its loss block.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    allocating_relaxed_loss_and_grad,
    allocating_relaxed_training,
    column_by_column,
    reference_cutoff_sets,
    reference_relaxed_loss_and_grad,
    reference_relaxed_training,
)
from ratiomarker.benchmark import synthetic_omics_pair
from ratiomarker.composition import Outcome, StrictlyPositiveMatrix, clr_transform
from ratiomarker.errors import DegenerateDesign, ValidationError
from ratiomarker.learn import relaxed, scoring
from ratiomarker.learn.biomarker import LearnedModel, LearnerConfig, serialize_model
from ratiomarker.latent import pca_first_component
from ratiomarker.learn.relaxed import (
    _cutoff_sets,
    _relaxed_fits,
    _train,
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

        monkeypatch.setattr("ratiomarker.learn.relaxed._step", untouched)
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

    def test_infinite_lam_is_rejected(self):
        # A best cutoff with cv_se 0 would give the threshold 1 - inf * 0,
        # NaN, which no cutoff meets.
        with pytest.raises(ValidationError, match="finite"):
            LearnerConfig(lam=float("inf"))

    def test_large_lam_prefers_the_sparsest_candidate(self):
        sc, obs, out = observed_planted(53)
        model = relaxed_gradient_learner(
            obs, out, LearnerConfig(seed=53, lam=100.0)
        )
        cands = model.diagnostics["cutoffs"]
        finite = [c for c in cands if np.isfinite(c["cv_score"])]
        assert model.biomarker.size == min(c["size"] for c in finite)


# Coefficients the sweep sees: exact zeros of either sign, saturated ones
# (exp(800) overflows, so expit(-800) is 0) and a small pool, so that
# distances tie.
COEFFICIENTS = st.one_of(
    st.floats(-1000.0, 1000.0),
    st.sampled_from([0.0, -0.0, 800.0, -800.0, 710.0, -710.0, 40.0, 0.01, -0.01, 1e-300]),
)


class TestCutoffSets:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        hnp.arrays(float, st.integers(1, 12), elements=COEFFICIENTS),
        st.sampled_from([0, 0, 1, -1]),
    )
    @example(np.array([0.0, 0.0, 0.5, -0.5]), 0)
    @example(np.array([800.0, -800.0, 800.0, -800.0, 0.0]), 0)
    @example(np.array([0.3, 0.3, 0.2, 0.1]), 1)
    # Tied distances on both sides, zeros and saturated sides at once.
    @example(np.array([-710.0, 0.0, 800.0, -0.0, -800.0, 0.5, -0.5, 0.5, 1e-300]), 0)
    def test_equals_the_hard_sets_rule(self, a, side):
        # `side` = +1 or -1 puts every coefficient on one side.
        if side:
            a = side * np.abs(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cutoff_sets(a)
        assert got == reference_cutoff_sets(a)
        sizes = [len(num) + len(den) for _, num, den in got]
        assert sizes == sorted(set(sizes))


class TestIdentityLinkPath:
    def test_continuous_outcome_runs_and_fits(self):
        rng = np.random.default_rng(60)
        n, g = 80, 12
        sc = planted_signal_scenario(n, g, effect=2.0, seed=60)
        obs = observe(sc, BiasModel.identity(n, g))
        logs = np.log(obs.values)
        target = logs[:, 2] - logs[:, 5] + rng.normal(0.0, 0.1, n)
        out = Outcome.continuous(target)
        model = relaxed_gradient_learner(obs, out, LearnerConfig(seed=60))
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
            obs, Outcome.continuous(target), LearnerConfig(seed=61)
        )
        b = relaxed_gradient_learner(
            obs, Outcome.continuous(target * 1000.0), LearnerConfig(seed=61)
        )
        assert a.biomarker == b.biomarker


class TestBatchedScoring:
    """Scoring the whole cutoff sweep in one call must keep the sweep."""

    def assert_same_model(self, monkeypatch, matrix, outcome, config):
        fast = relaxed_gradient_learner(matrix, outcome, config)
        monkeypatch.setattr(scoring, "score_candidates", column_by_column)
        slow = relaxed_gradient_learner(matrix, outcome, config)
        assert len(fast.diagnostics["cutoffs"]) > 1
        assert fast.biomarker == slow.biomarker
        assert fast.cv_score == slow.cv_score
        assert fast.cv_se == slow.cv_se
        assert fast.diagnostics == slow.diagnostics

    def test_binary_outcome(self, monkeypatch):
        sc, obs, out = observed_planted(70)
        self.assert_same_model(monkeypatch, obs, out, LearnerConfig(seed=70))

    def test_continuous_outcome(self, monkeypatch):
        rng = np.random.default_rng(71)
        n, g = 80, 12
        sc = planted_signal_scenario(n, g, effect=2.0, seed=71)
        obs = observe(sc, BiasModel.identity(n, g))
        logs = np.log(obs.values)
        target = logs[:, 3] - logs[:, 8] + rng.normal(0.0, 0.3, n)
        self.assert_same_model(
            monkeypatch, obs, Outcome.continuous(target), LearnerConfig(seed=71)
        )


MODE_LINKS = [
    ("balance", "logistic"),
    ("balance", "identity"),
    ("slr", "logistic"),
    ("slr", "identity"),
]


class TestFusedStep:
    """The step equals the reference's, for one fit and for each row of a
    batch, to rounding: 1e-12 of the largest gradient entry."""

    @pytest.mark.parametrize("mode, link", MODE_LINKS)
    @pytest.mark.parametrize("n, g", [(15, 6), (200, 50)])
    def test_equals_the_reference(self, mode, link, n, g):
        rng = np.random.default_rng(n + g)
        values = np.exp(rng.normal(0.0, 0.8, (n, g)))
        batch = np.concatenate(
            [rng.normal(0.0, 0.5, (4, g)), rng.normal(0.0, 1.0, (4, 2))], axis=1
        )
        if link == "logistic":
            ys = (rng.random((4, n)) < 0.5).astype(float)
        else:
            ys = rng.normal(0.0, 1.0, (4, n))
        losses, grads = relaxed_loss_and_grad(batch, values, ys, mode, link)
        assert losses.shape == (4,)
        assert grads.shape == batch.shape
        for params, y, batch_loss, batch_grad in zip(batch, ys, losses, grads):
            want_loss, want = reference_relaxed_loss_and_grad(
                params, values, y, mode, link
            )
            loss, grad = relaxed_loss_and_grad(params, values, y, mode, link)
            assert isinstance(loss, float)
            for got_loss, got in ((loss, grad), (batch_loss, batch_grad)):
                assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=1e-12 * np.abs(want).max()
                )


def training_problem(link, fits=3, seed=90):
    """A 100 x 20 matrix with one latent factor, `fits` near-zero starts and
    targets: standardized noisy copies of the factor's clr PCA score, or
    their signs. Training on it is stable: a start moved by one part in
    1e15 moves the trained coefficients by under 1e-13. (On planted pairs,
    summed log-ratio training is not: the same nudge moves them by up to
    0.5, so batch and solo fits could only be compared to that.)"""
    matrix = synthetic_omics_pair(n_samples=100, g_t=20, g_u=8, seed=seed).t
    score = pca_first_component(clr_transform(matrix))[0].scores
    rng = np.random.default_rng(seed)
    noisy = score + rng.normal(0.0, 0.5 * score.std(), (fits, score.size))
    g = matrix.n_features
    starts = np.zeros((fits, g + 2))
    starts[:, :g] = rng.normal(0.0, 0.01, (fits, g))
    if link == "logistic":
        ys = (noisy > 0.0).astype(float)
        starts[:, g + 1] = np.log(ys.mean(axis=1) / (1.0 - ys.mean(axis=1)))
    else:
        ys = (noisy - noisy.mean(axis=1, keepdims=True)) / noisy.std(axis=1, keepdims=True)
    return matrix, starts, ys


class TestBatchedTraining:
    @pytest.mark.parametrize("mode, link", MODE_LINKS)
    def test_rows_equal_their_solo_fits(self, mode, link):
        # After 1,000 steps a batch row, a lone fit and the reference loop
        # agree to 1e-10 in every coefficient (measured: under 1e-13).
        matrix, starts, ys = training_problem(link)
        config = LearnerConfig()
        batch = starts.copy()
        curves = _train(batch, matrix.values, ys, mode, link, config)
        assert curves.shape == (config.epochs, len(starts))
        for i, (start, y) in enumerate(zip(starts, ys)):
            want, want_curve = reference_relaxed_training(
                start, matrix.values, y, mode, link, config.epochs, config.learning_rate
            )
            solo = start.copy()
            solo_curve = _train(solo, matrix.values, y, mode, link, config)
            for got, got_curve in ((batch[i], curves[:, i]), (solo, solo_curve)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
                np.testing.assert_allclose(got_curve, want_curve, rtol=1e-10)

    @pytest.mark.parametrize(
        "mode, kind", [("balance", "binary"), ("balance", "continuous"), ("slr", "continuous")]
    )
    def test_batch_chooses_the_solo_sets(self, mode, kind):
        # Planted pairs for balances; summed log-ratios train stably on
        # the latent-factor matrix only (see `training_problem`).
        if mode == "balance":
            sc, matrix, out = observed_planted(91)
            logs = np.log(matrix.values)
            target = logs[:, 2] - logs[:, 5]
        else:
            matrix, _, ys = training_problem("identity", fits=1, seed=91)
            target = ys[0]
        if kind == "continuous":
            noise = np.random.default_rng(91).normal(0.0, 0.3, matrix.n_samples)
            out = Outcome.continuous(target + noise)
        config = LearnerConfig(seed=0)
        seeds = [3, 4, 5, 6]
        models = _relaxed_fits(matrix, [out] * len(seeds), config, seeds, mode)
        for model, seed in zip(models, seeds):
            solo = relaxed_gradient_learner(matrix, out, replace(config, seed=seed), mode)
            assert serialize_model(model) == serialize_model(solo)
            sweep = [(c["numerator"], c["denominator"]) for c in model.diagnostics["cutoffs"]]
            assert sweep == [
                (c["numerator"], c["denominator"]) for c in solo.diagnostics["cutoffs"]
            ]
            np.testing.assert_allclose(
                model.diagnostics["loss_curve"], solo.diagnostics["loss_curve"], rtol=1e-10
            )


def epoch_counts(fits):
    """Epochs around the loss block of `fits` fits on the 100-sample
    training problem: 1, one short of a block, a block, one over, and the
    default 1,000."""
    block = relaxed._LOSS_ELEMENTS // (100 * fits)
    return [1, block - 1, block, block + 1, 1000]


class TestInPlaceTraining:
    """The in-place step trains the bits of the allocating one; only the
    loss curve, reduced once per block of epochs, may move by rounding."""

    @pytest.mark.parametrize("mode, link", MODE_LINKS)
    @pytest.mark.parametrize("fits", [1, 3])
    def test_equals_the_allocating_loop(self, mode, link, fits):
        matrix, starts, ys = training_problem(link, fits=fits)
        if fits == 1:
            starts, ys = starts[0], ys[0]
        for epochs in epoch_counts(fits):
            config = LearnerConfig(epochs=epochs)
            got, want = starts.copy(), starts.copy()
            curve = _train(got, matrix.values, ys, mode, link, config)
            want_curve = allocating_relaxed_training(want, matrix.values, ys, mode, link, config)
            assert got.tobytes() == want.tobytes(), epochs
            assert curve.shape == want_curve.shape == (epochs, *starts.shape[:-1])
            np.testing.assert_allclose(curve, want_curve, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode, link", MODE_LINKS)
    def test_one_step_equals_the_allocating_step(self, mode, link):
        matrix, starts, ys = training_problem(link, fits=3)
        starts = starts + np.random.default_rng(7).normal(0.0, 0.5, starts.shape)
        for params, y in ((starts[0], ys[0]), (starts, ys)):
            loss, grad = relaxed_loss_and_grad(params, matrix.values, y, mode, link)
            want_loss, want = allocating_relaxed_loss_and_grad(
                params, matrix.values, y, mode, link
            )
            assert grad.tobytes() == want.tobytes()
            np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0.0)


class TestBatchErrorIsolation:
    """An error inside a batch fails its own fit; the others equal their
    solo fits."""

    def continuous_problem(self):
        sc, obs, _ = observed_planted(92)
        logs = np.log(obs.values)
        rng = np.random.default_rng(92)
        targets = [
            logs[:, j] - logs[:, j + 5] + rng.normal(0.0, 0.3, obs.n_samples)
            for j in range(3)
        ]
        return obs, [Outcome.continuous(t) for t in targets]

    def test_constant_latent_and_failing_finish(self, monkeypatch):
        obs, (first, doomed, last) = self.continuous_problem()
        constant = Outcome.continuous(np.full(obs.n_samples, 3.0))
        finish = relaxed.orient_and_fit

        def failing_finish(biomarker, matrix, outcome, *args):
            if outcome is doomed:
                raise DegenerateDesign("score is constant; nothing to fit")
            return finish(biomarker, matrix, outcome, *args)

        monkeypatch.setattr(relaxed, "orient_and_fit", failing_finish)
        config = LearnerConfig(seed=0)
        seeds = [11, 12, 13, 14]
        outcomes = [first, constant, doomed, last]
        results = _relaxed_fits(obs, outcomes, config, seeds, "balance")
        assert isinstance(results[1], ValidationError)
        assert "does not vary" in str(results[1])
        assert isinstance(results[2], DegenerateDesign)
        assert "constant" in str(results[2])
        for i in (0, 3):
            solo = relaxed_gradient_learner(
                obs, outcomes[i], replace(config, seed=seeds[i])
            )
            assert serialize_model(results[i]) == serialize_model(solo)
        with pytest.raises(DegenerateDesign, match="constant"):
            relaxed_gradient_learner(obs, doomed, config)

    def test_diverged_fit_fails_alone(self, monkeypatch):
        obs, outcomes = self.continuous_problem()
        train = relaxed._train

        def diverging(params, *args):
            curves = train(params, *args)
            params[1, 0] = np.inf
            return curves

        monkeypatch.setattr(relaxed, "_train", diverging)
        results = _relaxed_fits(obs, outcomes, LearnerConfig(), [1, 2, 3], "balance")
        assert isinstance(results[1], ValidationError)
        assert "diverged" in str(results[1])
        assert isinstance(results[0], LearnedModel)
        assert isinstance(results[2], LearnedModel)

    def test_outcome_kinds_must_match(self):
        sc, obs, out = observed_planted(93)
        continuous = Outcome.continuous(np.log(obs.values[:, 0]))
        with pytest.raises(ValidationError, match="share an outcome kind"):
            _relaxed_fits(obs, [out, continuous], LearnerConfig(), [1, 2], "balance")
