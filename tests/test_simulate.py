"""Ground-truth scenarios and the observation model."""

import numpy as np
import pytest

from ratiomarker.errors import ValidationError
from ratiomarker.simulate import (
    BiasModel,
    GroundTruthScenario,
    da_notion_report,
    depth_confounded_scenario,
    group_outcome,
    observe,
    planted_signal_scenario,
)


class TestBiasModel:
    def test_identity_factors(self):
        b = BiasModel.identity(3, 5)
        np.testing.assert_array_equal(b.feature_bias, np.ones(5))
        np.testing.assert_array_equal(b.depth, np.ones(3))
        assert b.noise_sd == 0.0

    def test_random_is_reproducible(self):
        a = BiasModel.random(4, 6, seed=9)
        b = BiasModel.random(4, 6, seed=9)
        np.testing.assert_array_equal(a.feature_bias, b.feature_bias)
        np.testing.assert_array_equal(a.depth, b.depth)

    def test_rejects_nonpositive_factors(self):
        with pytest.raises(ValidationError):
            BiasModel(np.array([1.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            BiasModel(np.array([1.0]), np.array([-1.0, 1.0]))

    def test_rejects_nan_factors(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            BiasModel(np.array([1.0, np.nan]), np.array([1.0]))
        with pytest.raises(ValidationError, match="strictly positive"):
            BiasModel(np.array([1.0]), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("noise_sd", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_noise(self, noise_sd):
        with pytest.raises(ValidationError, match="noise_sd must be nonnegative"):
            BiasModel(np.ones(2), np.ones(3), noise_sd)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(theta_sd=-1.0), dict(depth_sd=-1.0), dict(theta_sd=float("nan")),
         dict(depth_sd=float("nan")), dict(seed=-1), dict(n_samples=-1)],
    )
    def test_random_rejects_negative_or_nan_arguments(self, kwargs):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            BiasModel.random(**{"n_samples": 4, "n_features": 6, **kwargs})


class TestObserve:
    @pytest.mark.parametrize("noise_sd", [0.0, 0.1])
    def test_negative_seed_rejected(self, noise_sd):
        sc = planted_signal_scenario(6, 5, seed=1)
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            observe(sc, BiasModel.random(6, 5, noise_sd=noise_sd), seed=-1)

    def test_noise_free_product_is_exact(self):
        sc = planted_signal_scenario(6, 5, seed=1)
        bias = BiasModel.random(6, 5, seed=2, noise_sd=0.0)
        obs = observe(sc, bias)
        want = (
            sc.true_abundances
            * bias.feature_bias[None, :]
            * bias.depth[:, None]
        )
        np.testing.assert_array_equal(obs.values, want)

    def test_noise_is_seeded(self):
        sc = planted_signal_scenario(6, 5, seed=1)
        bias = BiasModel.random(6, 5, seed=2, noise_sd=0.3)
        a = observe(sc, bias, seed=7)
        b = observe(sc, bias, seed=7)
        c = observe(sc, bias, seed=8)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_depth_cancels_in_ratios(self):
        sc = planted_signal_scenario(8, 6, seed=3)
        plain = observe(sc, BiasModel.identity(8, 6))
        deep = observe(
            sc,
            BiasModel(np.ones(6), np.full(8, 1000.0)),
        )
        np.testing.assert_allclose(
            np.log(deep.values[:, 0] / deep.values[:, 1]),
            np.log(plain.values[:, 0] / plain.values[:, 1]),
            atol=1e-10,
        )

    def test_shape_mismatch_rejected(self):
        sc = planted_signal_scenario(6, 5, seed=1)
        with pytest.raises(ValidationError, match="feature bias length does not match"):
            observe(sc, BiasModel.identity(6, 4))
        with pytest.raises(ValidationError, match="depth length does not match"):
            observe(sc, BiasModel.identity(5, 5))


class TestPlantedScenario:
    def test_group_is_balanced(self):
        sc = planted_signal_scenario(10, 6, seed=4)
        assert sc.group.sum() == 5
        out = group_outcome(sc)
        assert out.kind == "binary"
        np.testing.assert_array_equal(out.values, sc.group.astype(float))

    def test_planted_pair_is_disjoint(self):
        for seed in range(10):
            sc = planted_signal_scenario(8, 5, seed=seed)
            num, den = sc.planted.numerator, sc.planted.denominator
            assert len(num) == 1
            assert len(den) == 1
            assert num[0] != den[0]

    def test_effect_applied_on_log_scale(self):
        # With log_sd 0 the background is exactly 1, so the planted shift is
        # the only structure and can be read off directly.
        sc = planted_signal_scenario(8, 5, effect=2.0, seed=5, log_sd=0.0)
        num = sc.planted.numerator[0]
        den = sc.planted.denominator[0]
        g1 = sc.group == 1
        np.testing.assert_allclose(
            np.log(sc.true_abundances[g1, num]), 1.0, rtol=1e-12
        )
        np.testing.assert_allclose(
            np.log(sc.true_abundances[g1, den]), -1.0, rtol=1e-12
        )
        np.testing.assert_allclose(
            np.log(sc.true_abundances[~g1]), 0.0, atol=1e-12
        )

    def test_size_floor(self):
        with pytest.raises(ValidationError, match="need at least 4 samples"):
            planted_signal_scenario(3, 5)
        with pytest.raises(ValidationError, match="need at least 4 features"):
            planted_signal_scenario(8, 3)

    @pytest.mark.parametrize(
        "kwargs", [dict(log_sd=-1.0), dict(log_sd=float("nan")), dict(seed=-1)]
    )
    def test_rejects_negative_or_nan_log_sd_and_seed(self, kwargs):
        with pytest.raises(ValidationError, match="seed and log_sd must be nonnegative"):
            planted_signal_scenario(8, 5, **kwargs)

    def test_nan_abundance_rejected(self):
        true = np.ones((4, 3))
        true[0, 0] = np.nan
        with pytest.raises(ValidationError, match="strictly positive"):
            GroundTruthScenario(true, [0, 0, 1, 1])

    def test_auto_ids(self):
        sc = planted_signal_scenario(4, 4, seed=0)
        assert sc.sample_ids == ["s1", "s2", "s3", "s4"]
        assert sc.feature_ids == ["g1", "g2", "g3", "g4"]


class TestNotionDisagreement:
    def test_preset_signs(self):
        sc = depth_confounded_scenario()
        obs = observe(sc, BiasModel.identity(sc.n_samples, sc.n_features))
        report = da_notion_report(sc, obs, "a")
        assert report.absolute == 1
        assert report.relative == -1
        assert report.presential == 0

    def test_preset_is_deterministic(self):
        a = depth_confounded_scenario()
        b = depth_confounded_scenario()
        np.testing.assert_array_equal(a.true_abundances, b.true_abundances)

    def test_depth_bias_does_not_change_relative_sign(self):
        # Sequencing depth scales whole rows, and proportions divide it away.
        sc = depth_confounded_scenario()
        biased = observe(
            sc,
            BiasModel(
                np.ones(3), np.array([10.0, 0.1, 5.0, 2.0]), noise_sd=0.0
            ),
        )
        report = da_notion_report(sc, biased, "a")
        assert report.relative == -1
