"""Latent representations: PCA, PLS, bottleneck network, RBB distillation.

PCA is checked against an eigendecomposition of the covariance matrix done
here from scratch. PLS is checked against the dominant singular direction
of the cross-covariance, computed here from the centered blocks. The
network gradient is checked against central finite differences and, to
rounding, against the separate-bias arithmetic its folded blocks replace;
the in-place gradient and training loop are checked against the allocating
references in `conftest.py`, byte for byte.
"""

import numpy as np
import pytest

from conftest import (
    reference_encoder_decoder,
    reference_mlp_loss_and_grad,
    separate_bias_mlp_loss_and_grad,
    two_equal_factor_pair,
)

from ratiomarker import latent
from ratiomarker.composition import StrictlyPositiveMatrix, clr_transform
from ratiomarker.errors import DegenerateDesign, ValidationError
from ratiomarker.latent import (
    EncoderDecoderConfig,
    OmicsPair,
    approximate_latent_with_rbb,
    encoder_decoder_latent,
    least_squares_decode,
    mlp_loss_and_grad,
    pca_first_component,
    pls_first_component,
    variance_explained,
)
from ratiomarker.latent import _init_params, _MlpWorkspace, _param_count


def pca_oracle(x):
    """Leading eigenvector of the sample covariance, sign-normalized."""
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    loading = eigvecs[:, -1]
    if loading[np.argmax(np.abs(loading))] < 0:
        loading = -loading
    return centered @ loading, loading, eigvals


class TestPca:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(0.0, 1.0, (10, 6))
            latent, loading = pca_first_component(x)
            want_scores, want_loading, _ = pca_oracle(x)
            np.testing.assert_allclose(loading, want_loading, atol=1e-8)
            np.testing.assert_allclose(latent.scores, want_scores, atol=1e-8)

    def test_loading_is_unit_norm(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 2.0, (20, 8))
        _, loading = pca_first_component(x)
        np.testing.assert_allclose(np.linalg.norm(loading), 1.0, rtol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, (15, 5))
        _, loading = pca_first_component(x)
        assert loading[np.argmax(np.abs(loading))] > 0

    def test_scores_capture_max_variance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, (40, 6))
        latent, _ = pca_first_component(x)
        _, _, eigvals = pca_oracle(x)
        np.testing.assert_allclose(
            latent.scores.var(ddof=1), eigvals[-1], rtol=1e-10
        )

    def test_constant_matrix_raises(self):
        with pytest.raises(DegenerateDesign, match="no variation to decompose"):
            pca_first_component(np.full((5, 4), 2.5))

    def test_rank_test_is_scale_free(self):
        # Data of size 1e-15 vary as much, relative to their size, as the
        # same data at size 1.
        x = np.random.default_rng(4).normal(0.0, 1.0, (30, 5))
        _, loading = pca_first_component(x)
        _, tiny = pca_first_component(x * 1e-15)
        np.testing.assert_allclose(tiny, loading, rtol=0.0, atol=1e-12)

    def test_single_row_raises(self):
        with pytest.raises(ValidationError):
            pca_first_component(np.ones((1, 4)))


def shared_factor_pair(seed, n=60, p=6, q=5, noise=0.05):
    rng = np.random.default_rng(seed)
    f = rng.normal(0.0, 1.0, n)
    ax = rng.normal(0.0, 1.0, p)
    ay = rng.normal(0.0, 1.0, q)
    x = np.outer(f, ax) + rng.normal(0.0, noise, (n, p))
    y = np.outer(f, ay) + rng.normal(0.0, noise, (n, q))
    return x, y, f


class TestPls:
    def test_weight_matches_cross_covariance_svd(self):
        for seed in range(10):
            x, y, _ = shared_factor_pair(seed)
            comp = pls_first_component(x, y)
            xc = x - x.mean(axis=0)
            yc = y - y.mean(axis=0)
            u_svd, _, _ = np.linalg.svd(xc.T @ yc, full_matrices=False)
            want = u_svd[:, 0]
            want = want * np.sign(want[np.argmax(np.abs(want))])
            np.testing.assert_allclose(comp.x_weights, want, atol=1e-12)

    def test_scores_track_the_shared_factor(self):
        x, y, f = shared_factor_pair(20)
        comp = pls_first_component(x, y)
        r = np.corrcoef(comp.x_scores.scores, f)[0, 1]
        assert abs(r) > 0.99
        r_xy = np.corrcoef(comp.x_scores.scores, comp.y_scores.scores)[0, 1]
        assert abs(r_xy) > 0.99

    def test_sign_convention_on_x_weights(self):
        x, y, _ = shared_factor_pair(21)
        comp = pls_first_component(x, y)
        w = comp.x_weights
        assert w[np.argmax(np.abs(w))] > 0

    def test_two_equally_strong_factors(self):
        # The two leading singular values tie to within 1%, and the
        # component is still the leading singular pair: t'u is sigma_1.
        for seed in (3, 4, 5, 6):
            x, y = two_equal_factor_pair(seed)
            comp = pls_first_component(x, y)
            xc = x - x.mean(axis=0)
            yc = y - y.mean(axis=0)
            singular = np.linalg.svd(xc.T @ yc, compute_uv=False)
            assert singular[1] / singular[0] > 0.99
            assert np.all(np.isfinite(comp.x_scores.scores))
            assert np.all(np.isfinite(comp.y_scores.scores))
            np.testing.assert_allclose(
                comp.x_scores.scores @ comp.y_scores.scores,
                singular[0],
                rtol=1e-12,
            )

    @pytest.mark.parametrize("constant", ["x", "y"])
    def test_constant_block_raises_rank_zero(self, constant):
        x, y, _ = shared_factor_pair(22)
        if constant == "x":
            x = np.full_like(x, 2.5)
        else:
            y = np.full_like(y, 2.5)
        with pytest.raises(DegenerateDesign, match="no covariance"):
            pls_first_component(x, y)

    @pytest.mark.parametrize("constant, value", [("x", 0.1), ("y", 0.3)])
    def test_block_constant_up_to_rounding_raises(self, constant, value):
        # The column means of 0.1 and 0.3 are not exact, so the centred
        # block is rounding noise, not zeros.
        x, y, _ = shared_factor_pair(24)
        if constant == "x":
            x = np.full_like(x, value)
        else:
            y = np.full_like(y, value)
        with pytest.raises(DegenerateDesign, match="no covariance"):
            pls_first_component(x, y)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="must have the same number of rows"):
            pls_first_component(np.ones((5, 3)), np.ones((6, 2)))

    def test_uncorrelated_y_column_does_not_break(self):
        x, y, f = shared_factor_pair(23)
        rng = np.random.default_rng(23)
        y = np.column_stack([y, rng.normal(0.0, 1.0, y.shape[0])])
        comp = pls_first_component(x, y)
        assert np.all(np.isfinite(comp.y_scores.scores))
        r = np.corrcoef(comp.x_scores.scores, f)[0, 1]
        assert abs(r) > 0.99


class TestMlpGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(20):
            n, d_in, hidden, d_out = 7, 4, 3, 5
            x = rng.normal(0.0, 1.0, (n, d_in))
            y = rng.normal(0.0, 1.0, (n, d_out))
            params = rng.normal(0.0, 0.7, _param_count(d_in, hidden, d_out))
            ws = _MlpWorkspace(x, hidden, d_out)
            grad = mlp_loss_and_grad(params, y, ws)[1].copy()
            num = np.zeros_like(params)
            h = 1e-6
            for i in range(len(params)):
                plus = params.copy()
                plus[i] += h
                minus = params.copy()
                minus[i] -= h
                lp, _ = mlp_loss_and_grad(plus, y, ws)
                lm, _ = mlp_loss_and_grad(minus, y, ws)
                num[i] = (lp - lm) / (2.0 * h)
            scale = np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad - num) / scale)))
        assert worst < 1e-4

    def test_init_is_reproducible(self):
        a = _init_params(np.random.default_rng(5), 4, 3, 2)
        b = _init_params(np.random.default_rng(5), 4, 3, 2)
        np.testing.assert_array_equal(a, b)
        assert a.size == _param_count(4, 3, 2)


# (n, d_in, hidden, d_out): d_in != d_out, the benchmark's d = 80 (a 200 x 80
# residual is just under glibc's 128 KiB mmap threshold), and one hidden unit.
MLP_SHAPES = [(9, 4, 3, 6), (200, 50, 32, 80), (12, 5, 1, 5), (30, 80, 8, 2)]


class TestInPlaceMlp:
    @pytest.mark.parametrize("shape", MLP_SHAPES)
    def test_gradient_equals_the_reference_bytes(self, shape):
        n, d_in, hidden, d_out = shape
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(0.0, 1.0, (n, d_in))
        y = rng.normal(0.0, 1.0, (n, d_out))
        workspace = _MlpWorkspace(x, hidden, d_out)
        for _ in range(3):
            params = rng.normal(0.0, 0.7, _param_count(d_in, hidden, d_out))
            want_loss, want_grad = reference_mlp_loss_and_grad(params, x, y, hidden)
            loss, grad = mlp_loss_and_grad(params, y, _MlpWorkspace(x, hidden, d_out))
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()
            # Reusing one workspace leaves nothing of the previous call.
            loss, grad = mlp_loss_and_grad(params, y, workspace)
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()
            assert grad is workspace.grad

    # Acceptance test 5's shape joins the four above.
    @pytest.mark.parametrize("shape", MLP_SHAPES + [(7, 4, 3, 5)])
    def test_gradient_matches_the_separate_bias_oracle(self, shape):
        n, d_in, hidden, d_out = shape
        rng = np.random.default_rng(200 + sum(shape))
        x = rng.normal(0.0, 1.0, (n, d_in))
        y = rng.normal(0.0, 1.0, (n, d_out))
        for _ in range(3):
            params = rng.normal(0.0, 0.7, _param_count(d_in, hidden, d_out))
            want_loss, want_grad = separate_bias_mlp_loss_and_grad(params, x, y, hidden)
            loss, grad = mlp_loss_and_grad(params, y, _MlpWorkspace(x, hidden, d_out))
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

    @pytest.mark.parametrize("shape", MLP_SHAPES)
    def test_fit_equals_the_reference_bytes(self, shape):
        n, d_in, hidden, d_out = shape
        rng = np.random.default_rng(100 + sum(shape))
        x = rng.normal(0.0, 1.0, (n, d_in))
        y = x[:, :1] @ rng.normal(0.0, 1.0, (1, d_out)) + rng.normal(
            0.0, 0.1, (n, d_out)
        )
        config = EncoderDecoderConfig(
            hidden_units=hidden, epochs=40, learning_rate=0.05, seed=sum(shape)
        )
        fit = encoder_decoder_latent(x, y, config)
        params, loss_curve, final_loss = reference_encoder_decoder(x, y, config)
        assert fit.params.tobytes() == params.tobytes()
        assert fit.loss_curve.tobytes() == loss_curve.tobytes()
        assert fit.final_loss == final_loss

    def test_training_calls_the_module_level_gradient(self, monkeypatch):
        calls = []

        def counted(params, y, ws):
            calls.append(ws)
            return mlp_loss_and_grad(params, y, ws)

        monkeypatch.setattr(latent, "mlp_loss_and_grad", counted)
        x, y, _ = shared_factor_pair(44, n=20)
        encoder_decoder_latent(x, y, EncoderDecoderConfig(epochs=7, seed=44))
        # One workspace serves every step of the fit and its final loss.
        assert len(calls) == 8 and all(ws is calls[0] for ws in calls)


class TestEncoderDecoder:
    def test_training_reduces_loss(self):
        x, y, _ = shared_factor_pair(40, n=50)
        fit = encoder_decoder_latent(
            x, y, EncoderDecoderConfig(epochs=300, seed=40)
        )
        assert fit.loss_curve[-1] < fit.loss_curve[0] * 0.5

    def test_rank_one_data_reconstructed_well(self):
        x, y, _ = shared_factor_pair(41, n=80, noise=0.02)
        fit = encoder_decoder_latent(
            x, y, EncoderDecoderConfig(epochs=800, seed=41)
        )
        recon = fit.decode(fit.encode(x).scores)
        r2 = variance_explained(y, recon)
        assert r2 > 0.9

    def test_encode_returns_one_score_per_sample(self):
        x, y, _ = shared_factor_pair(42)
        fit = encoder_decoder_latent(
            x, y, EncoderDecoderConfig(epochs=50, seed=42)
        )
        latent = fit.encode(x)
        assert latent.scores.shape == (x.shape[0],)
        assert latent.method == "nn"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            EncoderDecoderConfig(seed=-1)

    def test_deterministic_given_seed(self):
        x, y, _ = shared_factor_pair(43)
        cfg = EncoderDecoderConfig(epochs=100, seed=43)
        a = encoder_decoder_latent(x, y, cfg)
        b = encoder_decoder_latent(x, y, cfg)
        np.testing.assert_array_equal(a.params, b.params)


class TestDecodingAndR2:
    def test_least_squares_decode_matches_lstsq(self):
        rng = np.random.default_rng(50)
        target = rng.normal(0.0, 1.0, (30, 4))
        scores = rng.normal(0.0, 1.0, 30)
        got = least_squares_decode(target, scores)
        design = np.column_stack([scores, np.ones(30)])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        np.testing.assert_allclose(got, design @ coef, rtol=1e-10)

    def test_variance_explained_perfect_reconstruction(self):
        rng = np.random.default_rng(51)
        x = rng.normal(0.0, 1.0, (10, 3))
        np.testing.assert_allclose(variance_explained(x, x.copy()), 1.0)

    def test_variance_explained_mean_reconstruction_is_zero(self):
        rng = np.random.default_rng(52)
        x = rng.normal(0.0, 1.0, (10, 3))
        mean = np.tile(x.mean(axis=0), (10, 1))
        np.testing.assert_allclose(
            variance_explained(x, mean), 0.0, atol=1e-12
        )

    def test_constant_original_raises(self):
        with pytest.raises(DegenerateDesign, match="original matrix is constant"):
            variance_explained(np.full((4, 2), 1.0), np.zeros((4, 2)))

    def test_original_constant_up_to_rounding_raises(self):
        original = np.full((60, 3), 0.3)
        with pytest.raises(DegenerateDesign, match="original matrix is constant"):
            variance_explained(original, original + 1e-3)


class TestRbbApproximation:
    def planted_latent_matrix(self, seed, n=80, g=12):
        # A positive matrix whose first principal direction (after clr) is
        # driven by two features moving against each other.
        rng = np.random.default_rng(seed)
        f = rng.normal(0.0, 1.0, n)
        logs = rng.normal(0.0, 0.25, (n, g))
        logs[:, 2] += f
        logs[:, 7] -= f
        return StrictlyPositiveMatrix(
            np.exp(logs),
            [f"s{i}" for i in range(n)],
            [f"g{j}" for j in range(g)],
        )

    def test_latent_recovered_sparsely(self):
        mat = self.planted_latent_matrix(60)
        latent, _ = pca_first_component(clr_transform(mat))
        approx = approximate_latent_with_rbb(latent, mat)
        assert approx.latent_r2 > 0.8
        assert approx.sparsity <= 0.5
        chosen = set(approx.model.biomarker.numerator) | set(
            approx.model.biomarker.denominator
        )
        assert {2, 7} <= chosen

    def test_scores_match_model_predictions(self):
        mat = self.planted_latent_matrix(61)
        latent, _ = pca_first_component(clr_transform(mat))
        approx = approximate_latent_with_rbb(latent, mat)
        from ratiomarker.learn.biomarker import predict

        np.testing.assert_allclose(
            approx.approx_scores, predict(approx.model, mat), rtol=1e-12
        )

    def test_length_mismatch_rejected(self):
        mat = self.planted_latent_matrix(62)
        latent, _ = pca_first_component(clr_transform(mat))
        small = StrictlyPositiveMatrix(
            mat.values[:10], mat.sample_ids[:10], mat.feature_ids
        )
        with pytest.raises(ValidationError, match="latent length does not match"):
            approximate_latent_with_rbb(latent, small)

    def test_pair_requires_matching_sample_ids(self):
        a = self.planted_latent_matrix(63)
        b = self.planted_latent_matrix(64, n=80, g=9)
        pair = OmicsPair(a, b)
        assert pair.n_samples == 80
        shuffled = StrictlyPositiveMatrix(
            b.values[::-1], b.sample_ids[::-1], b.feature_ids
        )
        with pytest.raises(ValidationError, match="must share sample ids"):
            OmicsPair(a, shuffled)
