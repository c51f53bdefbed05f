"""The 12-row latent-vs-ratio-biomarker comparison table."""

import numpy as np
import pytest

from ratiomarker import benchmark, parallel
from ratiomarker.benchmark import (
    BenchmarkRow,
    benchmark_table,
    run_benchmark,
    synthetic_omics_pair,
)
from ratiomarker.composition import StrictlyPositiveMatrix
from ratiomarker.errors import ValidationError
from ratiomarker.latent import EncoderDecoderConfig, OmicsPair
from ratiomarker.learn.biomarker import LearnerConfig

SMALL_LEARN = LearnerConfig(epochs=300, cv_folds=3, seed=0)
SMALL_NN = EncoderDecoderConfig(hidden_units=8, epochs=200, seed=0)


def small_pair(seed=0):
    return synthetic_omics_pair(
        n_samples=60, g_t=12, g_u=16, seed=seed, noise_sd=0.3
    )


def flat_t_pair():
    """A constant T block: ten of the twelve rows fail, with four messages."""
    n = 30
    flat = StrictlyPositiveMatrix(
        np.ones((n, 6)),
        [f"s{i + 1}" for i in range(n)],
        [f"t{j + 1}" for j in range(6)],
    )
    live = synthetic_omics_pair(n_samples=n, g_t=6, g_u=10, seed=3).u
    return OmicsPair(t=flat, u=live)


@pytest.fixture(scope="module")
def rows():
    return run_benchmark(small_pair(), config=SMALL_LEARN, nn_config=SMALL_NN)


class TestSyntheticPair:
    def test_shapes_and_ids(self):
        pair = synthetic_omics_pair(n_samples=30, g_t=10, g_u=14, seed=1)
        assert pair.t.values.shape == (30, 10)
        assert pair.u.values.shape == (30, 14)
        assert pair.t.sample_ids == pair.u.sample_ids
        assert pair.t.feature_ids[0] == "t1"
        assert pair.u.feature_ids[-1] == "u14"
        assert np.all(pair.t.values > 0)
        assert np.all(pair.u.values > 0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(g_t=-1), dict(g_u=-1), dict(n_samples=-1), dict(noise_sd=-1.0),
         dict(noise_sd=float("nan")), dict(seed=-1)],
    )
    def test_rejects_negative_or_nan_arguments(self, kwargs):
        with pytest.raises(ValidationError, match="sizes, seed and noise_sd must be nonnegative"):
            synthetic_omics_pair(**{"n_samples": 20, **kwargs})

    def test_seed_reproducibility(self):
        a = synthetic_omics_pair(n_samples=25, g_t=8, g_u=9, seed=5)
        b = synthetic_omics_pair(n_samples=25, g_t=8, g_u=9, seed=5)
        np.testing.assert_array_equal(a.t.values, b.t.values)
        np.testing.assert_array_equal(a.u.values, b.u.values)
        c = synthetic_omics_pair(n_samples=25, g_t=8, g_u=9, seed=6)
        assert not np.array_equal(a.t.values, c.t.values)

    def test_blocks_share_a_factor(self):
        # With no noise the two log matrices are rank one with a common
        # score vector, so their cross-covariance has one big singular
        # value and nothing else.
        pair = synthetic_omics_pair(
            n_samples=40, g_t=10, g_u=12, seed=2, noise_sd=0.0
        )
        lt = np.log(pair.t.values)
        lu = np.log(pair.u.values)
        lt -= lt.mean(axis=0)
        lu -= lu.mean(axis=0)
        s = np.linalg.svd(lt.T @ lu, compute_uv=False)
        assert s[0] > 0
        assert s[1] < s[0] * 1e-10


class TestRunBenchmark:
    def test_twelve_rows_in_fixed_order(self, rows):
        assert len(rows) == 12
        assert [r.objective for r in rows] == (
            ["dimension_reduction"] * 6 + ["integration"] * 6
        )
        assert [r.method for r in rows] == ["pca", "pca", "pls", "pls", "nn", "nn"] * 2
        assert [r.rbb_source for r in rows] == [
            "T", "U", "T", "U", "T", "U", "U", "T", "U", "T", "T", "U",
        ]

    def test_no_errors_on_clean_data(self, rows):
        assert all(r.error == "" for r in rows)
        assert all(np.isfinite(r.original_r2) for r in rows)
        assert all(np.isfinite(r.rbb_r2) for r in rows)

    def test_feature_counts(self, rows):
        for r in rows:
            want_total = 12 if r.rbb_source == "T" else 16
            assert r.total_features == want_total
            assert 2 <= r.active_features <= want_total
            assert r.rbb_vars == f"{r.active_features} / {want_total}"

    def test_pca_reduction_rows_bounded_by_the_optimum(self, rows):
        # The first principal component is the best single linear score
        # for reconstructing its own matrix, so the sparse stand-in can
        # only tie it, never beat it.
        for r in rows[:2]:
            assert r.rbb_r2 <= r.original_r2 + 1e-9

    def test_deterministic(self, rows):
        again = run_benchmark(
            small_pair(), config=SMALL_LEARN, nn_config=SMALL_NN
        )
        assert again == rows


class TestErrorIsolation:
    def test_degenerate_block_fails_row_by_row(self):
        rows = run_benchmark(
            flat_t_pair(), config=SMALL_LEARN, nn_config=SMALL_NN
        )
        assert len(rows) == 12
        bad = [r for r in rows if r.error]
        good = [r for r in rows if not r.error]
        assert bad and good
        # PCA on the flat block has nothing to decompose.
        assert rows[0].error != ""
        assert np.isnan(rows[0].original_r2)
        assert rows[0].rbb_vars == ""
        # PCA on the live block is untouched by the failure next door.
        assert rows[1].error == ""
        assert np.isfinite(rows[1].rbb_r2)


class TestRowsOnEveryCpu:
    """Rows run in the process pool equal the rows of a serial run, bit for
    bit, NaNs and error messages included."""

    @pytest.mark.parametrize("make_pair", [small_pair, flat_t_pair])
    def test_rows_equal_the_serial_rows(self, cpus, make_pair):
        got = run_benchmark(make_pair(), config=SMALL_LEARN, nn_config=SMALL_NN)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "_cpu_count", lambda: 1)
            serial = run_benchmark(
                make_pair(), config=SMALL_LEARN, nn_config=SMALL_NN
            )
        # repr writes every float exactly, and NaN equal to NaN.
        assert repr(got) == repr(serial)


class TestTwoStages:
    """Each distinct latent is fitted once, and each source matrix trains
    its six stand-ins as one batch."""

    def test_each_latent_is_fitted_once(self, monkeypatch, forbid_pool):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
        calls = []
        for name in ("pca_first_component", "pls_first_component", "encoder_decoder_latent"):
            fit = getattr(benchmark, name)

            def counted(*args, _fit=fit, _name=name, **kwargs):
                calls.append(_name)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(benchmark, name, counted)
        run_benchmark(small_pair(), config=SMALL_LEARN, nn_config=SMALL_NN)
        assert sorted(calls) == sorted(
            ["encoder_decoder_latent"] * 4
            + ["pca_first_component"] * 2
            + ["pls_first_component"]
        )

    def test_one_batch_per_source_matrix(self, monkeypatch, forbid_pool):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
        batches = []
        fits = benchmark._relaxed_fits

        def recorded(matrix, outcomes, *args):
            batches.append((matrix.n_features, len(outcomes)))
            return fits(matrix, outcomes, *args)

        monkeypatch.setattr(benchmark, "_relaxed_fits", recorded)
        run_benchmark(small_pair(), config=SMALL_LEARN, nn_config=SMALL_NN)
        assert batches == [(12, 6), (16, 6)]


class TestTableRendering:
    def test_layout(self):
        rows = [
            BenchmarkRow(
                objective="dimension_reduction",
                method="pca",
                latent="PCA1(clr T)",
                original_r2=0.91234,
                rbb_source="T",
                active_features=4,
                total_features=50,
                rbb_r2=0.88881,
            ),
            BenchmarkRow(
                objective="integration",
                method="nn",
                latent="NN(T>h>U)",
                original_r2=float("nan"),
                rbb_source="T",
                active_features=0,
                total_features=50,
                rbb_r2=float("nan"),
                error="matrix has no variation to decompose",
            ),
        ]
        text = benchmark_table(rows)
        lines = text.split("\n")
        assert text.endswith("\n")
        assert lines[0].split("\t") == [
            "objective",
            "method",
            "latent",
            "original_r2",
            "rbb_source",
            "rbb_vars",
            "rbb_r2",
            "error",
        ]
        assert lines[1].split("\t") == [
            "dimension_reduction",
            "pca",
            "PCA1(clr T)",
            "0.9123",
            "T",
            "4 / 50",
            "0.8888",
            "",
        ]
        assert lines[2].split("\t") == [
            "integration",
            "nn",
            "NN(T>h>U)",
            "",
            "T",
            "",
            "",
            "matrix has no variation to decompose",
        ]
        assert lines[3] == ""
