"""Acceptance checklist for the whole package.

Each numbered test checks one end-to-end guarantee at its stated tolerance
and prints a single summary line, so a full run reads as a checklist. The
last test needs a locally provided dataset and skips when the
RATIOMARKER_DATASET_DIR environment variable is not set.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
import ratiomarker as rm
from conftest import cv_score_values, relaxed_loss_and_grad
from ratiomarker.composition import (
    Outcome,
    StrictlyPositiveMatrix,
    ZeroPolicy,
    apply_zero_policy,
    clr_transform,
    pairwise_logratios,
)
from ratiomarker.glm import daa, differential_ratio_analysis
from ratiomarker.latent import (
    _MlpWorkspace,
    _param_count,
    least_squares_decode,
    mlp_loss_and_grad,
    pca_first_component,
    variance_explained,
)
from ratiomarker.learn.biomarker import (
    LearnerConfig,
    RatioBiomarker,
    evaluate_biomarker,
)
from ratiomarker.learn.scoring import _FoldArrays
from ratiomarker.learn.stepwise import forward_stepwise_balance
from ratiomarker.simulate import (
    BiasModel,
    da_notion_report,
    depth_confounded_scenario,
    group_outcome,
    observe,
    planted_signal_scenario,
)
from ratiomarker.tabular import read_matrix


def report(number, name, ok, detail, status=None):
    if status is None:
        status = "PASS" if ok else "FAIL"
    line = f"{number}. {name}: {status} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def random_matrix_pair(rng, n, g):
    """A strictly positive matrix and a per-sample rescaled copy."""
    vals = np.exp(rng.normal(0.0, 1.0, (n, g)))
    scale = np.exp(rng.normal(0.0, 1.0, n))
    ids = [f"s{i}" for i in range(n)]
    fids = [f"f{j}" for j in range(g)]
    return (
        StrictlyPositiveMatrix(vals, ids, fids),
        StrictlyPositiveMatrix(vals * scale[:, None], ids, fids),
    )


def random_biomarker(rng, g, mode):
    perm = rng.permutation(g)
    n_num = int(rng.integers(1, g // 2 + 1))
    n_den = int(rng.integers(1, g - n_num + 1))
    return RatioBiomarker(
        tuple(sorted(int(x) for x in perm[:n_num])),
        tuple(sorted(int(x) for x in perm[n_num : n_num + n_den])),
        mode,
    )


def observed_planted_case(seed, n=200, g=50, effect=2.0):
    scenario = planted_signal_scenario(n, g, effect=effect, seed=seed)
    bias = BiasModel.random(n, g, seed=1000 + seed, noise_sd=0.2)
    observed = observe(scenario, bias, seed=2000 + seed)
    matrix = StrictlyPositiveMatrix(
        observed.values, observed.sample_ids, observed.feature_ids
    )
    return scenario, matrix, group_outcome(scenario)


class TestAcceptance:
    def test_1_scale_invariance(self):
        started = time.perf_counter()
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(1000):
            n = int(rng.integers(8, 16))
            g = int(rng.integers(4, 9))
            a, b = random_matrix_pair(rng, n, g)
            worst = max(
                worst,
                float(np.abs(clr_transform(a) - clr_transform(b)).max()),
            )
            ratios_a, _ = pairwise_logratios(a)
            ratios_b, _ = pairwise_logratios(b)
            worst = max(worst, float(np.abs(ratios_a - ratios_b).max()))
            for mode in ("balance", "slr"):
                marker = random_biomarker(rng, g, mode)
                worst = max(
                    worst,
                    float(
                        np.abs(
                            evaluate_biomarker(marker, a)
                            - evaluate_biomarker(marker, b)
                        ).max()
                    ),
                )
            y = np.zeros(n)
            y[n // 2 :] = 1.0
            outcome = Outcome.binary(y)
            res_a = differential_ratio_analysis(a, outcome)
            res_b = differential_ratio_analysis(b, outcome)
            for field in ("beta", "p_value", "p_adjusted", "attribution"):
                gap = np.abs(getattr(res_a, field) - getattr(res_b, field))
                worst = max(worst, float(np.nanmax(gap)))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-10 and elapsed < 30.0
        report(
            1,
            "scale invariance of ratio statistics",
            ok,
            f"max deviation {worst:.2e} over 1000 matrices, {elapsed:.1f}s",
        )
        assert worst <= 1e-10
        assert elapsed < 30.0

    def test_2_singleton_balance_is_the_pairwise_logratio(self):
        rng = np.random.default_rng(22)
        exact = 0
        for i in range(1000):
            n = int(rng.integers(3, 9))
            g = int(rng.integers(3, 9))
            matrix, _ = random_matrix_pair(rng, n, g)
            j, k = sorted(int(x) for x in rng.choice(g, 2, replace=False))
            marker = RatioBiomarker((j,), (k,), "balance")
            ratios, pairs = pairwise_logratios(matrix)
            column = ratios[:, pairs.index((j, k))]
            exact += np.array_equal(evaluate_biomarker(marker, matrix), column)
        ok = exact == 1000
        report(
            2,
            "one-over-one balance reduces to the pairwise log-ratio",
            ok,
            f"bit-exact on {exact}/1000 random inputs",
        )
        assert exact == 1000

    def test_3_search_and_pca_oracles(self):
        started = time.perf_counter()
        init_matches = 0
        for seed in range(50):
            rng = np.random.default_rng(300 + seed)
            n = 30
            g = int(rng.integers(4, 9))
            matrix, _ = random_matrix_pair(rng, n, g)
            y = np.zeros(n)
            y[n // 2 :] = 1.0
            outcome = Outcome.binary(y)
            config = LearnerConfig(seed=seed)
            folds = _FoldArrays(outcome, config.cv_folds, np.random.default_rng(seed)).pairs
            logs = np.log(matrix.values)
            best, best_mean = None, float("-inf")
            for j in range(g - 1):
                for k in range(j + 1, g):
                    mean, _, _ = cv_score_values(
                        logs[:, j] - logs[:, k], outcome, folds
                    )
                    if mean > best_mean:
                        best, best_mean = (j, k), mean
            model = forward_stepwise_balance(matrix, outcome, config)
            first = model.diagnostics["steps"][0]
            init_matches += (
                first["numerator"][0],
                first["denominator"][0],
            ) == best

        rng = np.random.default_rng(33)
        pca_worst = 0.0
        for _ in range(50):
            x = rng.normal(0.0, 1.0, (10, 6))
            latent, loading = pca_first_component(x)
            centered = x - x.mean(axis=0, keepdims=True)
            cov = centered.T @ centered / (x.shape[0] - 1)
            _, eigvecs = np.linalg.eigh(cov)
            want = eigvecs[:, -1]
            if want[np.argmax(np.abs(want))] < 0:
                want = -want
            pca_worst = max(
                pca_worst, float(np.abs(loading - want).max())
            )
            pca_worst = max(
                pca_worst,
                float(np.abs(latent.scores - centered @ want).max()),
            )
        elapsed = time.perf_counter() - started
        ok = init_matches == 50 and pca_worst <= 1e-8
        report(
            3,
            "stepwise init and PCA match brute-force oracles",
            ok,
            f"init {init_matches}/50 datasets, PCA max deviation "
            f"{pca_worst:.2e}, {elapsed:.1f}s",
        )
        assert init_matches == 50
        assert pca_worst <= 1e-8

    def test_4_planted_pair_recovery(self):
        started = time.perf_counter()
        stepwise_exact = relaxed_exact = 0
        stepwise_auc = relaxed_auc = 0
        contained = 0
        for seed in range(50):
            scenario, matrix, outcome = observed_planted_case(seed)
            planted = {
                scenario.planted.numerator,
                scenario.planted.denominator,
            }
            planted_union = {
                scenario.planted.numerator[0],
                scenario.planted.denominator[0],
            }

            model = forward_stepwise_balance(
                matrix, outcome, LearnerConfig(seed=seed)
            )
            got = {model.biomarker.numerator, model.biomarker.denominator}
            stepwise_exact += got == planted
            stepwise_auc += model.cv_score >= 0.9

            model = rm.relaxed_gradient_learner(
                matrix, outcome, LearnerConfig(seed=seed)
            )
            got = {model.biomarker.numerator, model.biomarker.denominator}
            relaxed_exact += got == planted
            relaxed_auc += model.cv_score >= 0.9

            model = rm.evolutionary_slr(
                matrix,
                outcome,
                LearnerConfig(population=40, generations=40, seed=seed),
            )
            union = set(model.biomarker.numerator) | set(
                model.biomarker.denominator
            )
            contained += planted_union <= union
        elapsed = time.perf_counter() - started
        ok = (
            stepwise_exact >= 40
            and relaxed_exact >= 40
            and stepwise_auc == 50
            and relaxed_auc == 50
            and contained >= 40
            and elapsed < 300.0
        )
        report(
            4,
            "planted pair recovery at N=200, G=50, log effect 2",
            ok,
            f"exact: stepwise {stepwise_exact}/50, relaxed {relaxed_exact}/50; "
            f"cv AUC>=0.9: {stepwise_auc}/50 and {relaxed_auc}/50; "
            f"evolutionary containment {contained}/50; {elapsed:.0f}s",
        )
        assert stepwise_exact >= 40
        assert relaxed_exact >= 40
        assert stepwise_auc == 50
        assert relaxed_auc == 50
        assert contained >= 40
        assert elapsed < 300.0

    def test_5_analytic_gradients(self):
        rng = np.random.default_rng(55)
        h = 1e-6

        def central(fun, params):
            grad = np.zeros_like(params)
            for i in range(len(params)):
                plus = params.copy()
                minus = params.copy()
                plus[i] += h
                minus[i] -= h
                grad[i] = (fun(plus) - fun(minus)) / (2.0 * h)
            return grad

        def rel_err(got, want):
            return float(
                np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8))
            )

        relaxed_worst = 0.0
        for mode in ("balance", "slr"):
            for link in ("logistic", "identity"):
                for _ in range(20):
                    n, g = 15, 6
                    values = np.exp(rng.normal(0.0, 0.8, (n, g)))
                    if link == "logistic":
                        y = (rng.random(n) < 0.5).astype(float)
                        y[0], y[1] = 0.0, 1.0
                    else:
                        y = rng.normal(0.0, 1.0, n)
                    params = np.concatenate(
                        [rng.normal(0.0, 0.5, g), rng.normal(0.0, 1.0, 2)]
                    )
                    _, grad = relaxed_loss_and_grad(
                        params, values, y, mode, link
                    )
                    want = central(
                        lambda p: relaxed_loss_and_grad(
                            p, values, y, mode, link
                        )[0],
                        params,
                    )
                    relaxed_worst = max(relaxed_worst, rel_err(grad, want))

        network_worst = 0.0
        for _ in range(20):
            n, d_in, hidden, d_out = 7, 4, 3, 5
            x = rng.normal(0.0, 1.0, (n, d_in))
            y = rng.normal(0.0, 1.0, (n, d_out))
            params = rng.normal(0.0, 0.7, _param_count(d_in, hidden, d_out))
            ws = _MlpWorkspace(x, hidden, d_out)
            grad = mlp_loss_and_grad(params, y, ws)[1].copy()
            want = central(lambda p: mlp_loss_and_grad(p, y, ws)[0], params)
            network_worst = max(network_worst, rel_err(grad, want))

        ok = relaxed_worst < 1e-4 and network_worst < 1e-4
        report(
            5,
            "analytic gradients match central differences",
            ok,
            f"max relative error: relaxed {relaxed_worst:.2e}, "
            f"network {network_worst:.2e}",
        )
        assert relaxed_worst < 1e-4
        assert network_worst < 1e-4

    def test_6_null_calibration_under_permuted_labels(self):
        started = time.perf_counter()
        daa_rates = []
        ratio_rates = []
        for seed in range(100):
            scenario, matrix, _ = observed_planted_case(seed, n=60, g=12)
            rng = np.random.default_rng(seed + 900)
            y = rng.permutation(scenario.group.astype(float))
            outcome = Outcome.binary(y)
            res = daa(matrix, outcome, transform="clr")
            daa_rates.append(res.significant(0.05).mean())
            ratio_res = differential_ratio_analysis(matrix, outcome, alpha=0.05)
            ratio_rates.append(
                ratio_res.n_significant / ratio_res.beta.size
            )
        daa_pct = 100.0 * float(np.mean(daa_rates))
        ratio_pct = 100.0 * float(np.mean(ratio_rates))
        elapsed = time.perf_counter() - started
        ok = daa_pct <= 8.0 and ratio_pct <= 8.0
        report(
            6,
            "null calibration with permuted labels",
            ok,
            f"mean adjusted-significant: per-feature {daa_pct:.2f}%, "
            f"per-ratio {ratio_pct:.2f}% (allowed <= 8%), {elapsed:.1f}s",
        )
        assert daa_pct <= 8.0
        assert ratio_pct <= 8.0

    def test_7_designed_disagreement_between_notions(self):
        scenario = depth_confounded_scenario()
        bias = BiasModel.identity(scenario.n_samples, scenario.n_features)
        observed = observe(scenario, bias, seed=0)
        result = da_notion_report(scenario, observed, "a")
        ok = result.absolute == 1 and result.relative == -1
        report(
            7,
            "deterministic preset splits absolute and relative signs",
            ok,
            f"feature 'a': absolute {result.absolute:+d}, "
            f"relative {result.relative:+d}",
        )
        assert result.absolute == 1
        assert result.relative == -1

    def test_8_latent_stand_in_benchmark(self):
        started = time.perf_counter()
        pair = rm.synthetic_omics_pair(n_samples=200, g_t=50, g_u=80, seed=0)
        rows = rm.run_benchmark(pair)
        elapsed = time.perf_counter() - started
        gaps = [abs(r.rbb_r2 - r.original_r2) for r in rows]
        sparsities = [r.active_features / r.total_features for r in rows]
        clean = all(r.error == "" for r in rows)
        ok = (
            len(rows) == 12
            and clean
            and max(gaps) <= 0.05
            and max(sparsities) <= 0.5
            and elapsed < 600.0
        )
        report(
            8,
            "sparse stand-ins track latent pipelines",
            ok,
            f"12 rows, max R2 gap {max(gaps):.3f} (<= 0.05), max sparsity "
            f"{100 * max(sparsities):.0f}% (<= 50%), {elapsed:.0f}s",
        )
        assert len(rows) == 12
        assert clean
        assert max(gaps) <= 0.05
        assert max(sparsities) <= 0.5
        assert elapsed < 600.0

    def test_9_public_dataset_extension(self):
        dataset_dir = os.environ.get("RATIOMARKER_DATASET_DIR")
        if not dataset_dir:
            report(
                9,
                "public dataset reproduction",
                True,
                "set RATIOMARKER_DATASET_DIR to a directory with "
                "microbes.tsv and metabolites.tsv to enable",
                status="SKIP",
            )
            pytest.skip("RATIOMARKER_DATASET_DIR not set")
        root = Path(dataset_dir)
        policy = ZeroPolicy()
        microbes, _ = apply_zero_policy(read_matrix(root / "microbes.tsv"), policy)
        metabolites, _ = apply_zero_policy(
            read_matrix(root / "metabolites.tsv"), policy
        )
        r2 = {}
        for label, matrix in (("T", microbes), ("U", metabolites)):
            clr_x = clr_transform(matrix)
            latent, _ = pca_first_component(clr_x)
            recon = least_squares_decode(clr_x, latent.scores)
            r2[label] = variance_explained(clr_x, recon)
        dims_ok = (
            microbes.n_features == 58 and metabolites.n_features == 7156
        )
        r2_ok = abs(r2["T"] - 0.31) <= 0.05 and abs(r2["U"] - 0.34) <= 0.05
        report(
            9,
            "public dataset reproduction",
            dims_ok and r2_ok,
            f"dims {microbes.n_features}/{metabolites.n_features}, "
            f"PCA R2 T {r2['T']:.3f} (want 0.31+-0.05), "
            f"U {r2['U']:.3f} (want 0.34+-0.05)",
        )
        assert dims_ok
        assert r2_ok
