"""The benchmark's workloads: the inputs each one generates and its jobs.

A workload builds its inputs from the workload seed alone and writes them
as TSV files; the program sees only those files and the CLI flags. A job is
one ``ratiomarker`` CLI call plus the check of its output files. Each check
returns (valid, quality, decisions):

- valid: the output has the shape the command promises. Every run requires
  it of every job.
- quality: the statistical result the workload was built to show, such as
  recovering the planted pair. It is reported as ``quality_pass_frac``; a
  miss on an unlucky seed is not a program fault.
- decisions: what the job chose (selected features, top attribution,
  benchmark rows), recorded so that they can be compared across commits.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_SAMPLES = 200
LEARN_FEATURES = 50
RATIOS_FEATURES = 150
LEARN_DATASETS = 3
EFFECT = 2.0
BIAS_NOISE_SD = 0.2
G_T = 50
G_U = 80


@dataclass
class Job:
    """One CLI call; `name` is unique in the workload, `kind` groups alike jobs."""

    name: str
    kind: str
    argv: list[str]
    check: Callable[[Path], tuple[bool, bool, dict]]


def _write_matrix(path: Path, matrix):
    lines = ["sample_id\t" + "\t".join(matrix.feature_ids)]
    for sid, row in zip(matrix.sample_ids, matrix.values.tolist()):
        lines.append(sid + "\t" + "\t".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_outcome(path: Path, sample_ids, values):
    path.write_text(
        "".join(f"{sid}\t{float(v)!r}\n" for sid, v in zip(sample_ids, values))
    )


def _planted_case(rm, seed: int, n_features: int):
    """Acceptance test 4's planted-pair data: scenario, observed matrix."""
    scenario = rm.planted_signal_scenario(
        N_SAMPLES, n_features, effect=EFFECT, seed=seed
    )
    bias = rm.BiasModel.random(
        N_SAMPLES, n_features, seed=1000 + seed, noise_sd=BIAS_NOISE_SD
    )
    return scenario, rm.observe(scenario, bias, seed=2000 + seed)


def _planted_ids(scenario) -> tuple[str, str]:
    return (
        scenario.feature_ids[scenario.planted.numerator[0]],
        scenario.feature_ids[scenario.planted.denominator[0]],
    )


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def _check_learn(planted: tuple[str, str], learner: str):
    def check(out: Path):
        metrics = _read_json(out / "metrics.json")
        _read_json(out / "model.json")
        num = metrics["numerator_features"]
        den = metrics["denominator_features"]
        cv = metrics["cv_score"]
        valid = (
            bool(num)
            and bool(den)
            and not set(num) & set(den)
            and cv is not None
            and math.isfinite(cv)
        )
        if learner == "evolutionary":
            quality = set(planted) <= set(num) | set(den)
        else:
            quality = (
                {tuple(num), tuple(den)} == {(planted[0],), (planted[1],)}
                and cv is not None
                and cv >= 0.9
            )
        return valid, valid and quality, {"numerator": num, "denominator": den, "cv_score": cv}

    return check


def _learn_planted(rm, seed: int, inputs: Path) -> tuple[list[Job], dict]:
    jobs = []
    planted_pairs = {}
    # Several datasets per run, so one seed's easy or hard data moves the
    # per-pass time less.
    for i in range(LEARN_DATASETS):
        data_seed = seed * LEARN_DATASETS + i
        scenario, observed = _planted_case(rm, data_seed, LEARN_FEATURES)
        matrix, outcome = inputs / f"matrix{i}.tsv", inputs / f"outcome{i}.tsv"
        _write_matrix(matrix, observed)
        _write_outcome(outcome, scenario.sample_ids, scenario.group.astype(float))
        planted = _planted_ids(scenario)
        planted_pairs[f"d{i}"] = list(planted)
        base = ["learn", "--matrix", str(matrix), "--outcome", str(outcome),
                "--seed", str(data_seed)]
        for learner, flags in (
            ("stepwise", []),
            ("relaxed", []),
            ("evolutionary", ["--mode", "slr", "--population", "40", "--generations", "40"]),
        ):
            jobs.append(Job(f"{learner}-d{i}", learner, [*base, "--learner", learner, *flags],
                            _check_learn(planted, learner)))
    return jobs, {"planted": planted_pairs}


def _check_ratios(planted: tuple[str, str], n_ratios: int):
    def check(out: Path):
        summary = _read_json(out / "ratios.json")
        rows = _count_lines(out / "ratios.tsv") - 1
        valid = rows == n_ratios and summary["n_ratios"] == n_ratios
        top = summary["top_features"]
        quality = set(top[:2]) == set(planted)
        return valid, valid and quality, {
            "top_features": top,
            "n_significant": summary["n_significant"],
        }

    return check


def _check_daa(n_features: int):
    def check(out: Path):
        summary = _read_json(out / "daa.json")
        valid = (
            _count_lines(out / "daa.tsv") - 1 == n_features
            and summary["n_features"] == n_features
        )
        return valid, valid, {"significant_features": summary["significant_features"]}

    return check


def _check_pairwise(n_samples: int, n_ratios: int):
    def check(out: Path):
        with open(out / "pairwise.tsv") as f:
            header = f.readline().rstrip("\n").split("\t")
            rows = sum(1 for _ in f)
        valid = rows == n_samples and len(header) == n_ratios + 1
        return valid, valid, {"shape": [rows, len(header) - 1]}

    return check


def _ratios_allpairs(rm, seed: int, inputs: Path) -> tuple[list[Job], dict]:
    import numpy as np

    scenario, observed = _planted_case(rm, seed, RATIOS_FEATURES)
    num, den = scenario.planted.numerator[0], scenario.planted.denominator[0]
    true = scenario.true_abundances
    # A continuous, strictly positive outcome driven by the planted pair's
    # true log-ratio, so the identity-link fits see the same signal.
    continuous = np.sqrt(true[:, num] / true[:, den])
    matrix = inputs / "matrix.tsv"
    binary, cont = inputs / "outcome_binary.tsv", inputs / "outcome_continuous.tsv"
    _write_matrix(matrix, observed)
    _write_outcome(binary, scenario.sample_ids, scenario.group.astype(float))
    _write_outcome(cont, scenario.sample_ids, continuous)
    planted = _planted_ids(scenario)
    g = RATIOS_FEATURES
    n_ratios = g * (g - 1) // 2
    m = ["--matrix", str(matrix)]
    jobs = [
        Job("ratios_binary", "ratios_binary", ["ratios", *m, "--outcome", str(binary)],
            _check_ratios(planted, n_ratios)),
        Job("ratios_continuous", "ratios_continuous",
            ["ratios", *m, "--outcome", str(cont), "--outcome-kind", "continuous"],
            _check_ratios(planted, n_ratios)),
        Job("daa_clr", "daa_clr", ["daa", *m, "--outcome", str(binary), "--transform", "clr"],
            _check_daa(g)),
        Job("pairwise", "pairwise", ["transform", *m, "--transform", "pairwise"],
            _check_pairwise(N_SAMPLES, n_ratios)),
    ]
    return jobs, {"planted": list(planted)}


def _check_benchmark(out: Path):
    rows = _read_json(out / "benchmark.json")["rows"]
    valid = len(rows) == 12
    quality = valid and all(
        not r["error"]
        and abs(r["rbb_r2"] - r["original_r2"]) <= 0.05
        and r["active_features"] / r["total_features"] <= 0.5
        for r in rows
    )
    return valid, quality, {"rows": rows}


def _check_approx(out: Path):
    _read_json(out / "model.json")
    summary = _read_json(out / "approx.json")
    num, den = summary["numerator_features"], summary["denominator_features"]
    valid = bool(num) and bool(den)
    return valid, valid, {
        "numerator": num,
        "denominator": den,
        "latent_r2": summary["latent_r2"],
    }


def _latent_distill(rm, seed: int, inputs: Path) -> tuple[list[Job], dict]:
    pair = rm.synthetic_omics_pair(n_samples=N_SAMPLES, g_t=G_T, g_u=G_U, seed=seed)
    first, second = inputs / "t.tsv", inputs / "u.tsv"
    _write_matrix(first, pair.t)
    _write_matrix(second, pair.u)
    s = ["--seed", str(seed)]
    approx = ["approx", "--matrix", str(first), "--matrix2", str(second), *s]
    jobs = [
        Job("benchmark_synthetic", "benchmark_synthetic",
            ["benchmark", "--synthetic", "--n-samples", str(N_SAMPLES),
             "--g-t", str(G_T), "--g-u", str(G_U), *s],
            _check_benchmark),
        Job("approx_nn", "approx_nn", approx + ["--latent", "nn"], _check_approx),
        Job("approx_pls", "approx_pls", approx + ["--latent", "pls"], _check_approx),
    ]
    return jobs, {}


WORKLOADS = {
    "learn-planted": _learn_planted,
    "ratios-allpairs": _ratios_allpairs,
    "latent-distill": _latent_distill,
}


def build(rm, name: str, seed: int, inputs: Path) -> tuple[list[Job], dict]:
    """Write the workload's inputs under `inputs` and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](rm, seed, inputs)
