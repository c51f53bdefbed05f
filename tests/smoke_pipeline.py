"""Smoke run of all seven subcommands on the runtime dependencies alone.

Run it from an empty directory with the package importable, for example
`python /path/to/tests/smoke_pipeline.py`; it writes its outputs into the
current directory. Each check is an assertion, so the first one that fails
ends the run with a traceback and a non-zero exit code. Two runs check the
error exit codes 2 and 3. The last check is that no scipy module was
loaded: the package needs numpy only.

The file name does not start with `test_`, so pytest does not collect it;
`tests/test_smoke_pipeline.py` runs it in a subprocess.
"""

import sys
from pathlib import Path

import numpy as np

from ratiomarker.cli import main
from ratiomarker.composition import CompositionMatrix
from ratiomarker.tabular import read_matrix, write_matrix, write_outcome

assert main(["simulate", "--out-dir", "sim", "--n-samples", "40", "--n-features", "8"]) == 0
# The manifest replays as --config to the same tables.
assert main(["simulate", "--config", "sim/manifest.json", "--out-dir", "sim-replay"]) == 0
for table in ("true.tsv", "observed.tsv", "outcome.tsv", "da_report.tsv"):
    assert Path("sim-replay", table).read_bytes() == Path("sim", table).read_bytes(), table
# 200 x 435 ratios is more than one 2^15-value block, so the
# pooled writer forks.
assert main(["simulate", "--out-dir", "sim-wide", "--n-samples", "200", "--n-features", "30"]) == 0
assert main([
    "transform",
    "--transform", "pairwise",
    "--matrix", "sim-wide/observed.tsv",
    "--out-dir", "pairwise",
]) == 0
assert main([
    "daa",
    "--matrix", "sim/observed.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "daa",
]) == 0
assert main([
    "ratios",
    "--matrix", "sim/observed.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "ratios",
]) == 0
# Each manifest replays as --config to the same table.
for command in ("daa", "ratios"):
    assert main([
        command,
        "--config", f"{command}/manifest.json",
        "--out-dir", f"{command}-replay",
    ]) == 0
    table = f"{command}.tsv"
    assert Path(f"{command}-replay", table).read_bytes() == Path(command, table).read_bytes()
assert main([
    "learn",
    "--learner", "stepwise",
    "--matrix", "sim/observed.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "learn",
]) == 0
assert main([
    "learn",
    "--learner", "relaxed",
    "--epochs", "50",
    "--matrix", "sim/observed.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "learn-relaxed",
]) == 0
assert main([
    "approx",
    "--latent", "pca",
    "--epochs", "50",
    "--matrix", "sim/observed.tsv",
    "--out-dir", "approx",
]) == 0
assert main([
    "approx",
    "--latent", "pls",
    "--epochs", "50",
    "--matrix", "sim/observed.tsv",
    "--matrix2", "sim/observed.tsv",
    "--out-dir", "approx-pls",
]) == 0
# The centered latent scores, some negative, are a learnable outcome.
assert main([
    "learn",
    "--learner", "relaxed",
    "--epochs", "50",
    "--matrix", "sim/observed.tsv",
    "--outcome", "approx/latent.tsv",
    "--out-dir", "learn-latent",
]) == 0
# Two benchmark runs of one seed write the same table.
for run in ("benchmark", "benchmark-again"):
    assert main([
        "benchmark",
        "--synthetic",
        "--n-samples", "40",
        "--g-t", "8",
        "--g-u", "10",
        "--epochs", "50",
        "--nn-epochs", "50",
        "--hidden-units", "4",
        "--out-dir", run,
    ]) == 0
for name in ("benchmark.json", "benchmark.tsv"):
    assert Path("benchmark", name).read_bytes() == Path("benchmark-again", name).read_bytes()
# Two runs of one seed write the same model.
for run in ("learn-evolutionary", "learn-evolutionary-again"):
    assert main([
        "learn",
        "--learner", "evolutionary",
        "--mode", "slr",
        "--population", "8",
        "--generations", "3",
        "--matrix", "sim/observed.tsv",
        "--outcome", "sim/outcome.tsv",
        "--out-dir", run,
    ]) == 0
models = [
    Path(run, "model.json").read_bytes()
    for run in ("learn-evolutionary", "learn-evolutionary-again")
]
assert models[0] == models[1]
# Three folds of 40 samples are unequal, so the stacked test rows of a
# fold split are padded; two runs of one seed write the same model. Relaxed
# training keeps 8,192 / 40 = 204 epochs of linear predictors per loss
# block, so 450 epochs take two whole blocks and part of a third.
for name, extra in (
    ("stepwise", ["--learner", "stepwise"]),
    ("evolutionary", [
        "--learner", "evolutionary", "--mode", "slr", "--population", "8", "--generations", "3",
    ]),
    ("relaxed", ["--learner", "relaxed", "--epochs", "450"]),
    ("relaxed-slr", ["--learner", "relaxed", "--mode", "slr", "--epochs", "450"]),
):
    runs = [f"learn-{name}-3folds", f"learn-{name}-3folds-again"]
    for run in runs:
        assert main([
            "learn",
            *extra,
            "--cv-folds", "3",
            "--matrix", "sim/observed.tsv",
            "--outcome", "sim/outcome.tsv",
            "--out-dir", run,
        ]) == 0
    for name in ("model.json", "metrics.json"):
        assert Path(runs[0], name).read_bytes() == Path(runs[1], name).read_bytes(), name
# Two network runs of one seed write the same latent and model.
for run in ("approx-nn", "approx-nn-again"):
    assert main([
        "approx",
        "--latent", "nn",
        "--nn-epochs", "50",
        "--hidden-units", "4",
        "--epochs", "50",
        "--seed", "3",
        "--matrix", "sim/observed.tsv",
        "--out-dir", run,
    ]) == 0
for name in ("latent.tsv", "model.json"):
    assert Path("approx-nn", name).read_bytes() == Path("approx-nn-again", name).read_bytes()
# Zeros are replaced per sample, so rescaling every other sample
# of a count matrix with zeros by 1,000 changes no ratio's beta.
counts = np.random.default_rng(0).poisson(3.0, (40, 8)).astype(float)
assert (counts == 0.0).any()
ids = [f"s{i}" for i in range(40)]
scale = np.where(np.arange(40) % 2 == 0, 1000.0, 1.0)[:, None]
write_outcome("zeros-outcome.tsv", ids, np.arange(40) >= 20)
betas = []
for name, values in (("zeros", counts), ("zeros-rescaled", counts * scale)):
    write_matrix(f"{name}.tsv", CompositionMatrix(values, ids, list("abcdefgh")))
    assert main([
        "ratios",
        "--matrix", f"{name}.tsv",
        "--outcome", "zeros-outcome.tsv",
        "--out-dir", f"ratios-{name}",
    ]) == 0
    rows = Path(f"ratios-{name}", "ratios.tsv").read_text().splitlines()[1:]
    betas.append(np.array([float(row.split("\t")[3]) for row in rows]))
gap = np.abs(betas[0] - betas[1]).max()
assert gap <= 1e-9, gap
# Ratios of small counts tie often, so their folds rank by midranks; two
# runs of one seed write the same model and metrics.
for name, extra in (
    ("stepwise", ["--learner", "stepwise"]),
    ("evolutionary", [
        "--learner", "evolutionary", "--mode", "slr", "--population", "8", "--generations", "3",
    ]),
):
    runs = [f"learn-{name}-counts", f"learn-{name}-counts-again"]
    for run in runs:
        assert main([
            "learn",
            *extra,
            "--matrix", "zeros.tsv",
            "--outcome", "zeros-outcome.tsv",
            "--out-dir", run,
        ]) == 0
    for name in ("model.json", "metrics.json"):
        assert Path(runs[0], name).read_bytes() == Path(runs[1], name).read_bytes(), name
# A feature and its triple give a ratio that is log 3 up to rounding, with
# nothing to fit, so the ratio is noted.
sim = read_matrix("sim/observed.tsv")
tripled = np.column_stack([sim.values, 3.0 * sim.values[:, 0]])
ids = sim.feature_ids + ["g1x3"]
write_matrix("tripled.tsv", CompositionMatrix(tripled, sim.sample_ids, ids))
assert main([
    "ratios",
    "--matrix", "tripled.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "ratios-tripled",
]) == 0
rows = Path("ratios-tripled", "ratios.tsv").read_text().splitlines()[1:]
notes = {row.split("\t")[0]: row.split("\t")[6] for row in rows}
assert notes["g1/g1x3"] == "score is constant; nothing to fit", notes["g1/g1x3"]
# The exit codes: a non-numeric cell is a parse error (2), and more folds
# than samples is a failed precondition (3).
Path("not-numeric.tsv").write_text("sample_id\tg1\tg2\ns1\t1.0\tx\ns2\t2.0\t3.0\n")
assert main([
    "transform",
    "--matrix", "not-numeric.tsv",
    "--out-dir", "transform-not-numeric",
]) == 2
assert main([
    "learn",
    "--cv-folds", "41",
    "--matrix", "sim/observed.tsv",
    "--outcome", "sim/outcome.tsv",
    "--out-dir", "learn-too-many-folds",
]) == 3
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded
