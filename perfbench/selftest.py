"""Checks of the benchmark itself: tracing wrappers, counters, the command.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run; it takes about a
minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ratiomarker as rm  # noqa: E402
import ratiomarker.glm  # noqa: E402
import ratiomarker.learn.scoring  # noqa: E402
import ratiomarker.learn.stepwise  # noqa: E402
from ratiomarker import cli  # noqa: E402
from ratiomarker.errors import DegenerateDesign  # noqa: E402

import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNTERS = (
    "glm.fits",
    "glm.newton_iters",
    "learn.scoring.candidates",
    "learn.evolutionary.evaluations",
    "metrics.auc_calls",
    "metrics.r2_calls",
)


@pytest.fixture
def work():
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def tracer():
    t = tracer_module.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _binary_case(n=40):
    rng = np.random.default_rng(0)
    y = rm.Outcome.binary(np.repeat([0.0, 1.0], n // 2))
    z = rng.normal(size=n) + y.values
    return z, y


class TestWrappers:
    def test_return_values_are_kept(self, tracer):
        z, y = _binary_case()
        traced = ratiomarker.glm.fit_glm(z, y)
        plain = ratiomarker.glm.fit_glm.__wrapped__(z, y)
        assert traced == plain
        assert tracer.take()["glm.fits"] == 1

    def test_exceptions_are_reraised_unchanged(self, tracer):
        _, y = _binary_case()
        with pytest.raises(DegenerateDesign, match="constant") as info:
            ratiomarker.glm.fit_glm(np.ones(y.n), y)
        assert type(info.value) is DegenerateDesign
        stats = tracer.take()
        assert stats["glm.fit_errors"] == 1
        assert stats["glm.calls"] == 1

    def test_names_imported_into_other_modules_are_rebound(self, tracer):
        wrapped = ratiomarker.learn.scoring.cv_score_values
        assert wrapped.__wrapped__ is not None
        assert ratiomarker.learn.stepwise.cv_score_values is wrapped
        assert ratiomarker.fit_glm is ratiomarker.glm.fit_glm
        assert cli.main.__wrapped__ is not None

    def test_uninstall_restores_the_originals(self):
        before = ratiomarker.learn.stepwise.cv_score_values
        t = tracer_module.Tracer()
        t.install()
        t.uninstall()
        assert ratiomarker.learn.stepwise.cv_score_values is before
        assert not hasattr(before, "__wrapped__")

    def test_functions_of_other_modules_are_left_alone(self, tracer):
        import scipy.special

        assert ratiomarker.glm.expit is scipy.special.expit
        assert "glm.expit" not in tracer.names
        assert "glm.ModelSpec" not in tracer.names

    def test_public_functions_are_listed_at_run_time(self, monkeypatch):
        def score_candidates(values):
            return values

        score_candidates.__module__ = ratiomarker.learn.scoring.__name__
        monkeypatch.setattr(
            ratiomarker.learn.scoring, "score_candidates", score_candidates, raising=False
        )
        t = tracer_module.Tracer()
        t.install()
        try:
            assert ratiomarker.learn.scoring.score_candidates(3) == 3
            assert t.take()["learn.scoring.calls"] == 1
        finally:
            t.uninstall()

    def test_child_spans_are_subtracted_from_self_time(self, tracer):
        z, y = _binary_case()
        folds = ratiomarker.learn.scoring.make_folds(y, 5, np.random.default_rng(0))
        tracer.take()
        first = len(tracer.spans)
        ratiomarker.learn.scoring.cv_score_values(z, y, rm.ModelSpec(link="logistic"), folds)
        stats = tracer.take()
        assert stats["glm.calls"] == 5 and stats["metrics.calls"] == 5
        assert stats["learn.scoring.total_s"] == pytest.approx(
            stats["learn.scoring.self_s"] + stats["glm.total_s"] + stats["metrics.total_s"]
        )
        spans = tracer.spans[first:]
        assert [parent for _, _, _, parent, _ in spans] == [-1] + [first] * 10


def _job(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def test_traced_outputs_are_byte_identical(work):
    jobs, _ = workloads.build(rm, "learn-planted", 5, work / "inputs")
    job = _job(jobs, "relaxed")
    plain = worker._run_job(cli, job, work / "plain", "untraced", None)
    t = tracer_module.Tracer()
    t.install()
    try:
        traced = worker._run_job(cli, job, work / "traced", "traced", t)
    finally:
        t.uninstall()
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain["fingerprints"] and plain["fingerprints"] == traced["fingerprints"]
    assert traced["stats"]["learn.relaxed.grad_calls"] > 0


def test_learn_planted_counters_repeat(work):
    jobs, _ = workloads.build(rm, "learn-planted", 3, work / "inputs")
    jobs = [j for j in jobs if j.name.endswith("-d0")]
    runs = []
    for i in range(2):
        t = tracer_module.Tracer()
        t.install()
        try:
            records = worker._run_phase(cli, jobs, work / f"run{i}", "traced", 0.0, t)
        finally:
            t.uninstall()
        assert all(r["exit_code"] == 0 and r["valid"] for r in records)
        runs.append(records)
    for first, second in zip(*runs):
        for name in COUNTERS:
            assert first["stats"].get(name, 0) == second["stats"].get(name, 0), name
    stepwise = next(r for r in runs[0] if r["kind"] == "stepwise")
    assert stepwise["stats"]["learn.scoring.candidates"] >= 50 * 49 // 2


def test_command_on_ratios_allpairs_traced():
    """The command's last line, and the counters of the all-pairs jobs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ratios-allpairs",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert line["metrics"]["learn.scoring.calls"]["value"] == 0
    record = json.loads((ROOT / ".perfbench_out" / "ratios-allpairs-seed1-trace1.json").read_text())
    n_ratios = 150 * 149 // 2
    for r in record["records"]:
        if r["phase"] == "traced" and r["kind"].startswith("ratios_"):
            assert r["stats"]["glm.fits"] == n_ratios
