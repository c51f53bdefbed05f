"""One workload run in a fresh process.

Started by run.py, one process at a time. It imports ``ratiomarker`` from
the checkout's ``src/``, writes the workload's inputs, then runs the
workload's jobs as a closed loop: one client, one in-process
``ratiomarker.cli.main(argv)`` call at a time, the next job only after the
last one finished. It prints one JSON object as the last line of standard
output.

With ``--trace 1`` the run has two phases: untraced jobs for the first half
of the time, then traced jobs for the second half, so the tracing overhead
is measured in one process.
"""

import argparse
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fingerprints(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except manifest.json, whose timing varies."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def _run_job(cli, job, out_dir: Path, phase: str, tracer, span_job: str = "") -> dict:
    argv = [*job.argv, "--out-dir", str(out_dir)]
    sink = io.StringIO()
    error = ""
    if tracer is not None:
        tracer.job = span_job
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    record = {
        "job": job.name,
        "kind": job.kind,
        "phase": phase,
        "argv": argv,
        "seconds": seconds,
        "cpu_s": cpu_s,
        "exit_code": code,
        "valid": False,
        "quality": False,
        "fingerprints": {},
        "decisions": {},
        "stats": tracer.take() if tracer is not None else {},
    }
    if code != 0:
        record["error"] = error or sink.getvalue()[-2000:]
    else:
        try:
            record["valid"], record["quality"], record["decisions"] = job.check(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["error"] = f"output check failed: {exc!r}"
        record["fingerprints"] = _fingerprints(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def _run_phase(cli, jobs, work: Path, phase: str, seconds: float, tracer=None) -> list[dict]:
    """Closed loop over the job list until `seconds` pass; every job runs at least once."""
    records = []
    done = set()
    deadline = time.monotonic() + seconds
    while True:
        for job in jobs:
            if time.monotonic() >= deadline and len(done) == len(jobs):
                return records
            # One out-dir per job, so every repeat runs the same argv.
            out_dir = work / phase / job.name
            span_job = f"{phase}:{job.name}:{len(records)}"
            records.append(_run_job(cli, job, out_dir, phase, tracer, span_job))
            done.add(job.name)


def _medians(records: list[dict], value, key="job") -> dict[str, float]:
    """Median of `value` per job; one pass over the job list costs their sum."""
    groups = defaultdict(list)
    for r in records:
        groups[r[key]].append(value(r))
    return {name: median(values) for name, values in groups.items()}


def _layer_metrics(traced: list[dict], tracer_module) -> dict[str, float]:
    keys = {k for r in traced for k in r["stats"]} | set(tracer_module.COUNTERS)
    for layer in tracer_module.LAYERS:
        keys |= {f"{layer}.calls", f"{layer}.self_s", f"{layer}.total_s"}
    m = {
        key: sum(_medians(traced, lambda r: r["stats"].get(key, 0.0)).values())
        for key in keys
    }
    candidates = m["learn.scoring.candidates"]
    lookups = m["learn.evolutionary.lookups"]
    m["learn.scoring.useful_ratio"] = (
        (candidates - m["learn.scoring.inf_candidates"]) / candidates if candidates else 0.0
    )
    m["learn.scoring.us_per_candidate"] = (
        1e6 * m["learn.scoring.candidate_s"] / candidates if candidates else 0.0
    )
    m["learn.evolutionary.cache_hit_ratio"] = (
        1.0 - m["learn.evolutionary.evaluations"] / lookups if lookups else 0.0
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import ratiomarker as rm
    from ratiomarker import cli

    if not Path(rm.__file__).resolve().is_relative_to(src):
        print(f"error: ratiomarker imported from {rm.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracer_module
    import workloads

    work = Path(args.work_dir)
    jobs, info = workloads.build(rm, args.workload, args.seed, work / "inputs")
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {
        "setup_s": setup_s,
        "workload_info": info,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    metrics = {}
    untraced = _run_phase(cli, jobs, work, "untraced", args.seconds / (2 if args.trace else 1))
    metrics["wall_s"] = sum(_medians(untraced, lambda r: r["seconds"]).values())
    metrics["slowest_job_s"] = max(_medians(untraced, lambda r: r["seconds"], "kind").values())
    records = untraced
    if args.trace:
        tracer = tracer_module.Tracer()
        tracer.install()
        origin = time.perf_counter()
        try:
            traced = _run_phase(cli, jobs, work, "traced", args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans, origin)
        metrics.update(_layer_metrics(traced, tracer_module))
        metrics["process.cpu_s"] = sum(_medians(untraced, lambda r: r["cpu_s"]).values())
        traced_wall = sum(_medians(traced, lambda r: r["seconds"]).values())
        metrics["trace_overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        records = untraced + traced
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Repeats of one job, traced or not, must write byte-identical outputs.
    fingerprints = defaultdict(set)
    for r in records:
        fingerprints[r["job"]].add(json.dumps(r["fingerprints"], sort_keys=True))
    result["deterministic"] = all(len(v) == 1 for v in fingerprints.values())
    result["metrics"] = metrics
    result["records"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
