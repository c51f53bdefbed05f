"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload learn-planted --seed 0 --seconds 20 --trace 0

Each run starts fresh worker processes one after another, never two at
once: a few that only set up (import ``ratiomarker`` from ``src/`` and write
the inputs), whose set-up times give ``setup_s`` its median, and then one
that sets up and runs the workload's jobs for ``--seconds``. The BLAS and
OpenMP thread counts are pinned in the workers' environment only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics listed in BENCHMARK.json, ``--trace 1`` the per-layer
ones. A record of every job (times, output fingerprints, decisions) goes to
``.perfbench_out/``; a traced run also writes its spans there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 2
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, work: Path, deadline: float, extra: list[str]) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work), "--started", repr(started), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _summary(args, result: dict, record_path: Path) -> dict:
    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if r["exit_code"] != 0)
    valid = sum(1 for r in records if r["valid"])
    quality = sum(1 for r in records if r["quality"])
    correct = failed == 0 and valid == attempted and result["deterministic"]
    values = dict(result["metrics"], setup_s=result["setup_s"])
    metrics = {}
    for m in _declared_metrics(args.trace):
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    versions = result["versions"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  (nproc {os.cpu_count()}, threads {THREADS}, "
          f"python {versions['python']}, numpy {versions['numpy']}, scipy {versions['scipy']})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} frac ({failed}/{attempted})")
    print(f"  {'quality_pass_frac':<40} {quality / attempted:>14.6g} frac ({quality}/{attempted})")
    if not correct:
        for r in records:
            if r["exit_code"] != 0 or not r["valid"]:
                print(f"  FAILED {r['job']}: {r.get('error', 'invalid output')}")
        if not result["deterministic"]:
            print("  FAILED repeats of a job wrote different outputs")
    print(f"  record: {record_path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ratiomarker benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "ratiomarker" / "__init__.py").is_file():
        print(f"error: no ratiomarker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [
            _worker(args, work / f"setup{i}", deadline, ["--setup-only"])["setup_s"]
            for i in range(SETUP_ONLY_RUNS)
        ]
        extra = ["--spans", str(out / f"{stem}.spans.tsv")] if args.trace else []
        result = _worker(args, work / "main", deadline, extra)
        setups.append(result["setup_s"])
        result["setup_runs_s"] = setups
        result["setup_s"] = median(setups)
        result["env"] = {"nproc": os.cpu_count(), "threads": THREADS,
                         "thread_vars": list(THREAD_VARS)}
        record_path = out / f"{stem}.json"
        record_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        line = _summary(args, result, record_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
