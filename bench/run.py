"""The fatpoints benchmark: one workload, checked outputs, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload direct-38 --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each one is there):

    direct-38   certify 38 12x10     780x780 direct rank, nonspecial
    special-40  certify 40 20x5      1050x861 rank with deficit 1
    sweep-grid  sweep 10:20 10:12 2:4 on a fresh store, then resumed

The workload runs in a fresh worker process (bench/worker.py) that imports
the package from this checkout's `src`, warms up with `certify 4 1x10` and
runs ops in a closed loop with one client for `--seconds` (at least one
op).  `--seed` is passed to the CLI as `--seed`.  Every op's output is
checked by rule (bench/workloads.py); the checks themselves are tested on
canned wrong outputs first (bench/selftest.py).

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median op wall time), setup_s (median time for a fresh interpreter
to import fatpoints and build the CLI parser) and peak_rss_mb (the worker's
peak resident memory).  With `--trace 1` it reports the per-layer metrics
of bench/spans.py from traced ops, plus the tracing overhead.  Metric names
and units are those BENCHMARK.json declares.  A results file with the
machine context and every op goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
RUN_LIMIT_S = 170.0
SETUP_CODE = "import fatpoints.cli as c; c.build_parser()"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def fail(msg: str, code: int = 1):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env(tmp: Path) -> dict:
    """The checkout's package only, `--threads` at its default, temp files
    inside the checkout; BLAS and OpenMP settings are left as they are."""
    env = dict(os.environ)
    env.pop("FATPOINTS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"importing fatpoints failed (exit {proc.returncode})")
        if i > 0:  # the first start also writes bytecode caches
            times.append(dt)
    return statistics.median(times)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fatpoints").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_context(args, worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": {"name": worker.get("blas_name"),
                 "version": worker.get("blas_version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (SRC / "fatpoints" / "cli.py").is_file():
        fail(f"no fatpoints package under {SRC}", 2)
    failures = selftest.run()
    if failures:
        fail("checker self-test failed: " + "; ".join(failures), 3)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    tmp = OUT / "tmp" / stamp
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    try:
        setup_s = None if args.trace else measure_setup(env)
        result_path = tmp / "worker.json"
        spans_path = OUT / f"{stamp}.spans.jsonl"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(tmp), "--result", str(result_path),
               "--spans", str(spans_path)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            fail(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}")
        worker = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = worker["ops"]
    failed = sum(1 for o in ops if o["problems"])
    if args.trace:
        values = worker["layers"]
    else:
        walls = [o["wall_s"] for o in ops if o["wall_s"] is not None]
        values = {"wall_s": statistics.median(walls) if walls else None,
                  "setup_s": setup_s, "peak_rss_mb": worker["peak_rss_mb"]}
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    summary = {"correct": failed == 0, "attempted": len(ops),
               "failed": failed, "metrics": metrics}

    report = {"context": machine_context(args, worker), **summary,
              "wrong_ratio": failed / len(ops), "ops": ops}
    report_path = OUT / f"{stamp}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']!s:>24} {m['unit']}")
    print(f"{'wrong_ratio':28s} {failed / len(ops):>24} ratio "
          f"({failed} of {len(ops)} ops)")
    print(f"results: {report_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
