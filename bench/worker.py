"""One workload in a fresh process: warm up, run ops in a closed loop, report.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  One
client issues the next op only after the previous one returns, until
`--seconds` have passed (at least one op).  With `--trace 1` every op is
traced.  The result goes to `--result` as JSON, the spans of traced ops to
`--spans` as JSON lines.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

import spans
import workloads
from fatpoints import cli


class Runner:
    """Runs one CLI invocation in process with stdout captured."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = perf_counter()
            if self.tracer is None:
                code = cli.main(argv)
            else:
                with self.tracer.span(spans.CLI):
                    code = cli.main(argv)
            wall = perf_counter() - t0
        return code, buf.getvalue(), wall


def run_op(op, seed, tmp, tracer):
    """One op; an exception counts as a wrong output."""
    if tracer is not None:
        tracer.install()
    try:
        return op(Runner(tracer), seed, tmp)
    except Exception:
        traceback.print_exc()
        return None, ["exception: " + traceback.format_exc(limit=1).strip()]
    finally:
        if tracer is not None:
            tracer.uninstall()


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()
    op = workloads.WORKLOADS[args.workload]

    code, _, _ = Runner()(workloads.WARMUP_ARGV)
    if code != 0:
        print(f"warm-up {' '.join(workloads.WARMUP_ARGV)} exited {code}",
              file=sys.stderr)
        return 1

    tracer = spans.Tracer() if args.trace else None
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.op = len(ops)
        wall, problems = run_op(op, args.seed, args.tmp, tracer)
        ops.append({"op": len(ops), "wall_s": wall, "problems": problems})
        for p in problems:
            print(f"op {len(ops) - 1}: {p}", file=sys.stderr)

    result = {"ops": ops,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **blas_info()}
    if tracer is not None:
        per_op = [spans.layer_metrics([s for s in tracer.spans
                                       if s["op"] == o["op"]])
                  for o in ops]
        # median_low: a value some op measured, so counts stay whole
        layers = {k: statistics.median_low(m[k] for m in per_op)
                  for k in per_op[0]}
        layers["trace.wall_s"] = statistics.median(
            o["wall_s"] for o in ops if o["wall_s"] is not None)
        layers["trace.overhead_s"] = spans.span_cost() * layers["trace.spans"]
        result["layers"] = layers
        with open(args.spans, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
