"""Self-test of the output checks on canned outputs.

Right outputs must pass; each canned wrong output must be counted wrong:
a nonspecial-certified for (40; 20^5) (the false-certificate shape of a
field overflow), a sweep one row short, and a resume pass that differs
from the cold pass.  run.py runs this before every measurement; it can
also be run alone:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys

import workloads as w


def _cert(verdict, d, mults, **fields) -> str:
    return json.dumps({"verdict": verdict, "chi": w.chi(d, mults),
                       "system": {"d": d, "mults": mults}, **fields})


def _sweep(grid) -> str:
    rows = []
    for d, n, m in grid:
        v = w.chi(d, [m] * n) - 1
        rows.append({"d": d, "n": n, "m": m, "v": v,
                     "integral": w.integral(d, n, m),
                     "verdict": w.NONSPECIAL, "h0": max(v + 1, 0)})
    return json.dumps(rows)


def cases():
    """(label, should_pass, problems) for every canned output."""
    sweep = _sweep(w.SWEEP_GRID)
    full = len(w.SWEEP_GRID)
    resumed = json.loads(sweep)
    resumed[5]["h0"] += 1
    return [
        ("direct-38 right", True, w.check_direct38(
            0, _cert(w.NONSPECIAL, 38, [12] * 10, h0=0, h1=0))),
        ("special-40 right", True, w.check_special40(
            2, _cert(w.SPECIAL_SUSPECTED, 40, [20] * 5, h0_bound=1))),
        ("sweep-grid right", True, w.check_sweep(0, sweep, 0, sweep, full)),
        ("special-40 false certificate", False, w.check_special40(
            0, _cert(w.NONSPECIAL, 40, [20] * 5, h0_bound=0, h0=0, h1=189))),
        ("sweep-grid short", False, w.check_sweep(
            0, _sweep(w.SWEEP_GRID[:-1]), 0, _sweep(w.SWEEP_GRID[:-1]),
            full - 1)),
        ("sweep-grid differing resume", False, w.check_sweep(
            0, sweep, 0, json.dumps(resumed), full)),
    ]


def run() -> list:
    """Failures of the self-test, empty when the checks behave.

    An op counts in wrong_ratio exactly when its check reports a problem.
    """
    failures = []
    for label, should_pass, problems in cases():
        if should_pass and problems:
            failures.append(f"{label}: flagged {problems}")
        elif not should_pass and not problems:
            failures.append(f"{label}: not counted wrong")
    return failures


if __name__ == "__main__":
    failures = run()
    for f in failures:
        print(f, file=sys.stderr)
    print("checker self-test", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)
