"""The benchmark's workloads and the rules that check their outputs.

Each workload op is one or two `fatpoints` CLI invocations run in process
through `fatpoints.cli.main(argv)`.  `run(argv)` executes one invocation and
returns (exit code, captured stdout, wall seconds); an op returns its wall
seconds and a list of problems, empty when the output is right.  The checks
are rules on the output, not recorded bytes, so they hold for any seed.
"""

from __future__ import annotations

import json
import os

WARMUP_ARGV = ["certify", "4", "1x10"]

SWEEP_RANGES = ("10:20", "10:12", "2:4")
SWEEP_GRID = [(d, n, m) for d in range(10, 21) for n in range(10, 13)
              for m in range(2, 5)]


def integral(d: int, n: int, m: int) -> bool:
    """Whether the twist bound 1 + (2mn - 6d)/(n - 9) of (d; m^n), n >= 10,
    is a positive integer: the rows that take the corollary route."""
    return (2 * m * n - 6 * d) % (n - 9) == 0 and (n - 9) + 2 * m * n - 6 * d > 0


SWEEP_INTEGRAL = sum(1 for g in SWEEP_GRID if integral(*g))

NONSPECIAL = "nonspecial-certified"
SPECIAL_SUSPECTED = "special-suspected"


def chi(d: int, mults) -> int:
    """Euler characteristic of (d; mults), computed here independently."""
    return (d + 1) * (d + 2) // 2 - sum(m * (m + 1) // 2 for m in mults)


def _json(out: str, problems: list):
    try:
        return json.loads(out)
    except ValueError as e:
        problems.append(f"stdout is not JSON: {e}")
        return None


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _check_certificate(code, out, d, mults, want_code, want_verdict,
                       fields) -> list:
    problems = []
    _expect(problems, "exit code", code, want_code)
    cert = _json(out, problems)
    if not isinstance(cert, dict):
        if cert is not None:
            problems.append("certificate is not a JSON object")
        return problems
    _expect(problems, "verdict", cert.get("verdict"), want_verdict)
    _expect(problems, "system", cert.get("system", {}).get("d"), d)
    _expect(problems, "mults", cert.get("system", {}).get("mults"), list(mults))
    _expect(problems, "chi", cert.get("chi"), chi(d, mults))
    for key, want in fields.items():
        _expect(problems, key, cert.get(key), want)
    return problems


def check_direct38(code, out) -> list:
    """(38; 12^10) is nonspecial with h0 = chi = 0: certified, exit 0."""
    return _check_certificate(code, out, 38, [12] * 10, 0, NONSPECIAL,
                              {"h0": 0, "h1": 0})


def check_special40(code, out) -> list:
    """(40; 20^5) is twice the conic through 5 points, h0 = 1 > chi = -189.

    Sampling can only suspect a deficit, so the verdict is special-suspected
    with exit 2; a nonspecial-certified here is a false certificate.
    """
    return _check_certificate(code, out, 40, [20] * 5, 2, SPECIAL_SUSPECTED,
                              {"h0_bound": 1})


def check_sweep(cold_code, cold_out, resume_code, resume_out,
                store_records) -> list:
    """The README grid: 99 rows in grid order, all nonspecial with
    h0 = max(v + 1, 0), 22 of them on the corollary route.

    Homogeneous systems with at least 10 points and m <= 42 are nonspecial
    (Dumnicki and Jarnicki), so any other verdict is wrong.  The resume
    pass must print the cold pass's bytes, and the store must hold one
    record per grid point.
    """
    problems = []
    _expect(problems, "cold exit code", cold_code, 0)
    _expect(problems, "resume exit code", resume_code, 0)
    if resume_out != cold_out:
        problems.append("resume output differs from the cold pass")
    _expect(problems, "store records", store_records, len(SWEEP_GRID))
    rows = _json(cold_out, problems)
    if not isinstance(rows, list):
        if rows is not None:
            problems.append("sweep output is not a JSON list")
        return problems
    _expect(problems, "row count", len(rows), len(SWEEP_GRID))
    try:
        keys = [(r["d"], r["n"], r["m"]) for r in rows]
        if keys != SWEEP_GRID[:len(keys)]:
            problems.append("rows are not in grid order")
        for r in rows:
            where = f"row ({r['d']}; {r['m']}^{r['n']})"
            v = chi(r["d"], [r["m"]] * r["n"]) - 1
            _expect(problems, f"{where} v", r["v"], v)
            _expect(problems, f"{where} verdict", r["verdict"], NONSPECIAL)
            _expect(problems, f"{where} h0", r["h0"], max(v + 1, 0))
        _expect(problems, "corollary rows",
                sum(1 for r in rows if r["integral"] is True), SWEEP_INTEGRAL)
    except (KeyError, TypeError) as e:
        problems.append(f"malformed sweep row: {e!r}")
    return problems


def _certify_argv(d: int, mults: str, seed: int) -> list:
    return ["certify", str(d), mults, "--seed", str(seed), "--format", "json"]


def op_direct38(run, seed: int, tmp: str):
    code, out, wall = run(_certify_argv(38, "12x10", seed))
    return wall, check_direct38(code, out)


def op_special40(run, seed: int, tmp: str):
    code, out, wall = run(_certify_argv(40, "20x5", seed))
    return wall, check_special40(code, out)


def op_sweep(run, seed: int, tmp: str):
    """Cold pass on a fresh store, then the same invocation resumed on it."""
    store = os.path.join(tmp, "store.jsonl")
    if os.path.exists(store):
        os.remove(store)
    argv = ["sweep", *SWEEP_RANGES, "--seed", str(seed), "--format", "json",
            "--store", store]
    cold_code, cold_out, cold_wall = run(argv)
    resume_code, resume_out, resume_wall = run(argv)
    with open(store) as f:
        records = sum(1 for line in f if line.strip())
    os.remove(store)
    return cold_wall + resume_wall, check_sweep(cold_code, cold_out,
                                                resume_code, resume_out,
                                                records)


WORKLOADS = {
    "direct-38": op_direct38,
    "special-40": op_special40,
    "sweep-grid": op_sweep,
}
