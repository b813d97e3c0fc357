"""Command-line interface.

Subcommands: expdim, certify, reduce, bound, sweep.  Exit codes: 0 when the
question was decided (nonspecial-certified / special-exact), 2 when the
outcome is suspected/inconclusive, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from . import certificate, elliptic, field, interp, linsys
from .field import DEFAULT_PRIME
from .linsys import GENERIC, ON_CUBIC, FatPointSystem
from .store import CertificateStore

# OpenBLAS reads this when numpy is first imported, which only a matrix
# run does.  gfmat's products are tiles of about 2^18 entries, which a
# second thread does not speed up; it only makes each rank wait for the
# busier of two CPUs.  A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

DEFAULT_MAX_MATRIX_ENTRIES = 4_000_000

EXIT_DECIDED = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2

# the package's own errors: a usage error in main, a row's verdict in sweep
PACKAGE_ERRORS = (certificate.ConfigError, certificate.SamplingError,
                  field.GFMatError, elliptic.ReductionError)


class UsageError(Exception):
    pass


def parse_mults(text: str):
    """Multiplicity vector syntax: comma list of M or MxK blocks, e.g. 4x10 or 3,2x4,1."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m, x, k = part.partition("x")
        try:
            m, k = int(m), int(k) if x else 1
        except ValueError:
            raise ValueError(f"cannot read multiplicity block {part!r}: "
                             "want M or MxK") from None
        if k < 0:
            raise ValueError(f"negative repeat count in {part!r}")
        out.extend([m] * k)
    return tuple(out)


def nonnegative_int(text: str) -> int:
    """A flag's value that must be a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def parse_range(text: str):
    """A single value 'v' or an inclusive range 'lo:hi'."""
    try:
        if ":" in text:
            lo, hi = (int(v) for v in text.split(":", 1))
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(
            f"cannot read range {text!r}: want V or LO:HI") from None


def _check_runconfig(args, max_degree: int) -> None:
    if args.trials < 1:
        raise UsageError(f"--trials {args.trials} must be at least 1")
    field.check_modulus(args.prime, "--prime")
    if args.prime <= max(2 * max_degree, 3):
        raise UsageError(f"--prime {args.prime} too small for degree {max_degree}")


def _emit(obj: dict, lines, fmt: str) -> None:
    if fmt == "json":
        print(certificate.canonical_json(obj))
    else:
        for line in lines:
            print(line)


def _store(args):
    """A context giving the --store's CertificateStore, closed on exit,
    or None without --store; an empty path is a usage error."""
    if args.store == "":
        raise UsageError("--store needs a path, not an empty string")
    return CertificateStore(args.store) if args.store else contextlib.nullcontext()


def _certified(st, command: str, s: FatPointSystem, args, compute):
    """compute()'s certificate, or with a store the one it serves for this
    run of command on s (CertificateStore.certificate)."""
    if st is None:
        return compute()
    return st.certificate(command, (s, args.prime, args.seed, args.trials),
                          compute)


def cmd_expdim(args) -> int:
    mults = parse_mults(args.mults)
    s = FatPointSystem(args.d, mults)
    obj = {"d": s.d, "mults": list(mults), "chi": linsys.chi(s),
           "v": linsys.expected_dim(s),
           "monomials": linsys.monomial_count(s.d),
           "conditions": linsys.conditions_count(s)}
    _emit(obj, [f"system        {s}",
                f"chi           {obj['chi']}",
                f"expected dim  {obj['v']}",
                f"monomials     {obj['monomials']}",
                f"conditions    {obj['conditions']}"], args.format)
    return EXIT_DECIDED


def cmd_certify(args) -> int:
    mults = parse_mults(args.mults)
    tag = ON_CUBIC if args.placement == "cubic" else GENERIC
    s = FatPointSystem(args.d, mults, (tag,) * len(mults))
    _check_runconfig(args, max(args.d, 0))
    with _store(args) as st:
        cert = _certified(st, "certify", s, args, lambda:
                          interp.certify(s, args.trials, args.prime, args.seed))
    _emit(cert.to_dict(),
          [f"system   {s}  ({args.placement})",
           f"verdict  {cert.verdict}",
           f"method   {cert.method}",
           f"chi      {cert.chi}",
           f"h0       {cert.h0}",
           f"h1       {cert.h1}"], args.format)
    return EXIT_DECIDED if cert.decided else EXIT_UNDECIDED


def cmd_reduce(args) -> int:
    s = linsys.homogeneous_system(args.d, args.n, args.m)
    bound = elliptic.mu_bound(args.d, args.n, args.m)
    mu = args.mu if args.mu is not None else max(int(bound), 0)
    plan = elliptic.reduce(s, args.n, mu)
    integral = bound.denominator == 1
    red = plan.reduced
    warn = None
    exact = linsys.exact_h0(red)
    if exact is not None:
        h1 = exact - plan.chi_reduced
        if certificate.is_special(exact, h1):
            warn = f"reduced system is special (h0 = h1 = {exact})" if exact == h1 \
                else f"reduced system is special (h0 = {exact}, h1 = {h1})"
    obj = {"d": args.d, "n": args.n, "m": args.m, "mu": mu,
           "mu_bound": str(bound), "mu_bound_integral": integral,
           "reduced": red.to_dict(),
           "chi_original": plan.chi_original, "chi_reduced": plan.chi_reduced,
           "chi_S": plan.chi_S, "hypothesis": plan.hypothesis,
           "warning": warn}
    lines = [f"original      {s}",
             f"mu            {mu}  (bound {bound}, integral: {integral})",
             f"reduced       {red}  (first {plan.k} points on the cubic)",
             f"chi original  {plan.chi_original}",
             f"chi reduced   {plan.chi_reduced}",
             f"chi ruled     {plan.chi_S}",
             f"hypothesis    {plan.hypothesis}"]
    if warn:
        lines.append(f"warning       {warn}")
    _emit(obj, lines, args.format)
    return EXIT_DECIDED


def cmd_bound(args) -> int:
    _check_runconfig(args, max(args.d, 0))
    best, best_mu = elliptic.best_bound(
        args.d, args.n, args.m, args.max_matrix_entries,
        args.trials, args.prime, args.seed)
    s = linsys.homogeneous_system(args.d, args.n, args.m)
    if best is None:
        _emit({"d": args.d, "n": args.n, "m": args.m, "h0_bound": None,
               "status": "unbounded-by-this-method"},
              ["unbounded-by-this-method"], args.format)
        return EXIT_UNDECIDED
    _emit({"d": args.d, "n": args.n, "m": args.m, "h0_bound": best,
           "mu": best_mu, "chi": linsys.chi(s)},
          [f"system    {s}",
           f"h0 bound  {best}  (at twist mu = {best_mu})"], args.format)
    return EXIT_DECIDED


SWEEP_FIELDS = ("d", "n", "m", "v", "mu", "integral", "verdict", "h0")


def _sweep_row(s: FatPointSystem, n: int, m: int, twist, verdict: str,
               cert) -> dict:
    """One sweep row of s = (d; m^n): mu is the twist bound (empty below 10
    points), integral whether the row took the corollary's route (twist
    set: mu a positive integer, d, m >= 1), not whether mu is an integer,
    and h0 the certificate's h0_bound, its h0 whenever that is pinned."""
    mu = ""
    if n > 9:  # str(elliptic.mu_bound(s.d, n, m)), with no Fraction
        num, den = elliptic.mu_terms(s.d, n, m)
        g = math.gcd(num, den)
        mu = str(num // g) if g == den else f"{num // g}/{den // g}"
    return {"d": s.d, "n": n, "m": m, "v": linsys.expected_dim(s), "mu": mu,
            "integral": twist is not None,
            "verdict": verdict, "h0": None if cert is None else cert.h0_bound}


def _sweep_item(s: FatPointSystem, twist, args):
    """The certificate of the homogeneous system s: by the corollary when
    its twist is not None, else directly."""
    if twist is not None:
        return elliptic.corollary_nonspecial(s, twist, trials=args.trials,
                                             p=args.prime, seed=args.seed)
    return interp.certify(s, trials=args.trials, p=args.prime, seed=args.seed,
                          max_cells=args.max_matrix_entries)


def cmd_sweep(args) -> int:
    """Rows in grid order; each computed certificate is stored as soon as it
    is known, so an interrupted sweep resumes after its last finished row."""
    ds, ns, ms = parse_range(args.d_range), parse_range(args.n_range), parse_range(args.m_range)
    items = [(d, n, m) for d in ds for n in ns for m in ms]
    _check_runconfig(args, max((d for d, _, _ in items), default=0))
    rows = []
    with _store(args) as st:
        for d, n, m in items:
            s = linsys.homogeneous_system(d, n, m)
            twist = elliptic.corollary_twist(d, n, m)
            try:
                cert = _certified(st, "sweep", s, args,
                                  lambda: _sweep_item(s, twist, args))
                verdict = cert.verdict
            except interp.MatrixTooLarge:
                cert, verdict = None, "skipped-too-large"
            except PACKAGE_ERRORS as e:
                # the package's own per-row failures are recorded, not fatal
                cert, verdict = None, f"error: {e}"
            rows.append(_sweep_row(s, n, m, twist, verdict, cert))

    if args.format == "json":
        print(certificate.canonical_json(rows))
    else:
        print(",".join(SWEEP_FIELDS))
        for r in rows:
            print(",".join("" if r[k] is None else str(r[k]) for k in SWEEP_FIELDS))
    return EXIT_DECIDED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: it holds no per-call state."""
    flags = {
        "--prime": dict(type=int, default=DEFAULT_PRIME),
        "--seed": dict(type=int, default=0),
        "--trials": dict(type=int, default=interp.DEFAULT_TRIALS),
        "--store": dict(type=str, default=None,
                        help="newline-delimited JSON certificate store"),
        "--max-matrix-entries": dict(type=nonnegative_int,
                                     default=DEFAULT_MAX_MATRIX_ENTRIES),
    }
    run = ("--prime", "--seed", "--trials")

    ap = argparse.ArgumentParser(
        prog="fatpoints",
        description="dimension bounds and certificates for plane-curve "
                    "linear systems with multiple base points")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, *names, formats=("table", "json"), **kw):
        """A subcommand taking --format and only the named flags it reads."""
        p = sub.add_parser(name, **kw)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--format", choices=formats, default="table")
        return p

    p = add_parser("expdim", help="chi, expected dimension, counts")
    p.add_argument("d", type=int)
    p.add_argument("mults", nargs="?", default="")
    p.set_defaults(func=cmd_expdim)

    p = add_parser("certify", *run, "--store", help="certify (non)speciality by sampling")
    p.add_argument("d", type=int)
    p.add_argument("mults")
    p.add_argument("--placement", choices=("generic", "cubic"),
                   default="generic")
    p.set_defaults(func=cmd_certify)

    p = add_parser("reduce", help="specialize points to a cubic and twist")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--mu", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    p = add_parser("bound", *run, "--max-matrix-entries",
                   help="best h0 upper bound over twists")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_bound)

    p = add_parser("sweep", *run, "--store", "--max-matrix-entries",
                   formats=("table", "json", "csv"),
                   help="batch run over (d, n, m) ranges")
    p.add_argument("d_range")
    p.add_argument("n_range")
    p.add_argument("m_range")
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) + PACKAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
