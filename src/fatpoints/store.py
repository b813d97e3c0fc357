"""Append-only certificate store: one JSON record per line.

A record states its run once, in its certificate, and answers only the
invocation of its own command and its certificate's system, prime, seed
and trials, a plain tuple under which it is filed on load and on put; so
is a record of schema 1 or 2, its config and key unread.  A record whose
run fields are not of the JSON types to_dict writes is filed under none,
so 1, 1.0, "1" and true stay apart with no JSON encoding.  Re-running an
identical invocation is thus a lookup, not a recomputation.
CertificateStore.certificate is the one look-up-or-compute: it serves the
stored certificate if it is one this code would sign (_checked), and
otherwise computes one and appends its record at once; of two lines for
one invocation, the later wins on load.  A last line without its newline
was torn by a crash mid-write: loading drops it with a warning on stderr
and the first append cuts it off.  Any other line that is not a record
naming an invocation is an error.  The first append of a run opens one
append handle, which close() (or leaving a `with` block) closes; each
record is written and flushed before put returns.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

from . import __version__, elliptic, linsys
from .certificate import Certificate, canonical_json, certificate_from_dict
from .linsys import GENERIC, FatPointSystem

STORE_SCHEMA_VERSION = 3


def invocation(command, d, mults, tags, prime, seed, trials) -> tuple:
    """The key of a run: mults and tags tuples, prime and seed str."""
    return command, d, mults, tags, prime, seed, trials


def _answered(rec: dict) -> Optional[tuple]:
    """The invocation rec answers, None if a run field's type is not
    to_dict's; LookupError or TypeError if rec names no invocation."""
    command, c = rec["command"], rec["certificate"]
    s, prime, seed, trials = c["system"], c["prime"], c["seed"], c["trials"]
    if (type(command) is type(prime) is type(seed) is str
            and type(trials) is int and type(s) is dict and len(s) == 3):
        d, mults, tags = s.get("d"), s.get("mults"), s.get("tags")
        if (type(d) is int and type(mults) is type(tags) is list
                and {*map(type, mults)} <= {int} and {*map(type, tags)} <= {str}):
            return invocation(command, d, tuple(mults), tuple(tags), prime,
                              seed, trials)
    return None


def _sampled(cert: Certificate) -> FatPointSystem:
    """The system cert's route samples: the system itself on a direct
    route, and on the degeneration route the reduced system of the
    recorded twist, which must be one theorem_upper_bound accepts (else
    elliptic.ReductionError)."""
    if cert.twist is None:
        return cert.system
    plan = elliptic.reduce(cert.system, *cert.twist)
    elliptic.check_admissible(plan)
    return plan.reduced


def _route_twist(command: str, s: FatPointSystem) -> Optional[tuple]:
    """The twist a run of command writes for s: on s = (d; m^n), all
    generic, sweep writes (n, elliptic.corollary_twist(d, n, m)) when that
    is not None; otherwise, and on certify always, no twist."""
    n, m = s.npoints, s.mults[0] if s.mults else 0
    if (command == "sweep" and s.mults == (m,) * n
            and s.tags == (GENERIC,) * n):
        mu = elliptic.corollary_twist(s.d, n, m)
        if mu is not None:
            return n, mu
    return None


def _checked(rec: dict, system: FatPointSystem) -> Optional[Certificate]:
    """The record's certificate, built on system (the request's, equal to
    the record's by its key), if this code would sign it; else None.

    It must (a) parse, with int h0_bound and report counts and ranks (not
    true or 1.0), and derive again to the same JSON object, which fixes
    the schema, the method, chi, h0, h1, the verdict, every report's
    derived fields and the prime and seed of every trial, and carry the
    twist the record's command writes (_route_twist), which fixes its
    route; (b) have reports that count the monomials and conditions of
    the system its route samples (_sampled), and as h0_bound their least
    h0_sample, or with no evidence the linsys.exact_h0 of that system;
    evidence is only what interp.least_h0 writes: none for a system
    exact_h0 decides, else 1 to `trials` reports, none below that system's
    linsys.lower_h0, none but the last at it, and fewer than `trials` only
    when the last is; and (c) have h0_bound >= lower_h0 of its own system.
    No rule redoes a rank, so a forged rank whose derived fields all agree
    and that reads no h0 below the floor still passes.
    """
    try:
        cert = certificate_from_dict(rec["certificate"], system)
        if (cert.to_dict() != rec["certificate"]
                or cert.twist != _route_twist(rec["command"], system)):
            return None
        sampled = _sampled(cert)
    except (LookupError, TypeError, ValueError, ArithmeticError,
            elliptic.ReductionError):
        return None
    # equal to its effective part's, which interp.h0_at_sample reports
    counts = (linsys.monomial_count(sampled.d), linsys.conditions_count(sampled))
    reports = [r for (_, _, r) in cert.evidence]
    if any((r.monomials, r.conditions) != counts for r in reports):
        return None
    least = linsys.exact_h0(sampled)
    if reports:
        # least_h0's trials: up to the first at the floor, none below it
        floor = linsys.lower_h0(sampled)
        samples = [r.h0_sample for r in reports]
        ran = samples.index(floor) + 1 if floor in samples else cert.trials
        if (least is not None or min(samples) < floor
                or len(samples) != min(ran, cert.trials)):
            return None
        least = min(samples)
    ok = cert.h0_bound == least and least >= linsys.lower_h0(system)
    return cert if ok else None


class CertificateStore:
    """The store at path, loaded; use it in a `with` block (or close() it)
    so that the append handle its first put opens is closed."""

    def __init__(self, path: str):
        self.path = path
        self._by_invocation = {}  # invocation a record answers -> record
        # byte offset of a torn last line, cut off before the first append
        self._torn_at = None
        self._out = None  # the append handle, from the first append on
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            body, _, torn = data.rpartition(b"\n")
            if torn:
                self._torn_at = len(data) - len(torn)
                print(f"warning: dropped torn last line of store {path} "
                      f"({len(torn)} bytes)", file=sys.stderr)
            for n, line in enumerate(body.decode().splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    if (key := _answered(rec)) is not None:
                        self._by_invocation[key] = rec
                except ValueError as e:
                    raise ValueError(f"store {path} line {n} is corrupt: {e}") from None
                except (LookupError, TypeError):
                    raise ValueError(f"store {path} line {n} is corrupt: not an "
                                     "object with command and certificate "
                                     "system, prime, seed and trials") from None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._out is not None:
            self._out.close()
            self._out = None

    def certificate(self, command: str, run: tuple, compute) -> Certificate:
        """The certificate of this run of command, (system, prime, seed,
        trials): the stored one if it passes _checked, else compute()'s,
        appended at once (an error that compute raises stores nothing)."""
        system, prime, seed, trials = run
        key = invocation(command, system.d, system.mults, system.tags,
                         str(prime), str(seed), trials)
        cert = self.lookup_certificate(key, system)
        if cert is None:
            cert = compute()
            self.put(command, cert, key)
        return cert

    def lookup_certificate(self, key, system) -> Optional[Certificate]:
        """The certificate filed under key, a run on system, if _checked."""
        rec = self._by_invocation.get(key)
        return None if rec is None else _checked(rec, system)

    def put(self, command: str, cert: Certificate, key: tuple) -> None:
        """Append cert's record, of a run of command, filed under key, the
        invocation it answers (as the lookup that missed built it from the
        same run), and flush it so that a later reader, or a rerun after a
        kill, sees it; the first put cuts a torn tail."""
        rec = {
            "schema_version": STORE_SCHEMA_VERSION,
            "command": command,
            "certificate": cert.to_dict(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__,
        }
        self._by_invocation[key] = rec
        if self._out is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            self._out = open(self.path, "a")
        self._out.write(canonical_json(rec) + "\n")
        self._out.flush()
