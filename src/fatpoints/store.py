"""Append-only certificate store: one JSON record per line.

An invocation (command, input system, run config) has one canonical
encoding (invocation, by certificate.canonical_json).  On load, a record
is filed under the invocation its own command, certificate system and
config encode to (_answered), and on put under the same string, which the
lookup before it encoded once; so it answers only that one, and
re-running an identical invocation is a lookup, not a recomputation;
timestamps are not part of it.
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
from typing import Callable, Optional

from . import __version__, elliptic, linsys
from .certificate import Certificate, canonical_json, certificate_from_dict
from .linsys import FatPointSystem

STORE_SCHEMA_VERSION = 2


def invocation(command: str, system: dict, config: dict) -> str:
    """The canonical encoding of an invocation."""
    return canonical_json({"command": command, "system": system, "config": config})


def _answered(rec) -> str:
    """The invocation rec answers: its own command, certificate system and
    config, encoded (JSON tells 1, 1.0 and true apart).  LookupError or
    TypeError unless rec is an object with those fields."""
    return invocation(rec["command"], rec["certificate"]["system"], rec["config"])


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


def _checked(rec: dict) -> Optional[Certificate]:
    """The record's certificate if this code would sign it for the
    invocation the record answers (_answered); else None.

    It must (a) parse and derive again to the same JSON object, which fixes
    the schema, the method, chi, h0, h1, the verdict, every report's
    derived fields and the prime and seed of every trial;
    (b) have reports that count the monomials and conditions of the system
    its route samples (_sampled), and as h0_bound their least h0_sample,
    or with no evidence the linsys.exact_h0 of that system; evidence is
    only that of a system exact_h0 leaves undecided, since interp.least_h0
    samples no other; and (c) have h0_bound >= max(chi, 0) when d >= -2.
    """
    try:
        cert = certificate_from_dict(rec["certificate"])
        if cert.to_dict() != rec["certificate"]:
            return None
        sampled = _sampled(cert)
    except (LookupError, TypeError, ValueError, ArithmeticError,
            elliptic.ReductionError):
        return None
    # equal to its effective part's, which interp.h0_at_sample reports
    counts = (linsys.monomial_count(sampled.d), linsys.conditions_count(sampled))
    if any((r.monomials, r.conditions) != counts for (_, _, r) in cert.evidence):
        return None
    least = linsys.exact_h0(sampled)
    if cert.evidence:
        if least is not None:
            return None
        least = min(r.h0_sample for (_, _, r) in cert.evidence)
    floor = max(cert.chi, 0) if cert.system.d >= -2 else 0
    return cert if cert.h0_bound == least and cert.h0_bound >= floor else None


class CertificateStore:
    """The store at path, loaded; use it in a `with` block (or close() it)
    so that the append handle its first put opens is closed."""

    def __init__(self, path: str):
        self.path = path
        self._by_invocation = {}  # _answered(rec) -> rec
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
                    self._by_invocation[_answered(rec)] = rec
                except ValueError as e:
                    raise ValueError(f"store {path} line {n} is corrupt: {e}") from None
                except (LookupError, TypeError):
                    raise ValueError(
                        f"store {path} line {n} is corrupt: not an object with "
                        "command, config and certificate.system") from None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._out is not None:
            self._out.close()
            self._out = None

    def certificate(self, command: str, system: dict, config: dict,
                    compute: Callable[[], Certificate]) -> Certificate:
        """The certificate of this invocation: the stored one if it passes
        _checked, else compute()'s, whose record is appended at once (an
        error that compute raises stores nothing)."""
        encoded = invocation(command, system, config)
        cert = self.lookup_certificate(encoded)
        if cert is None:
            cert = compute()
            self.put(command, config, cert, encoded)
        return cert

    def lookup_certificate(self, encoded: str) -> Optional[Certificate]:
        """The certificate of the record that answers the invocation
        encoded, if it passes _checked."""
        rec = self._by_invocation.get(encoded)
        return None if rec is None else _checked(rec)

    def put(self, command: str, config: dict, cert: Certificate,
            encoded: str) -> None:
        """Append cert's record, of a run of command with config, filed
        under encoded, the invocation it names (_answered of the record, as
        the lookup that missed encoded it), and flush it so that a later
        reader, or a rerun after a kill, sees it; the first put cuts a torn
        tail."""
        rec = {
            "schema_version": STORE_SCHEMA_VERSION,
            "command": command,
            "config": config,
            "certificate": cert.to_dict(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__,
        }
        self._by_invocation[encoded] = rec
        if self._out is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            self._out = open(self.path, "a")
        self._out.write(canonical_json(rec) + "\n")
        self._out.flush()
