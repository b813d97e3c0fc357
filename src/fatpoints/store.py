"""Append-only certificate store: one JSON record per line.

An invocation (command, input system, run config) has one canonical
encoding (invocation, by certificate.canonical_json).  A record is keyed
by the sha256 of that encoding, so re-running an identical invocation is
a lookup, not a recomputation; timestamps are not part of it.
CertificateStore.certificate is the one look-up-or-compute: it serves the
stored certificate if it is one this code would sign for the invocation
(_checked), and otherwise computes one and appends its record at once; of
two lines with one key, the later wins on load.  A last line without
its newline was torn by a crash mid-write: loading drops it with a warning
on stderr and the first append cuts it off.  A bad line before the last
one is an error.  The first append of a run opens one append handle,
which close() (or leaving a `with` block) closes; each record is written
and flushed before put returns.
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

STORE_SCHEMA_VERSION = 1


def invocation(command: str, system: dict, config: dict) -> str:
    """The canonical encoding of an invocation."""
    return canonical_json({"command": command, "system": system, "config": config})


def record_key(encoded: str) -> str:
    """The key of the records of an encoded invocation."""
    import hashlib  # loaded by the first hash, not by every CLI start
    return hashlib.sha256(encoded.encode()).hexdigest()


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


def _checked(rec: dict, encoded: str) -> Optional[Certificate]:
    """The record's certificate if this code would sign it for the
    invocation encoded, under whose record_key the record is found; else
    None.

    It must (a) parse and derive again to the same JSON object, which fixes
    the schema, the method, chi, h0, h1, the verdict, every report's
    derived fields and the prime and seed of every trial;
    (b) have reports that count the monomials and conditions of the system
    its route samples (_sampled), and as h0_bound their least h0_sample,
    or with no evidence the linsys.exact_h0 of that system; evidence is
    only that of a system exact_h0 leaves undecided, since interp.least_h0
    samples no other; (c) have
    h0_bound >= max(chi, 0) when d >= -2; and (d) have a command, a
    certificate system and a config of its own that encode to the
    invocation, so they hash to the key the record is found under.
    """
    try:
        d = rec["certificate"]
        if invocation(rec["command"], d["system"], rec["config"]) != encoded:
            return None
        cert = certificate_from_dict(d)
        if cert.to_dict() != d:
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
        self._by_key = {}
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
                    if not isinstance(rec, dict) or not isinstance(rec.get("key"), str):
                        raise ValueError("not an object with a string key")
                except ValueError as e:
                    raise ValueError(f"store {path} line {n} is corrupt: {e}") from None
                self._by_key[rec["key"]] = rec

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
        error that compute raises stores nothing).  The invocation is
        encoded and its key hashed once, for both."""
        encoded = invocation(command, system, config)
        key = record_key(encoded)
        cert = self.lookup_certificate(key, encoded)
        if cert is None:
            cert = compute()
            self.put(key, command, system, config, cert)
        return cert

    def lookup_certificate(self, key: str, encoded: str) -> Optional[Certificate]:
        """The certificate of the record under key, if it passes _checked
        for the invocation encoded."""
        rec = self._by_key.get(key)
        return None if rec is None else _checked(rec, encoded)

    def put(self, key: str, command: str, system: dict, config: dict,
            cert: Certificate) -> None:
        """Append the record of cert under key and flush it, so a later
        reader, or a rerun after a kill, sees it; the first put cuts a torn
        tail and opens the file."""
        rec = {
            "schema_version": STORE_SCHEMA_VERSION,
            "key": key,
            "command": command,
            "system": system,
            "config": config,
            "certificate": cert.to_dict(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__,
        }
        self._by_key[key] = rec
        if self._out is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            self._out = open(self.path, "a")
        self._out.write(canonical_json(rec) + "\n")
        self._out.flush()
