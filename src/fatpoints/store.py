"""Append-only certificate store: one JSON record per line.

Records are keyed by a content hash of (command, input system, run config),
so re-running an identical invocation is a lookup, not a recomputation.
Timestamps are excluded from the hash.  A record is a hit only if its
certificate is one this code would sign for the invocation looked up
(_checked); any other record is a miss: the caller recomputes, the new
record is appended, and the later line wins on load.  A last line without
its newline was torn by a crash mid-write: loading drops it with a warning
on stderr and the first append cuts it off.  A bad line before the last
one is an error.  The first append of a run opens one append handle,
which close() (or leaving a `with` block) closes; each record is written
and flushed before put returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Optional

from . import __version__, elliptic, linsys
from .certificate import Certificate, certificate_from_dict
from .linsys import FatPointSystem

STORE_SCHEMA_VERSION = 1


def record_key(command: str, system: dict, config: dict) -> str:
    payload = json.dumps({"command": command, "system": system, "config": config},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


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


def _same(a, b) -> bool:
    """a == b with each pair of leaves of one type, so that the two encode
    to the same JSON: 1, 1.0 and true are equal in Python but not here."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if type(a) is list:
        types = [*map(type, a)]
        if a != b or types != [*map(type, b)]:
            return False
        return (dict not in types and list not in types) or all(map(_same, a, b))
    return a == b


def _checked(rec: dict, command: str, system: dict,
             config: dict) -> Optional[Certificate]:
    """The record's certificate if this code would sign it for the
    invocation (command, system, config), whose record_key the record is
    found under; else None.

    It must (a) parse and derive again to the same JSON object, which fixes
    the schema, the method, chi, h0, h1, the verdict, every report's
    derived fields and the prime and seed of every trial;
    (b) have reports that count the monomials and conditions of the system
    its route samples (_sampled), and as h0_bound their least h0_sample,
    or with no evidence the linsys.exact_h0 of that system; (c) have
    h0_bound >= max(chi, 0) when d >= -2; and (d) have the invocation's
    command and config, and a certificate for its system.  (d) compares
    JSON values (_same), so the record's own command, system and config
    hash to the key it is found under.
    """
    try:
        d = rec["certificate"]
        if not (rec["command"] == command and _same(d["system"], system)
                and _same(rec["config"], config)):
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
    if cert.evidence:
        least = min(r.h0_sample for (_, _, r) in cert.evidence)
    else:
        least = linsys.exact_h0(sampled)
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
        if path and os.path.exists(path):
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

    def __len__(self):
        return len(self._by_key)

    def lookup_certificate(self, command: str, system: dict, config: dict,
                           key: Optional[str] = None) -> Optional[Certificate]:
        """The stored certificate for this invocation, if one passes
        _checked; key is its record_key when the caller has it."""
        if key is None:
            key = record_key(command, system, config)
        rec = self._by_key.get(key)
        return None if rec is None else _checked(rec, command, system, config)

    def put(self, command: str, system: dict, config: dict, cert: Certificate,
            key: Optional[str] = None) -> dict:
        """Append a record unless an identical invocation is already stored
        with a certificate that passes _checked; key is as for
        lookup_certificate."""
        if key is None:
            key = record_key(command, system, config)
        existing = self._by_key.get(key)
        if existing is not None and _checked(existing, command, system,
                                             config) is not None:
            return existing
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
        if self.path:
            self._append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return rec

    def _append(self, line: str) -> None:
        """Write line and flush it, so a later reader, or a rerun after a
        kill, sees it; the first call cuts a torn tail and opens the file."""
        if self._out is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            self._out = open(self.path, "a")
        self._out.write(line)
        self._out.flush()
