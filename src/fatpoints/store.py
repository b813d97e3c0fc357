"""Append-only certificate store: one JSON record per line.

Records are keyed by a content hash of (command, input system, run config),
so re-running an identical invocation is a lookup, not a recomputation.
Timestamps are excluded from the hash.  A record is a hit only if its
certificate is one this code would sign (_checked); any other record is a
miss: the caller recomputes, the new record is appended, and the later
line wins on load.  A last line without its newline was torn by a crash
mid-write: loading drops it with a warning on stderr and the next append
cuts it off.  A bad line before the last one is an error.
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


def _checked(rec: dict) -> Optional[Certificate]:
    """The record's certificate if this code would sign it, else None.

    It must (a) parse and derive again to the same JSON object, which fixes
    the schema, the method, chi, h0, h1, the verdict, every report's
    derived fields and the prime and seed of every trial;
    (b) have reports that count the monomials and conditions of the system
    its route samples (_sampled), and as h0_bound their least h0_sample,
    or with no evidence the linsys.exact_h0 of that system; (c) have
    h0_bound >= max(chi, 0) when d >= -2; and (d) be for the system the
    record's key hashes.
    """
    try:
        d = rec["certificate"]
        cert = certificate_from_dict(d)
        if cert.to_dict() != d or rec["key"] != record_key(
                rec["command"], d["system"], rec["config"]):
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
    def __init__(self, path: str):
        self.path = path
        self._by_key = {}
        # byte offset of a torn last line, cut off before the next append
        self._torn_at = None
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

    def __len__(self):
        return len(self._by_key)

    def lookup_certificate(self, key: str) -> Optional[Certificate]:
        rec = self._by_key.get(key)
        return None if rec is None else _checked(rec)

    def put(self, command: str, system: dict, config: dict,
            cert: Certificate) -> dict:
        """Append a record unless an identical invocation is already stored
        with a certificate that passes _checked."""
        key = record_key(command, system, config)
        existing = self._by_key.get(key)
        if existing is not None and _checked(existing) is not None:
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
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with open(self.path, "a") as f:
                f.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return rec
