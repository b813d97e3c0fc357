"""Certificates, their rank reports and verdicts, with no numpy.

The store reads certificates back and the CLI reports them with this
module alone, so a run that builds no matrix never loads numpy.  The
sampling route that fills in the evidence is interp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import linsys
from .linsys import ON_CUBIC, FatPointSystem

# the interpreter's own SHA-256, as random takes its SHA-512, so that a
# trial seed loads no OpenSSL; hashlib's gives the same digests
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# certificate verdicts
NONSPECIAL = "nonspecial-certified"
SPECIAL_EXACT = "special-exact"
SPECIAL_SUSPECTED = "special-suspected"
INCONCLUSIVE = "inconclusive"

# certification methods, derived from the route (Certificate.method)
DIRECT_GENERIC = "direct-generic"
DIRECT_ON_CUBIC = "direct-on-cubic"
DEGENERATION_CODIM = "degeneration-corollary"

CERT_SCHEMA_VERSION = 4

# sorted, compact JSON, which tells 1, 1.0 and true apart
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """The one encoding of certificates, store records and invocations."""
    return _ENCODER.encode(obj)


def run_fields(system: FatPointSystem, prime: int, seed: int, trials: int):
    """A run as a certificate states it; the store files records under it."""
    return {"system": system.to_dict(), "prime": str(prime),
            "seed": str(seed), "trials": trials}


class ConfigError(Exception):
    pass


class SamplingError(Exception):
    pass


@dataclass(frozen=True)
class RankReport:
    monomials: int
    conditions: int
    rank: int

    @property
    def h0_sample(self) -> int:
        return self.monomials - self.rank

    @property
    def full_rank(self) -> bool:
        return self.rank == min(self.conditions, self.monomials)


def is_special(h0: int, h1: Optional[int]) -> bool:
    """h0 > 0 and h1 > 0: nonempty, with dependent conditions."""
    return h0 > 0 and h1 is not None and h1 > 0


@dataclass(frozen=True)
class Certificate:
    """What a verdict rests on: the run, the least h0 found and the trials
    behind it (none when linsys.exact_h0 decided it), and on the
    degeneration route the twist (k, mu) whose reduced system was bounded;
    a direct route has no twist.  The method, chi, h0, h1 and the verdict
    are derived from these, here and nowhere else, and once: it is frozen."""
    system: FatPointSystem
    prime: int
    seed: int
    trials: int
    h0_bound: int
    evidence: tuple = ()   # ((prime, seed, RankReport), ...)
    twist: Optional[tuple] = None   # (k, mu) on the degeneration route

    @property
    def method(self) -> str:
        if self.twist is not None:
            return DEGENERATION_CODIM
        return DIRECT_ON_CUBIC if ON_CUBIC in self.system.tags else DIRECT_GENERIC

    @cached_property
    def chi(self) -> int:
        return linsys.chi(self.system)

    @cached_property
    def h0(self) -> Optional[int]:
        """h0_bound where it pins the generic h0: on every route h0_bound
        bounds h0 from above, so it pins h0 when it meets the floor
        linsys.lower_h0 of the system."""
        pinned = self.h0_bound == linsys.lower_h0(self.system)
        return self.h0_bound if pinned else None

    @cached_property
    def h1(self) -> Optional[int]:
        """h0 - chi, valid since h2 = 0 for d >= -2; null below that."""
        h0 = self.h0
        return None if h0 is None or self.system.d < -2 else h0 - self.chi

    @cached_property
    def verdict(self) -> str:
        if self.h0 is not None:
            return SPECIAL_EXACT if is_special(self.h0, self.h1) else NONSPECIAL
        # sampling never pins a deficit: agreeing ones are only suspected
        if (self.twist is None and self.trials >= 3
                and len({r.h0_sample for (_, _, r) in self.evidence}) == 1):
            return SPECIAL_SUSPECTED
        return INCONCLUSIVE

    @property
    def decided(self) -> bool:
        return self.verdict in (NONSPECIAL, SPECIAL_EXACT)

    def to_dict(self) -> dict:
        return {
            "schema_version": CERT_SCHEMA_VERSION,
            "verdict": self.verdict,
            "method": self.method,
            **run_fields(self.system, self.prime, self.seed, self.trials),
            "twist": None if self.twist is None else {
                "k": self.twist[0], "mu": self.twist[1]},
            "chi": self.chi,
            "h0_bound": self.h0_bound,
            "h0": self.h0,
            "h1": self.h1,
            "evidence": [
                {
                    "prime": str(p),
                    "seed": str(s),
                    "report": {
                        "monomials": r.monomials,
                        "conditions": r.conditions,
                        "rank": r.rank,
                        "h0_sample": r.h0_sample,
                        "full_rank": r.full_rank,
                    },
                }
                for (p, s, r) in self.evidence
            ],
        }


def certificate_from_dict(d: dict) -> Certificate:
    """The certificate of d's inputs; d's derived fields are not read, so
    to_dict() gives d back only if they are the ones this code derives.
    The method follows from the twist, and trial i's prime and seed from
    the certificate's, as least_h0 writes them."""
    s, t = d["system"], d["twist"]
    p, seed = int(d["prime"]), int(d["seed"])
    return Certificate(
        system=FatPointSystem(s["d"], tuple(s["mults"]), tuple(s["tags"])),
        prime=p, seed=seed, trials=int(d["trials"]), h0_bound=d["h0_bound"],
        evidence=tuple(
            (p, derive_seed(seed, i),
             RankReport(e["report"]["monomials"], e["report"]["conditions"],
                        e["report"]["rank"]))
            for i, e in enumerate(d["evidence"])),
        twist=None if t is None else (int(t["k"]), int(t["mu"])),
    )


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for trial number `index`: the first 8 bytes,
    big-endian, of the SHA-256 of "seed:index"."""
    h = _sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")
