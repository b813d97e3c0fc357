"""Certificates, their rank reports and verdicts, with no numpy.

The store reads certificates back and the CLI reports them with this
module alone, so a run that builds no matrix never loads numpy.  The
sampling route that fills in the evidence is interp.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from . import linsys
from .linsys import ON_CUBIC, FatPointSystem, Value

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
    """The one encoding of certificates, store records and CLI output."""
    return _ENCODER.encode(obj)


class ConfigError(Exception):
    pass


class SamplingError(Exception):
    pass


class RankReport(NamedTuple):
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


class Certificate(Value):
    """What a verdict rests on: the run, the least h0 found and the trials
    behind it, ((prime, seed, RankReport), ...), none when linsys.exact_h0
    decided it, and on the degeneration route the twist (k, mu) whose
    reduced system was bounded; a direct route has no twist.  These seven
    inputs are the value; the method, chi, h0, h1 and the verdict are
    derived from them, here and nowhere else, all but the method once."""
    __slots__ = ("system", "prime", "seed", "trials", "h0_bound", "evidence",
                 "twist", "chi", "h0", "h1", "verdict")
    _fields = __slots__[:7]

    def __init__(self, system, prime, seed, trials, h0_bound, evidence=(),
                 twist=None):
        # h0_bound bounds h0 on every route: it pins h0 at linsys.lower_h0;
        # h1 = h0 - chi is valid since h2 = 0 for d >= -2, null below that
        chi = linsys.chi(system)
        h0 = h0_bound if h0_bound == linsys.lower_h0(system) else None
        h1 = None if h0 is None or system.d < -2 else h0 - chi
        if h0 is not None:
            verdict = SPECIAL_EXACT if is_special(h0, h1) else NONSPECIAL
        # sampling never pins a deficit: agreeing ones are only suspected
        elif (twist is None and trials >= 3
                and len({r.h0_sample for (_, _, r) in evidence}) == 1):
            verdict = SPECIAL_SUSPECTED
        else:
            verdict = INCONCLUSIVE
        self._set(system, prime, seed, trials, h0_bound, evidence, twist,
                  chi, h0, h1, verdict)

    @property
    def method(self) -> str:
        if self.twist is not None:
            return DEGENERATION_CODIM
        return DIRECT_ON_CUBIC if ON_CUBIC in self.system.tags else DIRECT_GENERIC

    @property
    def decided(self) -> bool:
        return self.verdict in (NONSPECIAL, SPECIAL_EXACT)

    def to_dict(self) -> dict:
        return {
            "schema_version": CERT_SCHEMA_VERSION,
            "verdict": self.verdict,
            "method": self.method,
            "system": self.system.to_dict(), "prime": str(self.prime),
            "seed": str(self.seed), "trials": self.trials,
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


def _int(x) -> int:
    """x, an int: not JSON's true or 1.0 (TypeError)."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def certificate_from_dict(d: dict, system=None) -> Certificate:
    """The certificate of d's inputs, on system if given (the store's key
    makes it equal to d's); d's derived fields are not read, so to_dict()
    gives d back only if they are the ones this code derives.  The method
    follows from the twist, and trial i's prime and seed from the
    certificate's, as least_h0 writes them."""
    s, t = d["system"], d["twist"]
    p, seed = int(d["prime"]), int(d["seed"])
    return Certificate(
        system=system or FatPointSystem(s["d"], tuple(s["mults"]),
                                        tuple(s["tags"])),
        prime=p, seed=seed, trials=int(d["trials"]),
        h0_bound=_int(d["h0_bound"]),
        evidence=tuple(
            (p, derive_seed(seed, i), RankReport(*map(_int, (
                e["report"]["monomials"], e["report"]["conditions"],
                e["report"]["rank"]))))
            for i, e in enumerate(d["evidence"])),
        twist=None if t is None else (int(t["k"]), int(t["mu"])),
    )


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for trial number `index`: the first 8 bytes,
    big-endian, of the SHA-256 of "seed:index"."""
    h = _sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")
