"""Fat-point interpolation over GF(p) and nonspeciality certificates.

A multiplicity-m condition at a point forces all partial derivatives of
order < m to vanish there, i.e. m(m+1)/2 linear conditions on the monomial
coefficients.  The tables these rows come from (monomial exponents,
falling factorials, the powers of every point's affine coordinates) are
built once per matrix, and each point's rows are written straight into the
matrix's one int64 buffer.  A sampled configuration is first moved to a
projective frame: three of its points go to the coordinate points, where
their conditions only kill monomials, so just the other points' rows on
the kept monomials are eliminated (h0_at_sample).  Full rank of the
conditions at one sampled configuration certifies full rank at generic
points in characteristic zero (rank can only drop under specialization and
reduction mod p), so a full-rank sample is a genuine nonspeciality
certificate.  Rank deficits are never certified by sampling alone: repeated
agreeing deficits only yield a "special-suspected" verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import gfmat, linsys
from .gfmat import DEFAULT_PRIME, GFMatrix
from .linsys import ON_CUBIC, FatPointSystem

SAMPLE_RETRIES = 64
DEFAULT_TRIALS = 3

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


class ConfigError(Exception):
    pass


class SamplingError(Exception):
    pass


@dataclass(frozen=True)
class PointConfig:
    """A concrete point set over GF(p): projective triples plus placement tags.

    cubic is the (a, b) of y^2 = x^3 + ax + b when any point is constrained
    to the curve, else None.  Deterministic in (p, seed).
    """
    p: int
    points: tuple          # ((x, y, z), ...) fully reduced mod p
    tags: tuple
    seed: int
    cubic: Optional[tuple] = None


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
    are derived from these, here and nowhere else."""
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

    @property
    def h0(self) -> Optional[int]:
        """h0_bound where it pins the generic h0: linsys.exact_h0 or a
        full-rank last trial on a direct route; otherwise the floor
        max(chi, 0), since a degeneration's h0_bound bounds h0 from above
        and h0 >= max(chi, 0)."""
        if self.twist is None:
            pinned = not self.evidence or self.evidence[-1][2].full_rank
        else:
            pinned = self.h0_bound == max(self.chi, 0)
        return self.h0_bound if pinned else None

    @property
    def h1(self) -> Optional[int]:
        """h0 - chi, valid since h2 = 0 for d >= -2; null below that."""
        h0 = self.h0
        return None if h0 is None or self.system.d < -2 else h0 - self.chi

    @property
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
            "system": self.system.to_dict(),
            "twist": None if self.twist is None else {
                "k": self.twist[0], "mu": self.twist[1]},
            "chi": self.chi,
            "prime": str(self.prime),
            "seed": str(self.seed),
            "trials": self.trials,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def certificate_from_dict(d: dict) -> Certificate:
    """The certificate of d's inputs; d's derived fields are not read, so
    to_dict() gives d back only if they are the ones this code derives.
    The method follows from the twist, and trial i's prime and seed from
    the certificate's, as least_h0 writes them."""
    s, t = d["system"], d["twist"]
    p, seed = int(d["prime"]), int(d["seed"])
    return Certificate(
        system=FatPointSystem(s["d"], tuple(s["mults"]), tuple(s["tags"])),
        prime=p, seed=seed, trials=d["trials"], h0_bound=d["h0_bound"],
        evidence=tuple(
            (p, derive_seed(seed, i),
             RankReport(e["report"]["monomials"], e["report"]["conditions"],
                        e["report"]["rank"]))
            for i, e in enumerate(d["evidence"])),
        twist=None if t is None else (int(t["k"]), int(t["mu"])),
    )


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for trial number `index`."""
    h = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def monomial_basis(d: int):
    """Exponent triples (i, j, k), i+j+k = d, in lexicographic order."""
    return [tuple(e) for e in _exponents(d).T.tolist()]


def _exponents(d: int) -> np.ndarray:
    """monomial_basis(d) as a (3, monomials) int64 array: row i holds the
    exponents of the i-th variable.  Empty for d < 0."""
    t = np.repeat(np.arange(d + 1, dtype=np.int64),
                  np.arange(1, d + 2))                # t = d - i
    k = np.arange(len(t), dtype=np.int64) - t * (t + 1) // 2
    return np.stack([d - t, t - k, k])


def sample_config(tags, p: int, seed: int) -> PointConfig:
    """Sample a deterministic point configuration over GF(p), one point per
    placement tag, in order.

    Curve points are found by sampling x, testing quadratic residuosity of
    x^3 + ax + b and taking a Tonelli-Shanks square root.  All points are
    pairwise distinct (resampled on collision, bounded retries).
    """
    gfmat.check_modulus(p)
    if p <= 3:
        raise ConfigError("prime must exceed 3")
    tags = tuple(tags)
    rng = random.Random(f"{p}:{seed}")

    cubic = None
    if ON_CUBIC in tags:
        for _ in range(SAMPLE_RETRIES):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a * a * a + 27 * b * b) % p != 0:
                cubic = (a, b)
                break
        else:
            raise SamplingError("could not sample a smooth cubic")

    seen = set()
    points = []
    for tag in tags:
        for _ in range(SAMPLE_RETRIES):
            if tag == ON_CUBIC:
                a, b = cubic
                x = rng.randrange(p)
                t = (x * x * x + a * x + b) % p
                if t != 0 and gfmat.legendre(t, p) != 1:
                    continue
                y = gfmat.sqrt_mod(t, p)
                if rng.randrange(2):
                    y = (-y) % p
                pt = (x, y, 1)
            else:
                pt = (rng.randrange(p), rng.randrange(p), 1)
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
                break
        else:
            raise SamplingError("retry budget exhausted while sampling points")
    return PointConfig(p=p, points=tuple(points), tags=tags, seed=seed,
                       cubic=cubic)


def config_for_system(s: FatPointSystem, p: int, seed: int) -> PointConfig:
    """One point per system entry, placement matching the system's tags."""
    return sample_config(s.tags, p, seed)


def _charts(points, d: int, p: int) -> list:
    """(u, v, cu, cv) per point: the indices of the two affine variables in
    its chart, the last nonzero coordinate (z preferred), and its affine
    coordinates there.  Refuses a modulus gfmat.check_modulus refuses,
    p <= d and the zero point."""
    gfmat.check_modulus(p, "prime")
    if p <= d:
        raise ConfigError(f"prime {p} must exceed degree {d}")
    charts = []
    for point in points:
        xyz = [c % p for c in point]
        chart = next((i for i in (2, 1, 0) if xyz[i] != 0), None)
        if chart is None:
            raise ConfigError("zero projective point")
        inv = pow(xyz[chart], -1, p)
        u, v = (i for i in range(3) if i != chart)
        charts.append((u, v, xyz[u] * inv % p, xyz[v] * inv % p))
    return charts


def _write_rows(points, mults, d: int, p: int, out, keep=None) -> None:
    """Condition rows of every point, in order, into consecutive rows of out.

    The columns are the monomials of monomial_basis(d), or only those at
    the indices `keep` when given.  Checks the prime and the points first
    (see _charts), also when there are no points.  Everything that
    does not depend on the point is built once: the exponent array, the
    falling factorials fall[a, n] = n!/(n-a)! mod p (zero where a > n) for
    a below the largest multiplicity, and the power ladder c^0..c^d of
    every affine coordinate, one numpy step per power (0^0 = 1).  A point's
    derivative table for one affine variable is then D[a, n] = fall[a, n] *
    c^(n-a), the a-th derivative of t^n at c, gathered to the monomial
    columns.  Every entry is reduced below p < 2^21, so each int64 product
    of two entries is exact.
    """
    charts = _charts(points, d, p)
    exps = _exponents(d) if keep is None else _exponents(d)[:, keep]
    top = max(mults, default=0)
    n = np.arange(d + 1, dtype=np.int64)
    fall = np.ones((top, d + 1), dtype=np.int64)
    for a in range(1, top):
        # the factor 0 at n = a-1 keeps every later row zero for n < a
        np.multiply(fall[a - 1], np.maximum(n - (a - 1), 0), out=fall[a])
        fall[a] %= p
    shift = np.maximum(n - np.arange(top, dtype=np.int64)[:, None], 0)
    coords = np.array([c for (_, _, cu, cv) in charts for c in (cu, cv)],
                      dtype=np.int64)
    pw = np.ones((d + 1, len(coords)), dtype=np.int64)
    for i in range(1, d + 1):
        np.multiply(pw[i - 1], coords, out=pw[i])
        pw[i] %= p

    r = 0
    for q, ((u, v, _, _), m) in enumerate(zip(charts, mults)):
        # du[alpha, col]: alpha-th derivative of the first affine factor,
        # per monomial; dv likewise for the second
        f, sh = fall[:m], shift[:m]
        du = (f * pw[sh, 2 * q] % p).take(exps[u], axis=1)
        dv = (f * pw[sh, 2 * q + 1] % p).take(exps[v], axis=1)
        for alpha in range(m):
            block = out[r:r + m - alpha]
            np.multiply(du[alpha], dv[:m - alpha], out=block)
            block %= p
            r += m - alpha
        del du, dv  # at most one point's tables are alive at a time


def build_matrix(s: FatPointSystem, cfg: PointConfig,
                 keep=None) -> GFMatrix:
    """Condition rows for every point with positive multiplicity.

    The columns are the monomials of monomial_basis(d), or only those at
    the index array `keep` when given.  The rows go straight into one int64
    buffer, from tables built once per matrix.  A tall matrix (more
    conditions than monomials) is laid out transposed, so that the rank
    kernel, which factors the transpose of a tall matrix, can eliminate it
    in place.
    """
    if s.tags != cfg.tags:
        raise ConfigError("system and configuration tags disagree")
    eff = linsys.effective_part(s)
    ncols = linsys.monomial_count(eff.d) if keep is None else len(keep)
    conds = [i for i, m in enumerate(eff.mults) if m >= 1]
    nrows = sum(eff.mults[i] * (eff.mults[i] + 1) // 2 for i in conds)
    if nrows > ncols:
        data = np.empty((ncols, nrows), dtype=np.int64).T
    else:
        data = np.empty((nrows, ncols), dtype=np.int64)
    _write_rows([cfg.points[i] for i in conds], [eff.mults[i] for i in conds],
                eff.d, cfg.p, data, keep)
    return GFMatrix(data, cfg.p, reduced=True)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _frame_of(eff: FatPointSystem):
    """(top, keep) of the frame of eff, or None when it has none.

    top is the indices of the three points of largest multiplicity (stable
    order), all positive; keep is the indices in monomial_basis(d) of the
    monomials a form can contain when it vanishes to order m1, m2, m3 at
    e1, e2, e3: x^i y^j z^k vanishes to order m at e1 exactly when
    j + k >= m (likewise i + k >= m at e2 and i + j >= m at e3).
    """
    top = sorted(range(len(eff.mults)), key=lambda i: -eff.mults[i])[:3]
    if len(top) < 3 or eff.mults[top[2]] < 1:
        return None
    m1, m2, m3 = (eff.mults[i] for i in top)
    i, j, k = _exponents(eff.d)
    return top, np.flatnonzero((j + k >= m1) & (i + k >= m2) & (i + j >= m3))


def _frame(eff: FatPointSystem, cfg: PointConfig):
    """Move the frame's three points (_frame_of) to e1, e2, e3.

    The frame needs the matrix A of its three points as columns to be
    invertible mod p.  Every point q goes to adj(A) q, which is A^-1 q up
    to the scalar det A, so the frame lands on e1, e2, e3 in order.
    Returns the system with the frame's multiplicities set to 0, the moved
    configuration and the kept monomials; or eff, cfg and None when there
    is no frame.
    """
    frame = _frame_of(eff)
    if frame is None:
        return eff, cfg, None
    top, keep = frame
    a, b, c = (cfg.points[i] for i in top)
    adj = (_cross(b, c), _cross(c, a), _cross(a, b))
    p = cfg.p
    if sum(x * y for x, y in zip(adj[0], a)) % p == 0:
        return eff, cfg, None
    points = tuple(tuple(sum(x * y for x, y in zip(row, q)) % p for row in adj)
                   for q in cfg.points)
    mults = tuple(0 if idx in top else m for idx, m in enumerate(eff.mults))
    return replace(eff, mults=mults), replace(cfg, points=points), keep


def framed_cells(s: FatPointSystem) -> int:
    """Cells of the matrix h0_at_sample eliminates for s when the frame's
    points are not collinear: the other points' conditions times the kept
    monomials, or the whole matrix when s has no frame.  0 when
    linsys.exact_h0 decides s, which needs no matrix."""
    if linsys.exact_h0(s) is not None:
        return 0
    eff = linsys.effective_part(s)
    top, keep = _frame_of(eff) or ((), range(linsys.monomial_count(eff.d)))
    return len(keep) * sum(m * (m + 1) // 2 for i, m in enumerate(eff.mults)
                           if i not in top)


def h0_at_sample(s: FatPointSystem, cfg: PointConfig) -> RankReport:
    """Sections of the system at this concrete configuration.

    h0_sample = monomials - rank bounds the generic characteristic-zero h0
    from above (semicontinuity in both the points and the prime).  The
    configuration is moved to a projective frame first (_frame), which
    leaves the rank unchanged: A acts invertibly on degree-d forms and
    carries each fat point to its image, and with p > d the derivative rows
    span exactly those vanishing conditions.  The frame's rows are scaled
    unit vectors on the monomials they kill, so the rank is the number
    killed plus the rank of the other points' rows on the kept monomials,
    and only those are built and eliminated, in place.  The report counts
    the monomials and conditions of the whole (effective) system.
    """
    if s.tags != cfg.tags:
        raise ConfigError("system and configuration tags disagree")
    eff = linsys.effective_part(s)
    rest, moved, keep = _frame(eff, cfg)
    M = build_matrix(rest, moved, keep)
    r = gfmat.rank(M, overwrite=True)
    monomials = linsys.monomial_count(eff.d)
    # the monomials the frame killed, plus the rank on the kept ones
    return RankReport(monomials, linsys.conditions_count(eff),
                      monomials - M.cols + r)


def least_h0(s: FatPointSystem, trials: int, p: int, seed: int) -> tuple:
    """(least h0 found, evidence) for s.

    The evidence is empty when linsys.exact_h0 decides s.  Otherwise it is
    ((p, sub-seed, RankReport), ...) of trials 0, 1, ... in order, and stops
    after the first full-rank trial: its h0_sample is the floor
    max(monomials - conditions, 0), so no later trial can lower the least.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    h0 = linsys.exact_h0(s)
    if h0 is not None:
        return h0, ()
    evidence = []
    for t in range(trials):
        sub = derive_seed(seed, t)
        rep = h0_at_sample(s, config_for_system(s, p, sub))
        evidence.append((p, sub, rep))
        if rep.full_rank:
            break
    return min(r.h0_sample for (_, _, r) in evidence), tuple(evidence)


def certify(s: FatPointSystem, trials: int = DEFAULT_TRIALS,
            p: int = DEFAULT_PRIME, seed: int = 0) -> Certificate:
    """Decide (non)speciality of the system, sampling where needed.

    Exact route: when linsys.exact_h0 decides s (d < 0, no condition
    left, or the cubic peel at the floor), with no evidence.  Sampling route:
    trials run in order and stop at the first full-rank one, which pins the
    generic h0; `trials` is the number requested and `evidence` lists the
    trials that ran.  The Certificate derives the verdict from these.
    """
    return Certificate(s, p, seed, trials, *least_h0(s, trials, p, seed))
