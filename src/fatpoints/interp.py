"""Fat-point interpolation over GF(p) and nonspeciality certificates.

A multiplicity-m condition at a point forces all partial derivatives of
order < m to vanish there, i.e. m(m+1)/2 linear conditions on the monomial
coefficients.  Each row is the product of two rows of a table of
derivatives at the points, built a panel of monomials at a time, and the
rows go straight into the matrix's one float64 buffer, row i of every point
before row i + 1 of any (so that leading blocks are as general as the
points).  A sampled
configuration is first moved to a projective frame: three of its points go
to the coordinate points, where their conditions only kill monomials, so
just the other points' rows on the kept monomials are eliminated
(h0_at_sample).  Full rank of the
conditions at one sampled configuration certifies full rank at generic
points in characteristic zero (rank can only drop under specialization and
reduction mod p), so a full-rank sample is a genuine nonspeciality
certificate.  Rank deficits are never certified by sampling alone: repeated
agreeing deficits only yield a "special-suspected" verdict.

Only the functions that build or rank an array import numpy and gfmat, so
a system that linsys.exact_h0 decides is certified without loading numpy.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import NamedTuple, Optional

from . import field, linsys
from .certificate import (Certificate, ConfigError, RankReport, SamplingError,
                          derive_seed)
from .field import DEFAULT_PRIME
from .linsys import ON_CUBIC, FatPointSystem

SAMPLE_RETRIES = 64
DEFAULT_TRIALS = 3
# A point leads a tall framed matrix when it has at least 1/LEAD_SHARE as
# many conditions as there are kept monomials (_lead_of).
LEAD_SHARE = 2
# _write_rows fills its output about TILE_CELLS entries at a time, from a
# panel of its derivative table of at most PANEL_CELLS entries.
TILE_CELLS = 1 << 15
PANEL_CELLS = 8 * TILE_CELLS


class MatrixTooLarge(Exception):
    """Sampling would eliminate more cells than the caller allows."""


class PointConfig(NamedTuple):
    """Points over GF(p): projective triples plus placement tags."""
    p: int
    points: tuple          # ((x, y, z), ...) fully reduced mod p
    tags: tuple


def _exponents(d: int):
    """The exponent triples (i, j, k), i+j+k = d, in lexicographic order,
    as a (3, monomials) int64 array: row i holds the exponents of the i-th
    variable.  Empty for d < 0."""
    import numpy as np
    t = np.repeat(np.arange(d + 1, dtype=np.int64),
                  np.arange(1, d + 2))                # t = d - i
    k = np.arange(len(t), dtype=np.int64) - t * (t + 1) // 2
    return np.stack([d - t, t - k, k])


def sample_config(tags, p: int, seed: int) -> PointConfig:
    """Sample a deterministic point configuration over GF(p), one point per
    placement tag, in order.

    Curve points, on one smooth cubic y^2 = x^3 + ax + b, are found by
    sampling x, testing quadratic residuosity of x^3 + ax + b and taking a
    Tonelli-Shanks square root.  All points are pairwise distinct
    (resampled on collision, bounded retries).
    """
    field.check_modulus(p)
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
                if t != 0 and field.legendre(t, p) != 1:
                    continue
                y = field.sqrt_mod(t, p)
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
    return PointConfig(p=p, points=tuple(points), tags=tags)


def config_for_system(s: FatPointSystem, p: int, seed: int) -> PointConfig:
    """One point per system entry, placement matching the system's tags."""
    return sample_config(s.tags, p, seed)


def _charts(points, d: int, p: int) -> list:
    """(u, v, cu, cv) per point: the indices of the two affine variables in
    its chart, the last nonzero coordinate (z preferred), and its affine
    coordinates there.  Refuses a modulus field.check_modulus refuses,
    p <= d and the zero point."""
    field.check_modulus(p, "prime")
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


def _write_rows(points, mults, d: int, p: int, keep=None,
                lead: bool = False):
    """Condition rows of the points, in one new float64 array: row i of
    every point, in point order, before row i + 1 of any.  A point's rows
    are (alpha, beta) = (0, 0), (0, 1) ... (0, m-1), (1, 0) ... (m-1, 0),
    the alpha-th derivative in its first affine variable and the beta-th in
    its second; with `lead`, the first point's rows come first, graded (by
    alpha + beta, then alpha).  The columns are the monomials of
    _exponents(d), or those at the indices `keep`.

    The prime and the points are checked first (_charts), before any
    table, also when there are no points.  The derivatives n!/(n-a)!
    c^(n-a) of t^n at every affine coordinate c come from its power ladder
    (d Python-int products; 0^0 = 1) and one factorial and one
    inverse-factorial table (n! is a unit as p > d).  A row is the product
    of two rows of the table of those derivatives of order a < m, at each
    point's two coordinates, on each monomial's exponent of the
    coordinate's variable.  The table is made a panel of monomials at a
    time, of at most PANEL_CELLS entries, in one take per variable.  In a
    panel, about TILE_CELLS entries at a time take one gathered product,
    one gfmat.floor_mod and one assignment, in memory order: a tall array
    (more rows than columns) is laid out transposed and filled a run of
    monomials, with all their conditions, at a time, and a wide one a run
    of rows, on the panel's monomials (through a buffer when the panel is
    narrower than the array).  So, whatever the points and multiplicities,
    the array's build holds one panel and a few tiles beyond it.  Residues
    are below p < 2^21, so each product is an exact float64 integer.
    """
    import numpy as np

    from .gfmat import floor_mod

    charts = _charts(points, d, p)
    n, top = len(mults), max(mults, default=0)

    def step(x, k):
        return x * k % p
    fact = list(accumulate(range(1, d + 1), step, initial=1))
    ifact = list(accumulate(range(d, 0, -1), step,
                            initial=pow(fact[-1], -1, p)))[::-1]
    # the first affine coordinates of all points, then the second ones
    pw = np.array([list(accumulate([ch[k]] * d, step, initial=1))
                   for k in (2, 3) for ch in charts], dtype=np.float64)
    # ders[c * top + a, j] = j!/(j-a)! c^(j-a), from c^k / k! with k = j - a
    shift = np.arange(d + 1) - np.arange(top)[:, None]
    pw = floor_mod(pw.reshape(2 * n, d + 1) * ifact, p)
    ders = floor_mod(pw[:, shift.clip(0)] * fact, p)
    ders[:, shift < 0] = 0
    ders = ders.reshape(-1, d + 1)
    # the table's rows: coordinate c's orders a < m, the coordinates in
    # groups by their variable; (c, a) is its row start[c] + a, and ids[v]
    # lists the rows of ders of variable v's group
    start, ids, height = [0] * (2 * n), [[], [], []], 0
    for c in sorted(range(2 * n), key=lambda c: charts[c % n][c // n]):
        m = mults[c % n]
        start[c], height = height, height + m
        ids[charts[c % n][c // n]] += range(c * top, c * top + m)

    # every point's (alpha, beta), point by point, each in its own order;
    # then row i of every point after the lead, in point order, before row
    # i + 1 of any, and before them the lead's, by alpha + beta, then alpha
    a, mu, skip = np.arange(top), np.array(mults, dtype=np.intp), int(lead)
    q, al, be = np.nonzero(a[:, None] + a < mu[:, None, None])
    sizes = mu * (mu + 1) // 2
    i, j = np.nonzero(np.arange(sizes.max(initial=0))[:, None]
                      < sizes[skip:])
    order = (np.cumsum(sizes) - sizes)[skip:][j] + i
    if lead:  # (alpha, beta) = (b, g - b) is its row b (2m - b - 1) / 2 + g
        g, b = np.nonzero(a[:mults[0], None] >= a[:mults[0]])
        order = np.concatenate([b * (2 * mults[0] - b - 1) // 2 + g, order])
    start = np.array(start, dtype=np.intp)
    rows_u, rows_v = (start[q] + al)[order], (start[n + q] + be)[order]

    exps = _exponents(d) if keep is None else _exponents(d)[:, keep]
    kept, tall = exps.shape[1], len(q) > exps.shape[1]
    ends = list(accumulate(map(len, ids), initial=0))
    groups = [(exps[v], ders[g], slice(ends[v], ends[v + 1]))
              for v, g in enumerate(ids) if g]
    out = np.empty((kept, len(q)) if tall else (len(q), kept))
    width = max(1, PANEL_CELLS // max(height, 1))
    panel = np.empty(height * min(width, kept))
    for c in range(0, kept, width):
        cols, w = slice(c, c + width), min(width, kept - c)
        tab = panel[:height * w].reshape(height, w)
        for e, t, block in groups:
            t.take(e[cols], 1, tab[block], "clip")
        part = out[cols] if tall else out[:, cols]
        size = max(1, TILE_CELLS // max(part.shape[1], 1))
        # a wide out's tiles on a panel narrower than out are strided
        buf = None if part.flags.c_contiguous else np.empty(
            (min(size, len(part)), part.shape[1]))
        for r in range(0, len(part), size):
            s = slice(r, r + size)
            src, u, v = (np.ascontiguousarray(tab[:, s].T), rows_u,
                          rows_v) if tall else (tab, rows_u[s], rows_v[s])
            # the product and its reduction in place in out, or in buf
            x = part[s]
            y = x if buf is None else buf[:len(x)]
            src.take(u, int(tall), y, "clip")
            floor_mod(np.multiply(y, src.take(v, int(tall)), out=y), p)
            if buf is not None:
                x[...] = y
    return out.T if tall else out


def build_matrix(s: FatPointSystem, cfg: PointConfig, keep=None, lead=None):
    """Condition rows for every point with positive multiplicity, in the
    order of _write_rows, the rows of the point at index `lead` first when
    given, on the monomials of _exponents(d) or those at the index array
    `keep`.  A tall matrix (more conditions than monomials) is laid out
    transposed, so that the rank kernel, which factors the transpose of a
    tall matrix, can eliminate it in place.
    """
    from .gfmat import GFMatrix

    if s.tags != cfg.tags:
        raise ConfigError("system and configuration tags disagree")
    eff = linsys.effective_part(s)
    # the lead first, then the other points with conditions, in order
    conds = sorted((i for i, m in enumerate(eff.mults) if m >= 1),
                   key=lambda i: i != lead)
    return GFMatrix(_write_rows([cfg.points[i] for i in conds],
                                [eff.mults[i] for i in conds], eff.d, cfg.p,
                                keep, lead is not None), cfg.p)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _frame_of(eff: FatPointSystem):
    """(top, keep) of the frame of eff, or None when it has none.

    top is the indices of the three points of largest multiplicity (stable
    order), all positive; keep is the columns of _exponents(d) of the
    monomials a form can contain when it vanishes to order m1, m2, m3 at
    e1, e2, e3: x^i y^j z^k vanishes to order m at e1 exactly when
    j + k >= m (likewise i + k >= m at e2 and i + j >= m at e3).
    """
    import numpy as np

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
    return eff.replace(mults=mults), cfg._replace(points=points), keep


def _lead_of(rest: FatPointSystem, keep) -> Optional[int]:
    """The index of the point that leads the framed matrix of rest on the
    kept monomials (h0_at_sample), or None.

    That is the first point of largest multiplicity, when the matrix is
    tall (more conditions than kept monomials) and the point has at least
    1/LEAD_SHARE as many conditions as there are kept monomials.  Below
    that share, factoring its block first made the first trial slower
    than the interleaved elimination, and a first trial at full rank is
    the only one.
    """
    sizes = [m * (m + 1) // 2 for m in rest.mults]
    q = sizes.index(max(sizes))
    if sum(sizes) > len(keep) and LEAD_SHARE * sizes[q] >= len(keep):
        return q
    return None


def _spread(keep):
    """keep in a stride of about 0.618 len(keep) through its order.

    A point's rows on monomials whose exponents lie on one line are
    polynomials of degree < m in the exponents there, of rank at most m.
    In keep's lexicographic order runs of rows follow such lines, which
    stops the top rows of the rank kernel's leaves short of full rank on
    the lead's graded rows; the stride spreads every run over the lines.
    """
    import numpy as np

    n = len(keep)
    k = max(1, round(0.618 * n))
    while math.gcd(k, n) != 1:
        k += 1
    return keep[np.arange(n) * k % n]


def framed_cells(s: FatPointSystem) -> int:
    """Cells of the matrix h0_at_sample eliminates for s when the frame's
    points are not collinear: the other points' conditions times the kept
    monomials, or the whole matrix when s has no frame."""
    eff = linsys.effective_part(s)
    top, keep = _frame_of(eff) or ((), range(linsys.monomial_count(eff.d)))
    return len(keep) * sum(m * (m + 1) // 2 for i, m in enumerate(eff.mults)
                           if i not in top)


def h0_at_sample(s: FatPointSystem, cfg: PointConfig,
                 lead=None) -> RankReport:
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

    `lead` is the gfmat.Lead that least_h0 shares between the trials of s,
    used when a point leads its framed matrix (_lead_of).  When that point,
    (x, y, z) after the frame, lies on no coordinate line, the diagonal map
    diag(yz, xz, xy) moves it to (1:1:1).  The map is invertible and fixes
    e1, e2 and e3, so by the same argument it keeps the rank, and it only
    scales monomials, so it keeps the frame's kept ones.  The point's rows,
    written first (graded, on the kept monomials in the order of _spread),
    are then the same in every trial: the first such trial factors them
    into the lead, and later ones build and eliminate only the other
    points' rows, after it (gfmat.rank).  A point on a coordinate line
    takes the path without a lead.
    """
    from . import gfmat

    if s.tags != cfg.tags:
        raise ConfigError("system and configuration tags disagree")
    eff = linsys.effective_part(s)
    rest, moved, keep = _frame(eff, cfg)
    q = None if lead is None or keep is None else _lead_of(rest, keep)
    if q is None or not all(moved.points[q]):
        q = lead = None
    else:
        x, y, z = moved.points[q]
        p = cfg.p
        moved = moved._replace(points=tuple(
            (u * y * z % p, v * x * z % p, t * x * y % p)
            for (u, v, t) in moved.points))
        keep = _spread(keep)
        w = rest.mults[q] * (rest.mults[q] + 1) // 2
        if lead.order is None:
            lead.cols = w
        elif lead.cols == w:
            # only the other points' rows, after the factored lead
            rest = rest.replace(mults=tuple(
                0 if i == q else m for i, m in enumerate(rest.mults)))
            q = None
        else:
            raise ValueError("the lead does not fit the system")
    M = build_matrix(rest, moved, keep, q)
    r = gfmat.rank(M, lead)
    monomials = linsys.monomial_count(eff.d)
    # the monomials the frame killed, plus the rank on the kept ones
    return RankReport(monomials, linsys.conditions_count(eff),
                      monomials - M.cols + r)


def least_h0(s: FatPointSystem, trials: int, p: int, seed: int,
             max_cells: Optional[int] = None) -> tuple:
    """(least h0 found, evidence) for s.

    The evidence is empty when linsys.exact_h0 decides s.  Otherwise it is
    ((p, sub-seed, RankReport), ...) of trials 0, 1, ... in order, and stops
    after the first trial whose h0_sample is linsys.lower_h0(s), which no
    later trial can go below.  A sample below it is no rank of s, so it
    raises SamplingError.  Raises MatrixTooLarge instead of sampling when
    the framed matrix has more than max_cells cells (framed_cells).

    The trials share one gfmat.Lead, which lives for this call only.  When
    a point leads the framed matrix (_lead_of), the first trial that moves
    that point to (1:1:1) factors its rows, and every later one ranks only
    the Schur complement of the other points' rows (h0_at_sample).  The
    move is a diagonal map, which fixes the frame's points and acts
    invertibly on forms of degree d, carrying each fat point's conditions
    to those of its image, so each report is still the exact rank at its
    own sampled configuration.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    h0 = linsys.exact_h0(s)
    if h0 is not None:
        return h0, ()
    if max_cells is not None and framed_cells(s) > max_cells:
        raise MatrixTooLarge(f"the framed matrix of {s} has more than "
                             f"{max_cells} cells")
    from .gfmat import Lead

    lead = Lead()
    floor = linsys.lower_h0(s)
    evidence = []
    for t in range(trials):
        sub = derive_seed(seed, t)
        rep = h0_at_sample(s, config_for_system(s, p, sub), lead)
        if rep.h0_sample < floor:
            raise SamplingError(f"trial {t} of {s} reads h0 {rep.h0_sample}, "
                                f"below its floor {floor}")
        evidence.append((p, sub, rep))
        if rep.h0_sample == floor:
            break
    return min(r.h0_sample for (_, _, r) in evidence), tuple(evidence)


def certify(s: FatPointSystem, trials: int = DEFAULT_TRIALS,
            p: int = DEFAULT_PRIME, seed: int = 0,
            max_cells: Optional[int] = None) -> Certificate:
    """Decide (non)speciality of the system, sampling where needed.

    Exact route: when linsys.exact_h0 decides s, with no evidence.
    Sampling route: trials run in order up to the first at linsys.lower_h0,
    which pins the generic h0; `trials` is the number requested and
    `evidence` lists the trials that ran (least_h0, which raises
    MatrixTooLarge past max_cells cells and SamplingError below the
    floor).  The Certificate derives the verdict from these.
    """
    return Certificate(s, p, seed, trials,
                       *least_h0(s, trials, p, seed, max_cells))
