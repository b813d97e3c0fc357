"""Linear systems of plane curves with assigned multiple base points.

A system is the data (d; m_1, ..., m_n): curves of degree d passing through
n points with the given multiplicities.  After twisting, both the degree and
the multiplicities may go negative; negative multiplicities mark fixed
exceptional components, which still count in the Euler characteristic but
impose no vanishing conditions.
"""

from __future__ import annotations

from typing import Optional

GENERIC = "generic"
ON_CUBIC = "on-cubic"
_TAGS = frozenset((GENERIC, ON_CUBIC))


class Value:
    """Immutable; equal, hashing and printed by its inputs (_fields); its
    other slots hold facts derived once in __init__, which replace reruns."""
    __slots__ = _fields = ()

    def _set(self, *values):
        for name, v in zip(self.__slots__, values):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._key()), **changes))

    def __reduce__(self):  # pickle and copy rebuild it through __init__
        return type(self), self._key()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._key())
        return f"{type(self).__name__}({', '.join(fields)})"


class FatPointSystem(Value):
    """(d; m_1, ..., m_n), a placement tag per point (GENERIC by default),
    validated; chi and conditions_count read its sums of m(m+1)/2."""
    __slots__ = ("d", "mults", "tags", "_tri", "_conditions")
    _fields = __slots__[:3]

    def __init__(self, d: int, mults: tuple = (), tags: tuple = ()):
        mults = tuple(map(int, mults))
        tags = tuple(tags) if tags else (GENERIC,) * len(mults)
        if len(tags) != len(mults):
            raise ValueError("one tag per multiplicity required")
        try:
            known = _TAGS.issuperset(tags)
        except TypeError:  # an unhashable tag
            known = False
        if not known:
            bad = next(t for t in tags if t not in (GENERIC, ON_CUBIC))
            raise ValueError(f"unknown placement tag {bad!r}")
        conditions = tri = sum([m * (m + 1) for m in mults if m > 0]) // 2
        if mults and min(mults) < 0:
            tri += sum([m * (m + 1) for m in mults if m < 0]) // 2
        self._set(d, mults, tags, tri, conditions)

    @property
    def npoints(self) -> int:
        return len(self.mults)

    def __str__(self):
        return f"({self.d}; {','.join(map(str, self.mults))})"

    def to_dict(self) -> dict:
        return {"d": self.d, "mults": list(self.mults), "tags": list(self.tags)}


def homogeneous_system(d: int, n: int, m: int, tag: str = GENERIC) -> FatPointSystem:
    return FatPointSystem(d, (m,) * n, (tag,) * n)


def monomial_count(d: int) -> int:
    """Number of degree-d monomials in three variables; 0 for d < 0."""
    return (d + 1) * (d + 2) // 2 if d >= 0 else 0


def chi(s: FatPointSystem) -> int:
    """Euler characteristic d(d+3)/2 + 1 - sum m_i(m_i+1)/2, all entries."""
    return s.d * (s.d + 3) // 2 + 1 - s._tri


def expected_dim(s: FatPointSystem) -> int:
    """Expected dimension chi - 1 (raw; may be below -1)."""
    return chi(s) - 1


def conditions_count(s: FatPointSystem) -> int:
    """Linear conditions imposed by the positive multiplicities only."""
    return s._conditions


def cubic_bound(s: FatPointSystem) -> int:
    """Upper bound on h0 of s with no matrix: peel a smooth cubic C.

    Negative multiplicities are clamped to 0 (fixed components), and every
    point is put on C, which can only raise h0 (semicontinuity).  With C'
    = 3H - sum E_i the strict transform of C, an elliptic curve,
    0 -> O(F - C') -> O(F) -> O_C'(F) -> 0 gives h0(F) <= h0(F - C') +
    h0(C', F|C'), where F|C' has degree e = 3d - sum m_i: h0 is e for
    e > 0, at most 1 for e = 0 and 0 for e < 0.  F - C' is (d - 3; m_i - 1),
    clamped at 0 again, and the peel repeats until d < 0 (h0 0) or no
    multiplicity is positive (the monomial count).  The bound holds at every
    configuration on a smooth cubic, over any field.  The peel runs on the
    positive multiplicities sorted descending, with their running sum.
    """
    ms = sorted((m for m in s.mults if m > 0), reverse=True)
    d, left, bound, j = s.d, sum(ms), 0, 0
    while d >= 0:
        if not ms:
            return bound + monomial_count(d)
        e = 3 * d - left
        bound += e if e > 0 else 1 if e == 0 else 0
        d, left, j = d - 3, left - len(ms), j + 1
        while ms and ms[-1] <= j:
            ms.pop()
    return bound


def lower_h0(s: FatPointSystem) -> int:
    """The one floor of h0: max(monomials - conditions, 0), the chi of the
    clamped system, which h0 never goes below (h2 = 0 for d >= 0; h0 = 0
    for d < 0).  An upper bound meeting it pins h0; no sample is below it."""
    return max(monomial_count(s.d) - s._conditions, 0)


def exact_h0(s: FatPointSystem) -> Optional[int]:
    """h0 of s with no matrix: cubic_bound(s) when it equals lower_h0(s),
    else None (sampling is needed).  That covers d < 0 and the monomial
    count when no positive multiplicity is left."""
    bound = cubic_bound(s)
    return bound if bound == lower_h0(s) else None


def effective_part(s: FatPointSystem) -> FatPointSystem:
    """Drop fixed exceptional components: clamp multiplicities at 0.

    Negative multiplicities contribute no sections and no conditions; the
    sections of the system are those of the clamped one.  Requires d >= 0.
    """
    if s.d < 0:
        raise ValueError("effective_part needs d >= 0 (system is empty otherwise)")
    return s.replace(mults=tuple(max(m, 0) for m in s.mults))


def cremona(s: FatPointSystem) -> FatPointSystem:
    """Quadratic transformation centered at the three largest multiplicities.

    Sorting is descending and stable; chi is preserved.  All points must be
    generic (the centers may not be constrained to a curve).
    """
    if s.npoints < 3:
        raise ValueError("cremona needs at least 3 points")
    if any(t != GENERIC for t in s.tags):
        raise ValueError("cremona centers must be generic points")
    order = sorted(range(s.npoints), key=lambda i: -s.mults[i])
    top = order[:3]
    msum = sum(s.mults[i] for i in top)
    if msum <= s.d:
        # the transform would not decrease the degree; treat as a no-op
        return s
    new = list(s.mults)
    for i in top:
        new[i] = s.d - (msum - s.mults[i])
    return s.replace(d=2 * s.d - msum, mults=tuple(new))


def cremona_standardize(s: FatPointSystem):
    """Iterate cremona on the sorted multiplicity vector until standard form.

    Stops when d >= m1 + m2 + m3 (sorted descending), or when the degree or
    a multiplicity goes negative.  Returns (system, steps taken).  A step
    runs only when d < m1 + m2 + m3 and lowers d to 2d - (m1 + m2 + m3) < d,
    so at most d + 1 steps run before d goes negative.
    """
    if s.npoints < 3:
        raise ValueError("cremona_standardize needs at least 3 points")
    cur = s.replace(mults=tuple(sorted(s.mults, reverse=True)))
    steps = 0
    while cur.d >= 0 and min(cur.mults) >= 0:
        m1, m2, m3 = cur.mults[0], cur.mults[1], cur.mults[2]
        if cur.d >= m1 + m2 + m3:
            break
        cur = cremona(cur)
        cur = cur.replace(mults=tuple(sorted(cur.mults, reverse=True)))
        steps += 1
    return cur, steps
