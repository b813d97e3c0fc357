"""Exact dense linear algebra over GF(p), plus an integer rank oracle.

Everything here is deterministic.  Rank over GF(p), p an odd prime below
MAX_PRIME = 2^21, is computed by one recursive rank-revealing LU, in place
(the recursive PLUQ of Dumas, Pernet and Sultan, with the delayed reduction
of Dumas, Giorgi and Pernet's FFLAS/FFPACK).  The columns split in half;
the left half is factored first, its row swaps moving whole rows.  A unit
lower triangular solve turns the pivot rows' right block into
X = L11^-1 A12, the rows below take the Schur update A22 -= L21 X (mod p),
and A22, reduced, is factored in turn unless it is zero (the rank is known).
Blocks at most LEAF columns wide, small matrices included, go through one
unblocked kernel: first-nonzero pivoting on int64 residues (any nonzero
pivot is exact over a field), which stores the multipliers of L below each
pivot, reducing mod p only the pivot column and row and, once at the end,
the block (at most LEAF updates below p^2 each fit int64).  A leaf returns
its pivots with its block of L inverted by doubling, for the solve.
The products are plain float64 BLAS products of reduced residues: with
p < 2^21 and at most MAX_INNER = 2048 terms, every partial sum is an
integer below 2^53 and so exact, and an entry is reduced mod p once per up
to MAX_INNER terms (the word-size bound of FFLAS).  The rational oracle
uses fraction-free Bareiss elimination with Python big integers.
"""

from __future__ import annotations

import numpy as np

from .field import DEFAULT_PRIME, check_modulus

# At most MAX_INNER terms per float64 product of residues below MAX_PRIME:
# MAX_INNER * (p - 1)^2 < 2^11 * 2^42 = 2^53.
MAX_INNER = 1 << 11

# Recursive elimination (see above): blocks at most LEAF columns wide go
# through the unblocked kernel, and products run in tiles whose operand
# and product temporaries hold about CHUNK_CELLS entries each.
LEAF = 32  # at most MAX_INNER
CHUNK_CELLS = 1 << 18


class GFMatrix:
    """Dense matrix over GF(p), entries fully reduced int64, in either
    memory order."""

    def __init__(self, data, p: int = DEFAULT_PRIME, reduced: bool = False):
        """`reduced` says data is a 2-D int64 array with entries in [0, p);
        it is then adopted as it is, without a copy."""
        check_modulus(p)
        self.p = p
        if reduced:
            self.data = data
            return
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            n = arr.shape[0] if arr.ndim else 1
            arr = arr.reshape(n, arr.size // n if n else 0)
        self.data = np.mod(arr, p)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"GFMatrix({self.rows}x{self.cols} mod {self.p})"


def rank(M: GFMatrix, overwrite: bool = False) -> int:
    """Rank of M over GF(p), by _lu on a C-order copy of M or, for a tall
    M, of its transpose (same rank; the recursion splits the long side).

    With `overwrite` set, M.data is eliminated in place when its layout
    allows, with no copy, and its entries are undefined afterwards.
    """
    a = M.data.T if M.rows > M.cols else M.data
    a = np.ascontiguousarray(a) if overwrite else np.array(a, order="C")
    if 0 in a.shape:
        return 0
    return sum(len(cols) for cols, _ in _lu(a, M.p, 0, 0, a.shape[1]))


def _lu(a: np.ndarray, p: int, r0: int, c0: int, c1: int) -> list:
    """Rank-revealing LU of the block a[r0:, c0:c1], in place.

    Returns one pair (pivot columns, L^-1) per leaf that found any pivot
    (_eliminate), in increasing column order; the pivots number the block's
    rank.  Row swaps move whole rows of a, and the i-th pivot row ends at
    r0 + i.  The pivot rows then hold U, and below each pivot its column
    holds the multipliers of the unit lower triangular L.  The left half of
    the columns is factored first; its pivot rows' right block A12 becomes
    X = L11^-1 A12 (_trsm), the rows below take A22 -= L21 X, and A22 is
    factored unless it is zero.
    """
    if c1 - c0 <= LEAF:
        return _eliminate(a, p, r0, c0, c1)
    h = (c0 + c1) // 2
    left = _lu(a, p, r0, c0, h)
    cols = [c for seg, _ in left for c in seg]
    r1 = r0 + len(cols)
    if left:
        x = a[r0:r1, h:c1]
        _trsm(a, p, r0, left, x)
        _submul(a[r1:, h:c1], a[r1:], cols, x, p)
    if not a[r1:, h:c1].any():
        return left
    return left + _lu(a, p, r1, h, c1)


def _eliminate(a: np.ndarray, p: int, r0: int, c0: int, c1: int) -> list:
    """Unblocked form of _lu on a[r0:, c0:c1]: [] if it finds no pivot,
    else [(pivots, L^-1)], L^-1 the inverse of the leaf's block of L, which
    no later step of _lu changes.

    First-nonzero pivoting: any nonzero pivot is exact over a field.  The
    block is worked on as a contiguous transposed copy, so that every
    column operation runs over contiguous memory.  Only pivot columns and
    rows are reduced mod p before use, the rest once at the end: at most
    c1 - c0 < 2^21 updates, each below p^2 < 2^42, keep entries below 2^63.
    """
    t = np.ascontiguousarray(a[r0:, c0:c1].T)
    nrows = t.shape[1]
    pivots = []
    r = 0
    for c in range(c1 - c0):
        t[c, r:] %= p
        nz = t[c, r:].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i, j = r, r + nz[0]
            a[[r0 + i, r0 + j]] = a[[r0 + j, r0 + i]]
            t[:, [i, j]] = t[:, [j, i]]
        pivots.append(c0 + c)
        r += 1
        if r == nrows:
            break
        if nz.size > 1:
            # store the multipliers, then update the columns to their right
            mult = t[c, r:]
            mult *= pow(int(t[c, r - 1]), -1, p)
            mult %= p
            row = t[c + 1:, r - 1]
            row %= p
            t[c + 1:, r:] -= row[:, None] * mult
    t %= p
    a[r0:, c0:c1] = t.T
    if not pivots:
        return []
    return [(pivots, _unit_lower_inverse(a[r0:r0 + r, pivots], p))]


def _trsm(a: np.ndarray, p: int, r0: int, segs: list, x: np.ndarray) -> None:
    """x <- L^-1 x in place, L the unit lower triangular matrix with
    L[i, j] = a[r0 + i, cols[j]] for i > j, cols the pivots of the leaves
    segs of _lu joined, each leaf's block of L inverted by its own L^-1."""
    if len(segs) == 1:
        x[...] = _mul_mod(segs[0][1], x, p)
        return
    s = len(segs) // 2
    cols = [c for seg, _ in segs[:s] for c in seg]
    h = len(cols)
    _trsm(a, p, r0, segs[:s], x[:h])
    _submul(x[h:], a[r0 + h:r0 + len(x)], cols, x[:h], p)
    _trsm(a, p, r0 + h, segs[s:], x[h:])


def _unit_lower_inverse(l: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of I + N, N the strictly lower part of the square l,
    by doubling: N^k = 0, so it is (I - N)(I + N^2)(I + N^4)... up to N^k."""
    n = np.tril(l, -1)
    inv = (np.eye(len(l), dtype=np.int64) - n) % p
    for _ in range(1, (len(l) - 1).bit_length()):
        n = _mul_mod(n, n, p)
        inv = (inv + _mul_mod(inv, n, p)) % p
    return inv


def _submul(c: np.ndarray, a: np.ndarray, cols: list, b: np.ndarray,
            p: int) -> None:
    """c -= a[:, cols] @ b (mod p) in place, for reduced int64 operands.

    The inner dimension runs MAX_INNER at a time, so every product is exact
    (see _mul_mod), and c is updated tile by tile, which bounds the
    temporaries.
    """
    m, n = c.shape
    for k0 in range(0, len(cols), MAX_INNER):
        sel = cols[k0:k0 + MAX_INNER]
        # operands and product hold about CHUNK_CELLS entries; the rows of b
        # may grow to an eighth of c, so that a large c converts its rows
        # of a for fewer column tiles
        k = len(sel)
        tn = min(n, max(1, max(CHUNK_CELLS, c.size // 8) // k))
        tm = max(1, CHUNK_CELLS // max(k, tn))
        for j in range(0, n, tn):
            xs = b[k0:k0 + MAX_INNER, j:j + tn].astype(np.float64)
            for i in range(0, m, tm):
                s = c[i:i + tm, j:j + tn]
                # the product is below 2^53, so s minus it is exact in float64
                np.subtract(s, a[i:i + tm, sel].astype(np.float64) @ xs,
                            out=s, casting="unsafe")
                s %= p


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for reduced int64 a and b, exact in float64 BLAS.

    Each term is a product of two residues below 2^21, and there are at
    most MAX_INNER = 2^11 of them, so every partial sum is an integer below
    2^53, where float64 arithmetic is exact in any summation order.
    """
    if a.shape[1] > MAX_INNER:
        raise ValueError(f"inner dimension {a.shape[1]} exceeds {MAX_INNER}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p


def rational_rank(M) -> int:
    """Exact rank over the rationals of an integer matrix.

    Fraction-free Bareiss elimination on Python big integers; intended for
    modest sizes (the cross-validation oracle), not performance.
    """
    a = [[int(x) for x in row] for row in M]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r
