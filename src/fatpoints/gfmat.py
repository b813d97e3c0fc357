"""Exact dense linear algebra over GF(p).

Everything here is deterministic.  Rank over GF(p), p an odd prime below
MAX_PRIME = 2^21, is computed by one recursive rank-revealing LU, in place
(the recursive PLUQ of Dumas, Pernet and Sultan, with the delayed reduction
of Dumas, Giorgi and Pernet's FFLAS/FFPACK).  The columns split in half;
the left half is factored first, its row swaps moving whole rows.  A unit
lower triangular solve turns the pivot rows' right block into
X = L11^-1 A12, the rows below take the Schur update A22 -= L21 X (mod p),
and A22, reduced, is factored in turn unless it is zero (the rank is known).
Blocks at most LEAF columns wide, small matrices included, go through one
unblocked kernel: first-nonzero pivoting on an int64 copy of the block
(any nonzero pivot is exact over a field), which stores the multipliers of
L below each pivot, reducing mod p only the pivot column and row and, once
at the end, the block (at most LEAF updates below p^2 keep every entry an
exact float64 integer).  A leaf returns its pivots with its block of L
inverted by doubling, for the solve.

Matrices hold their residues as float64 integers, so the products are
plain float64 BLAS products with no conversion: with p < 2^21 and at most
MAX_INNER = 2048 terms, every partial sum is an integer below 2^53 and so
exact, and an entry is reduced mod p once per up to MAX_INNER terms (the
word-size bound of FFLAS).  Every reduction of unreduced float64 data is
floor_mod, x - p floor(x / p), which is exact for integers x with
|x| + p <= 2^53; a Schur update leaves |x| <= MAX_INNER (p - 1)^2 + p,
and MAX_INNER (p - 1)^2 + p < 2^53 for every p below MAX_PRIME.
"""

from __future__ import annotations

import numpy as np

from .field import DEFAULT_PRIME, check_modulus

# At most MAX_INNER terms per float64 product of residues below MAX_PRIME:
# MAX_INNER * (p - 1)^2 < 2^11 * 2^42 = 2^53.
MAX_INNER = 1 << 11

# Recursive elimination (see above): blocks at most LEAF columns wide go
# through the unblocked kernel, and products run in row tiles whose operand
# and product temporaries hold about CHUNK_CELLS entries each.
LEAF = 32  # at most MAX_INNER
CHUNK_CELLS = 1 << 18


class GFMatrix:
    """Dense matrix over GF(p), entries fully reduced float64 integers, in
    either memory order."""

    def __init__(self, data, p: int = DEFAULT_PRIME, reduced: bool = False):
        """`reduced` says data is a 2-D float64 array of integers in [0, p);
        it is then adopted as it is, without a copy.  Other data is read as
        int64 integers and reduced."""
        check_modulus(p)
        self.p = p
        if reduced:
            self.data = data
            return
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            n = arr.shape[0] if arr.ndim else 1
            arr = arr.reshape(n, arr.size // n if n else 0)
        self.data = np.mod(arr, p).astype(np.float64)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"GFMatrix({self.rows}x{self.cols} mod {self.p})"


def floor_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float64 array of integers with
    |x| + p <= 2^53; returns x, its entries now in [0, p).

    x / p is rounded correctly, and a non-integer x / p lies at least 1/p
    from the integers, more than half a unit in the last place of any
    quotient below 2^53 / p, so floor(x / p) is the exact floor quotient;
    p times it is an integer of at most |x| + p <= 2^53, so the product
    and the difference are exact too.  The one temporary is the size of x.
    """
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


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
    block is worked on as a contiguous transposed int64 copy, so that every
    column operation runs over contiguous memory and reduces a short
    vector with one int64 `%`.  Only the pivot column and row are reduced
    before use: the rows below take the pivot row times the pivot's
    inverse, reduced, times their entries in the pivot column, which are
    then scaled into the multipliers of L and left below p^2.  So at most
    c1 - c0 <= LEAF <= MAX_INNER updates, each below p^2, leave every entry
    x with |x| + p <= 2^53: the block converts to float64 exactly, and
    floor_mod reduces it once at the end.
    """
    t = a[r0:, c0:c1].T.astype(np.int64, order="C")
    w, nrows = t.shape
    pivots = []
    r = 0
    for c in range(w):
        col = t[c, r:]
        col %= p
        if not col[0]:
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            i, j = r, r + nz[0]
            a[[r0 + i, r0 + j]] = a[[r0 + j, r0 + i]]
            t[:, [i, j]] = t[:, [j, i]]
        pivots.append(c0 + c)
        r += 1
        if r == nrows:
            break
        # the update of the columns to the right, then the multipliers
        # col[1:] / pivot, left below p^2
        inv = pow(col.item(0), -1, p)
        if c + 1 < w:
            row = t[c + 1:, r - 1]
            row %= p
            rest = t[c + 1:, r:]
            rest -= (row * inv % p)[:, None] * col[1:]
        col[1:] *= inv
    a[r0:, c0:c1] = floor_mod(t.astype(np.float64), p).T
    if not pivots:
        return []
    return [(pivots, _unit_lower_inverse(a[r0:r0 + r, _run(pivots)], p))]


def _run(cols: list):
    """The slice of the sorted distinct columns cols when they are one
    contiguous run, so that they index a view, not a gathered copy; else
    cols."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return cols


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
    inv = floor_mod(np.eye(len(l)) - n, p)
    for _ in range(1, (len(l) - 1).bit_length()):
        n = _mul_mod(n, n, p)
        # inv + inv @ n is below (len(l) + 1) p^2, exact in float64
        inv += inv @ n
        floor_mod(inv, p)
    return inv


def _submul(c: np.ndarray, a: np.ndarray, cols: list, b: np.ndarray,
            p: int) -> None:
    """c -= a[:, cols] @ b (mod p) in place, for reduced float64 operands
    and sorted distinct cols.

    The inner dimension runs MAX_INNER at a time, so every product is exact
    (see _mul_mod), and c is updated tile by tile of rows, which bounds the
    temporaries; a contiguous run of cols is multiplied as a view.
    """
    m, n = c.shape
    for k0 in range(0, len(cols), MAX_INNER):
        sel = _run(cols[k0:k0 + MAX_INNER])
        xs = b[k0:k0 + MAX_INNER]
        tm = max(1, CHUNK_CELLS // max(len(xs), n))
        for i in range(0, m, tm):
            s = c[i:i + tm]
            # s - prod is an integer of magnitude at most
            # MAX_INNER (p - 1)^2, exact in float64; it is formed and
            # reduced in the contiguous product, not in the strided tile
            prod = a[i:i + tm, sel] @ xs
            s[...] = floor_mod(np.subtract(s, prod, out=prod), p)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for reduced float64 a and b, exact in float64 BLAS.

    Each term is a product of two residues below 2^21, and there are at
    most MAX_INNER = 2^11 of them, so every partial sum is an integer below
    2^53, where float64 arithmetic is exact in any summation order.
    """
    if a.shape[1] > MAX_INNER:
        raise ValueError(f"inner dimension {a.shape[1]} exceeds {MAX_INNER}")
    return floor_mod(a @ b, p)
