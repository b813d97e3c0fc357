"""Exact dense linear algebra over GF(p).

Everything here is deterministic.  Rank over GF(p), p an odd prime below
MAX_PRIME = 2^21, is computed by one recursive rank-revealing LU, in place
(the recursive PLUQ of Dumas, Pernet and Sultan, with the delayed reduction
of Dumas, Giorgi and Pernet's FFLAS/FFPACK), in product form: no
triangular solve and no inverse of L.  After a column block is factored,
its pivot rows stand first, and each row below them holds G in the pivot
columns, its coefficients on the pivot rows as the block held them on
entry: the row as it entered is G times those rows, on the block's
columns.  Row swaps move whole rows, and no column right of the block is
otherwise written.  The columns split in half and the left half is
factored first, so the rows below its pivots take the Schur update
A22 -= G1 A12 (mod p) with A12 the pivot rows' right block as it entered,
and A22 is factored in turn unless it is zero (the rank is known).  A row
below both halves' pivots then holds G2 on the right pivots, and one more
product turns its G1 into its G on the left ones, G1 - G2 G1', G1' the
right pivot rows' G1.

Matrices that share a leading column block can share its factorization
(Lead): the first rank with it records the block's row order, its pivot
count r and the G of the rows below its pivots, and each later rank is r
plus the rank of the Schur complement of the other columns, which the
recorded G gives with one product, as the top split of _lu would.

Blocks at most LEAF columns wide, small matrices included, go through one
unblocked kernel: first-nonzero pivoting (any nonzero pivot is exact over
a field) on an int64 copy of the block, each row holding its G on the
pivots found so far and its residual in the other columns.  A leaf of
more than twice as many rows as columns runs that loop on its top rows
only, together with the unit rows, each of whose G and residual the loop
carries too: a row x of the block is x times the unit rows, so its G is x
times theirs, and one product gives every row below its G when each
column finds its pivot in the top rows.  A column that finds none there
flushes: the rows below take their G and residual from the same product,
and the loop goes on at full height.  A loop reduces only the pivot column
and row before use, and each pivot adds one product below p^2 to an
entry, so at most LEAF of them keep every int64 entry an exact float64
integer until the block is reduced, once, at the end.

A GFMatrix adopts the float64 array of residues its caller built, with
no copy and no reduction, and rank eliminates that array in place when
its layout allows, so the matrix is undefined afterwards.  The residues
are float64 integers, so the products are plain float64 BLAS products
with no conversion: with p < 2^21 and at most MAX_INNER = 2048 terms,
every partial sum is an integer below 2^53 and so exact, and an entry is
reduced mod p once per up to MAX_INNER terms (the word-size bound of
FFLAS); a leaf's products have at most LEAF terms.  Every reduction of
unreduced float64 data is floor_mod, x - p floor(x / p), which is exact
for integers x with |x| + p <= 2^53; a Schur update leaves
|x| <= MAX_INNER (p - 1)^2 + p, and MAX_INNER (p - 1)^2 + p < 2^53 for
every p below MAX_PRIME.
"""

from __future__ import annotations

import numpy as np

from .field import check_modulus

# At most MAX_INNER terms per float64 product of residues below MAX_PRIME:
# MAX_INNER * (p - 1)^2 < 2^11 * 2^42 = 2^53.
MAX_INNER = 1 << 11

# Recursive elimination (see above): blocks at most LEAF columns wide go
# through the unblocked kernel, and products run in row tiles whose operand
# and product temporaries hold about CHUNK_CELLS entries each.
LEAF = 32  # at most MAX_INNER
CHUNK_CELLS = 1 << 18


class GFMatrix:
    """Dense matrix over GF(p): data, a 2-D float64 array of integers in
    [0, p), in either memory order, adopted as it is, without a copy."""

    def __init__(self, data, p: int):
        check_modulus(p)
        self.p = p
        self.data = data

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


class Lead:
    """A leading column block that several matrices share, factored once.

    cols is its width, which the caller sets before the first rank with
    this lead.  After that rank, order holds the block's row indices with
    its r pivot rows first, and g, of shape (rows - r) x r, holds the G of
    the rows below them: row order[r + i] of the block is g[i] times the
    pivot rows.  For a matrix [B | R] whose leading block is B, the rank is
    then r plus the rank of the Schur complement R[below] - g R[pivots], as
    in the top split of _lu.
    """

    def __init__(self):
        self.cols = 0
        self.order = None
        self.r = 0
        self.g = None

    def _factor(self, blk: np.ndarray, p: int) -> None:
        """Factors blk by _lu on a copy that carries each row's index in
        one more column, which only the row moves write."""
        m, w = blk.shape
        a = np.empty((m, w + 1))
        a[:, :w] = blk
        a[:, w] = np.arange(m)
        pivots = _lu(a, p, 0, 0, w) if m else []
        self.order = a[:, w].astype(np.intp)
        self.r = len(pivots)
        self.g = a[self.r:, pivots]


def rank(M: GFMatrix, lead: Lead = None) -> int:
    """Rank of M over GF(p), by _lu on M.data or its transpose (same rank;
    _rank), in place when its layout allows and otherwise on one C-order
    copy.  M's entries are undefined afterwards.

    With `lead`, the rank is that of M^T while the lead is unfactored: its
    first lead.cols columns are then the lead's block B, which this rank
    factors (Lead).  Once it is factored, the rank is that of [B | M^T].
    Either way only the Schur complement of B is eliminated.
    """
    if lead is None:
        return _rank(M.data, M.p)
    a = M.data.T
    if lead.order is None:
        lead._factor(a[:, :lead.cols], M.p)
        a = a[:, lead.cols:]
    r = lead.r
    s = a[lead.order[r:]]
    _submul(s, lead.g, range(r), a[lead.order[:r]], M.p)
    return r + _rank(s, M.p)


def _rank(a: np.ndarray, p: int) -> int:
    """Rank of the reduced array a, by _lu on a or its transpose, in place
    when its layout allows and otherwise on one C-order copy: the short
    side as columns when it fits one leaf, else the long one (_lu splits)."""
    rows, cols = a.shape
    if (rows < cols) if min(rows, cols) <= LEAF else (rows > cols):
        a = a.T
    a = np.ascontiguousarray(a)
    if 0 in a.shape:
        return 0
    return len(_lu(a, p, 0, 0, a.shape[1]))


def _lu(a: np.ndarray, p: int, r0: int, c0: int, c1: int) -> list:
    """Rank-revealing LU of the block a[r0:, c0:c1] in product form, in
    place; returns its pivot columns in increasing order, which number its
    rank.

    Row swaps move whole rows of a, the i-th pivot row ends at r0 + i, each
    row below the pivot rows ends holding its G in the pivot columns (see
    above), and no column outside c0:c1 is otherwise written.
    """
    if c1 - c0 <= LEAF:
        return _eliminate(a, p, r0, c0, c1)
    h = (c0 + c1) // 2
    left = _lu(a, p, r0, c0, h)
    r1 = r0 + len(left)
    if left:
        _submul(a[r1:, h:c1], a[r1:], left, a[r0:r1, h:c1], p)
    if not a[r1:, h:c1].any():
        return left
    right = _lu(a, p, r1, h, c1)
    r2 = r1 + len(right)
    if left and r2 < len(a):
        # G1 - G2 G1' on the left pivots; a gathered copy is written back
        sel = _run(left)
        g1 = a[r2:, sel]
        _submul(g1, a[r2:], right, a[r1:r2, sel], p)
        if not isinstance(sel, slice):
            a[r2:, sel] = g1
    return left + right


def _eliminate(a: np.ndarray, p: int, r0: int, c0: int, c1: int) -> list:
    """Unblocked form of _lu on the leaf a[r0:, c0:c1], of m rows and
    w = c1 - c0 columns, with the same result.

    The loop runs on a contiguous transposed int64 copy t, so that every
    column operation runs over contiguous memory; its row swaps are
    recorded and applied to a at once (_move), and t is written back at
    the end.  A pivot subtracts its multiple of the pivot row from each
    row below it, G and residual alike, and leaves the multiplier in its
    own column, as the row's G on it.  A leaf of more than 2w rows first
    runs the loop on its top w rows (_window), and the rows below take
    their G, or their G and residual when the window stops short, from
    their entries times the unit rows'.  Only the pivot column and row are
    reduced before use, so every entry x has |x| + p <= (w + 1) p^2 + p <
    2^53, and the block is reduced once at the end.
    """
    blk = a[r0:, c0:c1]
    m, w = blk.shape
    moved = {}
    r = 0
    if m > 2 * w:
        t = blk[:w].T.astype(np.int64, order="C")
        r = _window(t, p, moved)
        if r == w:
            _move(a, r0, moved)
            units = floor_mod(t.T.astype(np.float64), p)
            blk[w:] = floor_mod(blk[w:] @ units, p)
            return list(range(c0, c1))
        units = np.eye(w)
        units[:r] = t[:, :r].T
        full = np.empty((w, m), dtype=np.int64)
        full[:, :w] = t
        full[:, w:] = floor_mod(blk[w:] @ floor_mod(units, p), p).T
        t = full
    else:
        t = blk.T.astype(np.int64, order="C")
    pivots = list(range(c0, c0 + r))
    for c in range(r, w):
        col = t[c, r:]
        col %= p
        if not col[0]:
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            _swap(t, moved, r, r + nz[0])
        pivots.append(c0 + c)
        r += 1
        if r == m:
            break
        piv = col.item(0)
        inv = pow(piv, -1, p)
        row = t[:, r - 1]
        row %= p
        # the pivot's entry as piv - 1: the update below then leaves
        # col - (1 - inv) col = inv col, the multipliers, in the pivot
        # column
        row[c] = piv - 1
        t[:, r:] -= (row * inv % p)[:, None] * col[1:]
    _move(a, r0, moved)
    blk[...] = floor_mod(t.T.astype(np.float64), p)
    return pivots


def _window(t: np.ndarray, p: int, moved: dict) -> int:
    """The loop of _eliminate on the top w rows of a leaf, t their
    transposed w x w int64 copy, in place, with the unit rows carried
    along; returns the number r of leading columns that find a pivot in
    those rows, stopping at the first column that finds none.

    The pivot of column c moves to place c of t, and once its row is used
    the place goes to the c-th unit row, the first whose residual is
    nonzero there (Gauss-Jordan inversion in place): afterwards place k < r
    holds the G and residual of the k-th unit row, and the unit rows from
    r on are still themselves.  With r = w, t transposed is the inverse of
    the pivot block.
    """
    w = len(t)
    r = 0
    while r < w:
        col = t[r]
        col %= p
        piv = col.item(r)
        if not piv:
            nz = col[r:].nonzero()[0]
            if nz.size == 0:
                break
            _swap(t, moved, r, r + nz[0])
            piv = col.item(r)
        inv = pow(piv, -1, p)
        rs = t[:, r] % p
        rs *= inv
        rs %= p
        # every other place x ends x - (1 - inv) x = inv x in column r, its
        # G on the pivot, and with piv + 1 there the pivot row's place ends
        # x - inv x (piv + 1) = -inv x elsewhere, the unit row's residual
        # less inv times the pivot row, and then takes its G, inv
        rs[r] = 1 - inv
        col[r] = piv + 1
        t -= rs[:, None] * col
        t[r, r] = inv
        r += 1
    return r


def _swap(t: np.ndarray, moved: dict, i: int, j: int) -> None:
    """Swaps the rows i and j of a leaf in its transposed copy t, and
    records in moved which row of the leaf each place now holds."""
    x = t[:, i].copy()
    t[:, i] = t[:, j]
    t[:, j] = x
    moved[i], moved[j] = moved.get(j, j), moved.get(i, i)


def _move(a: np.ndarray, r0: int, moved: dict) -> None:
    """Moves the whole rows of a from r0 on as the swaps that moved
    records, in one gather."""
    pos = [i for i, j in moved.items() if i != j]
    if pos:
        a[[r0 + i for i in pos]] = a[[r0 + moved[i] for i in pos]]


def _run(cols: list):
    """The slice of the sorted distinct columns cols when they are one
    contiguous run, so that they index a view, not a gathered copy; else
    cols."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return cols


def _submul(c: np.ndarray, a: np.ndarray, cols: list, b: np.ndarray,
            p: int) -> None:
    """c -= a[:, cols] @ b (mod p) in place, for reduced float64 operands
    and sorted distinct cols.

    The inner dimension runs MAX_INNER at a time, so every product is exact
    (see above), and c is updated tile by tile of rows, which bounds the
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
