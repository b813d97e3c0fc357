"""Exact dense linear algebra over GF(p), plus an integer rank oracle.

Everything here is deterministic.  Rank over GF(p), p < 2^31, is computed by
blocked right-looking Gaussian elimination (the delayed-reduction scheme of
Dumas, Giorgi and Pernet's FFLAS/FFPACK, in the rank-revealing form of
Jeannerod, Pernet and Storjohann).  Each panel of PANEL columns is factored
by one unblocked kernel, first-nonzero pivoting on int64 residues (any
nonzero pivot is exact over a field).  Its k pivot rows and columns give an
invertible minor A11, and the trailing block takes the Schur update
A22 -= A21 A11^-1 A12 (mod p): float64 BLAS products of 11-bit limbs against
31-bit residues, exact because every partial sum stays below 2^53.  Blocks
whose short side is at most CUTOFF, small matrices included, go through the
unblocked kernel alone.  The rational oracle uses fraction-free Bareiss
elimination with Python big integers.
"""

from __future__ import annotations

import numpy as np

# Moduli must stay below 2^31: the int64 elimination multiplies two reduced
# residues, and the limb products of the Schur update need residues below
# 2^31 to stay exact in float64.
MAX_PRIME = 2 ** 31

# Largest prime below 2^31.
DEFAULT_PRIME = 2147483629

# Blocked elimination (see above); the Schur update runs CHUNK_CELLS trailing
# entries at a time to bound its temporaries.
PANEL = 64  # at most MAX_INNER
CUTOFF = 256
CHUNK_CELLS = 1 << 18

# Schur products split one factor into LIMBS limbs of LIMB_BITS bits; the
# limb product's inner dimension LIMBS * K must stay at most 2^11.
LIMB_BITS = 11
LIMBS = 3
MAX_INNER = (1 << 11) // LIMBS


class GFMatError(Exception):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> None:
    if p <= 2 or not is_prime(p):
        raise GFMatError(f"modulus {p} is not an odd prime")


def field_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p; a must be nonzero mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p (odd prime), by Tonelli-Shanks.

    Raises GFMatError if a is a quadratic non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise GFMatError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class GFMatrix:
    """Dense row-major matrix over GF(p), entries fully reduced int64."""

    def __init__(self, data, p: int = DEFAULT_PRIME):
        check_modulus(p)
        _check_word_size(p)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            arr = arr.reshape(arr.shape[0] if arr.size else 0, -1)
        self.p = p
        self.data = np.mod(arr, p)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"GFMatrix({self.rows}x{self.cols} mod {self.p})"


def _check_word_size(p: int) -> None:
    if p >= MAX_PRIME:
        raise GFMatError(f"modulus {p} must be below 2^31 for exact "
                         "word-size elimination")


def rank(M: GFMatrix) -> int:
    """Rank of M over GF(p).

    The result does not depend on row or column order.  The input matrix is
    not modified.
    """
    return _rank_mod(M.data, M.p)


def _rank_mod(data: np.ndarray, p: int) -> int:
    """Rank mod p (p < 2^31) of an integer matrix; data is not modified."""
    _check_word_size(p)
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 2 or 0 in data.shape:
        return 0
    if data.shape[0] > data.shape[1]:
        data = data.T  # same rank; short side as rows keeps panels short
    a = np.mod(data, p, out=np.empty(data.shape, dtype=np.int64))
    nrows, ncols = a.shape
    r = c = 0
    while min(nrows - r, ncols - c) > CUTOFF:
        c1 = c + PANEL
        # pivot rows are swapped to the top of a[r:], original values kept
        piv = _eliminate(a[r:, c:c1].copy(), p, follow=a[r:])
        k = len(piv)
        if k:
            cols = c + np.array(piv)
            # A22 -= A21 (A11^-1 A12), A11 the pivot minor of this panel
            x = _mul_mod(_inverse_mod(a[r:r + k, cols], p), a[r:r + k, c1:], p)
            xs = _shifted(x, p)
            step = max(1, CHUNK_CELLS // (ncols - c1))
            for i in range(r + k, nrows, step):
                s = a[i:i + step, c1:]
                # the product is below 2^53, so s minus it is exact in float64
                np.subtract(s, _limbs(a[i:i + step, cols]) @ xs, out=s,
                            casting="unsafe")
                s %= p
        r, c = r + k, c1
    return r + len(_eliminate(a[r:, c:], p))


def _eliminate(a: np.ndarray, p: int, follow=None) -> list:
    """First-nonzero Gaussian elimination of reduced int64 a, in place.

    Returns the pivot columns; their number is the rank.  Any nonzero pivot
    is exact over a field.  Row swaps are also applied to `follow`.
    """
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            if follow is not None:
                follow[[r, piv]] = follow[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        # normalize the pivot row once, then clear the column below
        a[r, c:] = a[r, c:] * inv % p
        factors = a[r + 1:, c]
        if factors.any():
            a[r + 1:, c:] = (a[r + 1:, c:] - factors[:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots


def _inverse_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible k x k matrix mod p, by two elimination passes."""
    k = len(m)
    aug = np.concatenate([m, np.eye(k, dtype=np.int64)], axis=1)
    _eliminate(aug, p)  # [U | E] with E m = U unit upper triangular
    # reversing rows and columns makes U unit lower triangular; a second
    # pass clears it to I and turns E into (the reversal of) U^-1 E = m^-1
    rev = aug[::-1, ::-1]
    back = np.concatenate([rev[:, k:], rev[:, :k]], axis=1)
    _eliminate(back, p)
    return np.ascontiguousarray(back[::-1, ::-1][:, :k])


def _limbs(a: np.ndarray) -> np.ndarray:
    """[a_0 | a_1 | a_2] as float64, where a = a_0 + a_1 2^11 + a_2 2^22."""
    mask = (1 << LIMB_BITS) - 1
    return np.concatenate([(a >> (j * LIMB_BITS)) & mask for j in range(LIMBS)],
                          axis=1).astype(np.float64)


def _shifted(b: np.ndarray, p: int) -> np.ndarray:
    """[b; b 2^11; b 2^22] mod p as float64, the partner of _limbs."""
    parts = [b]
    for _ in range(LIMBS - 1):
        parts.append((parts[-1] << LIMB_BITS) % p)
    return np.concatenate(parts, axis=0).astype(np.float64)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for reduced int64 a and b, exact in float64 BLAS.

    _limbs(a) @ _shifted(b) is congruent to a @ b.  Each of its terms is an
    11-bit limb times a residue below 2^31, and there are LIMBS * K <= 2048
    of them, so every partial sum is an integer below 2^53, where float64
    arithmetic is exact in any summation order.
    """
    if a.shape[1] > MAX_INNER:
        raise ValueError(f"inner dimension {a.shape[1]} exceeds {MAX_INNER}")
    return (_limbs(a) @ _shifted(b, p)).astype(np.int64) % p


def rational_rank(M) -> int:
    """Exact rank over the rationals of an integer matrix.

    Fraction-free Bareiss elimination on Python big integers; intended for
    modest sizes (the cross-validation oracle), not performance.
    """
    a = [[int(x) for x in row] for row in np.asarray(M).tolist()] if not isinstance(M, list) else [
        [int(x) for x in row] for row in M]
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
