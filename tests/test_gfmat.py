import random

import numpy as np
import pytest

from fatpoints import field, gfmat
from fatpoints.field import (DEFAULT_PRIME, MAX_PRIME, is_prime, legendre,
                             sqrt_mod)
from fatpoints.gfmat import LEAF, MAX_INNER, GFMatrix, floor_mod, rank

PRIMES = [101, 32003, DEFAULT_PRIME]


def rational_rank(M) -> int:
    """Exact rank over the rationals of an integer matrix: the oracle.

    Fraction-free Bareiss elimination on Python big integers; for modest
    sizes, not performance.
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


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(DEFAULT_PRIME + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_repeated_modulus_check_hits_the_is_prime_cache():
    is_prime.cache_clear()
    for _ in range(3):
        field.check_modulus(1000003)
        GFMatrix([[1, 2]], 1000003)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    with pytest.raises(field.GFMatError):
        field.check_modulus(1000001)
    with pytest.raises(field.GFMatError):
        field.check_modulus(1000001)  # a cached False still refuses
    assert is_prime.cache_info().hits == 6


def test_rank_identity():
    assert rank(GFMatrix(np.eye(3, dtype=np.int64), 101)) == 3


def test_rank_zero_matrix():
    assert rank(GFMatrix(np.zeros((4, 7), dtype=np.int64), 101)) == 0
    assert rank(GFMatrix(np.zeros((0, 5), dtype=np.int64), 101)) == 0


def test_rank_matches_rational_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        rq = rational_rank(M)
        for p in PRIMES:
            rp = rank(GFMatrix(np.array(M), p))
            assert rp <= rq
        # entries are tiny, so no pivot minor is divisible by the big prime
        assert rank(GFMatrix(np.array(M), DEFAULT_PRIME)) == rq


def test_gfmatrix_from_empty_list_is_0x0():
    M = GFMatrix([], 101)
    assert (M.rows, M.cols) == (0, 0)
    assert rank(M) == 0 and rank(M, overwrite=True) == 0
    assert GFMatrix([5, 7], 101).data.tolist() == [[5], [7]]


def test_rank_leaves_matrix_unchanged():
    rng = np.random.default_rng(4)
    for shape in [(3 * LEAF, 5 * LEAF), (5 * LEAF + 3, 3 * LEAF)]:
        M = GFMatrix(rng.integers(0, 101, shape), 101)
        before = M.data.copy()
        r = rank(M)
        assert (M.data == before).all()
        assert rank(M, overwrite=True) == r


def test_rational_rank_proportional_rows():
    assert rational_rank([[1, 2], [2, 4]]) == 1


def test_rational_rank_identity():
    assert rational_rank([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4


def test_rational_rank_vandermonde():
    nodes = [1, 2, 3, 5, 8]
    V = [[x ** j for j in range(5)] for x in nodes]
    assert rational_rank(V) == 5


def test_rank_permutation_and_scaling_invariance():
    rng = random.Random(11)
    p = 32003
    for _ in range(100):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        M = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        r0 = rank(GFMatrix(M, p))
        assert r0 <= min(rows, cols)
        perm = list(range(rows))
        rng.shuffle(perm)
        assert rank(GFMatrix(M[perm], p)) == r0
        cperm = list(range(cols))
        rng.shuffle(cperm)
        assert rank(GFMatrix(M[:, cperm], p)) == r0
        scaled = M.copy()
        scaled[rng.randrange(rows)] = scaled[rng.randrange(rows)] * rng.randint(1, p - 1) % p
        # scaling a row by a nonzero constant
        i = rng.randrange(rows)
        scaled = M.copy()
        scaled[i] = scaled[i] * rng.randint(1, p - 1) % p
        assert rank(GFMatrix(scaled, p)) == r0


def test_rank_rectangular_random_vs_oracle():
    rng = random.Random(3)
    M = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(8)]
    assert rank(GFMatrix(np.array(M), DEFAULT_PRIME)) == rational_rank(M)


def test_sqrt_mod():
    rng = random.Random(5)
    for p in [101, 32003, DEFAULT_PRIME, 97, 113]:  # both p % 4 classes
        for _ in range(20):
            a = rng.randrange(p)
            if legendre(a, p) == 1 or a == 0:
                r = sqrt_mod(a, p)
                assert r * r % p == a % p
            else:
                with pytest.raises(field.GFMatError):
                    sqrt_mod(a, p)


def test_bad_modulus_rejected():
    with pytest.raises(field.GFMatError):
        GFMatrix([[1]], 100)
    with pytest.raises(field.GFMatError):
        GFMatrix([[1]], 2)


def test_rank_refuses_word_overflowing_prime():
    # rank 5: the last row is the sum of the first two.  Mod a 40-bit prime
    # the int64 products overflow and the old kernel reported full rank
    big = 1099511627689
    assert is_prime(big)
    rng = np.random.default_rng(1)
    M = rng.integers(0, big, (6, 6))
    M[5] = (M[0] + M[1]) % big
    with pytest.raises(field.GFMatError, match="2\\^21"):
        rank(GFMatrix(M, big))
    # 2097169 is the least prime above 2^21, and the default the largest
    # below it
    with pytest.raises(field.GFMatError, match="2\\^21"):
        GFMatrix(M, 2097169)
    assert MAX_PRIME == 2 ** 21 and DEFAULT_PRIME < MAX_PRIME
    assert not any(is_prime(q) for q in range(DEFAULT_PRIME + 1, 2097169))


def _unblocked_rank(M, p):
    # row echelon form reducing every entry at every step, apart from
    # gfmat's kernel; products of residues stay below 2^42
    a = np.mod(M, p)
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        a[r + 1:, c:] = (a[r + 1:, c:] - a[r + 1:, c, None] * a[r, c:]) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def _low_rank(rng, rows, cols, r, p):
    # r random rows mixed with coefficients below 4: every partial sum of
    # the float64 product is an integer below 2^53, so it is exact
    coef = rng.integers(0, 4, (rows, r)).astype(np.float64)
    base = rng.integers(0, p, (r, cols)).astype(np.float64)
    return (coef @ base).astype(np.int64) % p


@pytest.mark.parametrize("p", [3, 5, 7, 65521, DEFAULT_PRIME])
def test_blocked_rank_matches_unblocked_kernel(p):
    # n columns recurse four levels deep before the leaves
    rng = np.random.default_rng(p)
    n = 8 * LEAF + 40
    one_row = np.zeros((1, n), dtype=np.int64)
    one_row[0, -1] = 1                                  # pivot in last leaf
    zero_lines = rng.integers(0, p, (n, n + 30))
    zero_lines[:, rng.choice(n + 30, 40, replace=False)] = 0
    zero_lines[rng.choice(n, 30, replace=False)] = 0
    zero_leaves = rng.integers(0, p, (n, n + 100))
    zero_leaves[:, :LEAF] = 0                           # first leaf empty
    h = (n + 100) // 2
    zero_leaves[:, h:h + 2 * LEAF + 5] = 0              # right half starts empty
    # columns that depend on earlier ones: pivots missing inside one leaf,
    # inside halves at several levels, and across the top split
    dep = rng.integers(0, p, (n, n + 50))
    for c in (5, LEAF + 3, 3 * LEAF + 1, 5 * LEAF, (n + 50) // 2 + 2, n + 49):
        dep[:, c] = (2 * dep[:, c - 1] + dep[:, c // 3]) % p
    cases = [  # (matrix, full rank)
        (rng.integers(0, p, (n + 60, n)), True),            # tall
        (rng.integers(0, p, (n, n + 90)), True),            # wide
        (rng.integers(0, p, (3 * LEAF + 5, 8 * LEAF)), True),  # rows run out
        (rng.integers(1, p, (1, n)), True),
        (rng.integers(1, p, (n, 1)), True),
        (one_row, True),
        (np.zeros((n, 1), dtype=np.int64), False),
        (_low_rank(rng, n, n + 10, 200, p), False),
        (_low_rank(rng, n + 20, n, 5 * LEAF + 10, p), False),
        (zero_lines, False),
        (zero_leaves, False),
        (dep, True),
        (dep[:, :n].copy(), False),
        (dep[:, :n].T.copy(), False),
        # every entry p - 1, the largest residue
        (np.full((n, n + 30), p - 1), False),
        (np.full((n + 30, n), p - 1), False),
    ]
    for M, full in cases:
        want = _unblocked_rank(M, p)
        assert (want == min(M.shape)) == full
        assert rank(GFMatrix(M, p)) == want
        # the float64 kernel against the int64 oracle, rows permuted
        assert rank(GFMatrix(M[rng.permutation(len(M))], p)) == want


def test_rank_chunks_pivot_blocks_beyond_max_inner():
    # [[I, B], [C, C B]] has rank r = MAX_INNER + 12, all of it in the left
    # half, so the Schur update of the 30 rows below runs its inner
    # dimension in two chunks
    p = DEFAULT_PRIME
    r = MAX_INNER + 12
    rng = np.random.default_rng(8)
    B = rng.integers(0, p, (r, r))
    C = rng.integers(0, 4, (30, r))
    M = np.block([[np.eye(r, dtype=np.int64), B], [C, C @ B % p]])
    assert rank(GFMatrix(M, p)) == r

    # the same chunking on scattered pivot columns, every entry p - 1, and
    # on random residues, against Python integers
    k = MAX_INNER + 100
    c = rng.integers(0, p, (3, 4)).astype(np.float64)
    for cols in (sorted(rng.choice(k + 30, k, replace=False).tolist()),
                 list(range(20, k + 20))):                 # one run: a view
        for a, b in ((np.full((3, k + 30), p - 1.0), np.full((k, 4), p - 1.0)),
                     (rng.integers(0, p, (3, k + 30)).astype(np.float64),
                      rng.integers(0, p, (k, 4)).astype(np.float64))):
            got = c.copy()
            gfmat._submul(got, a, cols, b, p)
            want = [[(int(c[i, j]) - sum(int(a[i, q]) * int(b[t, j])
                                         for t, q in enumerate(cols))) % p
                     for j in range(4)] for i in range(3)]
            assert got.tolist() == want


def test_blocked_rank_matches_rational_oracle():
    # low-rank integer matrices keep Bareiss cheap; negative entries become
    # residues near p, so the limb products see full-size operands
    rng = np.random.default_rng(5)
    for r, shape in [(6, (8 * LEAF + 30, 8 * LEAF + 50)),
                     (9, (8 * LEAF + 70, 8 * LEAF + 20))]:
        coef = rng.integers(-3, 4, (shape[0], r))
        base = rng.integers(-3, 4, (r, shape[1]))
        M = coef @ base
        want = rational_rank(M)
        assert want == r
        assert rank(GFMatrix(M, DEFAULT_PRIME)) == want
        assert _unblocked_rank(M, DEFAULT_PRIME) == want


def _leaves(rng, a, r0, cols, p):
    # cols cut into consecutive leaves of 1 to LEAF pivots, each with the
    # inverse of its block of L, as _lu returns them
    segs = []
    while cols:
        n = min(int(rng.integers(1, LEAF + 1)), len(cols))
        segs.append((cols[:n],
                     gfmat._unit_lower_inverse(a[r0:r0 + n, cols[:n]], p)))
        r0, cols = r0 + n, cols[n:]
    return segs


@pytest.mark.parametrize("k", [1, 5, LEAF, 2 * LEAF + 7, 5 * LEAF])
def test_trsm_matches_integer_oracle(k):
    # L's multipliers sit in scattered columns of a wider matrix, below row
    # r0, as _lu leaves them, in leaves of random width; both solves use
    # the leaves' inverses
    for p in (7, DEFAULT_PRIME):
        rng = np.random.default_rng(k)
        r0 = 3
        a = rng.integers(0, p, (r0 + k + 4, k + 40)).astype(np.float64)
        cols = sorted(rng.choice(k + 40, k, replace=False).tolist())
        segs = _leaves(rng, a, r0, cols, p)
        L = [[1 if i == j else int(a[r0 + i, cols[j]]) if i > j else 0
              for j in range(k)] for i in range(k)]
        for width in (2 * LEAF + 1, 3):
            x = rng.integers(0, p, (k, width)).astype(np.float64)
            got = x.copy()
            gfmat._trsm(a, p, r0, segs, got)
            # L (L^-1 x) = x, in Python integers
            for i in range(k):
                for c in range(width):
                    assert sum(L[i][j] * int(got[j, c])
                               for j in range(i + 1)) % p == x[i, c]


@pytest.mark.parametrize("k", [1, 2, 3, 17, LEAF])
def test_unit_lower_inverse_matches_integer_oracle(k):
    # only the strictly lower part of l counts
    for p in (3, DEFAULT_PRIME):
        rng = np.random.default_rng(k)
        for l in (rng.integers(0, p, (k, k)).astype(np.float64),
                  np.full((k, k), p - 1.0)):
            got = gfmat._unit_lower_inverse(l, p).tolist()
            L = [[1 if i == j else int(l[i, j]) if i > j else 0
                  for j in range(k)] for i in range(k)]
            # (I + N) got = I, in Python integers, and got is reduced
            for i in range(k):
                for j in range(k):
                    assert sum(L[i][t] * int(got[t][j])
                               for t in range(k)) % p == (i == j)
                    assert 0 <= got[i][j] < p


@pytest.mark.parametrize("p", [3, DEFAULT_PRIME])
def test_eliminate_factors_a_leaf_exactly(p):
    # the delayed reduction at its worst: a LEAF-wide block of p - 1, and
    # residues near p in full- and low-rank blocks; the last column of a
    # holds row numbers, so the row swaps can be read back
    rng = np.random.default_rng(p)
    n = 3 * LEAF + 5
    low = (rng.integers(0, 3, (n, 9)) @ rng.integers(0, p, (9, LEAF))) % p
    for block in (np.full((n, LEAF), p - 1), np.full((5, LEAF), p - 1),
                  rng.integers(max(p - 2 ** 20, 0), p, (n, LEAF)),
                  rng.integers(0, p, (LEAF - 7, LEAF)), low):
        m = len(block)
        a = np.hstack([block, np.arange(m)[:, None]]).astype(np.float64)
        (piv, inv), = gfmat._eliminate(a, p, 0, 0, LEAF)
        k = len(piv)
        assert piv == sorted(piv) and k == _unblocked_rank(block, p)
        assert ((0 <= a[:, :LEAF]) & (a[:, :LEAF] < p)).all()
        # L U = the block with its rows permuted, and inv L = I on the
        # leaf's block of L, in Python integers
        L = [[1 if i == j else int(a[i, piv[j]]) if i > j else 0
              for j in range(k)] for i in range(m)]
        U = [[int(a[i, c]) if c >= piv[i] else 0 for c in range(LEAF)]
             for i in range(k)]
        for i in range(m):
            row = block[int(a[i, LEAF])]
            for c in range(LEAF):
                assert sum(L[i][j] * U[j][c] for j in range(k)) % p == row[c]
        for i in range(k):
            for j in range(k):
                assert sum(int(inv[i, t]) * L[t][j]
                           for t in range(k)) % p == (i == j)
    # a leaf that finds no pivot returns nothing and inverts nothing
    a = np.zeros((5, LEAF))
    assert gfmat._eliminate(a, p, 0, 0, LEAF) == []


def _count_leaves(monkeypatch):
    # (first column, found any pivot) of each leaf eliminated, and the size
    # of each block of L inverted
    leaves, inverses = [], []
    orig_eliminate, orig_inverse = gfmat._eliminate, gfmat._unit_lower_inverse

    def eliminate(a, p, r0, c0, c1):
        segs = orig_eliminate(a, p, r0, c0, c1)
        leaves.append((c0, bool(segs)))
        return segs

    def inverse(l, p):
        inverses.append(len(l))
        return orig_inverse(l, p)

    monkeypatch.setattr(gfmat, "_eliminate", eliminate)
    monkeypatch.setattr(gfmat, "_unit_lower_inverse", inverse)
    return leaves, inverses


def test_rank_inverts_each_leaf_block_at_most_once(monkeypatch):
    # full rank over 8 leaves: the solves above the leaves would invert the
    # first leaf's block once at each of three levels
    leaves, inverses = _count_leaves(monkeypatch)
    rng = np.random.default_rng(6)
    for shape in [(8 * LEAF, 8 * LEAF), (8 * LEAF + 40, 5 * LEAF + 3)]:
        M = rng.integers(0, DEFAULT_PRIME, shape)
        leaves.clear()
        inverses.clear()
        assert rank(GFMatrix(M, DEFAULT_PRIME)) == min(shape)
        assert 0 < len(inverses) <= sum(found for _, found in leaves)


@pytest.mark.parametrize("case", ["zero-rows", "low-rank"])
def test_rank_stops_once_the_rows_left_are_zero(monkeypatch, case):
    # rank 2 LEAF over 8 leaves of columns, all of it in the first two: a
    # full-rank block with zero rows shuffled in, or more rows than the
    # rank, as in the special-40 matrix; no leaf right of the first two is
    # eliminated, and each of those two inverts its block of L once
    p = DEFAULT_PRIME
    rng = np.random.default_rng(9)
    if case == "zero-rows":
        M = np.zeros((4 * LEAF, 8 * LEAF), dtype=np.int64)
        M[:2 * LEAF] = rng.integers(0, p, (2 * LEAF, 8 * LEAF))
        M = M[rng.permutation(4 * LEAF)]
    else:
        M = _low_rank(rng, 3 * LEAF, 8 * LEAF, 2 * LEAF, p)
    leaves, inverses = _count_leaves(monkeypatch)
    assert rank(GFMatrix(M, p)) == _unblocked_rank(M, p) == 2 * LEAF
    assert leaves == [(0, True), (LEAF, True)] and inverses == [LEAF, LEAF]


def test_mul_mod_exact_at_worst_case():
    # every entry p - 1 at inner dimension MAX_INNER: the largest sum a
    # float64 product of residues must hold, against Python integers
    p = DEFAULT_PRIME
    assert MAX_INNER == 2048 and MAX_INNER * (MAX_PRIME - 2) ** 2 < 2 ** 53
    a = np.full((3, MAX_INNER), p - 1.0)
    b = np.full((MAX_INNER, 4), p - 1.0)
    assert (gfmat._mul_mod(a, b, p) == MAX_INNER * (p - 1) ** 2 % p).all()
    rng = np.random.default_rng(2)
    a = rng.integers(p - 2 ** 20, p, (5, MAX_INNER)).astype(np.float64)
    b = rng.integers(p - 2 ** 20, p, (MAX_INNER, 3)).astype(np.float64)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
             for col in b.T] for row in a]
    assert gfmat._mul_mod(a, b, p).tolist() == want
    with pytest.raises(ValueError):
        gfmat._mul_mod(np.ones((1, MAX_INNER + 1)),
                       np.ones((MAX_INNER + 1, 1)), p)


@pytest.mark.parametrize("p", [3, 101, 2097143])
def test_floor_mod_exact_at_its_bound(p):
    # every kind of integer the kernel reduces, up to the Schur update's
    # worst case MAX_INNER (p - 1)^2 below 0 and p - 1 above it, against
    # Python integers
    assert MAX_INNER * (2097143 - 1) ** 2 + 2097143 < 2 ** 53
    worst = MAX_INNER * (p - 1) ** 2
    xs = [0, 1, p - 1, p, p + 1, worst, worst + p - 1, -worst,
          -worst + p - 1, 2 ** 53 - p, -(2 ** 53 - p)]
    for k in (1, 2, 7, 2 ** 20 + 3, worst // p - 1, worst // p):
        xs += [k * p, -k * p, k * p + 1, k * p - 1, -k * p + 1, -k * p - 1]
    xs = [x for x in xs if abs(x) + p <= 2 ** 53]
    got = floor_mod(np.array(xs, dtype=np.float64), p)
    assert got.tolist() == [x % p for x in xs]
    # on a strided view, in place, as on a tile of the Schur update
    a = np.full((4, 6), -float(worst))
    tile = a[::2, 1:4]
    assert floor_mod(tile, p) is tile
    assert (tile == -worst % p).all() and (a[1::2] == -worst).all()

