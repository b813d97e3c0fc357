import random

import numpy as np
import pytest

from fatpoints import field, gfmat, interp, linsys
from fatpoints.field import (DEFAULT_PRIME, MAX_PRIME, is_prime, legendre,
                             sqrt_mod)
from fatpoints.gfmat import LEAF, MAX_INNER, GFMatrix, floor_mod, rank
from fatpoints.linsys import GENERIC, ON_CUBIC, homogeneous_system

PRIMES = [101, 32003, DEFAULT_PRIME]


def gfmatrix(M, p) -> GFMatrix:
    """The matrix of M's integers reduced mod p: the float64 residues that
    GFMatrix adopts."""
    return GFMatrix(np.mod(np.asarray(M, dtype=np.int64), p)
                    .astype(np.float64), p)


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
        gfmatrix([[1, 2]], 1000003)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    with pytest.raises(field.GFMatError):
        field.check_modulus(1000001)
    with pytest.raises(field.GFMatError):
        field.check_modulus(1000001)  # a cached False still refuses
    assert is_prime.cache_info().hits == 6


def test_rank_identity():
    assert rank(gfmatrix(np.eye(3, dtype=np.int64), 101)) == 3


def test_rank_zero_matrix():
    assert rank(gfmatrix(np.zeros((4, 7), dtype=np.int64), 101)) == 0
    assert rank(gfmatrix(np.zeros((0, 5), dtype=np.int64), 101)) == 0


def test_rank_matches_rational_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        rq = rational_rank(M)
        for p in PRIMES:
            rp = rank(gfmatrix(np.array(M), p))
            assert rp <= rq
        # entries are tiny, so no pivot minor is divisible by the big prime
        assert rank(gfmatrix(np.array(M), DEFAULT_PRIME)) == rq


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
        r0 = rank(gfmatrix(M, p))
        assert r0 <= min(rows, cols)
        perm = list(range(rows))
        rng.shuffle(perm)
        assert rank(gfmatrix(M[perm], p)) == r0
        cperm = list(range(cols))
        rng.shuffle(cperm)
        assert rank(gfmatrix(M[:, cperm], p)) == r0
        scaled = M.copy()
        scaled[rng.randrange(rows)] = scaled[rng.randrange(rows)] * rng.randint(1, p - 1) % p
        # scaling a row by a nonzero constant
        i = rng.randrange(rows)
        scaled = M.copy()
        scaled[i] = scaled[i] * rng.randint(1, p - 1) % p
        assert rank(gfmatrix(scaled, p)) == r0


def test_rank_rectangular_random_vs_oracle():
    rng = random.Random(3)
    M = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(8)]
    assert rank(gfmatrix(np.array(M), DEFAULT_PRIME)) == rational_rank(M)


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
        gfmatrix([[1]], 100)
    with pytest.raises(field.GFMatError):
        gfmatrix([[1]], 2)


def test_rank_refuses_word_overflowing_prime():
    # rank 5: the last row is the sum of the first two.  Mod a 40-bit prime
    # the int64 products overflow and the old kernel reported full rank
    big = 1099511627689
    assert is_prime(big)
    rng = np.random.default_rng(1)
    M = rng.integers(0, big, (6, 6))
    M[5] = (M[0] + M[1]) % big
    with pytest.raises(field.GFMatError, match="2\\^21"):
        rank(gfmatrix(M, big))
    # 2097169 is the least prime above 2^21, and the default the largest
    # below it
    with pytest.raises(field.GFMatError, match="2\\^21"):
        gfmatrix(M, 2097169)
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


def _leaf_width(n):
    # the width of the first leaf of an n-column block: _lu halves it
    while n > LEAF:
        n //= 2
    return n


def _spy_windows(monkeypatch):
    # (pivots found, width) of each leaf window; fewer pivots is a flush
    windows = []
    orig = gfmat._window

    def window(t, p, moved):
        r = orig(t, p, moved)
        windows.append((r, len(t)))
        return r

    monkeypatch.setattr(gfmat, "_window", window)
    return windows


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
    # the first leaf's top w rows singular, so that its window stops short
    # and flushes: at its first column (zero there), at a middle one (zero
    # leading rows), at its last one (a repeated leading row), and on a
    # leaf block of rank below w (a column that depends on two others)
    w = _leaf_width(n + 30)
    first, middle, last, low_leaf = (rng.integers(0, p, (n, n + 30))
                                     for _ in range(4))
    first[:w, 0] = 0
    middle[:w // 2] = 0
    last[1] = last[0]
    low_leaf[:, w // 2] = (low_leaf[:, 1] + 2 * low_leaf[:, 2]) % p
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
        (first, True),
        (middle, False),
        (last, False),
        (low_leaf, True),
    ]
    for M, full in cases:
        want = _unblocked_rank(M, p)
        assert (want == min(M.shape)) == full
        assert rank(gfmatrix(M, p)) == want
        # the float64 kernel against the int64 oracle, rows permuted
        assert rank(gfmatrix(M[rng.permutation(len(M))], p)) == want


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
    assert rank(gfmatrix(M, p)) == r

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
        assert rank(gfmatrix(M, DEFAULT_PRIME)) == want
        assert _unblocked_rank(M, DEFAULT_PRIME) == want


@pytest.mark.parametrize("k", [1, 2, 17, LEAF])
def test_window_inverts_its_top_block_in_place(k):
    # _window on a k x k block, against Python integers: place q < r holds
    # the q-th unit row's G on the r pivot rows (the block's rows in pivot
    # order) and its residual in the columns from r on, so that the unit
    # row is G times the pivot rows plus the residual; with r = k, t
    # transposed is the inverse of the block with its rows in that order
    for p in (3, DEFAULT_PRIME):
        rng = np.random.default_rng(k + p)
        lower, upper = rng.integers(0, p, (2, k, k))
        one = np.eye(k, dtype=np.int64)
        full = (np.tril(lower, -1) + one) @ (np.triu(upper, 1) + one) % p
        for T, want in ((full[rng.permutation(k)], k),
                        (np.full((k, k), p - 1), 1),
                        (np.vstack([np.zeros((1, k), int), full[1:]]),
                         None)):
            t = T.T.astype(np.int64, order="C")
            moved = {}
            r = gfmat._window(t, p, moved)
            assert r == want or want is None and r < k
            assert (np.abs(t) + p <= 2 ** 53).all()
            top = [[int(x) for x in T[moved.get(i, i)]] for i in range(r)]
            for q in range(r):
                g = [int(t[c, q]) for c in range(k)]
                for c in range(k):
                    rest = g[c] if c >= r else 0
                    assert (sum(g[j] * top[j][c] for j in range(r)) + rest
                            - (q == c)) % p == 0


@pytest.mark.parametrize("p", [3, 65521, DEFAULT_PRIME])
def test_eliminate_factors_a_leaf_exactly(monkeypatch, p):
    # the delayed reduction at its worst (every entry p - 1, residues near
    # p) and low-rank blocks, through all three paths: a short block (at
    # most 2 LEAF rows) at full height, a tall one whose window finds every
    # pivot, and a tall one whose window stops short and flushes; the last
    # column of a holds row numbers, so the row swaps can be read back
    windows = _spy_windows(monkeypatch)
    rng = np.random.default_rng(p)
    n = 3 * LEAF + 5
    low = (rng.integers(0, 3, (n, 9)) @ rng.integers(0, p, (9, LEAF))) % p
    zero_top = rng.integers(0, p, (n, LEAF))
    zero_top[:LEAF // 2] = 0
    unit_top = rng.integers(0, p, (n, LEAF))
    unit_top[:LEAF] = np.tril(unit_top[:LEAF], -1) + np.eye(LEAF, dtype=int)
    near_p = rng.integers(max(p - 2 ** 20, 0), p, (n, LEAF))
    for block, path in ((np.full((n, LEAF), p - 1), "flush"),
                        (np.full((5, LEAF), p - 1), "short"),
                        (near_p, "window" if p > 3 else None),
                        (unit_top, "window"),
                        (rng.integers(0, p, (LEAF - 7, LEAF)), "short"),
                        (low, "flush"), (zero_top, "flush")):
        m = len(block)
        a = np.hstack([block, np.arange(m)[:, None]]).astype(np.float64)
        windows.clear()
        piv = gfmat._eliminate(a, p, 0, 0, LEAF)
        assert path in (None, "short" if not windows else "window"
                        if windows == [(LEAF, LEAF)] else "flush")
        k = len(piv)
        assert piv == sorted(piv) and k == _unblocked_rank(block, p)
        assert ((0 <= a[:, :LEAF]) & (a[:, :LEAF] < p)).all()
        # the pivot rows first, as the block held them; each row below
        # holds G in the pivot columns, and is G times the pivot rows, in
        # Python integers
        rows = [int(i) for i in a[:, LEAF]]
        assert sorted(rows) == list(range(m))
        top = [[int(x) for x in block[i]] for i in rows[:k]]
        for i in range(k, m):
            g = [int(a[i, c]) for c in piv]
            for c in range(LEAF):
                assert (sum(g[j] * top[j][c] for j in range(k)) - block[
                    rows[i], c]) % p == 0
    # a low-rank leaf finds its 9 pivots; a leaf that finds no pivot
    # returns none
    a = np.hstack([low, np.arange(n)[:, None]]).astype(np.float64)
    assert len(gfmat._eliminate(a, p, 0, 0, LEAF)) == 9
    assert gfmat._eliminate(np.zeros((5, LEAF)), p, 0, 0, LEAF) == []


@pytest.mark.parametrize("p", [3, 7, 65521, DEFAULT_PRIME])
def test_lu_leaves_each_row_its_g_on_the_pivot_rows(p):
    # the product form above the leaves: after the call rank makes, _lu
    # on a block several leaves wide, random or low-rank, the rows below
    # the pivots are G times the pivot rows as the block held them, in
    # Python integers, the last blocks included
    rng = np.random.default_rng(p)
    for M in (rng.integers(0, p, (4 * LEAF, 3 * LEAF + 5)),
              _low_rank(rng, 6 * LEAF, 5 * LEAF, 50, p)):
        m, n = M.shape
        a = np.hstack([M, np.arange(m)[:, None]]).astype(np.float64)
        piv = gfmat._lu(a, p, 0, 0, n)
        k = len(piv)
        assert k == _unblocked_rank(M, p)
        assert ((0 <= a[:, :n]) & (a[:, :n] < p)).all()
        rows = a[:, n].astype(np.int64)
        g = a[k:][:, piv].astype(np.int64).astype(object)
        top = M[rows[:k]].astype(object)
        assert ((g.dot(top) - M[rows[k:]]) % p == 0).all()


@pytest.mark.parametrize("n", [5 * LEAF, 8 * LEAF + 40])
def test_generic_square_matrix_never_flushes(monkeypatch, n):
    # every window of a random square matrix, at a large prime, finds
    # every pivot of its leaf in its top rows
    windows = _spy_windows(monkeypatch)
    M = np.random.default_rng(n).integers(0, DEFAULT_PRIME, (n, n))
    assert rank(gfmatrix(M, DEFAULT_PRIME)) == n
    assert windows and all(r == w for r, w in windows)


@pytest.mark.parametrize("tag", [GENERIC, ON_CUBIC])
def test_special_40_flushes_and_keeps_its_deficit(monkeypatch, tag):
    # (40;20^5) is twice the conic through the five points: its framed
    # matrix, built as h0_at_sample builds it, has rank one below its
    # monomials at both placements, and its windows flush
    s = homogeneous_system(40, 5, 20, tag)
    cfg = interp.config_for_system(s, DEFAULT_PRIME, 0)
    M = interp.build_matrix(*interp._frame(linsys.effective_part(s), cfg))
    want = _unblocked_rank(M.data.astype(np.int64), DEFAULT_PRIME)
    assert want == M.cols - 1
    windows = _spy_windows(monkeypatch)
    assert rank(M) == want
    assert any(r < w for r, w in windows)


@pytest.mark.parametrize("p", [3, 65521, DEFAULT_PRIME])
@pytest.mark.parametrize("rows, w, n, r", [
    (40, 25, 30, 25), (40, 25, 30, 9), (70, 33, 50, 70), (40, 40, 10, 40),
    (45, 20, 70, 45), (30, 12, 0, 5), (20, 10, 15, 0), (0, 5, 7, 0)])
def test_rank_after_a_factored_lead_matches_the_whole_matrix(p, rows, w, n,
                                                             r):
    # matrices [B | R] that share their leading block B, of rank at most r:
    # the first rank with the lead factors B, the later ones see only R,
    # either in B's row space (the same r rows mixed) or random
    rng = np.random.default_rng([p, rows, w, n, r])
    coef = rng.integers(0, 4, (rows, r)).astype(np.float64)
    B = (coef @ rng.integers(0, p, (r, w))).astype(np.int64) % p
    lead = gfmat.Lead()
    lead.cols = w
    for k in range(4):
        if k % 2:
            R = rng.integers(0, p, (rows, n))
        else:
            R = (coef @ rng.integers(0, p, (r, n))).astype(np.int64) % p
        whole = np.hstack([B, R])
        given = whole if lead.order is None else R
        # the lead's columns are the rows of the matrix rank receives
        assert (rank(gfmatrix(given.T, p), lead=lead)
                == _unblocked_rank(whole, p))
        assert (lead.r, len(lead.order)) == (_unblocked_rank(B, p), rows)
        assert lead.g.shape == (rows - lead.r, lead.r)


def _count_leaves(monkeypatch):
    # (first column, found any pivot) of each leaf eliminated
    leaves = []
    orig = gfmat._eliminate

    def eliminate(a, p, r0, c0, c1):
        pivots = orig(a, p, r0, c0, c1)
        leaves.append((c0, bool(pivots)))
        return pivots

    monkeypatch.setattr(gfmat, "_eliminate", eliminate)
    return leaves


def test_rank_inverts_each_leaf_block_at_most_once(monkeypatch):
    # full rank over 8 leaves, and a matrix whose leading rows are zero so
    # that windows flush: a leaf of more than 2w rows inverts its top block
    # in its window exactly once, whether or not it flushes, and a shorter
    # leaf inverts none; nothing above the leaves inverts a block again
    windows = _spy_windows(monkeypatch)
    runs = []
    orig = gfmat._eliminate

    def eliminate(a, p, r0, c0, c1):
        before = len(windows)
        pivots = orig(a, p, r0, c0, c1)
        runs.append((len(a) - r0 > 2 * (c1 - c0), len(windows) - before))
        return pivots

    monkeypatch.setattr(gfmat, "_eliminate", eliminate)
    rng = np.random.default_rng(6)
    zero_top = rng.integers(0, DEFAULT_PRIME, (8 * LEAF + 40, 5 * LEAF + 3))
    zero_top[:LEAF // 2] = 0
    for M in (rng.integers(0, DEFAULT_PRIME, (8 * LEAF, 8 * LEAF)),
              rng.integers(0, DEFAULT_PRIME, (8 * LEAF + 40, 5 * LEAF + 3)),
              zero_top.T):
        windows.clear()
        runs.clear()
        assert rank(gfmatrix(M, DEFAULT_PRIME)) == min(M.shape)
        assert runs and all(n == tall for tall, n in runs)
        assert 0 < len(windows) == sum(tall for tall, _ in runs)
    assert any(r < w for r, w in windows)


@pytest.mark.parametrize("case", ["zero-rows", "low-rank"])
def test_rank_stops_once_the_rows_left_are_zero(monkeypatch, case):
    # rank 2 LEAF over 8 leaves of columns, all of it in the first two: a
    # full-rank block with zero rows shuffled in, or more rows than the
    # rank, as in the special-40 matrix; no leaf right of the first two is
    # eliminated
    p = DEFAULT_PRIME
    rng = np.random.default_rng(9)
    if case == "zero-rows":
        M = np.zeros((4 * LEAF, 8 * LEAF), dtype=np.int64)
        M[:2 * LEAF] = rng.integers(0, p, (2 * LEAF, 8 * LEAF))
        M = M[rng.permutation(4 * LEAF)]
    else:
        M = _low_rank(rng, 3 * LEAF, 8 * LEAF, 2 * LEAF, p)
    leaves = _count_leaves(monkeypatch)
    assert rank(gfmatrix(M, p)) == _unblocked_rank(M, p) == 2 * LEAF
    assert leaves == [(0, True), (LEAF, True)]



@pytest.mark.parametrize("shape", [(21, 210), (210, 21), (LEAF, 3 * LEAF)])
def test_a_short_side_within_one_leaf_is_its_columns(monkeypatch, shape):
    # a later (40;20^5) trial's remainder after its lead is 21x210: its 21
    # rows are the columns of one leaf, not 210 columns split into leaves
    p = DEFAULT_PRIME
    M = np.random.default_rng(4).integers(0, p, shape)
    leaves = []
    orig = gfmat._eliminate

    def eliminate(a, p, r0, c0, c1):
        leaves.append((len(a) - r0, c1 - c0))
        return orig(a, p, r0, c0, c1)

    monkeypatch.setattr(gfmat, "_eliminate", eliminate)
    assert rank(gfmatrix(M, p)) == _unblocked_rank(M, p) == min(shape)
    assert leaves == [(max(shape), min(shape))]

def test_mul_mod_exact_at_worst_case():
    # every entry p - 1 at inner dimension MAX_INNER: the largest sum a
    # float64 product of residues must hold, against Python integers
    p = DEFAULT_PRIME
    assert MAX_INNER == 2048 and MAX_INNER * (MAX_PRIME - 2) ** 2 < 2 ** 53
    a = np.full((3, MAX_INNER), p - 1.0)
    b = np.full((MAX_INNER, 4), p - 1.0)
    assert (floor_mod(a @ b, p) == MAX_INNER * (p - 1) ** 2 % p).all()
    rng = np.random.default_rng(2)
    a = rng.integers(p - 2 ** 20, p, (5, MAX_INNER)).astype(np.float64)
    b = rng.integers(p - 2 ** 20, p, (MAX_INNER, 3)).astype(np.float64)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
             for col in b.T] for row in a]
    assert floor_mod(a @ b, p).tolist() == want


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

