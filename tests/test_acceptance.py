"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import time

import pytest

from fatpoints import cli, elliptic, gfmat, linsys
from fatpoints.certificate import (INCONCLUSIVE, NONSPECIAL, SPECIAL_EXACT,
                                   canonical_json)
from fatpoints.elliptic import (corollary_nonspecial, mu_bound, reduce,
                                theorem_upper_bound)
from fatpoints.field import DEFAULT_PRIME
from fatpoints.interp import (build_matrix, certify, config_for_system,
                              h0_at_sample)
from fatpoints.linsys import (FatPointSystem, ON_CUBIC, chi, cremona,
                              homogeneous_system)
from test_gfmat import gfmatrix, rational_rank
from test_interp import monomial_basis

CASES = [(13, 10, 4), (28, 12, 8), (38, 10, 12), (57, 10, 18), (174, 10, 55)]


def corollary(d, n, m, **kw):
    """corollary_nonspecial on the sweep row (d; m^n) and its twist."""
    return corollary_nonspecial(homogeneous_system(d, n, m),
                                elliptic.corollary_twist(d, n, m), **kw)


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_criterion_1_expected_dimension_table():
    t0 = time.time()
    got = [linsys.expected_dim(homogeneous_system(d, n, m))
           for (d, n, m) in CASES]
    elapsed = time.time() - t0
    ok = got == [4, 2, -1, 0, -1] and elapsed < 1.0
    report("1 expected-dimension table (exact, < 1 s)", ok)


def test_criterion_2_mu_values():
    ok = True
    for (d, n, m), want in zip(CASES, [3, 9, 13, 19, 57]):
        b = mu_bound(d, n, m)
        ok = ok and b == want and b.denominator == 1
    report("2 twist bounds 3, 9, 13, 19, 57, integral (exact rational)", ok)


def test_criterion_3_reduced_systems():
    want = [(4, (1,) * 10), (1, (-1,) * 12), (-1, (-1,) * 10),
            (0, (-1,) * 10), (3, (-2,) * 10)]
    ok = True
    for (d, n, m), mu, (rd, rm) in zip(CASES, [3, 9, 13, 19, 57], want):
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        ok = (ok and plan.reduced.d == rd and plan.reduced.mults == rm
              and plan.reduced.tags[:n] == (ON_CUBIC,) * n)
    report("3 reduced systems match, first k points on-cubic", ok)


def test_criterion_4_ten_cubic_points_on_quartics():
    t0 = time.time()
    s = homogeneous_system(4, 10, 1, tag=ON_CUBIC)
    good = 0
    for seed in range(10):
        # certify needs no sample here (linsys.exact_h0 decides s), so the
        # samples are ranked directly
        rep = h0_at_sample(s, config_for_system(s, DEFAULT_PRIME, seed))
        if rep.full_rank and rep.h0_sample == 5:
            good += 1
    c = certify(s, trials=1, p=DEFAULT_PRIME, seed=0)
    elapsed = time.time() - t0
    ok = (good >= 9 and c.verdict == NONSPECIAL and c.h0 == 5
          and elapsed < 1.0)
    report(f"4 on-cubic (4; 1^10) full rank for {good}/10 seeds (< 1 s)", ok)


def test_criterion_5_corollary_pipeline():
    ok = True
    for (d, n, m) in CASES[:4]:
        ok = ok and corollary(d, n, m, seed=0).verdict == NONSPECIAL
    declined = corollary(174, 10, 55, seed=0)
    ok = ok and declined.verdict == INCONCLUSIVE
    red = certify(homogeneous_system(3, 10, -2, tag=ON_CUBIC), seed=0)
    ok = ok and red.verdict == SPECIAL_EXACT and red.h0 == 10 and red.h1 == 10
    plan = reduce(homogeneous_system(174, 10, 55), 10, 57)
    ok = ok and theorem_upper_bound(plan, seed=0).h0_bound == 10
    report("5 corollary certifies cases 1-4, declines case 5 with bound 10", ok)


def test_criterion_6_direct_cross_check():
    t0 = time.time()
    c1 = certify(homogeneous_system(13, 10, 4), seed=0)
    M1 = build_matrix(homogeneous_system(13, 10, 4),
                      config_for_system(homogeneous_system(13, 10, 4),
                                        DEFAULT_PRIME, 0))
    c2 = certify(homogeneous_system(57, 10, 18), seed=0)
    M2 = build_matrix(homogeneous_system(57, 10, 18),
                      config_for_system(homogeneous_system(57, 10, 18),
                                        DEFAULT_PRIME, 0))
    elapsed = time.time() - t0
    ok = (c1.verdict == NONSPECIAL and c1.h0 == 5
          and c2.verdict == NONSPECIAL and c2.h0 == 1
          and (M1.rows, M1.cols) == (100, 105)
          and (M2.rows, M2.cols) == (1710, 1711)
          and corollary(13, 10, 4, seed=0).h0 == c1.h0
          and corollary(57, 10, 18, seed=0).h0 == c2.h0
          and elapsed < 60.0)
    report(f"6 direct generic checks agree with reduction route "
           f"({elapsed:.1f} s < 60 s)", ok)


@pytest.mark.slow
def test_criterion_6_optional_direct_largest_case():
    # 15400 x 15400 direct check (10780 x 10780 eliminated on the frame),
    # over a minute: full rank proves the system empty, stronger than the
    # corollary's h0 <= 10
    c = certify(homogeneous_system(174, 10, 55), trials=1, seed=0)
    assert c.verdict == NONSPECIAL and c.h0 == 0


def test_criterion_7_property_suites():
    rng = random.Random(2026)

    for _ in range(100):  # chi-gap closed form vs direct chi difference
        d, n, m = rng.randint(0, 50), rng.randint(10, 20), rng.randint(0, 10)
        mu = rng.randint(0, m + 3)
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        gap = mu * (n - 9 - 6 * d + 2 * m * n - mu * (n - 9))
        assert gap % 2 == 0
        assert gap // 2 == plan.chi_reduced - plan.chi_original

    for _ in range(100):  # chi identity and hypothesis sign
        d, n = rng.randint(0, 40), rng.randint(10, 16)
        mults = tuple(rng.randint(0, 8) for _ in range(n))
        plan = reduce(FatPointSystem(d, mults), rng.randint(10, n),
                      rng.randint(0, 10))
        assert plan.chi_original == chi(plan.original)
        assert plan.chi_reduced == chi(plan.reduced)
        assert plan.chi_S == plan.chi_original - plan.chi_reduced
        assert plan.hypothesis == (plan.chi_S <= 0)

    for _ in range(100):  # cremona preserves chi
        s = FatPointSystem(rng.randint(-2, 20),
                           tuple(rng.randint(-4, 8) for _ in range(rng.randint(3, 12))))
        assert chi(cremona(s)) == chi(s)

    for _ in range(100):  # GF(p) rank equals rational rank on small matrices
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert gfmat.rank(gfmatrix(M, DEFAULT_PRIME)) == rational_rank(M)

    for seed in range(10):  # on-cubic h0 >= generic h0 per seed
        for (d, n, m) in [(3, 10, 1), (4, 10, 1), (6, 10, 2)]:
            sg = homogeneous_system(d, n, m)
            sc = homogeneous_system(d, n, m, tag=ON_CUBIC)
            hg = h0_at_sample(sg, config_for_system(sg, DEFAULT_PRIME, seed)).h0_sample
            hc = h0_at_sample(sc, config_for_system(sc, DEFAULT_PRIME, seed)).h0_sample
            assert hc >= hg

    for _ in range(100):  # monomial / condition counting identities
        d = rng.randint(0, 60)
        n = rng.randint(0, 12)
        s = FatPointSystem(d, tuple(rng.randint(0, 6) for _ in range(n)))
        assert len(monomial_basis(d)) == (d + 1) * (d + 2) // 2
        assert chi(s) == linsys.monomial_count(d) - linsys.conditions_count(s)

    report("7 property suites (chi-gap, identity, cremona, ranks, "
           "semicontinuity, counting)", True)


def test_criterion_8_deterministic_certificates():
    def run_suite():
        out = []
        for (d, n, m) in CASES:
            out.append(corollary(d, n, m, seed=1))
        out.append(certify(homogeneous_system(13, 10, 4), seed=1))
        out.append(certify(homogeneous_system(4, 10, 1, tag=ON_CUBIC),
                           seed=1))
        return "\n".join(canonical_json(c.to_dict()) for c in out)

    a, b = run_suite(), run_suite()
    ok = a.encode() == b.encode()
    report("8 byte-identical certificates across identical runs", ok)
