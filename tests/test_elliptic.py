import random
from fractions import Fraction

import pytest

from fatpoints import elliptic, interp, linsys
from fatpoints.certificate import (INCONCLUSIVE, NONSPECIAL, SPECIAL_EXACT,
                                   derive_seed)
from fatpoints.elliptic import (InapplicableError, ReductionError,
                                best_bound, corollary_nonspecial,
                                corollary_twist, mu_bound, reduce,
                                theorem_upper_bound)
from fatpoints.interp import certify
from fatpoints.linsys import (FatPointSystem, GENERIC, ON_CUBIC, chi,
                              homogeneous_system)

CASES = [(13, 10, 4), (28, 12, 8), (38, 10, 12), (57, 10, 18), (174, 10, 55)]
MUS = [3, 9, 13, 19, 57]


def corollary(d, n, m, **kw):
    """corollary_nonspecial on the sweep row (d; m^n) and its twist."""
    return corollary_nonspecial(homogeneous_system(d, n, m),
                                corollary_twist(d, n, m), **kw)


def test_mu_bound_values():
    for (d, n, m), mu in zip(CASES, MUS):
        b = mu_bound(d, n, m)
        assert b == mu and b.denominator == 1


def test_mu_bound_and_twist_match_their_first_definitions():
    # mu_bound was 1 + Fraction(2mn - 6d, n - 9), and corollary_twist read
    # it as int(mu) when it was a positive integer and d, m >= 1
    for d in range(-5, 81):
        for n in range(10, 21):
            for m in range(-2, 46):
                old = 1 + Fraction(2 * m * n - 6 * d, n - 9)
                b = mu_bound(d, n, m)
                assert b == old and str(b) == str(old), (d, n, m)
                twist = int(old) if (old.denominator == 1 and old > 0
                                     and d >= 1 and m >= 1) else None
                assert corollary_twist(d, n, m) == twist, (d, n, m)


def test_mu_bound_needs_ten_points():
    with pytest.raises(ReductionError):
        mu_bound(5, 9, 2)


def test_mu_bound_integrality_iff_divisibility():
    rng = random.Random(0)
    for _ in range(200):
        d, n, m = rng.randint(0, 60), rng.randint(10, 25), rng.randint(0, 12)
        b = mu_bound(d, n, m)
        assert (b.denominator == 1) == ((2 * m * n - 6 * d) % (n - 9) == 0)


def chi_gap(d, n, m, mu):
    """The reference closed form of chi(reduced) - chi(original) for
    (d; m^n) with all n points on the cubic and twist mu."""
    t = mu * (n - 9 - 6 * d + 2 * m * n - mu * (n - 9))
    assert t % 2 == 0
    return t // 2


def plan_gap(d, n, m, mu):
    plan = reduce(homogeneous_system(d, n, m), n, mu)
    return plan.chi_reduced - plan.chi_original


def test_chi_gap_zero_twist():
    rng = random.Random(1)
    for _ in range(50):
        d, n, m = rng.randint(0, 40), rng.randint(10, 20), rng.randint(0, 9)
        assert plan_gap(d, n, m, 0) == chi_gap(d, n, m, 0) == 0


def test_chi_gap_boundary_case():
    assert plan_gap(13, 10, 4, 3) == chi_gap(13, 10, 4, 3) == 0


def test_chi_gap_against_direct_chi():
    # oracle: direct chi difference of the reduced and original systems
    red = homogeneous_system(10, 10, 3, tag=ON_CUBIC)
    orig = homogeneous_system(13, 10, 4)
    assert plan_gap(13, 10, 4, 1) == chi_gap(13, 10, 4, 1) \
        == chi(red) - chi(orig)


def test_chi_gap_formula_matches_reduction():
    rng = random.Random(2)
    for _ in range(500):
        d = rng.randint(0, 50)
        n = rng.randint(10, 20)
        m = rng.randint(0, 10)
        mu = rng.randint(0, m + 3)
        assert plan_gap(d, n, m, mu) == chi_gap(d, n, m, mu)


def test_chi_gap_parabola_roots_and_hypothesis():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(0, 30)
        n = rng.randint(10, 18)
        m = rng.randint(1, 8)
        top = mu_bound(d, n, m)
        for mu in range(0, int(top) + 3):
            plan = reduce(homogeneous_system(d, n, m), n, mu)
            inside = min(0, top) <= mu <= max(0, top)
            assert plan.hypothesis == inside
            assert (chi_gap(d, n, m, mu) >= 0) == inside


def test_reduce_paper_systems():
    expected = [
        (4, (1,) * 10),
        (1, (-1,) * 12),
        (-1, (-1,) * 10),
        (0, (-1,) * 10),
        (3, (-2,) * 10),
    ]
    for (d, n, m), mu, (rd, rm) in zip(CASES, MUS, expected):
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        assert plan.reduced.d == rd
        assert plan.reduced.mults == rm
        assert plan.reduced.tags == (ON_CUBIC,) * n


def test_reduce_zero_twist():
    s = homogeneous_system(7, 12, 2)
    plan = reduce(s, 10, 0)
    assert plan.reduced.d == 7
    assert plan.reduced.mults == s.mults
    assert plan.reduced.tags == (ON_CUBIC,) * 10 + (GENERIC,) * 2
    assert plan.chi_S == 0


def test_reduce_preconditions():
    s = homogeneous_system(13, 10, 4)
    with pytest.raises(ReductionError):
        reduce(s, 9, 1)
    with pytest.raises(ReductionError):
        reduce(s, 11, 1)
    with pytest.raises(ReductionError):
        reduce(s, 10, -1)
    with pytest.raises(ReductionError):
        reduce(homogeneous_system(4, 10, 1, tag=ON_CUBIC), 10, 1)


def check_chi_identity(plan):
    """The plan's chis are those of its two systems, the ruled component
    carries their difference, and the hypothesis is that it carries none
    of positive chi."""
    assert plan.chi_original == chi(plan.original)
    assert plan.chi_reduced == chi(plan.reduced)
    assert plan.chi_S == plan.chi_original - plan.chi_reduced
    assert plan.hypothesis == (plan.chi_S <= 0)


def test_chi_identity_check():
    for (d, n, m), mu in zip(CASES, MUS):
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        check_chi_identity(plan)
        assert plan.hypothesis
    plan = reduce(homogeneous_system(13, 10, 4), 10, 4)
    check_chi_identity(plan)
    assert not plan.hypothesis


def test_chi_identity_random_plans():
    rng = random.Random(4)
    for _ in range(200):
        d = rng.randint(0, 40)
        n = rng.randint(10, 16)
        mults = tuple(rng.randint(0, 8) for _ in range(n))
        k = rng.randint(10, n)
        mu = rng.randint(0, 10)
        check_chi_identity(reduce(FatPointSystem(d, mults), k, mu))


def test_theorem_upper_bound_paper_cases():
    plan = reduce(homogeneous_system(174, 10, 55), 10, 57)
    cert = theorem_upper_bound(plan, seed=0)
    assert cert.verdict == INCONCLUSIVE and cert.h0_bound == 10

    plan = reduce(homogeneous_system(57, 10, 18), 10, 19)
    cert = theorem_upper_bound(plan, seed=0)
    assert cert.h0_bound == 1


def test_theorem_upper_bound_zero_twist():
    s = homogeneous_system(4, 10, 1)
    plan = reduce(s, 10, 0)
    cert = theorem_upper_bound(plan, seed=0)
    assert cert.verdict == NONSPECIAL and cert.h0_bound == 5


# a twist of (6; 4, 2^3, 1^6) whose reduced system the cubic peel leaves
# above the floor (5 > 3), though sampling on the cubic reaches it
SAMPLED_AT_FLOOR = FatPointSystem(6, (4, 2, 2, 2, 1, 1, 1, 1, 1, 1))


@pytest.mark.parametrize("s,mu,h0,exact,verdict", [
    (homogeneous_system(20, 14, 6), 10, 0, True, NONSPECIAL),
    (SAMPLED_AT_FLOOR, 0, 3, False, NONSPECIAL),
    (homogeneous_system(26, 11, -2), 0, 378, True, SPECIAL_EXACT)],
    ids=["exact-twist", "sampled-twist", "fixed-components"])
def test_theorem_upper_bound_at_the_floor_agrees_with_direct(s, mu, h0, exact,
                                                             verdict):
    # the corollary needs a homogeneous system with a positive integral
    # twist bound, and no system here is one ((20; 6^14) has 53/5), but
    # these twists still reach the floor linsys.lower_h0.  The reduced
    # system of (20; 6^14) at mu 10 is exact, that of SAMPLED_AT_FLOOR is
    # sampled.  (26; (-2)^11) is 11 fixed components: its floor is the
    # 378 monomials, above max(chi, 0) = 367, and both routes pin it
    assert (len(set(s.mults)) > 1
            or elliptic.corollary_twist(s.d, s.npoints, s.mults[0]) is None)
    plan = reduce(s, s.npoints, mu)
    assert plan.hypothesis
    assert (linsys.exact_h0(plan.reduced) is not None) == exact
    cert = theorem_upper_bound(plan, seed=1)
    direct = certify(s, seed=1)
    assert cert.verdict == direct.verdict == verdict
    assert cert.h0 == direct.h0 == h0
    assert bool(cert.evidence) != exact
    assert cert.twist == (s.npoints, mu)


def test_theorem_upper_bound_stops_at_first_full_rank_trial():
    for (s, mu) in [(SAMPLED_AT_FLOOR, 0), (homogeneous_system(13, 10, 4), 1)]:
        plan = reduce(s, s.npoints, mu)
        assert linsys.exact_h0(plan.reduced) is None
        cert = theorem_upper_bound(plan, trials=3, seed=0)
        assert cert.trials == 3 and len(cert.evidence) == 1
        (_, sub, rep), = cert.evidence
        assert rep.full_rank and sub == derive_seed(0, 0)
        every = [interp.h0_at_sample(plan.reduced, interp.config_for_system(
                     plan.reduced, cert.prime, derive_seed(0, t)))
                 for t in range(3)]
        assert cert.h0_bound == min(r.h0_sample for r in every)


def test_theorem_upper_bound_refuses_trials_below_one():
    # (13; 4^10) at mu 1 is sampled; (174; 55^10) at mu 57 reduces to
    # (3; (-2)^10), whose h0 is exact
    for (d, n, m, mu) in [(13, 10, 4, 1), (174, 10, 55, 57)]:
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        assert plan.hypothesis
        with pytest.raises(ValueError, match="trials must be >= 1"):
            theorem_upper_bound(plan, trials=0)


def test_theorem_upper_bound_refuses_without_hypothesis():
    plan = reduce(homogeneous_system(13, 10, 4), 10, 4)
    with pytest.raises(InapplicableError):
        theorem_upper_bound(plan)


def test_theorem_bound_never_below_chi():
    rng = random.Random(6)
    for _ in range(100):
        d = rng.randint(1, 15)
        n = rng.randint(10, 12)
        m = rng.randint(1, 3)
        mu = rng.randint(0, m + 2)
        plan = reduce(homogeneous_system(d, n, m), n, mu)
        if not plan.hypothesis:
            continue
        cert = theorem_upper_bound(plan, trials=1, seed=7)
        assert cert.h0_bound >= max(plan.chi_original, 0)


def test_twist_scan_range_satisfies_the_chi_hypothesis():
    # chi gap mu (n - 9)(mu_bound - mu) / 2 >= 0 on 0 <= mu <= mu_bound
    for d in range(-3, 40):
        for n in range(10, 16):
            for m in range(-1, 12):
                top = mu_bound(d, n, m)
                s = homogeneous_system(d, n, m)
                for mu in range(int(top) + 1 if top >= 0 else 0):
                    assert reduce(s, n, mu).hypothesis, (d, n, m, mu)


def test_best_bound_is_the_least_bound_over_admissible_twists():
    # the scan prunes by chi and stops at the floor; the reference runs
    # theorem_upper_bound at every twist from 0 to the twist bound
    for (d, n, m) in [(13, 10, 4), (10, 11, 3), (9, 13, 2), (21, 12, 6),
                      (0, 10, 0), (-3, 10, 1), (2, 10, 2)]:
        top = mu_bound(d, n, m)
        best, mu = best_bound(d, n, m, trials=1, seed=4)
        if top < 0:
            assert (best, mu) == (None, None)
            continue
        bounds = {}
        for t in range(int(top) + 1):
            plan = reduce(homogeneous_system(d, n, m), n, t)
            try:
                bounds[t] = theorem_upper_bound(plan, trials=1, seed=4).h0_bound
            except InapplicableError:
                assert t > 0 and (d < 1 or m < 1)
        assert best == min(bounds.values()) and bounds[mu] == best
    # in 0 cells only the twists the peel decides fit: (1; 1^10) twists to
    # an empty system
    assert best_bound(1, 10, 1, 0) == (0, 15)


def test_best_bound_skips_twists_too_large_to_sample(monkeypatch):
    # (4; 1^13): twist 1 is peeled to the bound 3, and twist 0 would sample
    # 120 cells, more than the limit, so it is skipped with no sample
    monkeypatch.setattr(interp, "h0_at_sample",
                        lambda *a: pytest.fail("sampled"))
    assert best_bound(4, 13, 1, 119, trials=1) == (3, 1)
    # when the peel decides no twist, none fits in 0 cells
    monkeypatch.setattr(linsys, "exact_h0", lambda s: None)
    assert best_bound(13, 10, 4, 0) == (None, None)


def test_best_bound_stops_at_the_floor(monkeypatch):
    # (13; 4^10) reaches its floor chi = 5 at the top twist 3; the later
    # twists could not lower the bound, so the scan reduces no further
    calls = []
    real = elliptic.reduce
    monkeypatch.setattr(elliptic, "reduce",
                        lambda s, k, mu: calls.append(mu) or real(s, k, mu))
    assert best_bound(13, 10, 4, trials=1) == (5, 3)
    assert calls == [3]


def test_corollary_certifies_first_four_cases():
    for (d, n, m) in CASES[:4]:
        cert = corollary(d, n, m, seed=0)
        assert cert.verdict == NONSPECIAL


def test_corollary_declines_obstructed_case():
    cert = corollary(174, 10, 55, seed=0)
    assert cert.verdict == INCONCLUSIVE
    assert cert.h0_bound == 10


def test_corollary_inapplicable_for_fractional_mu():
    assert mu_bound(13, 13, 4).denominator != 1
    with pytest.raises(InapplicableError):
        corollary(13, 13, 4)


def test_corollary_inapplicable_without_positive_degree_and_multiplicity():
    # integral twist bounds, outside the scope of theorem_upper_bound:
    # (0; 0^10) has the constants (h0 = 1), and for (-3; 1^10) h2 need not
    # vanish, so h1 cannot be read off chi
    for (d, n, m) in [(0, 10, 0), (-3, 10, 1), (0, 11, 1), (-1, 12, 2)]:
        assert mu_bound(d, n, m).denominator == 1 and mu_bound(d, n, m) > 0
        assert corollary_twist(d, n, m) is None
        with pytest.raises(InapplicableError):
            corollary(d, n, m)
    assert [corollary_twist(*c) for c in CASES] == MUS


def test_corollary_is_floor_case_of_the_bound():
    # at the corollary's twist the floor case is exactly the reduced system
    # being certified nonspecial, since the two chis agree; (18; 4^21) and
    # (27; 7^15) reduce to (0; (-2)^n), whose exact h0 = 1 is above the floor
    grid = [(d, n, m) for d in range(1, 31) for n in range(10, 15)
            for m in range(1, 9)]
    verdicts = set()
    for (d, n, m) in grid + [(18, 21, 4), (27, 15, 7)]:
        mu = corollary_twist(d, n, m)
        if mu is None:
            continue
        cert = corollary(d, n, m, trials=1, seed=2)
        red = certify(reduce(homogeneous_system(d, n, m), n, mu).reduced,
                      trials=1, seed=2)
        assert (cert.verdict == NONSPECIAL) == (red.verdict == NONSPECIAL)
        assert cert.h0_bound == red.h0_bound
        if cert.verdict == NONSPECIAL:
            assert cert.h0 == max(cert.chi, 0) and cert.h1 >= 0
        verdicts.add(cert.verdict)
    assert verdicts == {NONSPECIAL, INCONCLUSIVE}


def test_corollary_never_samples(monkeypatch):
    # at the corollary's twist the cubic peel decides the reduced system,
    # with h0 = chi while m - mu > 0; every row the corollary applies to
    # with n in 10..20 and m in 1..20 (d is bounded by mu >= 1)
    monkeypatch.setattr(interp, "h0_at_sample",
                        lambda *a: pytest.fail("sampled"))
    rows = certified = 0
    for n in range(10, 21):
        for m in range(1, 21):
            for d in range(1, (n - 9 + 2 * m * n) // 6 + 1):
                mu = corollary_twist(d, n, m)
                if mu is None:
                    continue
                cert = corollary(d, n, m)
                rows += 1
                assert not cert.evidence
                if mu < m:
                    assert cert.verdict == NONSPECIAL
                    assert cert.h0 == cert.chi
                    certified += 1
    assert (rows, certified) == (5273, 774)


def test_corollary_agrees_with_direct_certification():
    # cross-validation on cases small enough to run both routes; (1; 1^10)
    # twists by 15 to an empty system, so its bound is exact
    for (d, n, m) in [(13, 10, 4), (28, 12, 8), (1, 10, 1)]:
        via_reduction = corollary(d, n, m, seed=3)
        direct = certify(homogeneous_system(d, n, m), seed=3)
        assert via_reduction.verdict == direct.verdict == NONSPECIAL
        assert via_reduction.h0 == direct.h0
