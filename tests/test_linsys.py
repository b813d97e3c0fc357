import copy
import pickle
import random

import pytest

from fatpoints import interp, linsys
from fatpoints.field import DEFAULT_PRIME
from fatpoints.linsys import (FatPointSystem, GENERIC, ON_CUBIC, chi,
                              conditions_count, cremona, cremona_standardize,
                              cubic_bound, effective_part, exact_h0,
                              expected_dim, homogeneous_system, lower_h0,
                              monomial_count)


def rand_system(rng, allow_negative=False):
    n = rng.randint(3, 12)
    lo = -4 if allow_negative else 0
    return FatPointSystem(rng.randint(-2, 20),
                          tuple(rng.randint(lo, 8) for _ in range(n)))


def test_chi_paper_values():
    assert chi(homogeneous_system(13, 10, 4)) == 5
    assert chi(FatPointSystem(0, ())) == 1
    assert chi(homogeneous_system(3, 10, -2)) == 0


def test_expected_dim_paper_values():
    assert expected_dim(homogeneous_system(174, 10, 55)) == -1
    assert expected_dim(homogeneous_system(57, 10, 18)) == 0
    assert expected_dim(homogeneous_system(28, 12, 8)) == 2
    assert expected_dim(homogeneous_system(13, 10, 4)) == 4
    assert expected_dim(homogeneous_system(38, 10, 12)) == -1


def test_conditions_count():
    assert conditions_count(homogeneous_system(13, 10, 4)) == 100
    assert conditions_count(homogeneous_system(1, 12, -1)) == 0
    assert conditions_count(homogeneous_system(57, 10, 18)) == 1710


def test_effective_part():
    assert effective_part(homogeneous_system(1, 12, -1)).mults == (0,) * 12
    s = homogeneous_system(4, 10, 1)
    assert effective_part(s) == s
    assert effective_part(homogeneous_system(3, 10, -2)).mults == (0,) * 10
    with pytest.raises(ValueError):
        effective_part(FatPointSystem(-1, (1,)))


def test_cremona_simple():
    assert cremona(FatPointSystem(2, (1, 1, 1))) == FatPointSystem(1, (0, 0, 0))
    s = FatPointSystem(5, (0, 0, 0, 0))
    assert cremona(s) == s
    assert cremona(FatPointSystem(6, (3, 3, 3, 1))) == FatPointSystem(3, (0, 0, 0, 1))


def test_cremona_preserves_chi_examples():
    for s in [FatPointSystem(6, (3, 3, 3, 1)), FatPointSystem(2, (1, 1, 1))]:
        assert chi(cremona(s)) == chi(s)


def test_cremona_requires_three_generic_points():
    with pytest.raises(ValueError):
        cremona(FatPointSystem(3, (1, 1)))
    with pytest.raises(ValueError):
        cremona(FatPointSystem(3, (1, 1, 1), (ON_CUBIC, GENERIC, GENERIC)))


def test_cremona_chi_invariance_property():
    rng = random.Random(0)
    for _ in range(200):
        s = rand_system(rng, allow_negative=True)
        assert chi(cremona(s)) == chi(s)


def test_cremona_standardize():
    out, steps = cremona_standardize(FatPointSystem(6, (3, 3, 3)))
    assert out == FatPointSystem(3, (0, 0, 0)) and steps == 1

    s = FatPointSystem(9, (2, 2, 2, 1))
    out, steps = cremona_standardize(s)
    assert out == FatPointSystem(9, (2, 2, 2, 1)) and steps == 0

    s = FatPointSystem(2, (1, 1, 1, 1, 1))
    assert chi(s) == 1
    out, steps = cremona_standardize(s)
    assert chi(out) == 1


def test_cremona_standardize_terminates_and_preserves_chi():
    rng = random.Random(1)
    for _ in range(200):
        s = rand_system(rng)
        out, steps = cremona_standardize(s)
        assert chi(out) == chi(s)
        assert steps <= max(s.d, 0) + 1
        srt = tuple(sorted(out.mults, reverse=True))
        done = (out.d < 0 or min(out.mults) < 0
                or out.d >= srt[0] + srt[1] + srt[2])
        assert done


def test_chi_deficit_identity():
    rng = random.Random(2)
    for _ in range(200):
        s = rand_system(rng)
        if s.d < 0:
            continue
        assert chi(s) == monomial_count(s.d) - conditions_count(s)


def test_effective_part_chi_monotone():
    rng = random.Random(3)
    for _ in range(200):
        s = rand_system(rng, allow_negative=True)
        if s.d < 0:
            continue
        e = effective_part(s)
        assert chi(e) >= chi(s)
        if all(m >= -1 for m in s.mults):
            assert chi(e) == chi(s)
        else:
            assert chi(e) > chi(s)


def test_expected_dim_is_chi_minus_one():
    rng = random.Random(4)
    for _ in range(100):
        s = rand_system(rng, allow_negative=True)
        assert expected_dim(s) == chi(s) - 1


def test_monomial_count():
    assert monomial_count(0) == 1
    assert monomial_count(4) == 15
    assert monomial_count(-3) == 0


def test_lower_h0():
    # max(chi, 0) of the clamped system: above max(chi, 0) with a
    # multiplicity <= -2, and 0 for d < 0 where chi may be positive
    assert lower_h0(FatPointSystem(13, (4,) * 10 + (-2,))) == 5
    assert chi(FatPointSystem(13, (4,) * 10 + (-2,))) == 4
    assert lower_h0(homogeneous_system(26, 11, -2)) == 378
    assert lower_h0(FatPointSystem(-4, ())) == 0 < chi(FatPointSystem(-4, ()))
    assert lower_h0(homogeneous_system(40, 5, 20)) == 0
    rng = random.Random(23)
    for _ in range(200):
        s = rand_system(rng, allow_negative=True)
        want = max(chi(effective_part(s)), 0) if s.d >= 0 else 0
        assert lower_h0(s) == want, s


def test_exact_h0():
    # d < -2 and d in [-2, -1]: no sections, whatever the multiplicities
    assert exact_h0(homogeneous_system(-5, 10, 3)) == 0
    assert exact_h0(homogeneous_system(-2, 10, -1)) == 0
    assert exact_h0(FatPointSystem(-1, ())) == 0
    # every multiplicity <= 0: fixed components only, all monomials survive
    assert exact_h0(homogeneous_system(3, 10, -2, tag=ON_CUBIC)) == 10
    assert exact_h0(FatPointSystem(4, (0, -1, 0))) == 15
    assert exact_h0(FatPointSystem(0, ())) == 1
    # the cubic peel at the floor: quartics through one point, 15 - 1
    assert exact_h0(FatPointSystem(4, (0, -1, 1))) == 14
    assert exact_h0(homogeneous_system(4, 10, 1, tag=ON_CUBIC)) == 5
    # the peel stays above the floor, so sampling is needed
    assert exact_h0(homogeneous_system(6, 9, 2)) is None
    assert exact_h0(FatPointSystem(12, (5, 5) + (4,) * 6)) is None
    assert exact_h0(homogeneous_system(13, 10, 4)) is None


def test_cubic_bound_peels():
    # (13; 4^10): e = -1, 0, 1, 2 on degrees 13, 10, 7, 4 (add 0, 1, 1, 2),
    # then the 3 lines
    assert cubic_bound(homogeneous_system(13, 10, 4)) == 7
    # negative multiplicities are clamped; d < 0 adds nothing
    assert cubic_bound(FatPointSystem(4, (-3, 1))) == 11 + 3
    assert cubic_bound(homogeneous_system(2, 20, 1)) == 0
    assert cubic_bound(homogeneous_system(-1, 3, 0)) == 0
    assert cubic_bound(FatPointSystem(0, ())) == 1


def _cubic_bound_per_point(s):
    """cubic_bound as it was first written: one multiplicity list per point."""
    d, mults, bound = s.d, [max(m, 0) for m in s.mults], 0
    while d >= 0:
        if not any(mults):
            return bound + monomial_count(d)
        e = 3 * d - sum(mults)
        bound += e if e > 0 else 1 if e == 0 else 0
        d, mults = d - 3, [max(m - 1, 0) for m in mults]
    return bound


def test_cubic_bound_matches_the_per_point_peel():
    # and exact_h0, wherever it decides, is the floor lower_h0
    rng = random.Random(19)
    decided = 0
    for _ in range(500):
        n = rng.randint(0, 14)
        s = FatPointSystem(rng.randint(-4, 40),
                           tuple(rng.randint(-3, 12) for _ in range(n)))
        assert cubic_bound(s) == _cubic_bound_per_point(s), s
        if exact_h0(s) is not None:
            assert exact_h0(s) == lower_h0(s), s
            decided += 1
    assert decided >= 100


def _cubic_bound_groups(s):
    """cubic_bound as it was before its running sum: the distinct positive
    multiplicities with their counts, a new list of groups at every step."""
    groups = {}
    for m in s.mults:
        if m > 0:
            groups[m] = groups.get(m, 0) + 1
    d, groups, bound = s.d, list(groups.items()), 0
    while d >= 0:
        if not groups:
            return bound + monomial_count(d)
        e = 3 * d - sum(m * c for m, c in groups)
        bound += e if e > 0 else 1 if e == 0 else 0
        d, groups = d - 3, [(m - 1, c) for m, c in groups if m > 1]
    return bound


def test_cubic_bound_matches_the_group_peel():
    # the peel on the sorted multiplicities with a running sum is the group
    # peel, on mixed and on homogeneous systems (one group, dropped at once)
    rng = random.Random(39)
    for i in range(12000):
        n = rng.randint(0, 14)
        d = rng.randint(-5, 60)
        if i % 4:
            mults = tuple(rng.randint(-3, 20) for _ in range(n))
        else:
            mults = (rng.randint(-3, 20),) * n
        s = FatPointSystem(d, mults)
        assert cubic_bound(s) == _cubic_bound_groups(s), s


def test_system_is_an_immutable_value():
    mults, tags = (4,) * 10, (GENERIC,) * 10
    s = FatPointSystem(13, mults, tags)
    # equal systems hash equal, however their fields were given
    for same in (FatPointSystem(13, list(mults)), homogeneous_system(13, 10, 4),
                 FatPointSystem(13, (4.0,) * 10, list(tags)), s.replace()):
        assert same == s and hash(same) == hash(s)
    assert len({s, homogeneous_system(13, 10, 4)}) == 1
    assert s != homogeneous_system(13, 10, 4, tag=ON_CUBIC)
    assert s != FatPointSystem(14, mults) and s != FatPointSystem(13, mults[1:])
    # a tuple of the same fields is not the system, either way round
    assert s != (13, mults, tags) and (13, mults, tags) != s
    assert s != [13, mults, tags]
    for name in ("d", "mults", "tags", "npoints", "_tri", "_conditions", "x"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    for name in ("d", "mults", "_conditions"):
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.d, s.mults, s.tags) == (13, mults, tags)
    assert repr(s) == ("FatPointSystem(d=13, mults=(4, 4, 4, 4, 4, 4, 4, 4, "
                       "4, 4), tags=('generic', 'generic', 'generic', "
                       "'generic', 'generic', 'generic', 'generic', "
                       "'generic', 'generic', 'generic'))")
    assert repr(FatPointSystem(-1, (2, -3), (ON_CUBIC, GENERIC))) == (
        "FatPointSystem(d=-1, mults=(2, -3), tags=('on-cubic', 'generic'))")
    assert repr(FatPointSystem(0)) == "FatPointSystem(d=0, mults=(), tags=())"
    for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert copied == s and repr(copied) == repr(s)


def test_system_validates_on_construction_and_replace():
    s = FatPointSystem(5, (2, -1, 3))
    with pytest.raises(ValueError, match="unknown placement tag 'bogus'"):
        FatPointSystem(5, (2, 1), (GENERIC, "bogus"))
    with pytest.raises(ValueError, match="unknown placement tag"):
        FatPointSystem(5, (2, 1), (GENERIC, [ON_CUBIC]))  # unhashable
    with pytest.raises(ValueError, match="one tag per multiplicity"):
        FatPointSystem(5, (2, 1), (GENERIC,))
    with pytest.raises(ValueError, match="unknown placement tag 'x'"):
        s.replace(tags=("x",) * 3)
    with pytest.raises(ValueError, match="one tag per multiplicity"):
        s.replace(mults=(1, 2))
    with pytest.raises(TypeError):
        s.replace(degree=4)
    # replace derives the sums again: chi and the conditions are the new
    # system's, and s is unchanged
    t = s.replace(d=7, mults=(2, -2, 0))
    assert t == FatPointSystem(7, (2, -2, 0))
    assert (chi(t), conditions_count(t)) == (35 + 1 - 3 - 1, 3)
    assert (chi(s), conditions_count(s)) == (21 - 3 - 0 - 6, 9)
    for sys_ in (s, t, FatPointSystem(3), FatPointSystem(-4, (-5, 6))):
        assert chi(sys_) == sys_.d * (sys_.d + 3) // 2 + 1 - sum(
            m * (m + 1) // 2 for m in sys_.mults)
        assert conditions_count(sys_) == sum(
            m * (m + 1) // 2 for m in sys_.mults if m >= 1)


def _on_cubic_corpus(rng, count):
    for _ in range(count):
        n = rng.randint(1, 12)
        yield FatPointSystem(rng.randint(0, 12),
                             tuple(rng.randint(-1, 5) for _ in range(n)),
                             (ON_CUBIC,) * n)


def test_cubic_bound_holds_at_every_on_cubic_sample():
    # the restriction sequence holds for any points on any smooth cubic,
    # over any field, so no sample may exceed the bound
    rng = random.Random(11)
    pinned = 0
    for s in _on_cubic_corpus(rng, 150):
        for p in (101, DEFAULT_PRIME):
            rep = interp.h0_at_sample(s, interp.config_for_system(
                s, p, rng.randrange(2 ** 32)))
            assert rep.h0_sample <= cubic_bound(s), (s, p)
            pinned += rep.h0_sample == cubic_bound(s)
    assert pinned >= 100


def test_cubic_bound_is_at_least_every_full_rank_generic_h0():
    # a full-rank trial pins the generic h0, which moving the points onto
    # a cubic can only raise
    rng = random.Random(12)
    full = 0
    for _ in range(150):
        s = rand_system(rng, allow_negative=True)
        if s.d < 0:
            continue
        rep = interp.h0_at_sample(s, interp.config_for_system(
            s, DEFAULT_PRIME, rng.randrange(2 ** 32)))
        if rep.full_rank:
            full += 1
            assert rep.h0_sample <= cubic_bound(s), s
            if exact_h0(s) is not None:
                assert exact_h0(s) == rep.h0_sample, s
    assert full >= 100


def _cremona_special(s):
    """Whether Cremona standardization proves the generic s special: it
    ends at d >= 0 with a negative multiplicity (a fixed (-1)-curve) and no
    condition left, so h0 is the monomial count, and h0 > 0 with
    h1 = h0 - chi > 0."""
    t, _ = cremona_standardize(s)
    if t.d < 0 or min(t.mults) >= 0 or conditions_count(t):
        return False
    h0 = monomial_count(t.d)
    return h0 > 0 and h0 - chi(s) > 0


def test_exact_h0_certifies_no_special_system():
    named = [homogeneous_system(40, 5, 20), homogeneous_system(4, 5, 2),
             homogeneous_system(3, 10, 1, tag=ON_CUBIC),
             homogeneous_system(2, 2, 2)]
    proved = [s for s in (FatPointSystem(d, mults)
                          for d in range(1, 13)
                          for mults in ((a, b, c) + (1,) * k
                                        for a in range(1, 8)
                                        for b in range(1, a + 1)
                                        for c in range(1, b + 1)
                                        for k in range(0, 4)))
              if _cremona_special(s)]
    assert len(proved) >= 50
    for s in named + proved:
        # exact_h0 returns only the floor max(chi, 0), and h0 is above it
        assert exact_h0(s) is None, s


def test_twist_zero_decides_no_benchmark_or_paper_system():
    # these keep the sampling route of certify, and so the workloads that
    # time it: special-40 and direct-38 among them
    for (d, n, m) in [(13, 10, 4), (28, 12, 8), (38, 10, 12), (57, 10, 18),
                      (174, 10, 55), (40, 5, 20)]:
        for tag in (GENERIC, ON_CUBIC):
            assert exact_h0(homogeneous_system(d, n, m, tag)) is None
