import random

import pytest

from fatpoints import linsys
from fatpoints.linsys import (FatPointSystem, GENERIC, ON_CUBIC, chi,
                              conditions_count, cremona, cremona_standardize,
                              effective_part, exact_h0, expected_dim,
                              homogeneous_system, monomial_count)


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
        assert steps < 10000
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


def test_exact_h0():
    # d < -2 and d in [-2, -1]: no sections, whatever the multiplicities
    assert exact_h0(homogeneous_system(-5, 10, 3)) == 0
    assert exact_h0(homogeneous_system(-2, 10, -1)) == 0
    assert exact_h0(FatPointSystem(-1, ())) == 0
    # every multiplicity <= 0: fixed components only, all monomials survive
    assert exact_h0(homogeneous_system(3, 10, -2, tag=ON_CUBIC)) == 10
    assert exact_h0(FatPointSystem(4, (0, -1, 0))) == 15
    assert exact_h0(FatPointSystem(0, ())) == 1
    # one surviving condition means sampling is needed
    assert exact_h0(FatPointSystem(4, (0, -1, 1))) is None
    assert exact_h0(homogeneous_system(13, 10, 4)) is None
