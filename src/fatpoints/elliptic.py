"""Degeneration of general points onto a cubic: twist, reduce, bound.

The reduction moves the first k points of a system onto a smooth cubic and
twists by mu: the degree drops by 3*mu and the first k multiplicities by mu.
When the twisted system's Euler characteristic does not drop, its h0 bounds
the original system's h0 from above (`theorem_upper_bound`, for d, m >= 1);
`best_bound` takes the least such bound over the integral twists.  At any
twist, a bound equal to max(chi, 0) pins h0 and so proves the original
system nonspecial.  The corollary is that floor case at the twist bound,
where the two chis agree, so it holds exactly when the reduced system is
nonspecial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import interp, linsys
from .gfmat import DEFAULT_PRIME
from .interp import Certificate
from .linsys import GENERIC, ON_CUBIC, FatPointSystem

MIN_SPECIALIZED = 10


class ReductionError(Exception):
    pass


class InapplicableError(ReductionError):
    pass


@dataclass(frozen=True)
class ReductionPlan:
    original: FatPointSystem
    k: int
    mu: int
    reduced: FatPointSystem
    chi_original: int
    chi_reduced: int
    chi_S: int           # chi deficit carried by the ruled component
    hypothesis: bool     # chi_reduced >= chi_original


def mu_bound(d: int, n: int, m: int) -> Fraction:
    """Largest admissible twist for the homogeneous system (d; m^n).

    Exact rational 1 + (2mn - 6d)/(n - 9); needs n >= 10.
    """
    if n <= 9:
        raise ReductionError("need at least 10 points")
    return 1 + Fraction(2 * m * n - 6 * d, n - 9)


def chi_gap(d: int, n: int, m: int, mu: int) -> int:
    """chi(twisted system on the cubic) - chi(original), closed form.

    Equals mu*(n - 9 - 6d + 2mn - mu*(n-9))/2; always an integer.
    """
    if n <= 9:
        raise ReductionError("need at least 10 points")
    t = mu * (n - 9 - 6 * d + 2 * m * n - mu * (n - 9))
    assert t % 2 == 0
    return t // 2


def reduce(s: FatPointSystem, k: int, mu: int) -> ReductionPlan:
    """Specialize the first k points onto the cubic and twist by mu.

    The reduced system has degree d - 3*mu and multiplicities m_i - mu for
    i <= k (tagged on-cubic), m_i unchanged for i > k.  The construction
    requires k >= 10 and all original points generic.
    """
    if mu < 0:
        raise ReductionError("twist must be non-negative")
    if not MIN_SPECIALIZED <= k <= s.npoints:
        raise ReductionError(f"need {MIN_SPECIALIZED} <= k <= n")
    if any(t != GENERIC for t in s.tags):
        raise ReductionError("original system must have all points generic")
    new_mults = tuple(m - mu if i < k else m for i, m in enumerate(s.mults))
    new_tags = (ON_CUBIC,) * k + (GENERIC,) * (s.npoints - k)
    reduced = FatPointSystem(s.d - 3 * mu, new_mults, new_tags)
    chi_o = linsys.chi(s)
    chi_r = linsys.chi(reduced)
    return ReductionPlan(original=s, k=k, mu=mu, reduced=reduced,
                         chi_original=chi_o, chi_reduced=chi_r,
                         chi_S=chi_o - chi_r,
                         hypothesis=chi_r >= chi_o)


def chi_identity_check(plan: ReductionPlan) -> bool:
    """Consistency of the chi bookkeeping on the degenerate fiber.

    The two components' characteristics must sum back to the original, and
    whenever the hypothesis holds the ruled component's chi is <= 0.
    """
    if plan.chi_S != plan.chi_original - plan.chi_reduced:
        return False
    if plan.hypothesis and plan.chi_S > 0:
        return False
    return True


def theorem_upper_bound(plan: ReductionPlan, trials: int = interp.DEFAULT_TRIALS,
                        p: int = DEFAULT_PRIME, seed: int = 0) -> Certificate:
    """Upper bound on the original system's generic h0 via the reduction.

    Requires the plan's chi hypothesis.  The bound is the reduced system's
    h0: exact when linsys.exact_h0 decides it, otherwise the best on-cubic
    sample value (itself an upper bound by semicontinuity).  The
    certificate records the twist (k, mu); it is nonspecial-certified when
    the bound is the floor max(chi, 0), and inconclusive otherwise.
    """
    check_admissible(plan)
    bound, evidence = interp.least_h0(plan.reduced, trials, p, seed)
    return Certificate(plan.original, p, seed, trials, bound, evidence,
                       (plan.k, plan.mu))


def check_admissible(plan: ReductionPlan) -> None:
    """Raise InapplicableError unless theorem_upper_bound applies to plan."""
    if not plan.hypothesis:
        raise InapplicableError("chi hypothesis fails; the bound does not apply")
    if plan.mu > 0 and (plan.original.d < 1 or any(m < 1 for m in plan.original.mults)):
        # the degeneration argument needs positive degree and multiplicities
        # (otherwise the restricted divisor on the cubic need not be general)
        raise InapplicableError("original degree and multiplicities must be positive")


def best_bound(d: int, n: int, m: int, fits,
               trials: int = interp.DEFAULT_TRIALS, p: int = DEFAULT_PRIME,
               seed: int = 0):
    """(least h0 bound, its twist) of (d; m^n) over the integral twists,
    or (None, None) when no twist gives one.

    Twists run from the twist bound down to 0, all n points specialized;
    the chi hypothesis holds on all of them, since the chi gap is
    mu (n - 9)(mu_bound - mu) / 2.  Only mu = 0 is admissible unless
    d, m >= 1.  A twist is skipped when its chi already rules out an
    improvement or when fits(reduced system) is false, and the scan stops
    once the bound reaches the floor max(chi, 0).
    """
    top = mu_bound(d, n, m)
    if top < 0:
        return None, None
    s = linsys.homogeneous_system(d, n, m)
    floor = max(linsys.chi(s), 0)
    best = best_mu = None
    for mu in range(int(top) if d >= 1 and m >= 1 else 0, -1, -1):
        plan = reduce(s, n, mu)
        # any bound from this twist is at least max(chi_reduced, 0)
        if best is not None and max(plan.chi_reduced, 0) >= best:
            continue
        if not fits(plan.reduced):
            continue
        b = theorem_upper_bound(plan, trials, p, seed).h0_bound
        if best is None or b < best:
            best, best_mu = b, mu
        if best == floor:
            break
    return best, best_mu


def corollary_twist(d: int, n: int, m: int) -> int | None:
    """The twist bound mu of (d; m^n) where the corollary applies, else None:
    mu a positive integer (so the two chis agree), n >= 10 and d, m >= 1."""
    if n < MIN_SPECIALIZED or d < 1 or m < 1:
        return None
    mu = mu_bound(d, n, m)
    return int(mu) if mu.denominator == 1 and mu > 0 else None


def corollary_nonspecial(d: int, n: int, m: int,
                         trials: int = interp.DEFAULT_TRIALS,
                         p: int = DEFAULT_PRIME, seed: int = 0) -> Certificate:
    """Nonspeciality of (d; m^n) as the floor case of the twist bound.

    At the corollary's twist `theorem_upper_bound` gives h0 <= b, and always
    h0 >= max(chi, 0); so b == max(chi, 0) pins h0 = b and the system is
    nonspecial.  Otherwise the result is inconclusive, with b attached as an
    upper bound.  Since the two chis agree here, the floor case is exactly
    the reduced system being certified nonspecial.
    """
    mu = corollary_twist(d, n, m)
    if mu is None:
        raise InapplicableError("the corollary needs n >= 10, d >= 1, m >= 1 "
                                "and a positive integral twist bound")
    plan = reduce(linsys.homogeneous_system(d, n, m), n, mu)
    return theorem_upper_bound(plan, trials, p, seed)
