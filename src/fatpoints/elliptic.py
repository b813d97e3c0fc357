"""Degeneration of general points onto a cubic: twist, reduce, bound.

The reduction moves the first k points of a system onto a smooth cubic and
twists by mu: the degree drops by 3*mu and the first k multiplicities by mu.
When the twisted system's Euler characteristic does not drop, its h0 bounds
the original system's h0 from above (`theorem_upper_bound`, for d, m >= 1);
`best_bound` takes the least such bound over the integral twists.  At any
twist, a bound equal to linsys.lower_h0 of the original system pins h0
(Certificate.h0).  The corollary is that floor case at the twist bound,
where the two chis agree, so it holds exactly when the reduced system is
nonspecial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import interp, linsys
from .certificate import Certificate
from .field import DEFAULT_PRIME
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

    @property
    def chi_S(self) -> int:
        """The chi deficit carried by the ruled component."""
        return self.chi_original - self.chi_reduced

    @property
    def hypothesis(self) -> bool:
        """The chi hypothesis: the twist does not lower chi."""
        return self.chi_reduced >= self.chi_original


def mu_bound(d: int, n: int, m: int) -> Fraction:
    """Largest admissible twist for the homogeneous system (d; m^n).

    Exact rational 1 + (2mn - 6d)/(n - 9) = (n - 9 + 2mn - 6d)/(n - 9);
    needs n >= 10.
    """
    if n <= 9:
        raise ReductionError("need at least 10 points")
    return Fraction(n - 9 + 2 * m * n - 6 * d, n - 9)


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
    return ReductionPlan(original=s, k=k, mu=mu, reduced=reduced,
                         chi_original=linsys.chi(s),
                         chi_reduced=linsys.chi(reduced))


def theorem_upper_bound(plan: ReductionPlan, trials: int = interp.DEFAULT_TRIALS,
                        p: int = DEFAULT_PRIME, seed: int = 0,
                        max_cells: Optional[int] = None) -> Certificate:
    """Upper bound on the original system's generic h0 via the reduction.

    Requires the plan's chi hypothesis.  The bound is the reduced system's
    h0: exact when linsys.exact_h0 decides it, otherwise the best on-cubic
    sample value (itself an upper bound by semicontinuity).  The
    certificate records the twist (k, mu); it pins h0 when the bound meets
    linsys.lower_h0 of the original system, and is inconclusive otherwise.
    A sample of more than max_cells cells raises interp.MatrixTooLarge.
    """
    check_admissible(plan)
    bound, evidence = interp.least_h0(plan.reduced, trials, p, seed, max_cells)
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


def best_bound(d: int, n: int, m: int, max_cells: Optional[int] = None,
               trials: int = interp.DEFAULT_TRIALS, p: int = DEFAULT_PRIME,
               seed: int = 0):
    """(least h0 bound, its twist) of (d; m^n) over the integral twists,
    or (None, None) when no twist gives one.

    Twists run from the twist bound down to 0, all n points specialized;
    the chi hypothesis holds on all of them, since the chi gap is
    mu (n - 9)(mu_bound - mu) / 2.  Only mu = 0 is admissible unless
    d, m >= 1.  A twist is skipped when the linsys.lower_h0 of its reduced
    system, below which none of its bounds goes, already rules out an
    improvement, or when that system needs a sample of more than max_cells
    cells (interp.framed_cells; None is no limit), and the scan stops once
    the bound reaches lower_h0 of (d; m^n).
    """
    top = mu_bound(d, n, m)
    if top < 0:
        return None, None
    s = linsys.homogeneous_system(d, n, m)
    floor = linsys.lower_h0(s)
    best = best_mu = None
    for mu in range(int(top) if d >= 1 and m >= 1 else 0, -1, -1):
        plan = reduce(s, n, mu)
        if best is not None and linsys.lower_h0(plan.reduced) >= best:
            continue
        try:
            b = theorem_upper_bound(plan, trials, p, seed, max_cells).h0_bound
        except interp.MatrixTooLarge:
            continue
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
    # mu_bound's numerator over its denominator, in integers
    mu, rest = divmod(n - 9 + 2 * m * n - 6 * d, n - 9)
    return mu if rest == 0 and mu > 0 else None


def corollary_nonspecial(s: FatPointSystem, mu: Optional[int],
                         trials: int = interp.DEFAULT_TRIALS,
                         p: int = DEFAULT_PRIME, seed: int = 0) -> Certificate:
    """Nonspeciality of s = (d; m^n) as the floor case of the twist bound,
    given the row's mu = corollary_twist(d, n, m); None, where the corollary
    does not apply, raises InapplicableError.

    At the corollary's twist `theorem_upper_bound` gives h0 <= b, and
    b == linsys.lower_h0(s) pins h0 = b (Certificate.h0), which proves s
    nonspecial.  Otherwise the result is inconclusive, with b attached as an
    upper bound.  Since the two chis agree here, the floor case is exactly
    the reduced system being certified nonspecial.

    It never samples, so it takes no max_cells and `sweep
    --max-matrix-entries` never skips its rows: with m' = m - mu > 0 the
    reduced system's cubic peel restricts to degree (n-9)(1+mu+2j)/2 > 0
    at step j and ends at degree (n-9)(1+mu+2m')/6 > 0, so linsys.exact_h0
    decides it, with h0 = chi; with m' <= 0 every multiplicity clamps to
    0, and h0 is the monomial count, or 0 when d - 3 mu < 0.
    """
    if mu is None:
        raise InapplicableError("the corollary needs n >= 10, d >= 1, m >= 1 "
                                "and a positive integral twist bound")
    return theorem_upper_bound(reduce(s, s.npoints, mu), trials, p, seed)
