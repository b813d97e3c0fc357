"""Prime-field arithmetic on Python integers, with no numpy.

The package's one word-size rule (`check_modulus`: an odd prime below
MAX_PRIME = 2^21, see gfmat for why), primality, the Legendre symbol and
Tonelli-Shanks square roots.  Everything that checks a modulus or samples
points imports this module, so a run that builds no matrix never loads
numpy.
"""

from __future__ import annotations

from functools import lru_cache

# Moduli must stay below 2^21, so that gfmat's float64 products of
# residues are exact (see gfmat.MAX_INNER).
MAX_PRIME = 1 << 21

# Largest prime below 2^21.
DEFAULT_PRIME = 2097143


class GFMatError(Exception):
    pass


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24.

    Memoized: every matrix and every sampled configuration checks its
    modulus, nearly always the same one."""
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


def check_modulus(p: int, name: str = "modulus") -> None:
    """The package's one word-size rule: p must be an odd prime below
    MAX_PRIME.  `name` labels p in the error message."""
    if not is_prime(p):
        raise GFMatError(f"{name} {p} is not prime")
    if p == 2:
        raise GFMatError(f"{name} 2 is not odd")
    if p >= MAX_PRIME:
        raise GFMatError(f"{name} {p} must be below 2^21, so that float64 "
                         "products of residues are exact")


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
