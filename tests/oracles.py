"""Enumeration oracles shared by the tests; no product path calls them."""

import math

from padlog.errors import NotCoprime
from padlog.residue import _require_prime, order_mod, structure_from_power_counts


def factorial_valuation(n, p):
    """Number of factors p in n!, by Legendre's sum of floor(n / p^i)."""
    out = 0
    q = p
    while q <= n:
        out += n // q
        q *= p
    return out


def census_unit_group_structure(modulus):
    """Literal element-by-element census of (Z/modulus Z)^*."""
    units = [x for x in range(1, modulus + 1) if math.gcd(x, modulus) == 1]

    def count_fn(d):
        return sum(1 for u in units if pow(u, d, modulus) == 1)

    return structure_from_power_counts(len(units), count_fn)


def subgroup_contains(a, b, p, n):
    """Does b lie in the cyclic subgroup generated by a mod p^n?"""
    _require_prime(p)
    m = p**n
    a %= m
    b %= m
    if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
        raise NotCoprime("both arguments must be coprime to p")
    if p != 2:
        # the whole unit group is cyclic, so membership is an order condition
        return pow(b, order_mod(a, m), m) == 1
    # the units mod 2^n are <-1> x U, U = {u = 1 mod 4} cyclic.  b lies in <a>
    # iff b, or b/a when b = 3 mod 4, lies in the part of <a> inside U: the
    # one subgroup of U of order ord(a) when a = 1 mod 4, else ord(a)/2
    s = b if b % 4 == 1 else b * pow(a, -1, m) % m
    h = order_mod(a, m) if a % 4 == 1 else order_mod(a, m) // 2
    return s % 4 == 1 and pow(s, h, m) == 1
