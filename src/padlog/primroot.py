"""Primitive roots: finding them, certifying them, and making them stable.

A generator of the units mod p need not generate mod p^2; call those that do
*stable*.  A stable generator mod p^2 automatically generates mod every
higher power, so stability is the whole game.  This module finds generators
by the witness test or by Gauss's order-merging search, repairs unstable
ones by a sign trick that depends on p mod 4, and reproduces the classical
table of canonical stable generators for small primes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    InternalInvariantError,
    ModulusTooLarge,
    NotAPrimitiveRoot,
    WrongResidueClass,
)
from .residue import (
    PROOT_PRIME_CAP,
    _factorization,
    _require_prime,
    group_structure,
    order_mod,
)


def is_primitive_root(r, p, n=1):
    """Does r generate the full unit group mod p^n?

    A unit r generates exactly when r^(phi/q) != 1 mod p^n for every prime
    q dividing phi = (p - 1) p^(n-1); r^phi = 1 holds for every unit.
    """
    _require_prime(p)
    m = p**n
    r %= m
    if math.gcd(r, m) != 1:
        return False
    phi = m - m // p
    primes = [q for q, _ in _factorization(p - 1)]
    if n > 1:
        primes.append(p)
    return all(pow(r, phi // q, m) != 1 for q in primes)


def _smallest_generator(p):
    """Smallest generator mod an odd prime p; the witness test is its proof."""
    return next(r for r in range(2, p) if is_primitive_root(r, p))


def _generates_mod_p2(r, p):
    """A generator r mod p has order p - 1 or p(p - 1) mod p^2, so it
    generates mod p^2 exactly when r^(p-1) != 1 mod p^2: one power decides."""
    return pow(r, p - 1, p * p) != 1


def is_stable_root(r, p):
    """Generates mod p AND mod p^2 (hence mod all higher powers)."""
    return is_primitive_root(r, p) and _generates_mod_p2(r, p)


# ---------------------------------------------------------------------------
# Gauss's search


@dataclass(frozen=True)
class MergeStep:
    """One round of the search: two elements combined into one whose order
    is the lcm of theirs."""

    a: int
    order_a: int
    b: int
    order_b: int
    merged: int
    merged_order: int


@dataclass(frozen=True)
class RootCertificate:
    p: int
    root: int
    steps: tuple = field(default_factory=tuple)

    def verify(self):
        return is_primitive_root(self.root, self.p)


def _split_lcm(t, u):
    """Factor lcm(t, u) as m_a * m_b with m_a | t, m_b | u, coprime parts.

    Each prime power in the lcm goes to whichever argument carries the
    higher exponent, ties to the first.
    """
    m_a = m_b = 1
    f_t, f_u = dict(_factorization(t)), dict(_factorization(u))
    for q in f_t.keys() | f_u.keys():
        e_t, e_u = f_t.get(q, 0), f_u.get(q, 0)
        if e_t >= e_u:
            m_a *= q**e_t
        else:
            m_b *= q**e_u
    return m_a, m_b


def gauss_search(p):
    """Find a generator of the units mod p by successive order merging.

    Start at 2; while the current element a falls short of order p - 1,
    take the smallest b outside the powers of a, and combine a and b into
    an element whose order is lcm(ord a, ord b).  The order strictly grows
    every round, so this terminates with a certificate of the trail.
    """
    _require_prime(p)
    if p == 2:
        return RootCertificate(p=2, root=1)
    a = 2 % p
    steps = []
    t = order_mod(a, p)
    while t < p - 1:
        # <a> is the one subgroup of order t, so x lies in it iff x^t = 1
        b = next(x for x in range(2, p) if pow(x, t, p) != 1)
        u = order_mod(b, p)
        m_a, m_b = _split_lcm(t, u)
        merged = pow(a, t // m_a, p) * pow(b, u // m_b, p) % p
        new_t = order_mod(merged, p)
        if new_t != m_a * m_b or new_t <= t:
            raise InternalInvariantError("order merge failed at p=%d" % p)
        steps.append(
            MergeStep(a=a, order_a=t, b=b, order_b=u, merged=merged, merged_order=new_t)
        )
        a, t = merged, new_t
    return RootCertificate(p=p, root=a, steps=tuple(steps))


# ---------------------------------------------------------------------------
# stabilization


@dataclass(frozen=True)
class StableRoot:
    p: int
    root: int
    derivation: str  # direct | negated | negated-square | multiplied-by-1+p
    source: int


def stabilize(r, p, force_multiplier=False):
    """Turn a generator mod p into one that generates mod every p^n.

    If r already works mod p^2 it is returned as-is.  Otherwise the repair
    depends on the residue of p mod 4: p - r works when p = 1 (mod 4), and
    -r^2 mod p works when p = 3 (mod 4).  With ``force_multiplier`` the
    classical fallback r(1 + p) mod p^2 is used instead; that residue lives
    mod p^2 (reduced mod p it is r again) and is only guaranteed when r is
    unstable, so the verified order check may raise for stable input.
    """
    _require_prime(p)
    if p == 2:
        return StableRoot(p=2, root=1, derivation="direct", source=1)
    r %= p
    if not is_primitive_root(r, p):
        raise NotAPrimitiveRoot("%d does not generate the units mod %d" % (r, p))
    if force_multiplier:
        candidate = r * (1 + p) % p**2
        tag = "multiplied-by-1+p"
    elif _generates_mod_p2(r, p):
        return StableRoot(p=p, root=r, derivation="direct", source=r)
    elif p % 4 == 1:
        candidate = (-r) % p
        tag = "negated"
    else:
        candidate = (-r * r) % p
        tag = "negated-square"
    if not is_primitive_root(candidate, p, 2):
        raise NotAPrimitiveRoot(
            "derived candidate %d fails to generate mod %d^2" % (candidate, p)
        )
    return StableRoot(p=p, root=candidate, derivation=tag, source=r)


def sqrt_minus_one(p):
    """A square root of -1 mod p, as a power of a found generator.

    Exists exactly when p = 1 (mod 4); it is the generator raised to a
    quarter of the group order.
    """
    _require_prime(p)
    if p % 4 != 1:
        raise WrongResidueClass("need p = 1 (mod 4); -1 is not a square mod %d" % p)
    g = gauss_search(p).root
    i = pow(g, (p - 1) // 4, p)
    if i * i % p != p - 1:
        raise InternalInvariantError("quarter power is not a root of -1")
    return i


def has_primitive_root(n):
    """Is the unit group mod n cyclic?  True for 1, 2, 4, p^m, 2 p^m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n == 1 or group_structure(n).cyclic_order is not None


def all_stable_roots(p, full=False):
    """Stable generators of the unit groups mod p^n, as classically tabled.

    With ``full`` every stable generator in [2, p - 1] is returned.  The
    default reproduces the canonical table rows: for p = 3 (mod 4) and for
    p = 5 that is the same full list, while for larger p = 1 (mod 4) each
    mirror pair {r, p - r} of generators is represented once, by its small
    member r <= (p - 1)/2, or by its repair p - r when r is unstable (as
    :func:`stabilize` would): if r^(p-1) = 1 mod p^2, then (p - r)^(p-1) =
    1 + p r^(p-2) mod p^2, so p - r is stable.  The search costs O(p) time
    and a p-byte array, so p above PROOT_PRIME_CAP raises ModulusTooLarge.
    """
    _require_prime(p)
    if p > PROOT_PRIME_CAP:
        raise ModulusTooLarge(
            "stable roots are listed for primes up to %d, got %d" % (PROOT_PRIME_CAP, p)
        )
    if p == 2:
        return [1]
    g = _smallest_generator(p)
    listed = bytearray(p)  # flags by residue, so no list to sort
    # the generators mod p are the powers g^k with k prime to p - 1
    for r in (pow(g, k, p) for k in range(1, p - 1) if math.gcd(k, p - 1) == 1):
        if full or p % 4 == 3 or p == 5:
            listed[r] = _generates_mod_p2(r, p)
        elif 2 * r < p:
            listed[r if _generates_mod_p2(r, p) else p - r] = 1
    return list(itertools.compress(range(p), listed))
