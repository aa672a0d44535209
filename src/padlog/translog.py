"""p-adic exponential and logarithm by exact integer series.

exp converges on values divisible by p (by 4 when p = 2); log converges on
units congruent to 1 mod p (mod 4 when p = 2), and the two are mutually
inverse isomorphisms between those regions.  All series are summed in exact
integer arithmetic: each term p^a * U^n / m with m coprime to p is realized
as p^a * U^n * m^(-1) modulo a guard power of p chosen large enough that
the divisions are exact, and the tail is cut only once every remaining term
is divisible by p^K for the working precision K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientPrecision, NotPrincipalUnit
from .padic import PAdicInt
from .residue import _vp


def factorial_valuation(n, p):
    """Number of factors p in n!, by Legendre's sum of floor(n / p^i)."""
    out = 0
    q = p
    while q <= n:
        out += n // q
        q *= p
    return out


def padic_exp(x, precision=None):
    """Sum of x^n / n! in the p-adic integers.

    Needs v(x) >= 1, and >= 2 when p = 2, or the terms never shrink.
    The result carries the precision of x (or the explicit override,
    if smaller).
    """
    x.require_prime_base()
    p = x.base
    K = x.precision if precision is None else min(precision, x.precision)
    if K < 1:
        raise InsufficientPrecision("need at least one digit of working precision")
    X = x.residue % p**K
    min_v = 2 if p == 2 else 1
    if X == 0:
        # zero to working precision: every term past 1 is invisible; the
        # answer is exactly 1 only when the input is exactly 0
        if x._int_value == 0:
            return PAdicInt.from_integer(1, p, K)
        return PAdicInt._of(p, 1, K)
    v = _vp(X, p)
    if v < min_v:
        raise DomainError(
            "exp needs v(x) >= %d at p = %d; got %d" % (min_v, p, v)
        )
    U = X // p**v  # x = p^v * U with U a unit
    n_stop = math.ceil(K * (p - 1) / (v * (p - 1) - 1)) + 1
    guard = K + factorial_valuation(n_stop, p)
    modulus = p**guard
    total = 0
    u_pow = 1  # U^n mod modulus
    # n! = p^f * m with m a unit; m^(-1) mod modulus is carried along, since
    # inverting the small factor n / p^k is far cheaper than inverting m
    f, m_inv = 0, 1
    for n in range(n_stop):
        if n:
            k = _vp(n, p)
            f += k
            m_inv = m_inv * pow(n // p**k, -1, modulus) % modulus
        exponent = n * v - f
        if exponent < 0:
            raise DomainError("term %d has negative valuation" % n)
        if exponent < K:
            total = (total + pow(p, exponent, modulus) * u_pow * m_inv) % modulus
        u_pow = u_pow * U % modulus
    return PAdicInt._of(p, total, K)


def padic_log(u, precision=None):
    """Sum of -(-1)^n (u - 1)^n / n, the p-adic logarithm.

    Needs u = 1 mod p, and mod 4 when p = 2: exactly the region where the
    series converges and log is injective.  Exact input 1 gives exact 0.
    """
    u.require_prime_base()
    p = u.base
    K = u.precision if precision is None else min(precision, u.precision)
    if K < 1:
        raise InsufficientPrecision("need at least one digit of working precision")
    min_c = 2 if p == 2 else 1
    if p == 2 and u.precision < 2:
        raise InsufficientPrecision("cannot see mod 4 with one digit")
    head = u.residue % p**min_c
    if head != 1:
        raise NotPrincipalUnit(
            "log needs u = 1 mod %d; got residue %d" % (p**min_c, head)
        )
    if u._int_value == 1:
        return PAdicInt.from_integer(0, p, K)
    w = (u.residue - 1) % p**K
    if w == 0:
        # u - 1 is invisible at this precision, so log is too
        return PAdicInt._of(p, 0, K)
    c = _vp(w, p)
    W = w // p**c  # u - 1 = p^c * W
    n_stop = 1
    while n_stop * c - _floor_log(n_stop, p) < K:
        n_stop += 1
    guard = K + _floor_log(n_stop, p) + 1
    modulus = p**guard
    total = 0
    w_pow = 1  # W^n mod modulus, maintained incrementally
    for n in range(1, n_stop + 1):
        w_pow = w_pow * W % modulus
        vp = _vp(n, p)
        reduced = n // p**vp
        exponent = n * c - vp
        if exponent >= K:
            continue
        term = pow(p, exponent, modulus) * w_pow * pow(reduced, -1, modulus) % modulus
        if n % 2 == 1:
            total = (total + term) % modulus
        else:
            total = (total - term) % modulus
    return PAdicInt._of(p, total, K)


def _floor_log(n, p):
    """Largest e with p^e <= n."""
    e = 0
    q = p
    while q <= n:
        e += 1
        q *= p
    return e


# ---------------------------------------------------------------------------
# principal units and powers


@dataclass(frozen=True)
class PrincipalUnit:
    """A unit tagged with a certified level: value = 1 mod p^level."""

    value: PAdicInt
    level: int


def as_principal(u, level=None):
    """Wrap a unit after checking it really is 1 mod p^level.

    Without an explicit level the visible one is used: the position of the
    first nonzero digit of u - 1.
    """
    u.require_prime_base()
    p = u.base
    w = (u.to_int() - 1) % p**u.precision
    seen = _vp(w, p) if w else u.precision
    if level is None:
        level = seen
    if level < 1 or seen < level:
        raise NotPrincipalUnit(
            "u - 1 carries only %d factors of %d, not %d" % (seen, p, level)
        )
    return PrincipalUnit(value=u, level=level)


def power_u1_to_uk(a, k):
    """The canonical squeeze of principal units into level k: a -> a^(p^(k-1)).

    Raising to the p^(k-1) power maps units that are 1 mod p isomorphically
    onto units that are 1 mod p^k (for odd p).
    """
    a.require_prime_base()
    p = a.base
    if a.residue % p != 1:
        raise NotPrincipalUnit("the squeeze is defined on units = 1 mod p")
    if k < 1:
        raise ValueError("k must be >= 1")
    return a ** (p ** (k - 1))


def padic_pow(a, x):
    """a^x for a principal unit a and any p-adic integer exponent x,
    as exp(x log a); agrees with repeated multiplication on integer x."""
    a.require_prime_base()
    p = a.base
    if isinstance(x, int):
        x = PAdicInt.from_integer(x, p, a.precision)
    if x.base != p:
        raise DomainError("exponent lives over base %d, value over %d" % (x.base, p))
    la = padic_log(a)
    return padic_exp(x * la)
