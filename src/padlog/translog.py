"""p-adic exponential and logarithm by exact integer arithmetic.

exp converges on values divisible by p (by 4 when p = 2); log converges on
units congruent to 1 mod p (mod 4 when p = 2), and the two are mutually
inverse isometries between those regions.  Both results are exact modulo
p^K for the working precision K; they depend only on the input mod p^K.

log u is taken as p^(-k) log(u^(p^k)) (Satoh, Skjernaa and Taguchi):
raising u to the p^k-th power at K + k digits deepens u - 1 by k, so the
series needs about (K + k) / (c + k) terms instead of K / c, where
c = v(u - 1).  The power costs about k log2(p) squarings, so
k = sqrt(K / bits(p)) balances the two.  The terms w^n / n are summed as
one running fraction whose denominator, the product of the p-free parts
of n, is inverted once per series.

exp x is the Newton inverse of log: y <- y (1 + x - log y), doubling the
correct digits each step.  Since log is an isometry, the final check
log y = x mod p^K proves y = exp x mod p^K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    InsufficientPrecision,
    InternalInvariantError,
    NotPrincipalUnit,
)
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
    """The p-adic exponential, sum of x^n / n!.

    Needs v(x) >= 1, and >= 2 when p = 2, or the series diverges.
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
    # y = 1 is exp x mod p^v; a step from m right digits gives 2m (2m - 1
    # at p = 2, where e^2 / 2 loses one)
    y, m = 1, v
    while m < K:
        m = min(2 * m - (p == 2), K)
        y = y * (1 + X - _log_mod(y, p, m)) % p**m
    if _log_mod(y, p, K) != X:
        raise InternalInvariantError("exp failed its certificate log y = x")
    return PAdicInt._of(p, y, K)


def padic_log(u, precision=None):
    """The p-adic logarithm, sum of -(-1)^n (u - 1)^n / n.

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
    # when u - 1 is invisible at this precision, so is log u
    return PAdicInt._of(p, _log_mod(u.residue, p, K), K)


def _log_mod(u, p, K):
    """log u mod p^K for an integer u = 1 mod p (mod 4 when p = 2)."""
    if (u - 1) % (4 if p == 2 else p):
        # outside the region the series diverges, which the p^k power could hide
        raise InternalInvariantError("log of a unit that is not principal")
    k = math.isqrt(K // p.bit_length())
    top = K + k
    w = (pow(u, p**k, p**top) - 1) % p**top  # k deeper than u - 1
    if w == 0:
        return 0
    c = _vp(w, p)
    n_stop = 1  # every term w^n / n with n >= n_stop vanishes mod p^top
    while n_stop * c - _floor_log(n_stop, p) < top:
        n_stop += 1
    # terms are divided by up to p^guard, so powers of w carry guard extra digits
    guard = _floor_log(n_stop, p)
    modulus = p ** (top + guard)
    # the partial sum is num / den, den the product of the p-free parts m
    # of n: a few bits per term, so neither is reduced inside the loop
    num, den = 0, 1
    w_pow = 1
    for n in range(1, n_stop):
        w_pow = w_pow * w % modulus
        vp = _vp(n, p)
        m = n // p**vp
        term = w_pow // p**vp
        num = num * m + (term if n % 2 else -term) * den
        den *= m
    total = num * pow(den, -1, modulus) % p**top
    return total // p**k


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
