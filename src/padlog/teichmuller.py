"""Teichmuller units: the multiplicative copy of the residue field.

Every unit u in the p-adic integers factors uniquely as a root of unity
(its Teichmuller part, congruent to u mod p) times a principal unit
(congruent to 1 mod p).  For odd p the roots of unity are the p - 1 lifts
of the nonzero residues; at p = 2 only 1 and -1 survive.  The lift is
computed by Newton's method on x^(p-1) - 1, doubling the correct digits
at every step.  ``_depth`` measures the depth v_p(u2 - 1) of the principal
part u2 for every caller in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomainError,
    InsufficientPrecision,
    InternalInvariantError,
    NotAUnit,
    NotPrincipalUnit,
)
from .padic import PAdicInt, ValuationBound
from .residue import _inverse_mod, _require_prime, _vp, order_mod


@dataclass(frozen=True)
class LiftRow:
    """One Newton step of the digit construction, with the un-reduced
    correction product kept for display."""

    n: int
    partial: int  # sum of the first n digits, an ordinary integer
    quotient: int  # (partial^k - 1) / p^n
    correction: int  # k^(-1) * a0 * quotient * (p - 1), before reduction
    digit: int  # correction mod p


def lift_trace(a0, p, rows):
    """The digit construction of the Teichmuller lift of a0, step by step.

    Row n records the current partial sum X (n digits), the exact integer
    quotient (X^k - 1)/p^n, the correction product, and the digit it
    reduces to.  The digit sequence produced agrees with teichmuller_lift.
    """
    _require_prime(p)
    if p == 2:
        raise DomainError("the digit construction needs an odd base")
    a0 %= p
    if a0 == 0:
        raise NotAUnit("residue 0 has no multiplicative lift")
    k = order_mod(a0, p)
    k_inv = pow(k, -1, p)
    x = a0
    out = []
    for n in range(1, rows + 1):
        power = x**k
        if (power - 1) % p**n != 0:
            raise InternalInvariantError("partial lift lost the root property")
        quotient = (power - 1) // p**n
        correction = k_inv * a0 * quotient * (p - 1)
        digit = correction % p
        out.append(
            LiftRow(n=n, partial=x, quotient=quotient, correction=correction, digit=digit)
        )
        x += digit * p**n
    return out


def teichmuller_lift(a0, p, precision):
    """The unique root of unity among p-adic units congruent to a0 mod p.

    Lifts of 1 and -1 are the exact integers 1 and -1; other lifts are
    genuinely irrational and carry no exact value.
    """
    _require_prime(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if p == 2:
        if a0 % 2 == 0:
            raise NotAUnit("residue 0 has no multiplicative lift")
        return PAdicInt.from_integer(1, 2, precision)
    a0 %= p
    if a0 == 0:
        raise NotAUnit("residue 0 has no multiplicative lift")
    if a0 == 1:
        return PAdicInt.from_integer(1, p, precision)
    if a0 == p - 1:
        return PAdicInt.from_integer(-1, p, precision)
    # Newton on f(x) = x^(p-1) - 1: f(a0) = 0 mod p and f'(a0) is a unit,
    # so each step doubles the digits that are right
    x, k = a0, 1
    while k < precision:
        k = min(2 * k, precision)
        m = p**k
        f = pow(x, p - 1, m) - 1
        x = (x - f * _inverse_mod((p - 1) * pow(x, p - 2, m), p, k)) % m
    if pow(x, p - 1, p**precision) != 1:
        raise InternalInvariantError("lift is not a root of x^%d - 1" % (p - 1))
    return PAdicInt._of(p, x, precision)


def decompose_unit(u):
    """Split a unit as (root of unity) * (principal unit).

    The first factor only depends on u mod p (mod 4 when p = 2, which is
    why two digits of precision are demanded there); the second is
    congruent to 1 mod p (mod 4 when p = 2).
    """
    u.require_prime_base()
    p = u.base
    if u.residue % p == 0:
        raise NotAUnit("first digit zero: not a unit")
    if p == 2:
        if u.precision < 2:
            raise InsufficientPrecision(
                "the sign of a 2-adic unit lives in its second digit"
            )
        omega = PAdicInt.from_integer(1 if u.residue % 4 == 1 else -1, 2, u.precision)
    else:
        omega = teichmuller_lift(u.residue, p, u.precision)
    principal = u * omega.invert_unit()
    if principal.residue % p != 1:
        raise InternalInvariantError("principal part is not 1 mod p")
    return omega, principal


def _depth(u, p):
    """depth(u) = v_p(u2 - 1) for u = (root of unity) * u2, no lift needed.

    At odd p, u^(p-1) = u2^(p-1) kills the root of unity, and p - 1 is a
    unit, so v_p(u^(p-1) - 1) is the depth.  At p = 2 it is v_2(+-u - 1),
    the sign taken so that +-u = 1 mod 4.  An int is exact: its depth is
    exact (read mod p^12, p^24, ... until it shows), and infinite only for
    +-1.  A PAdicInt is read mod p^N: infinite only for a known +-1, and at
    least N when its N digits do not show the depth.
    """
    exact = isinstance(u, int)
    if exact:
        z, known, k = u, u, 12
    else:
        if p == 2 and u.precision < 2:
            raise InsufficientPrecision(
                "the sign of a 2-adic unit lives in its second digit"
            )
        z, known, k = u.to_int(), u._int_value, u.precision
    if known in (1, -1):
        return ValuationBound.infinite()
    while True:
        m = p**k
        if p == 2:
            w = ((z if z % 4 == 1 else -z) - 1) % m
        else:
            w = (pow(z, p - 1, m) - 1) % m
        if w:
            return ValuationBound.exact(_vp(w, p))
        if not exact:
            return ValuationBound.at_least(k)
        k *= 2


@dataclass(frozen=True)
class Depth:
    """How deep a unit sits inside the principal units: v_p(u - 1).

    ``in_log_domain`` records whether u is in the region where the
    logarithm series converges and is injective (u = 1 mod p for odd p,
    u = 1 mod 4 for p = 2).
    """

    valuation: ValuationBound
    in_log_domain: bool


def depth(u, strict=True):
    """v_p(u - 1) for a unit u; infinite exactly for the literal 1.

    With ``strict`` the input must already lie in the log-friendly region
    (congruent to 1 mod p, or mod 4 when p = 2); otherwise any unit is
    accepted and the flag in the result says which region it is in.
    """
    u.require_prime_base()
    p = u.base
    if u.residue % p == 0:
        raise NotAUnit("depth is defined for units only")
    # at p = 2 a one-digit u lands in the region, and _depth refuses it
    in_domain = u.residue % (4 if p == 2 else p) == 1
    if strict and not in_domain:
        raise NotPrincipalUnit(
            "u - 1 is a unit here; pass strict=False to measure anyway"
        )
    if in_domain:
        # u is its own principal part
        valuation = _depth(u, p)
    else:
        # u - 1 is a unit, or twice one at p = 2
        valuation = ValuationBound.exact(int(p == 2))
    return Depth(valuation=valuation, in_log_domain=in_domain)
