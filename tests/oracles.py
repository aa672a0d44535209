"""Enumeration, one-digit-at-a-time and plain-climb oracles shared by the
tests; no product path calls them."""

import math

from padlog.errors import NotCoprime, ZeroInput
from padlog.residue import (
    _dlog_mod_p,
    _require_prime,
    order_mod,
    structure_from_power_counts,
)
from padlog.solver import LiftingRow, LiftingTrace, _classify_nonunit, _trace_digits


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


# ---------------------------------------------------------------------------
# base-p digits, one digit at a time


def digits_per_digit(value, base, n):
    """The n least-significant base digits of value mod base^n, one
    division each."""
    value %= base**n
    out = []
    for _ in range(n):
        out.append(value % base)
        value //= base
    return tuple(out)


def residue_per_digit(digits, base):
    """sum d_i base^i of least-significant-first digits, by Horner's rule."""
    residue = 0
    for d in reversed(digits):
        residue = residue * base + d
    return residue


def power_sum_per_digit(digits, base):
    """The handwritten form ``1 + 2 + 2^3``, one term per nonzero digit."""
    terms = []
    for i, d in enumerate(digits):
        if d == 0:
            continue
        if i == 0:
            terms.append(str(d))
        else:
            pw = "%d^%d" % (base, i) if i > 1 else str(base)
            terms.append(pw if d == 1 else "%d*%s" % (d, pw))
    return " + ".join(terms) if terms else "0"


def parse_per_digit(text):
    """(base, precision, residue) of ``d,d,...@p^N`` text: int() of each
    digit text, the digit checks of ``PAdicInt``, then Horner's rule.
    Raises what the parser raises, with the same message."""
    text = text.strip()
    if "@" not in text:
        raise ValueError("expected digits@base^precision, got %r" % text)
    digit_part, base_part = text.split("@", 1)
    if "^" not in base_part:
        raise ValueError("expected base^precision after '@' in %r" % text)
    base_text, prec_text = base_part.split("^", 1)
    base, precision = int(base_text), int(prec_text)
    digits = digit_part.split(",")
    if len(digits) != precision:
        raise ValueError(
            "digit count %d does not match precision %d" % (len(digits), precision)
        )
    if base < 2:
        raise ValueError("base must be an integer >= 2")
    digits = tuple(map(int, digits))
    if min(digits) < 0 or max(digits) >= base:
        d = next(d for d in reversed(digits) if not 0 <= d < base)
        raise ValueError("digit %d out of range for base %d" % (d, base))
    return base, precision, residue_per_digit(digits, base)


def climb_oracle(a, b, p, n_max):
    """The plain climb ``solve_by_lifting`` is held to: one
    ``pow(a^x * u, -1, p)`` at every level where the order grows, rows
    through the NamedTuple constructor and the trace built by keyword."""
    _require_prime(p)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if a == 0 or b == 0:
        raise ZeroInput("0 is not a unit and has no discrete log")
    if a % p == 0 or b % p == 0:
        _classify_nonunit(a, b, p)
    order = order_mod(a, p)
    x = _dlog_mod_p(a, b, p, order)
    if x is None:
        return LiftingTrace(
            a=a, b=b, p=p, rows=(), verdict="unsolvable", failing_level=1
        )
    x = x or order
    rows = [LiftingRow(1, x, order, 0)]
    pinned = 0  # v_p(order): the level-1 order divides p - 1
    top, m = p**n_max, p
    a_order, a_x = pow(a, order, top), pow(a, x, top)
    failing = None
    for n in range(2, n_max + 1):
        # Reduction mod p^n -> p^(n-1) has a kernel of order p (p = 2
        # included), so the order either stays or gains one factor p.
        low, m = m, m * p
        step = a_order % m
        if step == 1:
            if a_x % m != b % m:
                failing = n
                break
        else:
            # step = 1 + low * u; b - a^x = a^x * low * w (mod m)
            u = (step - 1) // low
            j = (b - a_x) % m // low * pow(a_x * u, -1, p) % p
            x += j * order
            a_x = a_x * pow(a_order, j, top) % top
            a_order = pow(a_order, p, top)
            order *= p
            pinned += 1
        rows.append(LiftingRow(n, x, order, pinned))
    return LiftingTrace(
        a=a,
        b=b,
        p=p,
        rows=tuple(rows),
        verdict="solvable" if failing is None else "unsolvable",
        failing_level=failing,
        digits=_trace_digits(rows, p),
    )
