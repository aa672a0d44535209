"""Exact truncated p-adic integers.

A value is a base (usually prime), a precision N, and the N least-significant
base-p digits d_0..d_{N-1}, meaning the residue sum(d_i p^i) mod p^N together
with the claim "all further digits are unknown".  Arithmetic carries digits
exactly; precision of a binary operation is the shorter operand's.  Composite
bases are tolerated for plain ring arithmetic (from_integer, +, *, -) and
rejected everywhere unit or valuation theory is involved, because Z/(n-adic)
is not a domain for composite n.

Equality is big-O equality: two values over the same base are equal when
their digits agree up to the smaller precision.  That relation is not
transitive across precisions, so values are unhashable on purpose.
"""

from __future__ import annotations

import math

from .errors import (
    BaseMismatch,
    IndeterminateValuation,
    InsufficientPrecision,
    NotAUnit,
    NotPrime,
    ZeroInput,
)
from .residue import _factorization, _is_prime, _vp


def _digits_simple(value, base, precision):
    """Least-significant-first digits of value mod base**precision."""
    value %= base**precision
    out = []
    for _ in range(precision):
        out.append(value % base)
        value //= base
    return tuple(out)


class ValuationBound:
    """What we know about v_p(x): an exact value, a truncation lower bound,
    or infinity (reserved for the literal zero)."""

    EXACT = "exact"
    AT_LEAST = "at-least"
    INFINITE = "infinite"

    __slots__ = ("kind", "amount")

    def __init__(self, kind, amount=None):
        if kind not in (self.EXACT, self.AT_LEAST, self.INFINITE):
            raise ValueError("bad valuation kind %r" % (kind,))
        if kind == self.INFINITE:
            amount = None
        elif not isinstance(amount, int) or amount < 0:
            raise ValueError("valuation amount must be a natural number")
        self.kind = kind
        self.amount = amount

    @classmethod
    def exact(cls, n):
        return cls(cls.EXACT, n)

    @classmethod
    def at_least(cls, n):
        return cls(cls.AT_LEAST, n)

    @classmethod
    def infinite(cls):
        return cls(cls.INFINITE)

    @property
    def is_exact(self):
        return self.kind == self.EXACT

    @property
    def is_infinite(self):
        return self.kind == self.INFINITE

    def __eq__(self, other):
        if isinstance(other, int):
            return self.kind == self.EXACT and self.amount == other
        if isinstance(other, ValuationBound):
            return self.kind == other.kind and self.amount == other.amount
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.amount))

    def __repr__(self):
        if self.kind == self.INFINITE:
            return "v = oo"
        if self.kind == self.AT_LEAST:
            return "v >= %d" % self.amount
        return "v = %d" % self.amount

    def metric(self):
        """Display-only real metric e^(-v); never used in algorithms."""
        if self.is_infinite:
            return 0.0
        return math.exp(-self.amount)


class PAdicInt:
    """A truncated base-p expansion, least-significant digit first."""

    __slots__ = ("base", "digits", "is_prime_base", "_int_value")

    def __init__(self, base, digits, _int_value=None):
        if not isinstance(base, int) or base < 2:
            raise ValueError("base must be an integer >= 2")
        digits = tuple(int(d) for d in digits)
        if len(digits) < 1:
            raise ValueError("at least one digit is required")
        for d in digits:
            if not 0 <= d < base:
                raise ValueError("digit %d out of range for base %d" % (d, base))
        self.base = base
        self.digits = digits
        self.is_prime_base = _is_prime(base)
        # exact integer value when this expansion came from a known integer;
        # lets us answer "is this literally 0/1" despite truncation
        self._int_value = _int_value

    # -- construction ------------------------------------------------------

    @classmethod
    def from_integer(cls, z, base, precision):
        if not isinstance(z, int):
            raise ValueError("expected an integer")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        return cls(base, _digits_simple(z, base, precision), _int_value=z)

    @classmethod
    def zero(cls, base, precision):
        return cls.from_integer(0, base, precision)

    @classmethod
    def one(cls, base, precision):
        return cls.from_integer(1, base, precision)

    # -- basic views -------------------------------------------------------

    @property
    def precision(self):
        return len(self.digits)

    def reduce_mod(self, level):
        """The integer representative sum(d_i p^i) for i < level."""
        if level < 0 or level > self.precision:
            raise InsufficientPrecision(
                "level %d exceeds precision %d" % (level, self.precision)
            )
        total, power = 0, 1
        for d in self.digits[:level]:
            total += d * power
            power *= self.base
        return total

    def to_int(self):
        return self.reduce_mod(self.precision)

    def with_precision(self, precision):
        """Truncate to fewer digits, or re-expand when the exact integer is known."""
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if precision <= self.precision:
            return PAdicInt(self.base, self.digits[:precision], self._int_value)
        if self._int_value is not None:
            return PAdicInt.from_integer(self._int_value, self.base, precision)
        raise InsufficientPrecision(
            "cannot extend a truncated value from %d to %d digits"
            % (self.precision, precision)
        )

    def require_prime_base(self):
        if not self.is_prime_base:
            raise NotPrime("base %d is not prime" % self.base)

    # -- arithmetic --------------------------------------------------------

    def _check_same_base(self, other):
        if not isinstance(other, PAdicInt):
            raise TypeError("expected a PAdicInt")
        if self.base != other.base:
            raise BaseMismatch(
                "cannot mix bases %d and %d" % (self.base, other.base)
            )

    def __add__(self, other):
        self._check_same_base(other)
        n = min(self.precision, other.precision)
        out, carry = [], 0
        for i in range(n):
            t = self.digits[i] + other.digits[i] + carry
            carry, d = divmod(t, self.base)
            out.append(d)
        iv = None
        if self._int_value is not None and other._int_value is not None:
            iv = self._int_value + other._int_value
        return PAdicInt(self.base, out, iv)

    def __neg__(self):
        # complement: 0 stays 0 until the first nonzero digit, then p - d - 1
        out, borrow = [], 0
        for d in self.digits:
            t = -d - borrow
            borrow, d2 = (1, t + self.base) if t < 0 else (0, t)
            out.append(d2 % self.base)
        iv = None if self._int_value is None else -self._int_value
        return PAdicInt(self.base, out, iv)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_base(other)
        n = min(self.precision, other.precision)
        out = [0] * n
        for i in range(n):
            xi = self.digits[i]
            if xi == 0:
                continue
            carry = 0
            for j in range(n - i):
                t = out[i + j] + xi * other.digits[j] + carry
                carry, out[i + j] = divmod(t, self.base)
        iv = None
        if self._int_value is not None and other._int_value is not None:
            iv = self._int_value * other._int_value
        return PAdicInt(self.base, out, iv)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only natural-number exponents are supported")
        m = self.base**self.precision
        value = pow(self.to_int(), e, m)
        iv = None
        z = self._int_value
        if z is not None and (z in (-1, 0, 1) or (abs(z) < 10**6 and e <= 64)):
            iv = z**e
        return PAdicInt(self.base, _digits_simple(value, self.base, self.precision), iv)

    def invert_unit(self):
        """Inverse of a unit by quadratic Hensel lifting from the first digit."""
        self.require_prime_base()
        if self.digits[0] == 0:
            raise NotAUnit("constant digit is zero")
        p, n = self.base, self.precision
        u = self.to_int()
        x = pow(self.digits[0], -1, p)
        known = 1
        while known < n:
            known = min(2 * known, n)
            m = p**known
            x = (x * (2 - u * x)) % m
        iv = None
        if self._int_value in (1, -1):
            iv = self._int_value
        return PAdicInt(self.base, _digits_simple(x, p, n), iv)

    # -- valuations --------------------------------------------------------

    def valuation(self):
        for i, d in enumerate(self.digits):
            if d != 0:
                return ValuationBound.exact(i)
        if self._int_value == 0:
            return ValuationBound.infinite()
        return ValuationBound.at_least(self.precision)

    def unit_factor(self):
        """Write x = p^e * u with u a unit; consumes e digits of precision."""
        self.require_prime_base()
        v = self.valuation()
        if not v.is_exact:
            raise IndeterminateValuation(
                "all %d known digits vanish" % self.precision
            )
        e = v.amount
        iv = None
        if self._int_value is not None and e > 0:
            iv = self._int_value // (self.base**e)
        elif self._int_value is not None:
            iv = self._int_value
        return e, PAdicInt(self.base, self.digits[e:], iv)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = PAdicInt.from_integer(other, self.base, self.precision)
        if not isinstance(other, PAdicInt):
            return NotImplemented
        if self.base != other.base:
            return False
        n = min(self.precision, other.precision)
        return self.digits[:n] == other.digits[:n]

    __hash__ = None  # big-O equality is precision-relative; do not hash

    def format_digits(self):
        return "%s@%d^%d" % (
            ",".join(str(d) for d in self.digits),
            self.base,
            self.precision,
        )

    def power_sum(self):
        """Human form mirroring handwritten expansions: ``1 + 2 + 2^3``."""
        terms = []
        for i, d in enumerate(self.digits):
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                pw = "%d^%d" % (self.base, i) if i > 1 else str(self.base)
                terms.append(pw if d == 1 else "%d*%s" % (d, pw))
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return "PAdicInt(%s)" % self.format_digits()

    __str__ = __repr__


# -- module-level operation surface ---------------------------------------


def from_integer(z, base, precision):
    """Digits of z mod base**precision (complement form for negative z)."""
    return PAdicInt.from_integer(z, base, precision)


def composite_valuation(z, n):
    """max of v_q(z) over primes q dividing n.

    Not a valuation (no ultrametric inequality is promised); it is exposed
    as a plain function on nonzero integers.
    """
    if not isinstance(z, int) or not isinstance(n, int):
        raise ValueError("expected integers")
    if z == 0:
        raise ZeroInput("v_n(0) is undefined here")
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(_vp(z, q) for q, _ in _factorization(n))


def parse_padic(text):
    """Parse the digit I/O format ``5,5,3,2@7^4``."""
    text = text.strip()
    if "@" not in text:
        raise ValueError("expected digits@base^precision, got %r" % text)
    digit_part, base_part = text.split("@", 1)
    if "^" not in base_part:
        raise ValueError("expected base^precision after '@' in %r" % text)
    base_text, prec_text = base_part.split("^", 1)
    base, precision = int(base_text), int(prec_text)
    digits = [int(d) for d in digit_part.split(",")]
    if len(digits) != precision:
        raise ValueError(
            "digit count %d does not match precision %d" % (len(digits), precision)
        )
    return PAdicInt(base, digits)
