"""Exact truncated p-adic integers.

A value is a base (usually prime), a precision N, and a residue mod p^N,
together with the claim "all further digits are unknown".  The N
least-significant base-p digits d_0..d_{N-1} are derived from the residue
on demand.  Arithmetic is integer arithmetic mod p^N; precision of a binary
operation is the shorter operand's.  Composite bases are tolerated for
plain ring arithmetic (from_integer, +, *, -) and rejected everywhere unit
or valuation theory is involved, because Z/(n-adic) is not a domain for
composite n.

Equality is big-O equality: two values over the same base are equal when
their residues agree modulo p^(smaller precision).  That relation is not
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
)
from .residue import _is_prime, _vp


_LEAF_DIGITS = 32  # up to this many digits, one small step per digit is faster


def _digits_simple(value, base, precision):
    """Least-significant-first digits of value mod base**precision.

    Up to _LEAF_DIGITS digits are peeled one at a time; longer values are
    split by divide and conquer (Brent).
    """
    value %= base**precision
    if precision > _LEAF_DIGITS:
        return _split_digits(value, base, precision)
    out = []
    for _ in range(precision):
        out.append(value % base)
        value //= base
    return tuple(out)


def _split_digits(value, base, precision):
    """Digits of value < base^precision: split by base^h for the largest
    power of two h below the digit count, so every division is between
    balanced operands; the powers base^(2^i) are squared once per call."""
    powers = [base]  # powers[i] = base^(2^i)
    while 2 ** len(powers) < precision:
        powers.append(powers[-1] ** 2)
    out = []

    def split(v, n):  # appends exactly n digits of v < base^n
        if n <= _LEAF_DIGITS:
            out.extend(_digits_simple(v, base, n))
            return
        i = (n - 1).bit_length() - 1  # 2^i < n <= 2^(i+1)
        high, low = divmod(v, powers[i])
        split(low, 1 << i)
        split(high, n - (1 << i))

    split(value, precision)
    return tuple(out)


def _from_digits(digits, base):
    """sum d_i base^i: Horner's rule on blocks of _LEAF_DIGITS digits, then
    neighbouring blocks merged pairwise, so the multiplies are balanced."""
    values = []
    for start in range(0, len(digits), _LEAF_DIGITS):
        block = 0
        for d in reversed(digits[start : start + _LEAF_DIGITS]):
            block = block * base + d
        values.append(block)
    scale = base**_LEAF_DIGITS
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [lo + hi * scale for lo, hi in zip(values[::2], values[1::2])]
        scale *= scale
    return values[0]


def render_power_sum(digits, base):
    """Human form of least-significant-first digits, mirroring handwritten
    expansions: ``1 + 2 + 2^3``; no digits, or only zeros, give ``0``."""
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


class ValuationBound:
    """What we know about v_p(x): an exact value, a truncation lower bound,
    or infinity (reserved for the literal zero)."""

    EXACT = "exact"
    AT_LEAST = "at-least"
    INFINITE = "infinite"

    __slots__ = ("kind", "amount", "_lo", "_hi")

    def __init__(self, kind, amount=None):
        if kind not in (self.EXACT, self.AT_LEAST, self.INFINITE):
            raise ValueError("bad valuation kind %r" % (kind,))
        if kind == self.INFINITE:
            amount = None
        elif not isinstance(amount, int) or amount < 0:
            raise ValueError("valuation amount must be a natural number")
        self.kind = kind
        self.amount = amount
        # the valuations the bound allows, [_lo, _hi]: [d, d], [N, oo] or [oo, oo]
        self._lo = math.inf if amount is None else amount
        self._hi = amount if kind == self.EXACT else math.inf

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
    """A base-p integer truncated to N digits: a residue mod p^N."""

    __slots__ = ("base", "precision", "residue", "_int_value")

    def __init__(self, base, digits, _int_value=None):
        if not isinstance(base, int) or base < 2:
            raise ValueError("base must be an integer >= 2")
        digits = tuple(map(int, digits))
        if len(digits) < 1:
            raise ValueError("at least one digit is required")
        if min(digits) < 0 or max(digits) >= base:
            d = next(d for d in reversed(digits) if not 0 <= d < base)
            raise ValueError("digit %d out of range for base %d" % (d, base))
        self.base = base
        self.precision = len(digits)
        self.residue = _from_digits(digits, base)
        # exact integer value when this expansion came from a known integer;
        # lets us answer "is this literally 0/1" despite truncation
        self._int_value = _int_value

    # -- construction ------------------------------------------------------

    @classmethod
    def _of(cls, base, residue, precision, _int_value=None):
        """The value residue mod base**precision, without the digit checks."""
        x = object.__new__(cls)
        x.base = base
        x.precision = precision
        x.residue = residue % base**precision
        x._int_value = _int_value
        return x

    @classmethod
    def from_integer(cls, z, base, precision):
        if not isinstance(z, int):
            raise ValueError("expected an integer")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        return cls._of(base, z, precision, _int_value=z)

    @classmethod
    def zero(cls, base, precision):
        return cls.from_integer(0, base, precision)

    @classmethod
    def one(cls, base, precision):
        return cls.from_integer(1, base, precision)

    # -- basic views -------------------------------------------------------

    @property
    def digits(self):
        """The N base-p digits of the residue, least significant first."""
        return _digits_simple(self.residue, self.base, self.precision)

    @property
    def is_prime_base(self):
        return _is_prime(self.base)

    def reduce_mod(self, level):
        """The integer representative sum(d_i p^i) for i < level."""
        if level < 0 or level > self.precision:
            raise InsufficientPrecision(
                "level %d exceeds precision %d" % (level, self.precision)
            )
        return self.residue % self.base**level

    def to_int(self):
        return self.residue

    def with_precision(self, precision):
        """Truncate to fewer digits, or re-expand when the exact integer is known."""
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if precision <= self.precision:
            return PAdicInt._of(self.base, self.residue, precision, self._int_value)
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
        iv = None
        if self._int_value is not None and other._int_value is not None:
            iv = self._int_value + other._int_value
        n = min(self.precision, other.precision)
        return PAdicInt._of(self.base, self.residue + other.residue, n, iv)

    def __neg__(self):
        iv = None if self._int_value is None else -self._int_value
        return PAdicInt._of(self.base, -self.residue, self.precision, iv)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_base(other)
        iv = None
        if self._int_value is not None and other._int_value is not None:
            iv = self._int_value * other._int_value
        n = min(self.precision, other.precision)
        return PAdicInt._of(self.base, self.residue * other.residue, n, iv)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only natural-number exponents are supported")
        m = self.base**self.precision
        iv = None
        z = self._int_value
        if z is not None and (z in (-1, 0, 1) or (abs(z) < 10**6 and e <= 64)):
            iv = z**e
        return PAdicInt._of(self.base, pow(self.residue, e, m), self.precision, iv)

    def invert_unit(self):
        """Inverse of a unit mod p^N."""
        self.require_prime_base()
        p, n = self.base, self.precision
        if self.residue % p == 0:
            raise NotAUnit("constant digit is zero")
        iv = None
        if self._int_value in (1, -1):
            iv = self._int_value
        return PAdicInt._of(p, pow(self.residue, -1, p**n), n, iv)

    # -- valuations --------------------------------------------------------

    def valuation(self):
        if self.residue:
            return ValuationBound.exact(_vp(self.residue, self.base))
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
        shift = self.base**e
        iv = None if self._int_value is None else self._int_value // shift
        return e, PAdicInt._of(self.base, self.residue // shift, self.precision - e, iv)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = PAdicInt.from_integer(other, self.base, self.precision)
        if not isinstance(other, PAdicInt):
            return NotImplemented
        if self.base != other.base:
            return False
        m = self.base ** min(self.precision, other.precision)
        return self.residue % m == other.residue % m

    __hash__ = None  # big-O equality is precision-relative; do not hash

    def format_digits(self):
        return "%s@%d^%d" % (
            ",".join(str(d) for d in self.digits),
            self.base,
            self.precision,
        )

    def power_sum(self):
        """Human form mirroring handwritten expansions: ``1 + 2 + 2^3``."""
        return render_power_sum(self.digits, self.base)

    def __repr__(self):
        return "PAdicInt(%s)" % self.format_digits()

    __str__ = __repr__


# -- module-level operation surface ---------------------------------------


def from_integer(z, base, precision):
    """Digits of z mod base**precision (complement form for negative z)."""
    return PAdicInt.from_integer(z, base, precision)


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
    digits = digit_part.split(",")  # PAdicInt maps int over the digit text
    if len(digits) != precision:
        raise ValueError(
            "digit count %d does not match precision %d" % (len(digits), precision)
        )
    return PAdicInt(base, digits)
