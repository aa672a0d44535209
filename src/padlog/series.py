"""Truncated formal power series over exact rationals.

A series here is a polynomial of fixed degree bound D standing for its
class mod x^(D+1); all coefficient arithmetic is exact Fraction work, so
every identity (exp/log inversion, the chain rule, formal calculus) holds
on the nose rather than within a tolerance.  This is the symbolic twin of
the p-adic exponential/logarithm code: same series, no carries, no primes.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonzeroConstantTerm, WrongConstantTerm


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError("coefficients must be exact rationals, not %r" % type(value))


@dataclass(frozen=True)
class FormalSeries:
    """Coefficients c_0..c_degree of a series truncated past x^degree."""

    degree: int
    coefficients: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError("the degree bound must be a natural number")
        if len(self.coefficients) != self.degree + 1:
            raise DomainError("expected %d coefficients" % (self.degree + 1))
        object.__setattr__(
            self, "coefficients", tuple(_as_fraction(c) for c in self.coefficients)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coefficients, degree=None):
        coefficients = tuple(coefficients)
        if degree is None:
            degree = len(coefficients) - 1
        if len(coefficients) < degree + 1:
            coefficients += (Fraction(0),) * (degree + 1 - len(coefficients))
        return cls(degree=degree, coefficients=coefficients[: degree + 1])

    @classmethod
    def constant(cls, value, degree):
        return cls.from_coefficients((value,), degree)

    @classmethod
    def zero(cls, degree):
        return cls.constant(0, degree)

    @classmethod
    def one(cls, degree):
        return cls.constant(1, degree)

    @classmethod
    def x(cls, degree):
        return cls.from_coefficients((0, 1), degree)

    # -- ring structure ----------------------------------------------------

    def _match(self, other):
        if isinstance(other, (int, Fraction)):
            other = FormalSeries.constant(other, self.degree)
        degree = min(self.degree, other.degree)
        return other, degree

    def __add__(self, other):
        other, degree = self._match(other)
        return FormalSeries(
            degree,
            tuple(
                self.coefficients[i] + other.coefficients[i]
                for i in range(degree + 1)
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries(self.degree, tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        other, _ = self._match(other)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            return FormalSeries(
                self.degree, tuple(c * scalar for c in self.coefficients)
            )
        degree = min(self.degree, other.degree)
        out = [Fraction(0)] * (degree + 1)
        for i, a in enumerate(self.coefficients[: degree + 1]):
            if a == 0:
                continue
            for j in range(degree + 1 - i):
                b = other.coefficients[j]
                if b:
                    out[i + j] += a * b
        return FormalSeries(degree, tuple(out))

    __rmul__ = __mul__

    # -- helpers -----------------------------------------------------------

    def truncate(self, degree):
        if degree >= self.degree:
            return self
        return FormalSeries(degree, self.coefficients[: degree + 1])


def series_exp(g):
    """exp of a series with zero constant term: sum of g^n / n! through D.

    The zero constant term makes g^n start at degree n, so the sum is
    finite at every truncation.
    """
    if g.coefficients[0] != 0:
        raise NonzeroConstantTerm("exp needs constant term 0")
    result = FormalSeries.one(g.degree)
    term = FormalSeries.one(g.degree)
    for n in range(1, g.degree + 1):
        term = term * g * Fraction(1, n)
        result = result + term
    return result


def series_log(u):
    """log of a series with constant term 1: the alternating series in u - 1."""
    if u.coefficients[0] != 1:
        raise WrongConstantTerm("log needs constant term 1")
    w = u - 1
    result = FormalSeries.zero(u.degree)
    power = FormalSeries.one(u.degree)
    for n in range(1, u.degree + 1):
        power = power * w
        result = result + power * Fraction((-1) ** (n + 1), n)
    return result


def derive(f):
    """Formal derivative; the degree bound drops by one."""
    if f.degree == 0:
        return FormalSeries.zero(0)
    return FormalSeries(
        f.degree - 1,
        tuple(i * f.coefficients[i] for i in range(1, f.degree + 1)),
    )


def integrate(f):
    """Formal antiderivative with constant term 0; the degree bound grows by one."""
    return FormalSeries(
        f.degree + 1,
        (Fraction(0),)
        + tuple(f.coefficients[i] / (i + 1) for i in range(f.degree + 1)),
    )


def compose(f, g):
    """Substitution f(g(x)) for g with zero constant term, by Horner's rule."""
    if g.coefficients[0] != 0:
        raise NonzeroConstantTerm("composition needs the inner constant term 0")
    degree = min(f.degree, g.degree)
    inner = g.truncate(degree)
    result = FormalSeries.constant(f.coefficients[degree], degree)
    for i in range(degree - 1, -1, -1):
        result = result * inner + f.coefficients[i]
    return result
