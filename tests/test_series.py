"""Formal series over exact rationals: the identity suite.

Everything here is an exact statement about truncated polynomials — no
tolerances.  The suite doubles as the symbolic cross-check for the p-adic
exponential and logarithm, which run the same series with carries added.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog.errors import DomainError, NonzeroConstantTerm, WrongConstantTerm
from padlog.series import (
    FormalSeries,
    compose,
    derive,
    integrate,
    series_exp,
    series_log,
)

coefficient = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)


def series_with_constant(constant, degree):
    return st.lists(coefficient, min_size=degree, max_size=degree).map(
        lambda tail: FormalSeries.from_coefficients([constant] + tail)
    )


# ---------------------------------------------------------------------------
# exp and log


def test_exp_of_x():
    result = series_exp(FormalSeries.x(4))
    assert result.coefficients == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
    )


def test_exp_of_zero():
    assert series_exp(FormalSeries.zero(6)) == FormalSeries.one(6)


@settings(max_examples=60)
@given(series_with_constant(0, 8), series_with_constant(0, 8))
def test_exp_is_a_homomorphism(u, v):
    assert series_exp(u + v) == series_exp(u) * series_exp(v)


def test_log_of_one_plus_x():
    result = series_log(FormalSeries.one(4) + FormalSeries.x(4))
    assert result.coefficients == (
        Fraction(0),
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
    )


def test_log_of_one():
    assert series_log(FormalSeries.one(5)) == FormalSeries.zero(5)


@settings(max_examples=100)
@given(series_with_constant(0, 10))
def test_log_undoes_exp(g):
    assert series_log(series_exp(g)) == g


@settings(max_examples=60)
@given(series_with_constant(1, 10))
def test_exp_undoes_log(u):
    assert series_exp(series_log(u)) == u


def test_round_trips_at_every_degree_through_twelve():
    for degree in range(1, 13):
        g = FormalSeries.from_coefficients(
            [0] + [Fraction(i % 5 - 2, i + 1) for i in range(degree)]
        )
        assert series_log(series_exp(g)) == g
        u = FormalSeries.from_coefficients(
            [1] + [Fraction((2 * i + 1) % 7 - 3, i + 2) for i in range(degree)]
        )
        assert series_exp(series_log(u)) == u


@settings(max_examples=60)
@given(series_with_constant(0, 8))
def test_exp_is_injective(g):
    hits_one = series_exp(g) == FormalSeries.one(8)
    assert hits_one == (g == FormalSeries.zero(8))


# ---------------------------------------------------------------------------
# formal calculus


def test_derivative_of_exp_is_exp():
    e = series_exp(FormalSeries.x(9))
    assert derive(e) == e.truncate(8)


def test_derivative_of_log_is_geometric():
    logarithm = series_log(FormalSeries.one(8) + FormalSeries.x(8))
    geometric = derive(logarithm)
    assert geometric.coefficients == tuple(Fraction((-1) ** i) for i in range(8))
    one_plus_x = FormalSeries.one(7) + FormalSeries.x(7)
    assert one_plus_x * geometric == FormalSeries.one(7)


@settings(max_examples=60)
@given(series_with_constant(0, 9).flatmap(lambda g: st.tuples(st.just(g))))
def test_fundamental_theorem(pack):
    (g,) = pack
    f = g + Fraction(5, 7)  # arbitrary constant term
    assert integrate(derive(f)) == f - Fraction(5, 7)
    assert derive(integrate(f)) == f


def test_degrees_shift():
    f = FormalSeries.from_coefficients([1, 2, 3], degree=5)
    assert derive(f).degree == 4
    lifted = integrate(f)
    assert lifted.degree == 6
    assert lifted.coefficients[0] == 0


@settings(max_examples=60)
@given(series_with_constant(2, 6))
def test_derivative_zero_means_constant(f):
    flat = FormalSeries.constant(f.coefficients[0], f.degree)
    zero = FormalSeries.zero(f.degree - 1)
    assert derive(flat) == zero
    if derive(f) == zero:
        assert f == flat


# ---------------------------------------------------------------------------
# composition


@settings(max_examples=40)
@given(series_with_constant(1, 7))
def test_compose_with_x_is_identity(f):
    assert compose(f, FormalSeries.x(7)) == f


@settings(max_examples=60)
@given(series_with_constant(1, 8), series_with_constant(0, 8))
def test_chain_rule(f, g):
    left = derive(compose(f, g))
    right = compose(derive(f), g.truncate(7)) * derive(g)
    assert left == right


def test_derivative_of_log_exp_is_one():
    composed = series_log(series_exp(FormalSeries.x(10)))
    assert derive(composed) == FormalSeries.one(9)


# ---------------------------------------------------------------------------
# exactness and guards


def test_constant_term_guards():
    with pytest.raises(NonzeroConstantTerm):
        series_exp(FormalSeries.one(4))
    with pytest.raises(WrongConstantTerm):
        series_log(FormalSeries.zero(4))
    with pytest.raises(NonzeroConstantTerm):
        compose(FormalSeries.x(4), FormalSeries.one(4))


def test_floats_rejected():
    with pytest.raises(DomainError):
        FormalSeries.from_coefficients((0.5, 1))


def test_coefficients_stay_exact():
    e = series_exp(FormalSeries.x(12))
    assert all(isinstance(c, Fraction) for c in e.coefficients)
    assert e.coefficients[12] == Fraction(1, 479001600)  # 1/12!


def test_mixed_degree_arithmetic_truncates():
    wide = FormalSeries.from_coefficients([1, 1, 1, 1, 1])
    narrow = FormalSeries.from_coefficients([1, 1])
    assert (wide * narrow).degree == 1
    assert (wide + narrow).degree == 1
