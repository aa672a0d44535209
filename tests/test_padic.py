"""Tests for the truncated p-adic integer core.

Layout note: derived expectations are always computed by an independent
oracle (plain integer arithmetic, pow(., -1, m), direct factor counting)
before the library call, then compared.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import padic
from padlog.errors import (
    BaseMismatch,
    InsufficientPrecision,
    NotAUnit,
    NotPrime,
)
from padlog.padic import (
    _TABLE_ENTRIES,
    PAdicInt,
    ValuationBound,
    _digits_simple,
    _from_digits,
    digit_csv,
    from_integer,
    parse_padic,
    render_power_sum,
)

from oracles import (
    digits_per_digit,
    parse_per_digit,
    power_sum_per_digit,
    residue_per_digit,
)


# ---------------------------------------------------------------------------
# construction


def test_base7_expansion_of_873():
    assert from_integer(873, 7, 4).digits == (5, 5, 3, 2)


def test_zero_digits():
    assert from_integer(0, 7, 5).digits == (0, 0, 0, 0, 0)


def test_minus_one_is_all_top_digits():
    assert from_integer(-1, 5, 4).digits == (4, 4, 4, 4)


def test_negative_complement_matches_modular_reduction():
    for z in range(-200, 0):
        x = from_integer(z, 3, 8)
        assert x.to_int() == z % 3**8


def test_digit_range_is_validated():
    with pytest.raises(ValueError):
        PAdicInt(5, [5, 0])
    with pytest.raises(ValueError):
        PAdicInt(1, [0])
    with pytest.raises(ValueError):
        PAdicInt(5, [])


@pytest.mark.parametrize("base", [1, 0, -7])
def test_from_integer_refuses_a_base_below_two(base):
    # base 1 would also ask for a digit table with no largest width
    with pytest.raises(ValueError, match="base must be an integer >= 2"):
        from_integer(5, base, 40)


# ---------------------------------------------------------------------------
# addition / negation


def test_columnwise_addition_base7():
    x = from_integer(873, 7, 4)
    y = PAdicInt(7, [6, 4, 6, 1])
    # the second operand is 671, so the sum must be 1544
    assert y.to_int() == 671
    assert (x + y).digits == (4, 3, 3, 4)
    assert (x + y).to_int() == 1544 % 7**4


def test_additive_identity():
    x = from_integer(12345, 7, 6)
    assert (x + from_integer(0, 7, 6)).digits == x.digits


def test_add_matches_integer_oracle_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        expected = from_integer(a + b, 3, 20)
        assert (from_integer(a, 3, 20) + from_integer(b, 3, 20)).digits == expected.digits


def test_neg_of_one_base5():
    assert (-from_integer(1, 5, 3)).digits == (4, 4, 4)


def test_neg_of_zero():
    assert (-from_integer(0, 5, 4)).digits == (0, 0, 0, 0)


def test_neg_matches_integer_oracle():
    for n in range(1, 101):
        assert (-from_integer(n, 3, 12)).digits == from_integer(-n, 3, 12).digits


def test_sum_with_own_negation_vanishes():
    rng = random.Random(11)
    for _ in range(50):
        z = rng.randrange(-(10**9), 10**9)
        x = from_integer(z, 7, 10)
        assert (x + (-x)).digits == (0,) * 10


# ---------------------------------------------------------------------------
# multiplication


def test_base7_multiplication_of_35_and_64():
    # the factors are the base-7 numerals 35 and 64, i.e. 26 and 46
    x = from_integer(26, 7, 4)
    y = from_integer(46, 7, 4)
    assert 26 * 46 == 1196
    assert (x * y).digits == (6, 2, 3, 3)
    assert (x * y).to_int() == 1196


def test_multiplicative_identity():
    x = from_integer(98765, 5, 8)
    assert (x * from_integer(1, 5, 8)).digits == x.digits


def test_mul_matches_integer_oracle_randomized():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        expected = from_integer(a * b, 5, 12)
        assert (from_integer(a, 5, 12) * from_integer(b, 5, 12)).digits == expected.digits


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 10]),
    st.sampled_from([16, 200, 1000]),
)
def test_ring_homomorphism_property(a, b, base, n):
    assert (from_integer(a, base, n) + from_integer(b, base, n)) == from_integer(
        a + b, base, n
    )
    assert (from_integer(a, base, n) * from_integer(b, base, n)) == from_integer(
        a * b, base, n
    )
    # the stored residue is the canonical one, 0 <= residue < base^n
    assert (from_integer(a, base, n) * from_integer(b, base, n)).to_int() == a * b % base**n
    assert (-from_integer(a, base, n)).to_int() == -a % base**n


def test_ring_homomorphism_exhaustive_small_range():
    n = 4
    for a in range(-60, 61, 3):
        for b in range(-60, 61, 7):
            assert (from_integer(a, 5, n) + from_integer(b, 5, n)).digits == from_integer(
                a + b, 5, n
            ).digits
            assert (from_integer(a, 5, n) * from_integer(b, 5, n)).digits == from_integer(
                a * b, 5, n
            ).digits


def test_composite_base_arithmetic_is_allowed():
    x = from_integer(37, 10, 6)
    y = from_integer(-15, 10, 6)
    assert (x + y).to_int() == 22
    assert (x * y).digits == from_integer(-555, 10, 6).digits


def test_precision_truncates_to_shorter_operand():
    x = from_integer(873, 7, 6)
    y = from_integer(671, 7, 3)
    assert (x + y).precision == 3
    assert (x * y).precision == 3


def test_base_mismatch_rejected():
    with pytest.raises(BaseMismatch):
        from_integer(1, 5, 3) + from_integer(1, 7, 3)
    with pytest.raises(BaseMismatch):
        from_integer(1, 5, 3) * from_integer(1, 7, 3)


# ---------------------------------------------------------------------------
# unit inversion


def test_invert_one():
    assert from_integer(1, 5, 6).invert_unit().digits == (1, 0, 0, 0, 0, 0)


def test_invert_two_mod_nine():
    # oracle: the inverse of 2 mod 9 is 5, whose base-3 digits are 2,1
    assert pow(2, -1, 9) == 5
    assert from_integer(2, 3, 2).invert_unit().digits == (2, 1)


def test_invert_one_minus_p_gives_geometric_digits():
    x = from_integer(1 - 5, 5, 9)
    assert x.invert_unit().digits == (1,) * 9


def test_invert_matches_extended_gcd_oracle():
    rng = random.Random(17)
    for p, n in [(2, 16), (3, 10), (5, 8), (7, 7), (13, 5)]:
        for _ in range(40):
            z = rng.randrange(1, p**n)
            if z % p == 0:
                z += 1
            expected = pow(z, -1, p**n)
            got = from_integer(z, p, n).invert_unit()
            assert got.to_int() == expected


def test_invert_is_involution_and_two_sided():
    rng = random.Random(19)
    for _ in range(40):
        z = rng.randrange(1, 5**8)
        if z % 5 == 0:
            z += 1
        x = from_integer(z, 5, 8)
        inv = x.invert_unit()
        assert (x * inv).digits == (1,) + (0,) * 7
        assert (inv * x).digits == (1,) + (0,) * 7
        assert inv.invert_unit().digits == x.digits


def test_invert_is_a_newton_inverse_at_a_thousand_digits(monkeypatch):
    calls = []
    real = padic._inverse_mod
    monkeypatch.setattr(padic, "_inverse_mod", lambda u, p, k: calls.append((p, k)) or real(u, p, k))
    rng = random.Random(23)
    for p in (2, 7, 101):
        z = rng.randrange(p**1000) // p * p + 1
        inv = from_integer(z, p, 1000).invert_unit()
        assert inv.to_int() == pow(z, -1, p**1000)
    assert calls == [(2, 1000), (7, 1000), (101, 1000)]


def test_invert_requires_prime_base():
    with pytest.raises(NotPrime):
        from_integer(3, 10, 4).invert_unit()


def test_invert_rejects_non_unit():
    with pytest.raises(NotAUnit):
        from_integer(10, 5, 4).invert_unit()


# ---------------------------------------------------------------------------
# valuations


def test_valuation_of_32_base2():
    assert from_integer(32, 2, 10).valuation() == ValuationBound.exact(5)


def test_valuation_of_minus_98_base7():
    assert from_integer(-98, 7, 5).valuation() == ValuationBound.exact(2)


def test_truncated_zero_reports_lower_bound():
    v = PAdicInt(5, [0] * 8).valuation()
    assert v.kind == ValuationBound.AT_LEAST and v.amount == 8


def test_literal_zero_reports_infinite():
    assert from_integer(0, 5, 8).valuation().is_infinite


def test_metric_is_display_only():
    assert from_integer(0, 5, 8).valuation().metric() == 0.0
    assert abs(from_integer(5, 5, 8).valuation().metric() - 2.718281828**-1) < 1e-9


def test_ultrametric_on_exact_valuations():
    rng = random.Random(23)

    def v(z):
        return from_integer(z, 3, 30).valuation()

    for _ in range(300):
        x, y, z = (rng.randrange(-(10**6), 10**6) for _ in range(3))
        vx_y, vx_z, vz_y = v(x - y), v(x - z), v(z - y)
        if all(b.is_exact for b in (vx_y, vx_z, vz_y)):
            assert vx_y.amount >= min(vx_z.amount, vz_y.amount)


# ---------------------------------------------------------------------------
# equality, formatting, misc


def test_big_o_equality_at_min_precision():
    assert from_integer(5, 7, 3) == from_integer(5 + 7**3, 7, 4)
    assert from_integer(5, 7, 4) != from_integer(5 + 7**3, 7, 4)
    assert from_integer(5, 7, 3) != from_integer(5, 11, 3)


def test_values_are_unhashable():
    with pytest.raises(TypeError):
        hash(from_integer(1, 5, 3))


def test_geometric_series_times_one_minus_p():
    ones = PAdicInt(5, [1] * 12)
    assert (ones * from_integer(1 - 5, 5, 12)).digits == (1,) + (0,) * 11


def test_pow_matches_integer_oracle():
    rng = random.Random(37)
    for _ in range(40):
        z = rng.randrange(1, 1000)
        e = rng.randrange(0, 10)
        assert (from_integer(z, 5, 10) ** e).to_int() == pow(z, e, 5**10)


def test_with_precision_truncates_and_extends_known_integers():
    x = from_integer(873, 7, 4)
    assert x.with_precision(2).digits == (5, 5)
    assert x.with_precision(6).digits == from_integer(873, 7, 6).digits
    with pytest.raises(InsufficientPrecision):
        PAdicInt(7, [1, 2]).with_precision(5)


def test_format_and_parse_roundtrip():
    x = from_integer(873, 7, 4)
    assert x.format_digits() == "5,5,3,2@7^4"
    y = parse_padic("5,5,3,2@7^4")
    assert y.digits == x.digits and y.base == 7
    # digits survive the residue form, trailing zeros and precision included
    for base, ds in ((7, (5, 5, 3, 2)), (5, (1, 0, 0, 0)), (2, (0, 1, 0, 0, 0)), (10, (9, 0, 0))):
        x = PAdicInt(base, ds)
        assert x.digits == tuple(ds) and x.precision == len(ds)
        y = parse_padic(x.format_digits())
        assert y == x and y.digits == x.digits and y.precision == len(ds)


def test_parse_refuses_malformed_text():
    for text in ("5,x,3,2@7^4", "5,,3,2@7^4", "5,5,3@7^4", "5,5,3,9@7^4", "5,5@7", "5,5",
                 "1.5,2@7^2", "1,2@x^2", "1,2@7^y"):
        with pytest.raises(ValueError):
            parse_padic(text)
    assert parse_padic(" 5, 5,3 ,2@7^4 ").digits == (5, 5, 3, 2)


def test_power_sum_rendering():
    assert from_integer(11, 2, 6).power_sum() == "1 + 2 + 2^3"
    assert from_integer(0, 2, 4).power_sum() == "0"
    assert from_integer(2 * 25, 5, 4).power_sum() == "2*5^2"
    # the CLI renders digit lists directly, including the empty list
    assert render_power_sum((1, 1, 0, 1), 2) == "1 + 2 + 2^3"
    assert render_power_sum([], 7) == "0"


# ---------------------------------------------------------------------------
# radix conversion against the one-digit-at-a-time oracles

CONVERSION_BASES = [2, 3, 5, 7, 10, 11, 36, 37, 101, 10007]


def table_width(base):
    """L, the digits a leaf reads at a time from the base's digit table."""
    width = 1
    while base ** (width + 1) <= _TABLE_ENTRIES:
        width += 1
    return width


def check_conversions(value, base, n):
    """Every conversion of value mod base^n against the per-digit oracles."""
    want = digits_per_digit(value, base, n)
    digits = _digits_simple(value, base, n)
    assert digits == want
    residue = residue_per_digit(want, base)
    assert _from_digits(want, base) == residue
    x = PAdicInt(base, digits)
    assert x.residue == residue and x.digits == want
    assert render_power_sum(digits, base) == power_sum_per_digit(want, base)
    assert digit_csv(digits, base) == ",".join(map(str, want))
    y = parse_padic(x.format_digits())
    assert (y.base, y.precision, y.residue) == (base, n, residue)


@pytest.mark.parametrize("n", [1, 12, 13, 31, 32, 33, 1000, 4097])
@pytest.mark.parametrize("base", CONVERSION_BASES)
def test_radix_conversion_matches_naive_loop(base, n):
    rng = random.Random(base * 10007 + n)
    m = base**n
    # random values, the extremes, values with long runs of zeros and top
    # digits at the split points, and negative integers
    values = [rng.randrange(m) for _ in range(3)]
    values += [0, 1, m - 1, base ** (n // 2), m - base ** (n // 3)]
    values += [-1, -rng.randrange(m), -(m + 5)]
    for value in values:
        check_conversions(value, base, n)
    assert _digits_simple(-1, base, n) == (base - 1,) * n
    assert _digits_simple(m + 5, base, n) == digits_per_digit(5, base, n)


@pytest.mark.parametrize(
    "base", [b for b in CONVERSION_BASES if b * b <= _TABLE_ENTRIES]
)
def test_table_leaves_match_the_oracle_at_every_chunk_edge(base):
    # a leaf of up to 32 digits reads ceil(n / L) table chunks and keeps n
    # digits; every leaf length and every length around a multiple of L
    rng = random.Random(base)
    width = table_width(base)
    lengths = set(range(33, 66))
    lengths |= {64 + k * width + e for k in range(1, 5) for e in (-1, 0, 1)}
    for n in sorted(lengths):
        for value in (rng.randrange(base**n), base**n - 1, base ** (n - 1)):
            check_conversions(value, base, n)


@pytest.mark.parametrize("base", [7, 10, 36])
def test_digit_text_past_the_int_conversion_limit(base):
    # int() refuses more than sys.get_int_max_str_digits() digits in a
    # base that is not a power of two, so long texts go in chunks
    rng = random.Random(base)
    limit = sys.get_int_max_str_digits()
    for n in (limit, limit + 1):
        check_conversions(rng.randrange(base**n), base, n)
    old = limit
    sys.set_int_max_str_digits(640)
    try:
        for n in (639, 640, 641, 1280, 1281, 2000):
            check_conversions(rng.randrange(base**n), base, n)
    finally:
        sys.set_int_max_str_digits(old)


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(CONVERSION_BASES),
    z=st.integers(-(10**400), 10**400),
    n=st.integers(1, 300),
)
def test_format_then_parse_round_trips(base, z, n):
    x = from_integer(z, base, n)
    y = parse_padic(x.format_digits())
    assert y == x and (y.base, y.precision, y.residue) == (base, n, x.residue)


MALFORMED = [
    "5,5,3,7@7^4",  # a digit equal to the base
    "5,9,3,2@7^4",
    "z,1@36^2",
    "5,_,3@7^3",  # int() takes underscores between digits, not alone
    "5_0,1@7^2",
    "1_0,1@11^2",
    "5, 5,3@7^3",  # int() takes spaces around a digit
    " 5,5 @ 7^2",
    "5,5,3 ,2@7^4",
    "-1,2@7^2",
    "+3,2@7^2",
    "10,2@7^2",  # digits of more than one character
    "10,2@11^2",
    "36,0@37^2",
    "100,5@101^2",
    "5,5,3@7^4",  # counts that do not match the precision
    "5,5@7^1",
    "@7^1",
    "5,,3@7^3",
    "5,5,3,2",  # no '@' or no '^'
    "5,5@7",
    "1.5,2@7^2",
    "1,2@x^2",
    "1,2@7^y",
    "0@1^1",  # bases int() or PAdicInt refuse
    "0,0@0^2",
    "1,1@37^2",  # the base is one past int()'s alphabet
    "\u0663,1@7^2",  # a non-ASCII decimal digit
    "1,0x1@16^2",
    "1,0@7^2",  # and plain valid texts
    "6,6,6,6@7^4",
    "1,0,1@2^3",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_raises_what_the_per_digit_parser_raises(text):
    try:
        want = parse_per_digit(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            parse_padic(text)
        assert str(got.value) == str(exc)
    else:
        x = parse_padic(text)
        assert (x.base, x.precision, x.residue) == want


def test_out_of_range_digit_message_names_the_top_offender():
    with pytest.raises(ValueError, match="digit 9 out of range for base 7"):
        PAdicInt(7, (8, 0, 9, 1))
    with pytest.raises(ValueError, match="digit -1 out of range"):
        PAdicInt(7, (-1, 0, 0))
