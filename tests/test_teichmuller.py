"""Roots of unity among p-adic units and the torsion/principal split.

The independent oracle is Frobenius iteration: x -> x^p mod p^N reaches the
Teichmuller representative of x from any unit start.  Worked construction
rows (the quotient/correction integers) pin the digit recurrence itself.
"""

import random

import pytest

from padlog.errors import (
    DomainError,
    InsufficientPrecision,
    NotAUnit,
    NotPrincipalUnit,
)
from padlog.padic import PAdicInt, ValuationBound, from_integer
from padlog.teichmuller import (
    _depth,
    decompose_unit,
    depth,
    lift_trace,
    teichmuller_lift,
)


def frobenius_fixed_point(a0, p, precision):
    """Oracle: iterate the p-th power map to its fixed point mod p^N."""
    m = p**precision
    x = a0 % m
    seen = None
    while x != seen:
        seen = x
        x = pow(x, p, m)
    return x


# ---------------------------------------------------------------------------
# the digit construction, against the worked integers


def test_lift_trace_of_2_base_5():
    rows = lift_trace(2, 5, 2)
    assert rows[0].quotient == 3
    assert rows[0].correction == 96
    assert rows[0].digit == 1
    assert rows[1].partial == 7
    assert rows[1].quotient == 96
    assert rows[1].correction == 3072
    assert rows[1].digit == 2


def test_lift_trace_of_3_base_5():
    rows = lift_trace(3, 5, 2)
    assert rows[0].correction == 768
    assert rows[0].digit == 3
    assert rows[1].partial == 18
    assert rows[1].correction == 201552
    assert rows[1].digit == 2


def test_lift_trace_of_4_base_5():
    # order of 4 mod 5 is 2, so the Newton step uses k = 2
    rows = lift_trace(4, 5, 2)
    assert rows[0].correction == 144
    assert rows[0].digit == 4
    assert rows[1].partial == 24
    assert rows[1].quotient == 23
    assert rows[1].correction == 1104
    assert rows[1].digit == 4


def test_lift_trace_digits_match_lift():
    # the digit-by-digit construction is the reference for Newton's doubling
    for p in (3, 5, 7, 11):
        for a0 in range(1, p):
            rows = lift_trace(a0, p, 24)
            lifted = teichmuller_lift(a0, p, 25)
            assert tuple([a0] + [r.digit for r in rows]) == lifted.digits


def test_lift_trace_rejects_base_two():
    with pytest.raises(DomainError):
        lift_trace(1, 2, 3)


# ---------------------------------------------------------------------------
# teichmuller_lift


def test_lift_of_2_base_5_long():
    x = teichmuller_lift(2, 5, 22)
    assert x.digits == (
        2, 1, 2, 1, 3, 4, 2, 3, 0, 3, 2,
        2, 0, 4, 1, 3, 2, 4, 0, 4, 3, 4,
    )


def test_lift_matches_frobenius_oracle():
    # N = 17, 64 and 200 take five, six and eight Newton doublings
    for p in (2, 3, 5, 7, 11, 13, 29, 101):
        for N in (1, 2, 3, 17, 64, 200):
            for a0 in range(1, p):
                want = pow(a0, p ** (N - 1), p**N)  # a0^(p^(N-1)) = w(a0) mod p^N
                assert teichmuller_lift(a0, p, N).to_int() == want
                if N <= 17:
                    assert frobenius_fixed_point(a0, p, N) == want


def test_lift_is_root_of_unity():
    for p in (3, 5, 7):
        for a0 in range(1, p):
            x = teichmuller_lift(a0, p, 8)
            assert pow(x.to_int(), p - 1, p**8) == 1
            assert x.digits[0] == a0


def test_lift_multiplicativity():
    # the lift is a section of reduction as groups: w(a) w(b) = w(ab)
    p, N = 7, 10
    for a in range(1, p):
        for b in range(1, p):
            lhs = teichmuller_lift(a, p, N) * teichmuller_lift(b, p, N)
            rhs = teichmuller_lift(a * b % p, p, N)
            assert lhs == rhs


def test_lift_of_plus_minus_one_exact():
    one = teichmuller_lift(1, 5, 6)
    minus = teichmuller_lift(4, 5, 6)
    assert one == from_integer(1, 5, 6)
    assert minus == from_integer(-1, 5, 6)
    # exactness survives: these two admit re-expansion to higher precision
    assert minus.with_precision(9) == from_integer(-1, 5, 9)


def test_lift_base_two():
    assert teichmuller_lift(1, 2, 5) == from_integer(1, 2, 5)
    with pytest.raises(NotAUnit):
        teichmuller_lift(0, 2, 5)
    with pytest.raises(NotAUnit):
        teichmuller_lift(5, 5, 4)


# ---------------------------------------------------------------------------
# decompose_unit


def test_decompose_recovers_product():
    for p in (5, 7):
        for v in (3, 12, 23, 101, -8):
            u = from_integer(v, p, 8)
            if v % p == 0:
                continue
            omega, principal = decompose_unit(u)
            assert principal.digits[0] == 1
            assert omega * principal == u
            assert omega.digits[0] == v % p


def test_decompose_base_two():
    u = from_integer(7, 2, 8)  # 7 = 3 mod 4, so the sign part is -1
    omega, principal = decompose_unit(u)
    assert omega == from_integer(-1, 2, 8)
    assert principal == from_integer(-7, 2, 8)
    assert principal.to_int() % 4 == 1
    u = from_integer(9, 2, 8)
    omega, principal = decompose_unit(u)
    assert omega == from_integer(1, 2, 8)
    assert principal == u


def test_decompose_exactness_propagates():
    # sign-only torsion keeps the exact integer channel alive
    u = from_integer(-5, 2, 6)  # -5 = 3 mod 4: sign part -1, principal part 5
    omega, principal = decompose_unit(u)
    assert omega == from_integer(-1, 2, 6)
    assert principal.with_precision(10) == from_integer(5, 2, 10)
    u5 = from_integer(-9, 5, 6)  # -9 = 1 mod 5: torsion part is 1
    omega, principal = decompose_unit(u5)
    assert omega == from_integer(1, 5, 6)
    assert principal.with_precision(8) == from_integer(-9, 5, 8)


def test_decompose_errors():
    with pytest.raises(NotAUnit):
        decompose_unit(from_integer(10, 5, 4))
    with pytest.raises(NotAUnit):
        decompose_unit(from_integer(4, 2, 4))
    with pytest.raises(InsufficientPrecision):
        decompose_unit(PAdicInt(2, (1,)))


# ---------------------------------------------------------------------------
# depth


def test_depth_basic():
    assert depth(from_integer(1 + 5, 5, 8)).valuation == 1
    assert depth(from_integer(1 + 3 * 25, 5, 8)).valuation == 2
    assert depth(from_integer(1 + 2**4, 2, 10)).valuation == 4


def test_depth_of_one_is_infinite():
    d = depth(from_integer(1, 5, 8))
    assert d.valuation.is_infinite


def test_depth_truncated_ambiguity():
    # all visible digits of u - 1 vanish but u is not literally 1
    u = from_integer(1 + 5**6, 5, 6)
    d = depth(u)
    assert not d.valuation.is_exact
    assert not d.valuation.is_infinite
    assert d.valuation.amount == 6


def test_depth_strictness():
    u = from_integer(3, 5, 6)
    with pytest.raises(NotPrincipalUnit):
        depth(u)
    d = depth(u, strict=False)
    assert not d.in_log_domain
    assert d.valuation == 0
    u2 = from_integer(7, 2, 6)  # 3 mod 4
    with pytest.raises(NotPrincipalUnit):
        depth(u2)
    d2 = depth(u2, strict=False)
    assert not d2.in_log_domain
    assert d2.valuation == 1  # 7 - 1 = 6 has one factor of 2


def test_depth_base_two_domain():
    d = depth(from_integer(5, 2, 8))
    assert d.in_log_domain
    assert d.valuation == 2
    with pytest.raises(NotAUnit):
        depth(from_integer(6, 2, 8))
    with pytest.raises(InsufficientPrecision):
        depth(PAdicInt(2, (1,)))


def test_depth_is_the_principal_depth_helper():
    # reference: v(u - 1) read off the residue, which shares no code with
    # the helper's u^(p-1) and sign tests
    rng = random.Random(6)
    for p in (2, 3, 5, 7, 11):
        for _ in range(60):
            N = rng.randrange(2, 14)
            e = rng.randrange(2 if p == 2 else 1, N + 3)
            z = 1 + p**e * rng.randrange(-(10**6), 10**6)
            for u in (from_integer(z, p, N), PAdicInt._of(p, z, N)):
                want = (u - from_integer(1, p, N)).valuation()
                assert depth(u).valuation == want == _depth(u, p)
            if z != 1:
                # an int is exact
                v = max(k for k in range(80) if (z - 1) % p**k == 0)
                assert _depth(z, p) == ValuationBound.exact(v)
            # outside the log domain u - 1 is a unit, or twice one at p = 2
            w = z + (2 if p == 2 else rng.randrange(1, p - 1))
            d = depth(from_integer(w, p, N), strict=False)
            assert not d.in_log_domain
            assert d.valuation == ValuationBound.exact(1 if p == 2 else 0)
