"""Exponential and logarithm series against an exact rational oracle.

The oracle sums the literal series in fractions.Fraction and reduces the
(p-free) denominator away mod p^K; the package engine must match it term
budget for term budget, and the usual exp/log identities must hold on the
convergence regions.
"""

import math
import random
from fractions import Fraction

import pytest

from padlog import translog
from padlog.errors import (
    DomainError,
    InsufficientPrecision,
    InternalInvariantError,
    NotPrime,
    NotPrincipalUnit,
)
from padlog.padic import PAdicInt, ValuationBound, from_integer
from padlog.residue import _vp
from padlog.translog import padic_exp, padic_log, padic_pow

from oracles import factorial_valuation


def rational_mod(q, p, K):
    """A fraction with p-free denominator, as a residue mod p^K."""
    m = p**K
    assert q.denominator % p != 0
    return q.numerator * pow(q.denominator, -1, m) % m


def exp_oracle(X, p, K, terms=None):
    """Partial sums of sum X^n / n! in exact rational arithmetic."""
    if terms is None:
        terms = 6 * K + 10
    s = Fraction(0)
    for n in range(terms):
        s += Fraction(X) ** n / math.factorial(n)
    return rational_mod(s, p, K)


def log_oracle(X, p, K, terms=None):
    """Partial sums of sum -(-1)^n (X-1)^n / n in exact rationals."""
    if terms is None:
        terms = 6 * K + 10
    w = Fraction(X - 1)
    s = Fraction(0)
    for n in range(1, terms):
        s += (-1) ** (n + 1) * w**n / n
    return rational_mod(s, p, K)


def log_series(u, p, K):
    """The plain log series mod p^K, one term and one inverse at a time:
    the reference for the p^k-reduced kernel.  Needs u = 1 mod p (mod 4
    at p = 2)."""
    guard = K.bit_length()  # n <= K + guard < 2^(guard + 1): v_p(n) <= guard
    modulus = p ** (K + guard)
    w = (u - 1) % modulus
    if w % p**K == 0:
        return 0
    c = _vp(w, p)
    total, w_pow = 0, 1
    for n in range(1, (K + guard) // c + 1):  # later terms vanish mod p^K
        w_pow = w_pow * w % modulus
        e = _vp(n, p)
        term = w_pow // p**e * pow(n // p**e, -1, p**K)
        total += term if n % 2 else -term
    return total % p**K


def exp_series(x, p, K):
    """The plain exp series mod p^K, carrying n! as p^f times a unit.
    Needs v(x) >= 1 (>= 2 at p = 2)."""
    x %= p**K
    if x == 0:
        return 1
    v = _vp(x, p)
    # v_p(n!) <= n / (p - 1), so term n vanishes once n (v - 1/(p-1)) >= K
    n_stop = K * (p - 1) // (v * (p - 1) - 1) + 2
    modulus = p ** (K + factorial_valuation(n_stop, p))
    total, x_pow, f, unit_inv = 0, 1, 0, 1
    for n in range(n_stop):
        if n:
            x_pow = x_pow * x % modulus
            e = _vp(n, p)
            f += e
            unit_inv = unit_inv * pow(n // p**e, -1, p**K) % p**K
        total += x_pow // p**f * unit_inv
    return total % p**K


# ---------------------------------------------------------------------------
# factorial valuation


def test_factorial_valuation_small():
    def naive(n, p):
        count = 0
        for i in range(2, n + 1):
            while i % p == 0:
                i //= p
                count += 1
        return count

    for p in (2, 3, 5, 7):
        for n in range(0, 60):
            assert factorial_valuation(n, p) == naive(n, p)


# ---------------------------------------------------------------------------
# exp against the oracle


def test_exp_matches_oracle_odd_p():
    for p, K in ((3, 12), (5, 10), (7, 8)):
        for mult in (1, 2, p - 1, p + 3, 2 * p):
            X = mult * p
            got = padic_exp(from_integer(X, p, K))
            assert got.to_int() == exp_oracle(X, p, K), (p, X)


def test_exp_matches_oracle_base_two():
    for mult in (1, 3, 5, 9):
        X = 4 * mult
        got = padic_exp(from_integer(X, 2, 16))
        assert got.to_int() == exp_oracle(X, 2, 16)


def test_exp_deeper_inputs():
    got = padic_exp(from_integer(125, 5, 10))
    assert got.to_int() == exp_oracle(125, 5, 10)


def test_exp_of_zero():
    assert padic_exp(from_integer(0, 5, 8)) == from_integer(1, 5, 8)


def test_exp_zero_truncation_is_not_exact():
    # visible zero of unknown tail: the 1 we return must not claim exactness
    x = from_integer(5**6, 5, 6)  # all six digits are zero
    out = padic_exp(x)
    assert out.to_int() == 1
    with pytest.raises(InsufficientPrecision):
        out.with_precision(9)


def test_exp_domain_errors():
    with pytest.raises(DomainError):
        padic_exp(from_integer(3, 5, 8))  # a unit: v = 0
    with pytest.raises(DomainError):
        padic_exp(from_integer(2, 2, 8))  # v = 1 is not enough at p = 2


def test_exp_precision_cap():
    out = padic_exp(from_integer(5, 5, 12), precision=7)
    assert out.precision == 7
    assert out.to_int() == exp_oracle(5, 5, 7)


# ---------------------------------------------------------------------------
# log against the oracle


def test_log_matches_oracle_odd_p():
    for p, K in ((3, 12), (5, 10), (7, 8)):
        for mult in (1, 2, p + 1, 3 * p):
            u = 1 + mult * p
            got = padic_log(from_integer(u, p, K))
            assert got.to_int() == log_oracle(u, p, K), (p, u)


def test_log_matches_oracle_base_two():
    for u in (5, 9, 13, 17, 25):
        got = padic_log(from_integer(u, 2, 16))
        assert got.to_int() == log_oracle(u, 2, 16)


def test_log_of_one_exact():
    out = padic_log(from_integer(1, 5, 8))
    assert out == from_integer(0, 5, 8)
    assert out.valuation().is_infinite


def test_log_of_invisible_principal_part():
    u = from_integer(1 + 5**6, 5, 6)
    out = padic_log(u)
    assert out.to_int() == 0
    assert not out.valuation().is_infinite


def test_log_domain_errors():
    with pytest.raises(NotPrincipalUnit):
        padic_log(from_integer(2, 5, 8))
    with pytest.raises(NotPrincipalUnit):
        padic_log(from_integer(3, 2, 8))  # 3 mod 4: outside the region
    with pytest.raises(InsufficientPrecision):
        padic_log(PAdicInt(2, (1,)))


# ---------------------------------------------------------------------------
# the fast kernels against the plain series

KERNEL_PRIMES = (2, 3, 5, 7, 11, 101)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 17, 200, 1000])
@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernels_match_plain_series(p, K):
    rng = random.Random(p * 1009 + K)
    min_v = 2 if p == 2 else 1
    for depth in range(min_v, 5):
        unit = rng.randrange(1, p ** (K + 8))
        unit += unit % p == 0  # a unit: p does not divide it
        u, x = 1 + p**depth * unit, p**depth * unit
        want_log, want_exp = log_series(u, p, K), exp_series(x, p, K)
        # exact input at K digits, exact and truncated input carrying six
        # more digits than the precision asked for
        logs = [
            padic_log(from_integer(u, p, K + 6), precision=K),
            padic_log(PAdicInt._of(p, u, K + 6), precision=K),
        ]
        exps = [
            padic_exp(from_integer(x, p, K)),
            padic_exp(from_integer(x, p, K + 6), precision=K),
            padic_exp(PAdicInt._of(p, x, K + 6), precision=K),
        ]
        if not (p == 2 and K == 1):  # one digit cannot show u = 1 mod 4
            logs.append(padic_log(from_integer(u, p, K)))
        for got in logs:
            assert (got.residue, got.precision) == (want_log, K), (p, K, depth)
        for got in exps:
            assert (got.residue, got.precision) == (want_exp, K), (p, K, depth)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_exactly_zero_versus_zero_to_working_precision(p):
    K = 6
    one = padic_exp(from_integer(0, p, K))
    assert one.residue == 1 and one.with_precision(K + 3) == 1
    zero = padic_log(from_integer(1, p, K))
    assert zero.residue == 0 and zero.valuation().is_infinite
    # p^K and 1 + p^K are invisible at K digits, exact or not
    for x in (from_integer(p**K, p, K + 2), PAdicInt._of(p, p**K, K + 2)):
        out = padic_exp(x, precision=K)
        assert (out.residue, out.precision) == (1, K)
        with pytest.raises(InsufficientPrecision):
            out.with_precision(K + 1)
    for u in (from_integer(1 + p**K, p, K + 2), PAdicInt._of(p, 1 + p**K, K + 2)):
        out = padic_log(u, precision=K)
        assert (out.residue, out.precision) == (0, K)
        assert out.valuation() == ValuationBound.at_least(K)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_domain_errors(p):
    min_v = 2 if p == 2 else 1
    for x in (1, p ** (min_v - 1)):
        with pytest.raises(
            DomainError,
            match=r"^exp needs v\(x\) >= %d at p = %d; got %d$" % (min_v, p, _vp(x, p)),
        ):
            padic_exp(from_integer(x, p, 8))
    bad = 3 if p == 2 else 2
    with pytest.raises(
        NotPrincipalUnit,
        match="^log needs u = 1 mod %d; got residue %d$" % (p**min_v, bad),
    ):
        padic_log(from_integer(bad, p, 8))
    for kernel, arg in ((padic_exp, p**min_v), (padic_log, 1 + p**min_v)):
        with pytest.raises(InsufficientPrecision, match="at least one digit"):
            kernel(from_integer(arg, p, 8), precision=0)
    with pytest.raises(NotPrime):
        padic_log(from_integer(1 + 2 * p, 2 * p, 8))
    with pytest.raises(NotPrime):
        padic_exp(from_integer(2 * p, 2 * p, 8))


def _unit_at_depth(rng, p, c, K):
    """A principal unit u with v(u - 1) = c exactly, carrying K + 8 digits."""
    unit = rng.randrange(1, p ** (K + 8))
    unit += unit % p == 0
    return 1 + p**c * unit


@pytest.fixture
def series_shapes(monkeypatch):
    """Record the term count T of every series the log kernel sums, and
    (T, s) of every one it splits into blocks of s terms."""
    terms, blocks = set(), set()
    real_shape, real_blocks = translog._series_shape, translog._series_blocks

    def shape(p, K, c):
        out = real_shape(p, K, c)
        terms.add(out[1])
        return out

    def split(T):
        out = real_blocks(T)
        blocks.add((T, out[1]))
        return out

    monkeypatch.setattr(translog, "_series_shape", shape)
    monkeypatch.setattr(translog, "_series_blocks", split)
    return terms, blocks


def test_log_kernel_covers_every_block_shape(series_shapes):
    # every depth c from the least up to K - 1, at the smallest primes,
    # where T runs over every small value
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for K in range(1, 61):
            for c in range(2 if p == 2 else 1, K):
                u = _unit_at_depth(rng, p, c, K)
                assert translog._log_mod(u, p, K) == log_series(u, p, K), (p, K, c)
    terms, blocks = series_shapes
    assert 1 in terms  # the one-term series, w itself
    # T a perfect square, T below s^2, and a top block of one coefficient
    # (T one more than a multiple of s) or of a full run of s
    assert any(T == s * s and s > 1 for T, s in blocks)
    assert any(T < s * s for T, s in blocks)
    assert any(T % s == 1 and s > 1 for T, s in blocks)
    assert any(T % s == 0 and T != s * s for T, s in blocks)


@pytest.mark.parametrize("K", [1, 12, 13, 200, 1000])
@pytest.mark.parametrize("p", KERNEL_PRIMES + (10007,))
def test_log_kernel_matches_plain_series_over_depths(p, K):
    rng = random.Random(p * 7919 + K)
    least = 2 if p == 2 else 1
    if K <= 13:
        depths = range(least, K)  # every depth up to K - 1
    else:
        depths = (least, least + 1, least + 3, K // 2, K - 1)
    for c in depths:
        u = _unit_at_depth(rng, p, c, K)
        assert translog._log_mod(u, p, K) == log_series(u, p, K), (p, K, c)
    # at depth K and beyond, u - 1 and log u vanish mod p^K
    assert translog._log_mod(1 + p ** max(K, least) * 3, p, K) == 0


def _log_mod_uncached(u, p, K, monkeypatch):
    """The log kernel with the series' inverse taken by pow at every call,
    as before the shape cache held it."""
    real = translog._series_shape.__wrapped__

    with monkeypatch.context() as m:
        def shape(p, K, c):
            k, T, e, _ = real(p, K, c)
            return k, T, e, pow(math.lcm(*range(1, T + 1)) // p**e, -1, p ** (K + k))

        m.setattr(translog, "_series_shape", shape)
        return translog._log_mod(u, p, K)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 101, 10007))
def test_cached_series_inverse_gives_the_uncached_log(p, monkeypatch):
    # every depth at small K, a spread of depths up to K = 1000; two units
    # per shape, so the second reads the cached inverse
    rng = random.Random(p + 41)
    least = 2 if p == 2 else 1
    cases = [(K, c) for K in range(1, 25) for c in range(least, K)]
    for K in (50, 101, 200, 201, 499, 1000):
        cases += [(K, c) for c in (least, least + 1, least + 4, K // 3, K - 1)]
    for K, c in cases:
        for _ in range(2):
            u = _unit_at_depth(rng, p, c, K)
            want = _log_mod_uncached(u, p, K, monkeypatch)
            assert translog._log_mod(u, p, K) == want, (p, K, c)
        k, T, e, scale = translog._series_shape(p, K, c)
        if T > 1:
            assert scale * (math.lcm(*range(1, T + 1)) // p**e) % p ** (K + k) == 1


# ---------------------------------------------------------------------------
# the table that deepens log arguments


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table cache, restored afterwards."""
    monkeypatch.setattr(translog, "_TABLES", {})
    return translog._TABLES


def _falling_then_rising(precisions):
    return sorted(precisions, reverse=True) + sorted(precisions)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_table_log_matches_plain_series_at_every_small_depth(
    p, fresh_tables, monkeypatch
):
    # the table at every small K (its domain widened to take them), every
    # depth; precisions fall, then rise, so one table serves them all
    monkeypatch.setattr(translog, "TABLE_DOMAIN", ((p,), range(1, 65)))
    rng = random.Random(p + 77)
    least = 2 if p == 2 else 1
    cases = {
        K: [_unit_at_depth(rng, p, c, K) for c in range(least, K + 2)]
        for K in range(1, 25)
    }
    want = {K: [log_series(u, p, K) for u in units] for K, units in cases.items()}
    for K in _falling_then_rising(cases):
        got = [translog._log_mod(u, p, K) for u in cases[K]]
        assert got == want[K], (p, K)
    assert [L for L, _ in fresh_tables.values()] == [64]  # built once, at K = 24


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_table_log_matches_plain_series_at_large_precision(
    p, fresh_tables, monkeypatch
):
    # the table's own domain (2 keeps the power path); a table built at
    # K = 1000 serves K = 200, and every series it leaves starts at depth J
    series_depths = []
    real_series = translog._log_series

    def series(u, p, K, c):
        series_depths.append((K, c))
        return real_series(u, p, K, c)

    monkeypatch.setattr(translog, "_log_series", series)
    rng = random.Random(p + 78)
    least = 2 if p == 2 else 1
    cases = {}
    for K in (200, 1000):
        depths = (least, least + 1, least + 3, K // 2, K - 1)
        units = [_unit_at_depth(rng, p, c, K) for c in depths]
        cases[K] = [(u, log_series(u, p, K)) for u in units]
    for K in _falling_then_rising(cases):
        for u, want in cases[K]:
            assert translog._log_mod(u, p, K) == want, (p, K, _vp(u - 1, p))
    primes, _ = translog.TABLE_DOMAIN
    built = {q: L for q, (L, _) in fresh_tables.items()}
    assert built == ({p: 1024} if p in primes else {})
    if p in primes:
        calls = [(K, c) for K, c in series_depths if K in cases]
        assert len(calls) == 20
        assert all(c >= translog._table_depth(p, K) for K, c in calls)


def test_no_table_outgrows_its_bound(fresh_tables):
    # five-digit and three-digit primes never build one, and no table
    # holds more than the stated J <= 21 entries or 1024 digits
    rng = random.Random(79)
    for p, K in ((10007, 1000), (101, 1000), (10007, 13), (7, 1000), (7, 1024),
                 (3, 5000)):
        translog._log_mod(_unit_at_depth(rng, p, 1, K), p, K)
    primes, digits = translog.TABLE_DOMAIN
    assert set(fresh_tables) == {7} and len(fresh_tables) <= len(primes)
    for L, logs in fresh_tables.values():
        assert L <= digits[-1]
        assert len(logs) <= translog._table_depth(7, digits[-1]) == 21


def test_exp_builds_one_table_for_all_its_newton_steps(fresh_tables, monkeypatch):
    # the steps at K = 128, 256 and 512 read the table built at 1000 digits
    builds = []
    real_series = translog._log_series

    def series(u, p, K, c):
        if u == p**K + 1 - p**c:  # a table entry, log(1 - p^c)
            builds.append(K)
        return real_series(u, p, K, c)

    monkeypatch.setattr(translog, "_log_series", series)
    x = from_integer(7 * 12345, 7, 1000)
    y = padic_exp(x)
    assert builds == [1024] * (translog._table_depth(7, 1024) - 1)
    assert padic_log(y) == x


@pytest.mark.parametrize("p", (2, 3, 5, 7, 101))
def test_exp_and_log_round_trip_at_a_thousand_digits(p):
    # padic_exp's certificate reruns the log kernel at the full precision
    rng = random.Random(p)
    K = 1000
    least = 2 if p == 2 else 1
    for c in (least, least + 2):
        u = _unit_at_depth(rng, p, c, K)
        x = padic_log(from_integer(u, p, K))
        assert x.valuation() == c
        assert padic_exp(x) == from_integer(u, p, K)


def test_log_kernel_refuses_a_unit_that_is_not_principal():
    # 3 mod 4 squares to 1 mod 8: only the entry check stops a wrong log
    for u, p in ((2, 5), (3, 2), (7, 2)):
        with pytest.raises(InternalInvariantError):
            translog._log_mod(u, p, 100)


def test_exp_refuses_a_result_that_fails_its_certificate(monkeypatch):
    # spoil the top digit of the log in the last Newton step only; the
    # certificate recomputes log y at full precision and must catch it
    p, K = 5, 40
    real = translog._log_mod
    calls = []

    def spoiled(u, p, m):
        calls.append(m)
        out = real(u, p, m)
        if calls.count(K) == 1 and m == K:  # the last step, not the check
            out = (out + p ** (K - 1)) % p**K
        return out

    monkeypatch.setattr(translog, "_log_mod", spoiled)
    with pytest.raises(InternalInvariantError, match="certificate"):
        padic_exp(from_integer(10, p, K))
    assert calls.count(K) == 2


# ---------------------------------------------------------------------------
# identities


def test_log_exp_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([3, 5, 7, 2])
        K = rng.randrange(4, 12)
        min_v = 2 if p == 2 else 1
        v = rng.randrange(min_v, 4)
        unit = rng.randrange(1, p**3)
        if unit % p == 0:
            continue
        x = from_integer(p**v * unit, p, K)
        assert padic_log(padic_exp(x)) == x
        u = from_integer(1 + p**v * unit, p, K)
        assert padic_exp(padic_log(u)) == u


def test_log_is_homomorphism():
    p, K = 5, 10
    for a in (6, 11, 26, 51):
        for b in (6, 16, 21):
            u, v = from_integer(a, p, K), from_integer(b, p, K)
            assert padic_log(u * v) == padic_log(u) + padic_log(v)


def test_exp_adds_to_multiplication():
    p, K = 3, 10
    for a in (3, 6, 9):
        for b in (3, 12):
            x, y = from_integer(a, p, K), from_integer(b, p, K)
            assert padic_exp(x + y) == padic_exp(x) * padic_exp(y)


def test_levels_are_preserved():
    # v(exp(x) - 1) = v(x) and v(log(u)) = v(u - 1)
    for p in (3, 5, 2):
        min_v = 2 if p == 2 else 1
        for v in range(min_v, 5):
            x = from_integer(p**v * (p + 1), p, 10)
            e = padic_exp(x)
            assert (e - from_integer(1, p, 10)).valuation() == v
            u = from_integer(1 + p**v, p, 10)
            assert padic_log(u).valuation() == v


# ---------------------------------------------------------------------------
# powers


def test_padic_pow_matches_integer_power():
    p, K = 3, 12
    a = from_integer(4, p, K)
    assert padic_pow(a, 3) == from_integer(64, p, K)
    for e in (0, 1, 2, 5, 10):
        assert padic_pow(a, e) == from_integer(4**e, p, K)


def test_padic_pow_padic_exponent():
    p, K = 5, 8
    a = from_integer(6, p, K)
    x = from_integer(7, p, K)
    assert padic_pow(a, x) == from_integer(6**7, p, K)


def test_padic_pow_negative_like_exponent():
    # exponent -1 as a p-adic integer inverts the unit
    p, K = 7, 8
    a = from_integer(8, p, K)
    x = from_integer(-1, p, K)
    assert padic_pow(a, x) == a.invert_unit()
