"""The discrete-log solvers, cross-checked against enumeration and each other.

brute_dlog (pure enumeration) anchors every method at small moduli; the two
production methods (level lifting and log division) must agree with it and
with each other wherever they overlap, and the worked traces pin exact
values at scale.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import solver
from padlog.errors import (
    AIsOne,
    BaseMismatch,
    InsufficientPrecision,
    NotAUnit,
    NotPrincipalUnit,
    PadlogError,
    UnsolvableError,
    ZeroInput,
)
from padlog.padic import PAdicInt, ValuationBound, from_integer
from padlog.residue import brute_dlog, order_mod
from padlog.solver import (
    _depth_comparison_verdict,
    _exponent_is_unit,
    _limit_trace,
    check_existence,
    convergence_certificate,
    solution_is_unit,
    solve_by_lifting,
    solve_log_ratio,
    solve_units,
)
from padlog.teichmuller import _depth

from oracles import climb_oracle, subgroup_contains


@pytest.fixture
def newton_inverses(monkeypatch):
    """Record (p, k) of every inverse the solver takes through
    residue._inverse_mod."""
    calls = []
    real = solver._inverse_mod

    def counting(u, p, k):
        calls.append((p, k))
        return real(u, p, k)

    monkeypatch.setattr(solver, "_inverse_mod", counting)
    return calls


# ---------------------------------------------------------------------------
# solve_by_lifting: worked traces


def test_lifting_trace_minus3_5_base2():
    trace = solve_by_lifting(-3, 5, 2, 10)
    assert trace.verdict == "solvable"
    assert [r.x_n for r in trace.rows] == [1, 1, 1, 3, 3, 11, 11, 11, 11, 11]
    assert trace.x == 11


def test_lifting_trace_minus2_3_base5():
    trace = solve_by_lifting(-2, 3, 5, 10)
    assert trace.verdict == "solvable"
    assert [r.x_n for r in trace.rows] == [
        1, 17, 57, 357, 1857, 1857, 14357, 201857, 1139357, 5826857,
    ]
    # level 6 cross-check: 1857 is the unique solution in [1, ord] there,
    # and it stops working one level up (so the next row jumps)
    assert pow(-2, 1857, 5**6) == 3 % 5**6
    assert pow(-2, 1857, 5**7) != 3 % 5**7


def test_lifting_trace_9_25_base2():
    trace = solve_by_lifting(9, 25, 2, 20)
    assert trace.verdict == "solvable"
    assert [r.x_n for r in trace.rows[4:]] == [
        3, 3, 11, 11, 11, 11, 11, 267, 267, 1291, 3339, 7435,
        15627, 15627, 15627, 15627,
    ]


def test_lifting_trace_minus4_6_base5():
    trace = solve_by_lifting(-4, 6, 5, 10)
    assert trace.verdict == "solvable"
    assert [r.x_n for r in trace.rows] == [
        1, 4, 4, 54, 304, 929, 7179, 22804, 179054, 960304,
    ]


def test_lifting_agrees_with_brute_everywhere_small():
    rng = random.Random(23)
    for _ in range(80):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        m = p**n
        a = rng.randrange(1, m)
        b = rng.randrange(1, m)
        if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
            continue
        want = brute_dlog(a, b, p, n)
        trace = solve_by_lifting(a, b, p, n)
        if want is None:
            assert trace.verdict == "unsolvable"
            assert trace.failing_level <= n
        else:
            assert trace.verdict == "solvable"
            assert trace.rows[-1].x_n == want


def test_lifting_each_level_is_smallest():
    trace = solve_by_lifting(-2, 3, 5, 6)
    for row in trace.rows:
        m = 5**row.n
        x = row.x_n
        assert pow(-2, x, m) == 3 % m
        assert 1 <= x <= row.order
        # nothing smaller works at this level
        assert all(pow(-2, y, m) != 3 % m for y in range(1, min(x, 400)))


def _seeded_pairs(p, count, seed):
    rng = random.Random(seed)
    m = p**3
    pairs = []
    while len(pairs) < count:
        a, b = rng.randrange(2, m), rng.randrange(1, m)
        if a % p and b % p:
            # one pair with b a power of a mod p, so the climb goes on
            pairs += [(a, b), (a, pow(a, rng.randrange(1, m), m))]
    return pairs


@pytest.mark.parametrize(
    "p, levels", [(2, 13), (3, 8), (5, 8), (7, 8), (10007, 3), (65537, 3)]
)
def test_lifting_rows_follow_the_order_law(p, levels):
    # only level 1 computes an order from scratch; every higher row takes
    # ord_(n-1) or p * ord_(n-1), so each row is pinned against order_mod
    if p > 7:
        # 10006 = 2 * 5003 and 65536 = 2^16: the level-1 log runs
        # baby-step giant-step in a large prime and the Pohlig-Hellman
        # prime-power loop
        pairs = _seeded_pairs(p, 12, p)
    else:
        box = [c for c in range(-30, 31) if c % p]
        pairs = [(a, b) for a in box for b in box]
    for a, b in pairs:
        trace = solve_by_lifting(a, b, p, levels)
        for row in trace.rows:
            m = p**row.n
            assert row.order == order_mod(a, m), (a, b, row)
            # digit_count = v_p(order)
            assert row.order % p**row.digit_count == 0, (a, b, row)
            assert row.order % p ** (row.digit_count + 1) != 0, (a, b, row)
            # solutions form x_n + order * Z, so the one in [1, order]
            # is the smallest positive solution
            assert 1 <= row.x_n <= row.order, (a, b, row)
            assert pow(a, row.x_n, m) == b % m, (a, b, row)


def test_lifting_unsolvable_level_recorded():
    # 3 generates half the units mod 32; 5 sits outside from level 3 up
    trace = solve_by_lifting(3, 5, 2, 5)
    assert trace.verdict == "unsolvable"
    assert trace.failing_level == 3
    assert brute_dlog(3, 5, 2, 2) == 2  # level 2 was fine (3^2 = 9 == 5 mod 4)


def test_lifting_digit_extraction():
    trace = solve_by_lifting(9, 25, 2, 17)
    # order of 9 mod 2^17 is 2^14: fourteen digits of the limit are pinned
    assert trace.rows[-1].digit_count == 14
    assert trace.digits == (1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1)
    assert trace.rows[-1].x_n == 15627


def test_lifting_rejects_bad_input():
    with pytest.raises(ZeroInput):
        solve_by_lifting(0, 5, 2, 4)
    with pytest.raises(NotAUnit):
        solve_by_lifting(10, 3, 5, 4)
    with pytest.raises(NotAUnit):
        solve_by_lifting(3, 10, 5, 4)


def test_convergence_certificate():
    trace = solve_by_lifting(-2, 3, 5, 10)
    cert = convergence_certificate(trace)
    assert [n for n, _ in cert] == list(range(1, 11))
    counts = [d for _, d in cert]
    assert counts == sorted(counts)
    trace2 = solve_by_lifting(9, 25, 2, 20)
    convergence_certificate(trace2)


# ---------------------------------------------------------------------------
# solve_by_lifting against the climb oracle: one inverse per call


def _same_as_the_oracle(a, b, p, n_max):
    trace = solve_by_lifting(a, b, p, n_max)
    want = climb_oracle(a, b, p, n_max)
    assert repr(trace) == repr(want), (a, b, p, n_max)
    assert hash(trace) == hash(want), (a, b, p, n_max)
    return trace


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 3), (7, 2)])
def test_lifting_equals_the_climb_oracle_on_every_unit_pair(p, n):
    units = [c for c in range(1, p**n) if c % p]
    for a in units:
        for b in units:
            assert repr(solve_by_lifting(a, b, p, n)) == repr(
                climb_oracle(a, b, p, n)
            ), (a, b)


@pytest.mark.parametrize("p, n", [(101, 3), (10007, 2)])
def test_lifting_equals_the_climb_oracle_on_random_pairs(p, n):
    rng = random.Random(p)
    m = p**n
    for _ in range(150):
        a = rng.randrange(-m, m) or 1
        if a % p == 0:
            a += 1
        for b in (rng.randrange(1, m), pow(a, rng.randrange(1, m), m)):
            if b % p:
                _same_as_the_oracle(a, b, p, n)


def _rows_are_the_smallest_solutions(trace, a, b, p):
    """Each row against order_mod and a^x_n = b; a failing level against
    subgroup membership."""
    for row in trace.rows:
        m = p**row.n
        assert row.order == order_mod(a, m), (a, b, row)
        assert 1 <= row.x_n <= row.order, (a, b, row)
        assert pow(a, row.x_n, m) == b % m, (a, b, row)
    if trace.failing_level is not None:
        assert not subgroup_contains(a, b, p, trace.failing_level), (a, b)


def _teichmuller(c, p, n):
    """The root of unity = c mod p, mod p^n."""
    return pow(c, p ** (n - 1), p**n)


@pytest.mark.parametrize(
    "a, p",
    [
        (1 + 2 * 3**5, 3),  # depth 5: the order first grows at level 6
        (-(1 + 3**6), 3),  # a torsion sign on top of depth 6
        (_teichmuller(2, 5, 12) * (1 + 3 * 5**5) % 5**12, 5),  # order 4 mod 5
        (_teichmuller(3, 7, 9) * (1 + 7**5) % 7**9, 7),
    ],
)
def test_lifting_a_deep_base_at_odd_p(a, p):
    n_max = 9
    m = p**n_max
    first_growth = _depth(a, p).amount + 1
    for b in (
        pow(a, 1234567, m),
        pow(a, 98765, m) * (1 + p**first_growth),  # one digit too shallow
        pow(a, 7, m) * (1 + p ** (first_growth - 2)),  # fails below growth
    ):
        trace = _same_as_the_oracle(a, b, p, n_max)
        _rows_are_the_smallest_solutions(trace, a, b, p)
    trace = solve_by_lifting(a, pow(a, 1234567, m), p, n_max)
    assert [r.digit_count for r in trace.rows] == [
        max(0, n - first_growth + 1) for n in range(1, n_max + 1)
    ]


@pytest.mark.parametrize("a", [3, 7, -17, 4095, -1 - 2**7])
def test_lifting_at_p2_with_a_three_mod_four(a):
    # the sign grows the order at level 2; the order then stays up to
    # depth(a^2), so the reused inverse must survive the stays in between
    assert a % 4 == 3
    for b in (pow(a, 12345, 2**13), pow(a, 4321, 2**13), 3, 5, -5, 2**13 - 1):
        trace = _same_as_the_oracle(a, b, 2, 13)
        _rows_are_the_smallest_solutions(trace, a, b, 2)


@pytest.mark.parametrize("a", [9, -7, 17, 1 + 3 * 2**6])
def test_lifting_at_p2_with_a_one_mod_four_and_deep(a):
    assert a % 4 == 1 and _depth(a, 2).amount >= 3
    for b in (pow(a, 12345, 2**13), pow(a, 77, 2**13) * 5, -pow(a, 3, 2**13)):
        trace = _same_as_the_oracle(a, b, 2, 13)
        _rows_are_the_smallest_solutions(trace, a, b, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_lifting_minus_one_never_grows_past_its_sign(p):
    for b in (-1, 1, p**4 - 1, p**2 + 1):
        trace = _same_as_the_oracle(-1, b, p, 6)
        _rows_are_the_smallest_solutions(trace, -1, b, p)
        assert {r.order for r in trace.rows[1:]} <= {2}
    assert solve_by_lifting(-1, p**4 - 1, p, 6).failing_level == 5
    assert solve_by_lifting(-1, p**2 + 1, p, 6).failing_level == 3


@pytest.mark.parametrize(
    "a, b, p, level",
    [
        (10, 4, 3, 2),  # the order stays at level 2 and x_1 fails it
        (1 + 2 * 3**5, 1 + 3**2, 3, 3),
        (-17, 3, 2, 3),  # after the sign grew the order at level 2
        (7, pow(7, 5, 2**13) * 9, 2, 4),  # after a growth and a stay
        (_teichmuller(2, 5, 9) * (1 + 5**3), _teichmuller(3, 5, 9) * 26, 5, 3),
    ],
)
def test_lifting_a_pair_that_fails_above_level_one(a, b, p, level):
    trace = _same_as_the_oracle(a, b, p, 9)
    assert (trace.verdict, trace.failing_level) == ("unsolvable", level)
    assert len(trace.rows) == level - 1
    _rows_are_the_smallest_solutions(trace, a, b, p)


def test_traces_and_verdicts_are_named_tuples():
    trace = solve_by_lifting(-2, 3, 5, 3)
    assert trace == (-2, 3, 5, trace.rows, "solvable", None, trace.digits)
    assert repr(trace) == (
        "LiftingTrace(a=-2, b=3, p=5, rows=(LiftingRow(n=1, x_n=1, order=4, "
        "digit_count=0), LiftingRow(n=2, x_n=17, order=20, digit_count=1), "
        "LiftingRow(n=3, x_n=57, order=100, digit_count=2)), "
        "verdict='solvable', failing_level=None, digits=(2, 1))"
    )
    assert hash(trace) == hash(tuple(trace)) and trace.x == 57
    failed = solve_by_lifting(4, 2, 5, 3)
    assert failed == (4, 2, 5, (), "unsolvable", 1, ()) and failed.x is None
    verdict = check_existence(2, 3, 5)
    assert verdict == ("solvable", "depth(a) = 1 <= depth(b) = 1", None)
    assert repr(verdict) == (
        "ExistenceVerdict(verdict='solvable', reason='depth(a) = 1 <= depth(b) "
        "= 1', failing_level=None)"
    )


# ---------------------------------------------------------------------------
# _limit_trace: the lift route read from the units limit


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_limit_trace_equals_the_climb_on_the_unit_box(p):
    # rows, digits, verdict and failing level, at every level count
    box = [c for c in range(-40, 41) if c % p]
    for a in box:
        for b in box:
            for n_max in range(1, 11):
                want = solve_by_lifting(a, b, p, n_max)
                assert _limit_trace(a, b, p, n_max) == want, (a, b, p, n_max)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_limit_trace_equals_the_climb_at_200_levels(p):
    rng = random.Random(p)

    def unit():
        c = rng.randrange(-10**6, 10**6)
        return c if c % p else c + 1

    for i in range(6):
        depth = rng.randrange(1, 6)
        a = unit() if i % 2 else 1 + p**depth * unit()  # every other base deep
        for b in (
            pow(a, rng.randrange(1, 10**9), p**210),  # solvable unless truncated
            -pow(a, rng.randrange(1, 10**9), p**210),  # sign flipped
            unit(),  # unsolvable, mostly
            pow(1 + p**depth, rng.randrange(1, 10**9), p**210),  # a deeper target
        ):
            if b % p:
                want = solve_by_lifting(a, b, p, 200)
                assert _limit_trace(a, b, p, 200) == want, (a, b, p)


def test_limit_trace_equals_the_climb_on_a_deep_base():
    # depth(a) = 300: no digit is pinned below level 301
    a = 1 + 3**300
    b = pow(a, 7, 3**400)
    trace = _limit_trace(a, b, 3, 303)
    assert trace == solve_by_lifting(a, b, 3, 303)
    assert trace.rows[299].digit_count == 0
    assert trace.digits == (1, 2, 0)


def test_limit_trace_climbs_an_unsolvable_pair_to_its_failing_level():
    # -1 never reaches 17 = 1 + 2^4: the climb fails at level 5, above the
    # 3 levels asked for, and below it only the torsion residue shows
    assert _limit_trace(-1, 17, 2, 3) == solve_by_lifting(-1, 17, 2, 3)
    trace = _limit_trace(-1, 17, 2, 8)
    assert trace == solve_by_lifting(-1, 17, 2, 8)
    assert (trace.verdict, trace.failing_level) == ("unsolvable", 5)
    assert trace.rows == ((1, 1, 1, 0), (2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1))


# ---------------------------------------------------------------------------
# solve_log_ratio


def test_log_ratio_9_25_base2():
    got = solve_log_ratio(9, 25, 2, 14)
    assert got.x.to_int() == 15627
    assert got.depth_a == 3
    assert got.precision_loss == 3


def test_log_ratio_matches_lifting_digits():
    # both methods describe the same p-adic exponent
    for a, b, p in ((6, 26, 5), (4, 16, 3), (9, 17, 2), (8, 22, 7)):
        if b != pow(a, 2):
            pass
        trace = solve_by_lifting(a, b, p, 12)
        if trace.verdict != "solvable":
            continue
        pinned = trace.rows[-1].digit_count
        ratio = solve_log_ratio(a, b, p, 8)
        k = min(pinned, 8)
        assert ratio.x.to_int() % p**k == trace.rows[-1].x_n % p**k, (a, b, p)


def test_log_ratio_integer_relations():
    p, N = 5, 10
    got = solve_log_ratio(6, pow(6, 7, 5**40), p, N)
    assert got.x.to_int() == 7
    got = solve_log_ratio(6, 6**3, p, N)
    assert got.x == from_integer(3, p, N)


def test_log_ratio_b_is_one():
    got = solve_log_ratio(6, 1, 5, 8)
    assert got.x == from_integer(0, 5, 8)
    assert got.x.valuation().is_infinite


def test_log_ratio_depth_violation():
    with pytest.raises(UnsolvableError) as info:
        solve_log_ratio(26, 6, 5, 8)  # depth 2 cannot reach depth 1
    assert info.value.failing_level == 2


def test_log_ratio_non_integral_catch_base2():
    with pytest.raises(UnsolvableError):
        solve_log_ratio(25, 5, 2, 10)  # wait: 5 has depth 2, 25 has depth 3


def test_log_ratio_a_one():
    with pytest.raises(AIsOne):
        solve_log_ratio(1, 6, 5, 8)


def test_log_ratio_truncated_a_depth_invisible():
    a = PAdicInt(5, (1, 0, 0))  # could be 1, could be 1 + 125 u
    # depth(b) = 4 lies inside the depths a allows, so nothing decides
    with pytest.raises(InsufficientPrecision, match="depth is invisible"):
        solve_log_ratio(a, from_integer(1 + 2 * 5**4, 5, 3), 5, 3)


def test_log_ratio_reads_the_depth_comparison_before_refusing_an_invisible_depth():
    # depth(a) >= 8 already tops depth(b) = 1: every route says unsolvable
    # at level 2, the log route included
    a, b, p = PAdicInt.from_integer(1 + 5**9, 5, 8), 6, 5
    want = ("depth(a) >= 8 > depth(b) = 1", 2)
    assert tuple(check_existence(a, b, p))[1:] == want
    for route in (solve_units, solve_log_ratio):
        with pytest.raises(UnsolvableError) as info:
            route(a, b, p, 3)
        assert (str(info.value), info.value.failing_level) == want
    # the old case: depth(a) >= 3 > depth(6) = 1 decides too
    a = PAdicInt(5, (1, 0, 0))
    with pytest.raises(UnsolvableError, match=r"^depth\(a\) >= 3 > depth\(b\) = 1$"):
        solve_log_ratio(a, from_integer(6, 5, 3), 5, 3)
    # a b outside the log's domain is refused first, as with a visible depth
    for a in (a, 26):
        with pytest.raises(NotPrincipalUnit):
            solve_log_ratio(a, 7, 5, 3)


def test_log_ratio_result_precision():
    got = solve_log_ratio(26, 26**9, 5, 6)
    assert got.x.precision == 6
    assert got.x.to_int() == 9


# ---------------------------------------------------------------------------
# check_existence


def test_existence_residue_obstruction():
    # 2 is not a power of 4 mod 5 (powers of 4 are 4, 1)
    v = check_existence(4, 2, 5)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 1


def test_existence_depth_obstruction():
    v = check_existence(26, 6, 5)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 2
    v = check_existence(6, 26, 5)
    assert v.verdict == "solvable"


def test_existence_equal_depths():
    assert check_existence(6, 11, 5).verdict == "solvable"
    assert check_existence(7, 13, 3).verdict == "solvable"


def test_existence_sign_obstruction_base2():
    v = check_existence(5, 7, 2)  # 5 = 1 mod 4, 7 = 3 mod 4
    assert v.verdict == "unsolvable"
    assert v.failing_level == 2


def test_existence_base2_plain():
    assert check_existence(5, 25, 2).verdict == "solvable"
    assert check_existence(9, 25, 2).verdict == "solvable"
    v = check_existence(9, 5, 2)  # depth 3 cannot reach depth 2
    assert v.verdict == "unsolvable"
    assert v.failing_level == 3


def test_existence_base2_sign_couplings():
    # -5 has sign -1; equal depths make the exponent odd: solvable
    assert check_existence(-5, -5, 2).verdict == "solvable"
    assert check_existence(-5, -13, 2).verdict == "solvable"
    # strict depth gap with negative b: the gap forces an even exponent, the
    # sign of b an odd one, so the parity clash makes this unsolvable
    v = check_existence(-5, -25, 2)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 3
    # negative a to positive b with a strict gap: even exponent, fine
    assert check_existence(-5, 25, 2).verdict == "solvable"
    # negative a to positive b with equal depths: would need an odd exponent
    # on the principal side and an even one on the sign side
    v = check_existence(-5, 5, 2)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 3


def test_existence_undetermined_by_truncation():
    a = PAdicInt(5, (1, 0, 0, 0))  # visibly 1 but not exactly
    b = from_integer(6, 5, 4)
    # every completion of a has depth >= 4 > 1 = depth(6): decided anyway
    v = check_existence(a, b, 5)
    assert (v.verdict, v.failing_level) == ("unsolvable", 2)
    # reversed: b hides its depth beyond precision while a is shallow: fine
    v = check_existence(b, PAdicInt(5, (1, 0, 0, 0)), 5)
    assert v.verdict == "solvable"


def test_existence_pure_torsion():
    assert check_existence(-1, 1, 5).verdict == "solvable"
    assert check_existence(-1, -1, 7).verdict == "solvable"
    v = check_existence(-1, -6, 5)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 2


def test_existence_soundness_small_scale():
    # the desk test must never contradict exhaustive search
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(2, 5)
        m = p**n
        a = rng.randrange(2, m)
        b = rng.randrange(1, m)
        if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
            continue
        v = check_existence(a, b, p, precision=n + 8)
        truth = brute_dlog(a, b, p, n) is not None
        if v.verdict == "solvable":
            assert truth, (a, b, p, n)
        elif v.verdict == "unsolvable":
            if v.failing_level <= n:
                assert not truth, (a, b, p, n)
        checked += 1
    assert checked > 100


def test_existence_unsolvable_level_is_sharp():
    # below the failing level the congruence should still be solvable
    for a, b, p in ((26, 6, 5), (9, 5, 2), (-1, -6, 5)):
        v = check_existence(a, b, p)
        assert v.verdict == "unsolvable"
        lvl = v.failing_level
        assert brute_dlog(a, b, p, lvl) is None
        if lvl > 1:
            assert brute_dlog(a, b, p, lvl - 1) is not None


def test_existence_nonunit_classifier():
    with pytest.raises(NotAUnit) as info:
        check_existence(10, 3, 5)
    assert "v(a)" in str(info.value)
    with pytest.raises(NotAUnit):
        check_existence(3, 10, 5)
    with pytest.raises(ZeroInput):
        check_existence(0, 3, 5)


# ---------------------------------------------------------------------------
# the depth comparison on hand-built bounds

INF = ValuationBound.infinite()
EX = ValuationBound.exact
AL = ValuationBound.at_least
TOPS = "depth(b) exceeds working precision, which already tops depth(a)"
A_HIDDEN = "depth(a) is hidden beyond working precision"

# (depth(a), depth(b), verdict, reason, failing level): all nine pairs of
# bound kinds, on both sides of every comparison between their amounts
DEPTH_TABLE = [
    (INF, INF, "solvable", "both principal parts are trivial; torsion alone decides", None),
    (INF, EX(3), "unsolvable", "a has trivial principal part but b does not", 4),
    (INF, AL(5), "undetermined", "b's principal part vanishes to working precision only", None),
    (EX(2), INF, "solvable", "b's principal part is exactly trivial", None),
    (EX(2), EX(2), "solvable", "depth(a) = 2 <= depth(b) = 2", None),
    (EX(2), EX(5), "solvable", "depth(a) = 2 <= depth(b) = 5", None),
    (EX(3), EX(2), "unsolvable", "depth(a) = 3 > depth(b) = 2", 3),
    (EX(3), AL(3), "solvable", TOPS, None),
    (EX(3), AL(6), "solvable", TOPS, None),
    (EX(4), AL(3), "undetermined", "depth(b) is hidden beyond working precision", None),
    (AL(3), INF, "solvable", "b's principal part is exactly trivial", None),
    (AL(3), EX(2), "unsolvable", "depth(a) >= 3 > depth(b) = 2", 3),
    (AL(3), EX(3), "undetermined", A_HIDDEN, None),
    (AL(3), EX(7), "undetermined", A_HIDDEN, None),
    (AL(3), AL(1), "undetermined", A_HIDDEN, None),
    (AL(3), AL(3), "undetermined", A_HIDDEN, None),
    (AL(3), AL(8), "undetermined", A_HIDDEN, None),
]


@pytest.mark.parametrize("da, db, verdict, reason, level", DEPTH_TABLE)
def test_depth_comparison_table(da, db, verdict, reason, level):
    v = _depth_comparison_verdict(da, db)
    assert (v.verdict, v.reason, v.failing_level) == (verdict, reason, level)


def test_exponent_is_unit_on_solvable_depths():
    # v_p(x) = depth(b) - depth(a), asked only once depth(a) <= depth(b)
    for da, db, want in (
        (INF, INF, True),
        (EX(2), EX(2), True),
        (EX(2), EX(5), False),
        (EX(2), INF, False),
        (EX(3), AL(3), None),
        (EX(3), AL(6), False),
        (AL(3), INF, None),
    ):
        assert _depth_comparison_verdict(da, db).verdict == "solvable"
        assert _exponent_is_unit(da, db) is want, (da, db)


# ---------------------------------------------------------------------------
# solve_units


def test_solve_units_odd_p_basic():
    sol = solve_units(2, 8, 5, precision=8)
    assert sol.verdict == "solvable"
    assert pow(2, sol.x, 5**8) == 8
    sol = solve_units(-2, 3, 5, precision=8)
    assert sol.verdict == "solvable"
    assert pow(-2, sol.x, 5**8) == 3 % 5**8


def test_solve_units_matches_lifting():
    for a, b, p, n in ((-2, 3, 5, 8), (-4, 6, 5, 8), (2, 13, 3, 8), (-3, 5, 2, 8)):
        sol = solve_units(a, b, p, precision=n)
        trace = solve_by_lifting(a, b, p, n)
        assert sol.verdict == "solvable"
        assert trace.verdict == "solvable"
        assert pow(a, sol.x, p**n) == b % p**n
        # both describe the same solution class at this level
        assert (sol.x - trace.rows[-1].x_n) % order_mod(a, p**n) == 0


def test_solve_units_base2_parity_clash():
    with pytest.raises(UnsolvableError) as info:
        solve_units(-5, -25, 2, precision=10)
    assert info.value.failing_level == 3
    # and enumeration confirms the failing level exactly
    assert brute_dlog(-5, -25, 2, 3) is None
    assert brute_dlog(-5, -25, 2, 2) is not None


def test_solve_units_base2_parity_ok():
    sol = solve_units(-5, -13, 2, precision=10)
    assert sol.verdict == "solvable"
    assert pow(-5, sol.x, 2**10) == -13 % 2**10
    sol = solve_units(-5, 25, 2, precision=10)
    assert sol.verdict == "solvable"
    assert sol.x % 2 == 0
    assert pow(-5, sol.x, 2**10) == 25 % 2**10


def test_solve_units_sign_obstruction():
    with pytest.raises(UnsolvableError) as info:
        solve_units(5, -5, 2, precision=8)
    assert info.value.failing_level == 2


def test_solve_units_residue_obstruction():
    with pytest.raises(UnsolvableError) as info:
        solve_units(4, 2, 5, precision=8)
    assert info.value.failing_level == 1


def test_solve_units_depth_obstruction():
    with pytest.raises(UnsolvableError) as info:
        solve_units(26, 6, 5, precision=8)
    assert info.value.failing_level == 2


def test_solve_units_pure_torsion():
    sol = solve_units(-1, -1, 5, precision=6)
    assert sol.verdict == "solvable"
    assert sol.torsion_modulus == 2
    assert sol.torsion_residue == 1
    assert sol.principal_exponent is None
    sol = solve_units(-1, 1, 7, precision=6)
    assert sol.verdict == "solvable"
    assert sol.torsion_residue == 0
    with pytest.raises(UnsolvableError) as info:
        solve_units(-1, -6, 5, precision=6)
    assert info.value.failing_level == 2


def test_solve_units_undetermined_on_truncated_b():
    a = from_integer(-1, 5, 4)
    b = -PAdicInt(5, (1, 0, 0, 0))  # sign times a visibly-trivial principal part
    sol = solve_units(a, b, 5, precision=4)
    assert sol.verdict == "undetermined"
    assert sol.x is None


def test_solve_units_exhaustive_small_scale():
    rng = random.Random(41)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(2, 5)
        m = p**n
        a = rng.randrange(2, m)
        b = rng.randrange(1, m)
        if math.gcd(a, m) != 1 or math.gcd(b, m) != 1 or a == 1:
            continue
        truth = brute_dlog(a, b, p, n)
        try:
            sol = solve_units(a, b, p, precision=n + 6)
        except UnsolvableError as e:
            if e.failing_level <= n:
                assert truth is None, (a, b, p, n)
            continue
        if sol.verdict == "solvable":
            assert pow(a, sol.x, m) == b % m, (a, b, p, n)


def test_solve_units_a_is_one():
    with pytest.raises(AIsOne):
        solve_units(1, 6, 5, precision=6)


def test_solve_units_precision_of_exponent():
    sol = solve_units(-2, 3, 5, precision=10)
    assert sol.principal_exponent.precision == 10
    # x_10 from the worked trace is the smallest representative mod 4 * 5^9,
    # and our combined x solves the congruence at level 10
    assert pow(-2, sol.x, 5**10) == 3 % 5**10


@pytest.mark.parametrize("a, b, p", [(-2, 3, 5), (3, 11, 2)])
def test_solve_units_reads_depth_a_from_the_split(a, b, p, monkeypatch):
    # the split measures both depths once; the log ratio takes depth(a) from
    # it instead of measuring it again through solve_log_ratio
    calls = {"_depth": 0, "solve_log_ratio": 0}

    def counting(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    sol = solve_units(a, b, p, precision=20)
    assert sol.verdict == "solvable" and pow(a, sol.x, p**20) == b % p**20
    assert calls == {"_depth": 2, "solve_log_ratio": 0}


def principal_part(u, p, digits):
    """The principal part of u as a PAdicInt of at least ``digits`` digits:
    +-u at p = 2, u^(p-1) at odd p.  A truncated u must carry the digits."""
    if isinstance(u, int):
        u = from_integer(u, p, digits)
    elif u.precision < digits:
        u = u.with_precision(digits)
    if p == 2:
        return u if u.residue % 4 == 1 else -u
    return u ** (p - 1)


def outcome(fn, *args):
    try:
        return fn(*args)
    except PadlogError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_units_exponent_is_the_log_ratio_of_the_principal_parts(p):
    # reference: solve_log_ratio on the principal parts built as PAdicInts,
    # with depth(a) guard digits; a truncated input too short for them
    # raises the same InsufficientPrecision on both sides
    rng = random.Random(p)
    compared = refused = 0
    for precision in (1, 12, 200):
        for _ in range(12):
            a = rng.choice([rng.randrange(2, p**6), 1 + p ** rng.randrange(1, 6)])
            if a % p == 0:
                continue
            c = _depth(a, p).amount
            # b = a^e w with depth(w) > c: solvable, and at p = 2 the parity
            # of x is that of e, which b's sign demands
            w = 1 + p ** (c + 1) * rng.randrange(1, p**4)
            b = a ** rng.randrange(1, 40) * w
            wide = precision + c
            for digits in (None, wide - 1, wide, wide + 7):
                if digits is None:
                    A, B = a, b
                else:
                    A, B = PAdicInt._of(p, a, digits), PAdicInt._of(p, b, digits)
                got = outcome(solve_units, A, B, p, precision)
                ref = outcome(
                    lambda: solve_log_ratio(
                        principal_part(A, p, wide), principal_part(B, p, wide), p,
                        precision,
                    ).x
                )
                if not isinstance(got, solver.UnitsSolution):
                    assert got == ref, (a, b, p, precision, digits)
                    refused += 1
                elif got.verdict == "solvable":
                    x = got.principal_exponent
                    assert (x.residue, x.precision, x._int_value) == (
                        ref.residue, ref.precision, ref._int_value
                    ), (a, b, p, precision, digits)
                    compared += 1
    assert compared >= 40 and refused >= 10


# ---------------------------------------------------------------------------
# solution_is_unit


def test_solution_is_unit_by_depth():
    assert solution_is_unit(6, 11, 5)
    assert not solution_is_unit(6, 26, 5)
    assert solution_is_unit(9, 25, 2)
    assert not solution_is_unit(5, 25, 2)
    assert not solution_is_unit(6, 1, 5)  # b is exactly 1: x = 0


def test_solution_is_unit_consistency():
    # when the exponent is computable, check the claim against it
    for a, b, p in ((6, 11, 5), (6, 26, 5), (9, 25, 2), (5, 25, 2)):
        sol = solve_units(a, b, p, precision=8)
        claim = solution_is_unit(a, b, p)
        assert claim == (sol.principal_exponent.digits[0] != 0)


def test_solution_is_unit_raises_on_unsolvable():
    with pytest.raises(UnsolvableError):
        solution_is_unit(26, 6, 5)


# ---------------------------------------------------------------------------
# one decision procedure: every route agrees with lifting


def _units_verdict(a, b, p, precision=12):
    try:
        sol = solve_units(a, b, p, precision=precision)
    except UnsolvableError as exc:
        return "unsolvable", exc.failing_level
    return sol.verdict, None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_routes_agree_with_lifting_on_the_unit_box(p):
    # every failing level in the box lies below 16 levels at p = 2, 9 else
    levels = 16 if p == 2 else 9
    box = [c for c in range(-40, 41) if c % p]
    for a in box:
        if a == 1:
            continue
        for b in box:
            trace = solve_by_lifting(a, b, p, levels)
            truth = (trace.verdict, trace.failing_level)
            v = check_existence(a, b, p)
            assert (v.verdict, v.failing_level) == truth, (a, b, p, v)
            assert _units_verdict(a, b, p) == truth, (a, b, p)


def test_exact_integer_pairs_are_decided_at_any_precision():
    assert check_existence(6, 11, 5, precision=1).verdict == "solvable"
    assert check_existence(1 + 2**20, 1 + 2**21, 2).verdict == "solvable"
    # 3 = 3 mod 4 and -3 = 1 mod 4 ask for an even exponent; equal depths
    # force an odd one
    v = check_existence(3, -3, 2)
    assert v.verdict == "unsolvable"
    assert v.failing_level == 3
    assert solve_units(3, 1, 2, precision=1).x == 0
    got = solve_log_ratio(6, 11, 5, 1)
    assert got.x.precision == 1
    assert got.x.to_int() == solve_log_ratio(6, 11, 5, 6).x.to_int() % 5
    # an int's depth does not depend on the precision, so even precisions
    # below 1 decide; only a route that returns digits refuses them
    for precision in (0, -1):
        assert check_existence(6, 11, 5, precision=precision).verdict == "solvable"
        assert solution_is_unit(6, 11, 5, precision=precision) is True
        with pytest.raises(ValueError):
            solve_units(6, 11, 5, precision=precision)


def test_padic_inputs_over_another_base_are_refused():
    six, thirty_six = from_integer(6, 5, 8), from_integer(36, 7, 8)
    for call in (check_existence, solution_is_unit):
        with pytest.raises(BaseMismatch, match="cannot mix bases 7 and 5"):
            call(six, thirty_six, 5)
    with pytest.raises(BaseMismatch, match="cannot mix bases 7 and 5"):
        solve_units(six, thirty_six, 5, 4)
    with pytest.raises(BaseMismatch, match="cannot mix bases 5 and 7"):
        solve_log_ratio(six, from_integer(11, 5, 8), 7, 4)


_units = st.integers(-(10**30), 10**30)


@settings(max_examples=300, deadline=None)
@given(
    a=_units,
    b=_units,
    p=st.sampled_from([2, 3, 5, 7]),
    precision=st.integers(1, 14),
)
def test_only_truncated_inputs_are_undetermined(a, b, p, precision):
    if a % p == 0 or b % p == 0 or a == 1:
        return
    v = check_existence(a, b, p, precision)
    assert v.verdict != "undetermined"
    assert _units_verdict(a, b, p, precision) == (v.verdict, v.failing_level)
    # the same digits without the exact value: a decided verdict must hold
    # for every integer with those digits, this one included
    n = max(precision, 2)
    ta = PAdicInt(p, from_integer(a, p, n).digits)
    tb = PAdicInt(p, from_integer(b, p, n).digits)
    t = check_existence(ta, tb, p)
    if t.verdict != "undetermined":
        assert (t.verdict, t.failing_level) == (v.verdict, v.failing_level)


# ---------------------------------------------------------------------------
# the division by log a is one Newton inverse


@pytest.mark.parametrize("p, a, b", [(7, 3, 2), (2, 3, -5), (101, 2, 3)])
def test_solve_units_divides_by_a_newton_inverse(newton_inverses, p, a, b):
    N = 1000
    got = solve_units(a, b, p, N)
    assert pow(a, got.x, p**N) == b % p**N
    assert newton_inverses == [(p, N)]


def test_solve_log_ratio_divides_by_a_newton_inverse(newton_inverses):
    N = 1000
    got = solve_log_ratio(8, 8**5, 7, N)
    assert got.x.to_int() == 5
    got = solve_log_ratio(50, 50**12 % 7**1100, 7, N)  # depth(50) = 2
    assert got.x.to_int() == 12
    assert newton_inverses == [(7, N), (7, N)]


def test_cli_lift_rows_divide_by_a_newton_inverse(newton_inverses):
    trace = _limit_trace(3, 2, 7, 1000)
    last = trace.rows[-1]
    assert pow(3, last.x_n, 7**1000) == 2 and last.order == 6 * 7**999
    assert newton_inverses == [(7, 999)]  # depth(3) = 1: level 1000 pins 999 digits
