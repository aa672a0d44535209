"""Special pairs and their multiplication permutations.

The canonical pair (-3, 5) over base 2 anchors everything: its x-order
table and all its permutation rows are asserted symbol-for-symbol, and the
generic facts (cycles partition the domain, advance by multiplication,
lengths divide the multiplier's order, the dlog re-derives by enumeration)
are checked across sweeps.
"""

import math

import pytest

from padlog.errors import (
    DomainError,
    ModulusTooLarge,
    NotCoprime,
    NotPrime,
)
from padlog.residue import euler_phi, group_structure, order_mod
from padlog.solver import solve_by_lifting
from padlog.special import (
    COPRIMALITY,
    SUBGROUP_MISMATCH,
    X_ORDER_NOT_MAXIMAL,
    analyze_pair,
    cycle_decomposition,
)

PERMUTATION_ROWS = {
    (1, 2): "(1)",
    (3, 4): "(1 3)(2)",
    (3, 8): "(1 3)(2 6)(4)(5 7)",
    (11, 16): "(1 11 9 3)(2 6)(4 12)(5 7 13 15)(8)(10 14)",
    (11, 32): "(1 11 25 19 17 27 9 3)(2 22 18 6)(4 12)(5 23 29 31 21 7 13 15)"
    "(8 24)(10 14 26 30)(16)(20 28)",
}


# ---------------------------------------------------------------------------
# the canonical pair (-3, 5) over base 2


def test_worked_level_six():
    report = analyze_pair(-3, 5, 2, 6)
    assert report.is_special
    assert report.failed_condition is None
    assert report.x_o == 11  # 1 + 2 + 2^3
    assert report.ord_a == 16
    assert report.x_order == 4
    assert report.max_possible == 4


def test_x_order_table():
    expected_x = {5: 3, 6: 11, 7: 11, 8: 11, 9: 11, 10: 11}
    for n in range(5, 11):
        report = analyze_pair(-3, 5, 2, n)
        assert report.is_special
        assert report.ord_a == 2 ** (n - 2)
        assert report.x_o == expected_x[n]
        assert report.x_order == 2 ** (n - 4)
        assert report.max_possible == 2 ** (n - 4)


def test_permutation_rows():
    for (x, modulus), text in PERMUTATION_ROWS.items():
        assert cycle_decomposition(x, modulus).compact() == text


def test_permutation_rows_follow_the_solver():
    trace = solve_by_lifting(-3, 5, 2, 7)
    for n in range(3, 8):
        x_n = trace.rows[n - 1].x_n
        modulus = 2 ** (n - 2)
        key = (x_n % modulus, modulus)
        # the table keys are already reduced representatives of the trace
        assert key in PERMUTATION_ROWS
        assert cycle_decomposition(x_n, modulus).compact() == PERMUTATION_ROWS[key]


def test_index_of_generated_subgroup_eventually_constant():
    two_adic = [
        euler_phi(2**n) // order_mod(-3 % 2**n, 2**n) for n in range(2, 11)
    ]
    assert two_adic == [2] * 9
    negated = [
        euler_phi(5**n) // order_mod(4 % 5**n, 5**n) for n in range(2, 11)
    ]
    assert negated == [2] * 9
    plain = [
        euler_phi(5**n) // order_mod(-4 % 5**n, 5**n) for n in range(2, 11)
    ]
    assert plain == [4] * 9


def test_better_pair_orders_base_five():
    # (-1)(1-p) and (-1)(1+p) pick up the order-2 torsion: order 2 * 5^(n-1)
    report = analyze_pair(4, -6, 5, 3)
    assert report.ord_a == 50
    assert order_mod(-6 % 125, 125) == 50
    assert report.failed_condition in (None, X_ORDER_NOT_MAXIMAL)
    # without the -1 factor the orders drop to the principal 5^(n-1)
    bare = analyze_pair(-4, 6, 5, 3)
    assert bare.ord_a == 25
    assert order_mod(6, 125) == 25
    assert bare.failed_condition in (None, X_ORDER_NOT_MAXIMAL)


# ---------------------------------------------------------------------------
# condition analysis


def test_self_pair():
    report = analyze_pair(3, 3, 5, 2)
    assert report.x_o == 1
    assert report.x_order == 1
    assert not report.is_special
    assert report.failed_condition == X_ORDER_NOT_MAXIMAL

    torsion = analyze_pair(-1, -1, 5, 1)
    assert torsion.is_special  # ord 2 leaves only the identity automorphism
    assert torsion.max_possible == 1


def test_self_pair_special_exactly_when_no_room():
    for a in [2, 3, 7, -1, 9]:
        report = analyze_pair(a, a, 5, 2)
        assert report.x_o == 1
        assert report.is_special == (report.max_possible == 1)


def test_subgroup_mismatch():
    report = analyze_pair(2, 4, 5, 2)
    assert report.failed_condition == SUBGROUP_MISMATCH
    assert not report.is_special
    assert report.ord_a == 20
    assert report.x_o == 2  # 4 still lies inside <2>
    assert report.x_order is None  # gcd(2, 20) > 1: no automorphism

    outside = analyze_pair(3, 7, 2, 5)
    assert outside.failed_condition == SUBGROUP_MISMATCH
    assert outside.x_o is None  # 7 is not a power of 3 mod 32


def test_coprimality_failure():
    report = analyze_pair(5, 3, 5, 2)
    assert report.failed_condition == COPRIMALITY
    assert report.x_o is None and report.ord_a is None
    assert not report.is_special


def test_x_o_rederives_by_enumeration():
    cases = [(-3, 5, 2, 6), (-3, 5, 2, 8), (2, 3, 5, 2), (4, -6, 5, 3)]
    for p in (2, 3, 5, 7):
        n = 1
        while p**n <= 200:
            units = [u for u in range(1, p**n) if u % p]
            cases += [(a, b, p, n) for a in units for b in units]
            n += 1
    for a, b, p, n in cases:
        report = analyze_pair(a, b, p, n)
        modulus = p**n
        # <a> by enumeration: a^1, a^2, ..., a^ord(a) = 1
        powers = [pow(a, x, modulus) for x in range(1, report.ord_a + 1)]
        assert powers[-1] == 1 and powers.count(1) == 1
        b %= modulus
        smallest = powers.index(b) + 1 if b in powers else None
        assert report.x_o == smallest
        # <a> = <b> iff ord a = ord b and b lies in <a>
        same = smallest is not None and order_mod(b, modulus) == report.ord_a
        assert (report.failed_condition != SUBGROUP_MISMATCH) == same, (a, b, p, n)


def test_max_possible_is_the_enumerated_exponent():
    for ord_a in range(3, 61):
        units = [u for u in range(1, ord_a) if math.gcd(u, ord_a) == 1]
        enumerated = math.lcm(*(order_mod(u, ord_a) for u in units))
        assert group_structure(ord_a).exponent() == enumerated


# ---------------------------------------------------------------------------
# cycle mechanics


def test_cycles_partition_and_advance():
    for modulus in range(2, 41):
        for x in range(2, modulus):
            if math.gcd(x, modulus) != 1:
                continue
            decomposition = cycle_decomposition(x, modulus)
            flat = sorted(t for c in decomposition.cycles for t in c)
            assert flat == list(range(1, modulus))
            for cycle in decomposition.cycles:
                assert cycle[0] == min(cycle)
                for i, t in enumerate(cycle):
                    assert cycle[(i + 1) % len(cycle)] == t * x % modulus
            starts = [c[0] for c in decomposition.cycles]
            assert starts == sorted(starts)


def test_cycle_lengths_divide_the_multiplier_order():
    for modulus in [8, 15, 16, 21, 32, 50]:
        for x in range(2, modulus):
            if math.gcd(x, modulus) != 1:
                continue
            x_order = order_mod(x, modulus)
            for cycle in cycle_decomposition(x, modulus).cycles:
                assert x_order % len(cycle) == 0


def test_identity_multiplier_fixes_everything():
    decomposition = cycle_decomposition(1, 8)
    assert decomposition.cycles == tuple((t,) for t in range(1, 8))
    assert decomposition.compact() == "(1)(2)(3)(4)(5)(6)(7)"


def test_tiny_moduli():
    assert cycle_decomposition(1, 1).cycles == ()
    assert cycle_decomposition(1, 2).cycles == ((1,),)
    assert cycle_decomposition(-1, 4).compact() == "(1 3)(2)"


# ---------------------------------------------------------------------------
# domain and caps


def test_analysis_cap():
    with pytest.raises(ModulusTooLarge):
        analyze_pair(3, 5, 2, 21)


def test_analysis_cap_env_override(monkeypatch):
    monkeypatch.setenv("PADLOG_MAX_MODULUS", "8")
    with pytest.raises(ModulusTooLarge):
        analyze_pair(3, 5, 2, 4)
    monkeypatch.delenv("PADLOG_MAX_MODULUS")
    assert analyze_pair(3, 5, 2, 4).ord_a == 4


def test_bad_inputs():
    with pytest.raises(NotPrime):
        analyze_pair(3, 5, 4, 2)
    with pytest.raises(DomainError):
        analyze_pair(3, 5, 2, 0)
    with pytest.raises(NotCoprime):
        cycle_decomposition(2, 4)
    with pytest.raises(DomainError):
        cycle_decomposition(3, 0)
