"""Generator search, stabilization, and the canonical stable-root table.

Oracles: sympy.is_primitive_root, literal order computations, and exhaustive
subgroup generation for small moduli.
"""

import math

import pytest
import sympy

from padlog import primroot
from padlog.errors import (
    InternalInvariantError,
    ModulusTooLarge,
    NotAPrimitiveRoot,
    NotPrime,
    WrongResidueClass,
)
from padlog.primroot import (
    all_stable_roots,
    gauss_search,
    has_primitive_root,
    is_primitive_root,
    is_stable_root,
    sqrt_minus_one,
    stabilize,
)
from padlog.residue import euler_phi, order_mod


# ---------------------------------------------------------------------------
# is_primitive_root


def test_is_primitive_root_matches_sympy():
    for p in (3, 5, 7, 11, 13, 29, 43):
        for r in range(1, p):
            assert is_primitive_root(r, p) == sympy.is_primitive_root(r, p)


def test_is_primitive_root_higher_levels():
    assert is_primitive_root(2, 5, 2)
    assert not is_primitive_root(7, 5, 2)  # generates mod 5 but has order 4 mod 25
    assert is_primitive_root(2, 29, 1)
    assert not is_primitive_root(14, 29, 2)
    assert is_primitive_root(15, 29, 2)


def naive_order(a, m):
    """Order by literal powering."""
    cur, x = a % m, 1
    while cur != 1:
        cur, x = cur * a % m, x + 1
    return x


def test_is_primitive_root_against_naive_orders_at_levels_two_and_three():
    for p in (2, 3, 5, 7, 29):
        for n in (2, 3):
            m = p**n
            # every residue up to 29^2; the first 150 at 29^3
            for r in range(-3, m if m < 1000 else 150):
                want = r % p != 0 and naive_order(r, m) == euler_phi(m)
                assert is_primitive_root(r, p, n) == want, (r, p, n)


def test_is_primitive_root_nonunit():
    assert not is_primitive_root(10, 5)
    assert not is_primitive_root(0, 7)


def test_is_stable_root_examples():
    assert is_stable_root(15, 29)
    assert not is_stable_root(14, 29)
    assert is_stable_root(26, 43)
    assert not is_stable_root(19, 43)


def test_is_stable_root_matches_the_full_test_mod_p_squared():
    # one power r^(p-1) mod p^2 decides what the witness test mod p^2 does,
    # including on unstable generators such as 14 mod 29 and 19 mod 43
    for p in sympy.primerange(2, 2000):
        for r in range(1, p):
            want = is_primitive_root(r, p) and is_primitive_root(r, p, 2)
            assert is_stable_root(r, p) == want, (r, p)


# ---------------------------------------------------------------------------
# gauss_search


def test_gauss_search_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 101, 257):
        cert = gauss_search(p)
        assert order_mod(cert.root, p) == p - 1
        assert cert.verify()


def test_gauss_search_is_deterministic():
    assert gauss_search(7).root == gauss_search(7).root
    assert gauss_search(7).root == 5


def test_gauss_search_starts_at_two():
    # when 2 already generates there is nothing to merge
    cert = gauss_search(13)
    assert cert.root == 2
    assert cert.steps == ()


def test_gauss_search_merge_orders_grow():
    cert = gauss_search(41)
    orders = [s.order_a for s in cert.steps] + [40]
    assert orders == sorted(orders)
    for s in cert.steps:
        assert s.merged_order == math.lcm(s.order_a, s.order_b)
        assert s.merged_order > s.order_a
        assert order_mod(s.merged, 41) == s.merged_order


def test_gauss_search_base_two():
    assert gauss_search(2).root == 1


def test_gauss_search_rejects_composite():
    with pytest.raises(NotPrime):
        gauss_search(10)


# ---------------------------------------------------------------------------
# stabilize


def test_stabilize_direct():
    s = stabilize(2, 5)
    assert (s.root, s.derivation) == (2, "direct")
    s = stabilize(2, 13)
    assert (s.root, s.derivation) == (2, "direct")


def test_stabilize_gauss_example():
    s = stabilize(14, 29)
    assert s.root == 15
    assert s.derivation == "negated"
    assert s.source == 14
    assert is_stable_root(15, 29)


def test_stabilize_negated_square_example():
    s = stabilize(19, 43)
    assert s.root == 26
    assert s.derivation == "negated-square"
    assert is_stable_root(26, 43)


def test_stabilize_force_multiplier():
    s = stabilize(14, 29, force_multiplier=True)
    assert s.derivation == "multiplied-by-1+p"
    assert s.root == 14 * 30 % 29**2
    assert order_mod(s.root, 29**2) == 28 * 29
    # forcing on an already-stable generator is not covered by the classical
    # guarantee and may legitimately fail the order check
    with pytest.raises(NotAPrimitiveRoot):
        stabilize(3, 5, force_multiplier=True)


def test_stabilize_output_always_generates_level_two():
    for p in (5, 13, 17, 29, 37, 41, 7, 11, 19, 23, 31, 43):
        for r in range(2, p):
            if is_primitive_root(r, p):
                s = stabilize(r, p)
                assert is_primitive_root(s.root, p, 2), (p, r)


def test_stabilize_rejects_nonroot():
    with pytest.raises(NotAPrimitiveRoot):
        stabilize(4, 5)  # 4 has order 2 mod 5


# ---------------------------------------------------------------------------
# sqrt_minus_one


def test_sqrt_minus_one_values():
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 8


def test_sqrt_minus_one_property():
    for p in (5, 13, 17, 29, 37, 41, 53, 61):
        i = sqrt_minus_one(p)
        assert i * i % p == p - 1


def test_sqrt_minus_one_wrong_class():
    with pytest.raises(WrongResidueClass):
        sqrt_minus_one(7)
    with pytest.raises(WrongResidueClass):
        sqrt_minus_one(43)


# ---------------------------------------------------------------------------
# has_primitive_root


def test_has_primitive_root_classification():
    # cross-checked against the exponent = order test on every modulus
    for n in range(2, 300):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1] or [1]
        cyclic = any(order_mod(u, n) == len(units) for u in units)
        assert has_primitive_root(n) == cyclic, n


def test_has_primitive_root_edges():
    assert has_primitive_root(1)
    assert has_primitive_root(2)
    assert has_primitive_root(4)
    assert not has_primitive_root(8)
    assert has_primitive_root(7**4)
    assert has_primitive_root(2 * 7**4)
    assert not has_primitive_root(4 * 7)
    assert not has_primitive_root(15)


# ---------------------------------------------------------------------------
# all_stable_roots: the canonical 12-row table


TABLE = {
    5: [2, 3],
    13: [2, 6],
    17: [3, 5, 6, 7],
    29: [2, 3, 8, 10, 11, 15],
    37: [2, 5, 13, 15, 17, 19],
    41: [6, 7, 11, 12, 13, 15, 17, 19],
    7: [3, 5],
    11: [2, 6, 7, 8],
    19: [2, 3, 10, 13, 14, 15],
    23: [5, 7, 10, 11, 14, 15, 17, 19, 20, 21],
    31: [3, 11, 12, 13, 17, 21, 22, 24],
    43: [3, 5, 12, 18, 20, 26, 28, 29, 30, 33, 34],
}


def test_all_stable_roots_table():
    for p, row in TABLE.items():
        assert all_stable_roots(p) == row, p


def test_all_stable_roots_full_mode():
    # full mode lists every stable generator; for p = 3 (mod 4) that is the
    # default already, while mirrors reappear for p = 1 (mod 4)
    assert all_stable_roots(43, full=True) == TABLE[43]
    full13 = all_stable_roots(13, full=True)
    assert set(TABLE[13]) <= set(full13)
    for r in full13:
        assert is_stable_root(r, 13)
    # 7 and 11 are the mirrors of 6 and 2
    assert full13 == [2, 6, 7, 11]


def test_all_stable_roots_entries_are_stable():
    for p in TABLE:
        for r in all_stable_roots(p):
            assert is_stable_root(r, p)
    # full mode lists every stable generator, none missing
    for p in sympy.primerange(3, 2000):
        want = [r for r in range(2, p) if is_stable_root(r, p)]
        assert all_stable_roots(p, full=True) == want, p


def mirror_table_row(p):
    """A canonical row for p = 1 (mod 4), p > 5, by the literal rule: each
    small generator r <= (p - 1)/2 if stable, else its mirror p - r."""
    out = []
    for r in range(2, (p - 1) // 2 + 1):
        if is_primitive_root(r, p):
            out.append(r if is_primitive_root(r, p, 2) else p - r)
    return sorted(out)


def test_all_stable_roots_matches_the_mirror_rule():
    for p in sympy.primerange(7, 2000):
        if p % 4 == 1:
            assert all_stable_roots(p) == mirror_table_row(p), p


def test_all_stable_roots_takes_the_repair_of_stabilize():
    # at p = 1 (mod 4) an unstable small generator r is listed as p - r
    # without a second generator proof; stabilize derives the same root
    for p in sympy.primerange(7, 3000):
        if p % 4 == 1:
            small = [r for r in range(2, (p + 1) // 2) if is_primitive_root(r, p)]
            want = sorted(stabilize(r, p).root for r in small)
            assert all_stable_roots(p) == want, p


def test_all_stable_roots_small_edges():
    assert all_stable_roots(3) == [2]
    assert all_stable_roots(2) == [1]


def test_all_stable_roots_refuses_a_prime_past_its_cap(monkeypatch):
    # the search costs O(p); the cap is lowered here so no large p runs
    monkeypatch.setattr(primroot, "PROOT_PRIME_CAP", 43)
    assert all_stable_roots(43) == TABLE[43]
    for full in (False, True):
        with pytest.raises(ModulusTooLarge, match="up to 43, got 47"):
            all_stable_roots(47, full=full)
    with pytest.raises(NotPrime):
        all_stable_roots(49)
