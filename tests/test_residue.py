"""Unit-group facts: orders, order growth, membership, abelian structure.

Oracles used here: sympy.totient / sympy.n_order, literal powering loops,
and exhaustive subgroup enumeration.  The package functions must agree with
those on everything small enough to enumerate.
"""

import ast
import math
import random
from collections import Counter
from pathlib import Path

import pytest
import sympy

import padlog
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog.errors import (
    AIsOne,
    DomainError,
    ModulusTooLarge,
    NotCoprime,
    NotPrime,
)
from padlog.residue import (
    _INVERSE_BASE_BITS,
    AbelianStructure,
    _dlog_mod_p,
    _inverse_mod,
    brute_dlog,
    euler_phi,
    group_structure,
    order_mod,
    order_profile,
    structure_from_power_counts,
)

from oracles import census_unit_group_structure, subgroup_contains


def naive_order(a, m):
    """Order by literal powering — the slowest possible oracle."""
    a %= m
    cur = a
    for x in range(1, m + 1):
        if cur == 1:
            return x
        cur = (cur * a) % m
    raise AssertionError("no order found; a is not a unit")


def naive_subgroup(a, m):
    a %= m
    out = set()
    cur = 1
    while True:
        cur = (cur * a) % m
        if cur in out:
            return out
        out.add(cur)


# ---------------------------------------------------------------------------
# euler_phi


def test_phi_small_by_direct_count():
    for n in range(1, 400):
        direct = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
        assert euler_phi(n) == direct


def test_phi_prime_power_formula():
    for p in (2, 3, 5, 7, 29):
        for k in range(1, 6):
            assert euler_phi(p**k) == (p - 1) * p ** (k - 1)


@given(st.integers(min_value=1, max_value=10**9))
def test_phi_matches_sympy(n):
    assert euler_phi(n) == sympy.totient(n)


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)


# ---------------------------------------------------------------------------
# order_mod


def test_order_of_5_in_two_power_groups():
    for n in range(3, 12):
        assert order_mod(5, 2**n) == 2 ** (n - 2)


def test_order_of_2_mod_powers_of_5():
    for n in range(1, 11):
        assert order_mod(2, 5**n) == 4 * 5 ** (n - 1)


def test_order_small_against_naive():
    for m in range(2, 200):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert order_mod(a, m) == naive_order(a, m)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=2, max_value=10**6),
)
def test_order_matches_sympy(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(NotCoprime):
            order_mod(a, m)
    else:
        assert order_mod(a, m) == sympy.n_order(a, m)


def test_order_divides_phi():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(2, 5000)
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            assert euler_phi(m) % order_mod(a, m) == 0


def test_order_mod_one_modulus():
    assert order_mod(17, 1) == 1


def test_order_negative_base():
    assert order_mod(-1, 7) == 2
    assert order_mod(-1, 2) == 1


# ---------------------------------------------------------------------------
# order_profile


def test_profile_14_base_29():
    # 14 generates mod 29 but its 28th power is already 1 mod 29^2, so the
    # order holds at 28 for two levels before the usual growth kicks in
    prof = order_profile(14, 29, 4)
    assert prof.rows == ((1, 28), (2, 28), (3, 28 * 29), (4, 28 * 29**2))
    assert prof.stable_exponent == 2
    assert prof.x_o == 28
    assert not prof.torsion


def test_profile_2_base_29_stable_generator():
    prof = order_profile(2, 29, 4)
    assert prof.rows == ((1, 28), (2, 28 * 29), (3, 28 * 29**2), (4, 28 * 29**3))
    assert prof.stable_exponent == 1


def test_profile_one_plus_p():
    for p in (3, 5, 7, 11):
        prof = order_profile(1 + p, p, 5)
        assert prof.x_o == 1
        assert prof.stable_exponent == 1
        for n, order in prof.rows:
            assert order == p ** (n - 1)


def test_profile_deep_congruence():
    # 1 + p^3 stays trivial through level 3, then grows one factor of p a level
    for p in (3, 5):
        prof = order_profile(1 + p**3, p, 7)
        assert prof.stable_exponent == 3
        for n, order in prof.rows:
            assert order == p ** max(0, n - 3)


def test_profile_rows_against_naive_orders():
    cases = (
        (7, 3, 8), (2, 5, 6), (3, 7, 5), (10, 3, 8), (14, 29, 3),
        # p = 2: one mod four, growing late, and the torsion base
        (5, 2, 8), (9, 2, 8), (-3, 2, 8), (-1, 2, 8),
        # torsion at odd p, and a base that stays trivial for three levels
        (-1, 3, 8), (-1, 7, 5), (1 + 3**3, 3, 8), (1 + 5**3, 5, 6),
    )
    for a, p, n_max in cases:
        prof = order_profile(a, p, n_max)
        assert [n for n, _ in prof.rows] == list(range(1, n_max + 1))
        for n, order in prof.rows:
            assert order == naive_order(a, p**n)


def test_profile_base_two_one_mod_four():
    prof = order_profile(5, 2, 8)
    assert prof.stable_exponent == 2
    assert prof.rows[-1] == (8, 2**6)
    prof = order_profile(9, 2, 8)
    assert prof.stable_exponent == 3
    assert prof.rows == tuple((n, 2 ** max(0, n - 3)) for n in range(1, 9))


def test_profile_base_two_rejects_3_mod_4():
    with pytest.raises(DomainError):
        order_profile(3, 2, 5)
    with pytest.raises(DomainError):
        order_profile(7, 2, 5)
    # ... but the suggested replacements are fine
    assert order_profile(-3, 2, 5).x_o == 1
    assert order_profile(9, 2, 5).x_o == 1


def test_profile_torsion_minus_one():
    prof = order_profile(-1, 7, 5)
    assert prof.torsion
    assert all(order == 2 for _, order in prof.rows)
    assert prof.stable_exponent == 5
    prof2 = order_profile(-1, 2, 5)
    assert prof2.torsion
    assert prof2.rows == ((1, 1), (2, 2), (3, 2), (4, 2), (5, 2))


def test_profile_growth_never_pauses_twice():
    # once the order starts growing it multiplies by p every level
    rng = random.Random(21)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13])
        a = rng.randrange(2, 50)
        if a % p == 0 or a == 1:
            continue
        prof = order_profile(a, p, 6)
        k = prof.stable_exponent
        for n, order in prof.rows:
            assert order == prof.x_o * p ** max(0, n - k)


def test_profile_rejections():
    with pytest.raises(AIsOne):
        order_profile(1, 5, 3)
    with pytest.raises(NotCoprime):
        order_profile(10, 5, 3)
    with pytest.raises(NotPrime):
        order_profile(7, 6, 3)


# ---------------------------------------------------------------------------
# brute_dlog


def test_brute_dlog_level_six_example():
    assert brute_dlog(-3, 5, 2, 6) == 11


def test_brute_dlog_base_case():
    assert brute_dlog(7, 7, 11, 3) == 1
    assert brute_dlog(7, 1, 11, 3) == order_mod(7, 11**3)


def test_brute_dlog_level_two_example():
    assert brute_dlog(-2, 3, 5, 2) == 17


def test_brute_dlog_absent_returns_none():
    # 3 generates only half of the units mod 32; 5 is in the other half
    assert brute_dlog(3, 5, 2, 5) is None


def test_brute_dlog_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        m = p**n
        a = rng.randrange(1, m)
        b = rng.randrange(1, m)
        if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
            continue
        x = brute_dlog(a, b, p, n)
        if x is None:
            assert b % m not in naive_subgroup(a, m)
        else:
            assert pow(a, x, m) == b % m
            assert 1 <= x <= order_mod(a, m)
            # smallest such exponent
            assert all(pow(a, y, m) != b % m for y in range(1, x))


def test_brute_dlog_cap(monkeypatch):
    with pytest.raises(ModulusTooLarge):
        brute_dlog(3, 5, 2, 40)
    monkeypatch.setenv("PADLOG_MAX_MODULUS", str(2**41))
    assert brute_dlog(3, 3, 2, 40) == 1


def test_brute_dlog_rejects_nonunits():
    with pytest.raises(NotCoprime):
        brute_dlog(10, 3, 5, 2)
    with pytest.raises(NotCoprime):
        brute_dlog(3, 10, 5, 2)


# ---------------------------------------------------------------------------
# _dlog_mod_p: Pohlig-Hellman with baby-step giant-step


def test_dlog_mod_p_matches_enumeration_below_200():
    # p - 1 = 16 (p = 17), 96 = 2^5 * 3 and 192 = 2^6 * 3 run the
    # prime-power digit loop
    for p in sympy.primerange(2, 200):
        for a in range(1, p):
            order = order_mod(a, p)
            first = {}
            cur = 1
            for x in range(order):
                first[cur] = x
                cur = cur * a % p
            for b in range(1, p):
                assert _dlog_mod_p(a, b, p, order) == first.get(b), (a, b, p)


def test_dlog_mod_p_reduces_its_arguments():
    assert _dlog_mod_p(-2, 3 + 5 * 7, 5, 4) == 1  # -2 = 3 mod 5
    assert _dlog_mod_p(2, -1, 7, 3) is None  # -1 lies outside <2> mod 7


def test_dlog_mod_p_caps_the_baby_steps():
    # p - 1 = 2 * 2199023256029, whose large factor would need about
    # 1.5 * 10^6 baby steps
    p = 4398046512059
    order = order_mod(3, p)
    assert order % 2199023256029 == 0
    with pytest.raises(ModulusTooLarge):
        _dlog_mod_p(3, 9, p, order)
    # membership alone needs no table: 3 is a square mod p, 2 is not
    assert _dlog_mod_p(3, 2, p, order) is None


# ---------------------------------------------------------------------------
# _inverse_mod: Newton's iteration above a pow base case


INVERSE_PRIMES = (2, 3, 5, 7, 11, 101, 10007)


def _inverse_levels(p):
    """Every k up to 100, around the base case and its first doublings, and
    a stride to 1200."""
    j = _INVERSE_BASE_BITS // (p - 1).bit_length() or 1
    edges = {d * j + e for d in (1, 2, 4) for e in (-1, 0, 1)}
    return sorted(set(range(1, 101)) | edges | set(range(101, 1201, 37)) | {1199, 1200})


@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_inverse_mod_is_pows_inverse(p):
    rng = random.Random(p)
    for k in _inverse_levels(p):
        m = p**k
        units = [1, m - 1, 1 + p * rng.randrange(m), rng.randrange(m) * p + rng.randrange(1, p)]
        if k <= 100:
            units.append(-rng.randrange(1, m) * p - 1)  # negative, and larger than m
        for u in units:
            assert _inverse_mod(u, p, k) == pow(u, -1, m), (p, k, u)


@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_inverse_mod_refuses_a_non_unit(p):
    for k in (1, 5, 40, 300):
        for u in (0, p, p**k, 3 * p ** (k + 1)):
            with pytest.raises(ValueError):
                _inverse_mod(u, p, k)


# ---------------------------------------------------------------------------
# subgroup_contains


def test_contains_basic_pairs():
    assert subgroup_contains(-3, 5, 2, 6)
    assert subgroup_contains(5, -3, 2, 6)
    assert not subgroup_contains(3, 5, 2, 5)
    assert not subgroup_contains(5, 3, 2, 5)


def test_contains_identity_and_self():
    assert subgroup_contains(7, 1, 3, 4)
    assert subgroup_contains(7, 7, 3, 4)


def test_contains_matches_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        m = p**n
        a = rng.randrange(1, m)
        b = rng.randrange(1, m)
        if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
            continue
        assert subgroup_contains(a, b, p, n) == (b % m in naive_subgroup(a, m))
    # every unit pair mod 2^n for 3 <= n <= 8, where the unit group is not cyclic
    for n in range(3, 9):
        m = 2**n
        for a in range(1, m, 2):
            members = naive_subgroup(a, m)
            for b in range(1, m, 2):
                assert subgroup_contains(a, b, 2, n) == (b in members), (a, b, n)


# ---------------------------------------------------------------------------
# group_structure and the census machinery


def test_structure_two_powers():
    assert group_structure(2).factors == ()
    assert group_structure(4).factors == (2,)
    assert group_structure(8).factors == (2, 2)
    assert group_structure(32).factors == (2, 8)
    assert group_structure(2).cyclic_order == 1
    assert group_structure(4).cyclic_order == 2
    assert group_structure(8).cyclic_order is None


def test_structure_odd_prime_powers():
    s = group_structure(7**3)
    assert s.factors == (6, 49)
    assert s.cyclic_order == 6 * 49
    s = group_structure(5)
    assert s.factors == (4,)
    assert s.cyclic_order == 4


def test_structure_composite():
    s = group_structure(12)  # 4 * 3
    assert s.factors == (2, 2)
    assert s.cyclic_order is None
    s = group_structure(2 * 7**2)
    assert s.cyclic_order == euler_phi(2 * 49)


def test_structure_order_is_phi():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 3000)
        assert group_structure(n).order() == euler_phi(n)


def test_structure_cyclic_classification():
    # cyclic exactly when n is 2, 4, an odd prime power, or twice one
    for n in range(2, 400):
        s = group_structure(n)
        expected = census_unit_group_structure(n)
        assert (s.cyclic_order is not None) == (
            len(expected.invariant_factors()) <= 1
        ), n
        if s.cyclic_order is not None:
            assert s.cyclic_order == euler_phi(n)


def test_structure_matches_census():
    for n in list(range(2, 120)) + [128, 125, 243, 200, 360]:
        assert group_structure(n).same_group(census_unit_group_structure(n)), n


def test_structure_exponent_is_max_order():
    for n in (8, 12, 15, 16, 24, 35, 49):
        max_order = max(
            naive_order(a, n) for a in range(1, n) if math.gcd(a, n) == 1
        )
        assert group_structure(n).exponent() == max_order


def test_invariant_factor_chain():
    s = group_structure(360)  # 8 * 9 * 5 -> (2, 2) + (6,) + (4,)
    chain = s.invariant_factors()
    assert math.prod(chain) == euler_phi(360)
    for d, e in zip(chain, chain[1:]):
        assert e % d == 0


def test_elementary_divisors_representation_free():
    a = AbelianStructure(factors=(6, 4))
    b = AbelianStructure(factors=(12, 2))
    assert a.same_group(b)
    assert a.elementary_divisors() == (2, 3, 4)
    c = AbelianStructure(factors=(24,))
    assert not a.same_group(c)


def test_power_count_reconstruction_direct():
    # Z_4 x Z_2: counts N_2 = 4, N_4 = 8
    counts = {2: 4, 4: 8, 8: 8}
    got = structure_from_power_counts(8, lambda d: counts[d])
    assert got.elementary_divisors() == (2, 4)


def test_fermat_euler_sampled():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(2, 10**4)
        a = rng.randrange(1, n)
        if math.gcd(a, n) == 1:
            assert pow(a, euler_phi(n), n) == 1


# ---------------------------------------------------------------------------
# the sympy boundary


def test_only_residue_imports_sympy():
    # every prime test and factorization goes through residue._is_prime and
    # residue._factorization, which memoize them
    importers = set()
    for path in Path(padlog.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                importers.add(path.name)
    assert importers == {"residue.py"}


def names_read(tree):
    """Every name a tree reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def attributes_read(tree):
    """How often a tree reads each attribute name."""
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    )


def test_only_residue_names_the_oracles():
    # the enumeration oracles anchor tests and are no product path;
    # __init__.py re-exports them, so it is exempt
    oracles = {"brute_dlog"}
    users = set()
    for path in Path(padlog.__file__).parent.glob("*.py"):
        read = names_read(ast.parse(path.read_text()))
        if path.name != "__init__.py" and oracles & read:
            users.add(path.name)
    assert users <= {"residue.py"}


def test_every_import_is_used():
    # a name a module imports but never reads is a leftover of a move;
    # __init__.py re-exports, so it is exempt
    for path in Path(padlog.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


# public methods that no product code reads, each kept for its reason
METHODS_KEPT_UNREAD = {
    "PAdicInt.power_sum": "the README quick start prints an exponent with it",
    "RootCertificate.verify": "the certificate check of the exported gauss_search",
    "ValuationBound.metric": "display only; decided with the exported leftovers",
}


def test_every_public_definition_is_on_a_product_path():
    # code that only tests reach belongs in tests/: every top-level public
    # function or class is exported from __init__, read by another product
    # module, or read by a definition of its own module that is
    package = Path(padlog.__file__).parent
    exported = names_read(ast.parse((package / "__init__.py").read_text()))
    trees = {
        path.name: ast.parse(path.read_text())
        for path in package.glob("*.py")
        if path.name != "__init__.py"
    }
    unreached = []
    for name, tree in trees.items():
        others = set().union(*(names_read(t) for n, t in trees.items() if n != name))
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        reached = (exported | others) & defs.keys()
        for node in tree.body:  # module-level statements, `__main__` included
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reached |= names_read(node) & defs.keys()
        todo = list(reached)
        while todo:
            new = names_read(defs[todo.pop()]) & (defs.keys() - reached)
            reached |= new
            todo += new
        unreached += [
            (name, d) for d in defs if not d.startswith("_") and d not in reached
        ]
    # and every public method or property of a public class is read as an
    # attribute somewhere in the package outside its own body
    attributes = Counter()
    for tree in trees.values():
        attributes.update(attributes_read(tree))
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name[0] == "_":
                    continue
                qualname = cls.name + "." + method.name
                read = attributes[method.name] - attributes_read(method)[method.name]
                if not read and qualname not in METHODS_KEPT_UNREAD:
                    unreached.append((name, qualname))
    assert unreached == []
