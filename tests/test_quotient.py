"""The k-th power map: closed forms against literal enumeration.

The per-element census over the units mod p^n is the anchor — it sees the
actual cokernel with no theory behind it.  The generator decomposition and
the symbolic closed-form report must match it wherever it runs, and the
finite levels must saturate to the closed form once the level clears the
depth of the p-part.
"""

import math

import pytest
import sympy

from padlog.errors import DomainError, ModulusTooLarge, NotPrime
from padlog.quotient import (
    CENSUS_LIMIT,
    FINITE_LEVEL_CAP,
    _census_cokernel,
    power_map_report,
    predicted_finite_cokernel,
    verify_cokernel_finite_level,
)
from padlog.residue import AbelianStructure


def cyclic(n):
    return AbelianStructure((n,) if n > 1 else (), cyclic_order=n)


# ---------------------------------------------------------------------------
# closed-form report


def test_square_classes_odd_primes():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        report = power_map_report(p, 2)
        assert report.codomain_mod_image.same_group(AbelianStructure((2, 2)))


def test_square_classes_base_two():
    report = power_map_report(2, 2)
    assert report.codomain_mod_image.same_group(AbelianStructure((2, 2, 2)))


def test_identity_map_is_trivial_quotient():
    for p in [2, 3, 7, 29]:
        report = power_map_report(p, 1)
        assert report.codomain_mod_image.trivial().same_group(report.codomain_mod_image)
        assert report.kernel.order() == 1
        assert report.image.z_scale == 1
        assert report.image.unit_scale == 0
        # the image is everything: full torsion coordinate survives
        assert report.image.finite.order() == (2 if p == 2 else p - 1)


def test_torsion_split_law():
    for p in sympy.primerange(3, 50):
        for k in range(1, 31):
            report = power_map_report(p, k)
            assert report.d1 * report.d2 == p - 1
            assert report.d2 == math.gcd(p - 1, k)


def test_odd_p_worked_fields():
    report = power_map_report(7, 4)
    assert (report.d1, report.d2, report.m) == (3, 2, 0)
    assert report.codomain_mod_image.same_group(AbelianStructure((4, 2)))
    assert report.kernel.same_group(cyclic(2))
    assert report.image.finite.same_group(cyclic(3))

    report = power_map_report(5, 10)
    assert (report.d1, report.d2, report.m) == (2, 2, 1)
    assert report.codomain_mod_image.same_group(AbelianStructure((10, 2, 5)))
    assert report.image.z_scale == 10
    assert report.image.unit_scale == 1


def test_base_two_even_exponent():
    report = power_map_report(2, 6)
    assert report.m == 1
    assert report.codomain_mod_image.same_group(AbelianStructure((6, 2, 2)))
    assert report.kernel.same_group(cyclic(2))
    assert report.image.finite.order() == 1

    report = power_map_report(2, 12)
    assert report.m == 2
    assert report.codomain_mod_image.same_group(AbelianStructure((12, 2, 4)))


def test_base_two_odd_exponent():
    for k in [1, 3, 5, 7, 9, 11]:
        report = power_map_report(2, k)
        assert report.kernel.order() == 1
        assert report.image.finite.same_group(cyclic(2))
        assert report.codomain_mod_image.same_group(cyclic(k))


def test_symbolic_marks():
    for p, k in [(3, 6), (5, 4), (2, 8), (2, 5), (13, 13)]:
        report = power_map_report(p, k)
        assert report.image.z_scale == k
        assert report.image.unit_scale is not None  # both marks are present
        assert report.domain_mod_kernel.z_scale == 1
        assert report.domain_mod_kernel.unit_scale == 0
        expected_m = 0
        kk = k
        while kk % p == 0:
            expected_m += 1
            kk //= p
        assert report.m == expected_m
        if not (p == 2 and k % 2 == 1):
            assert report.image.unit_scale == report.m


def test_quotient_order_bookkeeping():
    for p in [3, 5, 7, 11]:
        for k in range(1, 13):
            report = power_map_report(p, k)
            assert report.codomain_mod_image.order() == k * report.d2 * p**report.m
            # torsion coordinate: |kernel| equals the torsion part it kills
            assert report.kernel.order() * report.image.finite.order() == p - 1


def test_report_rejects_bad_input():
    with pytest.raises(NotPrime):
        power_map_report(4, 2)
    with pytest.raises(DomainError):
        power_map_report(5, 0)


# ---------------------------------------------------------------------------
# finite levels


def test_worked_finite_levels():
    assert verify_cokernel_finite_level(5, 3, 2).same_group(cyclic(2))
    assert verify_cokernel_finite_level(3, 4, 3).same_group(cyclic(3))
    assert verify_cokernel_finite_level(7, 2, 1).order() == 1


def test_census_is_the_anchor():
    # every small prime-power level, checked straight against the closed form
    for p in sympy.primerange(2, 120):
        n = 1
        while True:
            modulus = p**n
            if modulus - modulus // p > CENSUS_LIMIT:
                break
            for k in range(1, 13):
                census = _census_cokernel(modulus, p, k)
                assert census.same_group(predicted_finite_cokernel(p, n, k)), (p, n, k)
            n += 1


def test_enumeration_matches_prediction_at_depth():
    for p in [3, 5, 7, 11]:
        for n in [2, 3, 4]:
            if p**n > FINITE_LEVEL_CAP:
                continue
            for k in range(1, 13):
                got = verify_cokernel_finite_level(p, n, k)
                assert got.same_group(predicted_finite_cokernel(p, n, k))


def test_levels_saturate_past_the_p_part():
    # p = 3, k = 9: the 3-part grows 3, 9 and then freezes at 9
    assert verify_cokernel_finite_level(3, 2, 9).same_group(cyclic(3))
    for n in [3, 4, 5, 6]:
        assert verify_cokernel_finite_level(3, n, 9).same_group(cyclic(9))
    # p = 2, k = 8: sign part constant, 2-part grows 2, 4, 8 and freezes
    assert verify_cokernel_finite_level(2, 3, 8).same_group(AbelianStructure((2, 2)))
    assert verify_cokernel_finite_level(2, 4, 8).same_group(AbelianStructure((2, 4)))
    for n in [5, 6, 7, 8]:
        assert verify_cokernel_finite_level(2, n, 8).same_group(
            AbelianStructure((2, 8))
        )


def test_saturated_level_equals_report_unit_part():
    # for n > m + 1 the finite cokernel is the unit-group part of the report:
    # everything except the Z_k coming from the valuation coordinate
    for p, k in [(3, 6), (3, 9), (5, 10), (7, 7), (5, 4), (2, 4), (2, 12), (2, 7)]:
        report = power_map_report(p, k)
        n = report.m + 2 if p != 2 else report.m + 3
        level = verify_cokernel_finite_level(p, n, k)
        if p == 2:
            unit_part = AbelianStructure(
                tuple(f for f in (math.gcd(2, k), 2**report.m) if f > 1)
            )
        else:
            unit_part = AbelianStructure(
                tuple(f for f in (report.d2, p**report.m) if f > 1)
            )
        assert level.same_group(unit_part)


def test_two_adic_levels():
    # squares mod 2^n: index 4 for n >= 3 (the [2,2] shadow of [2,2,2])
    for n in [3, 4, 5, 6, 10]:
        assert verify_cokernel_finite_level(2, n, 2).same_group(
            AbelianStructure((2, 2))
        )
    assert verify_cokernel_finite_level(2, 2, 2).same_group(cyclic(2))
    assert verify_cokernel_finite_level(2, 1, 2).order() == 1


def test_finite_level_rejects_bad_input():
    with pytest.raises(ModulusTooLarge):
        verify_cokernel_finite_level(3, 12, 2)
    with pytest.raises(NotPrime):
        verify_cokernel_finite_level(6, 2, 2)
    with pytest.raises(DomainError):
        verify_cokernel_finite_level(3, 0, 2)
    with pytest.raises(DomainError):
        verify_cokernel_finite_level(3, 2, 0)


def test_cokernel_order_divides_group_order():
    for p, n in [(3, 3), (5, 2), (2, 6), (11, 2)]:
        phi = p**n - p ** (n - 1)
        for k in range(1, 13):
            got = verify_cokernel_finite_level(p, n, k)
            assert phi % got.order() == 0
