"""Structure of the k-th power map on the p-local multiplicative group.

The nonzero p-local numbers split as three independent coordinates: an
infinite cyclic valuation coordinate, a finite cyclic torsion coordinate
(order p-1 for odd p, order 2 for p = 2), and a principal-unit coordinate
isomorphic to the additive p-adic integers.  Raising to the k-th power acts
on each coordinate separately, so its image, kernel, and both quotients have
closed forms; :func:`power_map_report` assembles them.  The infinite
coordinates can never be enumerated, but their finite shadows at level p^n
can: :func:`verify_cokernel_finite_level` computes the cokernel of x -> x^k
on the units mod p^n by literal element census (small moduli) and by an
order-verified generator decomposition (all moduli), and insists the two
agree with the closed-form prediction.
"""

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, InternalInvariantError, ModulusTooLarge
from .primroot import _smallest_generator, is_primitive_root, stabilize
from .residue import (
    CENSUS_LIMIT,
    FINITE_LEVEL_CAP,
    AbelianStructure,
    _finite,
    _require_prime,
    _vp,
    order_mod,
    structure_from_power_counts,
)


@dataclass(frozen=True)
class SymbolicAbelian:
    """An abelian group with up to two marked infinite coordinates.

    ``z_scale`` = s stands for the subgroup s*Z of the valuation line (None
    when that coordinate is absent); ``unit_scale`` = e stands for the
    subgroup of the principal-unit line corresponding to p^e times the
    additive p-adic integers (None when absent).  ``finite`` holds the
    finite cyclic factors.  The infinite coordinates are carried
    symbolically because no finite enumeration can see them; only
    ``finite`` is ever compared against element counts.
    """

    z_scale: int | None
    unit_scale: int | None
    finite: AbelianStructure


@dataclass(frozen=True)
class PowerMapReport:
    """Image / kernel / quotient data of x -> x^k on the p-local numbers.

    d1 = (p-1)/gcd(p-1, k) and d2 = gcd(p-1, k) describe the torsion
    coordinate; m = v_p(k) describes the principal-unit coordinate.  The
    kernel and the codomain-mod-image are finite groups; the image and the
    domain-mod-kernel keep their infinite coordinates as symbolic marks.
    """

    p: int
    k: int
    d1: int
    d2: int
    m: int
    image: SymbolicAbelian
    kernel: AbelianStructure
    domain_mod_kernel: SymbolicAbelian
    codomain_mod_image: AbelianStructure


def power_map_report(p, k):
    """Closed-form structure of the k-th power map over the p-local numbers.

    Case analysis: odd p with k coprime / not coprime to p, and p = 2 with
    k even / odd (the torsion coordinate of the 2-local numbers is {1, -1},
    which squares away exactly when k is even).
    """
    _require_prime(p)
    if k < 1:
        raise DomainError("the power-map exponent must be a positive integer")
    d2 = math.gcd(p - 1, k)
    d1 = (p - 1) // d2
    m = _vp(k, p)
    if p == 2:
        if k % 2 == 0:
            image = SymbolicAbelian(z_scale=k, unit_scale=m, finite=_finite())
            kernel = _finite(2)
            domain_mod_kernel = SymbolicAbelian(z_scale=1, unit_scale=0, finite=_finite())
            codomain_mod_image = _finite(k, 2, 2**m)
        else:
            image = SymbolicAbelian(z_scale=k, unit_scale=0, finite=_finite(2))
            kernel = _finite()
            domain_mod_kernel = SymbolicAbelian(z_scale=1, unit_scale=0, finite=_finite(2))
            codomain_mod_image = _finite(k)
    else:
        image = SymbolicAbelian(z_scale=k, unit_scale=m, finite=_finite(d1))
        kernel = _finite(d2)
        domain_mod_kernel = SymbolicAbelian(z_scale=1, unit_scale=0, finite=_finite(d1))
        codomain_mod_image = _finite(k, d2, p**m)
    return PowerMapReport(
        p=p,
        k=k,
        d1=d1,
        d2=d2,
        m=m,
        image=image,
        kernel=kernel,
        domain_mod_kernel=domain_mod_kernel,
        codomain_mod_image=codomain_mod_image,
    )


def predicted_finite_cokernel(p, n, k):
    """Cokernel of x -> x^k on the units mod p^n, by the closed form.

    The unit-group portion of :func:`power_map_report`'s quotient, with each
    infinite-depth factor cut down to what level n can hold: the p-part
    saturates at p^(n-1) for odd p and at 2^(n-2) for p = 2.  For
    n > m + 1 this equals the full prediction's finite unit part.
    """
    _require_prime(p)
    if n < 1 or k < 1:
        raise DomainError("level and exponent must be positive integers")
    m = _vp(k, p)
    if p == 2:
        if n == 1:
            return _finite()
        if n == 2:
            return _finite(math.gcd(2, k))
        return _finite(math.gcd(2, k), 2 ** min(m, n - 2))
    return _finite(math.gcd(p - 1, k), p ** min(m, n - 1))


@functools.lru_cache(maxsize=None)
def _verified_generators(p, n):
    """Independent generators of the units mod p^n with their orders checked.

    Odd p (and p = 2 at levels 1..2): one verified generator of the full
    cyclic group.  p = 2 at level >= 3: the pair (-1, 3), checked to have
    orders 2 and 2^(n-2) and trivial intersection, so they generate the
    whole group directly.
    """
    modulus = p**n
    if p == 2:
        if n == 1:
            return ()
        if n == 2:
            if not is_primitive_root(3, 2, 2):
                raise InternalInvariantError("3 should generate the units mod 4")
            return ((3, 2),)
        half = 2 ** (n - 2)
        if order_mod(3, modulus) != half:
            raise InternalInvariantError("3 should have order 2^(n-2) mod 2^n")
        # the only order-2 power of 3 must not be -1, else <-1> meets <3>
        if pow(3, half // 2, modulus) == modulus - 1:
            raise InternalInvariantError("<-1> and <3> should intersect trivially")
        return ((modulus - 1, 2), (3, half))
    if n == 1:
        return ((_smallest_generator(p), p - 1),)
    phi = (p - 1) * p ** (n - 1)
    root = stabilize(_smallest_generator(p), p).root
    if not is_primitive_root(root, p, n):
        raise InternalInvariantError("generator failed its order check mod p^n")
    return ((root, phi),)


def _indexed_cokernel(p, n, k):
    """Cokernel of x -> x^k via verified generators and exponent arithmetic.

    On a cyclic coordinate of order N the image of multiplication by k is
    gcd(k, N) * Z_N, with quotient Z_gcd(k, N); the direct factors are
    independent, so the cokernel is assembled factor by factor.
    """
    generators = _verified_generators(p, n)
    return _finite(*(math.gcd(k, order) for _, order in generators))


def _census_cokernel(modulus, p, k):
    """Cokernel of x -> x^k by literal enumeration of the units mod p^n.

    Builds the image set, then reconstructs the quotient group from the
    counts of cosets killed by each prime power (a coset c satisfies
    c^d = identity exactly when any representative's d-th power lands in
    the image).
    """
    units = [x for x in range(1, modulus) if x % p != 0]
    image = {pow(x, k, modulus) for x in units}
    quotient_order = len(units) // len(image)

    def count_fn(d):
        return sum(1 for x in units if pow(x, d, modulus) in image) // len(image)

    return structure_from_power_counts(quotient_order, count_fn)


def verify_cokernel_finite_level(p, n, k):
    """Cokernel of x -> x^k on the units mod p^n, verified two to three ways.

    Always runs the generator decomposition and checks it against the
    closed-form prediction; on small groups (at most CENSUS_LIMIT units)
    additionally runs the literal element census and checks that too.
    Raises ModulusTooLarge above the 10^5 level cap.
    """
    _require_prime(p)
    if n < 1 or k < 1:
        raise DomainError("level and exponent must be positive integers")
    modulus = p**n
    if modulus > FINITE_LEVEL_CAP:
        raise ModulusTooLarge(
            "p^n = %d exceeds the finite-level cap %d" % (modulus, FINITE_LEVEL_CAP)
        )
    predicted = predicted_finite_cokernel(p, n, k)
    indexed = _indexed_cokernel(p, n, k)
    if not indexed.same_group(predicted):
        raise InternalInvariantError(
            "generator decomposition disagrees with the closed form at p=%d n=%d k=%d"
            % (p, n, k)
        )
    if modulus - modulus // p <= CENSUS_LIMIT:
        census = _census_cokernel(modulus, p, k)
        if not census.same_group(indexed):
            raise InternalInvariantError(
                "census disagrees with the generator decomposition at p=%d n=%d k=%d"
                % (p, n, k)
            )
        return census
    return indexed
