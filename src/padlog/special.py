"""Special pairs: bases whose discrete log permutes its exponent group maximally.

A pair of integers (a, b) is special mod p^n when three things hold: both
are coprime to p, a and b generate the same subgroup of the units, and the
discrete log x_o of b base a (which is then automatically coprime to
ord(a)) has the maximum possible multiplicative order mod ord(a).  In that
case e -> x_o * e is an automorphism of Z_ord(a) of full order, and the
permutation it induces on {1 .. ord(a)-1} is the object tabulated here.
"""

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    InternalInvariantError,
    ModulusTooLarge,
    NotCoprime,
)
from .residue import ANALYZE_CAP, _cap, _require_prime, group_structure, order_mod
from .solver import solve_by_lifting

# failed-condition codes, in the order the definition lists them
COPRIMALITY = "coprimality"
SUBGROUP_MISMATCH = "subgroup-mismatch"
X_ORDER_NOT_MAXIMAL = "x-order-not-maximal"


@dataclass(frozen=True)
class SpecialPairReport:
    """Condition-by-condition analysis of a candidate special pair.

    ``failed_condition`` names the first failing condition (None when the
    pair is special).  Fields that stop making sense once a condition fails
    are None: without coprimality there are no orders, and without a
    coprime discrete log there is no x_order.  ``max_possible`` is the
    exponent of the automorphism group Z_ord(a)^*.
    """

    a: int
    b: int
    p: int
    n: int
    is_special: bool
    failed_condition: str | None
    x_o: int | None
    ord_a: int | None
    x_order: int | None
    max_possible: int | None


@dataclass(frozen=True)
class CycleDecomposition:
    """The multiplication-by-x permutation of {1 .. modulus-1}, in cycles.

    Each cycle starts at its smallest element and the cycles are sorted by
    those starting points; fixed points appear as explicit 1-cycles.
    """

    x: int
    modulus: int
    cycles: tuple

    def compact(self):
        """Single-line cycle notation, e.g. '(1 3)(2 6)(4)(5 7)'."""
        return "".join("(" + " ".join(str(t) for t in c) + ")" for c in self.cycles)


def _max_possible_order(ord_a):
    """Exponent of Z_ord(a)^*: the largest order an automorphism can have."""
    if ord_a <= 2:
        return 1
    return group_structure(ord_a).exponent()


def analyze_pair(a, b, p, n):
    """Evaluate the three special-pair conditions for (a, b) mod p^n.

    Conditions are checked in definition order and the first failure is
    recorded; later fields are still filled in whenever they remain
    meaningful (the dlog x_o exists for any member of <a>, but its order
    only makes sense when the subgroups match).
    """
    _require_prime(p)
    if n < 1:
        raise DomainError("the level must be a positive integer")
    modulus = p**n
    if modulus > _cap(ANALYZE_CAP):
        raise ModulusTooLarge(
            "p^n = %d exceeds the pair-analysis cap (set PADLOG_MAX_MODULUS to raise it)"
            % modulus
        )
    if math.gcd(a, modulus) != 1 or math.gcd(b, modulus) != 1:
        return SpecialPairReport(
            a=a, b=b, p=p, n=n,
            is_special=False, failed_condition=COPRIMALITY,
            x_o=None, ord_a=None, x_order=None, max_possible=None,
        )
    ord_a = order_mod(a, modulus)
    # the climb's x_n is the smallest positive solution mod p^n
    x_o = solve_by_lifting(a, b, p, n).x
    max_possible = _max_possible_order(ord_a)
    # ord(a^x) = ord(a) / gcd(x, ord a), so <b> = <a> exactly when b = a^x_o
    # with x_o prime to ord(a)
    if x_o is None or math.gcd(x_o, ord_a) != 1:
        return SpecialPairReport(
            a=a, b=b, p=p, n=n,
            is_special=False, failed_condition=SUBGROUP_MISMATCH,
            x_o=x_o, ord_a=ord_a, x_order=None, max_possible=max_possible,
        )
    x_order = order_mod(x_o, ord_a)
    is_special = x_order == max_possible
    return SpecialPairReport(
        a=a, b=b, p=p, n=n,
        is_special=is_special,
        failed_condition=None if is_special else X_ORDER_NOT_MAXIMAL,
        x_o=x_o, ord_a=ord_a, x_order=x_order, max_possible=max_possible,
    )


def cycle_decomposition(x, modulus):
    """Cycles of t -> x*t mod modulus on {1 .. modulus-1}.

    Walking from the smallest untouched element automatically starts every
    cycle at its own minimum and emits cycles sorted by those minima.
    """
    if modulus < 1:
        raise DomainError("the modulus must be a positive integer")
    if math.gcd(x, modulus) != 1:
        raise NotCoprime("the multiplier must be coprime to the modulus")
    x %= modulus
    seen = [False] * modulus
    cycles = []
    for start in range(1, modulus):
        if seen[start]:
            continue
        cycle = []
        t = start
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = t * x % modulus
        if t != start:
            raise InternalInvariantError("multiplication by a unit must close its cycles")
        cycles.append(tuple(cycle))
    return CycleDecomposition(x=x, modulus=modulus, cycles=tuple(cycles))
