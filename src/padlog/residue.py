"""Finite-level facts about the unit groups mod p^n.

Element orders, how the order of a fixed integer grows with the level n,
the abelian structure of (Z/nZ)^*, the one discrete log mod p the solvers
use (Pohlig-Hellman with baby-step giant-step), the one inverse mod p^k of
a full-size unit (Newton's iteration above a word-size base case), and a
deliberately naive discrete-log-by-enumeration oracle that anchors every
cleverer solver in the package.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import sympy

from .errors import (
    AIsOne,
    DomainError,
    InternalInvariantError,
    ModulusTooLarge,
    NotCoprime,
    NotPrime,
)

# The package's caps on brute-force work and output size, in one place.  The
# environment variable PADLOG_MAX_MODULUS, read through _cap, replaces
# BRUTE_DLOG_CAP and ANALYZE_CAP only; the others are fixed.
#: largest p^n that brute_dlog enumerates
BRUTE_DLOG_CAP = 10**7
#: largest p^n that special.analyze_pair analyzes
ANALYZE_CAP = 10**6
#: baby steps one discrete log mod p may tabulate: prime factors of the
#: order up to about 10^12; a larger one raises ModulusTooLarge
BSGS_MAX_BABY_STEPS = 2**20
#: largest p^n at which quotient.verify_cokernel_finite_level works
FINITE_LEVEL_CAP = 10**5
#: unit-group size up to which that check also runs the literal per-element
#: census, cross-checked against the generator decomposition
CENSUS_LIMIT = 500
#: most decimal digits of an int the CLI converts, from text or to text:
#: CPython's default limit in both directions.  A longer integer argument
#: is refused; the dlog lift and units routes print integers below
#: p^(N + 2), so they refuse a run with p^(N + 2) > 10^this before solving;
#: the log route prints digits only and has no such cap
PRINTED_EXPONENT_DIGITS = 4300
#: largest bound `padlog proot --through` lists to: each prime q of the
#: range costs O(q) and prints about q/4 roots, so time and output grow as
#: the square of the bound (from 3 to this bound, 7.6 MB of output and
#: about 5 s on a 2-vCPU x86 host)
PROOT_THROUGH_CAP = 10**4
#: largest prime that primroot.all_stable_roots (and `padlog proot -p`)
#: takes: it costs O(p) time and a p-byte flag array, and at the largest
#: prime below this cap, 999983, `proot -p` takes about 4 s, prints
#: 3.4 MB and peaks at about 110 MB on a 2-vCPU x86 host
PROOT_PRIME_CAP = 10**6


def _cap(default):
    """BRUTE_DLOG_CAP or ANALYZE_CAP, unless PADLOG_MAX_MODULUS replaces it."""
    value = os.environ.get("PADLOG_MAX_MODULUS")
    return int(value) if value else default


# Large enough for every prime up to FINITE_LEVEL_CAP (9,592 of them) and
# the other arguments the census reaches; full, it holds about 2.8 MB
# (about 170 bytes an entry).
@functools.lru_cache(maxsize=1 << 14, typed=True)
def _is_prime(p):
    """The package's one prime test, memoized."""
    return bool(sympy.isprime(p))


def _require_prime(p):
    """The one prime guard of the package."""
    if not _is_prime(p):
        raise NotPrime("%d is not prime" % p)


def _vp(z, p):
    """v_p(z) for a nonzero integer z."""
    v = 0
    while z % p == 0:
        z //= p
        v += 1
    return v


#: bits of the largest p^j that _inverse_mod inverts with pow(u, -1, p^j):
#: CPython's pow runs Euclid's algorithm, quadratic in the size of the
#: modulus but cheapest at word size.  Measured on a 2-vCPU x86 host with
#: CPython 3.11, pow against one or two Newton steps from a smaller base:
#: 1.1 against 1.2 us at 2^32, 1.5 against 1.1 us at 2^40, 3.5 against
#: 1.7 us at 2^64
_INVERSE_BASE_BITS = 32


def _inverse_mod(u, p, k):
    """u^(-1) mod p^k for an integer u prime to p.

    Newton's iteration (Brent and Zimmermann, Modern Computer Arithmetic,
    2.5): an inverse x right mod p^h gives x (2 - u x) right mod p^(2h).
    The precisions k, ceil(k/2), ... are taken from the top down until
    p^j <= 2^_INVERSE_BASE_BITS, where pow inverts; each step then doubles
    the digits, so the cost is a few multiplies at full size instead of
    Euclid's quadratic count.  A u divisible by p raises ValueError, as
    pow does.
    """
    j = _INVERSE_BASE_BITS // (p - 1).bit_length() or 1  # p^j <= 2^bits
    ladder = []
    while k > j:
        ladder.append(k)
        k = (k + 1) // 2
    pm = p**k
    x = pow(u % pm, -1, pm)
    for m in reversed(ladder):
        pm = pm * pm if m % 2 == 0 else pm * pm // p  # m = 2k or 2k - 1
        x = x * (2 - u % pm * x) % pm
    return x


@functools.lru_cache(maxsize=4096)
def _factorization(n):
    """``sympy.factorint(n)`` as ((q, e), ...), memoized.

    Group orders and totients recur across calls (every cyclic factor of a
    cokernel check, every order at a fixed modulus), so each is factored
    once.
    """
    return tuple(sympy.factorint(n).items())


# ---------------------------------------------------------------------------
# group structure bookkeeping


@dataclass(frozen=True)
class AbelianStructure:
    """A finite abelian group as a list of cyclic factor sizes.

    ``factors`` keeps the construction-order convention (per prime component:
    the part of order coprime to p, then the p-part).  ``cyclic_order`` is
    the merged single-generator order when the group is cyclic, else None.
    Structural comparisons should go through elementary divisors, which are
    representation-independent.
    """

    factors: tuple
    cyclic_order: int | None = None

    def order(self):
        out = 1
        for f in self.factors:
            out *= f
        return out

    def exponent(self):
        return math.lcm(*self.factors) if self.factors else 1

    def elementary_divisors(self):
        """Sorted multiset of prime-power cyclic pieces."""
        pieces = []
        for f in self.factors:
            for q, e in _factorization(f):
                pieces.append(q**e)
        return tuple(sorted(pieces))

    def invariant_factors(self):
        """Ascending chain d_1 | d_2 | ... | d_k with the same product."""
        by_prime = {}
        for f in self.factors:
            for q, e in _factorization(f):
                by_prime.setdefault(q, []).append(q**e)
        for q in by_prime:
            by_prime[q].sort(reverse=True)
        depth = max((len(v) for v in by_prime.values()), default=0)
        chain = []
        for i in range(depth):
            d = 1
            for q in by_prime:
                if i < len(by_prime[q]):
                    d *= by_prime[q][i]
            chain.append(d)
        return tuple(sorted(chain))

    def same_group(self, other):
        return self.elementary_divisors() == other.elementary_divisors()

    @classmethod
    def trivial(cls):
        return cls(factors=(), cyclic_order=1)


@functools.lru_cache(maxsize=4096)
def _finite(*orders):
    """Finite abelian group from cyclic factor sizes, dropping trivial ones.

    Memoized: the groups are immutable and the same few factor lists recur
    across every check.
    """
    factors = tuple(f for f in orders if f > 1)
    group = AbelianStructure(factors)
    invariants = group.invariant_factors()
    if len(invariants) <= 1:
        return AbelianStructure(factors, cyclic_order=invariants[0] if invariants else 1)
    return group


def structure_from_power_counts(group_order, count_fn):
    """Rebuild an abelian group from the counts N_d = #{x : x^d = identity}.

    For each prime q, log_q N_{q^j} determines the conjugate of the
    partition describing the q-part, which pins the group down completely.
    ``count_fn(d)`` must return N_d.
    """
    if group_order == 1:
        return AbelianStructure.trivial()
    pieces = []
    for q, _ in _factorization(group_order):
        heights = []  # m_j = number of cyclic q-factors of size >= q^j
        prev = 1
        j = 1
        while True:
            c = count_fn(q**j)
            if c == prev:
                break
            ratio = c // prev
            m = 0
            while ratio > 1:
                ratio //= q
                m += 1
            if c != prev * q**m:
                raise InternalInvariantError(
                    "power count %d is not a power of %d times %d" % (c, q, prev)
                )
            heights.append(m)
            prev = c
            j += 1
        if heights:
            n_factors = heights[0]
            for i in range(n_factors):
                lam = sum(1 for m in heights if m >= i + 1)
                pieces.append(q**lam)
    check = 1
    for piece in pieces:
        check *= piece
    if check != group_order:
        raise InternalInvariantError(
            "census rebuilt order %d instead of %d" % (check, group_order)
        )
    return AbelianStructure(factors=tuple(sorted(pieces)))


# ---------------------------------------------------------------------------
# totient and orders


def euler_phi(n):
    """Count of residues coprime to n, by factorization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = n
    for q, _ in _factorization(n):
        out -= out // q
    return out


def order_mod(a, modulus):
    """Exact multiplicative order of a mod modulus.

    Starts from phi(modulus) and strips prime factors while the power
    still lands on 1.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime("gcd(%d, %d) != 1" % (a, modulus))
    t = euler_phi(modulus)
    for q, _ in _factorization(t):
        while t % q == 0 and pow(a, t // q, modulus) == 1:
            t //= q
    return t


@dataclass(frozen=True)
class OrderProfile:
    """Order of a fixed integer in (Z/p^n Z)^* as the level n grows.

    ``stable_exponent`` is the largest level at which the order still equals
    the level-1 order; beyond it the order is multiplied by p per level.
    ``torsion`` marks bases of finite multiplicative order (a = -1), whose
    order never starts growing; their stable window is the whole range.
    """

    a: int
    p: int
    rows: tuple
    stable_exponent: int
    torsion: bool = False

    @property
    def x_o(self):
        return self.rows[0][1]


def order_profile(a, p, n_max):
    """Order of a in (Z/p^n Z)^* for n = 1 .. n_max, from one order mod p.

    The order law: reduction mod p^n -> p^(n-1) has a kernel of order p
    (p = 2 included), so ord mod p^n is ord mod p^(n-1) when a^ord = 1
    mod p^n, and p times it otherwise.
    """
    _require_prime(p)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if a == 1:
        raise AIsOne("the profile of 1 is constant and excluded")
    if a % p == 0:
        raise NotCoprime("p divides a")
    torsion = a == -1
    if p == 2 and a % 4 == 3 and not torsion:
        raise DomainError(
            "at base 2 the constant-prefix order law needs a = 1 (mod 4); "
            "profile -a or a^2 instead"
        )
    order = order_mod(a, p)
    rows = [(1, order)]
    for n in range(2, n_max + 1):
        if pow(a, order, p**n) != 1:
            order *= p
        rows.append((n, order))
    stable = n_max if torsion else sum(1 for _, o in rows if o == rows[0][1])
    return OrderProfile(
        a=a, p=p, rows=tuple(rows), stable_exponent=stable, torsion=torsion
    )


# ---------------------------------------------------------------------------
# discrete logs


def brute_dlog(a, b, p, n):
    """Smallest x in [1, ord(a)] with a^x = b mod p^n, by pure enumeration.

    This is an oracle for tests and small cases, not the product; the
    modulus is capped (override with PADLOG_MAX_MODULUS).
    """
    _require_prime(p)
    m = p**n
    if m > _cap(BRUTE_DLOG_CAP):
        raise ModulusTooLarge("p^n = %d exceeds the brute-force cap" % m)
    a %= m
    b %= m
    if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
        raise NotCoprime("both arguments must be coprime to p")
    order = order_mod(a, m)
    cur = a
    for x in range(1, order + 1):
        if cur == b:
            return x
        cur = (cur * a) % m
    return None


def _dlog_prime_order(g, h, q, p):
    """x in [0, q) with g^x = h mod p, for g of prime order q and h in <g>.

    Baby-step giant-step: a table of g^i for i < s, s = ceil(sqrt(q)), then
    giant steps h * g^(-s k) until one lands in it.
    """
    s = math.isqrt(q - 1) + 1
    if s > BSGS_MAX_BABY_STEPS:
        raise ModulusTooLarge(
            "a discrete log mod %d needs %d baby steps for the prime factor %d "
            "of the order; the cap is %d" % (p, s, q, BSGS_MAX_BABY_STEPS)
        )
    baby = {}
    cur = 1
    for i in range(s):
        baby[cur] = i
        cur = cur * g % p
    giant = pow(g, -s, p)
    for k in range(s):
        if h in baby:
            return k * s + baby[h]
        h = h * giant % p
    raise InternalInvariantError("no giant step met a baby step of %d mod %d" % (g, p))


def _dlog_mod_p(a, b, p, order):
    """Smallest x in [0, order) with a^x = b mod p, or None if b is not in <a>.

    ``order`` must be the exact order of a mod p.  Pohlig-Hellman: for each
    prime power q^e of the order, the digits of x mod q^e come one at a time
    from a log in the subgroup of order q, and CRT glues the residues.  The
    cost is O(sum e * sqrt(q)) multiplies mod p.  The primes q come from the
    memoized factorization of p - 1, which the order divides.
    """
    a %= p
    b %= p
    if pow(b, order, p) != 1:
        return None  # <a> is the unique subgroup of its order in (Z/p)^*
    x = 0
    for q, _ in _factorization(p - 1):
        e = _vp(order, q)
        if not e:
            continue
        qe = q**e
        cofactor = order // qe
        g, h = pow(a, cofactor, p), pow(b, cofactor, p)  # the order-q^e parts
        gamma = pow(g, qe // q, p)  # order q
        xq = 0
        for k in range(e):
            # h * g^(-xq) has order dividing q^(e-k): its next digit is a log
            # in <gamma>
            hk = pow(h * pow(g, -xq, p), q ** (e - 1 - k), p)
            xq += _dlog_prime_order(gamma, hk, q, p) * q**k
        x += xq * cofactor * pow(cofactor, -1, qe)
    return x % order


def group_structure(n):
    """Cyclic factor sizes of (Z/nZ)^* assembled prime component by prime
    component: trivial at 2, [2] at 4, [2, 2^(k-2)] at higher 2-powers, and
    [q-1, q^(k-1)] at odd prime powers.  Cyclic exactly when that leaves at
    most one invariant factor."""
    if n < 2:
        raise ValueError("n must be >= 2")
    factors = []
    for q, k in sorted(_factorization(n)):
        factors += [2, 2 ** (k - 2)] if q == 2 and k >= 2 else [q - 1, q ** (k - 1)]
    return _finite(*factors)
