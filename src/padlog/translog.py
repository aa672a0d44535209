"""p-adic exponential and logarithm by exact integer arithmetic.

exp converges on values divisible by p (by 4 when p = 2); log converges on
units congruent to 1 mod p (mod 4 when p = 2), and the two are mutually
inverse isometries between those regions.  Both results are exact modulo
p^K for the working precision K; they depend only on the input mod p^K.

log u is taken as p^(-k) log(u^(p^k)) (Satoh, Skjernaa and Taguchi):
raising u to the p^k-th power at K + k digits deepens u - 1 by k, so the
series needs T = about (K + k) / (c + k) terms instead of K / c, where
c = v(u - 1).  The series is summed by rectangular splitting (Paterson and
Stockmeyer; Brent and Zimmermann, Modern Computer Arithmetic, 4.4.3).
Scaled by D = lcm(1..T), every coefficient +-D/n is an integer of about
1.44 T bits.  The powers w^2..w^s, s = ceil(sqrt(T)), are formed once, and
Horner's rule in w^s runs over blocks of s terms, each block a sum of small
multiples of the stored powers: about 2 sqrt(T) full-size products in all.
Dividing by the p-part of D is exact, and the inverse of its p-free part
depends only on p, K and c, so it is taken once per series shape and
cached.  The power costs about k log2(p) squarings; a series product,
with its block and its reduction, measures about two squarings, so k is
chosen to minimize k log2(p) + 4 sqrt((K + k) / (c + k)), which for k
small against K puts c + k near (4 K / log2(p)^2)^(1/3).  At small K, a k
that leaves a single term w is taken when it needs at most
ONE_TERM_SQUARINGS squarings.

exp x is the Newton inverse of log: y <- y (1 + x - log y), doubling the
correct digits each step.  Since log is an isometry, the final check
log y = x mod p^K proves y = exp x mod p^K.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .errors import (
    DomainError,
    InsufficientPrecision,
    InternalInvariantError,
    NotPrincipalUnit,
)
from .padic import PAdicInt
from .residue import _inverse_mod, _vp


def padic_exp(x, precision=None):
    """The p-adic exponential, sum of x^n / n!.

    Needs v(x) >= 1, and >= 2 when p = 2, or the series diverges.
    The result carries the precision of x (or the explicit override,
    if smaller).
    """
    x.require_prime_base()
    p = x.base
    K = x.precision if precision is None else min(precision, x.precision)
    if K < 1:
        raise InsufficientPrecision("need at least one digit of working precision")
    X = x.residue % p**K
    min_v = 2 if p == 2 else 1
    if X == 0:
        # zero to working precision: every term past 1 is invisible; the
        # answer is exactly 1 only when the input is exactly 0
        if x._int_value == 0:
            return PAdicInt.from_integer(1, p, K)
        return PAdicInt._of(p, 1, K)
    v = _vp(X, p)
    if v < min_v:
        raise DomainError(
            "exp needs v(x) >= %d at p = %d; got %d" % (min_v, p, v)
        )
    # y = 1 is exp x mod p^v; a step from m right digits gives 2m (2m - 1
    # at p = 2, where e^2 / 2 loses one)
    y, m = 1, v
    while m < K:
        m = min(2 * m - (p == 2), K)
        y = y * (1 + X - _log_mod(y, p, m)) % p**m
    if _log_mod(y, p, K) != X:
        raise InternalInvariantError("exp failed its certificate log y = x")
    return PAdicInt._of(p, y, K)


def padic_log(u, precision=None):
    """The p-adic logarithm, sum of -(-1)^n (u - 1)^n / n.

    Needs u = 1 mod p, and mod 4 when p = 2: exactly the region where the
    series converges and log is injective.  Exact input 1 gives exact 0.
    """
    u.require_prime_base()
    p = u.base
    K = u.precision if precision is None else min(precision, u.precision)
    if K < 1:
        raise InsufficientPrecision("need at least one digit of working precision")
    min_c = 2 if p == 2 else 1
    if p == 2 and u.precision < 2:
        raise InsufficientPrecision("cannot see mod 4 with one digit")
    head = u.residue % p**min_c
    if head != 1:
        raise NotPrincipalUnit(
            "log needs u = 1 mod %d; got residue %d" % (p**min_c, head)
        )
    if u._int_value == 1:
        return PAdicInt.from_integer(0, p, K)
    # when u - 1 is invisible at this precision, so is log u
    return PAdicInt._of(p, _log_mod(u.residue, p, K), K)


#: squarings the p^k power may spend to leave a one-term log series: the
#: general series path costs about that much interpreter time at small K
ONE_TERM_SQUARINGS = 8


def _log_mod(u, p, K):
    """log u mod p^K for an integer u = 1 mod p (mod 4 when p = 2)."""
    if (u - 1) % (4 if p == 2 else p):
        # outside the region the series diverges, which the p^k power could hide
        raise InternalInvariantError("log of a unit that is not principal")
    pK = p**K
    z = (u - 1) % pK
    if z == 0:
        return 0  # v(log u) = v(u - 1) >= K
    c = _vp(z, p)
    k, T, e, scale = _series_shape(p, K, c)
    pk = p**k
    top, ptop = K + k, pK * pk
    w = (pow(u, pk, ptop) - 1) % ptop
    if T == 1:
        return w // pk  # a one-term series is w itself
    c += k  # each p-th power deepens a principal unit by exactly one
    _, s, blocks = _series_blocks(T)
    pe = p**e  # the p-part of D
    modulus = ptop * pe
    powers = [w]  # w^1..w^s
    for _ in range(s - 1):
        powers.append(powers[-1] * w % modulus)
    # Horner in w^s from the top block down.  Block i ends up multiplied by
    # w^(i s), which carries i s c factors of p, so it is needed only mod
    # p^(top + e - i s c)
    step = p ** (s * c)
    m = p ** (top + e - (len(blocks) - 1) * s * c)
    acc = 0
    for block in blocks:
        acc = (acc * powers[-1] + sum(map(mul, block, powers))) % m
        m *= step
    # acc = D log(1 + w) mod p^(top + e), and scale = (D / p^e)^(-1) mod ptop
    return acc // pe * scale % ptop // pk


@functools.lru_cache(maxsize=1024)
def _series_shape(p, K, c):
    """(k, T, e, scale) for log mod p^K of a unit u with v(u - 1) = c, cached.

    k minimizes the cost model of the module docstring, its minimum
    rounded up (at small K a squaring costs less than its share), unless
    the least k that leaves a one-term series, w itself, needs at most
    ONE_TERM_SQUARINGS squarings.  T counts the terms w^n / n that survive
    mod p^(K + k): w has depth c + k, and the first n with
    n (c + k) - floor_log(n) >= K + k lies at or above (K + k) / (c + k).
    e = v_p(lcm(1..T)), and scale = (lcm(1..T) / p^e)^(-1) mod p^(K + k),
    the one division of the series (1 when T = 1, where there is none).
    """
    k = max(0, K - 2 * c + (p == 2))  # w^2 / 2 vanishes from this k on
    if k * math.log2(p) > ONE_TERM_SQUARINGS:
        k = max(0, math.ceil((4 * K / math.log2(p) ** 2) ** (1 / 3)) - c)
    top, c = K + k, c + k
    n = -(-top // c)
    while n * c - _floor_log(n, p) < top:
        n += 1
    T, e = n - 1, _floor_log(n - 1, p)
    scale = _inverse_mod(_series_blocks(T)[0] // p**e, p, top) if T > 1 else 1
    return k, T, e, scale


@functools.lru_cache(maxsize=32)
def _series_blocks(T):
    """(D, s, blocks) for the T-term log series, D = lcm(1..T).

    The coefficient of w^n is +-D/n; blocks holds them in runs of
    s = ceil(sqrt(T)), the run for w^(i s + 1)..w^(i s + s) at index i
    from the end, since Horner's rule reads the highest run first.  They
    depend on T alone, and a series at a given precision and depth has the
    same T every time.
    """
    D = math.lcm(*range(1, T + 1))
    coeffs = [D // n if n % 2 else -(D // n) for n in range(1, T + 1)]
    s = math.isqrt(T - 1) + 1
    return D, s, tuple(tuple(coeffs[i : i + s]) for i in range((T - 1) // s * s, -1, -s))


def _floor_log(n, p):
    """Largest e with p^e <= n."""
    e = 0
    q = p
    while q <= n:
        e += 1
        q *= p
    return e


# ---------------------------------------------------------------------------
# powers of principal units


def padic_pow(a, x):
    """a^x for a principal unit a and any p-adic integer exponent x,
    as exp(x log a); agrees with repeated multiplication on integer x."""
    a.require_prime_base()
    p = a.base
    if isinstance(x, int):
        x = PAdicInt.from_integer(x, p, a.precision)
    if x.base != p:
        raise DomainError("exponent lives over base %d, value over %d" % (x.base, p))
    la = padic_log(a)
    return padic_exp(x * la)
