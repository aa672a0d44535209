"""p-adic exponential and logarithm by exact integer arithmetic.

exp converges on values divisible by p (by 4 when p = 2); log converges on
units congruent to 1 mod p (mod 4 when p = 2), and the two are mutually
inverse isometries between those regions.  Both results are exact modulo
p^K for the working precision K; they depend only on the input mod p^K.

log u is taken in three steps, with c = v(u - 1).  First, at p = 3, 5
and 7, a table deepens u to J = ceil(2 K^(1/3)) (argument reduction;
Brent and Zimmermann, Modern Computer Arithmetic, 4.3): for j = c to
J - 1, with d the digit j of u - 1, u <- u (1 - p^j)^d clears that
digit, and d log(1 - p^j) is subtracted from the log of the result.  The
factor (1 - p^j)^d is an exact integer of at most d j digits, so a step
is one product by a short number, linear in K, where a p-th power costs
about 1.5 log2(p) full products per digit of depth.  The table holds
log(1 - p^j) mod p^L for j < J, taken once by the steps below at L = K
rounded up to a multiple of 64 digits; a prime keeps one table, and a
larger K rebuilds it.  So at most three tables live at once, each at
most 21 integers of at most 1024 digits (about 8 KB at p = 7).
TABLE_DOMAIN, the primes and the range of K where it is used, records
where it paid: at p = 7 and K = 1000 a call takes 360 instead of 1130 us,
and the first call builds the table in about 15 ms.  J is where a sweep
of J at p = 3, 5, 7 and K = 201, 1001 stopped gaining per call; a deeper
table only costs more to build.

Then log u is taken as p^(-k) log(u^(p^k)) (Satoh, Skjernaa and Taguchi):
raising u to the p^k-th power at K + k digits deepens u - 1 by k, so the
series needs T = about (K + k) / (c + k) terms instead of K / c.  The
series is summed by rectangular splitting (Paterson and Stockmeyer; Brent
and Zimmermann, 4.4.3).  Scaled by D = lcm(1..T), every coefficient +-D/n
is an integer of about 1.44 T bits.  The powers w^2..w^s, s =
ceil(sqrt(T)), are formed once, and Horner's rule in w^s runs over blocks
of s terms, each block a sum of small multiples of the stored powers:
about 2 sqrt(T) full-size products in all.  Dividing by the p-part of D is
exact, and the inverse of its p-free part depends only on p, K and c, so
it is taken once per series shape and cached.  Each p-th power costs P
products: log2(p) squarings and, at odd p, a multiply for about half the
bits of p, so P = 1.5 log2(p), and P = 1 at p = 2.  Fitted to an
exhaustive k sweep at p from 2 to 101 and K from 60 to 1000, a series
product, with its block and its reduction, costs about 1.84 of those
products, so k is chosen to minimize k P + 3.67 sqrt((K + k) / (c + k)),
which for k small against K puts c + k near (3.375 K / P^2)^(1/3).
After the table c is already past that depth, so k = 0, which the same
sweep found best there.  At small K, a k that leaves a single term w is
taken when it needs at most ONE_TERM_SQUARINGS squarings.

exp x is the Newton inverse of log: y <- y (1 + x - log y), doubling the
correct digits each step.  Since log is an isometry, the final check
log y = x mod p^K proves y = exp x mod p^K.  The table is built once, at
K, before the first step, so no step builds one of its own.
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
    if _table_depth(p, K):
        _log_table(p, K)  # built once at full precision, it serves every step
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

#: where _log_mod deepens its argument from the table: (primes, range of
#: K).  Per call on a 2-vCPU x86 host with CPython 3.11, for a unit of
#: depth 1, the power path against the warm table (and the table's build):
#: at p = 7, 1132 against 361 us at K = 1000 (a 15 ms build from cold
#: caches) and 52 against 30 us at K = 200 (1.1 ms); at p = 3, 5 and 7 they
#: cross between K = 64 and 96.  At p = 2 the power is plain squarings: 115
#: against 80 us at K = 1000, but a loss at K = 200.  At p = 101 a step's
#: factor (1 - p^j)^d has up to 100 j digits, and the table loses at small
#: K (26 against 83 us at K = 60); a five-digit prime would pay a build for
#: each fresh prime.  The top of the range bounds a first call, whose build
#: costs about J cold logs: 15 ms at p = 7 and K = 1024, but 76 ms at
#: K = 2048
TABLE_DOMAIN = ((3, 5, 7), range(96, 1025))


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
    J = _table_depth(p, K)
    if c >= J:
        return _log_series(u, p, K, c)
    logs = _log_table(p, K)
    # u (1 - p^j)^d clears digit j of u - 1; log u = log(u m) - acc
    pJ = p**J
    t = u % pJ  # u mod p^J: enough to read the digits
    pj, m, acc = p**c, 1, 0
    for j in range(c, J):
        d = t // pj % p
        if d:
            g = (1 - pj) ** d
            t = t * g % pJ
            m = m * g % pK
            acc += d * logs[j]
        pj *= p
    z = (u * m - 1) % pK
    series = _log_series(z + 1, p, K, _vp(z, p)) if z else 0
    return (series - acc) % pK


def _log_series(u, p, K, c):
    """log u mod p^K for a principal unit u with v(u - 1) = c < K: the p^k
    power, then the series by rectangular splitting."""
    k, T, e, scale = _series_shape(p, K, c)
    pk = p**k
    top, ptop = K + k, p**K * pk
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


def _table_depth(p, K):
    """J, the depth to which the table deepens a log argument mod p^K; 0
    outside TABLE_DOMAIN, where there is no table."""
    primes, digits = TABLE_DOMAIN
    return math.ceil(2 * K ** (1 / 3)) if p in primes and K in digits else 0


#: the tables by prime, one per prime of TABLE_DOMAIN (maxsize 3).  Memory
#: bound: a table holds _table_depth(p, L) = J <= 21 integers of L <= 1024
#: base-p digits, about 8 KB at p = 7
_TABLES = {}


def _log_table(p, K):
    """(log(1 - p^j) mod p^L for j < _table_depth(p, L)), for some L >= K,
    at p and K in TABLE_DOMAIN.

    A prime keeps one table, rebuilt when a larger K asks for it at K
    rounded up to a multiple of 64 digits, so that the nearby precisions of
    one run (N plus a small depth) share it.  Each entry is taken by
    _log_series; entry 0 (and entry 1 at p = 2) is never read.
    """
    held = _TABLES.get(p)
    if held is None or held[0] < K:
        L = -(-K // 64) * 64
        pL = p**L
        least = 2 if p == 2 else 1  # 1 - 2 = 3 mod 4 has no log
        depths = range(least, _table_depth(p, L))
        logs = [0] * least + [_log_series(pL + 1 - p**j, p, L, j) for j in depths]
        _TABLES[p] = held = (L, logs)
    return held[1]


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
        P = math.log2(p) * (1 if p == 2 else 1.5)  # products per p-th power
        k = max(0, math.ceil((3.375 * K / P**2) ** (1 / 3)) - c)
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
