"""Reference answers for every benchmark operation, computed without padlog.

Everything here is plain integer arithmetic from the definitions: orders by
enumerating divisors of the group order, lifting rows by the closed form of
acceptance criterion 10(d) or by exhaustive search over the only candidates
a solution can take, verdicts by the residue-and-depth rule, cokernels by
their closed form.  Nothing in this module imports padlog or sympy, so a
bug in the program cannot leak into the answer it is checked against.
"""

import math
from functools import lru_cache

INF = math.inf


# ---------------------------------------------------------------------------
# integers


def vp(n, p):
    """p-adic valuation of an integer; infinite for 0."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def factor(n):
    """Prime factorization of n >= 1 by trial division, as ((q, e), ...)."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n):
    """Divisors of n in increasing order."""
    divs = [1]
    for q, e in factor(n):
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def primes_upto(n):
    """Primes <= n by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return tuple(i for i in range(n + 1) if sieve[i])


def order_mod(a, m):
    """Multiplicative order of a mod m: the smallest divisor of the group
    exponent bound phi(m) that sends a to 1, found by enumeration."""
    if m == 1:
        return 1
    phi = m
    for q, _ in factor(m):
        phi -= phi // q
    for d in divisors(phi):
        if pow(a, d, m) == 1:
            return d
    raise ValueError("%d is not a unit mod %d" % (a, m))


@lru_cache(maxsize=4096)
def orders(a, p, n):
    """Orders of a mod p, p^2, ..., p^n.

    Level 1 enumerates the divisors of p - 1.  From then on the order is a
    multiple of the previous one dividing phi(p^k), so the enumeration runs
    over previous * d for the divisors d of phi(p^k) / previous, smallest
    first; for k >= 2 the answer is d = 1 or d = p, found in a few steps.
    """
    out = [order_mod(a % p, p)]
    for k in range(2, n + 1):
        m = p**k
        prev = out[-1]
        index = (p - 1) * p ** (k - 1) // prev
        for d in _small_divisors(index, p):
            if pow(a, prev * d, m) == 1:
                out.append(prev * d)
                break
        else:
            raise ValueError("%d is not a unit mod %d" % (a, m))
    return tuple(out)


def _small_divisors(index, p):
    """Divisors of index = u * p^e (u | p - 1) in increasing order."""
    e = vp(index, p)
    unit = index // p**e
    divs = sorted(d * p**i for d in divisors(unit) for i in range(e + 1))
    return divs


def digits(value, p, count):
    """Least-significant-first base-p digits of value mod p^count."""
    value %= p**count
    out = []
    for _ in range(count):
        value, d = divmod(value, p)
        out.append(d)
    return out


def from_digits(ds, p):
    total = 0
    for d in reversed(ds):
        total = total * p + d
    return total


def power_sum(ds, p):
    """The human expansion ``1 + 2 + 2^3`` of a digit list."""
    terms = []
    for i, d in enumerate(ds):
        if d == 0:
            continue
        if i == 0:
            terms.append(str(d))
        else:
            pw = "%d^%d" % (p, i) if i > 1 else str(p)
            terms.append(pw if d == 1 else "%d*%s" % (d, pw))
    return " + ".join(terms) if terms else "0"


def parse_digits(text):
    """``d,d,...@p^N`` -> (value mod p^N, p, N)."""
    digit_part, base_part = text.split("@")
    p, n = (int(t) for t in base_part.split("^"))
    return from_digits([int(d) for d in digit_part.split(",")], p), p, n


def format_digits(value, p, n):
    return "%s@%d^%d" % (",".join(str(d) for d in digits(value, p, n)), p, n)


# ---------------------------------------------------------------------------
# lifting


def lift_rows(a, b, p, n, j=None, claimed=None):
    """Rows (n, x_n, order, pinned digits) of the smallest solutions of
    a^x = b mod p^k for k = 1..n, and the first level with no solution.

    With ``j`` (b = a^j mod p^n) the closed form of criterion 10(d) gives
    x_k = ((j - 1) mod ord_k) + 1 directly.  Otherwise each level is searched
    exhaustively: [1, ord_1] at level 1, and at level k only x_{k-1} + i *
    ord_{k-1}, since every solution mod p^k also solves mod p^(k-1).
    ``claimed`` maps levels to a program's x_k; a claim in [1, ord_k] that
    solves the congruence is the unique smallest solution, so it replaces
    the search for that level.
    """
    ords = orders(a, p, n)
    if j is not None:
        rows = [(k, (j - 1) % o + 1, o, vp(o, p)) for k, o in enumerate(ords, 1)]
        return rows, None
    claimed = claimed or {}
    rows = []
    x = None
    for k, o in enumerate(ords, 1):
        m = p**k
        bk = b % m
        guess = claimed.get(k)
        if isinstance(guess, int) and 1 <= guess <= o and pow(a, guess, m) == bk:
            x = guess
        elif k == 1:
            x = _walk(a % m, bk, m, o)
        else:
            prev = ords[k - 2]
            x = next(
                (c for c in range(x, o + 1, prev) if pow(a, c, m) == bk), None
            )
        if x is None:
            return rows, k
        rows.append((k, x, o, vp(o, p)))
    return rows, None


def _walk(a, b, m, o):
    cur = a
    for c in range(1, o + 1):
        if cur == b:
            return c
        cur = cur * a % m
    return None


def in_subgroup(a, b, p, n):
    """Is b a power of a mod p^n?"""
    return lift_rows(a, b, p, n)[1] is None


# ---------------------------------------------------------------------------
# existence


def depth(a, p, precision=None):
    """v_p(u - 1) for the principal part u of the unit a.

    For odd p that is v_p(a^(p-1) - 1); for p = 2 the principal part is
    whichever of a, -a is 1 mod 4.  With ``precision`` the value is only
    known mod p^precision and a depth that is not visible raises.
    """
    if p == 2:
        w = (a if a % 4 == 1 else -a) - 1
        if precision is None:
            return vp(w, 2)
        w %= 2**precision
    elif precision is None:
        if a in (1, -1):
            return INF
        k = 32
        while (w := pow(a, p - 1, p**k) - 1) == 0:
            k *= 2  # a^(p-1) != 1 exactly, so some power of p stops dividing
    else:
        w = (pow(a, p - 1, p**precision) - 1) % p**precision
    if w == 0:
        raise ValueError("depth hidden beyond %d digits" % precision)
    return vp(w, p)


def existence_verdict(a, b, p, precision=None):
    """'solvable' or 'unsolvable' for a^x = b over the p-adic integers.

    Odd p: b mod p must lie in <a mod p> and depth(a) <= depth(b).  p = 2:
    the same depth test on the principal parts, a = 1 mod 4 forces b = 1
    mod 4, and otherwise x is odd exactly when the two depths are equal
    (v_2(x) = depth(b) - depth(a)), which must match the sign of b.
    """
    da = depth(a, p, precision)
    db = depth(b, p, precision)
    if da > db:
        return "unsolvable"
    if p != 2:
        ok = pow(b, order_mod(a % p, p), p) == 1
        return "solvable" if ok else "unsolvable"
    want_odd = b % 4 == 3
    if a % 4 == 1:
        return "unsolvable" if want_odd else "solvable"
    if da == INF:
        return "solvable"  # a = -1 and b = +-1
    odd = db != INF and da == db
    return "solvable" if odd == want_odd else "unsolvable"


def unit_solution_ok(a, b, p, precision, x):
    """Is x the smallest exponent the units route must print?

    x is pinned modulo (torsion modulus) * p^precision, and a^x = b mod
    p^(precision + depth(a)) holds for exactly that class, so the check is
    the range plus one integer power.
    """
    m = torsion_modulus(a, p)
    bound = p**precision if p == 2 else m * p**precision
    mod = p ** (precision + depth(a, p))
    return isinstance(x, int) and 0 <= x < bound and pow(a, x, mod) == b % mod


def torsion_modulus(a, p):
    if p == 2:
        return 1 if a % 4 == 1 else 2
    return order_mod(a % p, p)


def units_failing_level(a, b, p):
    """First level with no solution, for an unsolvable units pair (odd p)."""
    if pow(b, order_mod(a % p, p), p) != 1:
        return 1
    return depth(b, p) + 1


# ---------------------------------------------------------------------------
# group bookkeeping


def elementary_divisors(factors):
    return sorted(q**e for f in factors for q, e in factor(f))


def predicted_cokernel(p, n, k):
    """Cokernel of x -> x^k on the units mod p^n, by the closed form."""
    m = vp(k, p)
    if p == 2:
        if n == 1:
            return []
        if n == 2:
            return elementary_divisors([math.gcd(2, k)])
        return elementary_divisors([math.gcd(2, k), 2 ** min(m, n - 2)])
    return elementary_divisors([math.gcd(p - 1, k), p ** min(m, n - 1)])


def _generates(r, p, n):
    m = p**n
    return order_mod(r, m) == (p - 1) * p ** (n - 1)


def stable_roots(p):
    """The classical table row of stable generators mod p^n.

    Every r in [2, p-1] generating mod p and p^2 when p = 3 mod 4 or p = 5;
    otherwise one per mirror pair {r, p - r}: the small member when it is
    stable, else its mirror.
    """
    if p == 2:
        return [1]
    stable = [r for r in range(2, p) if _generates(r, p, 1) and _generates(r, p, 2)]
    if p % 4 == 3 or p == 5:
        return stable
    out = []
    for r in range(2, (p - 1) // 2 + 1):
        if _generates(r, p, 1):
            out.append(r if r in stable else p - r)
    return sorted(out)


def carmichael(n):
    """Exponent of the unit group mod n."""
    out = 1
    for q, e in factor(n):
        if q == 2:
            lam = 1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)
        else:
            lam = (q - 1) * q ** (e - 1)
        out = math.lcm(out, lam)
    return out


def special_pair(a, b, p, n):
    """The special-pair report for (a, b) mod p^n, field by field."""
    m = p**n
    report = dict(a=a, b=b, p=p, n=n)
    if math.gcd(a, m) != 1 or math.gcd(b, m) != 1:
        report.update(
            is_special=False, failed_condition="coprimality", x_o=None,
            ord_a=None, x_order=None, max_possible=None,
        )
        return report
    ord_a = order_mod(a % m, m)
    x_o = _walk(a % m, b % m, m, ord_a)
    same = ord_a == order_mod(b % m, m) and x_o is not None
    max_possible = 1 if ord_a <= 2 else carmichael(ord_a)
    x_order = None
    if x_o is not None and math.gcd(x_o, ord_a) == 1:
        x_order = order_mod(x_o % ord_a, ord_a)
    if not same:
        failed = "subgroup-mismatch"
    elif x_order == max_possible:
        failed = None
    else:
        failed = "x-order-not-maximal"
    report.update(
        is_special=failed is None, failed_condition=failed, x_o=x_o,
        ord_a=ord_a, x_order=x_order, max_possible=max_possible,
    )
    return report


def cycles(x, modulus):
    """Cycles of t -> x t on 1..modulus-1 in compact notation."""
    seen = [False] * modulus
    out = []
    for start in range(1, modulus):
        if seen[start]:
            continue
        cycle = []
        t = start
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = t * x % modulus
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)
