"""The four benchmark workloads: seeded operation schedules, no padlog.

A workload is a sequence of rounds.  Every round has the same fixed mix of
operation kinds and sizes; the seed only chooses the numbers inside it, so
rounds cost about the same whatever the seed.  Round r of seed s is
generated from its own random stream, so any process can rebuild any round.
A run's operation set is the first ``pass_rounds`` rounds (``op_set``); the
timed phase passes over it again and again, so the operations attempted,
and those that fail, are the same on every run with the same seed.

An operation is a dict: ``kind`` names the padlog call, ``args`` is all the
program receives, and ``meta`` holds what only the reference may use (for
example the exponent j with b = a^j).
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

DLOG_GUARD = 60  # b agrees with a^y mod p^(N + DLOG_GUARD)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_ops: Callable  # (rng, round index) -> list of operations
    warmup_ops: Callable  # rng -> list of operations
    tail_pct: float  # fixed tail percentile, see run.py
    pass_rounds: int  # rounds in the operation set of an untraced run
    trace_rounds: int  # rounds in a traced run


def op(kind, args, **meta):
    return {"kind": kind, "args": list(args), "meta": meta}


def round_ops(workload, seed, index):
    rng = random.Random("%s:%d:%d" % (workload.name, seed, index))
    ops = workload.round_ops(rng, index)
    rng.shuffle(ops)
    return ops


def op_set(workload, seed, rounds):
    """The operations of rounds 0..rounds-1, each tagged with its round."""
    return [dict(o, round=r) for r in range(rounds) for o in round_ops(workload, seed, r)]


def warmup_ops(workload):
    return workload.warmup_ops(random.Random("warmup:" + workload.name))


def _unit(rng, p, lo, hi):
    """Uniform integer in [lo, hi) prime to p."""
    while True:
        a = rng.randrange(lo, hi)
        if a % p:
            return a


# ---------------------------------------------------------------------------
# sweep-small


SWEEP_MODULI = ((2, 13), (3, 8), (5, 5), (7, 4))


def _sweep_pair(rng, p, n, inside):
    m = p**n
    while True:
        a = _unit(rng, p, 2, m)
        top = ref.orders(a, p, n)[-1]
        if inside:
            j = rng.randint(1, top)
            return a, pow(a, j, m), {"j": j}
        for _ in range(8):
            b = _unit(rng, p, 2, m)
            if not ref.in_subgroup(a, b, p, n):
                return a, b, {}


def _sweep_round(rng, index=0, moduli=SWEEP_MODULI, per_kind=(True, True, True, False)):
    ops = []
    for p, n in moduli:
        for inside in per_kind:
            a, b, meta = _sweep_pair(rng, p, n, inside)
            ops.append(op("lift", (a, b, p, n), **meta))
            a, b, meta = _sweep_pair(rng, p, n, inside)
            ops.append(op("exist", (a, b, p)))
    return ops


def _sweep_warmup(rng):
    return _sweep_round(rng, per_kind=(True, False))


# ---------------------------------------------------------------------------
# lift-heavy


def band_primes():
    """The low end of the five-digit primes, where an O(p) level scan costs
    milliseconds to tens of milliseconds rather than up to seconds."""
    return [q for q in ref.primes_upto(10999) if q >= 10007]


def spread(rng, k):
    """k points of (0, 1) one k-th apart with a random offset: each is
    uniform, and together they cover the range evenly, so every round has
    the same spread of scan lengths whatever the seed."""
    u = rng.random()
    return [(i + u) / k for i in range(k)]


def at(q, top):
    """The integer in [1, top] at quantile q."""
    return min(top, 1 + int(q * top))


def _lift_antithetic(rng, p, n):
    """Two uniform-exponent pairs b = a^j and b' = a^(ord + 1 - j).

    The level scans of the second pair walk the complementary digits of the
    first, so the pair costs the same whatever j is drawn.
    """
    m = p**n
    a = _unit(rng, p, 2, m)
    top = ref.orders(a, p, n)[-1]
    j = rng.randint(1, top)
    k = top + 1 - j
    return [
        op("lift", (a, pow(a, j, m), p, n), j=j),
        op("lift", (a, pow(a, k, m), p, n), j=k),
    ]


def dlog_base(rng, p):
    """A base whose digit count grows from level 2 on (depth 1, or 2 at
    p = 2), so the CLI's climb finishes in its first round."""
    want = 2 if p == 2 else 1
    while True:
        a = rng.choice((1, -1)) * _unit(rng, p, 2, 10**4)
        if a not in (1, -1) and ref.depth(a, p) == want:
            return a


def _dlog_pair(rng, p, n_digits, guard=DLOG_GUARD):
    a = dlog_base(rng, p)
    y = rng.randrange(1, p ** (n_digits + guard))
    return a, pow(a, y, p ** (n_digits + guard))


def _lift_round(rng, index=0):
    """Four CLI climbs, sixteen lifts, twenty-four unit solves per round.

    The level-n scan of a lift walks to the top digit of its exponent and
    the torsion scan of a unit solve walks to the exponent mod ord(a mod p),
    so those are drawn with ``spread``; the n = 3 lifts come as an
    antithetic pair, which covers their two scanned digits.  The unit
    solves are over half of the round, so the median operation is the
    middle of their evenly spread scans, whatever the seed.
    """
    band = band_primes()
    ops = []
    for p in (2, 3, 5, 7):
        a, b = _dlog_pair(rng, p, 200)
        ops.append(op("dlog", (p, a, b, 200, "lift")))
    for n, count in ((1, 6), (2, 4)):
        for q in spread(rng, count):
            p = rng.choice(band)
            a = _unit(rng, p, 2, p**n)
            j = at(q, ref.orders(a, p, n)[-1])
            ops.append(op("lift", (a, pow(a, j, p**n), p, n), j=j))
    ops += _lift_antithetic(rng, rng.choice(band), 3)
    for _ in range(4):
        p = rng.choice(band)
        ops.append(op("lift", (_unit(rng, p, 2, p * p), _unit(rng, p, 2, p * p), p, 2)))
    for q in spread(rng, 21):
        p = rng.choice(band)
        a = _unit(rng, p, 2, p * p)
        m = ref.orders(a, p, 1)[0]
        y = at(q, m) - 1 + m * rng.randrange(p**18)
        ops.append(op("units", (a, pow(a, y, p**20), p, 12)))
    for _ in range(3):
        p = rng.choice(band)
        ops.append(op("units", (_unit(rng, p, 2, p * p), _unit(rng, p, 2, p * p), p, 12)))
    return ops


def _lift_warmup(rng):
    p = 10007
    a, b = _dlog_pair(rng, 3, 20)
    j = rng.randint(1, 100)
    return [
        op("dlog", (3, a, b, 20, "lift")),
        op("lift", (5, pow(5, j, p), p, 1), j=j),
        op("lift", (5, pow(5, j, p * p), p, 2), j=j),
        op("units", (5, pow(5, j, p**20), p, 12)),
    ]


# ---------------------------------------------------------------------------
# deep-digits


def _principal(rng, p, n_in, e):
    """A principal unit of depth exactly e (plus one at p = 2), mod p^n_in."""
    shift = 4 if p == 2 else p
    c = 1 + shift * _unit(rng, p, 1, p**8)
    return pow(c, p ** (e - 1), p**n_in)


def _generic(a, p):
    """Is the residue of a other than +-1?  Those two have exact Teichmuller
    lifts and skip the digit work, so at p >= 5 every unit-route input
    avoids them and a round costs the same whatever the seed."""
    return p < 5 or a % p not in (1, p - 1)


def _units_pair(rng, p, n):
    m = p ** (n + 20)
    while True:
        a = _unit(rng, p, 2, 10**4)
        b = pow(a, rng.randrange(1, m), m)
        if _generic(a, p) and _generic(b, p):
            return a, b


def _truncated_pair(rng, p, n):
    """Two units known to n digits, both depths visible, mixed verdicts."""
    m = p**n
    while True:
        a = _unit(rng, p, 1, p) * pow(_unit(rng, p, 1, p**8), p ** rng.randint(0, 3), m)
        pick = rng.randrange(4)
        if pick < 2:
            b = pow(a, rng.randrange(1, m), m)
        elif pick == 2:
            b = _unit(rng, p, 1, m)
        else:
            b = _unit(rng, p, 1, p) * _principal(rng, p, n, rng.randint(1, 4))
        if p == 2 and rng.randrange(2):
            b = -b
        a, b = a % m, b % m
        if not _generic(a, p) or not _generic(b, p):
            continue
        try:
            ref.depth(a, p, n), ref.depth(b, p, n)
        except ValueError:
            continue
        return ref.format_digits(a, p, n), ref.format_digits(b, p, n)


DEPTHS = 4  # log-route inputs have principal depth 1..DEPTHS


def _deep_round(rng, index=0, sizes=((200, 4), (1000, 1))):
    """Per prime: the units and log CLI routes on exact pairs, check_existence
    and solve_log_ratio on truncated text inputs; N = 200 four times for
    each N = 1000, so the median operation is an N = 200 one and the p80
    tail falls inside the units route at N = 200 for p = 5 and 7, the
    slowest N = 200 operations.

    A log route's cost falls with the depth of its base (up to 1.8x from
    depth 1 to 4), so depths are not drawn at random but rotate with the
    round: any DEPTHS consecutive rounds give each prime, size and route
    every depth once, and a pass of DEPTHS rounds costs the same whatever
    the seed.
    """
    ops = []
    for i, p in enumerate((2, 3, 5, 7)):
        for n, copies in sizes:
            for c in range(copies):
                depth = 1 + (index + i + c) % DEPTHS
                a, b = _units_pair(rng, p, n)
                ops.append(op("dlog", (p, a, b, n, "units")))
                a = _principal(rng, p, n + 20, depth)
                b = pow(a, rng.randrange(1, p ** (n + 20)), p ** (n + 20))
                ops.append(op("dlog", (p, a, b, n, "log")))
                ops.append(op("exist_trunc", _truncated_pair(rng, p, n)))
                a = _principal(rng, p, n + 6, DEPTHS + 1 - depth)
                b = pow(a, rng.randrange(1, p ** (n + 6)), p ** (n + 6))
                args = (ref.format_digits(a, p, n + 6), ref.format_digits(b, p, n + 6), n)
                ops.append(op("logratio_trunc", args))
    return ops


def _deep_warmup(rng):
    return _deep_round(rng, sizes=((200, 1),))


# ---------------------------------------------------------------------------
# census


TABLE_NAMES = (
    "gauss-proots",
    "order-2-mod-5n",
    "neg3-pow-5-mod-2n",
    "sq-pair-mod-2n",
    "neg2-pow-3-mod-5n",
    "neg4-pow-6-mod-5n",
    "special-x-order",
    "special-cycles",
)

CENSUS_CAP = 10**5  # criterion 8 scope: p^n <= 10^5, k <= 12


def census_levels():
    """Every (p, n) with p^n <= 10^5; each carries twelve k."""
    out = []
    for p in ref.primes_upto(CENSUS_CAP):
        m, n = p, 1
        while m <= CENSUS_CAP:
            out.append((p, n))
            m, n = m * p, n + 1
    return out


def _analyze_args(rng):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    n = 1
    while p ** (n + 1) <= 2000 and rng.randrange(3):
        n += 1
    m = p**n
    return rng.randint(-m, m) or 1, rng.randint(-m, m) or 1, p, n


def _census_round(rng, index=0, cokernels=120):
    """The tables and stable-root searches are the slowest tenth of a
    round, so the p95 tail is one of them; the primes come two from each
    quarter of those below 400, so every round costs about the same."""
    levels = census_levels()
    small = ref.primes_upto(400)
    quarter = len(small) // 4
    ops = [op("table", (name,)) for name in TABLE_NAMES]
    for band in range(4):
        ops += [op("stable", (p,)) for p in rng.sample(small[band * quarter : (band + 1) * quarter], 2)]
    for _ in range(8):
        ops.append(op("analyze", _analyze_args(rng)))
        m = rng.randint(2, 600)
        x = _unit_mod(rng, m)
        ops.append(op("cycles", (x, m)))
    for _ in range(cokernels):
        p, n = rng.choice(levels)
        ops.append(op("coker", (p, n, rng.randint(1, 12))))
    return ops


def _unit_mod(rng, m):
    while True:
        x = rng.randrange(1, m + 1)
        if math.gcd(x, m) == 1:
            return x


def _census_warmup(rng):
    ops = _census_round(rng, cokernels=8)
    seen = set()
    return [o for o in ops if o["kind"] not in seen and not seen.add(o["kind"])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-small",
            "many cheap exact pairs mod 2^13, 3^8, 5^5, 7^4; order_mod and sympy.factorint dominate",
            _sweep_round, _sweep_warmup, tail_pct=99.0, pass_rounds=400, trace_rounds=300,
        ),
        Workload(
            "lift-heavy",
            "O(p) level scans on five-digit primes and the CLI lift climb at N = 200",
            _lift_round, _lift_warmup, tail_pct=95.0, pass_rounds=8, trace_rounds=3,
        ),
        Workload(
            "deep-digits",
            "units and log routes at N = 200 and 1000, exact and truncated inputs; digit arithmetic dominates",
            _deep_round, _deep_warmup, tail_pct=80.0, pass_rounds=DEPTHS, trace_rounds=1,
        ),
        Workload(
            "census",
            "cokernel checks, stable roots, special pairs and the eight tables; quotient, primroot, special work",
            _census_round, _census_warmup, tail_pct=95.0, pass_rounds=100, trace_rounds=60,
        ),
    )
}
