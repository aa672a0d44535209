"""Deciding and computing x with a^x = b among p-adic integers.

Every unit u is a root of unity times a principal unit u2, and its depth is
v_p(u2 - 1).  One decision procedure, ``_split``, reads a^x = b from that
split: the equation is solvable exactly when

* b's residue lies in the subgroup generated by a mod p (at p = 2: a = 1
  mod 4 never reaches b = 3 mod 4),
* depth(a) <= depth(b), and
* at p = 2 with a = 3 mod 4, the parity of x matches the sign of b (x odd
  exactly when b = 3 mod 4).  The parity is not free: x2 = log b2 / log a2
  has v_2(x2) = depth(b) - depth(a), because v(log u) = v(u - 1) on
  principal units (Koblitz, GTM 58, ch. IV), so x is odd exactly when the
  depths are equal.

An int is exact, so an integer pair is always decided, at any precision;
only a truncated ``PAdicInt`` whose digits hide a needed depth comes back
"undetermined".  The routes:

* ``check_existence`` returns the split's verdict, a named tuple, without
  the exponent.
* ``solve_units`` raises or returns "undetermined" from the split, and
  otherwise glues the torsion residue of x to the principal exponent
  log(b2) / log(a2), taken on residues with depth(a) from the split.
* ``solve_log_ratio`` divides logarithms of principal units, with as many
  guard digits as depth(a).  The division, shared with ``solve_units``, is
  exact by p^depth(a) and then one Newton inverse mod p^precision of the
  unit part of log a (``residue._inverse_mod``).
* ``solution_is_unit`` compares the split's depths.
* ``solve_by_lifting`` climbs the levels mod p, mod p^2, ... without the
  split; it is the level-by-level oracle the other routes are tested
  against, and the route of the tables and ``analyze_pair``.  It takes one
  inverse mod p per call, where the order first grows, and returns its
  trace and rows as named tuples.
* ``_limit_trace``, the CLI's ``lift`` route, returns the same trace read
  from the ``solve_units`` limit: the order law gives each level's order,
  and x_n is the limit reduced mod that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .errors import (
    AIsOne,
    BaseMismatch,
    InsufficientPrecision,
    InternalInvariantError,
    NotAUnit,
    UnsolvableError,
    ZeroInput,
)
from .padic import PAdicInt, _digits_simple
from .residue import _dlog_mod_p, _inverse_mod, _require_prime, _vp, order_mod
from .teichmuller import _depth
from .translog import _log_mod, padic_log


def _classify_nonunit(a, b, p):
    """Refuse non-unit inputs with an explanation of what powers could do.

    a and b are nonzero integers, at least one divisible by p.  If p^e
    divides a exactly, every power a^x has valuation ex, so b must carry a
    positive multiple of e factors of p for the equation to have any
    chance; either way this solver only handles units.
    """
    va, vb = _vp(a, p), _vp(b, p)
    if not vb:
        reason = "v(a) = %d > 0 forces v(b) to be a positive multiple of it" % va
    elif not va:
        reason = "v(a) = 0 forces v(b) = 0, but v(b) = %d" % vb
    elif vb % va:
        reason = "v(b) = %d is not a multiple of v(a) = %d" % (vb, va)
    else:
        reason = (
            "v(a) = %d, v(b) = %d: only the single exponent %d remains possible"
            % (va, vb, vb // va)
        )
    raise NotAUnit("both sides must be units; " + reason)


# ---------------------------------------------------------------------------
# lifting


class LiftingRow(NamedTuple):
    """One level of a lifting trace.

    A named tuple, since a trace builds one per level: its repr is the
    dataclass form, and a row compares equal to the plain tuple
    (n, x_n, order, digit_count).
    """

    n: int
    x_n: int
    order: int
    digit_count: int  # how many base-p digits of the limit this level pins


class LiftingTrace(NamedTuple):
    """A climb's rows and verdict, a named tuple like its rows: it compares
    equal to the plain tuple (a, b, p, rows, verdict, failing_level,
    digits) and hashes like it."""

    a: int
    b: int
    p: int
    rows: tuple
    verdict: str  # "solvable" or "unsolvable"
    failing_level: int | None = None
    digits: tuple = ()

    @property
    def x(self):
        return self.rows[-1].x_n if self.rows and self.verdict == "solvable" else None


def solve_by_lifting(a, b, p, n_max):
    """Solve a^x = b level by level up to mod p^n_max.

    Level 1 is one discrete log mod p (Pohlig-Hellman).  Above it the order
    is ord_(n-1) or p * ord_(n-1), and the solutions mod p^n lie among
    x_(n-1) + j * ord_(n-1).  When the order stays, x_(n-1) alone either
    solves the level or fails it; when it grows, the Hensel digit decides:
    with a^ord_(n-1) = 1 + p^(n-1) u and b * a^(-x_(n-1)) = 1 + p^(n-1) w
    mod p^n, the next digit is j = w / u mod p, and one inverse mod p,
    taken where the order first grows, serves every level of the call.
    a^ord_(n-1) and a^x_(n-1) are carried mod p^n_max, so a level costs
    O(log p) multiplies.  The x_n are the smallest positive solutions and
    converge p-adically; the trace records them together with the digits
    of the limit that each level fixes.  An unsolvable level ends the climb
    with that level recorded.  The trace and its rows are named tuples.
    """
    _require_prime(p)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if a == 0 or b == 0:
        raise ZeroInput("0 is not a unit and has no discrete log")
    if a % p == 0 or b % p == 0:
        _classify_nonunit(a, b, p)
    order = order_mod(a, p)
    x = _dlog_mod_p(a, b, p, order)
    if x is None:
        return LiftingTrace(a, b, p, (), "unsolvable", 1)
    x = x or order
    new = tuple.__new__  # a row per level: skip the NamedTuple constructor
    rows = [new(LiftingRow, (1, x, order, 0))]
    pinned = 0  # v_p(order): the level-1 order divides p - 1
    top, m = p**n_max, p
    a_order, a_x = pow(a, order, top), pow(a, x, top)
    inv = None
    failing = None
    for n in range(2, n_max + 1):
        # Reduction mod p^n -> p^(n-1) has a kernel of order p (p = 2
        # included), so the order either stays or gains one factor p.
        low, m = m, m * p
        step = a_order % m
        if step == 1:
            if a_x % m != b % m:
                failing = n
                break
        else:
            # step = 1 + low * u; b - a^x = a^x * low * w (mod m), so
            # j = w / u = (b - a^x) / low * (a^x * u)^(-1) mod p.  Level 1
            # made a^x = b mod p, so (a^x * u)^(-1) = (b * u)^(-1) mod p,
            # and u mod p never changes after the first growth: at odd p,
            # (1 + p^k u)^p = 1 + p^(k+1) u mod p^(k+2) for k >= 1, and at
            # p = 2 every inverse mod 2 is 1.  So one inverse serves all.
            if inv is None:
                inv = pow(b * ((step - 1) // low), -1, p)
            j = (b - a_x) % m // low * inv % p
            x += j * order
            a_x = a_x * pow(a_order, j, top) % top
            a_order = pow(a_order, p, top)
            order *= p
            pinned += 1
        rows.append(new(LiftingRow, (n, x, order, pinned)))
    verdict = "solvable" if failing is None else "unsolvable"
    return LiftingTrace(a, b, p, tuple(rows), verdict, failing, _trace_digits(rows, p))


def _trace_digits(rows, p):
    """Base-p digits of the limiting exponent pinned by the last level."""
    if not rows:
        return ()
    last = rows[-1]
    return _digits_simple(last.x_n, p, last.digit_count) if last.digit_count else ()


def _digits_pinned_at(n, a, p, depth):
    """v_p(ord_n / ord_1): how many digits of the limit level n pins.

    By the order law the order of a mod p^n stays at its level-1 value up
    to level depth(a) and gains one factor p per level above it.  At p = 2
    and a = 3 mod 4 the sign doubles the order from level 2 on, so every
    level above the first pins at least one digit.
    """
    if n == 1:
        return 0
    return max(1 if p == 2 and a % 4 == 3 else 0, n - depth)


def _limit_trace(a, b, p, n_max, split=None):
    """``solve_by_lifting(a, b, p, n_max)``, read from the limit instead of
    climbed.  ``split`` is ``_split(a, b, p)``, when the caller has it.

    Level n has order ord_n = ord_1 * p^k, with k its ``_digits_pinned_at``
    count and ord_1 the order m of a mod p (1 at p = 2).  Its smallest
    positive solution x_n is the canonical residue X of ``solve_units``
    reduced mod ord_n, or ord_n when that is 0.  X is known mod m * p^k
    (mod 2^k at p = 2), so one units solve to the top level's k digits
    gives every row.  Unsolvable pairs and the pure torsion bases +-1 are
    climbed, an unsolvable pair only up to its failing level, which lies
    at most one level above depth(a).
    """
    split = split or _split(a, b, p)
    verdict, m, da, _ = split
    if verdict.verdict == "unsolvable":
        return solve_by_lifting(a, b, p, min(n_max, verdict.failing_level))
    if da.is_infinite:
        return solve_by_lifting(a, b, p, n_max)
    pinned = [_digits_pinned_at(n, a, p, da.amount) for n in range(1, n_max + 1)]
    x = _solve_split_units(a, b, p, max(1, pinned[-1]), split).x
    # orders[k] = ord_1 * p^k and xs[k] = x_n at the levels that pin k digits
    first = 1 if p == 2 else m
    orders = list(accumulate(repeat(p, pinned[-1]), mul, initial=first))
    xs = [x % order or order for order in orders]
    new = tuple.__new__
    rows = [new(LiftingRow, (n, xs[k], orders[k], k)) for n, k in enumerate(pinned, 1)]
    return LiftingTrace(a, b, p, tuple(rows), "solvable", None, _trace_digits(rows, p))


def convergence_certificate(trace):
    """Check that a lifting trace really is a p-adic Cauchy sequence.

    Consecutive x_n must agree modulo p^(digits pinned so far), and the
    count of pinned digits must never decrease.  Returns the list of
    (level, pinned digit count) pairs.
    """
    p = trace.p
    out = []
    prev = None
    for row in trace.rows:
        if prev is not None:
            if row.digit_count < prev.digit_count:
                raise InternalInvariantError("pinned digits decreased")
            if (row.x_n - prev.x_n) % p**prev.digit_count != 0:
                raise InternalInvariantError(
                    "levels %d and %d disagree on pinned digits" % (prev.n, row.n)
                )
        out.append((row.n, row.digit_count))
        prev = row
    return out


# ---------------------------------------------------------------------------
# existence: the one decision procedure


class ExistenceVerdict(NamedTuple):
    """The split's answer, a named tuple: ``_split`` builds one per call."""

    verdict: str  # "solvable" | "unsolvable" | "undetermined"
    reason: str
    failing_level: int | None = None


def _depth_comparison_verdict(da, db):
    """The depth theorem: a2^x = b2 is solvable iff depth(a) <= depth(b).

    Each bound is the range of depths it allows, so the verdict is two
    interval comparisons; the reason is picked once the verdict is known.
    """
    if da._hi <= db._lo:
        if db.is_exact:
            reason = "depth(a) = %d <= depth(b) = %d" % (da.amount, db.amount)
        elif not db.is_infinite:
            reason = "depth(b) exceeds working precision, which already tops depth(a)"
        elif da.is_infinite:
            reason = "both principal parts are trivial; torsion alone decides"
        else:
            reason = "b's principal part is exactly trivial"
        return ExistenceVerdict(verdict="solvable", reason=reason)
    if da._lo > db._hi:
        if da.is_infinite:
            reason = "a has trivial principal part but b does not"
        elif da.is_exact:
            reason = "depth(a) = %d > depth(b) = %d" % (da.amount, db.amount)
        else:
            reason = "depth(a) >= %d > depth(b) = %d" % (da.amount, db.amount)
        return ExistenceVerdict(
            verdict="unsolvable", reason=reason, failing_level=db._hi + 1
        )
    if da.is_infinite:
        reason = "b's principal part vanishes to working precision only"
    elif da.is_exact:
        reason = "depth(b) is hidden beyond working precision"
    else:
        reason = "depth(a) is hidden beyond working precision"
    return ExistenceVerdict(verdict="undetermined", reason=reason)


def _value(u):
    """An int itself; a PAdicInt's representative mod p^N."""
    return u if isinstance(u, int) else u.to_int()


def _require_base(p, *values):
    """Refuse a PAdicInt over another base; an int fits any."""
    for u in values:
        if not isinstance(u, int) and u.base != p:
            raise BaseMismatch("cannot mix bases %d and %d" % (u.base, p))


def _exponent_is_unit(da, db):
    """Is x with a2^x = b2 a p-adic unit?  v_p(x) = depth(b) - depth(a).

    True when both ranges of depth are the same single point (pure torsion,
    both infinite, included: a unit residue will do), False when they are
    disjoint, None when truncation leaves them overlapping.
    """
    if da._hi <= db._lo and db._hi <= da._lo:
        return True
    if da._hi < db._lo or db._hi < da._lo:
        return False
    return None


def _split(a, b, p):
    """The decision procedure for a^x = b, read by every route but lifting.

    Returns (verdict, m, depth(a), depth(b)): the ExistenceVerdict, the
    torsion modulus m (the order of a's root of unity, which is what the
    torsion congruence on x is taken mod), and the principal depths as
    ValuationBounds.
    """
    _require_prime(p)
    _require_base(p, a, b)
    if a == 0 or b == 0:
        raise ZeroInput("0 is not a unit")
    za, zb = _value(a), _value(b)
    if za % p == 0 or zb % p == 0:
        _classify_nonunit(za, zb, p)
    da, db = _depth(a, p), _depth(b, p)
    if p == 2:
        m = 2 if za % 4 == 3 else 1
        if m == 1 and zb % 4 == 3:
            verdict = ExistenceVerdict(
                verdict="unsolvable",
                reason="a = 1 mod 4 but b = 3 mod 4: no power flips the sign",
                failing_level=2,
            )
            return verdict, m, da, db
    else:
        m = order_mod(za % p, p)
        if pow(zb, m, p) != 1:
            verdict = ExistenceVerdict(
                verdict="unsolvable",
                reason="the residue of b lies outside the subgroup generated "
                "by a mod %d" % p,
                failing_level=1,
            )
            return verdict, m, da, db
    verdict = _depth_comparison_verdict(da, db)
    if m == 2 and p == 2 and verdict.verdict == "solvable" and not da.is_infinite:
        # a = 3 mod 4: b's sign fixes the parity of x, and so do the depths
        odd = _exponent_is_unit(da, db)
        if odd is None:
            verdict = ExistenceVerdict(
                verdict="undetermined",
                reason="the parity of x depends on a depth hidden by truncation",
            )
        elif odd != (zb % 4 == 3):
            verdict = ExistenceVerdict(
                verdict="unsolvable",
                reason="the sign of b demands an %s exponent but the depths "
                "force an %s one" % (("even", "odd") if odd else ("odd", "even")),
                failing_level=da.amount + 1,
            )
    return verdict, m, da, db


def check_existence(a, b, p, precision=12):
    """Predict solvability of a^x = b from residues and depths alone.

    Solvable exactly when b's residue lies in the subgroup generated by a's
    residue mod p (at p = 2: a = 1 mod 4 never reaches b = 3 mod 4),
    depth(a) <= depth(b), and, at p = 2 with a = 3 mod 4, the parity of x
    matches the sign of b: x must be odd exactly when b = 3 mod 4, and it
    is odd exactly when depth(a) = depth(b).  An unsolvable verdict carries
    the first level mod p^n with no solution.  Integer pairs are always
    decided, at any ``precision``; only a truncated PAdicInt whose digits
    hide a needed depth comes back "undetermined".
    """
    return _split(a, b, p)[0]


# ---------------------------------------------------------------------------
# log ratio


@dataclass(frozen=True)
class LogRatioResult:
    x: PAdicInt
    depth_a: int
    precision_loss: int  # digits sacrificed to the division, equals depth_a


def _at(u, p, digits):
    """u as a PAdicInt of at least ``digits`` digits.

    Ints are exact and take any precision; a truncated PAdicInt must
    already carry the digits.
    """
    if isinstance(u, int):
        return PAdicInt.from_integer(u, p, digits)
    return u if u.precision >= digits else u.with_precision(digits)


def solve_log_ratio(a, b, p, precision):
    """x = log(b) / log(a) for principal units a and b, as a p-adic integer.

    Dividing by log(a) = p^c * unit costs c = depth(a) digits, so the logs
    are taken with c guard digits and the result genuinely carries
    ``precision`` digits.  Integer inputs are exact and materialize at the
    wider precision; truncated inputs must already carry enough digits.
    Raises UnsolvableError when v(log b) < v(log a), since then the ratio
    leaves the p-adic integers.
    """
    _require_prime(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    _require_base(p, a, b)
    da = _depth(a, p)
    c = da.amount if da.is_exact else 0
    wide = precision + c
    a = _at(a, p, wide)
    la = padic_log(a, wide)  # refuses a outside the log's domain
    if da.is_infinite:
        raise AIsOne("a is exactly 1: its only power is 1")
    lb = padic_log(_at(b, p, wide), wide)  # refuses b outside the domain
    if not da.is_exact:
        # the decision procedure still decides when depth(a) >= N tops depth(b)
        verdict = _split(a, b, p)[0]
        if verdict.verdict == "unsolvable":
            raise UnsolvableError(verdict.reason, failing_level=verdict.failing_level)
        raise InsufficientPrecision(
            "a is 1 to working precision; its depth is invisible"
        )
    vb = lb.valuation()
    if vb.is_infinite:
        # b is exactly 1: the exponent is exactly 0
        return LogRatioResult(
            x=PAdicInt.from_integer(0, p, precision), depth_a=c, precision_loss=c
        )
    if vb.is_exact and vb.amount < c:
        raise UnsolvableError(
            "v(log b) = %d < v(log a) = %d: the exponent is not integral"
            % (vb.amount, c),
            failing_level=vb.amount + 1,
        )
    x = _log_ratio(la.residue, lb.residue, p, c, precision)
    return LogRatioResult(x=PAdicInt._of(p, x, precision), depth_a=c, precision_loss=c)


def _log_ratio(la, lb, p, c, precision):
    """lb / la mod p^precision for log residues with la = p^c * unit and p^c
    dividing lb (or lb 0 to working precision): one exact division by p^c
    and one Newton inverse of the unit."""
    pc = p**c
    return lb // pc * _inverse_mod(la // pc, p, precision)


# ---------------------------------------------------------------------------
# the full unit solver


@dataclass(frozen=True)
class UnitsSolution:
    """A solution description for a^x = b over the p-adic units.

    The exponent is pinned by two congruences: x = torsion_residue mod
    torsion_modulus (from the roots of unity) and x = principal_exponent
    mod p^precision (from the principal parts; guard digits inside the log
    division pay for the full precision).  ``x`` is the smallest
    nonnegative integer satisfying both, when both exist.
    """

    p: int
    precision: int
    verdict: str  # "solvable" | "undetermined"
    torsion_modulus: int
    torsion_residue: int | None
    principal_exponent: PAdicInt | None
    depth_a: int | None
    x: int | None
    reason: str = ""


def _principal(u, p, digits):
    """A principal unit with the depth and the log of u's principal part,
    as an integer right mod p^digits: +-u at p = 2, u^(p-1) at odd p."""
    z = _at(u, p, digits).residue
    if p == 2:
        return z if z % 4 == 1 else -z
    return pow(z, p - 1, p**digits)


def solve_units(a, b, p, precision=12):
    """Solve a^x = b for units a and b (ints are exact).

    The split decides: an unsolvable pair raises UnsolvableError with the
    first failing level, and truncation that hides a needed depth returns
    verdict "undetermined".  Otherwise x is glued from its torsion residue
    mod the torsion modulus and the principal exponent log(b2) / log(a2)
    mod p^precision.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return _solve_split_units(a, b, p, precision, _split(a, b, p))


def _solve_split_units(a, b, p, precision, split):
    """``solve_units`` for a caller that already holds ``_split(a, b, p)``."""
    verdict, m, da, db = split
    if (a if isinstance(a, int) else a._int_value) == 1:
        raise AIsOne("powers of 1 cannot reach anything but 1")
    if verdict.verdict == "unsolvable":
        raise UnsolvableError(verdict.reason, failing_level=verdict.failing_level)
    za, zb = _value(a), _value(b)
    if p == 2:
        t = zb % 4 // 2  # the parity that b's sign demands
    else:
        # the split checked that b's residue is a power of a's, and m is
        # the order of a mod p
        t = _dlog_mod_p(za, zb, p, m)
    common = dict(p=p, precision=precision, torsion_modulus=m, torsion_residue=t)
    if verdict.verdict == "undetermined":
        return UnitsSolution(
            verdict="undetermined",
            principal_exponent=None,
            depth_a=None,
            x=None,
            reason=verdict.reason,
            **common,
        )
    if da.is_infinite:
        # pure torsion: a is exactly a root of unity (a = -1 in practice)
        return UnitsSolution(
            verdict="solvable",
            principal_exponent=None,
            depth_a=None,
            x=t,
            reason="both principal parts are trivial",
            **common,
        )
    if db.is_infinite:
        x1 = PAdicInt.from_integer(0, p, precision)  # b's principal part is 1
    else:
        # db is finite: the depth test made depth(a) exact and at most depth(b)
        wide = precision + da.amount
        la, lb = (_log_mod(_principal(u, p, wide), p, wide) for u in (a, b))
        x1 = PAdicInt._of(p, _log_ratio(la, lb, p, da.amount, precision), precision)
    return UnitsSolution(
        verdict="solvable",
        principal_exponent=x1,
        depth_a=da.amount if da.is_exact else None,
        x=_combine(t, m, x1, p),
        reason="torsion and principal congruences combined",
        **common,
    )


def _combine(t, m, x1, p):
    """Smallest nonnegative x with x = t mod m and x = x1 mod p^k."""
    k = x1.precision
    r = x1.to_int()
    if m == 1 or p == 2:
        # at p = 2 the principal congruence already carries the parity
        return r
    # CRT: x = t + m * s with s = (r - t) / m mod p^k; m divides p - 1, so
    # it is invertible mod any power of p
    s = (r - t) * pow(m, -1, p**k) % p**k
    return t + m * s


def solution_is_unit(a, b, p, precision=12):
    """Is the exponent solving a^x = b itself a p-adic unit?

    The exponent's valuation is depth(b) - depth(a) on principal parts, so
    the answer compares the split's depths.  Raises when the equation is
    not solvable to begin with, or when truncation hides a depth it needs;
    integer pairs are decided at any ``precision``.
    """
    verdict, _, da, db = _split(a, b, p)
    if verdict.verdict == "undetermined":
        raise InsufficientPrecision(verdict.reason)
    if verdict.verdict == "unsolvable":
        raise UnsolvableError(verdict.reason, failing_level=verdict.failing_level)
    unit = _exponent_is_unit(da, db)
    if unit is None:
        raise InsufficientPrecision("a depth is hidden beyond working precision")
    return unit
