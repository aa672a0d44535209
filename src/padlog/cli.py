"""Command-line front end for the solver, the constructors, and the tables.

Subcommands
-----------
dlog       solve a^x = b over the p-adic integers and print the level trace
teich      digits of the multiplicative (Teichmuller) lift of a residue
proot      stable primitive roots of one prime or a range of primes
structure  invariant factors of the unit group mod n
quotient   structure of the unit group modulo k-th powers
special    analyze a base/target pair and its multiplication permutation
tables     print one of the built-in worked tables

Exit codes
----------
0    success; for ``dlog`` the equation is solvable
2    ``dlog``: provably unsolvable (the failing level is reported)
3    ``dlog``: existence undetermined, only for truncated input
64   usage error (unparseable or missing flags)
65   domain error; stderr carries a machine-readable reason code

Output is human-oriented by default; ``--format json`` emits one JSON
object per row with sorted keys and fixed separators, so identical inputs
produce byte-identical output.  Digit lists are least-significant-first.
For ``dlog``, ``-N`` asks for that many digits of the p-adic exponent.  The
``lift`` route reads its rows from the ``units`` limit by the order law, up
to the first level that pins those digits; ``solver.solve_by_lifting``, the
level-by-level climb, is the oracle it is tested against.

The environment variable PADLOG_MAX_MODULUS overrides the built-in
brute-force caps used by the residue search and the pair analyzer.
"""

import argparse
import functools
import itertools
import json
import operator
import os
import sys

from .errors import AIsOne, NotInRange, PadlogError, UnknownTable, UnsolvableError
from .padic import digit_csv, render_power_sum
from .primroot import all_stable_roots
from .quotient import power_map_report
from .residue import (
    PRINTED_EXPONENT_DIGITS,
    PROOT_THROUGH_CAP,
    _is_prime,
    _require_prime,
    group_structure,
    order_profile,
)
from .solver import (
    _digits_pinned_at,
    _limit_trace,
    _split,
    solve_by_lifting,
    solve_log_ratio,
    solve_units,
)
from .special import analyze_pair, cycle_decomposition
from .teichmuller import teichmuller_lift

EX_OK = 0
EX_UNSOLVABLE = 2
EX_UNDETERMINED = 3
EX_USAGE = 64
EX_DOMAIN = 65

#: the exit code of each dlog verdict
VERDICT_EXIT = {
    "solvable": EX_OK,
    "unsolvable": EX_UNSOLVABLE,
    "undetermined": EX_UNDETERMINED,
}

#: the lift and units routes refuse a run whose exponents may reach this
_PRINT_LIMIT = 10**PRINTED_EXPONENT_DIGITS

#: primes of the classical stable-root table, in its printed order
TABLE_PRIMES = (5, 13, 17, 29, 37, 41, 7, 11, 19, 23, 31, 43)


def _integer(text):
    """int(text), refusing more digits than CPython converts as out of range."""
    cap = PRINTED_EXPONENT_DIGITS
    if len(text) > cap and sum(map(str.isdigit, text)) > cap:  # counting costs 4x int()
        raise NotInRange("integers have at most %d digits" % cap)
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse parser: usage failures exit with code 64; ints go through _integer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _integer)

    def error(self, message):
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# output plumbing


def _encode(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _emit(args, records, human_lines):
    """Print the records as JSON lines, or the human lines.  A record that
    is already a string is a pre-encoded JSON line and is printed as is."""
    if args.format == "json":
        lines = [r if isinstance(r, str) else _encode(r) for r in records]
    else:
        lines = list(human_lines)
    try:
        if lines:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _csv(digits, p):
    """The digit text of a human line, looked up by name so that a test
    can check that a JSON run builds none."""
    return digit_csv(digits, p)


def _with_digits(record, digits, p):
    """``record`` with a "digits" array, as its JSON line.  The array is
    the bulk digit text (json.dumps writes an array one element at a
    time), put in place of a null: ``"digits":null`` can only be the key,
    since a JSON string escapes every quote inside it."""
    line = _encode({**record, "digits": None})
    return line.replace('"digits":null', '"digits":[%s]' % digit_csv(digits, p), 1)


def _bracket(factors):
    return "[%s]" % ",".join(str(f) for f in factors)


# ---------------------------------------------------------------------------
# dlog


def _lift_levels(a, p, want_digits, split):
    """Levels of the lift route: at least ``want_digits + 2``, and enough
    to pin ``want_digits`` digits.

    The verdict comes from ``split``, the decision procedure's
    ``_split(a, b, p)``: an unsolvable pair stops exactly at its failing
    level, which may lie above any level the digit count asks for.  Pure
    torsion bases (a = -1) never pin more digits.  For any other base the
    order law pins n - depth(a) digits at level n >= depth(a) (at p = 2 and
    a = 3 mod 4, at least one), so level want_digits + depth(a) pins the
    digits when level want_digits + 2 does not.
    """
    verdict, _, da, _ = split
    if verdict.verdict == "unsolvable":
        return verdict.failing_level
    n = want_digits + 2
    if da.is_infinite or _digits_pinned_at(n, a, p, da.amount) >= want_digits:
        return n
    return want_digits + da.amount


def _lift_lines(trace, rows):
    """One JSON line per lifting row, with the prefix of digits it pins.

    The digit text is written once and each line slices its prefix up to a
    recorded comma offset, so the lines cost time linear in their length.
    Each equals the row's record {"digits", "n", "verdict", "x_n"} dumped
    with sorted keys and fixed separators.
    """
    joined = digit_csv(trace.digits, trace.p)
    # the first k >= 1 digits end at their lengths plus k - 1 commas
    lengths = itertools.accumulate(map(len, joined.split(",")))
    ends = [0, *map(operator.add, lengths, itertools.count())]
    return [
        '{"digits":[%s],"n":%d,"verdict":"solvable","x_n":%d}'
        % (joined[: ends[row.digit_count]], row.n, row.x_n)
        for row in rows
    ]


def _dlog_lift(args):
    split = _split(args.a, args.b, args.p)
    levels = _lift_levels(args.a, args.p, args.N, split)
    trace = _limit_trace(args.a, args.b, args.p, levels, split)
    digits = trace.digits[: args.N]
    power_sum = render_power_sum(digits, args.p)
    # only the chosen format's lines: the row lines cost about as much as
    # the trace, and the human ones join every digit
    if args.format == "json":
        summary = {
            "failing_level": trace.failing_level,
            "p": args.p,
            "power_sum": power_sum,
            "precision": len(digits),
            "verdict": trace.verdict,
            "x": trace.x,
        }
        summary = _with_digits(summary, digits, args.p)
        _emit(args, [*_lift_lines(trace, trace.rows), summary], [])
    else:
        human = [
            "n=%-3d x_n=%-12d order=%d" % (row.n, row.x_n, row.order)
            for row in trace.rows
        ]
        if trace.verdict == "solvable":
            if digits:
                csv = _csv(digits, args.p)
                human.append("x = %s@%d^%d" % (csv, args.p, len(digits)))
                human.append("  = %s" % power_sum)
            human.append("x_n -> %d, verdict: solvable" % trace.x)
        else:
            if digits:
                human.append("pinned digits: %s" % _csv(digits, args.p))
            human.append("verdict: unsolvable at level %d" % trace.failing_level)
        _emit(args, [], human)
    return VERDICT_EXIT[trace.verdict]


def _dlog_log(args):
    result = solve_log_ratio(args.a, args.b, args.p, args.N)
    digits = result.x.digits
    power_sum = render_power_sum(digits, args.p)
    # only the chosen format's lines: the human ones join every digit
    if args.format == "json":
        record = {
            "depth_a": result.depth_a,
            "p": args.p,
            "power_sum": power_sum,
            "precision": len(digits),
            "verdict": "solvable",
        }
        _emit(args, [_with_digits(record, digits, args.p)], [])
    else:
        human = [
            "x = %s@%d^%d" % (_csv(digits, args.p), args.p, len(digits)),
            "  = %s" % power_sum,
            "depth(a) = %d, guard digits spent = %d"
            % (result.depth_a, result.precision_loss),
        ]
        _emit(args, [], human)
    return EX_OK


def _dlog_units(args):
    sol = solve_units(args.a, args.b, args.p, args.N)
    principal = (
        sol.principal_exponent.digits if sol.principal_exponent is not None else None
    )
    if args.format == "json":
        record = {
            "depth_a": sol.depth_a,
            "digits": None,
            "p": args.p,
            "precision": sol.precision,
            "reason": sol.reason,
            "torsion_modulus": sol.torsion_modulus,
            "torsion_residue": sol.torsion_residue,
            "verdict": sol.verdict,
            "x": sol.x,
        }
        if principal is not None:
            record = _with_digits(record, principal, args.p)
        _emit(args, [record], [])
    else:
        human = []
        if sol.torsion_modulus > 1:
            human.append(
                "torsion: x = %d (mod %d)" % (sol.torsion_residue, sol.torsion_modulus)
            )
        if principal is not None:
            human.append("principal exponent digits: %s" % _csv(principal, args.p))
        if sol.x is not None:
            human.append("x = %d" % sol.x)
        human.append("verdict: %s" % sol.verdict)
        if sol.reason:
            human.append("reason: %s" % sol.reason)
        _emit(args, [], human)
    return VERDICT_EXIT[sol.verdict]


def _may_print_too_long(p, N):
    """Is p^(N + 2), the bound on the exponents the lift and units routes
    print, above 10^PRINTED_EXPONENT_DIGITS?  A composite p is refused
    first, and the power is formed only when it cannot be huge."""
    _require_prime(p)
    if (p.bit_length() - 1) * (N + 2) >= _PRINT_LIMIT.bit_length():
        return True  # p^(N + 2) >= 2^that > the limit
    return p ** (N + 2) > _PRINT_LIMIT


def cmd_dlog(args):
    if args.N < 1:
        raise ValueError("precision must be >= 1")
    if args.a == 1:
        raise AIsOne("powers of 1 cannot reach anything but 1")
    method = args.method
    if method == "auto":
        method = "lift"
    if method != "log" and _may_print_too_long(args.p, args.N):
        raise NotInRange(
            "the %s route prints exponents below p^(N + 2), which at p = %d "
            "and N = %d may have more than %d decimal digits; --method log "
            "prints digits only" % (method, args.p, args.N, PRINTED_EXPONENT_DIGITS)
        )
    try:
        if method == "lift":
            return _dlog_lift(args)
        if method == "log":
            return _dlog_log(args)
        return _dlog_units(args)
    except UnsolvableError as exc:
        record = {
            "failing_level": exc.failing_level,
            "reason": str(exc),
            "verdict": "unsolvable",
        }
        human = ["verdict: unsolvable (%s)" % exc]
        _emit(args, [record], human)
        return VERDICT_EXIT["unsolvable"]


# ---------------------------------------------------------------------------
# the constructors


def cmd_teich(args):
    if not 1 <= args.a0 <= args.p - 1:
        raise NotInRange("a0 must lie in [1, p-1], got %d" % args.a0)
    digits = teichmuller_lift(args.a0, args.p, args.N).digits
    if args.format == "json":
        record = {"a0": args.a0, "p": args.p, "precision": args.N}
        _emit(args, [_with_digits(record, digits, args.p)], [])
    else:
        human = [_csv(digits, args.p), "= %s" % render_power_sum(digits, args.p)]
        _emit(args, [], human)
    return EX_OK


def _proot_rows(primes, full=False):
    records = []
    human = []
    for q in primes:
        roots = all_stable_roots(q, full=full)
        records.append({"p": q, "roots": roots})
        human.append("%d: %s" % (q, " ".join(str(r) for r in roots)))
    return records, human


def cmd_proot(args):
    last = args.through if args.through is not None else args.p
    if last < args.p:
        raise NotInRange("--through must be >= p, got %d < %d" % (last, args.p))
    if args.through is not None and last > PROOT_THROUGH_CAP:
        raise NotInRange("--through is at most %d, got %d" % (PROOT_THROUGH_CAP, last))
    # a single p goes to all_stable_roots, which refuses one that is not prime
    primes = [args.p] if args.through is None else filter(_is_prime, range(args.p, last + 1))
    records, human = _proot_rows(primes, full=args.full)
    _emit(args, records, human)
    return EX_OK


def cmd_structure(args):
    s = group_structure(args.n)
    record = {
        "cyclic_order": s.cyclic_order,
        "factors": list(s.factors),
        "n": args.n,
    }
    human = [_bracket(s.factors)]
    _emit(args, [record], human)
    return EX_OK


def cmd_quotient(args):
    rep = power_map_report(args.p, args.k)
    record = {
        "cokernel": list(rep.codomain_mod_image.factors),
        "d1": rep.d1,
        "d2": rep.d2,
        "image_finite": list(rep.image.finite.factors),
        "image_unit_scale": rep.image.unit_scale,
        "image_z_scale": rep.image.z_scale,
        "k": args.k,
        "kernel": list(rep.kernel.factors),
        "m": rep.m,
        "p": args.p,
    }
    human = [
        _bracket(rep.codomain_mod_image.factors),
        "kernel: %s" % _bracket(rep.kernel.factors),
        "image: z_scale=%s unit_scale=%s finite=%s"
        % (
            rep.image.z_scale,
            rep.image.unit_scale,
            _bracket(rep.image.finite.factors),
        ),
    ]
    _emit(args, [record], human)
    return EX_OK


def cmd_special(args):
    rep = analyze_pair(args.a, args.b, args.p, args.n)
    record = {
        "a": rep.a,
        "b": rep.b,
        "failed_condition": rep.failed_condition,
        "is_special": rep.is_special,
        "max_possible": rep.max_possible,
        "n": rep.n,
        "ord_a": rep.ord_a,
        "p": rep.p,
        "x_o": rep.x_o,
        "x_order": rep.x_order,
    }
    human = ["special: %s" % ("yes" if rep.is_special else "no")]
    if rep.failed_condition:
        human.append("failed condition: %s" % rep.failed_condition)
    if rep.ord_a is not None:
        human.append("ord(a) = %d" % rep.ord_a)
    if rep.x_o is not None:
        human.append("x_o = %d" % rep.x_o)
    if rep.x_order is not None:
        human.append(
            "order of x_o = %d (max possible %d)" % (rep.x_order, rep.max_possible)
        )
    records = [record]
    if args.cycles:
        if rep.x_o is None:
            raise NotInRange("no multiplier to decompose: the pair has no dlog")
        dec = cycle_decomposition(rep.x_o, rep.ord_a)
        records.append(
            {
                "cycles": dec.compact(),
                "modulus": dec.modulus,
                "x": dec.x,
            }
        )
        human.append("cycles: %s" % dec.compact())
    _emit(args, records, human)
    return EX_OK


# ---------------------------------------------------------------------------
# tables


def _dlog_rows(a, b, p, n_max, n_min=1):
    trace = solve_by_lifting(a, b, p, n_max)
    rows = [row for row in trace.rows if row.n >= n_min]
    human = ["n=%-3d x_n=%d" % (row.n, row.x_n) for row in rows]
    return _lift_lines(trace, rows), human


def _table_order_2_mod_5n():
    rows = order_profile(2, 5, 10).rows
    records = [{"n": n, "order": order} for n, order in rows]
    return records, ["n=%-3d order=%d" % row for row in rows]


def _table_special_x_order():
    records = []
    human = []
    for n in range(5, 11):
        rep = analyze_pair(-3, 5, 2, n)
        records.append(
            {
                "max": rep.max_possible,
                "n": n,
                "ord_a": rep.ord_a,
                "order": rep.x_order,
                "x_o": rep.x_o,
            }
        )
        human.append(
            "n=%-3d x_o=%-4d ord(a)=%-4d order=%-3d max=%d"
            % (n, rep.x_o, rep.ord_a, rep.x_order, rep.max_possible)
        )
    return records, human


def _table_special_cycles():
    records = []
    human = []
    for n in range(3, 8):
        rep = analyze_pair(-3, 5, 2, n)
        dec = cycle_decomposition(rep.x_o, rep.ord_a)
        records.append(
            {
                "cycles": dec.compact(),
                "modulus": rep.ord_a,
                "n": n,
                "x_o": rep.x_o,
            }
        )
        human.append("n=%d: %s" % (n, dec.compact()))
    return records, human


TABLES = {
    "gauss-proots": lambda: _proot_rows(TABLE_PRIMES),
    "order-2-mod-5n": _table_order_2_mod_5n,
    "neg3-pow-5-mod-2n": lambda: _dlog_rows(-3, 5, 2, 10),
    "sq-pair-mod-2n": lambda: _dlog_rows(9, 25, 2, 20, n_min=5),
    "neg2-pow-3-mod-5n": lambda: _dlog_rows(-2, 3, 5, 10),
    "neg4-pow-6-mod-5n": lambda: _dlog_rows(-4, 6, 5, 10),
    "special-x-order": _table_special_x_order,
    "special-cycles": _table_special_cycles,
}


def cmd_tables(args):
    try:
        builder = TABLES[args.name]
    except KeyError:
        raise UnknownTable(
            "no table named %r; known tables: %s"
            % (args.name, ", ".join(sorted(TABLES)))
        ) from None
    records, human = builder()
    _emit(args, records, human)
    return EX_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every call in
    the process: parsing leaves it unchanged, and building it costs far
    more than a small dlog."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output style: human text or one JSON object per line",
    )

    parser = _Parser(
        prog="padlog",
        description="exact p-adic discrete logarithms, digit constructions, "
        "and the worked tables",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_dlog = sub.add_parser(
        "dlog", parents=[common], help="solve a^x = b over the p-adic integers"
    )
    p_dlog.add_argument("-p", type=int, required=True, help="prime base of Z_p")
    p_dlog.add_argument("-a", type=int, required=True, help="base of the power")
    p_dlog.add_argument("-b", type=int, required=True, help="target value")
    p_dlog.add_argument(
        "-N", type=int, default=12, help="digits of the exponent to pin (default 12)"
    )
    p_dlog.add_argument(
        "--method",
        choices=("lift", "log", "units", "auto"),
        default="auto",
        help="lift: level-by-level; log: log-ratio for principal units; "
        "units: torsion/principal split; auto: lift",
    )
    p_dlog.set_defaults(func=cmd_dlog)

    p_teich = sub.add_parser(
        "teich", parents=[common], help="digits of the multiplicative lift"
    )
    p_teich.add_argument("-p", type=int, required=True, help="odd prime (or 2)")
    p_teich.add_argument(
        "-a0", type=int, required=True, help="residue to lift, in [1, p-1]"
    )
    p_teich.add_argument(
        "-N", type=int, default=12, help="digits to compute (default 12)"
    )
    p_teich.set_defaults(func=cmd_teich)

    p_proot = sub.add_parser(
        "proot", parents=[common], help="stable primitive roots of a prime"
    )
    p_proot.add_argument("-p", type=int, required=True, help="first (or only) prime")
    p_proot.add_argument(
        "--through",
        type=int,
        default=None,
        help="also list every prime up to this bound",
    )
    p_proot.add_argument(
        "--full",
        action="store_true",
        help="list every stable root instead of one per mirror pair",
    )
    p_proot.set_defaults(func=cmd_proot)

    p_structure = sub.add_parser(
        "structure", parents=[common], help="invariant factors of the unit group mod n"
    )
    p_structure.add_argument("n", type=int, help="modulus, n >= 2")
    p_structure.set_defaults(func=cmd_structure)

    p_quotient = sub.add_parser(
        "quotient", parents=[common], help="unit group modulo k-th powers"
    )
    p_quotient.add_argument("-p", type=int, required=True, help="prime")
    p_quotient.add_argument("-k", type=int, required=True, help="power exponent")
    p_quotient.set_defaults(func=cmd_quotient)

    p_special = sub.add_parser(
        "special", parents=[common], help="analyze a base/target pair at one level"
    )
    p_special.add_argument("-a", type=int, required=True, help="base of the power")
    p_special.add_argument("-b", type=int, required=True, help="target value")
    p_special.add_argument("-p", type=int, required=True, help="prime")
    p_special.add_argument("-n", type=int, required=True, help="level (mod p^n)")
    p_special.add_argument(
        "--cycles",
        action="store_true",
        help="also print the multiplication-permutation cycles",
    )
    p_special.set_defaults(func=cmd_special)

    p_tables = sub.add_parser(
        "tables", parents=[common], help="print one of the built-in worked tables"
    )
    p_tables.add_argument(
        "name", help="table name; try an unknown name to see the list"
    )
    p_tables.set_defaults(func=cmd_tables)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PadlogError as exc:
        print("error (%s): %s" % (exc.code, exc), file=sys.stderr)
        return EX_DOMAIN
    except ValueError as exc:
        print("error (usage): %s" % exc, file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
