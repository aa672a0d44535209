"""Judge every program result against the reference answer.

``judge(op, got)`` returns None when the result is right, else a failure
record with the input and both answers.  An operation fails when its
result, verdict, exit code or raised error differs from the reference; an
exception the reference does not predict is such a difference.

``KNOWN_DEFECTS`` names the wrong answers the program is known to give at
the commit the benchmark was written against.  They still count as failed
operations; they only keep ``correct`` true, which any other failure
turns false.
"""

import json
import os

import reference as ref

KNOWN_DEFECTS = {
    "item2-undetermined-p2": (
        "ROADMAP open item 2: check_existence says 'undetermined' for a p = 2 "
        "pair whose principal depths decide it (the sign-coupling cases, and "
        "exact pairs whose depth reaches the default 12 digits)"
    ),
}


class Checker:
    def __init__(self, root):
        self.golden_dir = os.path.join(root, "tests", "golden")
        self._golden = {}

    def golden(self, name):
        if name not in self._golden:
            with open(os.path.join(self.golden_dir, name + ".jsonl")) as f:
                self._golden[name] = f.read()
        return self._golden[name]

    def judge(self, o, got):
        kind, args = o["kind"], o["args"]
        expected, seen = getattr(self, "_" + kind)(args, o["meta"], got)
        if expected == seen:
            return None
        failure = {"kind": kind, "args": args, "expected": expected, "got": seen,
                   "class": classify(kind, args, got)}
        if "raised" in got:
            failure["raised"] = "%s: %s" % (got["raised"], got["message"])
        return failure

    # -- one method per operation kind: (expected, the judged view of got) --

    def _lift(self, args, meta, got):
        a, b, p, n = args
        claimed = {r[0]: r[1] for r in got.get("rows", [])}
        rows, fail = ref.lift_rows(a, b, p, n, j=meta.get("j"), claimed=claimed)
        return _trace_record(rows, fail, p), got

    def _exist(self, args, meta, got):
        a, b, p = args
        return {"verdict": ref.existence_verdict(a, b, p)}, got

    def _exist_trunc(self, args, meta, got):
        (a, p, n), (b, _, _) = ref.parse_digits(args[0]), ref.parse_digits(args[1])
        return {"verdict": ref.existence_verdict(a, b, p, precision=n)}, got

    def _units(self, args, meta, got):
        a, b, p, precision = args
        if not _units_solvable(a, b, p):
            expected = {"raised": "UnsolvableError",
                        "failing_level": ref.units_failing_level(a, b, p)}
            return expected, _pick(got, expected)
        expected = _units_record(a, b, p, precision, got.get("x"))
        return expected, _pick(got, expected)

    def _dlog(self, args, meta, got):
        p, a, b, n, method = args
        try:
            records = [json.loads(line) for line in got["out"].splitlines()]
        except (KeyError, ValueError):
            return {"code": "0 or 2 with JSON records"}, got
        seen = {"code": got["code"], "records": records}
        if method == "lift":
            claimed = {r.get("n"): r.get("x_n") for r in records}
            return cli_lift_records(a, b, p, n, claimed), seen
        if method == "units":
            if not _units_solvable(a, b, p):
                return {"code": 2, "verdict": "unsolvable"}, {
                    "code": got["code"], "verdict": records[-1].get("verdict")}
            x = records[0].get("x") if records else None
            rec = dict(_units_record(a, b, p, n, x), p=p, precision=n)
            seen["records"] = [{k: v for k, v in r.items() if k != "reason"} for r in records]
            return {"code": 0, "records": [rec]}, seen
        da = ref.depth(a, p)
        ds = records[0].get("digits") if records else None
        ok = _log_digits_ok(a, b, p, n, da, ds)
        rec = {"depth_a": da, "digits": ds if ok else _log_claim(n, da), "p": p,
               "power_sum": ref.power_sum(ds, p) if ok else None, "precision": n,
               "verdict": "solvable"}
        return {"code": 0, "records": [rec]}, seen

    def _logratio_trunc(self, args, meta, got):
        (a, p, n_in), (b, _, _) = ref.parse_digits(args[0]), ref.parse_digits(args[1])
        precision = args[2]
        da = ref.depth(a, p, n_in)
        ds = got.get("digits")
        ok = _log_digits_ok(a, b, p, precision, da, ds)
        return {"digits": ds if ok else _log_claim(precision, da), "depth_a": da}, got

    def _coker(self, args, meta, got):
        seen = {"divisors": ref.elementary_divisors(got["factors"])} if "factors" in got else got
        return {"divisors": ref.predicted_cokernel(*args)}, seen

    def _stable(self, args, meta, got):
        return {"roots": ref.stable_roots(*args)}, got

    def _analyze(self, args, meta, got):
        return ref.special_pair(*args), got

    def _cycles(self, args, meta, got):
        x, m = args
        return {"compact": ref.cycles(x % m, m)}, got

    def _table(self, args, meta, got):
        return {"code": 0, "out": self.golden(args[0])}, _pick(got, ("code", "out"))


def classify(kind, args, got):
    if kind in ("exist", "exist_trunc") and got.get("verdict") == "undetermined":
        p = args[2] if kind == "exist" else ref.parse_digits(args[0])[1]
        if p == 2:
            return "item2-undetermined-p2"
    return "unexplained"


def _pick(got, keys):
    return {k: got.get(k) for k in keys}


def _trace_record(rows, fail, p):
    last = rows[-1] if rows else None
    return {
        "verdict": "unsolvable" if fail else "solvable",
        "failing_level": fail,
        "rows": [list(r) for r in rows],
        "digits": ref.digits(last[1], p, last[3]) if last else [],
    }


def cli_lift_records(a, b, p, want, claimed=None):
    """The CLI's lift output: levels 1..N+2, extended by the missing digit
    count until N digits are pinned (at most 64 rounds)."""
    n_max = want + 2
    for _ in range(64):
        rows, fail = ref.lift_rows(a, b, p, n_max, claimed=claimed)
        pinned = rows[-1][3] if rows else 0
        if fail or pinned >= want:
            break
        n_max += want - pinned
    trace = _trace_record(rows, fail, p)
    ds = trace["digits"][:want]
    records = [{"digits": ref.digits(x, p, dc), "n": k, "verdict": "solvable", "x_n": x}
               for k, x, _, dc in rows]
    records.append({
        "digits": ds, "failing_level": fail, "p": p, "power_sum": ref.power_sum(ds, p),
        "precision": len(ds), "verdict": trace["verdict"],
        "x": rows[-1][1] if rows and not fail else None,
    })
    return {"code": 2 if fail else 0, "records": records}


def _units_solvable(a, b, p):
    return ref.existence_verdict(a, b, p) == "solvable"


def _units_record(a, b, p, precision, x):
    m = ref.torsion_modulus(a, p)
    ok = ref.unit_solution_ok(a, b, p, precision, x)
    claim = "the x in [0, %s) with a^x = b mod p^(N + depth a)" % (
        "2^N" if p == 2 else "%d p^N" % m)
    return {
        "verdict": "solvable",
        "torsion_modulus": m,
        "torsion_residue": (x % m if m > 1 else 0) if ok else "x mod %d" % m,
        "depth_a": ref.depth(a, p),
        "x": x if ok else claim,
        "digits": ref.digits(x, p, precision) if ok else "digits of " + claim,
    }


def _log_digits_ok(a, b, p, precision, da, ds):
    if not isinstance(ds, list) or len(ds) != precision:
        return False
    mod = p ** (precision + da)
    return pow(a, ref.from_digits(ds, p), mod) == b % mod


def _log_claim(precision, da):
    return "%d digits of x with a^x = b mod p^(%d + %d)" % (precision, precision, da)
