"""One benchmark process: import padlog, warm up, run operations, record results.

Run by ``run.py`` as a fresh interpreter, one caller, no threads:

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        (--seconds S | --rounds K | --setup-only) [--trace]
        --ops FILE --out FILE

Set-up time runs from just before ``import padlog`` to the end of the
warm-up.  The operations come from FILE, one JSON object per line, tagged
with their round.  Each operation is timed alone; reading it and encoding
and writing its result between operations is not counted.  With
``--seconds`` the operations of FILE run in whole passes: the first always,
and each further one while the operations' own time, projected to the end
of that pass, stays within S, so every run measures the same mix; with
``--rounds`` those of the first K rounds run once, so a traced run repeats
its call counts exactly.  Every line of the output carries the operation's
index and time; a result is written on the first pass and whenever a later
pass gives a different one.  A fixed calibration loop runs before the first
operation, after every 0.1 s of operation time and after the last, and
around the set-up; its times go to the summary, which is the last stdout
line, as JSON.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads as wl

WALL_CAP_S = 60  # start no pass after this
CALIBRATE_EVERY_S = 0.1  # of operation time
CALIBRATION_LOOP = 12_000  # iterations; about 0.9 ms on an undisturbed core


def calibrate():
    """Milliseconds of a fixed pure-Python loop: the core's speed right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def _read_ops(path):
    with open(path) as f:
        for line in f:
            yield json.loads(line)


def _load_padlog(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import padlog
    import padlog.cli
    import sympy

    if not os.path.abspath(padlog.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("padlog was imported from %s, not from %s" % (padlog.__file__, src))
    return padlog, sympy


def _executors(padlog):
    solver, padic = padlog.solver, padlog.padic

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = padlog.cli.main(argv)
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    def dlog(p, a, b, n, method):
        argv = ["dlog", "-p", str(p), "-a", str(a), "-b", str(b), "-N", str(n),
                "--method", method, "--format", "json"]
        return cli(argv)

    def exist_trunc(ta, tb):
        a, b = padic.parse_padic(ta), padic.parse_padic(tb)
        return solver.check_existence(a, b, a.base)

    def logratio_trunc(ta, tb, precision):
        a, b = padic.parse_padic(ta), padic.parse_padic(tb)
        return solver.solve_log_ratio(a, b, a.base, precision)

    # attributes are looked up at call time, so installed tracing applies
    return {
        "lift": lambda *a: solver.solve_by_lifting(*a),
        "exist": lambda *a: solver.check_existence(*a),
        "units": lambda *a: solver.solve_units(*a),
        "dlog": dlog,
        "table": lambda name: cli(["tables", name, "--format", "json"]),
        "exist_trunc": exist_trunc,
        "logratio_trunc": logratio_trunc,
        "coker": lambda *a: padlog.quotient.verify_cokernel_finite_level(*a),
        "stable": lambda p: padlog.primroot.all_stable_roots(p),
        "analyze": lambda *a: padlog.special.analyze_pair(*a),
        "cycles": lambda *a: padlog.special.cycle_decomposition(*a),
    }


def encode(kind, result):
    """Plain JSON data for a result, as the checker reads it."""
    if isinstance(result, dict):  # CLI runs
        return result
    if kind == "lift":
        return {
            "verdict": result.verdict,
            "failing_level": result.failing_level,
            "rows": [[r.n, r.x_n, r.order, r.digit_count] for r in result.rows],
            "digits": list(result.digits),
        }
    if kind in ("exist", "exist_trunc"):
        return {"verdict": result.verdict}
    if kind == "units":
        pe = result.principal_exponent
        return {
            "verdict": result.verdict,
            "torsion_modulus": result.torsion_modulus,
            "torsion_residue": result.torsion_residue,
            "depth_a": result.depth_a,
            "x": result.x,
            "digits": None if pe is None else list(pe.digits),
        }
    if kind == "logratio_trunc":
        return {"digits": list(result.x.digits), "depth_a": result.depth_a}
    if kind == "coker":
        return {"factors": list(result.factors)}
    if kind == "stable":
        return {"roots": list(result)}
    if kind == "analyze":
        fields = ("a", "b", "p", "n", "is_special", "failed_condition", "x_o",
                  "ord_a", "x_order", "max_possible")
        return {f: getattr(result, f) for f in fields}
    if kind == "cycles":
        return {"compact": result.compact()}
    raise ValueError("unknown operation kind %r" % kind)


def run_op(execute, o):
    """(elapsed seconds, encoded result) of one operation."""
    fn = execute[o["kind"]]
    t0 = time.perf_counter()
    try:
        result = fn(*o["args"])
        t1 = time.perf_counter()
    except Exception as exc:  # a raised error is a result the checker judges
        t1 = time.perf_counter()
        return t1 - t0, {"raised": type(exc).__name__,
                         "failing_level": getattr(exc, "failing_level", None),
                         "message": str(exc)}
    return t1 - t0, encode(o["kind"], result)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ops")
    ap.add_argument("--out")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    warmup = wl.warmup_ops(workload)

    setup_calibration = [calibrate() for _ in range(3)]
    t_setup = time.perf_counter()
    padlog, sympy = _load_padlog(args.root)
    execute = _executors(padlog)
    for o in warmup:
        run_op(execute, o)
    setup_s = time.perf_counter() - t_setup
    setup_calibration += [calibrate() for _ in range(3)]
    summary = {"setup_s": setup_s, "setup_calibration_ms": setup_calibration,
               "python": sys.version.split()[0], "sympy": sympy.__version__}
    if args.setup_only:
        print(json.dumps(summary))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(padlog, sympy)
    busy = 0.0
    n_ops = passes = 0
    op_ms = {}
    first = []  # hash of each operation's first encoded result
    calibration = [(0, calibrate())]  # (operations before it, ms)
    since = 0.0
    t_start = time.perf_counter()
    with open(args.out, "w") as out:
        while True:
            for i, o in enumerate(_read_ops(args.ops)):
                if args.rounds is not None and o["round"] >= args.rounds:
                    break
                if tracer:
                    tracer.current_op = n_ops
                dt, res = run_op(execute, o)
                busy += dt
                since += dt
                if tracer:
                    op_ms[n_ops] = dt * 1e3
                line = {"i": i, "ms": dt * 1e3}
                text = json.dumps(res, sort_keys=True)
                if not passes:
                    first.append(hash(text))
                    line["r"] = res
                elif hash(text) != first[i]:
                    line["r"] = res
                out.write(json.dumps(line) + "\n")
                n_ops += 1
                if since >= CALIBRATE_EVERY_S:
                    calibration.append((n_ops, calibrate()))
                    since = 0.0
            else:
                passes += 1
                if (args.seconds is not None and busy * (passes + 1) / passes <= args.seconds
                        and time.perf_counter() - t_start < WALL_CAP_S):
                    continue
            break
    calibration.append((n_ops, calibrate()))
    summary.update(ops=n_ops, passes=passes, busy_s=busy, calibration_ms=calibration,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        summary["layers"] = tracer.summary(op_ms, n_ops)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": workload.name, "seed": args.seed,
                                          "rounds": args.rounds, "ops": n_ops})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
