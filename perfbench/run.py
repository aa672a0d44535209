"""padlog benchmark: seeded workloads, end-to-end metrics, a traced run per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (padlog is imported from ./src).  Every
workload runs in fresh worker processes with one caller and no threads,
and every result is checked against ``reference.py``, which never calls
padlog.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced
run that passes over a fixed, seeded operation set for ``--seconds``; with
``--trace 1`` they are the per-layer ones, from a traced run of a fixed
number of rounds, plus the tracing overhead against an untraced run of the
same rounds.  ``attempted`` counts the distinct operations of the run and
``failed`` those with a wrong answer on any pass, so both repeat exactly
for the same seed.  Per-run records, the failure list and the span trace
go to ``.perfbench_out/``.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as wl
from check import KNOWN_DEFECTS, Checker
from worker import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 3  # fresh processes whose set-up time is measured; the median is reported
# The calibration loop of worker.py takes this long on an undisturbed core of
# the machine the benchmark was written on (Intel Xeon, 2 vCPUs, CPython
# 3.11.7).  Times are reported scaled to that speed; see calibrated().
CALIBRATION_REF_MS = 0.9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
WORKER_TIMEOUT_S = 80


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes


def worker(workload, seed, *mode, ops=None, out=None, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), *mode]
    if ops:
        cmd += ["--ops", ops, "--out", out]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out" % " ".join(mode)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %d" % (" ".join(mode), proc.returncode))
    return json.loads(lines[-1])


def drift_probe():
    """Median ms of the calibration loop: the machine's speed right now."""
    return statistics.median(calibrate() for _ in range(21))


# ---------------------------------------------------------------------------
# checking and statistics


def write_ops(workload, seed, rounds):
    """The seeded operation set, written where a worker reads it: only what
    the program receives (kind and arguments) and the round."""
    ops = wl.op_set(workload, seed, rounds)
    path = os.path.join(OUT, "ops-%s.jsonl" % workload.name)
    with open(path, "w") as f:
        for o in ops:
            f.write(json.dumps({"round": o["round"], "kind": o["kind"], "args": o["args"]}) + "\n")
    return ops, path


def load_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def check_results(ops, results, checker):
    """Failures by operation: every written result is judged, and an
    operation fails once however many of its passes were wrong."""
    judged = [r["i"] for r in results if "r" in r][: len(ops)]
    if judged != list(range(len(ops))):
        raise BenchError("the worker did not return one first result per operation")
    failures = {}
    for r in results:
        i = r["i"]
        if "r" in r and i not in failures:
            failure = checker.judge(ops[i], r["r"])
            if failure:
                failure["op_index"] = i
                failures[i] = failure
    return [failures[i] for i in sorted(failures)]


def calibrated(latencies, samples):
    """Each operation's time scaled to the reference core speed.

    ``samples`` are the worker's (operations before it, ms) calibration
    readings, taken every 0.1 s of operation time.  An operation between
    readings j and j + 1 is scaled by CALIBRATION_REF_MS over the median of
    readings j - 1 .. j + 2: the core's speed while it ran, read on both
    sides.  Other tenants slow this machine's cores by up to 1.8x for
    seconds to minutes; the loop slows with them, so the scaled time is what
    the operation would take on the undisturbed core.
    """
    out = []
    for j, (start, _) in enumerate(samples[:-1]):
        end = samples[j + 1][0]
        near = [ms for _, ms in samples[max(0, j - 1) : j + 3]]
        scale = CALIBRATION_REF_MS / statistics.median(near)
        out += [ms * scale for ms in latencies[start:end]]
    return out


def calibrated_setup(summary):
    return summary["setup_s"] * CALIBRATION_REF_MS / statistics.median(
        summary["setup_calibration_ms"])


def tail(latencies, pct):
    """Nearest-rank percentile at pct, falling down TAIL_LADDER while fewer
    than 10 samples lie beyond it.  Returns (value, percentile, beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    for q in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        idx = max(math.ceil(q / 100 * n) - 1, 0)
        if n - idx - 1 >= 10 or q == TAIL_LADDER[-1]:
            return xs[idx], q, n - idx - 1
    raise AssertionError("unreachable")


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one workload


def run_untraced(workload, seed, seconds, checker):
    marks = [time.perf_counter()]
    ops, ops_path = write_ops(workload, seed, workload.pass_rounds)
    marks.append(time.perf_counter())
    setups = [worker(workload.name, seed, "--setup-only") for _ in range(SETUPS - 1)]
    marks.append(time.perf_counter())
    path = os.path.join(OUT, "results-%s.jsonl" % workload.name)
    summary = worker(workload.name, seed, "--seconds", str(seconds), ops=ops_path, out=path)
    marks.append(time.perf_counter())
    setups.append(summary)
    results = load_results(path)
    failures = check_results(ops, results, checker)
    marks.append(time.perf_counter())
    wall = [r["ms"] for r in results]
    lat = calibrated(wall, summary["calibration_ms"])
    tail_ms, q, beyond = tail(lat, workload.tail_pct)
    setup_s = [calibrated_setup(s) for s in setups]
    metrics = {
        "ops_per_s": metric(len(lat) / (sum(lat) / 1e3), "ops/s"),
        "latency_p50_ms": metric(statistics.median(lat), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
    }
    calibration = [ms for _, ms in summary["calibration_ms"]]
    notes = {
        "tail_percentile": q, "tail_samples": len(lat), "tail_beyond": beyond,
        "wall": {
            "ops_per_s": len(wall) / (sum(wall) / 1e3),
            "latency_p50_ms": statistics.median(wall),
            "latency_tail_ms": tail(wall, q)[0],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        },
        "calibration_ms": [min(calibration), statistics.median(calibration), max(calibration)],
        "setups_s": setup_s, "rounds": workload.pass_rounds, "ops": len(lat),
        "passes": summary["passes"],
        "phase_s": dict(zip(("generate", "setups", "measure", "check"),
                            (b - a for a, b in zip(marks, marks[1:])))),
        "python": summary["python"], "sympy": summary["sympy"],
    }
    return len(ops), failures, metrics, notes


def run_traced(workload, seed, checker):
    rounds = ("--rounds", str(workload.trace_rounds))
    ops, ops_path = write_ops(workload, seed, workload.trace_rounds)
    plain_path = os.path.join(OUT, "results-%s-plain.jsonl" % workload.name)
    traced_path = os.path.join(OUT, "results-%s-traced.jsonl" % workload.name)
    trace_path = os.path.join(OUT, "trace-%s.jsonl.gz" % workload.name)
    plain = worker(workload.name, seed, *rounds, ops=ops_path, out=plain_path)
    traced = worker(workload.name, seed, *rounds, "--trace", ops=ops_path, out=traced_path,
                    trace_out=trace_path)
    failures = []
    attempted = 0
    for path in (plain_path, traced_path):
        results = load_results(path)
        attempted += len(results)
        failures += check_results(ops, results, checker)
    untraced_rate, traced_rate = (
        s["ops"] / (sum(calibrated([r["ms"] for r in load_results(path)], s["calibration_ms"])) / 1e3)
        for s, path in ((plain, plain_path), (traced, traced_path)))
    metrics = {name: metric(v, unit) for name, (v, unit) in traced["layers"].items()}
    metrics["trace.untraced_ops_per_s"] = metric(untraced_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = metric(traced_rate, "ops/s")
    metrics["trace.overhead_pct"] = metric((1 - traced_rate / untraced_rate) * 100, "%")
    notes = {"rounds": workload.trace_rounds, "ops": traced["ops"], "trace_file": trace_path,
             "python": traced["python"], "sympy": traced["sympy"]}
    return attempted, failures, metrics, notes


def run_workload(name, seed, seconds, trace, checker):
    workload = wl.WORKLOADS[name]
    drift_before = drift_probe()
    if trace:
        attempted, failures, metrics, notes = run_traced(workload, seed, checker)
    else:
        attempted, failures, metrics, notes = run_untraced(workload, seed, seconds, checker)
    drift_after = drift_probe()
    by_class = {}
    for f in failures:
        by_class[f["class"]] = by_class.get(f["class"], 0) + 1
    with open(os.path.join(OUT, "failures-%s.jsonl" % name), "w") as f:
        for failure in failures:
            f.write(json.dumps(failure) + "\n")
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "attempted": attempted,
        "failed": len(failures), "fail_ratio": len(failures) / attempted,
        "failures_by_class": by_class, "drift_ms": [drift_before, drift_after],
        "nproc": os.cpu_count(), "metrics": metrics, **notes,
    }
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    report(record, failures)
    return record


def report(record, failures):
    print("== %s  seed=%d  trace=%d  rounds=%d" % (
        record["workload"], record["seed"], record["trace"], record["rounds"]))
    for name, m in record["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if "passes" in record:
        print("  %d operations timed: %d whole passes over the operation set of %d" % (
            record["ops"], record["passes"], record["attempted"]))
    if "tail_percentile" in record:
        print("  latency_tail_ms is p%g of %d samples (%d beyond it)" % (
            record["tail_percentile"], record["tail_samples"], record["tail_beyond"]))
        print("  setup_s samples: %s" % ", ".join("%.3f" % s for s in record["setups_s"]))
        print("  calibration loop %.3f / %.3f / %.3f ms (min / median / max; %.3f ms undisturbed)" % (
            *record["calibration_ms"], CALIBRATION_REF_MS))
        print("  wall time, unscaled: %s" % ", ".join(
            "%s %.6g" % kv for kv in record["wall"].items()))
    print("  fail_ratio %.6f (%d of %d)" % (record["fail_ratio"], record["failed"],
                                           record["attempted"]))
    for cls, count in sorted(record["failures_by_class"].items()):
        print("    %6d  %s: %s" % (count, cls, KNOWN_DEFECTS.get(cls, "NOT A KNOWN DEFECT")))
    for failure in failures[:3]:
        text = json.dumps({k: failure[k] for k in ("kind", "args", "expected", "got")})
        print("    e.g. %s" % (text if len(text) < 400 else text[:400] + " ..."))
    print("  drift probe %.3f ms before, %.3f ms after" % tuple(record["drift_ms"]))


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (os.path.join("src", "padlog", "__init__.py"), os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: %s is missing under %s" % (needed, ROOT), file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    checker = Checker(ROOT)
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace, checker))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            metrics[rec["workload"] + "." + name if prefix else name] = m
    result = {
        "correct": all(set(r["failures_by_class"]) <= set(KNOWN_DEFECTS) for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
