"""Self-tests of the benchmark: inputs, reference and checker, without padlog.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(HERE)


def _json_lines(records):
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


# ---------------------------------------------------------------------------
# inputs


def test_same_seed_same_inputs():
    for w in wl.WORKLOADS.values():
        for r in (0, 1):
            assert wl.round_ops(w, 7, r) == wl.round_ops(w, 7, r), (w.name, r)
        assert wl.round_ops(w, 7, 0) != wl.round_ops(w, 8, 0), w.name
        assert wl.round_ops(w, 7, 0) != wl.round_ops(w, 7, 1), w.name


def test_op_set_repeats_for_a_seed():
    for w in wl.WORKLOADS.values():
        ops = wl.op_set(w, 7, 2)
        assert ops == wl.op_set(w, 7, 2), w.name
        assert [o["round"] for o in ops] == sorted(o["round"] for o in ops), w.name
        second = [{k: v for k, v in o.items() if k != "round"} for o in ops if o["round"] == 1]
        assert second == wl.round_ops(w, 7, 1), w.name


def test_deep_digits_pass_gives_each_log_route_every_depth():
    w = wl.WORKLOADS["deep-digits"]
    seen = {}
    for o in wl.op_set(w, 3, w.pass_rounds):
        if o["kind"] == "dlog" and o["args"][4] == "log":
            p, a, n = o["args"][0], o["args"][1], o["args"][3]
            seen.setdefault((p, n), []).append(ref.depth(a, p) - (p == 2))
    for (p, n), depths in seen.items():
        copies = len(depths) // wl.DEPTHS
        assert sorted(depths) == sorted(list(range(1, wl.DEPTHS + 1)) * copies), (p, n)


def test_rounds_have_a_fixed_mix():
    for w in wl.WORKLOADS.values():
        kinds = [sorted(o["kind"] for o in wl.round_ops(w, s, 0)) for s in (1, 2)]
        assert kinds[0] == kinds[1], w.name


# ---------------------------------------------------------------------------
# the reference


def _rows(records):
    return {r["n"]: r["x_n"] for r in records if "n" in r}


def test_reference_reproduces_criterion_1():
    out = check.cli_lift_records(-3, 5, 2, 14)
    assert out["code"] == 0
    assert [_rows(out["records"])[n] for n in range(1, 11)] == [1, 1, 1, 3, 3, 11, 11, 11, 11, 11]
    summary = out["records"][-1]
    assert summary["digits"] == [1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1]
    assert summary["power_sum"] == "1 + 2 + 2^3 + 2^8 + 2^10 + 2^11 + 2^12 + 2^13"


def test_reference_reproduces_criterion_2():
    rows = _rows(check.cli_lift_records(9, 25, 2, 15)["records"])
    want = {12: 267, 14: 1291, 15: 3339, 16: 7435, 17: 15627}
    assert {n: rows[n] for n in want} == want


def test_reference_reproduces_criterion_3():
    out = check.cli_lift_records(-4, 6, 5, 9)
    rows = _rows(out["records"])
    assert [rows[n] for n in range(1, 10)] == [1, 4, 4, 54, 304, 929, 7179, 22804, 179054]
    assert out["records"][-1]["power_sum"] == (
        "4 + 2*5^2 + 2*5^3 + 5^4 + 2*5^5 + 5^6 + 2*5^7 + 2*5^8")


def test_reference_matches_golden_lift_tables():
    for name, (a, b, p, n) in {
        "neg3-pow-5-mod-2n": (-3, 5, 2, 10),
        "neg2-pow-3-mod-5n": (-2, 3, 5, 10),
        "neg4-pow-6-mod-5n": (-4, 6, 5, 10),
    }.items():
        rows, fail = ref.lift_rows(a, b, p, n)
        records = [{"digits": ref.digits(x, p, dc), "n": k, "verdict": "solvable", "x_n": x}
                   for k, x, _, dc in rows]
        with open(os.path.join(ROOT, "tests", "golden", name + ".jsonl")) as f:
            assert _json_lines(records) == f.read(), name


def test_reference_stable_roots_and_special_rows():
    table = {5: [2, 3], 13: [2, 6], 17: [3, 5, 6, 7], 29: [2, 3, 8, 10, 11, 15],
             7: [3, 5], 11: [2, 6, 7, 8], 43: [3, 5, 12, 18, 20, 26, 28, 29, 30, 33, 34]}
    for p, roots in table.items():
        assert ref.stable_roots(p) == roots, p
    rep = ref.special_pair(-3, 5, 2, 7)
    assert (rep["x_o"], rep["ord_a"], rep["x_order"], rep["max_possible"]) == (11, 32, 8, 8)
    assert ref.cycles(rep["x_o"], rep["ord_a"]).startswith("(1 11 25 19 17 27 9 3)")


def test_verdict_rule_agrees_with_lifting():
    """Unit pairs with |a|, |b| <= 15: the rule against 20-level lifting."""
    for p in (2, 3, 5, 7):
        for a in range(-15, 16):
            if a % p == 0 or a in (1, -1):
                continue
            for b in range(-15, 16):
                if b % p == 0:
                    continue
                fail = ref.lift_rows(a, b, p, 20)[1]
                want = "unsolvable" if fail else "solvable"
                assert ref.existence_verdict(a, b, p) == want, (a, b, p)
    assert ref.existence_verdict(3, 5, 2) == "unsolvable"
    assert ref.existence_verdict(-5, 5, 2) == "unsolvable"


def test_digit_text_round_trip():
    value, p, n = ref.parse_digits(ref.format_digits(123456, 7, 9))
    assert (value, p, n) == (123456, 7, 9)


# ---------------------------------------------------------------------------
# the checker counts wrong answers


def _op(kind, *args, **meta):
    return {"kind": kind, "args": list(args), "meta": meta}


def test_wrong_x_is_a_failure():
    checker = check.Checker(ROOT)
    o = _op("lift", 2, 1000, 3, 8)
    rows, fail = ref.lift_rows(2, 1000, 3, 8)
    right = check._trace_record(rows, fail, 3)
    assert checker.judge(o, right) is None
    wrong = json.loads(json.dumps(right))
    wrong["rows"][-1][1] += 1
    failure = checker.judge(o, wrong)
    assert failure["class"] == "unexplained"
    assert failure["expected"] == right


def test_wrong_verdict_is_a_failure():
    checker = check.Checker(ROOT)
    o = _op("exist", 3, 7, 5)
    want = ref.existence_verdict(3, 7, 5)
    assert checker.judge(o, {"verdict": want}) is None
    flipped = "solvable" if want == "unsolvable" else "unsolvable"
    assert checker.judge(o, {"verdict": flipped})["class"] == "unexplained"
    known = checker.judge(_op("exist", 3, 5, 2), {"verdict": "undetermined"})
    assert known["class"] == "item2-undetermined-p2"


def test_wrong_exit_code_is_a_failure():
    checker = check.Checker(ROOT)
    o = _op("dlog", 5, -4, 6, 9, "lift")
    records = check.cli_lift_records(-4, 6, 5, 9)["records"]
    out = _json_lines(records)
    assert checker.judge(o, {"code": 0, "out": out, "err": ""}) is None
    assert checker.judge(o, {"code": 2, "out": out, "err": ""}) is not None
    table = _op("table", "order-2-mod-5n")
    golden = checker.golden("order-2-mod-5n")
    assert checker.judge(table, {"code": 0, "out": golden, "err": ""}) is None
    assert checker.judge(table, {"code": 65, "out": golden, "err": ""}) is not None


def test_unexpected_exception_is_a_failure():
    checker = check.Checker(ROOT)
    raised = {"raised": "NotPrime", "failing_level": None, "message": "boom"}
    assert "NotPrime" in checker.judge(_op("coker", 7, 2, 6), raised)["raised"]
    p, a = 10007, 4
    b = next(b for b in range(2, p) if pow(b, ref.order_mod(a, p), p) != 1)
    units = _op("units", a, b, p, 12)
    predicted = {"raised": "UnsolvableError", "failing_level": 1, "message": "no"}
    assert checker.judge(units, predicted) is None
    assert checker.judge(units, raised) is not None


def test_an_operation_fails_once_and_a_changed_repeat_is_judged():
    checker = check.Checker(ROOT)
    ops = [_op("exist", 3, 7, 5), _op("exist", 3, 5, 2)]
    right = [{"verdict": ref.existence_verdict(*o["args"])} for o in ops]
    wrong = {"verdict": "undetermined"}
    results = [{"i": 0, "ms": 1, "r": right[0]}, {"i": 1, "ms": 1, "r": wrong},
               {"i": 0, "ms": 1}, {"i": 1, "ms": 1, "r": wrong}]
    assert [f["op_index"] for f in run.check_results(ops, results, checker)] == [1]
    results[2]["r"] = wrong  # a later pass that disagrees with a right first answer
    assert [f["op_index"] for f in run.check_results(ops, results, checker)] == [0, 1]


def test_a_missing_first_result_stops_the_run():
    checker = check.Checker(ROOT)
    ops = [_op("exist", 3, 7, 5), _op("exist", 3, 5, 2)]
    results = [{"i": 0, "ms": 1, "r": {"verdict": "solvable"}}, {"i": 0, "ms": 1}]
    try:
        run.check_results(ops, results, checker)
    except run.BenchError:
        return
    raise AssertionError("a result was missing, but the run was checked")


# ---------------------------------------------------------------------------
# statistics


def test_calibration_scales_each_stretch_by_the_core_speed_around_it():
    ref_ms = run.CALIBRATION_REF_MS
    # the core runs at full speed, then at half speed from operation 4 on
    samples = [(0, ref_ms), (2, ref_ms), (4, 2 * ref_ms), (6, 2 * ref_ms), (8, 2 * ref_ms)]
    wall = [1.0] * 4 + [2.0] * 4
    scaled = run.calibrated(wall, samples)
    assert len(scaled) == len(wall)
    assert scaled[:2] == [1.0, 1.0]
    assert scaled[-2:] == [1.0, 1.0]
    summary = {"setup_s": 0.8, "setup_calibration_ms": [2 * ref_ms] * 6}
    assert abs(run.calibrated_setup(summary) - 0.4) < 1e-12


def test_tail_keeps_ten_samples_beyond():
    value, q, beyond = run.tail(list(range(1, 101)), 99.9)
    assert (value, q, beyond) == (90, 90.0, 10)
