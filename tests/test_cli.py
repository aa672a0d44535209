"""End-to-end checks of the command-line interface.

Covers the exit-code contract (0 solvable / 2 unsolvable / 64 usage /
65 domain), the worked examples, byte-stability and golden-file equality
of json-lines output, and the digit round-trip guarantee.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import cli, primroot, solver
from padlog.cli import (
    EX_DOMAIN,
    EX_OK,
    EX_UNSOLVABLE,
    EX_USAGE,
    TABLES,
    VERDICT_EXIT,
    _lift_lines,
    build_parser,
    main,
)
from padlog.padic import PAdicInt, parse_padic
from padlog.solver import check_existence, solve_by_lifting
from padlog.teichmuller import teichmuller_lift

GOLDEN_DIR = Path(__file__).parent / "golden"

TABLE_NAMES = sorted(TABLES)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def json_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# ---------------------------------------------------------------------------
# worked examples, human format


def test_teich_worked_example(capsys):
    code, out, _ = run_cli(["teich", "-p", "5", "-a0", "2", "-N", "11"], capsys)
    assert code == EX_OK
    assert out.splitlines()[0] == "2,1,2,1,3,4,2,3,0,3,2"


def test_teich_trivial_lift(capsys):
    code, out, _ = run_cli(["teich", "-p", "5", "-a0", "1", "-N", "4"], capsys)
    assert code == EX_OK
    assert out.splitlines()[0] == "1,0,0,0"


def test_teich_digits_match_library(capsys):
    code, out, _ = run_cli(["teich", "-p", "7", "-a0", "3", "-N", "8"], capsys)
    assert code == EX_OK
    got = [int(d) for d in out.splitlines()[0].split(",")]
    assert tuple(got) == teichmuller_lift(3, 7, 8).digits
    # Frobenius fixed point: the lifted value is its own p-th power
    value = sum(d * 7**i for i, d in enumerate(got))
    assert pow(value, 7, 7**8) == value


def test_dlog_digit_line_base_two(capsys):
    code, out, _ = run_cli(
        ["dlog", "-p", "2", "-a", "-3", "-b", "5", "-N", "14", "--method", "lift"],
        capsys,
    )
    assert code == EX_OK
    assert "1,1,0,1,0,0,0,0,1,0,1,1,1,1" in out
    assert "1 + 2 + 2^3 + 2^8 + 2^10 + 2^11 + 2^12 + 2^13" in out


def test_dlog_fixed_point_of_itself(capsys):
    code, out, _ = run_cli(["dlog", "-p", "5", "-a", "7", "-b", "7", "-N", "6"], capsys)
    assert code == EX_OK
    assert "x_n -> 1," in out


def test_dlog_row_nine(capsys):
    code, out, _ = run_cli(
        [
            "dlog", "-p", "5", "-a", "-4", "-b", "6", "-N", "9",
            "--method", "lift", "--format", "json",
        ],
        capsys,
    )
    assert code == EX_OK
    rows = {r["n"]: r["x_n"] for r in json_rows(out) if "n" in r}
    assert rows[9] == 179054


def test_structure_eight(capsys):
    code, out, _ = run_cli(["structure", "8"], capsys)
    assert code == EX_OK
    assert out.splitlines()[0] == "[2,2]"


def test_quotient_base_two_squares(capsys):
    code, out, _ = run_cli(["quotient", "-p", "2", "-k", "2"], capsys)
    assert code == EX_OK
    assert out.splitlines()[0] == "[2,2,2]"


def test_tables_cycle_row_six(capsys):
    code, out, _ = run_cli(["tables", "special-cycles"], capsys)
    assert code == EX_OK
    assert "n=6: (1 11 9 3)(2 6)(4 12)(5 7 13 15)(8)(10 14)" in out.splitlines()


def test_special_report(capsys):
    code, out, _ = run_cli(
        ["special", "-a", "-3", "-b", "5", "-p", "2", "-n", "6", "--cycles"], capsys
    )
    assert code == EX_OK
    assert "special: yes" in out
    assert "cycles: (1 11 9 3)(2 6)(4 12)(5 7 13 15)(8)(10 14)" in out


def test_proot_single_and_range(capsys):
    code, out, _ = run_cli(["proot", "-p", "29"], capsys)
    assert code == EX_OK
    assert out.splitlines()[0] == "29: 2 3 8 10 11 15"
    code, out, _ = run_cli(["proot", "-p", "5", "--through", "7"], capsys)
    assert code == EX_OK
    assert out.splitlines() == ["5: 2 3", "7: 3 5"]
    # a single p must be prime; a range skips the composites
    code, out, err = run_cli(["proot", "-p", "4"], capsys)
    assert code == EX_DOMAIN
    assert out == "" and "error (not-prime)" in err
    code, out, _ = run_cli(["proot", "-p", "4", "--through", "6"], capsys)
    assert code == EX_OK
    assert out.splitlines() == ["5: 2 3"]


def test_proot_refuses_a_range_past_its_cap(capsys):
    # the range costs about the square of its bound in time and output;
    # before the cap, --through 100000000 ran for minutes
    cap = cli.PROOT_THROUGH_CAP
    code, out, err = run_cli(["proot", "-p", "5", "--through", "100000000"], capsys)
    assert (code, out) == (EX_DOMAIN, "")
    assert err == "error (not-in-range): --through is at most %d, got 100000000\n" % cap
    argv = ["proot", "-p", "5", "--through", str(cap + 1), "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EX_DOMAIN, "") and "not-in-range" in err
    code, out, err = run_cli(["proot", "-p", "9973", "--through", str(cap)], capsys)
    assert (code, err) == (EX_OK, "")
    assert [line.split(":")[0] for line in out.splitlines()] == ["9973"]


def test_proot_refuses_a_prime_past_its_cap(monkeypatch, capsys):
    # one prime costs O(p) time and memory; the cap is lowered here so no
    # large p runs
    monkeypatch.setattr(primroot, "PROOT_PRIME_CAP", 43)
    code, out, err = run_cli(["proot", "-p", "47"], capsys)
    assert (code, out) == (EX_DOMAIN, "")
    assert err == "error (modulus-too-large): stable roots are listed for primes up to 43, got 47\n"
    code, out, err = run_cli(["proot", "-p", "47", "--format", "json"], capsys)
    assert (code, out) == (EX_DOMAIN, "") and "modulus-too-large" in err
    code, out, err = run_cli(["proot", "-p", "43"], capsys)
    assert (code, err) == (EX_OK, "")
    assert out.splitlines() == ["43: 3 5 12 18 20 26 28 29 30 33 34"]


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_is_64(capsys):
    code, _, err = run_cli(["dlog", "-p", "5", "-a", "-3"], capsys)
    assert code == EX_USAGE
    assert "required" in err


def test_unknown_method_is_64(capsys):
    code, _, _ = run_cli(
        ["dlog", "-p", "5", "-a", "2", "-b", "3", "--method", "nope"], capsys
    )
    assert code == EX_USAGE


def test_unsolvable_is_2_lift(capsys):
    code, out, _ = run_cli(["dlog", "-p", "5", "-a", "4", "-b", "2", "-N", "4"], capsys)
    assert code == EX_UNSOLVABLE
    assert "unsolvable at level 1" in out


def test_unsolvable_is_2_units(capsys):
    code, out, _ = run_cli(
        ["dlog", "-p", "5", "-a", "4", "-b", "2", "--method", "units"], capsys
    )
    assert code == EX_UNSOLVABLE
    assert "unsolvable" in out


@pytest.mark.parametrize("method", ["lift", "log", "units", "auto"])
def test_precision_below_one_is_64(method, capsys):
    # 3^x = 5 over Z_2 is unsolvable at level 3; no route may answer it
    # from a climb cut short by -N 0
    for n in ("0", "-2"):
        code, out, err = run_cli(
            ["dlog", "-p", "2", "-a", "3", "-b", "5", "-N", n, "--method", method],
            capsys,
        )
        assert code == EX_USAGE
        assert out == ""
        assert "usage" in err


def test_exact_pair_decided_at_one_digit(capsys):
    code, out, _ = run_cli(
        ["dlog", "-p", "5", "-a", "6", "-b", "11", "-N", "1", "--method", "log"],
        capsys,
    )
    assert code == EX_OK
    assert out.splitlines()[0] == "x = 2@5^1"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dlog_exit_codes_follow_check_existence(p, capsys):
    # a = -1 never pins a digit, so its failing level (5 for b = 17 at
    # p = 2) can lie above the levels that -N 1 asks the lift route for
    for a in [c for c in range(-9, 10) if c % p]:
        if a == 1:
            continue
        for b in [c for c in range(-9, 18) if c % p]:
            want = check_existence(a, b, p)
            for method in ("lift", "units"):
                for n in ("1", "4"):
                    argv = ["dlog", "-p", str(p), "-a", str(a), "-b", str(b), "-N", n,
                            "--method", method, "--format", "json"]
                    code, out, _ = run_cli(argv, capsys)
                    assert code == VERDICT_EXIT[want.verdict], (a, b, p, method, n)
                    if code == EX_UNSOLVABLE:
                        level = json_rows(out)[-1]["failing_level"]
                        assert level == want.failing_level, (a, b, p, method, n)


def test_lift_climb_reaches_the_digits_of_a_deep_base(capsys):
    # depth(a) = 300: no digit of x is pinned below level 301, and the
    # third one at level 303; the units route reads x = 7 directly
    a = 1 + 3**300
    b = pow(a, 7, 3**400)
    argv = ["dlog", "-p", "3", "-a", str(a), "-b", str(b), "-N", "3", "--format", "json"]
    code, out, _ = run_cli(argv + ["--method", "lift"], capsys)
    assert code == EX_OK
    rows = json_rows(out)
    assert rows[-2]["n"] == 303
    assert (rows[-1]["digits"], rows[-1]["x"]) == ([1, 2, 0], 7)
    code, out, _ = run_cli(argv + ["--method", "units"], capsys)
    assert code == EX_OK
    assert (json_rows(out)[-1]["digits"], json_rows(out)[-1]["x"]) == ([1, 2, 0], 7)


def test_lift_rows_reach_a_failing_level_above_the_digits_asked_for(capsys):
    # -N 1 asks for 3 levels, but -1 never reaches 17 = 1 + 2^4 and the
    # rows run up to the failing level 5
    argv = ["dlog", "-p", "2", "-a", "-1", "-b", "17", "-N", "1", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == EX_UNSOLVABLE
    rows = json_rows(out)
    assert [(r["n"], r["x_n"], r["digits"]) for r in rows[:-1]] == [
        (1, 1, []),
        (2, 2, [0]),
        (3, 2, [0]),
        (4, 2, [0]),
    ]
    assert (rows[-1]["verdict"], rows[-1]["failing_level"]) == ("unsolvable", 5)
    assert rows[-1]["digits"] == [0]


@pytest.mark.parametrize(
    "a, b, p, n_max",
    [
        (-3, 5, 2, 10),
        (9, 25, 2, 20),
        (-4, 6, 5, 10),
        (1 + 5**4, 1 + 2 * 5**4, 5, 9),  # four rows pin no digit
        (2, 3, 101, 12),  # digits of one and two characters
        (3, 5, 2, 5),  # unsolvable: rows up to the failing level
    ],
)
def test_lift_lines_are_the_rows_dumped_as_json(a, b, p, n_max):
    trace = solve_by_lifting(a, b, p, n_max)
    want = [
        json.dumps(
            {
                "digits": list(trace.digits[: row.digit_count]),
                "n": row.n,
                "verdict": "solvable",
                "x_n": row.x_n,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for row in trace.rows
    ]
    assert _lift_lines(trace, trace.rows) == want
    assert _lift_lines(trace, trace.rows[2:]) == want[2:]


@pytest.mark.parametrize(
    "record",
    [
        {"a0": 3, "p": 7, "precision": 4},
        {"depth_a": None, "p": 11, "reason": '"digits":null', "x": 5},
        {"p": 101, "power_sum": "0", "verdict": "solvable"},
    ],
)
@pytest.mark.parametrize("digits", [(), (0,), (6, 0, 1, 5), (10, 0, 3), (100, 7, 55)])
def test_with_digits_is_the_record_dumped_as_json(record, digits):
    p = max([record["p"], *(d + 1 for d in digits)])
    want = json.dumps(
        {**record, "digits": list(digits)}, sort_keys=True, separators=(",", ":")
    )
    assert cli._with_digits(record, digits, p) == want


def test_dlog_beyond_the_baby_step_cap_is_65(capsys):
    # p - 1 = 2 * 2199023256029: a log in the large prime factor would
    # tabulate about 1.5 * 10^6 baby steps
    for method in ("lift", "units"):
        code, out, err = run_cli(
            ["dlog", "-p", "4398046512059", "-a", "3", "-b", "9", "-N", "2",
             "--method", method],
            capsys,
        )
        assert code == EX_DOMAIN, method
        assert out == ""
        assert "modulus-too-large" in err


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("method", ["lift", "units"])
def test_dlog_refuses_an_exponent_too_long_to_print(method, fmt, capsys):
    # 10007^1075 has 4301 decimal digits, more than CPython prints; the
    # run is refused before solving, as a domain error, not a usage error
    argv = ["dlog", "-p", "10007", "-a", "5", "-b", "3", "--method", method,
            "--format", fmt]
    for n in (1073, 1100):
        code, out, err = run_cli([*argv, "-N", str(n)], capsys)
        assert code == EX_DOMAIN, (n, err)
        assert out == ""
        assert err.startswith("error (not-in-range): the %s route" % method)
    # 10007^1074 has 4300 digits: the largest N that still runs
    if method == "units" or fmt == "json":  # the lift route's rows are slow
        code, out, err = run_cli([*argv, "-N", "1072"], capsys)
        assert (code, err) == (EX_OK, "")
        if fmt == "json":
            x = json_rows(out)[-1]["x"]
            assert len(str(x)) <= 4300 and pow(5, x, 10007**2) == 3


def test_dlog_log_route_prints_digits_past_the_exponent_cap(capsys):
    code, out, _ = run_cli(
        ["dlog", "-p", "10007", "-a", "10008", "-b", str(10008**2), "-N", "1100",
         "--method", "log", "--format", "json"],
        capsys,
    )
    assert code == EX_OK
    assert json_rows(out)[0]["digits"] == [2] + [0] * 1099


@pytest.mark.parametrize("flag", ["-b", "-p"])
def test_dlog_refuses_an_integer_argument_too_long_to_read(flag):
    # 4402 digits, past CPython's 4300-digit limit on reading an int: a
    # domain error that names the cap, not a usage error echoing the digits
    args = {"-p": "7", "-a": "3", "-b": "2", "-N": "5"}
    args[flag] = "1" * 4402
    proc = subprocess.run(
        [sys.executable, "-m", "padlog.cli", "dlog", *sum(args.items(), ())],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (EX_DOMAIN, "")
    assert proc.stderr == "error (not-in-range): integers have at most 4300 digits\n"


def test_dlog_reads_an_integer_argument_at_the_digit_cap(capsys):
    b = int("1" * 4300)
    code, out, err = run_cli(
        ["dlog", "-p", "7", "-a", "3", "-b", str(b), "-N", "5", "--method", "units",
         "--format", "json"],
        capsys,
    )
    assert (code, err) == (EX_OK, "")
    assert pow(3, json_rows(out)[-1]["x"], 7**5) == b % 7**5


@pytest.mark.parametrize("method", ["lift", "log", "units"])
def test_json_dlog_builds_no_human_line(method, capsys, monkeypatch):
    def refuse(digits):
        raise AssertionError("a human line was built under --format json")

    monkeypatch.setattr(cli, "_csv", refuse)
    code, out, _ = run_cli(
        ["dlog", "-p", "5", "-a", "6", "-b", "11", "-N", "8", "--method", method,
         "--format", "json"],
        capsys,
    )
    assert code == EX_OK
    assert json_rows(out)[-1]["digits"] == [2, 4, 3, 0, 3, 4, 2, 0]


def test_lift_run_decides_the_split_once(capsys, monkeypatch):
    calls = []
    real = solver._split

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_split", counted)
    monkeypatch.setattr(cli, "_split", counted)
    for a, b, p in ((2, 3, 7), (-2, 3, 5), (3, 7, 2), (9, 25, 2), (3, 2, 7)):
        calls.clear()
        code, _, _ = run_cli(
            ["dlog", "-p", str(p), "-a", str(a), "-b", str(b), "-N", "20"], capsys
        )
        assert code in (EX_OK, EX_UNSOLVABLE)
        assert calls == [(a, b, p)]


def test_domain_errors_are_65(capsys):
    code, _, err = run_cli(["teich", "-p", "5", "-a0", "9", "-N", "4"], capsys)
    assert code == EX_DOMAIN
    assert "not-in-range" in err

    code, _, err = run_cli(["dlog", "-p", "6", "-a", "2", "-b", "3"], capsys)
    assert code == EX_DOMAIN
    assert "not-prime" in err

    code, _, err = run_cli(["dlog", "-p", "5", "-a", "1", "-b", "3"], capsys)
    assert code == EX_DOMAIN
    assert "a-is-one" in err

    code, _, err = run_cli(["tables", "no-such-table"], capsys)
    assert code == EX_DOMAIN
    assert "unknown-table" in err


# ---------------------------------------------------------------------------
# golden files and byte stability


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_tables_match_golden(name, capsys):
    code, out, _ = run_cli(["tables", name, "--format", "json"], capsys)
    assert code == EX_OK
    golden = (GOLDEN_DIR / ("%s.jsonl" % name)).read_text()
    assert out == golden


def test_json_output_is_bit_stable(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(
            ["dlog", "-p", "2", "-a", "9", "-b", "25", "-N", "10", "--format", "json"],
            capsys,
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_dlog_row_schema(capsys):
    _, out, _ = run_cli(
        ["dlog", "-p", "2", "-a", "-3", "-b", "5", "-N", "8", "--format", "json"],
        capsys,
    )
    rows = json_rows(out)
    for row in rows[:-1]:
        assert set(row) == {"n", "x_n", "digits", "verdict"}
    assert rows[-1]["verdict"] == "solvable"


def child_env():
    # the child does not read pytest's pythonpath setting, so hand it src
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "padlog.cli", "structure", "8"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "[2,2]"


def test_one_parser_serves_many_calls_without_leaking_state(capsys):
    # one process, one parser: each call must print and exit exactly as a
    # fresh process does, so no flag of an earlier call shows in a later one
    runs = [
        ["dlog", "-p", "5", "-a", "6", "-b", "11", "-N", "7",
         "--method", "units", "--format", "json"],
        ["tables", "neg2-pow-3-mod-5n"],
        ["dlog", "-p", "5", "-a", "2"],
        ["dlog", "-p", "5", "-a", "2", "-b", "3"],
    ]
    assert build_parser() is build_parser()
    in_process = [run_cli(argv, capsys) for argv in runs]
    fresh = []
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "padlog.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [EX_OK, EX_OK, EX_USAGE, EX_OK]
    assert "required: -b" in fresh[2][2]


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_closed_pipe_is_not_an_error(fmt):
    # about 80 KB, more than a pipe buffer holds, so the child is still
    # writing when the reader goes away (as under `| head -1`)
    proc = subprocess.Popen(
        [sys.executable, "-m", "padlog.cli", "proot", "-p", "3",
         "--through", "1000", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EX_OK
    assert first.startswith(b'{"p":3,' if fmt == "json" else b"3: ")
    assert b"Traceback" not in err
    assert err == b""


# ---------------------------------------------------------------------------
# round trips


def test_printed_digits_reparse_to_equal_value(capsys):
    _, out, _ = run_cli(
        ["dlog", "-p", "5", "-a", "-4", "-b", "6", "-N", "9", "--method", "lift"],
        capsys,
    )
    line = next(l for l in out.splitlines() if l.startswith("x = "))
    reparsed = parse_padic(line[len("x = "):])
    _, jout, _ = run_cli(
        [
            "dlog", "-p", "5", "-a", "-4", "-b", "6", "-N", "9",
            "--method", "lift", "--format", "json",
        ],
        capsys,
    )
    summary = json_rows(jout)[-1]
    assert reparsed == PAdicInt(5, tuple(summary["digits"]))


def test_units_method_agrees_with_lift(capsys):
    code, out, _ = run_cli(
        ["dlog", "-p", "5", "-a", "-2", "-b", "3", "-N", "8", "--method", "units",
         "--format", "json"],
        capsys,
    )
    assert code == EX_OK
    rec = json_rows(out)[0]
    assert rec["verdict"] == "solvable"
    assert rec["x"] == 1139357  # the level-9 value: smallest x mod 4 * 5^8
    assert pow(-2, rec["x"], 5**9) == 3 % 5**9


def test_log_method_matches_lift_digits(capsys):
    _, out_log, _ = run_cli(
        ["dlog", "-p", "2", "-a", "9", "-b", "25", "-N", "12", "--method", "log",
         "--format", "json"],
        capsys,
    )
    _, out_lift, _ = run_cli(
        ["dlog", "-p", "2", "-a", "9", "-b", "25", "-N", "12", "--method", "lift",
         "--format", "json"],
        capsys,
    )
    digits_log = json_rows(out_log)[0]["digits"]
    digits_lift = json_rows(out_lift)[-1]["digits"]
    assert digits_log == digits_lift


# ---------------------------------------------------------------------------
# fuzz: every subcommand over bounded integer flags

FUZZ_P = (-7, 0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 97, 10007)


@st.composite
def fuzz_argv(draw):
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def flag(*option):
        return list(option) if draw(st.booleans()) else []

    p = str(draw(st.sampled_from(FUZZ_P)))
    command = draw(st.sampled_from(
        ("dlog", "teich", "proot", "structure", "quotient", "special", "tables")
    ))
    if command == "dlog":
        method = draw(st.sampled_from(("lift", "log", "units", "auto")))
        argv = ["-p", p, "-a", num(-50, 50), "-b", num(-50, 50), "-N", num(-2, 40),
                "--method", method]
    elif command == "teich":
        argv = ["-p", p, "-a0", num(-50, 50), "-N", num(-2, 40)]
    elif command == "proot":
        argv = ["-p", p] + flag("--through", num(-2, 60)) + flag("--full")
    elif command == "structure":
        argv = [num(-2, 5000)]
    elif command == "quotient":
        argv = ["-p", p, "-k", num(-2, 50)]
    elif command == "special":
        argv = ["-a", num(-50, 50), "-b", num(-50, 50), "-p", p, "-n", num(-2, 6)]
        argv += flag("--cycles")
    else:
        argv = [draw(st.sampled_from(TABLE_NAMES + ["no-such-table"]))]
    fmt = draw(st.sampled_from(("human", "json")))
    return [command, *argv, "--format", fmt]


@settings(max_examples=500, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_flags_exit_cleanly(argv):
    # only argparse may leave main() by SystemExit; anything else escaping
    # fails the test, and so does a traceback or an unparseable JSON line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 64, 65), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if argv[-1] == "json":
        for line in out.getvalue().splitlines():
            json.loads(line)
