import argparse
import contextlib
import functools
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gammagen
from gammagen import (GenParams, gamma, gamma_k, gamma_p, gamma_q, omega, phi, psi_k,
                      psi_p, psi_q, psi_series, theta)
from gammagen.cli import CSV_COLUMNS, EVAL_FUNCTIONS, main, parse_grid_spec
from gammagen.core_special import DomainError, EvalResult
from gammagen.inequality_engine import (InequalityReport, MonotoneScan, check_sandwich,
                                        family_callables, scan_monotone)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gammagen", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_gamma_k_prints_repr():
    r = run_cli("eval", "gamma_k", "--t", "2", "--k", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "1.0"


def test_eval_psi_p():
    r = run_cli("eval", "psi_p", "--t", "1", "--p", "3")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("-0.98472104466522")


def test_eval_psi_reports_err_bound():
    r = run_cli("eval", "psi", "--t", "2.5")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1].startswith("err_bound ")
    assert "terms_used" in lines[1]


def test_eval_psi_k_at_smallest_subnormal_k():
    # tol*k underflowed to 0 here and was rejected as an invalid tolerance
    r = run_cli("eval", "psi_k", "--t", "1", "--k", "1e-320")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "-0.5"


def test_eval_psi_k_beyond_double_range_is_domain_error():
    # about ln(0.5)/1e-320 = -6.9e319: reported as exit 2, never as -inf
    r = run_cli("eval", "psi_k", "--t", "0.5", "--k", "1e-320")
    assert r.returncode == 2
    assert "exceeds the double range" in r.stderr


def test_eval_psi_overflow_names_only_t(capsys):
    # psi(1e-320) is about -1e320; the message once named a k = 1.0 never given
    assert main(["eval", "psi", "--t", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert "psi(t) at t = 1e-320 exceeds the double range" in err
    assert "k" not in err


@pytest.mark.parametrize("argv, named", [
    (["psi_q", "--t", "1e-320", "--q", "0.5"], "psi_q(t) at t = 1e-320, q = 0.5"),
    (["psi_p", "--t", "2e-313", "--p", "9"], "psi_p(t) at t = 2e-313, p = 9"),
    (["gamma_q", "--t", "1.5e307", "--q", "0.9999999984102188"],
     "log_gamma_q(t) at t = 1.5e+307, q = 0.9999999984102188"),
    (["gamma_k", "--t", "1e300", "--k", "1e-10"],
     "log_gamma_k(t) at t = 1e+300, k = 1e-10"),
], ids=["psi_q", "psi_p", "gamma_q", "gamma_k"])
def test_eval_beyond_double_range_is_exit_2(capsys, argv, named):
    # these printed -inf, inf (with err_bound inf) or nan, and exited 0
    assert main(["eval", *argv]) == 2
    assert f"{named} exceeds the double range" in capsys.readouterr().err


def test_eval_gamma_k_at_underflowing_t_over_k(capsys):
    # t/k underflows to 0 here, and lgamma(0) once raised "math domain error"
    assert main(["eval", "gamma_k", "--t", "1.5896682892121024e-259",
                 "--k", "1.5659713716887333e+169"]) == 0
    value = float(capsys.readouterr().out.splitlines()[0])
    assert value == pytest.approx(6.2906205450926901e258, rel=1e-13)


@pytest.mark.parametrize("argv, name", [
    (["gamma", "--t", "inf"], "t"),
    (["gamma_k", "--t", "inf", "--k", "2"], "t"),
    (["psi", "--t", "inf"], "t"),
    (["psi_p", "--t", "inf", "--p", "5"], "t"),
    (["psi_q", "--t", "inf", "--q", "0.5"], "t"),
    (["psi_k", "--t", "inf", "--k", "2"], "t"),
    (["gamma_k", "--t", "2", "--k", "inf"], "k"),
    (["psi_k", "--t", "2", "--k", "inf"], "k"),
])
def test_eval_infinite_argument_is_exit_2(capsys, argv, name):
    # these printed inf, ln 5 or an unnamed conversion error
    assert main(["eval", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{name} must be finite (got inf)" in err


def test_eval_domain_error_names_hypothesis():
    r = run_cli("eval", "gamma_q", "--t", "1", "--q", "1.5")
    assert r.returncode == 2
    assert "q" in r.stderr and "(0, 1)" in r.stderr


def test_eval_missing_required_flag_is_domain_error():
    r = run_cli("eval", "gamma_q", "--t", "1")
    assert r.returncode == 2
    assert "--q" in r.stderr


def test_eval_tolerance_not_met_exit_code():
    # No block within the 10^4-term cap meets tol = 1e-300 this close to
    # q = 1.  A 10^7-term budget was once summed here first (4.5 s).
    start = time.perf_counter()
    r = run_cli("eval", "psi_q", "--t", "2.5", "--q", "0.999999999999", "--tol", "1e-300")
    assert time.perf_counter() - start < 2.0
    assert r.returncode == 3
    assert "tolerance not met" in r.stderr
    assert r.stdout.splitlines()[1].endswith("terms_used 10000")


@pytest.mark.parametrize("argv, terms", [
    (["psi", "--t", "1", "--tol", "1e-100"], 9),
    (["psi_k", "--t", "1", "--k", "0.01", "--tol", "1e-100"], 0),
    (["psi_q", "--t", "2.5", "--q", "0.999999", "--tol", "1e-300"], 10_000),
], ids=["psi", "psi_k", "psi_q"])
def test_eval_tolerance_not_met_text_is_true_for_every_stop(capsys, argv, terms):
    # psi and psi_k stop short of the cap, at the shortest shift to x >= 10,
    # psi_q at the cap: the one message must not claim a cap was reached
    assert main(["eval", *argv]) == 3
    out, err = capsys.readouterr()
    bound_line = out.splitlines()[1]
    assert bound_line.endswith(f" terms_used {terms}")
    assert err == (f"tolerance not met: {argv[0]}: no series length within the 10,000-term "
                   f"cap meets tol={argv[-1]} (err_bound {bound_line.split()[1]})\n")


@pytest.mark.parametrize("argv", [
    ["eval", "gamma_p", "--t", "1", "--p", "2.5"],
    ["verify", "--family", "p", "--p", "2.5", "--alpha", "1.5", "--grid", "0.5"],
], ids=["eval", "verify"])
def test_non_integer_p_names_the_rule(capsys, argv):
    # --p parses any number; the p-family's own check names the integer rule
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "domain error: p must be an integer >= 1 (got 2.5)\n")


def test_integer_p_reaches_the_report_as_an_int(capsys):
    assert main(["verify", "--family", "p", "--p", "5", "--alpha", "1.5", "--grid", "0.5",
                 "--format", "json"]) == 0
    report = capsys.readouterr().out  # the JSON report, then the verdict line
    assert type(json.loads(report[:report.rindex("}") + 1])["config"]["p"]) is int


def test_eval_gamma_p_beyond_double_range():
    r = run_cli("eval", "gamma_p", "--t", "2.5", "--p", "1" + "0" * 400)
    assert r.returncode == 0, r.stderr
    assert float(r.stdout.splitlines()[0]) == pytest.approx(gamma(2.5), rel=1e-14)


def test_eval_omega_uses_gen_params():
    r = run_cli("eval", "omega", "--t", "1", "--a", "1", "--b", "1",
                "--alpha", "1", "--beta", "1", "--p", "1")
    assert r.returncode == 0
    value = float(r.stdout.splitlines()[0])
    assert value == pytest.approx(10.686434507941188, rel=1e-12)


GP_FLAGS = ["--a", "1.3", "--b", "0.7", "--alpha", "1.5", "--beta", "0.8"]
GP = GenParams(1.3, 0.7, 1.5, 0.8)
TOL_FLAGS = ["--tol", "1e-14"]
TIGHT = 1e-14

# fn -> (flags after the function name, the library call it must match)
EVAL_CASES = {
    "gamma": (["--t", "2.5"], lambda: gamma(2.5)),
    "psi": (["--t", "2.5", *TOL_FLAGS], lambda: psi_series(2.5, TIGHT)),
    "gamma_p": (["--t", "2.5", "--p", "7"], lambda: gamma_p(2.5, 7)),
    "psi_p": (["--t", "2.5", "--p", "7"], lambda: psi_p(2.5, 7)),
    "gamma_q": (["--t", "2.5", "--q", "0.35"], lambda: gamma_q(2.5, 0.35)),
    "psi_q": (["--t", "2.5", "--q", "0.35", *TOL_FLAGS],
              lambda: psi_q(2.5, 0.35, TIGHT)),
    "gamma_k": (["--t", "2.5", "--k", "3"], lambda: gamma_k(2.5, 3.0)),
    "psi_k": (["--t", "2.5", "--k", "3", *TOL_FLAGS], lambda: psi_k(2.5, 3.0, TIGHT)),
    "omega": (["--t", "0.4", "--p", "7", *GP_FLAGS], lambda: omega(0.4, GP, 7)),
    "phi": (["--t", "0.4", "--q", "0.35", *GP_FLAGS], lambda: phi(0.4, GP, 0.35)),
    "theta": (["--t", "0.4", "--k", "3", *GP_FLAGS], lambda: theta(0.4, GP, 3.0)),
}


def test_eval_cases_cover_every_function():
    assert set(EVAL_CASES) == set(EVAL_FUNCTIONS)


@pytest.mark.parametrize("fn", EVAL_FUNCTIONS)
def test_eval_prints_the_library_value(fn, capsys):
    flags, call = EVAL_CASES[fn]
    assert main(["eval", fn, *flags]) == 0
    expected = call()
    lines = capsys.readouterr().out.splitlines()
    value = expected.value if isinstance(expected, EvalResult) else expected
    assert lines[0] == repr(value)
    if isinstance(expected, EvalResult):
        assert lines[1] == (f"err_bound {expected.err_bound!r} "
                            f"terms_used {expected.terms_used}")
    else:
        assert len(lines) == 1


@pytest.mark.parametrize("fn", EVAL_FUNCTIONS)
def test_eval_calls_the_evaluator_installed_on_the_package(fn, monkeypatch, capsys):
    # eval looks its evaluator up on the package when called, so a wrapper
    # installed there (a profiler's, say) sees the call; functools.wraps
    # carries the signature eval reads its flags from
    flags, _ = EVAL_CASES[fn]
    assert main(["eval", fn, *flags]) == 0
    plain = capsys.readouterr().out
    name = "psi_series" if fn == "psi" else fn
    original, calls = getattr(gammagen, name), []

    @functools.wraps(original)
    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(gammagen, name, counting)
    assert main(["eval", fn, *flags]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == plain


def test_unknown_function_rejected():
    r = run_cli("eval", "zeta", "--t", "1")
    assert r.returncode == 2


def test_unknown_flag_rejected():
    r = run_cli("verify", "--family", "p", "--grid", "0.5", "--bogus", "1")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [
    ("verify", "--family", "p", "--alpha", "1.5", "--p", "3", "--grid", "abc"),
    ("selftest", "--quick", "--seed", "-1"),
])
def test_adversarial_flags_never_panic(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_p_family_pass(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli("verify", "--family", "p", "--a", "1", "--b", "1",
                "--alpha", "1.5", "--beta", "1", "--p", "5",
                "--grid", "0.05:0.95:0.05", "--out", str(out))
    assert r.returncode == 0
    assert r.stdout.strip().endswith("PASS 19/19")
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings only
    lines = raw.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 20
    assert all(row.endswith(",true,true") for row in lines[1:])


def test_verify_hypothesis_violation_exit_2():
    r = run_cli("verify", "--family", "k", "--a", "1", "--b", "2",
                "--alpha", "1", "--beta", "1", "--k", "2",
                "--grid", "0.1:0.9:0.1")
    assert r.returncode == 2
    assert "a >= b" in r.stderr


def test_verify_k_equality_case(tmp_path):
    out = tmp_path / "eq.csv"
    r = run_cli("verify", "--family", "k", "--a", "1", "--b", "1",
                "--alpha", "1", "--beta", "1", "--k", "1",
                "--grid", "0.1:0.9:0.1", "--out", str(out))
    assert r.returncode == 0
    for row in out.read_text().splitlines()[1:]:
        cells = row.split(",")
        assert abs(float(cells[4])) <= 1e-12
        assert abs(float(cells[5])) <= 1e-12


def test_verify_deterministic_output(tmp_path):
    args = ("verify", "--family", "q", "--a", "1.2", "--b", "0.7",
            "--alpha", "1.3", "--beta", "0.9", "--q", "0.45",
            "--grid", "0.1:0.9:0.1", "--format", "json")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


# the README's key lists: a row is the CSV columns plus note
ROW_KEYS = {*CSV_COLUMNS, "note"}
FAMILY_FLAGS = {"p": ["--p", "3"], "q": ["--q", "0.5"], "k": ["--k", "2"]}


def test_verify_json_schema(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli("verify", "--family", "p", "--alpha", "1.5", "--p", "3",
                "--grid", "0.25,0.5,0.75", "--format", "json",
                "--out", str(out))
    assert r.returncode == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"config", "rows", "summary"}
    assert obj["config"]["family"] == "p"
    assert obj["config"]["p"] == 3
    assert len(obj["rows"]) == 3
    for row in obj["rows"]:
        assert set(row) == ROW_KEYS
    assert obj["summary"]["all_pass"] is True


@pytest.mark.parametrize("family", FAMILY_FLAGS)
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_json_report_keys_are_the_readmes(tmp_path, capsys, command, family):
    out = tmp_path / "r.json"
    assert main([command, "--family", family, "--alpha", "1.5", *FAMILY_FLAGS[family],
                 "--grid", "0.25,0.5", "--format", "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert list(obj["config"]) == ["family", "a", "b", "alpha", "beta", family,
                                   "grid_spec", "grid", "format"]
    assert [obj["config"][name] for name in ("a", "b", "beta")] == [1.0] * 3  # defaults
    if command == "verify":
        assert list(obj) == ["config", "rows", "summary"]
        assert all(set(row) == ROW_KEYS for row in obj["rows"])
    else:
        assert list(obj) == ["config", "grid", "values", "min_forward_diff",
                             "derivative_min"]


@pytest.mark.parametrize("family", ["p", "k"])
def test_verify_alpha_defaults_to_one(tmp_path, capsys, family):
    # alpha = 1 is the p-family's hypothesis boundary, so every p row is
    # noted; the k lemma holds down to s = 0, so no k row is
    out = tmp_path / "r.json"
    assert main(["verify", "--family", family, *FAMILY_FLAGS[family], "--grid", "0.25,0.5",
                 "--format", "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["config"]["alpha"] == 1.0
    notes = [row["note"] for row in obj["rows"]]
    if family == "p":
        assert all(note.endswith("on the hypothesis boundary") for note in notes)
    else:
        assert notes == ["", ""]


def _cell(text):
    return {"true": True, "false": False}[text] if text in ("true", "false") else float(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family", FAMILY_FLAGS)
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_report_cells_round_trip_to_the_engine_records(tmp_path, capsys, command, family,
                                                       fmt):
    # alpha = 1 puts the p and q rows on the hypothesis boundary, so their
    # note is not empty
    out = tmp_path / "r"
    assert main([command, "--family", family, "--a", "2", "--b", "1", "--alpha", "1",
                 "--beta", "0.5", *FAMILY_FLAGS[family], "--grid", "0.1,0.35,0.9",
                 "--format", fmt, "--out", str(out)]) == 0
    gp, param = GenParams(2.0, 1.0, 1.0, 0.5), float(FAMILY_FLAGS[family][1])
    grid = (0.1, 0.35, 0.9)
    if command == "verify":
        records = check_sandwich(family, gp, int(param) if family == "p" else param, grid)
        assert all(r.note for r in records) == (family != "k")
    else:
        scan = scan_monotone(*family_callables(
            family, gp, int(param) if family == "p" else param), grid)
    text = out.read_text()
    if fmt == "csv":
        lines = [line.split(",") for line in text.splitlines()]
        if command == "verify":
            assert lines[0] == list(CSV_COLUMNS)
            names = ["passed" if c == "pass" else c for c in CSV_COLUMNS]
            expected = [[getattr(r, name) for name in names] for r in records]
        else:
            assert lines[0] == ["t", "value"]
            expected = [list(pair) for pair in zip(scan.grid, scan.values)]
        got = [[_cell(c) for c in line] for line in lines[1:]]
        assert got == expected
        assert [[type(c) for c in row] for row in got] == [
            [bool if type(v) is bool else float for v in row] for row in expected]
        return
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2) + "\n"
    if command == "verify":
        keys = ["pass" if f == "passed" else f for f in InequalityReport._fields]
        assert [list(row) for row in obj["rows"]] == [keys] * len(records)
        assert [list(row.values()) for row in obj["rows"]] == [list(r) for r in records]
        n_pass = sum(r.passed for r in records)
        assert obj["summary"] == {
            "total": len(records), "passed": n_pass, "failed": len(records) - n_pass,
            "all_pass": n_pass == len(records),
            "min_lower_margin": min(r.lower_margin for r in records),
            "min_upper_margin": min(r.upper_margin for r in records)}
    else:
        assert [obj[f] for f in MonotoneScan._fields] == [list(scan.grid), list(scan.values),
                                                          scan.min_forward_diff,
                                                          scan.derivative_min]


def test_verify_grid_outside_unit_interval_rejected():
    r = run_cli("verify", "--family", "p", "--alpha", "1.5", "--p", "3",
                "--grid", "0.5:1.5:0.5")
    assert r.returncode == 2


@pytest.mark.parametrize("flags, named", [
    (["--family", "p", "--p", "3", "--grid", "0.5,1"], "t=1.0"),
    (["--family", "k", "--k", "-1", "--grid", "0.5"], "k >= 1"),
])
def test_verify_inadmissible_input_names_the_rule(capsys, flags, named):
    # The engine's checks, not a copy of them in the CLI, reject these.
    assert main(["verify", "--alpha", "1.5", *flags]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--a", "--b", "--alpha", "--beta"])
def test_verify_non_finite_gen_param_is_exit_2(capsys, flag):
    # a report would hold NaN or Infinity, which JSON has no numbers for
    argv = ["verify", "--family", "p", "--p", "5", "--alpha", "1.5",
            flag, "inf", "--grid", "0.5", "--format", "json"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag[2:]} must be finite (got inf)" in err


def test_verify_stdout_when_no_out_flag():
    r = run_cli("verify", "--family", "p", "--alpha", "1.5", "--p", "3",
                "--grid", "0.5")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_omega_pass(tmp_path):
    out = tmp_path / "scan.csv"
    r = run_cli("scan", "--family", "p", "--alpha", "1", "--p", "2",
                "--grid", "0.01:5:0.01", "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().splitlines()[0] == "t,value"


def test_scan_theta_equality(tmp_path):
    out = tmp_path / "scan_eq.json"
    r = run_cli("scan", "--family", "k", "--a", "1", "--b", "1",
                "--alpha", "1.5", "--k", "1", "--grid", "0.5:3:0.5",
                "--format", "json", "--out", str(out))
    assert r.returncode == 0
    obj = json.loads(out.read_text())
    assert abs(obj["min_forward_diff"]) <= 1e-12


def test_scan_q_family_converges_near_q_one():
    # The q-series once needed more than the 10^7-term budget here (exit 3).
    r = run_cli("scan", "--family", "q", "--alpha", "1.5", "--q", "0.9999999",
                "--grid", "0.1:0.2:0.1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1].startswith("PASS")


@pytest.mark.parametrize("raw", ["2", "", "abc"])
def test_max_terms_variable_is_ignored(monkeypatch, capsys, raw):
    # GAMMA_GEN_MAX_TERMS once set a term budget; 2 stopped this psi after
    # 2 of the 10 terms it needs (exit 3), and "" or "abc" was exit 2.
    monkeypatch.setenv("GAMMA_GEN_MAX_TERMS", raw)
    assert main(["eval", "psi", "--t", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("terms_used 10")


@pytest.mark.parametrize("command", [
    ["eval", "gamma", "--t", "2"],
])
@pytest.mark.parametrize("bad", ["0", "-1", "nan"])
def test_invalid_tol_is_exit_2(capsys, command, bad):
    # gamma reads tol in no series, so eval checks it itself
    assert main([*command, "--tol", bad]) == 2
    assert f"tol must be > 0 (got {float(bad)})" in capsys.readouterr().err


# one admissible call of each sweep command
SWEEP_COMMANDS = {
    "verify": ["verify", "--family", "p", "--alpha", "1.5", "--p", "3", "--grid", "0.5"],
    "scan": ["scan", "--family", "k", "--alpha", "1.5", "--k", "2", "--grid", "0.5,1"],
}


@pytest.mark.parametrize("command", SWEEP_COMMANDS.values(), ids=list(SWEEP_COMMANDS))
def test_sweeps_take_no_tol(capsys, command):
    # the engine runs every series at DEFAULT_TOL; only eval takes --tol
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command[0], "-h"])
    assert "--tol" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["eval", "-h"])
    assert "--tol" in capsys.readouterr().out


@pytest.mark.parametrize("command", SWEEP_COMMANDS.values(), ids=list(SWEEP_COMMANDS))
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_report_is_exit_2(tmp_path, capsys, command, target):
    # a report that cannot be written is exit 2, not a numeric failure
    out = tmp_path / "missing" / "r.csv" if target == "missing" else tmp_path
    assert main([*command, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"cannot write report: {out}: ")
    assert "PASS" not in stdout and "FAIL" not in stdout


@pytest.mark.parametrize("command", SWEEP_COMMANDS.values(), ids=list(SWEEP_COMMANDS))
def test_unwritable_report_is_exit_2_in_a_process(tmp_path, command):
    # no traceback, no PASS/FAIL line: the one line on stderr says why
    out = tmp_path / "missing" / "r.csv"
    r = run_cli(*command, "--out", str(out))
    assert r.returncode == 2
    assert r.stderr == f"cannot write report: {out}: No such file or directory\n"
    assert r.stdout == ""


CLOSED_STDOUT_COMMANDS = {
    "verify": ["verify", "--family", "p", "--alpha", "1", "--p", "2",
               "--grid", "0.0001:0.9999:0.0001"],
    "scan": ["scan", "--family", "p", "--alpha", "1", "--p", "2", "--grid", "0.001:5:0.001"],
}


@pytest.mark.parametrize("command", CLOSED_STDOUT_COMMANDS.values(),
                         ids=list(CLOSED_STDOUT_COMMANDS))
def test_closed_stdout_is_exit_2_without_a_traceback(command):
    # `| head -1`: the reader takes one line and closes the pipe under a
    # report of some 200 KB or more, more than the pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "gammagen", *command],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("t,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "cannot write report: <stdout>: Broken pipe\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "gamma", "--t", "1e-320"], "out of double range: math range error"),
    (["verify", "--family", "p", "--a", "200", "--b", "1", "--alpha", "50", "--beta", "1",
      "--p", "5", "--grid", "0.5"], "out of double range: math range error"),
    (["verify", "--family", "p", "--a", "1e308", "--b", "1", "--alpha", "10", "--beta", "1",
      "--p", "5", "--grid", "0.5"], "out of double range: ln aux_p(t) at t = 0.0"),
    (["verify", "--family", "p", "--a", "1e308", "--b", "1", "--alpha", "10", "--beta", "1",
      "--p", "5", "--grid", "0.5", "--format", "json"],
     "out of double range: ln aux_p(t) at t = 0.0"),
    (["scan", "--family", "k", "--a", "1e308", "--b", "1", "--alpha", "10", "--k", "2",
      "--grid", "1:3:1"], "out of double range: ln aux_k(t) at t = 1.0"),
    (["verify", "--family", "p", "--a", "2e302", "--b", "4.8e306", "--alpha", "16.2",
      "--beta", "1.4", "--p", "172790", "--grid", "0.7"],
     "out of double range: ln of the p-sandwich at t = 0.7"),
    (["eval", "gamma", "--t", "-1"], "domain error: t must be > 0"),
    (["verify", "--family", "q", "--q", "1.5", "--grid", "0.5"],
     "domain error: q must lie strictly in (0, 1)"),
    (["verify", "--family", "q", "--q", "0.5", "--grid", "1,"],
     "domain error: grid spec holds a piece that is not a number (got '1,')"),
    (["scan", "--family", "q", "--q", "0.5", "--grid", "nan,0.5"],
     "domain error: grid spec must be finite (got 'nan,0.5')"),
    # the k engine admits s = alpha + beta t at t = 0; the scan's own rule does not
    (["scan", "--family", "k", "--k", "2", "--alpha", "0.5", "--grid", "0,0.5"],
     "domain error: monotone grids must lie strictly in (0, inf)"),
], ids=["eval-overflow", "verify-overflow", "verify-inf-log", "verify-inf-log-json",
        "scan-inf-log", "verify-inf-bound", "eval-domain", "verify-domain", "grid-domain",
        "grid-non-finite", "scan-grid-at-zero"])
def test_error_message_names_its_kind(capsys, argv, message):
    # an OverflowError was once reported as a "domain error" too.  a ln Gamma(10.5)
    # at a = 1e308 is inf: the inf-log cases printed inf and nan rows (JSON
    # Infinity and NaN) and exited 1.  In the inf-bound case ln aux(0) and
    # ln aux(1) are finite but the lower bound's log, ln aux(0) - ell(t), is
    # -inf: it printed a FAIL row of zeros and exited 1
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "p", "--alpha", "1.5", "--p", "5", "--grid", "0:1"],
     "grid spec must be start:stop:step (got '0:1')"),
    (["scan", "--family", "q", "--q", "0.5", "--grid", "0.1:2:0.1:3"],
     "grid spec must be start:stop:step (got '0.1:2:0.1:3')"),
    *([[command, "--family", family, "--alpha", "1.5", "--grid", "0.5"],
       f"--{family} is required for family {family}"]
      for command in ("verify", "scan") for family in ("p", "q", "k")),
    # aux at t = 300 is beyond the double range: the rule is named at the
    # grid's first point, before any value is formed
    *([["scan", "--family", family, "--a", "2", "--b", "1", "--alpha", "0.5",
        f"--{family}", param, "--grid", "0.1,300"],
       f"t must be > 1 for the {family}-family positivity (got 0.6)"]
      for family, param in (("p", "5"), ("q", "0.5"))),
])
def test_sweep_rejection_is_one_domain_error_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"domain error: {message}\n")


def test_scan_inadmissible_point_exit_2():
    r = run_cli("scan", "--family", "q", "--alpha", "0.5", "--q", "0.5",
                "--grid", "0.1:1:0.1")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# selftest and grid parsing
# ---------------------------------------------------------------------------

def test_selftest_quick_passes_within_budget():
    start = time.perf_counter()
    r = run_cli("selftest", "--quick")
    elapsed = time.perf_counter() - start
    assert r.returncode == 0, r.stdout + r.stderr
    assert "selftest: PASS" in r.stdout
    assert elapsed < 10.0


def test_selftest_detects_corrupted_psi_coefficients(monkeypatch, capsys):
    from gammagen import core_special, selftest
    monkeypatch.setattr(core_special, "_PSI_ASYMPTOTIC",
                        tuple(1.01 * c for c in core_special._PSI_ASYMPTOTIC))
    code = selftest.run(quick=True)
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    failing = [ln for ln in lines if "FAIL" in ln]
    assert any("psi-vs-oracle" in ln for ln in failing)
    # a failing suite lists its first five failing cases, then the next suite follows
    at = lines.index("psi-vs-oracle: FAIL 0/8")
    assert [ln.split("(")[0] for ln in lines[at + 1:at + 7]] == (
        ["  failing case: psi-vs-oracle"] * 5 + ["psi_p-vs-oracle: FAIL 0/8"])
    assert lines[-1] == "selftest: FAIL"


def test_selftest_quick_prints_each_suites_tally(capsys):
    from gammagen import selftest
    assert selftest.run(quick=True, seed=0) == 0  # seed 0 is admitted
    sizes = {"gamma-vs-oracle": 5, "psi-vs-oracle": 8, "psi_p-vs-oracle": 8,
             "psi_q-vs-oracle": 8, "psi_k-vs-oracle": 8, "gamma_p-vs-oracle": 8,
             "gamma_q-vs-oracle": 8, "gamma_k-vs-quadrature": 5,
             "functional-equations": 36, "reduction-p": 4, "reduction-q": 4,
             "reduction-k": 4}
    assert capsys.readouterr().out.splitlines() == [
        *(f"{name}: PASS {n}/{n}" for name, n in sizes.items()), "selftest: PASS"]


def test_parse_grid_spec_colon():
    grid = parse_grid_spec("0.05:0.95:0.05")
    assert len(grid) == 19
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(0.95)
    assert parse_grid_spec("0.5:0.5:1") == (0.5,)  # stop == start: one point


def test_parse_grid_spec_list():
    assert parse_grid_spec("0.1,0.2,0.7") == (0.1, 0.2, 0.7)


# 0:1:1e-6 is 1,000,001 points, one more than a grid may hold; "", ",", "1,"
# and "a:1:0.1" once raised a bare ValueError that did not name the spec, and
# the non-finite lists once passed (nan compares False in the order check)
@pytest.mark.parametrize("bad", ["1:0:0.1", "0.1:1:-0.5", "0.5,0.5", "0.7,0.2",
                                 "0:1:0", "0:inf:1", "nan:1:0.1", "0:1:nan", "0:1:inf",
                                 "0:1:1e-6", "-1e308:1e308:1e-300",
                                 "", ",", "1,", "a:1:0.1",
                                 "nan", "nan,0.5", "0.5,nan", "0.5,inf", "-inf,0.5"])
def test_parse_grid_spec_rejects(bad):
    with pytest.raises(DomainError):
        parse_grid_spec(bad)


def test_parse_grid_spec_admits_a_million_points():
    assert len(parse_grid_spec("1:1000000:1")) == 10**6


def test_main_returns_exit_codes_in_process(capsys):
    assert main(["eval", "gamma", "--t", "5"]) == 0
    assert main(["eval", "gamma", "--t", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "24.0"
    assert "t must be > 0" in captured.err


def test_verify_exit_1_on_failed_grid_point(monkeypatch, capsys, tmp_path):
    from gammagen import cli
    from gammagen.inequality_engine import InequalityReport

    def fake_checker(family, gp, param, grid):
        return [InequalityReport(t, 2.0, 1.0, 3.0, -1.0, 2.0, True, False)
                for t in grid]

    monkeypatch.setattr(cli, "check_sandwich", fake_checker)
    out = tmp_path / "fail.csv"
    code = cli.main(["verify", "--family", "p", "--alpha", "1.5", "--p", "3",
                     "--grid", "0.25,0.75", "--out", str(out)])
    assert code == 1
    assert "FAIL 2/2" in capsys.readouterr().out


@pytest.mark.parametrize("family, flag", [("p", ["--p", "5"]), ("q", ["--q", "0.5"]),
                                          ("k", ["--k", "2"])])
def test_verify_fails_every_row_of_a_corrupted_lemma(monkeypatch, capsys, tmp_path,
                                                     family, flag):
    # Lowering the lemma's constant by 5 moves both bounds of the real
    # sandwich past the middle, by margins of -0.5 to -7.9, far beyond the
    # slack, so every row of the report must fail.
    from gammagen import inequality_engine

    record = inequality_engine.FAMILIES[family]
    monkeypatch.setitem(inequality_engine.FAMILIES, family, record._replace(
        lemma_const=lambda b, x: record.lemma_const(b, x) - 5))
    out = tmp_path / "fail.json"
    code = main(["verify", "--family", family, "--a", "2", "--b", "1", "--alpha", "1.5",
                 "--beta", "1", "--grid", "0.25,0.5,0.75", *flag, "--format", "json",
                 "--out", str(out)])
    assert code == 1
    assert "FAIL 3/3" in capsys.readouterr().out
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3 and not any(row["pass"] for row in rows)


# ---------------------------------------------------------------------------
# main called repeatedly in one process
# ---------------------------------------------------------------------------

def test_cli_import_leaves_mpmath_unloaded():
    # only selftest needs the oracle, and so mpmath; only eval reads
    # signatures; the records are named tuples.  Compared with what the
    # interpreter holds before the import, as site may preload some modules.
    code = ("import sys; before = set(sys.modules); import gammagen.cli; "
            "print(sorted({'mpmath', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_selftest_default_seed(monkeypatch):
    from gammagen import selftest
    seeds = []
    monkeypatch.setattr(selftest, "run", lambda quick, seed: seeds.append(seed) or 0)
    assert main(["selftest", "--quick"]) == 0
    assert main(["selftest", "--quick", "--seed", "5"]) == 0
    assert seeds == [selftest.DEFAULT_SEED, 5]


def test_flag_value_does_not_carry_to_the_next_call(tmp_path, capsys):
    args = ["verify", "--family", "k", "--alpha", "1.5", "--k", "2",
            "--grid", "0.5", "--format", "json"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--b", "0.5", "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    assert json.loads(first.read_text())["config"]["b"] == 0.5
    assert json.loads(second.read_text())["config"]["b"] == 1.0


def test_rejected_call_leaves_the_next_call_unchanged(tmp_path, capsys):
    args = ["verify", "--family", "q", "--alpha", "1.3", "--q", "0.45",
            "--grid", "0.1:0.9:0.1", "--format", "json"]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main([*args, "--out", str(before)]) == 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "q", "--q", "0.45"])  # no --grid
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: gammagen verify")
    assert "--grid" in err.getvalue()
    assert main([*args, "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()


def test_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys):
    argv = ["verify", "--family", "p", "--alpha", "1.5", "--p", "3",
            "--grid", "0.5", "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(argv) == 0
        assert main(["eval", "gamma", "--t", "5"]) == 0
    assert built == []


# ---------------------------------------------------------------------------
# the README's examples
# ---------------------------------------------------------------------------

def _readme_cli_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gammagen ")]


README_EXAMPLES = _readme_cli_examples()


def test_readme_has_seven_cli_examples():
    assert len(README_EXAMPLES) == 7


@pytest.mark.parametrize("argv", README_EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_EXAMPLES)])
def test_readme_cli_example_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
