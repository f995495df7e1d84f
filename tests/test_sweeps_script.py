"""The scripts under scripts/, run in-process (the sweeps into a temporary
directory)."""

import ast
import importlib.util
import json
import pathlib

import pytest

from gammagen.cli import main, parse_grid_spec

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name="run_verification_sweeps"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweeps_script_writes_nine_passing_reports(tmp_path, capsys, fmt):
    code = _load_script().main(["--outdir", str(tmp_path), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith("all sweeps passed")
    reports = sorted(tmp_path.glob(f"sweep*.{fmt}"))
    assert len(reports) == 9
    scans = sorted(tmp_path.glob(f"scan*.{fmt}"))
    assert len(scans) == 9
    if fmt == "json":
        for path in reports:
            obj = json.loads(path.read_text())
            config = obj["config"]
            # `gammagen verify --grid <grid_spec>` must reproduce the report
            assert tuple(config["grid"]) == parse_grid_spec(config["grid_spec"])
            assert obj["summary"]["all_pass"] is True
        for path in scans:
            obj = json.loads(path.read_text())
            assert obj["min_forward_diff"] >= -1e-9
            assert obj["derivative_min"] >= -1e-9


@pytest.mark.parametrize("index", [0, 3, 6], ids=["p", "q", "k"])
def test_sweeps_script_report_is_the_verify_report(tmp_path, capsys, index):
    # The script writes its reports through `gammagen verify`, so the same
    # flags give the same bytes.
    module = _load_script()
    assert module.main(["--outdir", str(tmp_path), "--format", "json"]) == 0
    family, gp, param = module.BATTERY[index]
    out = tmp_path / "verify.json"
    assert main(["verify", "--family", family, "--a", repr(gp.a), "--b", repr(gp.b),
                 "--alpha", repr(gp.alpha), "--beta", repr(gp.beta),
                 f"--{family}", repr(param), "--grid", module.SANDWICH_GRID_SPEC,
                 "--format", "json", "--out", str(out)]) == 0
    report = tmp_path / f"sweep{index:02d}_{family}.json"
    assert out.read_bytes() == report.read_bytes()


def _table(lines, header, stop):
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [header])
    rows = [line.split() for line in lines[start + 1:]]
    return rows[:next(i for i, row in enumerate(rows) if row[0] == stop)]


def test_convergence_study_gap_shrinks_along_p_and_q(capsys):
    assert _load_script("convergence_study").main(["--t", "2.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = _table(lines, "p", "q")
    assert [int(row[0]) for row in rows] == [10, 100, 1000, 10**4, 10**6, 10**9]
    gaps = [float(row[2]) for row in rows]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    rows = _table(lines, "q", "k-reduction:")
    assert [float(row[0]) for row in rows] == [0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9]
    gaps = [float(row[2]) for row in rows]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    assert max(int(row[3]) for row in rows) <= 12


def test_layer_cost_times_every_layer(capsys):
    module = _load_script("layer_cost")
    module.REPEATS = dict.fromkeys(module.REPEATS, 1)
    assert module.main() == 0
    evaluators, sweeps, commands, routines = (
        table.splitlines() for table in capsys.readouterr().out.split("\n\n"))

    assert evaluators[0].split() == ["evaluator", "one-shot", "sweep", "terms", "(us/call)"]
    rows = [line.split() for line in evaluators[1:]]
    lemmas = ["lemma_expr_p", "lemma_expr_q", "lemma_expr_k"]
    assert [row[0] for row in rows] == ["psi_series", "psi_p", "log_gamma_p", "psi_q",
                                        "log_gamma_q", "psi_k", "log_gamma_k", *lemmas]
    for name, one_shot, sweep, terms in rows:
        assert float(one_shot) > 0 and float(sweep) > 0
        # the EvalResult evaluators report a median term count, the rest "-"
        assert (terms == "-") == (name in ("psi_p", "log_gamma_p", "log_gamma_k", *lemmas))
        assert terms == "-" or 1 <= float(terms) <= 77

    # the sweeps per grid point: 19 verify points, 100 scan points
    assert sweeps[0].split() == ["sweep", "family", "points", "us/point"]
    rows = [line.split() for line in sweeps[1:]]
    assert [row[:3] for row in rows] == [
        [sweep, family, points] for sweep, points in (("sandwich", "19"), ("scan", "100"))
        for family in ("p", "q", "k")]
    assert all(float(row[3]) > 0 for row in rows)

    assert commands[0].split() == ["command", "family", "format", "build_parser",
                                   "parse_args", "main", "(ms)"]
    assert commands[-1].startswith("total ")
    assert commands[-1].endswith(" ms for one main call per row")
    rows = [line.split() for line in commands[1:-1]]
    assert [row[:3] for row in rows] == [
        [command, family, fmt] for command in ("verify", "scan")
        for fmt in ("csv", "json") for family in ("p", "q", "k")]
    for row in rows:
        assert all(float(ms) > 0 for ms in row[3:])
    # the total is the sum of the main column, within the rounding of both
    total = float(commands[-1].split()[1])
    assert abs(total - sum(float(row[5]) for row in rows)) <= 0.05 + 12 * 0.0005

    assert routines[0].split() == ["routine", "arguments", "ms/call", "terms", "us/term",
                                   "digits"]
    assert routines[-1].startswith("total ")
    assert routines[-1].endswith(" ms for one call per row")
    rows = [line.split() for line in routines[1:-1]]
    assert len(rows) == 34
    assert {row[0] for row in rows} == {
        "psi_hp", "psi_p_hp", "psi_q_hp", "psi_k_hp",
        "gamma_hp", "gamma_p_hp", "gamma_q_hp", "gamma_k_quad", "cross_validate"}
    for row in rows:
        ms, terms, us_per_term = float(row[-4]), int(row[-3]), float(row[-2])
        assert ms > 0 and terms >= 1
        # the cross_validate row certifies nothing; the routines 20 digits
        assert row[-1] == "-" if row[0] == "cross_validate" else int(row[-1]) >= 20
        # the time over the terms, within the rounding of both printed columns
        assert abs(us_per_term - 1e3 * ms / terms) <= 0.005 + 0.5 / terms
    total = float(routines[-1].split()[1])
    assert abs(total - sum(float(row[-4]) for row in rows)) <= 0.05 + 34 * 0.0005
    # all but the extremes: each oracle_crossval slot's centre once, in the
    # benchmark's order, and cross_validate last
    shown = [(row[0], " ".join(row[1:-4])) for row in rows]
    extremes = [(name, ", ".join(f"{a:g}" for a in args))
                for name, cases in module.EXTREMES.items() for args in cases]
    centres = list(dict.fromkeys(
        (name, ", ".join(f"{sum(band) / 2:g}" for band in slot if band is not None))
        for name, slots in module.bw._CROSSVAL_SLOTS.items() for slot in slots))
    assert len(centres) == 19 and len(extremes) == 14
    assert [row for row in shown if row not in extremes] == [
        *centres, ("cross_validate", "psi_hp(15.025)")]


def test_mutation_sites_are_fixed_and_each_mutant_changes_one_node():
    # runs no pytest: only the site list and the mutants of core_special
    module = _load_script("mutation_score")
    source = (SCRIPTS.parent / "src" / "gammagen" / "core_special.py").read_text()
    found = module.sites(source)
    assert found == module.sites(source) and len(found) >= 40

    def fields(node):
        return type(node), [v for _, v in ast.iter_fields(node)
                            if not isinstance(v, (ast.AST, list))]

    original = [fields(node) for node in ast.walk(ast.parse(source))]
    for site in found:
        mutant = [fields(node) for node in ast.walk(ast.parse(module.mutate(source, site)))]
        assert len(mutant) == len(original)
        assert sum(a != b for a, b in zip(original, mutant)) == 1, site
    assert module.main(["no_such_module"]) == 2


def test_contract_fuzz_tallies_every_draw_by_class(capsys):
    # the shape of the report, not its verdicts: until the verdict layer
    # gives one on every admissible input, admissible draws may exit 1 or 2
    assert _load_script("contract_fuzz").main(["--seed", "2", "--count", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 2, 50 draws"
    assert lines[1].split() == ["command", "family", "draw", "exit", "stderr", "or",
                                "verdict", "count", "example"]
    end = lines.index("raised or traceback: 0; JSON needing Infinity or NaN: 0")
    rows = [(line[:8].strip(), line[8:15].strip(), line[15:26].strip(),
             line[26:33].strip(), line[33:53].strip(), int(line[53:59]), line[61:])
            for line in lines[2:end]]
    assert sum(row[5] for row in rows) == 50
    assert len(set(row[:5] for row in rows)) == len(rows) > 5
    for command, family, kind, code, prefix, _, example in rows:
        assert example.startswith(f"gammagen {command} --family {family} ")
        assert kind in ({"admissible", "grid"}
                        | ({"a<b", "k<1"} if family == "k" else {"alpha<1"}))
        assert (code, prefix) in {("0", "PASS"), ("1", "FAIL"), ("2", "domain error"),
                                  ("2", "out of double range")}
        # a broken hypothesis never gives a verdict, and is named as a domain error
        assert kind == "admissible" or (code, prefix) == ("2", "domain error")

    # eval: a value, a named rejection or an unmet tolerance, never a traceback
    assert lines[end + 1] == "eval, 50 draws"
    assert lines[end + 2].split() == ["function", "draw", "exit", "stderr", "or", "value",
                                      "count", "example"]
    assert lines[-1] == "eval raised or traceback: 0"
    rows = [(line[:9].strip(), line[9:20].strip(), line[20:27].strip(),
             line[27:47].strip(), int(line[47:53]), line[55:])
            for line in lines[end + 3:-1]]
    assert sum(row[4] for row in rows) == 50
    assert len(set(row[:4] for row in rows)) == len(rows) > 5
    for fn, kind, code, prefix, _, example in rows:
        assert example.startswith(f"gammagen eval {fn} ")
        assert kind in {"admissible", "t", "tol", "missing", "p", "q", "k"}
        if kind in ("p", "q", "k"):
            assert f" --{kind}=" in example
        assert (code, prefix) in {("0", "value"), ("2", "domain error"),
                                  ("2", "out of double range"), ("3", "tolerance not met")}
        assert kind == "admissible" or code == "2"
