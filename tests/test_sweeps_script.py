"""scripts/run_verification_sweeps.py, run in-process into a temporary
directory."""

import importlib.util
import json
import pathlib

import pytest

from gammagen.cli import parse_grid_spec

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_verification_sweeps.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_verification_sweeps", SCRIPT)
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
    if fmt == "json":
        for path in reports:
            obj = json.loads(path.read_text())
            config = obj["config"]
            # `gammagen verify --grid <grid_spec>` must reproduce the report
            assert tuple(config["grid"]) == parse_grid_spec(config["grid_spec"])
            assert obj["summary"]["all_pass"] is True
