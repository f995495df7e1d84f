"""The package's public names stay importable, each from the package and from
its module, the package exports nothing else, and every public function stays
a function object of its own (a wrapper installed on one name, a profiler's
say, must not reach another)."""

import ast
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import gammagen
from gammagen import core_special, gen_gamma, inequality_engine, scan_passes, selftest

CORE_SPECIAL = [
    "EULER_GAMMA", "DEFAULT_TOL", "DomainError", "ToleranceNotMet", "EvalResult",
    "gamma", "log_gamma", "psi_series", "psi",
]
GEN_GAMMA = [
    "gamma_p", "log_gamma_p", "psi_p", "gamma_q", "log_gamma_q", "psi_q",
    "gamma_k", "log_gamma_k", "psi_k",
]
INEQUALITY_ENGINE = [
    "DEFAULT_TOL_REPORT", "GenParams", "InequalityReport", "MonotoneScan",
    "Family", "FAMILIES",
    "lemma_expr_p", "lemma_expr_q", "lemma_expr_k",
    "lemma_expr_p_unchecked", "lemma_expr_q_unchecked", "lemma_expr_k_unchecked",
    "omega", "phi", "theta", "log_omega", "log_phi", "log_theta",
    "log_deriv_omega", "log_deriv_phi", "log_deriv_theta",
    "check_sandwich", "check_sandwich_p", "check_sandwich_q", "check_sandwich_k",
    "scan_monotone", "scan_passes", "family_callables",
]
LISTS = {core_special: CORE_SPECIAL, gen_gamma: GEN_GAMMA,
         inequality_engine: INEQUALITY_ENGINE}
PUBLIC = [(m, n) for m, names in LISTS.items() for n in names]


@pytest.mark.parametrize("module,name", PUBLIC,
                         ids=[f"{m.__name__}.{n}" for m, n in PUBLIC])
def test_public_name_importable(module, name):
    assert name in module.__all__
    assert getattr(gammagen, name) is getattr(module, name)


@pytest.mark.parametrize("module", LISTS, ids=lambda m: m.__name__)
def test_lists_equal_module_all(module):
    assert sorted(LISTS[module]) == sorted(module.__all__)


def test_package_exports_nothing_else():
    exported = {n for n, v in vars(gammagen).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == {n for _, n in PUBLIC}


@pytest.mark.parametrize("name", ["classical_bounds_p", "classical_bounds_q",
                                  "classical_bounds_k"])
def test_reference_bounds_live_in_selftest(name):
    # the single-parameter bounds the reduction suites compare against are
    # test predicates: importable from selftest, not part of the engine's API
    assert inspect.isfunction(getattr(selftest, name))
    assert not hasattr(inequality_engine, name)
    assert not hasattr(gammagen, name)


def test_public_functions_are_distinct():
    functions = [getattr(m, n) for m, n in PUBLIC
                 if inspect.isfunction(getattr(m, n))]
    assert len(functions) == 4 + 9 + 22
    assert len({id(f) for f in functions}) == len(functions)


def test_import_does_not_load_numpy():
    # The package needs mpmath alone: `eval` formats its numbers and the
    # selftest draws its points with the standard library.
    code = "import sys, gammagen, gammagen.cli; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
    code = ("import contextlib, io, sys\n"
            "from gammagen import cli, selftest\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['eval', 'psi', '--t', '2.5']) == 0\n"
            "    assert 'numpy' not in sys.modules\n"
            "    assert selftest.run(quick=True) == 0\n"
            "    assert 'numpy' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_no_source_file_imports_numpy():
    for path in pathlib.Path(gammagen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name


def test_readme_library_block_runs_and_its_claims_hold():
    # a changed signature fails here rather than leaving the README stale
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    exprs = [ast.unparse(node.value) for node in ast.parse(block).body
             if isinstance(node, ast.Expr)]
    claims = [e for e in exprs if e.startswith(("rows == ", "all("))]
    assert len(claims) == 2
    for claim in claims:
        assert eval(claim, namespace) is True, claim
    assert len(namespace["rows"]) == 9
    assert scan_passes(namespace["scan"])
