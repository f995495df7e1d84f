#!/usr/bin/env python3
"""Seeded mutation sample: how many small changes to a module do its
tests notice?

For each module named (by default every module of SUBSETS: core_special,
gen_gamma, inequality_engine, oracle, cli and selftest) the script lists
every mutation site of src/gammagen/<module>.py and draws SAMPLE of them
at the fixed SEED, or takes all of them where there are fewer.  A site
is one node of the module's syntax tree, and its mutant changes that
node alone:

- + and - swap, and so do * and / (binary operators);
- < and <= swap, and so do > and >= (each operator of a comparison);
- an integer constant gains 1;
- a non-zero float constant is scaled by 1 + 1e-6.

The module, its tests and README.md (which some tests read) are copied
to a temporary directory, and nothing is written under src/.  Each
mutant, written there by ast.unparse, runs the module's test subset
(SUBSETS) with pytest -x.  A mutant is killed when the subset fails, or
runs past TIMEOUT_S seconds.  The unmutated module, unparsed the same
way, must pass its subset first.  Bytecode caching is off, because a
mutant can match its predecessor's size and modification second.

It prints each survivor (line, column and change) and, per module,
"killed K of N (S sites)".  One mutant takes a few seconds; the default
run takes about a quarter of an hour on a 2-CPU host.

Usage:
    python scripts/mutation_score.py [MODULE ...]
"""

import ast
import itertools
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 26
SAMPLE = 40
TIMEOUT_S = 600
SUBSETS = {
    "core_special": ["tests/test_core_special.py", "tests/test_argument_checks.py",
                     "tests/test_double_range.py"],
    "gen_gamma": ["tests/test_gen_gamma.py", "tests/test_double_range.py"],
    "inequality_engine": ["tests/test_inequality_engine.py", "tests/test_acceptance.py"],
    "oracle": ["tests/test_oracle.py"],
    "cli": ["tests/test_cli.py"],
    "selftest": ["tests/test_cli.py", "tests/test_inequality_engine.py",
                 "tests/test_public_api.py"],
}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def sites(source):
    """Every mutation site of source as (line, column, node index in
    ast.walk order, operator index of a comparison or -1, description),
    in source order."""
    found = []
    for i, node in enumerate(ast.walk(ast.parse(source))):
        at = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), i)
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            found.append((*at, -1, f"{type(node.op).__name__} -> {_SWAP[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            chain = len(node.ops) > 1
            found += [(*at, j, f"{type(op).__name__} -> {_SWAP[type(op)].__name__}"
                       + (f" (comparison {j + 1})" if chain else ""))
                      for j, op in enumerate(node.ops) if type(op) in _SWAP]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((*at, -1, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            found.append((*at, -1, f"{node.value!r} -> {node.value * (1 + 1e-6)!r}"))
    return sorted(found)


def mutate(source, site):
    """source with the one change of site, by ast.unparse."""
    tree = ast.parse(source)
    _, _, index, op, _ = site
    node = next(itertools.islice(ast.walk(tree), index, None))
    if isinstance(node, ast.BinOp):
        node.op = _SWAP[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[op] = _SWAP[type(node.ops[op])]()
    elif type(node.value) is int:
        node.value += 1
    else:
        node.value *= 1 + 1e-6
    return ast.unparse(tree)


def score(module, work):
    """Print the survivors and the kill count of one module's sample."""
    path = work / "src" / "gammagen" / f"{module}.py"
    source = (ROOT / "src" / "gammagen" / f"{module}.py").read_text()
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")

    def killed(text):
        path.write_text(text)
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *SUBSETS[module]], cwd=work, env=env, capture_output=True,
                timeout=TIMEOUT_S).returncode != 0
        except subprocess.TimeoutExpired:
            return True

    if killed(ast.unparse(ast.parse(source))):
        raise SystemExit(f"{module}: the subset fails on the unmutated module")
    every = sites(source)
    chosen = sorted(random.Random(SEED).sample(every, min(SAMPLE, len(every))))
    survivors = [s for s in chosen if not killed(mutate(source, s))]
    path.write_text(source)
    for line, col, _, _, change in survivors:
        print(f"  survived {module}.py:{line}:{col} {change}", flush=True)
    print(f"{module}: killed {len(chosen) - len(survivors)} of {len(chosen)} "
          f"({len(every)} sites)", flush=True)


def main(argv=None) -> int:
    modules = (sys.argv[1:] if argv is None else argv) or list(SUBSETS)
    unknown = [m for m in modules if m not in SUBSETS]
    if unknown:
        print(f"no test subset for {', '.join(unknown)}; known: {', '.join(SUBSETS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        for module in modules:
            score(module, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
