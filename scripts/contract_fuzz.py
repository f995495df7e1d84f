#!/usr/bin/env python3
"""Seeded contract fuzz of `gammagen verify`, `scan` and `eval`, run
in-process through `gammagen.cli.main`.  It reports; it does not judge.

Half the verify and scan draws are admissible, log-uniform over wide
ranges (see draw); the other half break exactly one hypothesis: alpha < 1
for p or q (for a scan, with its first point where alpha + beta t < 1),
a < b or k < 1 for k, or one grid point outside (0, 1) for verify, at or
below 0 for scan.  It prints one line per class (command, family, draw,
exit code, and the stderr prefix or else the verdict) with its count and
first argv, then the calls that raised or printed a traceback, and the
JSON reports that parse only with Infinity or NaN.

The eval draws come from a stream of their own, so the verify and scan
classes of a seed do not depend on them.  Half are admissible (see
draw_eval); the other half break the rule on one flag, named as the draw:
t at or below 0 (below 0 for omega, phi and theta, which are defined at
t = 0), p not an integer >= 1, q outside (0, 1), k at or below 0, tol at
or below 0, or a required flag left out ("missing").  It prints one line
per class (function, draw, exit code, and the stderr prefix or else
"value" when the first line printed is a number) and the calls that
raised or printed a traceback.

Usage:
    python scripts/contract_fuzz.py [--seed 2] [--count 3000]
"""

import argparse
import contextlib
import io
import json
import math
import random
import sys

from gammagen import cli


def draw(rng):
    """(command, family, draw kind, argv) of one seeded draw: a, b in
    [1e-3, 1e3] (a >= b for k), alpha in [1, 1e6] ([1e-3, 1e6] for k), beta
    in [1e-6, 1e6], p up to 1e9, 1 - q down to 1e-12, k up to 1e6, and
    three grid points in (0, 1) for verify, (0, 10) for scan."""
    command, family = rng.choice(("verify", "scan")), rng.choice("pqk")
    lu = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    a, b = lu(1e-3, 1e3), lu(1e-3, 1e3)
    if family == "k":
        a, b = max(a, b), min(a, b)
    alpha, beta = lu(1.0 if family != "k" else 1e-3, 1e6), lu(1e-6, 1e6)
    x = {"p": round(lu(1, 1e9)), "q": 1.0 - lu(1e-12, 0.95), "k": lu(1, 1e6)}[family]
    grid = sorted(rng.uniform(0.0, 1.0 if command == "verify" else 10.0) for _ in range(3))
    kind = "admissible"
    if rng.random() < 0.5:
        kind = rng.choice(("alpha<1", "grid") if family != "k" else ("a<b", "k<1", "grid"))
    if kind == "alpha<1":
        alpha = rng.uniform(1e-3, 0.999)
        if command == "scan":
            grid[0] = (1.0 - alpha) / beta * rng.uniform(0.01, 0.9)
    elif kind == "a<b":
        a, b = b * rng.uniform(0.01, 0.99), b
    elif kind == "k<1":
        x = rng.uniform(1e-3, 0.999)
    elif kind == "grid" and command == "verify":
        grid[-1] = rng.choice((1.0, rng.uniform(1.0, 2.0)))
    elif kind == "grid":
        grid[0] = rng.choice((0.0, -rng.uniform(0.0, 1.0)))
    argv = [command, "--family", family, "--a", repr(a), "--b", repr(b),
            "--alpha", repr(alpha), "--beta", repr(beta), f"--{family}", repr(x),
            "--grid=" + ",".join(map(repr, grid)),
            "--format", rng.choice(("csv", "json"))]
    return command, family, kind, argv


# eval function -> the family flag it reads, or None
_EVAL_FAMILY = {"gamma": None, "psi": None, "gamma_p": "p", "psi_p": "p",
                "gamma_q": "q", "psi_q": "q", "gamma_k": "k", "psi_k": "k",
                "omega": "p", "phi": "q", "theta": "k"}
_AUX = ("omega", "phi", "theta")


def draw_eval(rng):
    """(function, draw kind, argv) of one seeded eval draw: t in [1e-9, 1e4],
    p up to 1e9, 1 - q down to 1e-12, k in [1e-6, 1e6] ([1, 1e6] for theta)
    and tol in [1e-100, 1e-3]; omega, phi and theta also take a, b in
    [1e-3, 1e3] (a >= b for theta), alpha in [1e-3, 1e6] and beta in
    [1e-6, 1e6]."""
    fn = rng.choice(cli.EVAL_FUNCTIONS)
    family = _EVAL_FAMILY[fn]
    lu = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    flags = {"t": lu(1e-9, 1e4), "tol": lu(1e-100, 1e-3)}
    if family:
        flags[family] = {"p": round(lu(1, 1e9)), "q": 1.0 - lu(1e-12, 0.95),
                         "k": lu(1.0 if fn == "theta" else 1e-6, 1e6)}[family]
    if fn in _AUX:
        a, b = lu(1e-3, 1e3), lu(1e-3, 1e3)
        if fn == "theta":
            a, b = max(a, b), min(a, b)
        flags.update(a=a, b=b, alpha=lu(1e-3, 1e6), beta=lu(1e-6, 1e6))
    kind = "admissible"
    if rng.random() < 0.5:
        kind = rng.choice(("t", "tol", "missing") + ((family,) if family else ()))
    if kind == "t":
        flags["t"] = -lu(1e-9, 1e4) if fn in _AUX or rng.random() < 0.5 else 0.0
    elif kind == "p":
        flags["p"] = rng.choice((rng.randint(-3, 0), rng.uniform(1.0, 10.0)))
    elif kind == "q":
        flags["q"] = rng.choice((0.0, 1.0, -lu(1e-6, 1.0), 1.0 + lu(1e-6, 1.0)))
    elif kind == "k":
        flags["k"] = rng.choice((0.0, -lu(1e-6, 1e6)))
    elif kind == "tol":
        flags["tol"] = rng.choice((0.0, -lu(1e-100, 1.0)))
    elif kind == "missing":
        del flags[rng.choice(("t", family) if family else ("t",))]
    return fn, kind, ["eval", fn, *(f"--{name}={value!r}" for name, value in flags.items())]


def _reject(name):
    raise ValueError(f"JSON holds {name}")


def run(argv):
    """(exit code, stdout, stderr) of one call; a call that raised gives
    ("raised", "", the exception's name)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own rejection
            code = exc.code
        except Exception as exc:  # a traceback, were it run as a command
            return "raised", "", type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def classify(argv):
    """(exit code, stderr prefix or verdict, raised, JSON that needs Infinity/NaN)."""
    code, stdout, stderr = run(argv)
    if code == "raised":
        return code, stderr, True, False
    prefix = stderr.split(":", 1)[0] if stderr else stdout.splitlines()[-1].split()[0]
    bad_json = False
    if code in (0, 1) and argv[-1] == "json":
        try:
            json.loads(stdout[:stdout.rstrip("\n").rfind("\n")], parse_constant=_reject)
        except ValueError:
            bad_json = True
    return code, prefix, "Traceback" in stderr, bad_json


def classify_eval(argv):
    """(exit code, stderr prefix or "value" / "no value", raised)."""
    code, stdout, stderr = run(argv)
    if code == "raised":
        return code, stderr, True
    if stderr:
        return code, stderr.split(":", 1)[0], "Traceback" in stderr
    try:
        float(stdout.split("\n", 1)[0])
    except ValueError:
        return code, "no value", False
    return code, "value", False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--count", type=int, default=3000)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    classes, raised, bad_json = {}, 0, 0
    for _ in range(args.count):
        command, family, kind, cli_argv = draw(rng)
        code, prefix, tb, bad = classify(cli_argv)
        raised, bad_json = raised + tb, bad_json + bad
        entry = classes.setdefault((command, family, kind, str(code), prefix), [0, cli_argv])
        entry[0] += 1
    print(f"seed {args.seed}, {args.count} draws")
    print(f"{'command':<8}{'family':<7}{'draw':<11}{'exit':<7}{'stderr or verdict':<20}"
          f"{'count':>6}  example")
    for key, (count, example) in sorted(classes.items()):
        print(f"{key[0]:<8}{key[1]:<7}{key[2]:<11}{key[3]:<7}{key[4]:<20}{count:>6}  "
              f"gammagen {' '.join(example)}")
    print(f"raised or traceback: {raised}; JSON needing Infinity or NaN: {bad_json}")

    rng = random.Random(f"eval {args.seed}")
    classes, raised = {}, 0
    for _ in range(args.count):
        fn, kind, cli_argv = draw_eval(rng)
        code, prefix, tb = classify_eval(cli_argv)
        raised += tb
        entry = classes.setdefault((fn, kind, str(code), prefix), [0, cli_argv])
        entry[0] += 1
    print(f"eval, {args.count} draws")
    print(f"{'function':<9}{'draw':<11}{'exit':<7}{'stderr or value':<20}{'count':>6}  example")
    for key, (count, example) in sorted(classes.items()):
        print(f"{key[0]:<9}{key[1]:<11}{key[2]:<7}{key[3]:<20}{count:>6}  "
              f"gammagen {' '.join(example)}")
    print(f"eval raised or traceback: {raised}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
