"""Command-line front end: evaluate functions, verify inequalities, scan
monotonicity, and run the built-in selftest.

Exit codes: 0 all pass, 1 numeric failure, 2 hypothesis/domain error, a
result beyond the double range or a report that cannot be written, 3
tolerance-not-met.  Only ``eval`` takes ``--tol``; ``verify`` and ``scan``
run the engine at its fixed series tolerance.  Report output is
deterministic: identical configuration produces byte-identical CSV/JSON.
Every number is printed as its ``repr``, which round-trips.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import gammagen

from .core_special import (
    DEFAULT_TOL,
    DomainError,
    EvalResult,
    ToleranceNotMet,
    _converged_value,
    _require_positive,
)
from .inequality_engine import (
    FAMILIES,
    GenParams,
    check_sandwich,
    family_callables,
    scan_monotone,
    scan_passes,
)

EXIT_OK = 0
EXIT_NUMERIC_FAIL = 1
EXIT_DOMAIN = 2
EXIT_TOL = 3

EVAL_FUNCTIONS = ("gamma", "psi", "gamma_p", "psi_p", "gamma_q", "psi_q",
                  "gamma_k", "psi_k", "omega", "phi", "theta")

# a verify row's fields in order, ``passed`` written as "pass"; CSV leaves out the note
CSV_COLUMNS = ("t", "lower", "middle", "upper",
               "lower_margin", "upper_margin", "strict", "pass")
_ROW_KEYS = (*CSV_COLUMNS, "note")
_FLAG = ("false", "true")


MAX_GRID_POINTS = 10**6


def parse_grid_spec(spec: str) -> tuple:
    """Parse 'start:stop:step' (inclusive endpoints, within float slack) or a
    comma-separated explicit list; the result must be strictly increasing.
    Each piece must parse as a finite float, so neither form can give an
    empty grid: str.split yields at least one piece, and a colon spec at
    least one point.  A start:stop:step grid holds at most MAX_GRID_POINTS
    points, which is checked before any point is built."""
    try:
        numbers = tuple(map(float, spec.split(":" if ":" in spec else ",")))
    except ValueError:
        raise DomainError(f"grid spec holds a piece that is not a number "
                          f"(got {spec!r})") from None
    if not all(map(math.isfinite, numbers)):
        raise DomainError(f"grid spec must be finite (got {spec!r})")
    if ":" in spec:
        if len(numbers) != 3:
            raise DomainError(f"grid spec must be start:stop:step (got {spec!r})")
        start, stop, step = numbers
        if not step > 0 or stop < start:
            raise DomainError(f"grid spec needs step > 0 and stop >= start (got {spec!r})")
        intervals = (stop - start) / step + 1e-9
        if not intervals < MAX_GRID_POINTS:
            raise DomainError(f"grid spec gives more than {MAX_GRID_POINTS} points "
                              f"(got {spec!r})")
        count = int(intervals) + 1
        grid = tuple(start + i * step for i in range(count))
    else:
        grid = numbers
    if any(t1 >= t2 for t1, t2 in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    return grid


def _csv(header, rows) -> str:
    """A CSV report: the header line, then one line per row of cells the
    caller has already formatted.  Every number is printed as its ``repr``,
    which round-trips (as ``json.dumps`` prints floats), and a flag as
    true or false."""
    return "\n".join(map(",".join, (header, *rows))) + "\n"


def _json(config, **payload) -> str:
    """A JSON report: ``config`` first, then the payload keys in order."""
    return json.dumps({"config": config, **payload}, indent=2) + "\n"


def _emit(content: str, path: str | None) -> bool:
    """Write a report to path or stdout; False, with the reason on stderr, if it can't."""
    if path is None:
        sys.stdout.write(content)
        return True
    try:
        with open(path, "w", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        print(f"cannot write report: {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    import inspect  # only eval reads signatures; kept out of start-up

    _require_positive("tol", args.tol)
    # Each evaluator names its arguments t, p, q, k, gp or tol, so it gets
    # the flags its signature asks for.  It is looked up on the package when
    # called, so a wrapper installed there (a profiler's, say) sees the call.
    func = getattr(gammagen, "psi_series" if args.fn == "psi" else args.fn)
    kwargs = {}
    for name in inspect.signature(func).parameters:
        if name == "gp":
            kwargs[name] = GenParams(args.a, args.b, args.alpha, args.beta)
        elif getattr(args, name) is None:
            raise DomainError(f"--{name} is required for {args.fn}")
        else:
            kwargs[name] = getattr(args, name)
    result = func(**kwargs)

    if isinstance(result, EvalResult):
        print(repr(result.value))
        print(f"err_bound {result.err_bound!r} terms_used {result.terms_used}")
        _converged_value(result, args.fn, args.tol)  # ToleranceNotMet: exit 3
    else:
        print(repr(result))
    return EXIT_OK


def _sweep(args):
    """What verify and scan share: (gp, family parameter, grid, and the
    JSON report's ``config`` with its keys in report order).  The engine
    checks the parameters and the sandwich grid."""
    gp = GenParams(args.a, args.b, args.alpha, args.beta)
    param = getattr(args, args.family)
    if param is None:
        raise DomainError(f"--{args.family} is required for family {args.family}")
    grid = parse_grid_spec(args.grid)
    return gp, param, grid, {
        "family": args.family, "a": gp.a, "b": gp.b, "alpha": gp.alpha,
        "beta": gp.beta, args.family: param, "grid_spec": args.grid,
        "grid": list(grid), "format": args.format}


def _cmd_verify(args) -> int:
    gp, param, grid, config = _sweep(args)
    rows = check_sandwich(args.family, gp, param, grid)
    n_pass = sum(r.passed for r in rows)
    if args.format == "csv":
        # a row's first six fields are numbers, then its two flags
        content = _csv(CSV_COLUMNS, ([*map(repr, map(float, r[:6])), _FLAG[r.strict],
                                      _FLAG[r.passed]] for r in rows))
    else:
        content = _json(config, rows=[dict(zip(_ROW_KEYS, r)) for r in rows], summary={
            "total": len(rows),
            "passed": n_pass,
            "failed": len(rows) - n_pass,
            "all_pass": n_pass == len(rows),
            "min_lower_margin": min((r.lower_margin for r in rows), default=None),
            "min_upper_margin": min((r.upper_margin for r in rows), default=None),
        })
    if not _emit(content, args.out):
        return EXIT_DOMAIN
    n_fail = len(rows) - n_pass
    print(f"FAIL {n_fail}/{len(rows)}" if n_fail else f"PASS {len(rows)}/{len(rows)}")
    return EXIT_NUMERIC_FAIL if n_fail else EXIT_OK


def _cmd_scan(args) -> int:
    gp, param, grid, config = _sweep(args)
    # the engine admits t = 0, where the sandwich evaluates aux; a scan does not
    if any(t <= 0.0 for t in grid):
        raise DomainError("monotone grids must lie strictly in (0, inf)")
    scan = scan_monotone(*family_callables(args.family, gp, param), grid)
    if args.format == "csv":
        content = _csv(("t", "value"), ([repr(float(t)), repr(float(v))]
                                        for t, v in zip(scan.grid, scan.values)))
    else:
        content = _json(config, **scan._asdict())
    if not _emit(content, args.out):
        return EXIT_DOMAIN
    ok = scan_passes(scan)
    print(f"{'PASS' if ok else 'FAIL'} min_forward_diff={scan.min_forward_diff!r} "
          f"derivative_min={scan.derivative_min!r}")
    return EXIT_OK if ok else EXIT_NUMERIC_FAIL


def _cmd_selftest(args) -> int:
    from . import selftest  # imports the mpmath oracle; kept out of start-up

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    return selftest.run(quick=args.quick, seed=seed)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def number(text: str):
    """An int where the text is one, else a float, which ``_check_p`` rejects."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _add_gen_param_flags(sub):
    sub.add_argument("--a", type=float, default=1.0)
    sub.add_argument("--b", type=float, default=1.0)
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--beta", type=float, default=1.0)
    sub.add_argument("--p", type=number, default=None)
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--k", type=float, default=None)


def _add_sweep_flags(sub):
    _add_gen_param_flags(sub)
    sub.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sub.add_argument("--grid", required=True,
                     help="start:stop:step or comma-separated values")
    sub.add_argument("--out", default=None, help="report file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammagen",
        description="Generalized Gamma functions and inequality verification")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one function")
    p_eval.add_argument("fn", choices=EVAL_FUNCTIONS)
    p_eval.add_argument("--t", type=float, default=None)
    _add_gen_param_flags(p_eval)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="series tail-bound target (default %(default)g)")
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = subs.add_parser("verify", help="check a sandwich inequality on a grid")
    _add_sweep_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = subs.add_parser("scan", help="scan an auxiliary function for monotonicity")
    _add_sweep_flags(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_self = subs.add_parser("selftest", help="run oracle cross-validation suites")
    p_self.add_argument("--quick", action="store_true")
    p_self.add_argument("--seed", type=int, default=None,
                        help="seed of the sampled points (default selftest.DEFAULT_SEED)")
    p_self.set_defaults(handler=_cmd_selftest)
    return parser


# main's one parser per process.  parse_args leaves the parser unchanged and
# builds a fresh Namespace per call, and argparse looks up sys.stderr only
# when it reports an error, so calls stay independent.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError as exc:
        # stdout was closed under the report (``| head``).  The interpreter
        # flushes stdout again at exit, so what is left goes to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write report: <stdout>: {exc.strerror}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"out of double range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ToleranceNotMet as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
