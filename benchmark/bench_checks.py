"""Checkers for the outputs the benchmark collects from gammagen.

Each checker takes the program's output for one task plus the task's
inputs, recomputes what it can in mpmath (bench_reference), and returns a
list of problems; an empty list means the output is correct.  The theorem
each workload exercises fixes the expected verdict: every sandwich row and
every scan must pass, every lemma value must be positive (non-negative for
the k-family, whose bounds are not strict).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

from mpmath import mp, mpf

import bench_reference as ref

U = ref.U
EULER = mpf("0.57721566490153286060651209008240243104215933593992")
CSV_COLUMNS = ["t", "lower", "middle", "upper",
               "lower_margin", "upper_margin", "strict", "pass"]
STRICT = {"p": True, "q": True, "k": False}
# Relative tolerance the test suite uses for fast path vs oracle.
CROSSVAL_REL = {"gamma_k_quad": 1e-12}
CROSSVAL_REL_DEFAULT = 1e-10
# An oracle value is held to the digits it certifies, but to no more than
# this many: gamma_hp claims up to 41 digits while working at 30, and from
# t ~ 26.6 on misses its claim (1.9e-24 relative error at t = 29.9 against
# 29 digits claimed).  Twenty digits are ten more than the finest tolerance
# the oracle certifies fast paths to.
ORACLE_DIGITS_HELD = 20


def _close(prog: float, ref_value, allowance: float) -> bool:
    return abs(mpf(prog) - ref_value) <= allowance


# ---------------------------------------------------------------------------
# families in log space
# ---------------------------------------------------------------------------

def _lg(family, s, x):
    """(ln Gamma_X(s), reference error, allowance for the program's value)."""
    v, e = ref.FAMILY_LOG_GAMMA[family](s, x)
    return v, e, ref.FAMILY_LOG_GAMMA_ALLOWANCE[family](s, x)


def _ell(family, gp, x, t):
    """Terms of l(t) = ln aux(t) - middle(t): the auxiliary function's
    prefactor (omega, phi or theta of the paper), one mp value per term."""
    a, b, alpha, beta = (mpf(v) for v in gp)
    t = mpf(t)
    with mp.workdps(ref.DPS):
        if family == "p":
            return [b * beta * t * mp.log(x), a * beta * EULER * t]
        if family == "q":
            return [-b * beta * t * mp.log1p(-mpf(x)), a * beta * EULER * t]
        k = mpf(x)
        return [(a - b) * mp.log(alpha + beta * t), (b * beta * t / k) * mp.log(k),
                t * beta * EULER * (k * a - b) / k]


@functools.lru_cache(maxsize=65536)
def _middle(family, gp, x, s):
    """(a ln Gamma(s) - b ln Gamma_X(s), reference error, program allowance,
    sum of absolute terms)."""
    a, b = gp[0], gp[1]
    lg, lg_err = ref.loggamma(s)
    lx, lx_err, lx_allow = _lg(family, s, x)
    with mp.workdps(ref.DPS):
        value = a * lg - b * lx
        allow = a * ref.allowance_lgamma(s) + b * lx_allow
        return value, a * lg_err + b * lx_err, allow, float(abs(a * lg) + abs(b * lx))


def sandwich_reference(family, gp, x, t):
    """Reference (log_lower, log_middle, log_upper) at grid point t, with a
    common reference error and program allowance in log space.

    Uses the paper's construction: lower = ln aux(0) - l(t), middle =
    ln aux(t) - l(t), upper = ln aux(1) - l(t), l(t) being aux's prefactor.
    """
    alpha, beta = gp[2], gp[3]
    m0, e0, a0, s0 = _middle(family, gp, x, alpha)
    m1, e1, a1, s1 = _middle(family, gp, x, alpha + beta)
    mt, et, at, st = _middle(family, gp, x, alpha + beta * t)
    with mp.workdps(ref.DPS):
        ell0, ell1, ellt = (_ell(family, gp, x, v) for v in (0.0, 1.0, t))
        aux0, aux1 = m0 + mp.fsum(ell0), m1 + mp.fsum(ell1)
        lt = mp.fsum(ellt)
        logs = (aux0 - lt, mt, aux1 - lt)
        err = e0 + e1 + et
        magnitude = s0 + s1 + st + float(sum(abs(v) for v in ell0 + ell1 + ellt))
        allow = a0 + a1 + at + 16 * U * magnitude
        return logs, err, allow


def _value_allowance(log_ref, log_allow) -> float:
    """Allowance on exp(L) given an allowance on L."""
    return float(mp.exp(log_ref)) * (math.expm1(log_allow) + 4 * U) + 1e-300


# ---------------------------------------------------------------------------
# sandwich rows (verify)
# ---------------------------------------------------------------------------

def parse_verify_output(text: str, fmt: str) -> list[dict]:
    """Rows of a verify report as dicts with float fields and bool flags."""
    if fmt == "json":
        obj = json.loads(text)
        rows = obj["rows"]
        summary = obj["summary"]
        if summary["total"] != len(rows):
            raise ValueError("summary.total disagrees with the row count")
        if summary["passed"] != sum(1 for r in rows if r["pass"]):
            raise ValueError("summary.passed disagrees with the rows")
        return rows
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        row = {name: float(v) for name, v in zip(CSV_COLUMNS[:6], rec[:6])}
        for name, v in zip(CSV_COLUMNS[6:], rec[6:]):
            if v not in ("true", "false"):
                raise ValueError(f"{name} must be true/false (got {v!r})")
            row[name] = v == "true"
        rows.append(row)
    return rows


def check_sandwich_rows(family, gp, x, grid, rows) -> list[str]:
    """Every row must match the mpmath recomputation of its three bounds and
    margins, and carry the verdict the theorem demands: pass."""
    problems = []
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} grid points"]
    for t, row in zip(grid, rows):
        where = f"{family}{tuple(gp)} x={x} t={t}"
        if abs(row["t"] - t) > 1e-12:
            problems.append(f"{where}: row t={row['t']!r}")
            continue
        logs, err, allow = sandwich_reference(family, gp, x, row["t"])
        refs = [mp.exp(v) for v in logs]
        allows = [_value_allowance(v, allow + float(err)) for v in logs]
        for name, rv, av in zip(("lower", "middle", "upper"), refs, allows):
            if not _close(row[name], rv, av):
                problems.append(f"{where}: {name} {row[name]!r} vs reference "
                                f"{mp.nstr(rv, 17)} (allowance {av:.2g})")
        for name, hi, lo, ahi, alo in (
                ("lower_margin", refs[1], refs[0], allows[1], allows[0]),
                ("upper_margin", refs[2], refs[1], allows[2], allows[1])):
            ref_margin = hi - lo
            slack = ahi + alo + 2 * U * float(abs(hi))
            if not _close(row[name], ref_margin, slack):
                problems.append(f"{where}: {name} {row[name]!r} vs reference "
                                f"{mp.nstr(ref_margin, 17)}")
            holds = ref_margin > 0 if STRICT[family] else ref_margin >= -err
            if not holds:
                problems.append(f"{where}: reference {name} {mp.nstr(ref_margin, 5)} "
                                "contradicts the theorem")
        if row["strict"] != STRICT[family]:
            problems.append(f"{where}: strict={row['strict']}")
        if row["pass"] is not True:
            problems.append(f"{where}: verdict fail where the theorem holds")
    return problems


# ---------------------------------------------------------------------------
# lemma values and monotonicity scans
# ---------------------------------------------------------------------------

def lemma_reference(family, a, b, s, x):
    """(reference lemma value, reference error, program allowance)."""
    ps, ps_err = ref.digamma(s)
    px, px_err = ref.FAMILY_PSI[family](s, x)
    a_, b_, s_ = mpf(a), mpf(b), mpf(s)
    with mp.workdps(ref.DPS):
        if family == "p":
            consts = [a_ * EULER, b_ * mp.log(x)]
        elif family == "q":
            consts = [a_ * EULER, -b_ * mp.log1p(-mpf(x))]
        else:
            k = mpf(x)
            consts = [(k * a_ * EULER - b_ * EULER) / k, (b_ / k) * mp.log(k),
                      (a_ - b_) / s_]
        terms = consts + [a_ * ps, -b_ * px]
        value = mp.fsum(terms)
        allow = (a * ref.allowance_psi_series(s) + b * ref.FAMILY_PSI_ALLOWANCE[family](s, x)
                 + 8 * U * float(sum(abs(v) for v in terms)))
        return value, a_ * ps_err + b_ * px_err, allow


def check_lemma_values(family, samples, values) -> list[str]:
    """Each (a, b, t, x) sample's program value must agree with the
    digamma-built reference and be positive (k: non-negative)."""
    problems = []
    if len(values) != len(samples):
        return [f"{len(values)} values for {len(samples)} samples"]
    for (a, b, t, x), v in zip(samples, values):
        rv, err, allow = lemma_reference(family, a, b, t, x)
        where = f"lemma_{family}(a={a}, b={b}, t={t}, x={x})"
        if not _close(v, rv, allow + float(err)):
            problems.append(f"{where} = {v!r}, reference {mp.nstr(rv, 17)}")
        if STRICT[family]:
            if not (rv > 0 and v > 0):
                problems.append(f"{where} = {v!r} is not positive")
        elif not (rv >= -err and v >= -allow):
            problems.append(f"{where} = {v!r} is negative")
    return problems


def parse_scan_output(text: str, fmt: str):
    """(grid, values, min_forward_diff or None, derivative_min or None)."""
    if fmt == "json":
        obj = json.loads(text)
        return (obj["grid"], obj["values"], obj["min_forward_diff"],
                obj["derivative_min"])
    lines = text.splitlines()
    if lines[0] != "t,value":
        raise ValueError(f"unexpected scan CSV header {lines[0]!r}")
    pairs = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return [p[0] for p in pairs], [p[1] for p in pairs], None, None


def check_scan(family, gp, x, grid, scan) -> list[str]:
    """Scan values must match exp(ln aux) in mpmath, increase along the grid,
    and the log-derivative beta * lemma(alpha + beta t) must be positive."""
    got_grid, values, min_fwd, deriv_min = scan
    a, b, alpha, beta = gp
    where = f"scan {family}{tuple(gp)} x={x}"
    if len(got_grid) != len(grid) or any(
            abs(g - t) > 1e-12 for g, t in zip(got_grid, grid)):
        return [f"{where}: grid differs from the requested one"]
    problems = []
    derivs, deriv_allow = [], 0.0
    for t, v in zip(got_grid, values):
        s = alpha + beta * t
        m, err, allow, mag = _middle(family, gp, x, s)
        ell = _ell(family, gp, x, t)
        with mp.workdps(ref.DPS):
            log_aux = m + mp.fsum(ell)
        allow += 16 * U * (mag + float(sum(abs(e) for e in ell)))
        av = _value_allowance(log_aux, allow + float(err))
        if not _close(v, mp.exp(log_aux), av):
            problems.append(f"{where}: value at t={t} {v!r} vs reference "
                            f"{mp.nstr(mp.exp(log_aux), 17)}")
        lv, lerr, lallow = lemma_reference(family, a, b, s, x)
        derivs.append(beta * lv)
        deriv_allow = max(deriv_allow, beta * (lallow + float(lerr)))
        holds = lv > 0 if STRICT[family] else lv >= -lerr
        if not holds:
            problems.append(f"{where}: reference log-derivative at t={t} "
                            f"is {mp.nstr(lv, 5)}")
    diffs = [v2 - v1 for v1, v2 in zip(values, values[1:])]
    if STRICT[family]:
        if not all(d > 0 for d in diffs):
            problems.append(f"{where}: values do not increase")
    elif not all(d >= -2 * U * abs(v) for d, v in zip(diffs, values[1:])):
        problems.append(f"{where}: values decrease")
    if min_fwd is not None and min_fwd != min(diffs):
        problems.append(f"{where}: min_forward_diff {min_fwd!r} is not the "
                        f"smallest difference of the reported values")
    if deriv_min is not None and not _close(deriv_min, min(derivs),
                                            deriv_allow + 4 * U * abs(deriv_min)):
        problems.append(f"{where}: derivative_min {deriv_min!r} vs reference "
                        f"{mp.nstr(min(derivs), 17)}")
    return problems


# ---------------------------------------------------------------------------
# evaluators checked directly (deformation limits)
# ---------------------------------------------------------------------------

_EVALUATOR_REFS = {
    "log_gamma_p": (ref.log_gamma_p, ref.allowance_log_gamma_p),
    "psi_p": (ref.psi_p, ref.allowance_psi_p),
    "log_gamma_q": (ref.log_gamma_q, ref.allowance_log_gamma_q),
    "psi_q": (ref.psi_q, ref.allowance_psi_q),
    "log_gamma_k": (ref.log_gamma_k, ref.allowance_log_gamma_k),
    "psi_k": (ref.psi_k, ref.allowance_psi_k),
}


def check_evaluation(name, args, value, err_bound=0.0) -> list[str]:
    """One evaluator value against its reference, within the reported
    err_bound plus the rounding allowance."""
    reference, allowance = _EVALUATOR_REFS[name]
    rv, err = reference(*args)
    slack = allowance(*args) + err_bound + float(err)
    if not _close(value, rv, slack):
        return [f"{name}{args} = {value!r}, reference {mp.nstr(rv, 17)} "
                f"(allowance {slack:.2g})"]
    return []


def check_q_functional_equations(t, q, lg, lg1, ps, ps1) -> list[str]:
    """ln G_q(t+1) - ln G_q(t) = ln((1-q^t)/(1-q)) and
    psi_q(t+1) - psi_q(t) = -ln q q^t/(1-q^t); lg, lg1, ps, ps1 are
    (value, err_bound) pairs at t and t+1."""
    with mp.workdps(ref.DPS):
        t_, q_ = mpf(t), mpf(q)
        qt = q_ ** t_
        d_lg = mp.log((1 - qt) / (1 - q_))
        d_ps = -mp.log(q_) * qt / (1 - qt)
    problems = []
    slack = (ref.allowance_log_gamma_q(t, q) + ref.allowance_log_gamma_q(t + 1, q)
             + lg[1] + lg1[1])
    if not _close(lg1[0] - lg[0], d_lg, slack + 2 * U * abs(lg1[0])):
        problems.append(f"ln Gamma_q functional equation fails at t={t}, q={q}: "
                        f"{lg1[0] - lg[0]!r} vs {mp.nstr(d_lg, 17)}")
    slack = (ref.allowance_psi_q(t, q) + ref.allowance_psi_q(t + 1, q)
             + ps[1] + ps1[1])
    if not _close(ps1[0] - ps[0], d_ps, slack + 2 * U * abs(ps1[0])):
        problems.append(f"psi_q functional equation fails at t={t}, q={q}: "
                        f"{ps1[0] - ps[0]!r} vs {mp.nstr(d_ps, 17)}")
    return problems


# ---------------------------------------------------------------------------
# oracle cross-validation pairs
# ---------------------------------------------------------------------------

ORACLE_REFS = {
    "psi_hp": ref.digamma,
    "psi_p_hp": ref.psi_p,
    "psi_q_hp": ref.psi_q,
    "psi_k_hp": ref.psi_k,
    "gamma_hp": ref.gamma,
    "gamma_p_hp": ref.gamma_p,
    "gamma_q_hp": ref.gamma_q_mp,
    "gamma_k_quad": ref.gamma_k,
}


def check_crossval(routine, args, fast_value, hp_value, certified_digits,
                   verdict) -> list[str]:
    """The oracle value must agree with the mpmath reference to the digits
    it certifies (at most ORACLE_DIGITS_HELD); the fast path must agree with
    the oracle to the suite's relative tolerance, and the program's
    cross_validate verdict must say so."""
    rv, err = ORACLE_REFS[routine](*args)
    where = f"{routine}{tuple(args)}"
    problems = []
    with mp.workdps(ref.DPS):
        scale = max(abs(rv), 1)
        digits = min(certified_digits, ORACLE_DIGITS_HELD)
        oracle_slack = mpf(10) ** -digits * scale + err
        if abs(hp_value - rv) > oracle_slack:
            problems.append(f"{where}: oracle {mp.nstr(hp_value, 20)} vs reference "
                            f"{mp.nstr(rv, 20)} ({digits} digits held)")
        rel = CROSSVAL_REL.get(routine, CROSSVAL_REL_DEFAULT)
        if abs(mpf(fast_value) - hp_value) > rel * max(abs(hp_value), 1):
            problems.append(f"{where}: fast path {fast_value!r} differs from the "
                            f"oracle by more than {rel:g} relative")
    if verdict is not True:
        problems.append(f"{where}: cross_validate verdict {verdict!r}")
    return problems
