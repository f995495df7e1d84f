"""The benchmark's workloads: tasks generated from a seed, and how each task
calls gammagen.

A workload is one round of tasks, repeated whole for the length of a run.
Within a round the families take turns, so a drift in machine speed hits
every kind of task alike.  The seed draws each task's parameters inside a
fixed band per slot; the bands, not the seed, set what a task costs.

Tasks call gammagen only through ``gammagen.cli.main`` and the names the
package (and its ``oracle`` module) export, looked up at call time so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import gammagen
import gammagen.cli
import gammagen.oracle

FAMILIES = ("p", "q", "k")
OVERFLOW_MESSAGE = "math range error"


def grid_points(spec: str) -> list[float]:
    """Points of a CLI grid spec: 'start:stop:step' (inclusive) or a list."""
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        count = int((stop - start) / step + 1e-9) + 1
        return [start + i * step for i in range(count)]
    return [float(v) for v in spec.split(",")]


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

@dataclass
class CliTask:
    """One ``verify`` or ``scan`` run through ``gammagen.cli.main``.

    The first round writes to its own file and later rounds to another, so
    the last report can be compared byte for byte with the first.
    """

    kind: str
    family: str
    gp: tuple
    x: float
    grid_spec: str
    fmt: str
    path_first: str
    path_last: str
    expected_failure: str | None = None
    grid: list = field(init=False)
    points: int = field(init=False)
    code: object = field(init=False, default=None)
    stderr: str = field(init=False, default="")

    def __post_init__(self):
        self.grid = grid_points(self.grid_spec)
        self.points = len(self.grid)
        a, b, alpha, beta = self.gp
        base = [self.kind, "--family", self.family, "--a", repr(a), "--b", repr(b),
                "--alpha", repr(alpha), "--beta", repr(beta),
                f"--{self.family}", repr(self.x), "--grid", self.grid_spec,
                "--format", self.fmt]
        self._argv = (base + ["--out", self.path_first],
                      base + ["--out", self.path_last])

    def run(self, first: bool) -> bool:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = gammagen.cli.main(self._argv[0 if first else 1])
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
        if first:
            self.code, self.stderr = code, err.getvalue()
        return code in (0, 1)

    def describe(self) -> str:
        return " ".join(self._argv[0][:-2])


@dataclass
class LemmaTask:
    """A batch of lemma_expr_<family>(a, b, t, x) at random admissible samples."""

    family: str
    samples: list
    values: list = field(init=False, default=None)

    @property
    def points(self) -> int:
        return len(self.samples)

    def run(self, first: bool) -> bool:
        fn = getattr(gammagen, "lemma_expr_" + self.family)
        values = [fn(a, b, t, x) for a, b, t, x in self.samples]
        if first:
            self.values = values
        return True

    def describe(self) -> str:
        return f"lemma_expr_{self.family} x{len(self.samples)}"


# fast path exported by gammagen for each oracle routine
ORACLE_FAST_PATHS = {
    "psi_hp": "psi_series", "psi_p_hp": "psi_p", "psi_q_hp": "psi_q",
    "psi_k_hp": "psi_k", "gamma_hp": "gamma", "gamma_p_hp": "gamma_p",
    "gamma_q_hp": "gamma_q", "gamma_k_quad": "gamma_k",
}


@dataclass
class CrossvalTask:
    """One fast path and its oracle routine at the same arguments, compared
    by ``oracle.cross_validate`` at the test suite's relative tolerance."""

    routine: str
    args: tuple
    rel: float
    points: int = 1
    result: tuple = field(init=False, default=None)

    def run(self, first: bool) -> bool:
        fast = getattr(gammagen, ORACLE_FAST_PATHS[self.routine])(*self.args)
        fast_value = fast.value if isinstance(fast, gammagen.EvalResult) else fast
        hp = getattr(gammagen.oracle, self.routine)(*self.args)
        verdict = gammagen.oracle.cross_validate(fast_value, hp, self.rel)
        if first:
            self.result = (fast_value, hp.value, hp.certified_digits, verdict)
        return True

    def describe(self) -> str:
        return f"{self.routine}{self.args}"


@dataclass
class Workload:
    """One round of tasks.  ``tail_slot`` places task_tail_ms: the
    percentile sits at the centre of the tail_slot-th most expensive task of
    the round (1.5: between the two most expensive), so it falls inside one
    kind of task whatever the number of rounds."""

    name: str
    tasks: list
    tail_slot: float
    calibration: tuple  # bench_calibration kernels that track this work
    evaluator_probes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# parameter draws
# ---------------------------------------------------------------------------

def _gen_params(rng: random.Random, family: str) -> tuple:
    """(a, b, alpha, beta) as in the acceptance suite: alpha > 1 for the p-
    and q-sandwich; a > b for the k-family."""
    beta = rng.uniform(0.2, 1.5)
    if family == "k":
        b = rng.uniform(0.3, 2.0)
        return (b + rng.uniform(0.01, 2.0), b, rng.uniform(0.3, 2.5), beta)
    return (rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5), rng.uniform(1.05, 2.5), beta)


def _lemma_samples(rng: random.Random, family: str, n: int, draw_x) -> list:
    """Samples in the shape of the acceptance battery's positivity test."""
    out = []
    for i in range(n):
        if family == "k":
            b = rng.uniform(0.1, 5.0)
            a = b if i % 20 == 0 else b + rng.uniform(0.0, 5.0)
            x = 1.0 if i % 17 == 0 else draw_x()
            out.append((a, b, rng.uniform(1e-3, 50.0), x))
        else:
            out.append((rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
                        1.0 + rng.uniform(1e-4, 49.0), draw_x()))
    return out


class _Paths:
    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0

    def __call__(self, ext):
        self.n += 1
        stem = os.path.join(self.workdir, f"task{self.n:03d}")
        return f"{stem}-first.{ext}", f"{stem}-last.{ext}"


def _cli(paths, kind, family, gp, x, grid_spec, fmt, expected_failure=None):
    first, last = paths(fmt)
    return CliTask(kind, family, gp, x, grid_spec, fmt, first, last,
                   expected_failure)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

PAPER_VERIFY_GRID = "0.05:0.95:0.05"
PAPER_SCAN_GRID = "0.05:5:0.05"
PAPER_LEMMA_BATCH = 40
OVERFLOW_ARGS = ("p", (200.0, 1.0, 50.0, 1.0), 5, "0.5")


def paper_battery(rng: random.Random, workdir: str) -> Workload:
    """p <= 500, q <= 0.95, 1 <= k <= 10: many cheap calls.  Verify tasks
    form the middle of the task-time distribution, lemma batches sit below
    and scans above."""
    draw = {"p": lambda: rng.randint(2, 500),
            "q": lambda: rng.uniform(0.05, 0.95),
            "k": lambda: rng.uniform(1.0, 10.0)}
    paths = _Paths(workdir)
    slots = [("verify", "csv"), ("lemma", None), ("verify", "json"), ("scan", "csv"),
             ("verify", "csv"), ("lemma", None), ("verify", "json"), ("scan", "json")]
    tasks = []
    for i, (kind, fmt) in enumerate(slots):
        for fam in FAMILIES:
            if kind == "lemma":
                tasks.append(LemmaTask(fam, _lemma_samples(
                    rng, fam, PAPER_LEMMA_BATCH, draw[fam])))
            else:
                grid = PAPER_VERIFY_GRID if kind == "verify" else PAPER_SCAN_GRID
                tasks.append(_cli(paths, kind, fam, _gen_params(rng, fam),
                                  draw[fam](), grid, fmt))
        if i == 3:
            fam, gp, x, grid = OVERFLOW_ARGS
            tasks.append(_cli(paths, "verify", fam, gp, x, grid, "csv",
                              expected_failure=OVERFLOW_MESSAGE))
    return Workload("paper_battery", tasks, tail_slot=2.0,
                    calibration=("numpy", "python"))


# Per family, one entry per regime: (band of log10 p | log10(1-q) | log10 k,
# verify grid, scan grid or None, lemma batch).  At p ~ 1e7 and 1 - q ~ 1e-5
# a two-point scan would cost more than a verify without measuring anything
# new, so those regimes run verify and lemma tasks only.
_DEFORMATION_SLOTS = {
    "p": [((4.0, 4.01), "0.05:0.95:0.05", "0.05:5:0.05", 100),
          ((5.0, 5.01), "0.005:0.995:0.005", "0.02:3:0.02", 300),
          ((6.0, 6.01), "0.1:0.9:0.1", "0.2:1:0.2", 10),
          ((6.99, 7.0), "0.5", None, 1)],
    "q": [((-3.0, -2.99), "0.05:0.95:0.05", "0.02:3:0.02", 400),
          ((-4.0, -3.99), "0.1:0.9:0.1", "0.2:1:0.2", 15),
          ((-5.0, -4.99), "0.5", None, 2)],
    "k": [((1.5, 3.0), "0.05:0.95:0.05", "0.05:5:0.05", 100)],
}


def _deformation_x(rng, family, band):
    e = rng.uniform(*band)
    if family == "p":
        return max(10 ** 4, min(10 ** 7, round(10 ** e)))
    if family == "q":
        return 1.0 - 10 ** e
    return 10 ** e


def deformation_limits(rng: random.Random, workdir: str) -> Workload:
    """p in [1e4, 1e7], 1 - q in [1e-5, 1e-3], k in [30, 1000].  Grids and
    batches shrink as the regime gets dearer, so most tasks cost 60-150 ms
    today and the median falls among them.  The families take turns, and
    within a family the task kinds alternate."""
    paths = _Paths(workdir)
    queues = {fam: [] for fam in FAMILIES}
    for fam, regimes in _DEFORMATION_SLOTS.items():
        for band, vgrid, sgrid, batch in regimes:
            queues[fam] += [("verify", band, vgrid), ("lemma", band, batch)]
            if sgrid is not None:
                queues[fam].append(("scan", band, sgrid))
    tasks, probes = [], []
    while any(queues.values()):
        for fam in FAMILIES:
            if not queues[fam]:
                continue
            kind, band, arg = queues[fam].pop(0)
            draw = lambda fam=fam, band=band: _deformation_x(rng, fam, band)
            if kind == "lemma":
                tasks.append(LemmaTask(fam, _lemma_samples(rng, fam, arg, draw)))
                continue
            gp, x = _gen_params(rng, fam), draw()
            tasks.append(_cli(paths, kind, fam, gp, x, arg,
                              "csv" if len(tasks) % 2 else "json"))
            if kind == "verify":
                probes.append((fam, gp[2], x))
    return Workload("deformation_limits", tasks, tail_slot=2.0,
                    calibration=("numpy",), evaluator_probes=probes)


# routine -> one (t band, band of p, q or k) per copy in a round.  21 copies,
# so the median task is the centre of one slot, not the seam between two.
# Copy i draws from its own bands, so each slot costs about the same on every
# seed:
# the t bands of the quadratures avoid the steps in their cost (gamma_hp
# near t = 10 and 13, gamma_k_quad below t = 2).  The two dearest slots
# (gamma_q_hp near q = 0.97) set task_tail_ms.
_CROSSVAL_SLOTS = {
    "psi_hp": [((0.05, 30.0), None)],
    "psi_p_hp": [((0.05, 30.0), (800, 1000)), ((0.05, 30.0), (800, 1000))],
    "psi_q_hp": [((0.05, 30.0), (0.5, 0.7)), ((0.05, 30.0), (0.9, 0.91)),
                 ((0.05, 30.0), (0.925, 0.93)), ((0.05, 30.0), (0.94, 0.945))],
    "psi_k_hp": [((0.05, 25.0), (0.5, 10.0))],
    "gamma_hp": [((1.0, 4.0), None), ((4.0, 8.0), None), ((10.5, 12.5), None),
                 ((15.0, 30.0), None)],
    "gamma_p_hp": [((0.1, 25.0), (800, 1000))],
    "gamma_q_hp": [((0.1, 25.0), (0.5, 0.7)), ((0.1, 25.0), (0.9, 0.91)),
                   ((7.0, 9.0), (0.966, 0.967)), ((7.0, 9.0), (0.966, 0.967))],
    "gamma_k_quad": [((2.0, 4.0), (1.0, 10.0)), ((4.0, 7.0), (1.0, 10.0)),
                     ((7.0, 11.0), (1.0, 10.0)), ((11.0, 15.0), (1.0, 10.0))],
}


def _crossval_args(rng: random.Random, routine: str, t_band, x_band) -> tuple:
    t = rng.uniform(*t_band)
    if x_band is None:
        return (t,)
    return (t, rng.randint(*x_band) if "_p_" in routine else rng.uniform(*x_band))


def oracle_crossval(rng: random.Random, workdir: str) -> Workload:
    """All eight oracle routines at t <= 30, p <= 1000, q <= 0.97, k <= 10;
    the routines take turns."""
    tasks = []
    for i in range(max(len(bands) for bands in _CROSSVAL_SLOTS.values())):
        for routine, bands in _CROSSVAL_SLOTS.items():
            if i < len(bands):
                rel = 1e-12 if routine == "gamma_k_quad" else 1e-10
                tasks.append(CrossvalTask(routine, _crossval_args(rng, routine, *bands[i]),
                                          rel))
    return Workload("oracle_crossval", tasks, tail_slot=1.5, calibration=("python",))


WORKLOADS = {
    "paper_battery": paper_battery,
    "deformation_limits": deformation_limits,
    "oracle_crossval": oracle_crossval,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](random.Random(seed), workdir)


def warm_up(workload: Workload, workdir: str) -> None:
    """One cheap call into each layer the workload uses, so lazy imports and
    mpmath's caches are filled before timing."""
    path = os.path.join(workdir, "warmup.csv")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        gammagen.cli.main(["verify", "--family", "p", "--alpha", "1.5", "--p", "5",
                           "--grid", "0.5", "--out", path])
    gammagen.lemma_expr_p(1.0, 1.0, 2.5, 5)
    gammagen.lemma_expr_q(1.0, 1.0, 2.5, 0.5)
    gammagen.lemma_expr_k(2.0, 1.0, 2.5, 2.0)
    if any(isinstance(task, CrossvalTask) for task in workload.tasks):
        rng = random.Random(0)
        for routine, bands in _CROSSVAL_SLOTS.items():
            CrossvalTask(routine, _crossval_args(rng, routine, *bands[0]), 1e-10).run(False)
