"""Span tracing of gammagen's layers, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
gammagen module that holds a reference to it (so calls between modules and
inside a module are both seen); ``uninstall`` puts the originals back.
Spans live in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) -> span name <module>.<function or role>.  The
# inequality engine is traced by role; everything else by function.
_ENGINE_ROLES = {
    "sandwich": ["check_sandwich_p", "check_sandwich_q", "check_sandwich_k"],
    "aux": ["omega", "phi", "theta", "log_omega", "log_phi", "log_theta",
            "log_deriv_omega", "log_deriv_phi", "log_deriv_theta"],
    "lemma": ["lemma_expr_p", "lemma_expr_q", "lemma_expr_k",
              "lemma_expr_p_unchecked", "lemma_expr_q_unchecked",
              "lemma_expr_k_unchecked"],
    "scan": ["scan_monotone", "family_callables"],
}
TARGETS = (
    [("core_special", f) for f in ("psi_series", "psi", "gamma", "log_gamma")]
    + [("gen_gamma", f) for f in ("log_gamma_p", "psi_p", "gamma_p",
                                  "log_gamma_q", "psi_q", "gamma_q",
                                  "log_gamma_k", "psi_k", "gamma_k")]
    + [("inequality_engine", f, role)
       for role, fns in _ENGINE_ROLES.items() for f in fns]
    + [("cli", "main")]
    + [("oracle", f) for f in ("psi_hp", "psi_p_hp", "psi_q_hp", "psi_k_hp",
                               "gamma_hp", "gamma_p_hp", "gamma_q_hp",
                               "gamma_k_quad", "cross_validate")]
)
LAYERS = ("core_special", "gen_gamma", "inequality_engine", "cli", "oracle", "bench")
TASK_SPAN = "bench.task"


def _measures(name, *measures):
    units = {"calls": "count", "self_ms": "ms", "terms": "count"}
    return [(f"{name}.{m}", units[m]) for m in measures]


# The per-layer metrics a traced run prints, in BENCHMARK.json's order.
PER_LAYER = (
    _measures("gen_gamma.log_gamma_p", "calls", "self_ms")
    + _measures("gen_gamma.psi_p", "calls", "self_ms")
    + _measures("gen_gamma.log_gamma_q", "calls", "self_ms", "terms")
    + _measures("gen_gamma.psi_q", "calls", "self_ms", "terms")
    + _measures("core_special.psi_series", "calls", "self_ms", "terms")
    + _measures("gen_gamma.psi_k", "calls", "self_ms", "terms")
    + _measures("gen_gamma.log_gamma_k", "calls", "self_ms")
    + [m for role in _ENGINE_ROLES
       for m in _measures(f"inequality_engine.{role}", "calls", "self_ms")]
    + _measures("cli.main", "calls", "self_ms")
    + [m for f in ("psi_hp", "psi_p_hp", "psi_q_hp", "psi_k_hp", "gamma_hp",
                   "gamma_p_hp", "gamma_q_hp", "gamma_k_quad", "cross_validate")
       for m in _measures(f"oracle.{f}", "calls", "self_ms")]
    + [m for f in ("gamma_p", "gamma_q", "gamma_k")
       for m in _measures(f"gen_gamma.{f}", "calls", "self_ms")]
    + [m for f in ("psi", "gamma", "log_gamma")
       for m in _measures(f"core_special.{f}", "calls", "self_ms")]
    + _measures("bench.task", "calls", "self_ms")
    + [(f"{layer}.total.self_ms", "ms") for layer in LAYERS]
    + [("bench.run.points_per_s", "points/s")]
)


class Tracer:
    """Records spans (name, start, end, parent, task) and per-name totals.

    ``calls`` counts entries into a name from a different name, so a role
    that calls itself (omega -> log_omega) counts once; self time is a
    span's duration minus that of its direct children.
    """

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.totals = {}          # name -> [calls, self_ns, terms]
        self._stack = []          # [name, start_ns, child_ns, span_id]
        self._next_id = 0
        self._task = -1
        self._restore = []
        self.t0 = time.perf_counter_ns()

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1] if self._stack else None
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        if parent is None or parent[0] != name:
            tot[0] += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, time.perf_counter_ns(), 0, span_id])

    def leave(self, terms=0):
        end = time.perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        dur = end - start
        tot = self.totals[name]
        tot[1] += dur - child_ns
        tot[2] += terms
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent_id, name, start - self.t0,
                               end - self.t0, self._task))
        else:
            self.dropped += 1

    def task(self, task_id):
        """Open the harness span of one task; close it with ``leave``."""
        self._task = task_id
        self.enter(TASK_SPAN)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, eval_result):
        def traced(*args, **kwargs):
            self.enter(name)
            terms = 0
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, eval_result):
                    terms = result.terms_used
                return result
            finally:
                self.leave(terms)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        from gammagen.core_special import EvalResult
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gammagen" or n.startswith("gammagen."))]
        for target in TARGETS:
            module_name, fn_name = target[0], target[1]
            role = target[2] if len(target) > 2 else fn_name
            original = getattr(sys.modules["gammagen." + module_name], fn_name)
            traced = self._wrap(original, f"{module_name}.{role}", EvalResult)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
                        self._restore.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """{name.calls, name.self_ms, name.terms} for every traced name, plus
        <layer>.total.self_ms for each layer."""
        out = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, (calls, self_ns, terms) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ns / 1e6
            out[f"{name}.terms"] = terms
            layer_ns[name.split(".")[0]] += self_ns
        for layer, ns in layer_ns.items():
            out[f"{layer}.total.self_ms"] = ns / 1e6
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, task in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "task": task}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
