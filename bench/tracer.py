"""Span tracer for the traced benchmark run.

The tracer wraps oucontract's public functions from outside: every module
namespace that binds a wrapped function gets the wrapper, and methods are
replaced on their classes.  Spans (name, start, end, parent) are kept in
memory; self times and counts are derived from them after the run.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.  ``INCLUSIVE`` names are reported with their
whole duration instead: a suite call and the Monte Carlo kernel as a
whole (its self time is reported separately as ``feynman_kac.step_s``).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "grid.build_s": "s",
    "grid.nodes": "count",
    "domains.value_s": "s",
    "domains.value_points": "count",
    "solver.assemble_s": "s",
    "solver.assemble_calls": "count",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.cg_iterations": "count",
    "solver.unknowns": "count",
    "grid.rhs_s": "s",
    "grid.gradient_s": "s",
    "contract.lp_ratio_s": "s",
    "contract.lp_ratio_calls": "count",
    "contract.pointwise_s": "s",
    "contract.slope_s": "s",
    "contract.flux_s": "s",
    "solver.ou_apply_s": "s",
    "feynman_kac.mc_s": "s",
    "feynman_kac.f_eval_s": "s",
    "feynman_kac.kill_s": "s",
    "feynman_kac.step_s": "s",
    "feynman_kac.steps": "count",
    "feynman_kac.path_steps": "count",
    "grid.interp_s": "s",
    "wiener.compare_s": "s",
    "report.write_s": "s",
    "cli.contract_s": "s",
    "cli.lemma_s": "s",
    "cli.converge_s": "s",
    "cli.oracle_s": "s",
}

INCLUSIVE = {"feynman_kac.mc", "cli.contract", "cli.lemma", "cli.converge",
             "cli.oracle"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._mc_depth = 0

    def call(self, name, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    # -- derived numbers ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            times[name + "_s"] += end - start - child[i]
            if name == "feynman_kac.mc":
                times["feynman_kac.step_s"] += end - start - child[i]
            if name in INCLUSIVE:
                times[name + "_s"] += child[i]
        out = {}
        for metric in LAYER_METRICS:
            out[metric] = float(times[metric]) if metric.endswith("_s") \
                else int(self.counts[metric])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


class _TracedInterpolator:
    """Times each evaluation of an interpolator built by the grid."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __call__(self, *args, **kwargs):
        return self._tracer.call("grid.interp", self._inner, args, kwargs)


def _rebind(orig, wrapper) -> None:
    """Replace ``orig`` in every oucontract module namespace that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "oucontract"
                               or mod_name.startswith("oucontract.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported oucontract package."""
    from oucontract import contract, feynman_kac, grid, report, solver, wiener
    from oucontract.domains import LevelSetDomain

    counts = tracer.counts

    def count_calls(metric):
        def on_result(args, out):
            counts[metric] += 1
        return on_result

    def on_solve(args, sol):
        counts["solver.solve_calls"] += 1
        counts["solver.cg_iterations"] += sol.iterations
        counts["solver.unknowns"] += sol.diagnostics["n_unknowns"]

    functions = [
        (solver.assemble_ou_operator, "solver.assemble",
         count_calls("solver.assemble_calls")),
        (solver.solve_resolvent, "solver.solve", on_solve),
        (solver.discrete_ou_apply, "solver.ou_apply", None),
        (grid.discrete_gradient, "grid.gradient", None),
        (contract.gradient_lp_ratio, "contract.lp_ratio",
         count_calls("contract.lp_ratio_calls")),
        (contract.check_pointwise_inequality, "contract.pointwise", None),
        (contract.check_boundary_normal_slope, "contract.slope", None),
        (contract.boundary_flux_integral, "contract.flux", None),
        (wiener.resolvent_convergence_study, "wiener.compare", None),
        (report.emit_plotdata, "report.write", None),
    ]
    for fn, name, on_result in functions:
        _rebind(fn, tracer.wrap(name, fn, on_result))

    mc_orig = feynman_kac.mc_resolvent

    @functools.wraps(mc_orig)
    def mc_resolvent(est, f, x):
        def f_traced(states):
            counts["feynman_kac.path_steps"] += len(states)
            return tracer.call("feynman_kac.f_eval", f, (states,))
        tracer._mc_depth += 1
        try:
            out = tracer.call("feynman_kac.mc", mc_orig, (est, f_traced, x))
        finally:
            tracer._mc_depth -= 1
        counts["feynman_kac.steps"] += out.n_steps_used
        return out

    _rebind(mc_orig, mc_resolvent)

    value_orig = LevelSetDomain.value

    def value(self, x):
        if tracer._mc_depth:
            return tracer.call("feynman_kac.kill", value_orig, (self, x))
        counts["domains.value_points"] += len(x) if getattr(x, "ndim", 1) == 2 else 1
        return tracer.call("domains.value", value_orig, (self, x))

    LevelSetDomain.value = value

    build_orig = grid.GaussianGrid.build.__func__

    def build(cls, *args, **kwargs):
        out = tracer.call("grid.build", build_orig, (cls,) + args, kwargs)
        counts["grid.nodes"] += out.n_nodes
        return out

    grid.GaussianGrid.build = classmethod(build)

    rhs_orig = grid.ScalarField.from_callable.__func__
    grid.ScalarField.from_callable = classmethod(
        lambda cls, *args, **kwargs: tracer.call("grid.rhs", rhs_orig,
                                                 (cls,) + args, kwargs))

    interp_orig = grid.GaussianGrid.interpolator

    def interpolator(self, *args, **kwargs):
        inner = tracer.call("grid.interp", interp_orig, (self,) + args, kwargs)
        return _TracedInterpolator(tracer, inner)

    grid.GaussianGrid.interpolator = interpolator

    write_orig = report.SuiteReport.write
    report.SuiteReport.write = lambda self, out_dir: tracer.call(
        "report.write", write_orig, (self, out_dir))
