"""Spans around the calls into each ``oulab`` layer, installed from outside.

``Tracer.install`` replaces each layer's public functions with a wrapper
that records a span (name, start, end, parent, counts). A module-level
function is replaced in every ``oulab`` module that binds it, so a caller
that did ``from .engines.montecarlo import evolve_starts`` is traced too;
the public methods ``ConvexDomain.project``/``contains`` and
``CylFunction.eval``/``gradient`` are replaced on their class.
``uninstall`` puts every original back. Spans stay in memory;
``layer_metrics`` reduces a slice of them to the per-layer metrics, where a
span's self time is its duration minus the durations of its child spans.

The span name carries what the layer metrics split by: the domain shape
for ``project``, and the solver branch for ``grid_apply`` and
``grid_spectrum``, inferred outside the package from the same inputs the
package branches on.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from oulab import cli, config, cylapprox, domains, expr, gauss, inequalities
from oulab.engines import grid, mehler, montecarlo

PROJECT_SHAPES = ("ball", "gon16", "gon64", "gon256", "halfline",
                  "interval", "product")
# every metric ``layer_metrics`` returns, zero where the layer stayed idle
LAYER_METRICS = (
    "domains.project.self_s", "domains.project.points",
    *(f"domains.project.ns_per_point.{s}" for s in PROJECT_SHAPES),
    "domains.contains.self_s", "domains.contains.points",
    "montecarlo.evolve_starts.self_s", "montecarlo.path_steps",
    "montecarlo.path_steps_per_s",
    "grid.grid_build.self_s", "grid.nodes",
    *(f"grid.grid_apply.{b}.{k}" for b in ("cn", "eigh", "expm_dense")
      for k in ("self_s", "calls")),
    *(f"grid.grid_spectrum.{b}.{k}" for b in ("dense", "eigsh")
      for k in ("self_s", "calls")),
    "mehler.mehler_apply.self_s", "mehler.mehler_apply.calls",
    "gauss.restricted_sample.self_s", "gauss.restricted_sample.proposed",
    "gauss.restricted_sample.acceptance_rate",
    "expr.eval.self_s", "expr.eval.points", "expr.gradient.self_s",
    "inequalities.self_s", "cylapprox.self_s", "cli.write.self_s",
    "config.parse_config.self_s",
)
# counts that must repeat exactly from one traced pass to the next
COUNT_METRICS = (
    "domains.project.points", "domains.contains.points",
    "montecarlo.path_steps", "grid.nodes", "grid.grid_apply.cn.calls",
    "grid.grid_apply.eigh.calls", "grid.grid_apply.expm_dense.calls",
    "grid.grid_spectrum.dense.calls", "grid.grid_spectrum.eigsh.calls",
    "mehler.mehler_apply.calls", "gauss.restricted_sample.proposed",
    "expr.eval.points",
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def shape_label(dom) -> str:
    if isinstance(dom, domains.Ball):
        return "ball"
    if isinstance(dom, domains.Slab):
        return "interval" if dom.dim == 1 else "slab"
    if isinstance(dom, domains.Product):
        return "product"
    if isinstance(dom, domains.HalfspaceIntersection):
        if dom.dim == 1 and len(dom.offsets) == 1:
            return "halfline"
        if dom.dim == 2:
            return f"gon{len(dom.offsets)}"
        return "polytope"
    if isinstance(dom, domains.WholeSpace):
        return "whole"
    return type(dom).__name__


def _apply_branch(op, values, t, scheme="crank_nicolson", n_steps=None):
    if scheme != "expm":
        return "grid.grid_apply.cn"
    ratio = float(op.weights.max() / op.weights.min())
    if ratio < grid.SPECTRAL_WEIGHT_RATIO_CAP:
        return "grid.grid_apply.eigh"
    return "grid.grid_apply.expm_dense"


def _spectrum_branch(op, k):
    if op.n_nodes <= grid.DENSE_EIG_CAP:
        return "grid.grid_spectrum.dense"
    return "grid.grid_spectrum.eigsh"


def _named(name):
    return lambda *args, **kwargs: name


def _points(result, obj, x, *args, **kwargs):
    return {"points": _rows(x)}


def _sample_counts(result, *args, **kwargs):
    return {"proposed": result.proposed,
            "accepted": round(result.acceptance_rate * result.proposed)}


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


def _targets():
    """(owner, attribute, namer, counter) for every traced entry point."""
    project = (lambda dom, x: "domains.project." + shape_label(dom))
    targets = [
        (domains.ConvexDomain, "project", project, _points),
        (domains.ConvexDomain, "contains", _named("domains.contains"),
         _points),
        (expr.CylFunction, "eval", _named("expr.eval"), _points),
        (expr.CylFunction, "gradient", _named("expr.gradient"), None),
        (montecarlo, "evolve_starts", _named("montecarlo.evolve_starts"),
         None),
        (grid, "grid_build", _named("grid.grid_build"),
         lambda result, *a, **k: {"nodes": result.n_nodes}),
        (grid, "grid_apply", _apply_branch, None),
        (grid, "grid_spectrum", _spectrum_branch, None),
        (mehler, "mehler_apply", _named("mehler.mehler_apply"), None),
        (gauss, "restricted_sample", _named("gauss.restricted_sample"),
         _sample_counts),
        (config, "parse_config", _named("config.parse_config"), None),
        # cmd_verify's self time, with run_checks as its child, is the
        # CSV and summary writing
        (cli, "cmd_verify", _named("cli.cmd_verify"), None),
        (cli, "run_checks", _named("cli.run_checks"), None),
    ]
    for module in (inequalities, cylapprox):
        layer = module.__name__.rsplit(".", 1)[-1]
        targets += [(module, name, _named(f"{layer}.{name}"), None)
                    for name in _public_functions(module)]
    return targets


class Tracer:
    """Records spans while installed; one stack, so single-threaded only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, fn, namer, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, None))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counter is not None:
                spans[index] = (name, start, end, parent,
                                counter(result, *args, **kwargs))
            return result
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "oulab" or name.startswith("oulab.")]
        for owner, attr, namer, counter in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, namer, counter)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced pass)."""
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    m = dict.fromkeys(LAYER_METRICS, 0)
    shape_s = defaultdict(float)
    shape_pts = defaultdict(int)
    evolve_total = 0.0
    accepted = 0
    for i in range(lo, hi):
        name, start, end, parent, counts = spans[i]
        self_s = end - start - child[i]
        if name.startswith("domains.project."):
            shape = name.rsplit(".", 1)[-1]
            pts = counts["points"]
            m["domains.project.self_s"] += self_s
            m["domains.project.points"] += pts
            shape_s[shape] += self_s
            shape_pts[shape] += pts
            if parent >= lo and spans[parent][0] == "montecarlo.evolve_starts":
                m["montecarlo.path_steps"] += pts
        elif name == "domains.contains":
            m["domains.contains.self_s"] += self_s
            m["domains.contains.points"] += counts["points"]
        elif name == "montecarlo.evolve_starts":
            m["montecarlo.evolve_starts.self_s"] += self_s
            evolve_total += end - start
        elif name == "grid.grid_build":
            m["grid.grid_build.self_s"] += self_s
            m["grid.nodes"] += counts["nodes"]
        elif name.startswith(("grid.grid_apply.", "grid.grid_spectrum.",
                              "mehler.")):
            m[name + ".self_s"] += self_s
            m[name + ".calls"] += 1
        elif name == "gauss.restricted_sample":
            m["gauss.restricted_sample.self_s"] += self_s
            m["gauss.restricted_sample.proposed"] += counts["proposed"]
            accepted += counts["accepted"]
        elif name == "expr.eval":
            m["expr.eval.self_s"] += self_s
            m["expr.eval.points"] += counts["points"]
        elif name.startswith("expr.") or name.startswith("config."):
            m[name + ".self_s"] += self_s
        elif name.startswith(("inequalities.", "cylapprox.")):
            m[name.split(".", 1)[0] + ".self_s"] += self_s
        elif name == "cli.cmd_verify":
            m["cli.write.self_s"] += self_s
    for shape in PROJECT_SHAPES:
        pts = shape_pts[shape]
        m[f"domains.project.ns_per_point.{shape}"] = \
            1e9 * shape_s[shape] / pts if pts else 0.0
    m["montecarlo.path_steps_per_s"] = \
        m["montecarlo.path_steps"] / evolve_total if evolve_total else 0.0
    proposed = m["gauss.restricted_sample.proposed"]
    m["gauss.restricted_sample.acceptance_rate"] = \
        accepted / proposed if proposed else 0.0
    return m
