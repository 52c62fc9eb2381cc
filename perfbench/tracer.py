"""Span tracing of netspectra from outside the package.

`Tracer.install()` replaces selected public functions and methods of the six
netspectra modules with timing wrappers, in every namespace that holds them
(``empirical`` imports ``sample_network`` and ``densify_modularity`` by name,
``cli`` imports ``render_svg``), and `uninstall()` puts the originals back.
Each wrapped call records one span: name, start, end, parent span and the
operation id shared by the spans of one CLI invocation.  Spans stay in memory
until `write()`.  Self time is a span's duration minus the time its child
spans cover; calls are sequential, so children never overlap.
"""
from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("degree_model", "sampler", "empirical", "analytic", "cli", "svgplot")

# Public functions and methods that get a span.  Accessors called inside the
# solvers' inner loops (DegreeModel.mean_degree, moment, max_degree) and
# trivial helpers (dense_cap) are left out: a span per call would cost more
# than the work it measures.
TARGETS = {
    "degree_model": ["DegreeModel.from_spec", "DegreeModel.from_atoms",
                     "DegreeModel.from_parts", "DegreeModel.sample_degrees",
                     "DegreeModel.excess_distribution",
                     "DegreeModel.cauchy_transform",
                     "DegreeSequence.from_values"],
    "sampler": ["sample_network", "attach_hub", "densify_modularity",
                "write_edge_list", "SampledNetwork.adjacency_dense",
                "SampledNetwork.adjacency_sparse",
                "SampledNetwork.realized_degrees",
                "SampledNetwork.neighbors_of", "ModularityView.matvec"],
    "empirical": ["replicate_seed", "dense_symmetric_eigen", "top_eigenpair",
                  "pooled_spectra", "empirical_density", "ensemble_leading",
                  "ensemble_hub_top", "ensemble_hub_localization",
                  "hub_vector_stats", "l1_distance", "write_histogram_csv",
                  "write_eigenvalue_dump"],
    "analytic": ["semicircle_density", "semicircle_cauchy_transform",
                 "solve_h", "spectral_density", "stieltjes_transform",
                 "density_grid", "band_edges", "leading_eigenvalue",
                 "leading_eigenvalue_approx", "hub_critical_degree",
                 "hub_eigenvalues", "hub_eigenvector_profile"],
    "cli": ["run"],
    "svgplot": ["render_svg"],
}

# Ensemble functions whose total (not self) time is reported.
ENSEMBLES = ("pooled_spectra", "ensemble_leading", "ensemble_hub_top",
             "ensemble_hub_localization", "l1_distance")

TOP = "empirical.top_eigenpair"


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, op, name, start, end)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_residual = 0.0
        self.op_id = 0
        self._ids = itertools.count()
        self._stack: list[list] = []   # [span id, name, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._band_edges = None
        self._band_hits0 = 0

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        mods = {name: importlib.import_module(f"netspectra.{name}")
                for name in LAYERS}
        for layer, targets in TARGETS.items():
            mod = mods[layer]
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    span = f"{layer}.{attr}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    self._patch(cls, attr, new)
                    continue
                orig = getattr(mod, target)
                new = self._wrap(f"{layer}.{target}", orig)
                for ns in mods.values():
                    if ns.__dict__.get(target) is orig:
                        self._patch(ns, target, new)
        self._band_edges = mods["analytic"].band_edges.__wrapped_original__
        self._band_hits0 = self._band_edges.cache_info().hits

    def uninstall(self) -> None:
        if self._band_edges is not None:
            self.counts["analytic.band_edges.cache_hits"] += (
                self._band_edges.cache_info().hits - self._band_hits0)
            self._band_edges = None
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(self._ids), name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans.append((frame[0], parent[0] if parent else None,
                              self.op_id, name, t0, t1))
                self.self_time[name] += dur - frame[2]
                self.total_time[name] += dur
                self.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
            if hook is not None:
                hook(self, result)
            return result

        wrapper.__wrapped_original__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        s, calls, counts = self.self_time, self.calls, self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum((v for k, v in s.items() if k.startswith(layer + ".")), 0.0),
                "s")
        for fn in ("analytic.band_edges", "analytic.solve_h",
                   "analytic.hub_critical_degree", "analytic.hub_eigenvalues",
                   "empirical.dense_symmetric_eigen", TOP, "sampler.matvec",
                   "sampler.sample_network", "degree_model.sample_degrees"):
            out[f"{fn}.calls"] = (calls[fn], "count")
            out[f"{fn}.self_s"] = (s[fn], "s")
        out["analytic.band_edges.cache_hits"] = (
            counts["analytic.band_edges.cache_hits"], "count")
        out["analytic.solve_h.max_residual"] = (self.max_residual, "abs")
        for route in ("closed-form", "polynomial-roots", "damped-iteration"):
            key = f"analytic.solve_h.route.{route}"
            out[key] = (counts[key], "count")
        for fn in ("analytic.density_grid", "analytic.leading_eigenvalue",
                   "sampler.densify_modularity", "sampler.adjacency_dense",
                   "svgplot.render_svg"):
            out[f"{fn}.self_s"] = (s[fn], "s")
        out[f"{TOP}.matvecs"] = (counts[f"{TOP}.matvecs"], "count")
        for key, unit in (("empirical.dense_bytes_computed", "B"),
                          ("empirical.eigenvalues_computed", "count"),
                          ("empirical.eigenvalues_used", "count"),
                          ("sampler.edges_sampled", "count")):
            out[key] = (counts[key], unit)
        computed = counts["empirical.eigenvalues_computed"]
        out["empirical.eigen_useful_ratio"] = (
            counts["empirical.eigenvalues_used"] / computed if computed else 0.0,
            "ratio")
        for fn in ENSEMBLES:
            out[f"empirical.{fn}.total_s"] = (
                self.total_time[f"empirical.{fn}"], "s")
        out["cli.bytes_written"] = (counts["cli.bytes_written"], "B")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, parent, op, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------- counters
# Hooks run after a wrapped call returns: hook(tracer, result).  Each
# eigensolve counts the eigenvalues it computed and those its caller reads:
# all of them in pooled spectra, the largest one in the ensembles.

def _solve_h(t: Tracer, sol) -> None:
    t.counts[f"analytic.solve_h.route.{sol.method}"] += 1
    t.max_residual = max(t.max_residual, float(sol.residual))


def _dense_eigen(t: Tracer, report) -> None:
    n = int(report.eigenvalues.size)
    t.counts["empirical.eigenvalues_computed"] += n
    t.counts["empirical.dense_bytes_computed"] += 8 * n * n
    if t.inside("empirical.pooled_spectra"):
        t.counts["empirical.eigenvalues_used"] += n
    elif (t.inside("empirical.ensemble_leading")
          or t.inside("empirical.ensemble_hub_top")):
        t.counts["empirical.eigenvalues_used"] += 1


def _top_eigenpair(t: Tracer, result) -> None:
    t.counts["empirical.eigenvalues_computed"] += 1
    t.counts["empirical.eigenvalues_used"] += 1


def _sample_network(t: Tracer, net) -> None:
    t.counts["sampler.edges_sampled"] += int(net.edge_mult.sum())


def _matvec(t: Tracer, result) -> None:
    if t.inside(TOP):
        t.counts[f"{TOP}.matvecs"] += 1


_HOOKS = {
    "analytic.solve_h": _solve_h,
    "empirical.dense_symmetric_eigen": _dense_eigen,
    TOP: _top_eigenpair,
    "sampler.sample_network": _sample_network,
    "sampler.matvec": _matvec,
}
