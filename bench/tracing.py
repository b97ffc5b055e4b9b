"""Span tracing for the benchmark's traced pass.

The package is instrumented from outside: the public functions of each
layer module are wrapped, and every module attribute bound to one of them
is patched, including the names other modules imported with
``from .x import y`` (``experiments.heat_kernel``, ``wave.apply_semigroup``,
``geometry.segment_integrals``, ...).  Patching only the defining module
would miss most calls.  ``Patch.restore`` puts every original back.

A span records its name, start, end, parent span and the manifest entry it
ran for (the request id).  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "grushinlab"
LAYER_MODULES = ("quadrature", "discretization", "geometry", "evolution", "wave",
                 "multipliers", "reporting")
# Methods traced besides the modules' public functions.
METHODS = {
    "discretization": ("DivergenceFormOperator.dense_eig",),
    "geometry": ("MetricGraph.__init__", "MetricGraph.distances_from_nodes"),
}
# Called once per number written; a span would cost more than the call.
UNTRACED = {"reporting.format_number"}

ENTRY_SPAN = "entry"
CHECK_SPANS = ("evolution.gaussian_upper_check", "evolution.ondiagonal_lower_check",
               "evolution.kernel_comparison", "evolution.separation_check")
LEAPFROG_SPANS = ("wave.cosine_propagator", "wave.wave_energy_drift")

# Self-time metrics: metric name -> spans whose self times it sums.
SELF_TIME = {
    "discretization.dense_eig_s": ("discretization.DivergenceFormOperator.dense_eig",),
    "discretization.assemble_s": ("discretization.assemble",),
    "quadrature.segment_s": ("quadrature.segment_integrals", "quadrature.gauss_legendre_01",
                             "quadrature.gauss_jacobi_01"),
    "geometry.graph_build_s": ("geometry.MetricGraph.__init__",),
    "geometry.dijkstra_s": ("geometry.MetricGraph.distances_from_nodes",),
    "geometry.ball_volume_s": ("geometry.ball_volume",),
    "evolution.semigroup_s": ("evolution.apply_semigroup",),
    "evolution.decay_s": ("evolution.ondiagonal_decay",),
    "evolution.checks_s": CHECK_SPANS,
    "wave.leapfrog_s": LEAPFROG_SPANS,
    "wave.lambda_max_s": ("wave.estimate_lambda_max",),
    "wave.davies_gaffney_s": ("wave.davies_gaffney_check",),
    "multipliers.hardy_s": ("multipliers.hardy_check",),
    "multipliers.operator_inequalities_s": ("multipliers.operator_inequality_checks",),
    "multipliers.nash_s": ("multipliers.nash_check",),
    "multipliers.vf_volume_s": ("multipliers.vf_volume",),
    "multipliers.ensemble_s": ("multipliers.random_bump_ensemble",),
    "reporting.write_s": ("reporting.write_report", "reporting.write_csv"),
    "experiments.self_s": (ENTRY_SPAN,),
}
# Call-count metrics: metric name -> spans whose calls it counts.
CALLS = {
    "discretization.assemble_calls": ("discretization.assemble",),
    "geometry.graph_builds": ("geometry.MetricGraph.__init__",),
    "geometry.dijkstra_calls": ("geometry.MetricGraph.distances_from_nodes",),
    "evolution.semigroup_calls": ("evolution.apply_semigroup",),
    "evolution.kernel_columns": ("evolution.heat_kernel",),
    "wave.propagations": LEAPFROG_SPANS,
    "wave.lambda_max_calls": ("wave.estimate_lambda_max",),
    "multipliers.vf_volume_calls": ("multipliers.vf_volume",),
}
# Counts the call hooks below accumulate.
COUNTED = ("discretization.dense_eig_calls", "discretization.dense_eig_max_n",
           "discretization.unknowns_assembled", "quadrature.segments", "geometry.graph_edges",
           "geometry.dijkstra_sources", "evolution.decay_candidates",
           "evolution.kernel_columns_unique", "reporting.bytes_written")


def per_layer_names(entry_names) -> list[str]:
    """Every metric a traced run reports, in report order."""
    names = list(SELF_TIME) + list(CALLS) + list(COUNTED)
    names += ["evolution.column_useful_ratio"]
    names += [f"{m}.self_s" for m in LAYER_MODULES]
    names += [f"entry.{n}_s" for n in entry_names]
    names += ["trace.overhead_s"]
    return names


def unit(name: str) -> str:
    if name == "evolution.column_useful_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    request: str | None


class Identities:
    """Serial numbers for live objects; an id reused after garbage
    collection is never mistaken for the object that held it before."""

    def __init__(self):
        self._refs = {}
        self._next = 0

    def serial(self, obj) -> tuple[int, bool]:
        """(serial, first time seen)."""
        ref, serial = self._refs.get(id(obj), (None, None))
        if ref is not None and ref() is obj:
            return serial, False
        serial = self._next
        self._next += 1
        self._refs[id(obj)] = (weakref.ref(obj), serial)
        return serial, True


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts = Counter()
        self.hook_errors: list[str] = []
        self.request: str | None = None
        self.columns: set = set()
        self.factorized = Identities()
        self.operators = Identities()
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent, self.request))
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()].end = self.clock()

    @contextmanager
    def span(self, name: str, request: str | None = None):
        if request is not None:
            self.request = request
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str, hook=None):
        """``fn`` inside a span called ``name``; ``hook(tracer, arguments,
        result)`` runs after the span closes, so its cost is not the
        layer's."""
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                except Exception as err:  # a counter must never break the pass
                    self.hook_errors.append(f"{name}: {type(err).__name__}: {err}")
            return result

        traced.bench_span = name
        return traced


# ---------------------------------------------------------------- call hooks


def _dense_eig(tr, a, result):
    op = a["self"]
    if tr.factorized.serial(op)[1]:  # later calls hit the operator's cache
        tr.counts["discretization.dense_eig_calls"] += 1
        tr.counts["discretization.dense_eig_max_n"] = max(
            tr.counts["discretization.dense_eig_max_n"], int(op.n_nodes))


def _assemble(tr, a, op):
    tr.counts["discretization.unknowns_assembled"] += int(op.n_nodes)


def _segments(tr, a, result):
    tr.counts["quadrature.segments"] += int(np.size(a["qa"]))


def _graph_build(tr, a, result):
    tr.counts["geometry.graph_edges"] += int(a["self"].edge_matrix.nnz)


def _dijkstra(tr, a, result):
    tr.counts["geometry.dijkstra_sources"] += int(np.size(a["nodes"]))


def _decay(tr, a, result):
    cands = a.get("candidates")
    if cands is None:  # the exact path takes the sup over every live row
        cands = np.nonzero(a["op"].matrix.diagonal() > 0.0)[0]
    tr.counts["evolution.decay_candidates"] += int(np.size(cands))


def _heat_kernel(tr, a, ks):
    serial, _ = tr.operators.serial(a["op"])
    key = (serial, int(ks.source_index), float(ks.t))
    if key not in tr.columns:
        tr.columns.add(key)
        tr.counts["evolution.kernel_columns_unique"] += 1


def _write_report(tr, a, path):
    out_dir = os.path.dirname(path)
    names = list(a["report"].get("csv", {})) + [os.path.basename(path)]
    tr.counts["reporting.bytes_written"] += sum(os.path.getsize(os.path.join(out_dir, n))
                                                for n in names)


HOOKS = {
    "discretization.DivergenceFormOperator.dense_eig": _dense_eig,
    "discretization.assemble": _assemble,
    "quadrature.segment_integrals": _segments,
    "geometry.MetricGraph.__init__": _graph_build,
    "geometry.MetricGraph.distances_from_nodes": _dijkstra,
    "evolution.ondiagonal_decay": _decay,
    "evolution.heat_kernel": _heat_kernel,
    "reporting.write_report": _write_report,
}


# ------------------------------------------------------------------ patching


def _targets():
    """(span name, owner, attribute) for every traced callable."""
    out = []
    for mod_name in LAYER_MODULES:
        mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if mod is None:
            continue
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            name = f"{mod_name}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in UNTRACED:
                out.append((name, mod, attr))
        for qual in METHODS.get(mod_name, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and meth in vars(cls):
                out.append((f"{mod_name}.{qual}", cls, meth))
    return out


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Patch:
    """Every binding of every traced callable, replaced by a wrapper."""

    def __init__(self, tracer: Tracer):
        self.saved: list[tuple[object, str, object]] = []
        modules = _package_modules()
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            wrapper = tracer.wrap(original, name, HOOKS.get(name))
            for target in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self.saved.append((target, key, original))
                        setattr(target, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self.saved):
            setattr(owner, key, original)
        self.saved.clear()


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a benchmark wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, "bench_span")]
    return found


# ------------------------------------------------------------------ analysis


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i]):
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(tracer: Tracer, entry_names) -> dict[str, float]:
    """Per-layer metrics of a finished traced pass (without the overhead,
    which needs the untraced passes)."""
    own = defaultdict(float)
    calls = Counter()
    entry = defaultdict(float)
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        own[s.name] += t
        calls[s.name] += 1
        if s.name == ENTRY_SPAN:
            entry[s.request] += s.end - s.start
    m = {k: sum(own[n] for n in names) for k, names in SELF_TIME.items()}
    m.update({k: float(sum(calls[n] for n in names)) for k, names in CALLS.items()})
    m.update({k: float(tracer.counts[k]) for k in COUNTED})
    cols = m["evolution.kernel_columns"]
    m["evolution.column_useful_ratio"] = m["evolution.kernel_columns_unique"] / cols if cols else 0.0
    for mod in LAYER_MODULES:
        m[f"{mod}.self_s"] = sum(t for n, t in own.items() if n.startswith(mod + "."))
    for n in entry_names:
        m[f"entry.{n}_s"] = entry[n]
    return m
