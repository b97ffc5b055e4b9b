"""Self-tests of the benchmark: the workload partition, span self times and
the restoration of every patched binding.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import grushinlab.cli  # noqa: F401  (imports every package module)
from grushinlab.experiments import acceptance_manifest

import tracing
import workloads
from runpass import run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _manifest_names():
    return [raw["name"] for raw in acceptance_manifest()]


def test_workloads_and_untimed_cover_every_manifest_entry_once():
    names = _manifest_names()
    workloads.check_partition(names)
    assigned = [n for group in workloads.WORKLOADS.values() for n in group]
    assigned += list(workloads.UNTIMED)
    assert sorted(assigned) == sorted(names)


def test_unassigned_or_doubly_assigned_entry_raises_named_error():
    with pytest.raises(workloads.UnassignedEntryError, match="c99_new"):
        workloads.check_partition(_manifest_names() + ["c99_new"])
    twice = dict(workloads.WORKLOADS, inequalities=workloads.WORKLOADS["inequalities"]
                 + ("c04_distance",))
    with pytest.raises(workloads.PartitionError, match="c04_distance"):
        workloads.check_partition(_manifest_names(), workloads=twice)


def test_seed_offset_shifts_every_frozen_seed():
    manifest = acceptance_manifest()
    frozen = {raw["name"]: raw for raw in manifest}
    assert [r for r in workloads.select(manifest, "inequalities", 0)] == [
        frozen[n] for n in workloads.WORKLOADS["inequalities"]]
    for raw in workloads.select(manifest, "inequalities", 17):
        assert raw["seed"] == frozen[raw["name"]]["seed"] + 17


def test_self_time_on_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    with tr.span("root", request="r"):         # 0 .. 10
        with tr.span("a"):                      # 1 .. 4
            with tr.span("a.inner"):            # 2 .. 3
                pass
        with tr.span("b"):                      # 5 .. 9
            pass
    assert [s.name for s in tr.spans] == ["root", "a", "a.inner", "b"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert all(s.request == "r" for s in tr.spans)
    assert tracing.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("root", 0.0, 10.0, None, None),
             tracing.Span("x", 1.0, 5.0, 0, None),
             tracing.Span("y", 3.0, 7.0, 0, None)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def _bindings():
    """Every attribute of every package module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "grushinlab" or name.startswith("grushinlab."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_patch_reaches_imported_names_and_restores_them():
    before = _bindings()
    patch = tracing.Patch(tracing.Tracer())
    try:
        for mod, attr in [("experiments", "heat_kernel"), ("experiments", "assemble"),
                          ("experiments", "nash_check"), ("wave", "apply_semigroup"),
                          ("evolution", "ball_volume"), ("discretization", "segment_integrals"),
                          ("geometry", "segment_integrals"), ("cli", "write_report")]:
            assert hasattr(getattr(sys.modules[f"grushinlab.{mod}"], attr), "bench_span"), attr
    finally:
        patch.restore()
    after = _bindings()
    assert tracing.leftover_wrappers() == []
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_traced_pass_records_layers_and_restores_every_binding(tmp_path):
    grid = {"extents": 4.0, "counts": 17}
    entries = [
        {"name": "t_conservation", "experiment": "conservation", "seed": 1,
         "params": {"n": 1, "m": 1, "delta2": 1.0, "delta2p": 1.0}, "grid": grid,
         "method": {"kind": "exact_eigendecomposition"},
         "knobs": {"times": [0.1, 0.1], "n_sources": 2}},
        {"name": "t_volume", "experiment": "volume", "seed": 2,
         "params": {"n": 1, "m": 1, "delta2": 1.0, "delta2p": 1.0}, "grid": grid,
         "knobs": {"task": "slopes", "tol": 10.0}},
    ]
    before = _bindings()
    tr = tracing.Tracer()
    result = run_pass(entries, str(tmp_path), tr)
    after = _bindings()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert tracing.leftover_wrappers() == []
    assert tr.hook_errors == []
    assert all(e["error"] is None and e["digest"] for e in result["entries"])

    m = tracing.layer_metrics(tr, ["t_conservation", "t_volume"])
    assert list(m) + ["trace.overhead_s"] == tracing.per_layer_names(["t_conservation",
                                                                      "t_volume"])
    # 2 sources x the same time twice: 4 columns, 2 of them distinct
    assert m["evolution.kernel_columns"] == 4.0
    assert m["evolution.kernel_columns_unique"] == 2.0
    assert m["evolution.column_useful_ratio"] == 0.5
    assert m["discretization.dense_eig_calls"] == 1.0
    assert m["discretization.dense_eig_max_n"] == 17.0 ** 2
    assert m["geometry.graph_builds"] == 1.0 and m["geometry.dijkstra_sources"] == 2.0
    assert m["quadrature.segments"] > 0 and m["reporting.bytes_written"] > 0
    # layer self times and the runner's own time add up to the entries' time
    layers = sum(m[f"{mod}.self_s"] for mod in tracing.LAYER_MODULES)
    entries_s = m["entry.t_conservation_s"] + m["entry.t_volume_s"]
    assert layers + m["experiments.self_s"] == pytest.approx(entries_s)
    # every layer span of an entry hangs under that entry's span
    for s in tr.spans:
        root = s
        while root.parent is not None:
            root = tr.spans[root.parent]
        assert root.name == tracing.ENTRY_SPAN and root.request == s.request


def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    timed = [n for group in workloads.WORKLOADS.values() for n in group]
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names(timed)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "setup_s",
                                                       "peak_rss_mb"]
