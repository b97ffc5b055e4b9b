"""Benchmark of the grushinlab acceptance manifest.

    python3 bench/run.py --workload heat --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  A workload is a fixed list of
acceptance-manifest entries (``bench/workloads.py``); a pass runs them
serially through ``grushinlab.cli.run_suite(entries, out, workers=1)`` in a
fresh Python process whose BLAS and OpenMP are capped to one thread.  That
is the package's own end-to-end path, ``grushinlab suite``, run serially.
Passes repeat until ``--seconds`` have gone by; a pass that has started is
always finished, so a workload whose pass is longer than ``--seconds`` runs
one pass.  No pass starts that would not end within the run's 170 s limit.

``--seed s`` adds ``s`` to every entry's frozen seed; 0 is the manifest
itself.  An entry fails if it raises, if any of its checks misses the bound
the package's manifest gives it, or if its outputs (CSV bytes and
report.json without ``timings``) differ from those of the first pass of
this invocation.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first entry
started to last report written, imports excluded), ``cpu_s`` (user plus
system CPU time of the pass process over the same span), ``setup_s``
(interpreter start through importing numpy, scipy and grushinlab and
building the configs; median of at least three fresh processes) and
``peak_rss_mb`` (peak resident memory of a pass process).  ``--trace 1``
runs the untraced passes, then one traced pass, and reports the per-layer
metrics of ``bench/tracing.py`` plus ``trace.overhead_s``, the traced wall
time minus the untraced median.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracing import unit

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
# The whole invocation must end within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(mode: str, workload: str, seed: int, work_dir: str, tag: str, deadline: float) -> dict:
    result = os.path.join(work_dir, f"{tag}.json")
    env = dict(os.environ, **THREAD_CAPS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH, "runpass.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--out", os.path.join(work_dir, tag),
           "--result", result, "--spans", os.path.join(work_dir, "spans.json")]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{tag} did not finish within the {DEADLINE_S:.0f} s budget") from None
    if code != 0:
        raise BenchError(f"{tag} exited with status {code}")
    with open(result) as fh:
        return json.load(fh)


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _failure(entry: dict, reference_digest) -> str | None:
    if entry["error"]:
        return "raised"
    if not entry["passed"]:
        return "check failed: " + ", ".join(c["name"] for c in entry["failed_checks"])
    if entry["digest"] != reference_digest:
        return "outputs differ from the first pass"
    return None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one invocation, write its full record to ``.bench_out/`` and
    return the final JSON object."""
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    work_dir = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    probes = [] if trace else [
        _spawn("setup", workload, seed, work_dir, f"setup{k}", deadline)
        for k in range(SETUP_SAMPLES - 1)]
    passes = []
    t_first = time.perf_counter()
    while not passes or time.perf_counter() - t_first < seconds:
        if passes and time.perf_counter() + (2 + trace) * passes[-1]["wall_s"] > deadline:
            break  # another pass (and the traced one) would not fit the deadline
        passes.append(_spawn("plain", workload, seed, work_dir, f"pass{len(passes)}", deadline))
    traced = _spawn("traced", workload, seed, work_dir, "traced", deadline) if trace else None

    # correctness: every entry of every pass passed its checks and
    # reproduced the first pass's output bytes
    reference = {e["name"]: e["digest"] for e in passes[0]["entries"]}
    attempted = failed = 0
    failures = []
    for k, p in enumerate(passes + ([traced] if traced else [])):
        for e in p["entries"]:
            attempted += 1
            why = _failure(e, reference[e["name"]])
            if why:
                failed += 1
                failures.append(f"pass {k} {e['name']}: {why}")
    # tracer trouble does not touch the program's outputs: warn, do not fail
    warnings = [f"tracer hook error: {e}" for e in traced["hook_errors"]] if traced else []
    if traced and traced["leftover_wrappers"]:
        warnings.append(f"wrappers left patched: {traced['leftover_wrappers']}")

    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    setups = [p["setup_s"] for p in probes + passes]
    wall_q = _quartiles(walls)
    cpu_q = _quartiles(cpus)
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    end_to_end = {
        "wall_s": wall_q[1],
        "cpu_s": cpu_q[1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    n_entries = len(passes[0]["entries"])
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  "
        f"passes {len(passes)} of {n_entries} entries  ({time.perf_counter() - t_start:.1f} s)",
        f"  wall_s       {wall_q[1]:10.4f} s   median, q1 {wall_q[0]:.4f}, q3 {wall_q[2]:.4f}, "
        f"n={len(walls)} passes",
        f"  cpu_s        {cpu_q[1]:10.4f} s   median, q1 {cpu_q[0]:.4f}, q3 {cpu_q[2]:.4f}, "
        f"n={len(cpus)} passes",
        f"  setup_s      {end_to_end['setup_s']:10.4f} s   median of {len(setups)} set-ups",
        f"  peak_rss_mb  {end_to_end['peak_rss_mb']:10.1f} MB  max over {len(passes)} passes",
        f"  fail_ratio   {failed / attempted:10.4f}     {failed} failed of {attempted} entries attempted",
    ]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - wall_q[1]
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
        lines += [f"  {k:40s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    lines += [f"  FAILED {f}" for f in failures] + [f"  WARNING {w}" for w in warnings]

    environment = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **passes[0]["versions"],
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }
    lines.append("environment " + json.dumps(environment, sort_keys=True))
    print("\n".join(lines))

    summary = {"correct": not failures, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment, "summary": summary,
              "failures": failures, "warnings": warnings,
              "passes": [{k: v for k, v in p.items() if k != "entries"} for p in passes],
              "setup_samples": setups, "traced_wall_s": traced["wall_s"] if traced else None}
    for k in range(len(passes)):
        shutil.rmtree(os.path.join(work_dir, f"pass{k}"), ignore_errors=True)
    shutil.rmtree(os.path.join(work_dir, "traced"), ignore_errors=True)
    with open(os.path.join(work_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="added to every entry's frozen seed")
    parser.add_argument("--seconds", type=int, default=10, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "grushinlab", "cli.py")):
        print(f"error: no grushinlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
