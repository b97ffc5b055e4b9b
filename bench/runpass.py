"""One benchmark pass in a fresh process.

The process imports numpy, scipy and grushinlab, builds the workload's
manifest configs, then (unless ``--mode setup``) runs every entry through
``grushinlab.cli.run_suite([entry], out, workers=1)`` and writes its
measurements to ``--result`` as JSON.  ``bench/run.py`` starts it with
BLAS/OpenMP capped to one thread in this process's environment only, and
passes the monotonic clock reading taken just before the spawn, so set-up
time counts interpreter start.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so the two processes' readings compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext


def entry_digest(entry_dir: str) -> str:
    """sha256 of an entry's outputs: its CSV bytes and report.json
    without the wall-clock ``timings`` key."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(entry_dir)):
        path = os.path.join(entry_dir, name)
        if name == "report.json":
            with open(path) as fh:
                report = json.load(fh)
            report.pop("timings", None)
            data = json.dumps(report, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def run_pass(entries: list[dict], out_dir: str, tracer=None) -> dict:
    """Run the entries serially; with a tracer, patch the package for the
    pass and restore it afterwards."""
    from grushinlab.cli import run_suite

    from tracing import ENTRY_SPAN, Patch

    shutil.rmtree(out_dir, ignore_errors=True)
    results = []
    patch = Patch(tracer) if tracer is not None else None
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for raw in entries:
            name = raw["name"]
            item = {"name": name, "passed": False, "failed_checks": [], "error": None}
            with tracer.span(ENTRY_SPAN, name) if tracer is not None else nullcontext():
                try:
                    report = run_suite([raw], out_dir, 1)["experiments"][0]
                except Exception:  # one entry's crash is a failed entry, not a dead pass
                    item["error"] = traceback.format_exc()
                    print(item["error"], file=sys.stderr)
                else:
                    item["passed"] = bool(report["passed"])
                    item["failed_checks"] = [c for c in report["checks"] if not c["passed"]]
            results.append(item)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if patch is not None:
            patch.restore()
    for item in results:
        entry_dir = os.path.join(out_dir, item["name"])
        item["digest"] = entry_digest(entry_dir) if os.path.isdir(entry_dir) else None
    return {
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "entries": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() reading taken just before this process started")
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", required=True, help="directory for the entries' outputs")
    parser.add_argument("--result", required=True, help="JSON file for the measurements")
    parser.add_argument("--spans", help="JSON file for the spans of a traced pass")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from grushinlab.config import ConfigError, ExperimentConfig
    from grushinlab.experiments import acceptance_manifest

    import workloads

    entries = workloads.select(acceptance_manifest(), args.workload, args.seed)
    for raw in entries:
        try:
            ExperimentConfig.from_dict(raw)
        except ConfigError:
            pass  # run_suite raises it again, and the pass counts the entry as failed
    result = {
        "setup_s": time.perf_counter() - args.spawned,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracing import Tracer, layer_metrics, leftover_wrappers

            tracer = Tracer()
        result.update(run_pass(entries, args.out, tracer))
        if tracer is not None:
            timed = [n for names in workloads.WORKLOADS.values() for n in names]
            result["layers"] = layer_metrics(tracer, timed)
            result["hook_errors"] = tracer.hook_errors
            result["leftover_wrappers"] = leftover_wrappers()
            with open(args.spans, "w") as fh:
                json.dump([[s.name, s.start, s.end, s.parent, s.request] for s in tracer.spans], fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
