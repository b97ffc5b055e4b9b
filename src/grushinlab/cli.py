"""Command-line experiment runner: ``grushinlab suite`` and ``grushinlab report``.

``suite`` runs a manifest, a JSON list of config objects (see
grushinlab.config) given by --manifest PATH, or the built-in frozen
``acceptance`` manifest (the default).  One config runs as a one-element
list.  Each config writes to <out>/<name>/ (--out DIR, default ./results),
so two entries of one name are refused, and the suite writes
<out>/suite_report.json.  --workers N (N >= 1, default 1) runs the configs
on N processes, and --seed S replaces every config's seed.  A flag is the
only owner of its run setting: no environment variable is read, and a
config holds no output directory ("out" is an unknown field).  Every entry
is planned before any solves, so a config error in any entry exits 2
before anything is written.

``report`` pretty-prints a stored report.json or suite_report.json.  Exit
status is 0 exactly when every check passed, 1 when one failed or a solver
guard only a solve sees raised ``CapacityError`` (printed as ``solver guard:
<message>``; the entries solved before it keep their outputs), and 2 for a
config error or an input file that cannot be read or is not valid JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ExperimentConfig
from .discretization import CapacityError
from .experiments import acceptance_manifest, plan_experiment
from .reporting import summary_lines, write_report


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: cannot be read ({err.strerror})") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err


def _manifest(entries) -> list[dict]:
    """The configs of a manifest document, which is a list of objects."""
    if not isinstance(entries, list):
        raise ConfigError("experiments: expected a list of config objects")
    for k, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise ConfigError(f"experiments[{k}]: expected an object")
    return entries


def _report(path: str, doc) -> dict:
    """A stored report document: one experiment's report, or a suite report
    whose ``experiments`` list holds them.  Each has ``checks``, and the
    document has ``passed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a report object, not {type(doc).__name__}")
    if "passed" not in doc:
        raise ConfigError(f"{path}: expected a report object with 'passed'")
    entries = doc.get("experiments", [doc])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{path}: experiments: expected a list of report objects")
    for entry in entries:
        if not isinstance(entry.get("checks"), list):
            raise ConfigError(f"{path}: expected a report object with a 'checks' list")
    return doc


def _solve(cfg: ExperimentConfig, report: dict, solve, out_dir: str) -> dict:
    solve()
    report["report_path"] = write_report(os.path.join(out_dir, cfg.name), report)
    return report


def _run_single(raw: dict, out_dir: str) -> dict:
    cfg = ExperimentConfig.from_dict(raw)
    return _solve(cfg, *plan_experiment(cfg), out_dir)


def run_suite(manifest: list[dict], out_dir: str, workers: int) -> dict:
    if workers < 1:
        raise ConfigError(f"--workers: {workers} must be at least 1")
    configs = [ExperimentConfig.from_dict(raw) for raw in manifest]
    names = [cfg.name for cfg in configs]
    for k, name in enumerate(names):  # each entry writes to <out>/<name>/
        if name in names[:k]:
            raise ConfigError(f"experiments[{k}].name: {name!r} is already the name of "
                              f"experiments[{names.index(name)}]")
    # plan every entry first: a bad one raises before any entry solves or writes
    plans = [(cfg, *plan_experiment(cfg)) for cfg in configs]
    if workers == 1 or len(manifest) <= 1:
        reports = []
        while plans:  # each plan is dropped once solved, with the operators it holds
            reports.append(_solve(*plans.pop(0), out_dir))
    else:
        plans.clear()  # each worker plans its own entry again
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_single, raw, out_dir) for raw in manifest]
            reports = [f.result() for f in futures]
    aggregate = {
        "experiments": [
            {"name": r["name"], "passed": r["passed"],
             "checks": r["checks"], "timings": r["timings"]}
            for r in reports
        ],
        "passed": all(r["passed"] for r in reports),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "suite_report.json"), "w", newline="\n") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return aggregate


def _print_report(report: dict) -> None:
    for line in summary_lines(report):
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grushinlab",
        description="Desk-scale verification experiments for Grushin-type degenerate diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("suite", help="run a manifest of experiments")
    p.add_argument("--manifest", default="acceptance",
                   help="path of a JSON list of configs, or 'acceptance' for the built-in suite")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--seed", type=int, default=None, help="override every config's seed")
    p = sub.add_parser("report", help="pretty-print a stored report")
    p.add_argument("path", help="path to report.json or suite_report.json")

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            aggregate = _report(args.path, _load_json(args.path))
        else:
            if args.manifest == "acceptance":
                manifest = acceptance_manifest()
            else:
                manifest = _manifest(_load_json(args.manifest))
            if args.seed is not None:
                for raw in manifest:
                    raw["seed"] = args.seed
            aggregate = run_suite(manifest, args.out, args.workers)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:  # raised by a solve: the entries before it keep their outputs
        print(f"solver guard: {err}", file=sys.stderr)
        return 1
    if "experiments" not in aggregate:  # one experiment's report.json
        _print_report(aggregate)
        return 0 if aggregate.get("passed") else 1
    for entry in aggregate["experiments"]:
        _print_report(entry)
    print("SUITE:", "PASS" if aggregate["passed"] else "FAIL")
    return 0 if aggregate["passed"] else 1

if __name__ == "__main__":
    sys.exit(main())
