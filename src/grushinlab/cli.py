"""Command-line experiment runner.

Subcommands: distance, volume, heat-kernel, conservation, decay, separation,
compare, wave, nash, suite, report.  Every experiment subcommand takes
--config PATH (JSON, see grushinlab.config), --out DIR (default ./results)
and --seed S, which replaces the config's seed.  Without --config a
subcommand runs a copy of its kind's entry of the acceptance manifest
(DEFAULT_ENTRIES), frozen check bounds included.  Each run writes to
<out>/<name>/.  Each subcommand is its experiment kind with '_' written as
'-'.  A flag is the only owner of its run setting: no environment variable
is read, and a config holds no output directory ("out" is an unknown field).

``suite`` runs a manifest of configs (a JSON list of config objects, or the
built-in ``acceptance`` manifest) on --workers N processes (N >= 1, default
1), --seed S replacing every seed, and exits nonzero if any check fails; a
config error in any entry exits 2 before any entry solves or writes;
``report`` pretty-prints a stored report.json.  Exit status is 0 exactly
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ExperimentConfig
from .experiments import acceptance_manifest, plan_experiment
from .reporting import summary_lines, write_report

# experiment kind -> the manifest entry its subcommand runs without --config
DEFAULT_ENTRIES = {
    "conservation": "c01_conservation_1d",
    "decay": "c03_decay_1d",
    "distance": "c04_distance",
    "volume": "c05_volume_slopes",
    "heat_kernel": "c14_free_space_oracle",
    "separation": "c07_separation_weak",
    "compare": "c11_compare",
    "wave": "c10_speed_constant",
    "nash": "c12_nash_full",
}


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON ({err})") from err


def _load_config_dict(kind: str, args) -> dict:
    if args.config:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("config: expected an object")
    else:
        raw = next(e for e in acceptance_manifest() if e["name"] == DEFAULT_ENTRIES[kind])
    if raw.get("experiment") is None:
        raw["experiment"] = kind
    if raw.get("experiment") != kind:
        raise ConfigError(f"experiment: config is for {raw.get('experiment')!r}, "
                          f"but the {kind!r} subcommand was invoked")
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def _manifest(entries) -> list[dict]:
    """The configs of a manifest document, which is a list of objects."""
    if not isinstance(entries, list):
        raise ConfigError("experiments: expected a list of config objects")
    for k, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise ConfigError(f"experiments[{k}]: expected an object")
    return entries


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
    # plan every entry first: a bad one raises before any entry solves or writes
    plans = [(cfg, *plan_experiment(cfg)) for cfg in map(ExperimentConfig.from_dict, manifest)]
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
    for kind, entry in DEFAULT_ENTRIES.items():
        p = sub.add_parser(kind.replace("_", "-"),
                           help=f"run the {kind} experiment (default: manifest entry {entry})")
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None)
    p = sub.add_parser("suite", help="run a manifest of experiments")
    p.add_argument("--manifest", default="acceptance",
                   help="JSON manifest path, or 'acceptance' for the built-in suite")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--seed", type=int, default=None, help="override every config's seed")
    p = sub.add_parser("report", help="pretty-print a stored report.json")
    p.add_argument("path", help="path to report.json or suite_report.json")

    args = parser.parse_args(argv)

    if args.command == "report":
        with open(args.path) as fh:
            stored = json.load(fh)
        if "experiments" in stored:
            for entry in stored["experiments"]:
                _print_report(entry)
            print("SUITE:", "PASS" if stored["passed"] else "FAIL")
            return 0 if stored["passed"] else 1
        _print_report(stored)
        return 0 if stored.get("passed") else 1

    if args.command == "suite":
        try:
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
        for entry in aggregate["experiments"]:
            _print_report(entry)
        print("SUITE:", "PASS" if aggregate["passed"] else "FAIL")
        return 0 if aggregate["passed"] else 1

    kind = args.command.replace("-", "_")
    try:
        raw = _load_config_dict(kind, args)
        report = _run_single(raw, args.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    _print_report(report)
    print("RESULT:", "PASS" if report["passed"] else "FAIL",
          f"({report['report_path']})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
