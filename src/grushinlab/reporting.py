"""Machine-readable experiment outputs: checks, CSV files, JSON reports.

Every CSV starts with a '#' header line carrying the producing config hash,
then the column names; numbers are written with 17 significant digits, '.'
decimal separator and '\\n' line endings, so identical configs reproduce the
bytes exactly.  Every check in a report records its own bound; the report
embeds the full config echo.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["check", "all_passed", "format_number", "write_csv", "write_report", "summary_lines"]


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def check(name: str, value, op: str, bound, tolerance=None) -> dict:
    """One named assertion: value <op> bound.

    op: '<=', '<', '>=', '>', 'within' (|value - bound| <= tolerance),
    'band_ratio' (max(value/bound, bound/value) <= tolerance).
    """
    value = float(value)
    if op == "<=":
        passed = value <= bound
    elif op == "<":
        passed = value < bound
    elif op == ">=":
        passed = value >= bound
    elif op == ">":
        passed = value > bound
    elif op == "within":
        passed = abs(value - bound) <= tolerance
    elif op == "band_ratio":
        passed = value > 0 and bound > 0 and max(value / bound, bound / value) <= tolerance
    else:
        raise ValueError(f"unknown comparison {op!r}")
    entry = {"name": name, "value": value, "op": op, "bound": bound, "passed": bool(passed)}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


def all_passed(checks) -> bool:
    return all(c["passed"] for c in checks)


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _coerce(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_coerce(v) for v in obj]
    return obj


def write_csv(path, columns, rows, cfg_hash: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_number(x) if not isinstance(x, str) else x for x in row) + "\n")


def write_report(out_dir: str, report: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = report["config_hash"]
    for name, table in report.get("csv", {}).items():
        write_csv(os.path.join(out_dir, name), table["columns"], table["rows"], cfg_hash)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(_coerce({k: v for k, v in report.items() if k != "csv"}), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summary_lines(report: dict) -> list[str]:
    lines = []
    tag = report.get("name", report.get("experiment", "?"))
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        bound = c["bound"]
        detail = f"{c['value']:.6g} {c['op']} {bound:.6g}"
        if c["op"] == "within":
            detail = f"{c['value']:.6g} == {bound:.6g} +- {c['tolerance']:.3g}"
        elif c["op"] == "band_ratio":
            detail = f"ratio({c['value']:.6g}, {bound:.6g}) <= {c['tolerance']:.3g}"
        lines.append(f"[{status}] {tag} :: {c['name']}: {detail}")
    return lines
