"""Experiment configuration: a single JSON document per run.

Schema (defaults in parentheses):

    {
      "experiment": "conservation" | "decay" | "distance" | "volume" |
                    "heat_kernel" | "separation" | "compare" | "wave" | "nash",
      "name":      optional label used for output paths (experiment kind),
      "seed":      64-bit integer (12345),
      "params":    {"n", "m", "delta1" (0), "delta1p" (0), "delta2" (0), "delta2p" (0)},
      "grid":      {"extents": number | [per axis], "counts": int | [per axis]},
      "method":    {"kind" ("auto"), "tolerance" (1e-8), "max_exact_dimension" (4500)},
      "out":       output directory or null,
      "knobs":     the runner's settings (see below)
    }

"method.kind" is "auto", "exact_eigendecomposition" or "krylov_exponential".
"max_exact_dimension" is the storage ceiling of the exact method: its
factored spectrum stores n2 * n1^2 floats (n2 x2 nodes, n1 kept x1 nodes),
which must not exceed max_exact_dimension^2; "auto" falls back to Krylov
beyond it.  "tolerance" is the Krylov method's absolute error per unit |v|:
its truncated Chebyshev series stops where the coefficient tail, a proven
error bound, drops to it.

"knobs.task" selects the runner within an experiment kind: "slopes" or
"doubling" (volume), "finite_speed" or "davies_gaffney" (wave), "nash",
"hardy" or "operator_inequalities" (nash), "gaussian_bounds" (heat_kernel,
whose plain run takes no task).  Without it a kind runs slopes, finite_speed,
nash or the plain heat kernel.  The other knobs are the runner's keyword-only
parameters, and their defaults are the runner's (grushinlab.experiments).
A task the kind does not have, a knob the runner does not declare or a
required knob left out is a ConfigError naming it when the experiment starts.

Validation failures raise ConfigError with the offending field path in the
message.  Re-running the same config byte-reproduces all CSV output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any

from .coefficients import GrusinParameters
from .discretization import Grid, build_grid
from .evolution import EvolutionMethod

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENT_KINDS", "canonical_json", "config_hash"]

EXPERIMENT_KINDS = (
    "conservation",
    "decay",
    "distance",
    "volume",
    "heat_kernel",
    "separation",
    "compare",
    "wave",
    "nash",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: dict) -> str:
    return sha256(canonical_json(config_dict).encode()).hexdigest()[:16]


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


@dataclass
class ExperimentConfig:
    experiment: str
    params: GrusinParameters
    grid_extents: tuple[float, ...] | None
    grid_counts: tuple[int, ...] | None
    method: EvolutionMethod
    seed: int = 12345
    out: str | None = None
    name: str = ""
    knobs: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        known = {"experiment", "name", "seed", "params", "grid", "method", "out", "knobs"}
        for key in raw:
            _require(key in known, key, f"unknown field (expected one of {sorted(known)})")
        exp = raw.get("experiment")
        _require(exp in EXPERIMENT_KINDS, "experiment",
                 f"must be one of {list(EXPERIMENT_KINDS)}, got {exp!r}")

        pdict = raw.get("params")
        _require(isinstance(pdict, dict), "params", "required object with n, m, delta exponents")
        try:
            params = GrusinParameters(
                n=pdict.get("n", 1),
                m=pdict.get("m", 0),
                delta1=float(pdict.get("delta1", 0.0)),
                delta1p=float(pdict.get("delta1p", 0.0)),
                delta2=float(pdict.get("delta2", 0.0)),
                delta2p=float(pdict.get("delta2p", 0.0)),
            )
        except (TypeError, ValueError) as err:
            # parameter messages start with the offending field name
            raise ConfigError(f"params.{err}") from err

        extents = counts = None
        gdict = raw.get("grid")
        if gdict is not None:
            _require(isinstance(gdict, dict), "grid", "expected an object with extents and counts")
            try:
                probe = build_grid(params, gdict["extents"], gdict["counts"])
            except KeyError as err:
                raise ConfigError(f"grid.{err.args[0]}: required") from err
            except (TypeError, ValueError) as err:
                raise ConfigError(f"grid: {err}") from err
            extents, counts = probe.extents, probe.counts

        mdict = raw.get("method", {}) or {}
        try:
            method = EvolutionMethod(
                kind=mdict.get("kind", "auto"),
                tolerance=float(mdict.get("tolerance", 1e-8)),
                max_exact_dimension=int(mdict.get("max_exact_dimension", 4500)),
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"method: {err}") from err

        seed = raw.get("seed", 12345)
        _require(isinstance(seed, int) and 0 <= seed < 2**63, "seed",
                 "must be a non-negative 64-bit integer")
        knobs = raw.get("knobs", {}) or {}
        _require(isinstance(knobs, dict), "knobs", "expected an object")
        return ExperimentConfig(
            experiment=exp,
            params=params,
            grid_extents=extents,
            grid_counts=counts,
            method=method,
            seed=seed,
            out=raw.get("out"),
            name=raw.get("name") or exp,
            knobs=dict(knobs),
        )

    def grid(self) -> Grid:
        if self.grid_extents is None or self.grid_counts is None:
            raise ConfigError("grid: required for this experiment")
        return build_grid(self.params, self.grid_extents, self.grid_counts)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "name": self.name,
            "seed": self.seed,
            "params": {
                "n": self.params.n,
                "m": self.params.m,
                "delta1": self.params.delta1,
                "delta1p": self.params.delta1p,
                "delta2": self.params.delta2,
                "delta2p": self.params.delta2p,
            },
            "method": {
                "kind": self.method.kind,
                "tolerance": self.method.tolerance,
                "max_exact_dimension": self.method.max_exact_dimension,
            },
            "out": self.out,
            "knobs": self.knobs,
        }
        if self.grid_extents is not None:
            out["grid"] = {"extents": list(self.grid_extents), "counts": list(self.grid_counts)}
        return out

    def hash(self) -> str:
        # the output directory is a runtime knob, not part of the
        # experiment's identity: results must not depend on it
        hashed = {k: v for k, v in self.to_dict().items() if k != "out"}
        return config_hash(hashed)
