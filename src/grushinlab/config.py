"""Experiment configuration: a single JSON document per run.

Schema:

    {
      "experiment": "conservation" | "decay" | "distance" | "volume" |
                    "heat_kernel" | "separation" | "compare" | "wave" | "nash",
      "name":      optional label used for output paths (experiment kind),
      "seed":      64-bit integer,
      "params":    GrusinParameters: {"n", "m", "delta1", "delta1p", "delta2", "delta2p"},
      "grid":      build_grid: {"extents": number | [per axis], "counts": int | [per axis]},
      "method":    EvolutionMethod: {"kind", "tolerance", "max_exact_dimension"},
      "knobs":     the runner's settings (see below)
    }

Each object binds by name to the signature of the class or function it
builds (``bind``), so its defaults are written once, there: the top level's
on ``_from_fields``, "params" on GrusinParameters (n = 1, m = 0, every delta
0), "method" on EvolutionMethod (an absent or null "method" is all its
defaults).  A value's default is its kind: where it is a bool the value
must be true or false, a number a number (not a bool), a list a list of
elements of its first element's kind (``typed``).  An unknown key, a
required key left out, a value of the wrong kind or a value the class
rejects is a ConfigError naming its path ("params.delta_2: unknown field").
A config is the experiment's identity and nothing else: how a run is
launched (its output directory, worker count) belongs to the command line,
so "out" is an unknown field like any other.

"method.kind" is "auto", "exact_eigendecomposition" or "krylov_exponential".
Every heat read takes the operator's factored spectrum; "auto" and
"exact_eigendecomposition" are two names for that.  "krylov_exponential"
(the name kept for the frozen config hashes) sets a decay run's candidate
diagonal to one Chebyshev series of exp(-tA) per candidate, and any other
experiment refuses it.  "tolerance" is that series' absolute error per
entry: it stops where the coefficient tail, a proven error bound, drops to it.
"max_exact_dimension" takes one value, 4500, the spectrum's storage ceiling
``discretization.MAX_EXACT_DIMENSION``, which every config hash carries; the
plans check the ceiling (grushinlab.experiments).

"knobs.task" selects the runner within an experiment kind: "slopes" or
"doubling" (volume), "finite_speed" or "davies_gaffney" (wave), "nash",
"hardy" or "operator_inequalities" (nash), "gaussian_bounds" (heat_kernel,
whose plain run takes no task).  Without it a kind runs slopes, finite_speed,
nash or the plain heat kernel.  The other knobs are the runner's keyword-only
parameters, and their defaults are the runner's (grushinlab.experiments).
An unknown experiment, a task the kind does not have, a knob the runner
does not declare or a required knob left out is a ConfigError naming it
when the experiment is planned (grushinlab.experiments.plan_experiment).
Re-running the same config byte-reproduces all CSV output, and report.json
up to its timings, alone or in a suite, on any worker count.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass
from functools import partial
from hashlib import sha256
from numbers import Real
from typing import Any

from .coefficients import GrusinParameters, _is_real
from .discretization import Grid, build_grid

__all__ = ["ConfigError", "EvolutionMethod", "ExperimentConfig", "bind", "build",
           "canonical_json", "config_hash", "typed"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: dict) -> str:
    return sha256(canonical_json(config_dict).encode()).hexdigest()[:16]


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def typed(path: str, value, like) -> None:
    """A ConfigError naming ``path`` unless ``value`` is of the kind of
    ``like``: true or false for a bool, a real number that is not a bool for
    an int or float, a list for a tuple or list, each element (``path[i]``)
    of the kind of ``like[0]``.  Any other ``like`` (None, a string, a dict)
    leaves the value to the code that reads it."""
    if isinstance(like, bool):
        _require(isinstance(value, bool), path, f"{value!r} is not true or false")
    elif isinstance(like, Real):
        _require(_is_real(value), path, f"{value!r} is not a number")
    elif isinstance(like, (list, tuple)):
        _require(isinstance(value, (list, tuple)), path, f"{value!r} is not a list")
        for i, v in enumerate(value):
            typed(f"{path}[{i}]", v, like[0])


def bind(fn, path: str, raw, *head) -> partial:
    """``fn(*head, **raw)``, not yet called, once the JSON object ``raw``
    binds to the parameters of ``fn`` after ``head``.  A name ``fn`` does
    not declare, a parameter without a default that ``raw`` leaves out, a
    field given as an empty list (a check with nothing to test) or a value
    not of its default's kind (``typed``) is a ConfigError naming
    ``path.<name>``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    params = list(inspect.signature(fn).parameters.values())[len(head):]
    names = [p.name for p in params]
    for name, value in raw.items():
        _require(name in names, f"{path}.{name}".lstrip("."),
                 f"unknown field (expected one of {names})")
        _require(not isinstance(value, (list, tuple)) or value, f"{path}.{name}".lstrip("."),
                 "must not be empty")
    for p in params:
        at = f"{path}.{p.name}".lstrip(".")
        _require(p.default is not p.empty or p.name in raw, at, "required")
        if p.name in raw:
            typed(at, raw[p.name], p.default)
    return partial(fn, *head, **raw)


def build(fn, path: str, raw, *head):
    """``bind``, then construct: a ValueError or TypeError raised by ``fn``
    becomes a ConfigError naming ``path``, and the field when the message
    starts with a parameter name (``params.delta1 must lie in [0, 1)``)."""
    make = bind(fn, path, raw, *head)
    try:
        return make()
    except (TypeError, ValueError) as err:
        field = str(err).split(" ", 1)[0]
        sep = "." if field in inspect.signature(fn).parameters else ": "
        raise ConfigError(f"{path}{sep}{err}") from err


@dataclass(frozen=True)
class EvolutionMethod:
    """How a run evaluates exp(-tA): a config's "method" (see the schema above)."""

    kind: str = "auto"  # auto | exact_eigendecomposition | krylov_exponential
    tolerance: float = 1e-8
    max_exact_dimension: int = 4500  # the ceiling every config hash echoes; no other value

    def __post_init__(self):
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.max_exact_dimension != 4500:
            raise ValueError(f"max_exact_dimension must be 4500, the storage ceiling of the "
                             f"factored spectrum, got {self.max_exact_dimension!r}")
        object.__setattr__(self, "max_exact_dimension", 4500)  # an int: 4500.0 hashes as 4500
        kinds = ("auto", "exact_eigendecomposition", "krylov_exponential")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")


@dataclass
class ExperimentConfig:
    experiment: str
    params: GrusinParameters
    grid_extents: tuple[float, ...] | None
    grid_counts: tuple[int, ...] | None
    method: EvolutionMethod
    seed: int
    name: str
    knobs: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        return bind(_from_fields, "", raw)()

    def grid(self, counts=None) -> Grid:
        """The configured grid, or the one with node ``counts`` on its box."""
        if self.grid_extents is None:
            raise ConfigError("grid: required for this experiment")
        return build_grid(self.params, self.grid_extents, counts or self.grid_counts)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "name": self.name,
            "seed": self.seed,
            "params": asdict(self.params),
            "method": asdict(self.method),
            "knobs": self.knobs,
        }
        if self.grid_extents is not None:
            out["grid"] = {"extents": list(self.grid_extents), "counts": list(self.grid_counts)}
        return out

    def hash(self) -> str:
        return config_hash(self.to_dict())


def _from_fields(*, experiment, params, grid=None, method=None, seed=12345, name=None,
                 knobs=None) -> ExperimentConfig:
    """The top-level keys of a config document, with their defaults."""
    params = build(GrusinParameters, "params", params)
    if grid is not None:
        grid = build(build_grid, "grid", grid, params)
    method = build(EvolutionMethod, "method", {} if method is None else method)
    _require(0 <= seed < 2**63 and float(seed).is_integer(), "seed",
             f"must be a non-negative 64-bit integer, got {seed!r}")
    _require(name is None or isinstance(name, str), "name", f"{name!r} is not a string")
    knobs = {} if knobs is None else knobs
    _require(isinstance(knobs, dict), "knobs", "expected an object")
    return ExperimentConfig(experiment=experiment, params=params,
                            grid_extents=None if grid is None else grid.extents,
                            grid_counts=None if grid is None else grid.counts, method=method,
                            seed=int(seed), name=name or experiment, knobs=dict(knobs))
