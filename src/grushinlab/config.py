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
defaults).  A parameter declares its domain beside its default,
``Annotated[type, domain(path, value)]`` (else it takes its default's kind),
and ``bind`` binds each value as its domain converts it.  An unknown key, a
required key left out, a value outside its domain or a value the class
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
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cache, partial
from hashlib import sha256
from typing import Annotated, Any

from .coefficients import GrusinParameters, _count, _is_real
from .discretization import CapacityError, Grid, build_grid

__all__ = ["ConfigError", "EvolutionMethod", "ExperimentConfig", "bind", "build",
           "canonical_json", "config_hash", "resolve"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: dict) -> str:
    return sha256(canonical_json(config_dict).encode()).hexdigest()[:16]


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


# Entries of a list knob (times, radii, points, stages), and the sources,
# targets, times or radii a count knob asks for: ten times the manifest's
# largest such count (11 targets).  c04 at 100 sources and 100 targets
# plans 20,000 closed-form distances and runs 200 Dijkstra passes, about 3 s.
MAX_POINTS = 100


def real(positive: bool = False, within: tuple | None = None):
    """A finite number, not a bool, as given; above 0 if ``positive``, in ``within`` = [lo, hi]."""
    def check(path: str, value):
        _require(_is_real(value), path, f"{value!r} is not a number")
        _require(not positive or value > 0, path, f"{value!r} must be positive")
        if within and not within[0] <= value <= within[1]:
            raise ConfigError(f"{path} must lie in {list(within)}")
        return value
    return check


def natural(ceiling=math.inf, guard: str = "work", least: int = 1):
    """A positive integer as an int (2.0 is 2), at most ``ceiling`` (``guard``), >= ``least``."""
    def check(path: str, value):
        real()(path, value)
        try:
            n = _count(path, value, ceiling, guard)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _require(n >= least, path, f"{value!r} must be at least {least}")
        return n
    return check


def one_of(*choices, other=None):
    """One of ``choices``; a value that is not a string goes to the domain ``other`` if set."""
    def check(path: str, value):
        if other and not isinstance(value, str):
            return other(path, value)
        _require(value in choices, path, f"{value!r} is not one of {list(choices)}")
        return value
    return check


def kind(cls, name: str):
    """An instance of ``cls`` (true or false, a string or None), ``name`` in its message."""
    def check(path: str, value):
        _require(isinstance(value, cls), path, f"{value!r} is not {name}")
        return value
    return check


def list_of(item=None, pair: bool = False, or_one: bool = False):
    """A list of at most MAX_POINTS values, each (``path[i]``) of the domain
    ``item`` (None: left to its reader), bound as a list; of two if
    ``pair``; or one value, as it is, if ``or_one`` (a grid's extents)."""
    def check(path: str, value):
        if or_one and not isinstance(value, (list, tuple)):
            return item(path, value)
        _require(isinstance(value, (list, tuple)), path, f"{value!r} is not a list")
        _require(not pair or len(value) == 2, path, f"{value!r} must be a list of two numbers")
        _require(len(value) <= MAX_POINTS, path,
                 f"{len(value)} entries, more than {MAX_POINTS} (work guard)")
        return [v if item is None else item(f"{path}[{i}]", v) for i, v in enumerate(value)]
    return check


Number = Annotated[float, real()]
Positive = Annotated[float, real(positive=True)]
Positives = Annotated[list, list_of(real(positive=True))]
Bool = Annotated[bool, kind(bool, "true or false")]
Text = Annotated[str, kind((str, type(None)), "a string")]
Point = Annotated[list, lambda path, value: value]  # a plan resolves it on its grid
Points = Annotated[list, list_of(list_of(real()))]
Tally = Annotated[int, natural(MAX_POINTS)]


@cache
def _signature(fn) -> inspect.Signature:
    """``fn``'s signature, its postponed annotations evaluated once."""
    return inspect.signature(fn, eval_str=True)


def _domain(p: inspect.Parameter):
    """The domain ``p`` declares, else its default's kind (true or false, a number), or None."""
    if not hasattr(p.annotation, "__metadata__") and isinstance(p.default, numbers.Real):
        return (Bool if isinstance(p.default, bool) else Number).__metadata__[0]
    return getattr(p.annotation, "__metadata__", [None])[0]


def bind(fn, path: str, raw, *head) -> partial:
    """``fn(*head, **values)``, not yet called, once the JSON object ``raw``
    binds to the parameters of ``fn`` after ``head``, each value (given or
    default) as its domain converts it.  A name ``fn`` does not declare, a
    parameter without a default that ``raw`` leaves out, a field given as an
    empty list (a check with nothing to test) or a value outside its domain
    is a ConfigError naming ``path.<name>``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    params = list(_signature(fn).parameters.values())[len(head):]
    names = [p.name for p in params]
    for name, value in raw.items():
        _require(name in names, f"{path}.{name}".lstrip("."),
                 f"unknown field (expected one of {names})")
        _require(not isinstance(value, (list, tuple)) or value, f"{path}.{name}".lstrip("."),
                 "must not be empty")
    values = {}
    for p in params:
        at = f"{path}.{p.name}".lstrip(".")
        _require(p.default is not p.empty or p.name in raw, at, "required")
        domain = _domain(p)
        value = raw.get(p.name, p.default)
        values[p.name] = value if domain is None else domain(at, value)
    return partial(fn, *head, **values)


def resolve(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``: a constructor, an argument check, a point's
    node or the storage ceiling.  Its TypeError, ValueError or CapacityError
    is a ConfigError naming ``path``, and the field when the message starts
    with a keyword argument's name (``params.delta1 must lie in [0, 1)``)."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError, CapacityError) as err:
        field = str(err).split(" ", 1)[0]
        sep = "." if field in {**getattr(fn, "keywords", {}), **kwargs} else ": "
        raise ConfigError(f"{path}{sep}{err}") from err


def build(fn, path: str, raw, *head):
    """``bind``, then construct, an error naming ``path`` (``resolve``)."""
    return resolve(path, bind(fn, path, raw, *head))


@dataclass(frozen=True)
class EvolutionMethod:
    """How a run evaluates exp(-tA): a config's "method" (see the schema above)."""

    kind: Annotated[str, one_of("auto", "exact_eigendecomposition", "krylov_exponential")] = "auto"
    tolerance: float = 1e-8
    max_exact_dimension: int = 4500  # the ceiling every config hash echoes; no other value

    def __post_init__(self):
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.max_exact_dimension != 4500:
            raise ValueError(f"max_exact_dimension must be 4500, the storage ceiling of the "
                             f"factored spectrum, got {self.max_exact_dimension!r}")
        object.__setattr__(self, "max_exact_dimension", 4500)  # an int: 4500.0 hashes as 4500
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


def _from_fields(*, experiment, params, grid=None, method=None, seed=12345,
                 name: Text = None, knobs=None) -> ExperimentConfig:
    """The top-level keys of a config document, with their defaults."""
    params = build(GrusinParameters, "params", params)
    if grid is not None:
        grid = build(build_grid, "grid", grid, params)
    method = build(EvolutionMethod, "method", {} if method is None else method)
    _require(0 <= seed < 2**63 and float(seed).is_integer(), "seed",
             f"must be a non-negative 64-bit integer, got {seed!r}")
    knobs = {} if knobs is None else knobs
    _require(isinstance(knobs, dict), "knobs", "expected an object")
    return ExperimentConfig(experiment=experiment, params=params,
                            grid_extents=None if grid is None else grid.extents,
                            grid_counts=None if grid is None else grid.counts, method=method,
                            seed=int(seed), name=name or experiment, knobs=dict(knobs))
