"""Config fuzzer: one value of a manifest entry made hostile.

A mutant is a manifest entry with one value replaced by a hostile one (an
integral float of a count, 0, a negative, a huge number, an infinity, NaN,
a value of the wrong type, an empty or nested list), one key dropped or one
unknown key added, at any depth: params, grid, method, knobs, a decay stage,
a radius spec or a list element.

Invariant A: building the config and planning it (``plan_experiment``)
raises ConfigError or returns, within PLAN_SECONDS of wall time and
PLAN_MB of traced allocation.  Invariant B: on the entries whose solve
takes under 0.1 s, a mutant that plans solves or raises CapacityError.
"""

import copy
import math
import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grushinlab.config import ConfigError, ExperimentConfig
from grushinlab.discretization import CapacityError
from grushinlab.experiments import acceptance_manifest, plan_experiment

MANIFEST = {raw["name"]: raw for raw in acceptance_manifest()}
SOLVED = {"c01_conservation_1d", "c02_decay_control", "c04_distance", "c06_doubling",
          "c12_nash_half_line", "c13_hardy", "c14_free_space_oracle"}
HOSTILE = [0, -1, -1e-300, 0.5, 1e300, 10**6, math.inf, -math.inf, math.nan, "x", None, True,
           {}, [], [1.0], [1.0, -1.0], [[0.0]], [[]]]
DROP, UNKNOWN = object(), object()

# Under tracemalloc the manifest's plans take at most about 0.12 s and trace
# at most 18 MB (c02_decay_classical); a plan that allocates or loops
# without a ceiling passes both budgets by far.
PLAN_SECONDS = 5.0
PLAN_MB = 64


def _paths(node, path=()):
    """The path of every value below ``node``: object fields and list elements."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def mutants(draw):
    """(entry name, path, value): ``value`` replaces the one at ``path``;
    DROP deletes an object's field, UNKNOWN adds a field to an object."""
    name = draw(st.sampled_from(sorted(MANIFEST)))
    path = draw(st.sampled_from([()] + list(_paths(MANIFEST[name]))))
    if not path:
        return name, path, UNKNOWN
    old = _at(MANIFEST[name], path)
    integral = [float(old)] if isinstance(old, int) and not isinstance(old, bool) else []
    values = HOSTILE + integral + ([DROP] if isinstance(path[-1], str) else [])
    values += [UNKNOWN] if isinstance(old, dict) else []
    return name, path, draw(st.sampled_from(values))


def _mutate(name, path, value) -> dict:
    raw = copy.deepcopy(MANIFEST[name])
    if value is UNKNOWN:
        _at(raw, path)["unknown_key"] = 1.0
    elif value is DROP:
        del _at(raw, path[:-1])[path[-1]]
    else:
        _at(raw, path[:-1])[path[-1]] = value
    return raw


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(mutants())
@example(("c04_distance", ("knobs", "stencil_order"), 1e300))
@example(("c12_nash_half_line", ("knobs", "r_grid", "n"), 10**6))
@example(("c13_hardy", ("knobs", "count"), 1e300))
@example(("c01_conservation_1d", ("params", "n"), 10**6))
@example(("c13_hardy", ("knobs", "n"), 40.0))
@example(("c06_doubling", ("knobs", "n_radii"), 8.0))
def test_a_hostile_value_is_refused_by_the_plan_or_solved(mutant):
    raw = _mutate(*mutant)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        _, solve = plan_experiment(ExperimentConfig.from_dict(raw))
    except ConfigError:
        solve = None
    finally:
        seconds = time.perf_counter() - start
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    assert seconds <= PLAN_SECONDS and peak_mb <= PLAN_MB, (seconds, peak_mb)
    if solve is not None and mutant[0] in SOLVED:
        try:
            solve()
        except CapacityError:
            pass
