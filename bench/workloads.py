"""Benchmark workloads: fixed lists of acceptance-manifest entry names.

Each workload is a closed loop with one client: the entries run serially,
one after another, in a single process capped to one BLAS/OpenMP thread.
Entry configs and every check bound come from
``grushinlab.experiments.acceptance_manifest()`` at run time; only the
names live here.

Every manifest entry is either in exactly one workload or in ``UNTIMED``
with the reason it is left out, so a new manifest entry fails loudly
instead of silently going unmeasured.
"""

from __future__ import annotations

WORKLOADS = {
    # Semigroup layers: dense eigh, Krylov apply_semigroup and the Lanczos
    # decay basis.  c01 and c08 build many kernel columns per operator;
    # c02_control and c11 need one factorization or basis per operator and
    # read its diagonal or a region of it.
    "heat": (
        "c01_conservation_1d",
        "c01_conservation_2d",
        "c02_decay_control",
        "c07_separation_strong",
        "c07_separation_weak",
        "c08_gaussian_bounds",
        "c11_compare",
        "c14_free_space_oracle",
    ),
    # Wave leapfrog and CFL bound, metric-graph build and Dijkstra.
    # Semigroup code runs only in c09 (one operator, indicator vectors), so
    # a semigroup change should leave this workload flat.
    "propagation": (
        "c04_distance",
        "c05_volume_slopes",
        "c06_doubling",
        "c09_davies_gaffney",
        "c10_speed_classical",
    ),
    # The only workload for the multipliers module (Hardy eigvalsh, V_F
    # quadrature, FFT transforms); it touches no semigroup, wave or Dijkstra
    # code, so it is the control where those changes must predict no change.
    "inequalities": (
        "c12_nash_full",
        "c12_nash_half_line",
        "c13_hardy",
        "c13_operator_inequalities",
    ),
}

# Entries no workload times.  Together they take about 50 s of the
# manifest's 117 s, and the benchmark's whole schedule (22 runs of every
# workload) must fit its time budget.
UNTIMED = {
    "c02_decay_classical": "Lanczos decay basis on 66k unknowns, about 14 s per pass; "
                           "c02_decay_control runs the same path on a smaller grid",
    "c03_decay_1d": "dense eigh of a 4097-node tridiagonal operator, about 16 s per pass; "
                    "c08, c11 and c14 run the same dense path",
    "c10_speed_constant": "brute-force Euclidean distance to the bump support in the "
                          "harness, about 20 s per pass, with run-to-run noise from "
                          "page faults on its large temporaries; c10_speed_classical "
                          "runs the same leapfrog",
}


class UnassignedEntryError(LookupError):
    """A manifest entry is in no workload and not in UNTIMED."""


class PartitionError(ValueError):
    """A workload names an entry twice or an entry the manifest lacks."""


def check_partition(manifest_names, workloads=WORKLOADS, untimed=UNTIMED) -> None:
    """Every manifest entry sits in exactly one workload or in ``untimed``."""
    owner = {}
    groups = dict(workloads)
    groups["<untimed>"] = tuple(untimed)
    for group, names in groups.items():
        for name in names:
            if name in owner:
                raise PartitionError(f"{name} is assigned to both {owner[name]} and {group}")
            owner[name] = group
    manifest_names = list(manifest_names)
    unknown = sorted(set(owner) - set(manifest_names))
    if unknown:
        raise PartitionError(f"not in the acceptance manifest: {', '.join(unknown)}")
    missing = [n for n in manifest_names if n not in owner]
    if missing:
        raise UnassignedEntryError(
            f"manifest entries in no workload and not in UNTIMED: {', '.join(missing)}")


def select(manifest: list[dict], workload: str, seed: int) -> list[dict]:
    """The workload's manifest entries, in workload order, with ``seed``
    added to each entry's frozen seed (seed 0 is the manifest itself)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    by_name = {raw["name"]: raw for raw in manifest}
    lacking = [n for n in WORKLOADS[workload] if n not in by_name]
    if lacking:
        raise PartitionError(f"{workload} names entries the manifest lacks: {', '.join(lacking)}")
    entries = []
    for name in WORKLOADS[workload]:
        raw = dict(by_name[name])
        raw["seed"] = raw["seed"] + seed
        entries.append(raw)
    return entries
