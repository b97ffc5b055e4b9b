import ast
import dataclasses
import inspect
import json
import warnings
import weakref

import numpy as np
import pytest

from grushinlab import cli, config, discretization, evolution, experiments, reporting, wave
from grushinlab.cli import main, run_suite
from grushinlab.coefficients import GrusinParameters
from grushinlab.config import ConfigError, EvolutionMethod, ExperimentConfig, bind, config_hash
from grushinlab.discretization import CapacityError, FiberSpectrum
from grushinlab.experiments import acceptance_manifest, plan_experiment, run_experiment
from grushinlab.reporting import format_number, write_report

FAST_CONFIG = {
    "experiment": "conservation",
    "name": "tiny",
    "seed": 99,
    "params": {"n": 1, "m": 0, "delta1": 0.25, "delta1p": 0.25},
    "grid": {"extents": 2.0, "counts": 41},
    "method": {"kind": "exact_eigendecomposition"},
    "knobs": {"bound": 1e-8, "times": [0.05, 0.5], "n_sources": 3},
}


def _suite(tmp_path, *entries):
    """``grushinlab suite`` on a manifest of ``entries``, writing to tmp_path/out; its exit code."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(list(entries)))
    return main(["suite", "--manifest", str(path), "--out", str(tmp_path / "out")])


def test_config_rejects_out_of_range_delta():
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["params"]["delta1"] = 1.2
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    msg = str(err.value)
    assert "params.delta1" in msg and "[0, 1)" in msg


def test_config_rejects_unknown_experiment_and_fields():
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["experiment"] = "frobnicate"
    with pytest.raises(ConfigError, match="experiment: 'frobnicate' is not one of"):
        plan_experiment(ExperimentConfig.from_dict(bad))
    bad2 = json.loads(json.dumps(FAST_CONFIG))
    bad2["gridd"] = {}
    with pytest.raises(ConfigError, match="gridd"):
        ExperimentConfig.from_dict(bad2)


def test_config_grid_validation_path():
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["grid"] = {"extents": 2.0, "counts": 40}
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("section, key, value", [("params", "delta_2", 1.0),
                                                 ("method", "tolerence", 1e-3),
                                                 ("grid", "spacing", 3)])
def test_cli_misspelled_config_key_exits_2_naming_it(tmp_path, capsys, section, key, value):
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad[section][key] = value
    assert _suite(tmp_path, bad) == 2
    assert f"{section}.{key}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_int_and_float_spellings_hash_equal():
    ints = dict(FAST_CONFIG, params={"n": 1, "m": 0, "delta1": 0, "delta2": 1},
                method={"kind": "auto", "max_exact_dimension": 4500.0})
    floats = dict(FAST_CONFIG, params={"n": 1.0, "m": 0.0, "delta1": 0.0, "delta2": 1.0},
                  method={"max_exact_dimension": 4500}, seed=99.0)
    assert ExperimentConfig.from_dict(ints).hash() == ExperimentConfig.from_dict(floats).hash()
    # n and m default to 1 and 0, and a null method to its defaults
    bare = dict(floats, params={"delta2": 1.0}, method=None)
    assert ExperimentConfig.from_dict(bare).hash() == ExperimentConfig.from_dict(ints).hash()


@pytest.mark.parametrize("section, key, value", [
    ("params", "n", 1.5), ("params", "n", True), ("params", "m", -1),
    ("method", "max_exact_dimension", 4500.9), ("method", "max_exact_dimension", 0),
    ("method", "max_exact_dimension", True), ("method", "max_exact_dimension", -5),
    ("method", "max_exact_dimension", 100),
    ("grid", "counts", 601.5), (None, "seed", 5.5), (None, "seed", True), (None, "seed", -1),
    (None, "seed", 2**63), (None, "seed", 1e19),
])
def test_cli_non_integral_count_exits_2_naming_it(tmp_path, capsys, section, key, value):
    bad = json.loads(json.dumps(FAST_CONFIG))
    (bad if section is None else bad[section])[key] = value
    assert _suite(tmp_path, bad) == 2
    at = key if section is None else f"{section}.{key}"
    kind = {"m": "non-negative", "seed": "non-negative 64-bit"}.get(key, "positive")
    # a bool is refused by its kind before its range; the storage ceiling takes one value
    named = (f"{at}: True is not a number" if value is True
             else f"{at} must be 4500, the storage ceiling of the factored spectrum, got {value!r}"
             if key == "max_exact_dimension"
             else f"{at}{': ' if section is None else ' '}must be a {kind} integer")
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_method_echoes_the_storage_ceiling():
    assert EvolutionMethod().max_exact_dimension == discretization.MAX_EXACT_DIMENSION


def test_config_hash_is_stable_and_sensitive():
    cfg = ExperimentConfig.from_dict(FAST_CONFIG)
    h0 = cfg.hash()
    assert h0 == ExperimentConfig.from_dict(json.loads(json.dumps(FAST_CONFIG))).hash()
    other = json.loads(json.dumps(FAST_CONFIG))
    other["seed"] = 100
    assert ExperimentConfig.from_dict(other).hash() != h0


# The frozen manifest's config hashes, which every CSV header carries.
MANIFEST_HASHES = {
    "c01_conservation_1d": "2c6fdd8db8105058",
    "c01_conservation_2d": "f48a05510c4b6880",
    "c02_decay_classical": "c50d65c237cf50c0",
    "c02_decay_control": "b0ac30641415f1c2",
    "c03_decay_1d": "b6aa25f28bae2520",
    "c04_distance": "aa8f5dc78a9d7942",
    "c05_volume_slopes": "d1b6333feeccbd16",
    "c06_doubling": "acc446f78bed0d0d",
    "c07_separation_strong": "e9b7e3aaf823b4a0",
    "c07_separation_weak": "992ced1db45c716c",
    "c08_gaussian_bounds": "9c2bbfe7faa29315",
    "c09_davies_gaffney": "ad3c11d2d47055c9",
    "c10_speed_classical": "bbf93c24ab0886d4",
    "c10_speed_constant": "f83dd3b1344eb886",
    "c11_compare": "115b97acb2e5d570",
    "c12_nash_full": "41ec5d088ee5f051",
    "c12_nash_half_line": "f2e349365c96e419",
    "c13_hardy": "d92f725a6021fb8a",
    "c13_operator_inequalities": "a0a5ae2fda8c99d5",
    "c14_free_space_oracle": "57cb9a6ec4801c05",
}


def test_manifest_config_hashes_are_unchanged():
    got = {raw["name"]: ExperimentConfig.from_dict(raw).hash() for raw in acceptance_manifest()}
    assert got == MANIFEST_HASHES


def test_to_dict_round_trip_reproduces_every_manifest_hash():
    for raw in acceptance_manifest():
        again = ExperimentConfig.from_dict(ExperimentConfig.from_dict(raw).to_dict())
        assert again.hash() == MANIFEST_HASHES[raw["name"]], raw["name"]


def test_reports_are_byte_reproducible(tmp_path):
    # every CSV byte for byte, and report.json up to its wall-clock timings
    cfg = ExperimentConfig.from_dict(FAST_CONFIG)
    for tag in ("a", "b"):
        write_report(tmp_path / tag, run_experiment(cfg))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "conservation.csv" in names and "report.json" in names
    for name in names:
        a, b = (tmp_path / tag / name for tag in ("a", "b"))
        if name == "report.json":
            a, b = (json.loads(p.read_text()) for p in (a, b))
            assert a.pop("timings") and b.pop("timings")
            assert a == b
        else:
            assert a.read_bytes() == b.read_bytes()


def test_csv_header_carries_config_hash(tmp_path):
    cfg = ExperimentConfig.from_dict(FAST_CONFIG)
    rep = run_experiment(cfg)
    write_report(tmp_path / "run", rep)
    first = (tmp_path / "run" / "conservation.csv").read_text().splitlines()[0]
    assert first == f"# config_hash={cfg.hash()}"
    stored = json.loads((tmp_path / "run" / "report.json").read_text())
    assert stored["config_hash"] == cfg.hash()
    assert stored["config"]["params"]["delta1"] == 0.25
    for c in stored["checks"]:
        assert "bound" in c  # every pass/fail cites its tolerance


def test_number_formatting_is_17_digits():
    assert format_number(1.0 / 3.0) == "0.33333333333333331"
    assert format_number(2) == "2"


def test_suite_empty_manifest_passes(tmp_path):
    aggregate = run_suite([], str(tmp_path), workers=1)
    assert aggregate["passed"] and aggregate["experiments"] == []


def test_suite_binds_every_entry_before_it_runs_any(tmp_path, capsys, monkeypatch):
    ran = _stub_runners(monkeypatch)
    bad = _manifest_entry("c01_conservation_1d")
    bad["knobs"]["n_sourcez"] = 10
    assert _suite(tmp_path, _manifest_entry("c03_decay_1d"), bad) == 2
    assert "knobs.n_sourcez: unknown field" in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "out").exists()


def test_suite_refuses_two_entries_of_one_name_before_any_plans(tmp_path, capsys, monkeypatch):
    # both would write to <out>/<name>/, and the second would overwrite the first
    planned = []
    monkeypatch.setattr(cli, "plan_experiment", lambda cfg: planned.append(cfg.name))
    again = dict(_manifest_entry("c01_conservation_1d"), seed=999)
    assert _suite(tmp_path, _manifest_entry("c01_conservation_1d"), FAST_CONFIG, again) == 2
    assert ("experiments[2].name: 'c01_conservation_1d' is already the name of experiments[0]"
            in capsys.readouterr().err)
    assert planned == []
    assert not (tmp_path / "out").exists()


def test_suite_reports_failing_member(tmp_path):
    good = json.loads(json.dumps(FAST_CONFIG))
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["name"] = "doomed"
    bad["knobs"]["bound"] = 1e-18  # unreachable tolerance
    aggregate = run_suite([good, bad], str(tmp_path), workers=2)
    assert not aggregate["passed"]
    by_name = {e["name"]: e for e in aggregate["experiments"]}
    assert by_name["tiny"]["passed"]
    assert not by_name["doomed"]["passed"]
    failing = [c for c in by_name["doomed"]["checks"] if not c["passed"]]
    assert failing and failing[0]["name"] == "mass_deviation_max"


def test_cli_main_runs_config_and_exit_codes(tmp_path, capsys):
    # one config runs as a one-element manifest
    code = _suite(tmp_path, FAST_CONFIG)
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] tiny :: mass_deviation_max" in out
    # report round-trip, of the experiment's report and of the suite's
    for stored in ("tiny/report.json", "suite_report.json"):
        assert main(["report", str(tmp_path / "out" / stored)]) == 0
        assert "[PASS] tiny :: mass_deviation_max" in capsys.readouterr().out


@pytest.mark.parametrize("before", [[], [dict(FAST_CONFIG, name="good")]],
                         ids=["alone", "after-a-good-entry"])
def test_a_config_that_sets_out_exits_2_naming_it(tmp_path, capsys, before):
    # the output directory belongs to --out alone, not to the config
    raw = dict(FAST_CONFIG, out=str(tmp_path / "elsewhere"))
    assert _suite(tmp_path, *before, raw) == 2
    assert "out: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()


def _assert_same_outputs(a_dir, b_dir):
    """Every CSV of two runs byte for byte, and report.json up to its timings."""
    names = sorted(p.name for p in a_dir.iterdir())
    assert names == sorted(p.name for p in b_dir.iterdir())
    assert "report.json" in names and any(name.endswith(".csv") for name in names)
    for name in names:
        a, b = (d / name for d in (a_dir, b_dir))
        if name == "report.json":
            a, b = (json.loads(p.read_text()) for p in (a, b))
            assert a.pop("timings") and b.pop("timings")
            assert a == b
        else:
            assert a.read_bytes() == b.read_bytes()


def test_cli_malformed_delta_message(tmp_path, capsys):
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["params"]["delta1"] = 1.2
    code = _suite(tmp_path, bad)
    err = capsys.readouterr().err
    assert code == 2
    assert "delta1" in err and "[0, 1)" in err
    assert not (tmp_path / "out").exists()


def test_suite_outputs_independent_of_worker_count(tmp_path):
    # two entries, so that the two-worker suite runs them on a process pool
    other = dict(FAST_CONFIG, name="other", seed=7)
    manifest = [json.loads(json.dumps(FAST_CONFIG)), other]
    run_suite([dict(m) for m in manifest], str(tmp_path / "w1"), workers=1)
    run_suite([dict(m) for m in manifest], str(tmp_path / "w2"), workers=2)
    for name in ("tiny", "other"):
        _assert_same_outputs(tmp_path / "w1" / name, tmp_path / "w2" / name)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_suite_with_fewer_than_one_worker_exits_2_before_any_entry_plans(
        tmp_path, capsys, monkeypatch, workers):
    planned = []
    monkeypatch.setattr(cli, "plan_experiment", lambda cfg: planned.append(cfg))
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps([FAST_CONFIG]))
    code = main(["suite", "--manifest", str(mpath), "--out", str(tmp_path / "suite"),
                 "--workers", workers])
    assert code == 2
    assert f"--workers: {workers} must be at least 1" in capsys.readouterr().err
    assert planned == []
    assert not (tmp_path / "suite").exists()


def test_suite_cli_with_manifest_file(tmp_path, capsys):
    manifest = [json.loads(json.dumps(FAST_CONFIG))]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    code = main(["suite", "--manifest", str(mpath), "--out", str(tmp_path / "suite")])
    out = capsys.readouterr().out
    assert code == 0
    assert "SUITE: PASS" in out
    stored = json.loads((tmp_path / "suite" / "suite_report.json").read_text())
    assert stored["passed"]


@pytest.mark.parametrize("flag, expected", [(None, 99), ("5", 5)])
def test_suite_seed_flag_replaces_the_configs_seed(tmp_path, flag, expected):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps([FAST_CONFIG]))
    argv = ["suite", "--manifest", str(mpath), "--out", str(tmp_path / "suite")]
    assert main(argv + (["--seed", flag] if flag else [])) == 0
    stored = json.loads((tmp_path / "suite" / "tiny" / "report.json").read_text())
    assert stored["config"]["seed"] == expected


def test_suite_rejects_manifest_that_is_not_json(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    mpath.write_text("[{not json")
    code = main(["suite", "--manifest", str(mpath), "--out", str(tmp_path / "suite")])
    assert code == 2
    assert str(mpath) in capsys.readouterr().err


@pytest.mark.parametrize("command, name, text, named", [
    ("suite", "missing.json", None, "cannot be read (No such file or directory)"),
    ("report", "missing.json", None, "cannot be read (No such file or directory)"),
    ("report", "bad.json", "{not json", "not valid JSON"),
    # a report is an object with 'passed', and its experiments are report objects
    ("report", "number.json", "3", "expected a report object, not int"),
    ("report", "list.json", "[]", "expected a report object, not list"),
    ("report", "empty.json", "{}", "expected a report object with 'passed'"),
    ("report", "suite.json", '{"experiments": 3, "passed": true}',
     "experiments: expected a list of report objects"),
    ("report", "entry.json", '{"experiments": [{"name": "a"}], "passed": true}',
     "expected a report object with a 'checks' list"),
], ids=["suite-missing-manifest", "report-missing-file", "report-invalid-json",
        "report-number", "report-list", "report-empty", "report-experiments-number",
        "report-entry-without-checks"])
def test_a_file_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, command, name, text,
                                                       named):
    # exit 1 means a check failed; an input that cannot be read is a usage error
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    argv = (["suite", "--manifest", str(path), "--out", str(tmp_path / "out")]
            if command == "suite" else ["report", str(path)])
    assert main(argv) == 2
    assert f"configuration error: {path}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("document, seed, named", [
    ({"experiments": 3}, [], "experiments: "),
    (3, [], "experiments: "),
    ({"exp": []}, [], "experiments: "),
    ([5], ["--seed", "3"], "experiments[0]: "),
    # a manifest is a list: an object wrapping one is refused too
    ({"experiments": [FAST_CONFIG]}, [], "experiments: expected a list of config objects"),
], ids=["experiments-not-a-list", "bare-number", "no-experiments-key", "entry-not-an-object",
        "list-wrapped-in-an-object"])
def test_suite_rejects_manifest_of_the_wrong_shape(tmp_path, capsys, document, seed, named):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(document))
    code = main(["suite", "--manifest", str(mpath), "--out", str(tmp_path / "suite")] + seed)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "suite").exists()


def _manifest_entry(name):
    return next(raw for raw in acceptance_manifest() if raw["name"] == name)


def _stub_runners(monkeypatch):
    """Replace every runner by one that takes the real runner's knobs, plans
    nothing, records (experiment, task) when it solves and adds no check;
    returns the record."""
    ran = []

    def stub(task, runner):
        def record(cfg, rep, **knobs):
            yield
            ran.append((cfg.experiment, task))
        record.__signature__ = inspect.signature(runner)
        return record

    stubs = {kind: {task: stub(task, runner) for task, runner in tasks.items()}
             for kind, tasks in experiments._RUNNERS.items()}
    monkeypatch.setattr(experiments, "_RUNNERS", stubs)
    return ran


def test_every_manifest_entry_resolves_to_its_runner(monkeypatch):
    manifest = acceptance_manifest()
    assert all(callable(r) for tasks in experiments._RUNNERS.values() for r in tasks.values())
    ran = _stub_runners(monkeypatch)
    for raw in manifest:
        rep = run_experiment(ExperimentConfig.from_dict(raw))
        assert rep["name"] == raw["name"] and rep["passed"] and "total_s" in rep["timings"]
    assert ran == [(raw["experiment"], raw["knobs"].get("task")) for raw in manifest]
    assert ("heat_kernel", "gaussian_bounds") in ran and ("heat_kernel", None) in ran


@pytest.mark.parametrize("kind, task", [("volume", "slopes"), ("wave", "finite_speed"),
                                        ("nash", "nash"), ("heat_kernel", None)])
def test_a_config_without_a_task_runs_its_kinds_default(monkeypatch, kind, task):
    ran = _stub_runners(monkeypatch)
    run_experiment(ExperimentConfig.from_dict({"experiment": kind, "params": {"n": 1, "m": 0}}))
    assert ran == [(kind, task)]


@pytest.mark.parametrize("entry, task", [("c05_volume_slopes", "slops"),
                                         ("c10_speed_constant", "finite"),
                                         ("c12_nash_full", "hardyy"),
                                         ("c14_free_space_oracle", "gaussian_bound"),
                                         ("c01_conservation_1d", "mass")])
def test_cli_unknown_task_exits_2(tmp_path, capsys, entry, task):
    raw = _manifest_entry(entry)
    raw["knobs"]["task"] = task
    code = _suite(tmp_path, raw)
    err = capsys.readouterr().err
    assert code == 2
    assert "knobs.task" in err and repr(task) in err
    assert not (tmp_path / "out").exists()


def test_cli_decay_without_stages_exits_2(tmp_path, capsys):
    assert _suite(tmp_path, {"experiment": "decay", "params": {"n": 1, "m": 0}}) == 2
    assert "knobs.stages: required" in capsys.readouterr().err


def _decay_spy(monkeypatch):
    solved = []
    monkeypatch.setattr(experiments, "ondiagonal_decay", lambda *a, **k: solved.append(a))
    return solved


def test_every_decay_stage_is_checked_before_any_stage_runs(monkeypatch):
    solved = _decay_spy(monkeypatch)
    raw = _manifest_entry("c03_decay_1d")
    raw["knobs"]["stages"][1]["boundary"] = "half_line_postive"
    with pytest.raises(ConfigError, match=r"knobs.stages\[1\].boundary: 'half_line_postive'"):
        run_experiment(ExperimentConfig.from_dict(raw))
    assert solved == []


def test_every_decay_stage_admits_its_times_before_any_stage_solves(monkeypatch):
    # the guard keeps 10 but refuses 1e6, whose boundary tail is near 1
    solved = _decay_spy(monkeypatch)
    raw = _manifest_entry("c03_decay_1d")
    raw["knobs"]["stages"][1]["times"] = [10.0, 1e6]
    with pytest.raises(ConfigError, match=r"knobs.stages\[1\].times: need at least two admissible"):
        run_experiment(ExperimentConfig.from_dict(raw))
    assert solved == []


def test_a_decay_stage_releases_its_operator_once_solved(monkeypatch):
    # the next stage's solve must not hold the last one's operator and spectrum
    solved, solve = [], experiments.ondiagonal_decay

    def spy(op, *args, **kwargs):
        assert [ref() for ref in solved] == [None] * len(solved)
        solved.append(weakref.ref(op))
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(experiments, "ondiagonal_decay", spy)
    stages = [{"extents": 4.0, "counts": c, "times": [0.1, 0.2], "slope": -0.5, "tol": 10.0}
              for c in (65, 129, 33)]
    run_experiment(ExperimentConfig.from_dict({
        "experiment": "decay", "params": {"n": 1, "m": 0},
        "method": {"kind": "exact_eigendecomposition"}, "knobs": {"stages": stages}}))
    assert len(solved) == 3


def _takes_one_value(field) -> bool:
    """Whether the method field refuses a value other than its default
    (half of it: the probe needs a number)."""
    if not isinstance(field.default, (int, float)):
        return False
    try:
        EvolutionMethod(**{field.name: field.default / 2})
    except ValueError:
        return True
    return False


def test_every_runner_knob_is_set_by_some_manifest_entry():
    # a knob no entry sets has one value in use: it belongs beside its code as a constant
    set_by = set()
    for raw in acceptance_manifest():
        set_by |= {(EvolutionMethod, name) for name in raw.get("method") or {}}
        knobs = dict(raw["knobs"])
        tasks = experiments._RUNNERS[raw["experiment"]]
        runner = tasks[knobs.pop("task", next(iter(tasks)))]
        set_by |= {(runner, name) for name in knobs}
        set_by |= {(experiments._decay_stage, name) for stage in knobs.get("stages", [])
                   for name in stage}
    runners = [r for tasks in experiments._RUNNERS.values() for r in tasks.values()]
    never = [f"{fn.__name__}.{p.name}" for fn in runners + [experiments._decay_stage]
             for p in inspect.signature(fn).parameters.values()
             if p.kind is p.KEYWORD_ONLY and (fn, p.name) not in set_by]
    # so is a method field, unless it takes one value only (an echo in every config hash)
    never += [f"method.{f.name}" for f in dataclasses.fields(EvolutionMethod)
              if (EvolutionMethod, f.name) not in set_by and not _takes_one_value(f)]
    assert never == []


def _knob_defaults():
    """(manifest entry, knob path, default) for every keyword-only parameter
    of every runner, in the first entry that runs it, and of the decay stage."""
    runs = {}
    for raw in acceptance_manifest():
        tasks = experiments._RUNNERS[raw["experiment"]]
        runs.setdefault(tasks[raw["knobs"].get("task", next(iter(tasks)))], raw["name"])
    runs[experiments._decay_stage] = "c02_decay_control"
    stage = ("knobs", "stages", 0)
    return [(entry, (*(stage if fn is experiments._decay_stage else ("knobs",)), p.name),
             p.default)
            for fn, entry in runs.items() for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY]


def test_every_knob_default_is_of_a_kind_the_typing_rule_knows():
    # bind types a value by its default: one of another kind would go unchecked
    odd = [path for _, path, d in _knob_defaults()
           if not (d is inspect.Parameter.empty or d is None
                   or isinstance(d, (bool, int, float, str, dict))
                   or isinstance(d, (list, tuple)) and len(d) > 0)]
    assert odd == []


def _wrong_kind(default):
    """A value of another kind than ``default``, and the kind it is not;
    None for a default that leaves the value to its reader."""
    if isinstance(default, bool):
        return "false", "true or false"
    if isinstance(default, (int, float)):
        return "1", "a number"
    if isinstance(default, (list, tuple)):
        return 1.0, "a list"
    return None


WRONG_KINDS = [(entry, path, *_wrong_kind(d)) for entry, path, d in _knob_defaults()
               if _wrong_kind(d)]


@pytest.mark.parametrize("entry, path, wrong, kind", WRONG_KINDS,
                         ids=[f"{e}-{'.'.join(map(str, p))}" for e, p, *_ in WRONG_KINDS])
def test_a_knob_value_not_of_its_defaults_kind_is_refused_before_anything_assembles(
        monkeypatch, entry, path, wrong, kind):
    assembled = []
    monkeypatch.setattr(experiments, "assemble", lambda *args: assembled.append(args))
    raw = _manifest_entry(entry)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = wrong
    named = "knobs" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])
    with pytest.raises(ConfigError) as err:
        plan_experiment(ExperimentConfig.from_dict(raw))
    assert str(err.value) == f"{named}: {wrong!r} is not {kind}"
    assert assembled == []


@pytest.mark.parametrize("raw", acceptance_manifest(), ids=lambda raw: raw["name"])
def test_manifest_knobs_bind_to_their_runners_signature(raw):
    # binds without running: the manifest and the signatures must not drift apart
    knobs = dict(raw["knobs"])
    tasks = experiments._RUNNERS[raw["experiment"]]
    bind(tasks[knobs.pop("task", next(iter(tasks)))], "knobs", knobs, None, None)
    for k, stage in enumerate(knobs.get("stages", [])):
        bind(experiments._decay_stage, f"knobs.stages[{k}]", stage, None, None, None, k)
    for name in ("origin_radii", "off_radii", "r_grid"):
        if name in knobs:
            bind(experiments._geomspace, f"knobs.{name}", knobs[name])
    if "vf_params" in knobs:
        bind(GrusinParameters, "knobs.vf_params", knobs["vf_params"])


@pytest.mark.parametrize("entry, path, value, named", [
    ("c14_free_space_oracle", ["oracle_tl"], 1e-30, "knobs.oracle_tl: unknown"),
    ("c03_decay_1d", ["stages", 1, "guard_levl"], 1e-6, "knobs.stages[1].guard_levl: unknown"),
    ("c03_decay_1d", ["stages", 0, "slope"], None, "knobs.stages[0].slope: required"),
    ("c11_compare", ["region"], [0.1, 0.4], "knobs.region: [0.1, 0.4] must stay outside"),
    ("c11_compare", ["region"], [7.0, 8.0], "knobs.region: no grid node"),
    ("c12_nash_full", ["r_grid", "hi"], None, "knobs.r_grid.hi: required"),
    ("c12_nash_full", ["r_grid", "hii"], 60.0, "knobs.r_grid.hii: unknown"),
    ("c12_nash_full", ["vf_params", "delta3"], 1.0, "knobs.vf_params.delta3: unknown"),
    ("c12_nash_full", ["vf_params", "delta1"], 1.5, "knobs.vf_params.delta1 must lie in [0, 1)"),
    ("c14_free_space_oracle", ["oracle"], "gauss_free_spce",
     "knobs.oracle: 'gauss_free_spce' is not one of [None, 'gauss_free_space']"),
    ("c10_speed_constant", ["metric"], "graf", "knobs.metric: 'graf' is not one of ['graph', 'euclidean']"),
    ("c03_decay_1d", ["stages", 0, "candidates"], "degeneracy_lin",
     "knobs.stages[0].candidates: 'degeneracy_lin' is not one of ['all', 'degeneracy_line']"),
    ("c03_decay_1d", ["stages", 1, "counts"], 4000, "knobs.stages[1]: node counts must be odd"),
    ("c13_operator_inequalities", ["trials"], 0, "knobs.trials must be a positive integer"),
    ("c13_operator_inequalities", ["dim"], 60, "knobs.dim must lie in 1..50"),
    ("c13_operator_inequalities", ["dim"], 0, "knobs.dim must be a positive integer"),
    ("c13_operator_inequalities", ["gamma"], 1.5, "knobs.gamma must lie in [0, 1]"),
    ("c13_hardy", ["count"], 15, "knobs.count must be even"),
    ("c13_hardy", ["gamma"], 2.0, "knobs.gamma must lie in"),
    ("c13_hardy", ["fraction_ok"], -0.5, "knobs.fraction_ok must be non-negative"),
    ("c13_hardy", ["fraction_fail"], -4.0, "knobs.fraction_fail must be non-negative"),
    # a count past its work guard, which would allocate or loop without end
    ("c12_nash_full", ["ensemble"], 1e300,
     "knobs.ensemble must lie in 1..10000 (work guard), got 1e+300"),
    ("c12_nash_half_line", ["ensemble"], 10001,
     "knobs.ensemble must lie in 1..10000 (work guard), got 10001"),
    ("c13_operator_inequalities", ["trials"], 1e300,
     "knobs.trials must lie in 1..100000 (work guard), got 1e+300"),
    ("c13_operator_inequalities", ["trials"], 100001,
     "knobs.trials must lie in 1..100000 (work guard), got 100001"),
    # an "all"-candidates stage guards from the origin, which dirichlet_origin removes
    ("c03_decay_1d", ["stages", 1, "boundary"], "dirichlet_origin", "knobs.stages[1].guard: "),
    # a bump with no support node, under the graph and the Euclidean metric
    ("c10_speed_classical", ["bump_center"], [30.0, 0.0], "knobs.bump_center: "),
    ("c10_speed_constant", ["bump_center"], [30.0, 0.0], "knobs.bump_center: "),
    # the degeneracy line starts at the origin, which dirichlet_origin removes
    ("c02_decay_classical", ["stages", 0, "boundary"], "dirichlet_origin",
     "knobs.stages[0].candidates[0]: point [0.0, 0.0] resolves to a node the 'dirichlet_origin'"),
    # a check with nothing to test
    ("c01_conservation_1d", ["n_sources"], 0, "knobs.n_sources must be a positive integer"),
    ("c01_conservation_1d", ["times"], [], "knobs.times: must not be empty"),
    ("c06_doubling", ["centers"], [], "knobs.centers: must not be empty"),
    ("c03_decay_1d", ["stages"], [], "knobs.stages: must not be empty"),
    ("c14_free_space_oracle", ["symmetry_point"], [0.0], "knobs.symmetry_point: "),
    ("c12_nash_full", ["ensemble"], 0, "knobs.ensemble must be a positive integer"),
    ("c04_distance", ["n_sources"], 0, "knobs.n_sources must be a positive integer"),
    ("c04_distance", ["n_targets"], 0, "knobs.n_targets must be a positive integer"),
    ("c04_distance", ["min_closed"], 100.0, "knobs.min_closed: "),
    # a knob that became a constant beside its code is refused, not silently ignored
    ("c01_conservation_1d", ["boundary"], "neumann_truncation", "knobs.boundary: unknown field"),
    ("c04_distance", ["box_fraction"], 0.5, "knobs.box_fraction: unknown field"),
    ("c09_davies_gaffney", ["pairs"], [{"center_a": -2.5, "center_b": 1.5, "halfwidth": 0.5}],
     "knobs.pairs: unknown field"),
    ("c08_gaussian_bounds", ["sources"], [[0.5, 0.5], [0.0, 1.5]], "knobs.sources: unknown field"),
    # a ladder of no grid levels
    ("c07_separation_weak", ["refinements"], 0, "knobs.refinements must be a positive integer"),
    ("c10_speed_classical", ["refinements"], 0, "knobs.refinements must be a positive integer"),
    # a count past its work guard, bound as an int: a ladder finer without end, or
    # an allocation of 1e300 points
    ("c07_separation_weak", ["refinements"], 1e300,
     "knobs.refinements: the finest of 1e+300 levels of the grid of (201,) nodes holds more "
     "than 1052676 nodes (work guard)"),
    ("c07_separation_strong", ["refinements"], 1e300, "knobs.refinements: the finest of 1e+300"),
    ("c10_speed_classical", ["refinements"], 1e300,
     "knobs.refinements: the finest of 1e+300 levels of the grid of (257, 257) nodes"),
    ("c10_speed_constant", ["refinements"], 4,
     "knobs.refinements: the finest of 4 levels of the grid of (257, 257) nodes holds more "
     "than 1052676 nodes (work guard)"),
    ("c01_conservation_1d", ["n_sources"], 1e300,
     "knobs.n_sources must lie in 1..100 (work guard), got 1e+300"),
    ("c04_distance", ["n_sources"], 1e300,
     "knobs.n_sources must lie in 1..100 (work guard), got 1e+300"),
    ("c04_distance", ["n_targets"], 1e300,
     "knobs.n_targets must lie in 1..100 (work guard), got 1e+300"),
    ("c04_distance", ["n_targets"], 101, "knobs.n_targets must lie in 1..100 (work guard), got 101"),
    ("c11_compare", ["n_times"], 1e300, "knobs.n_times must lie in 1..100 (work guard), got 1e+300"),
    ("c06_doubling", ["n_radii"], 1e300, "knobs.n_radii must lie in 1..100 (work guard), got 1e+300"),
    # a bump of no width, or of a negative one
    ("c10_speed_classical", ["bump_width"], 0.0, "knobs.bump_width: 0.0 must be positive"),
    ("c10_speed_constant", ["bump_width"], -0.6, "knobs.bump_width: -0.6 must be positive"),
    # a config point on a node the boundary removed, or off the grid
    ("c07_separation_weak", ["sources"], [[1.0], [0.0]], "knobs.sources[1]: point [0.0] resolves"),
    ("c02_decay_control", ["stages", 0, "boundary"], "dirichlet_origin",
     "knobs.stages[0].candidates[0]: point [0.0, 0.0] resolves"),
    ("c14_free_space_oracle", ["source"], [50.0], "knobs.source: point [50.0] lies off the grid"),
    ("c06_doubling", ["centers"], [[0.0], [50.0]], "knobs.centers[1]: point [50.0] lies off"),
    # two points of one list on one node, which would run as one point
    ("c02_decay_control", ["stages", 0, "candidates"], [[0.0, 0.0], [0.5, 0.5], [0.51, 0.49]],
     "knobs.stages[0].candidates[2]: point [0.51, 0.49] resolves to the node of "
     "knobs.stages[0].candidates[1]"),
    ("c07_separation_strong", ["sources"], [[1.0], [1.01]],
     "knobs.sources[1]: point [1.01] resolves to the node of knobs.sources[0]"),
    ("c06_doubling", ["centers"], [[0.0], [0.0002]],
     "knobs.centers[1]: point [0.0002] resolves to the node of knobs.centers[0]"),
    # a stage whose boundary guard leaves one time, or that gives one
    ("c02_decay_control", ["stages", 0, "times"], [0.1, 20.0],
     "knobs.stages[0].times: need at least two admissible times"),
    ("c03_decay_1d", ["stages", 1, "times"], [1.0],
     "knobs.stages[1].times: need at least two admissible times"),
    # a time at or below 0, where no kernel is defined
    ("c01_conservation_1d", ["times"], [0.01, 0.0], "knobs.times[1]: 0.0 must be positive"),
    ("c14_free_space_oracle", ["t"], 0.0, "knobs.t: 0.0 must be positive"),
    ("c08_gaussian_bounds", ["times"], [0.1, -0.2, 0.4], "knobs.times[1]: -0.2 must be positive"),
    ("c07_separation_weak", ["t"], -1.0, "knobs.t: -1.0 must be positive"),
    ("c02_decay_control", ["stages", 0, "times"], [0.0, 0.5, 1.0],
     "knobs.stages[0].times[0]: 0.0 must be positive"),
    ("c02_decay_control", ["stages", 0, "times"], [0.5, -0.1, 1.0],
     "knobs.stages[0].times[1]: -0.1 must be positive"),
])
def test_cli_bad_knob_exits_2_naming_it(tmp_path, capsys, entry, path, value, named):
    # set the knob at ``path`` of the entry, or drop it (value None)
    raw = _manifest_entry(entry)
    *keys, last = path
    node = raw["knobs"]
    for key in keys:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    assert _suite(tmp_path, raw) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (entry, knob, value): a count spelled as an integral float, which the plan binds as an int
BOUND_COUNTS = [
    ("c01_conservation_1d", "n_sources", 10.0), ("c04_distance", "n_sources", 10.0),
    ("c04_distance", "n_targets", 11.0), ("c04_distance", "stencil_order", 2.0),
    ("c06_doubling", "n_radii", 8.0), ("c07_separation_strong", "refinements", 3.0),
    ("c07_separation_weak", "refinements", 3.0)]
PLANNED_COUNTS = [("c10_speed_classical", "refinements", 2.0),
                  ("c10_speed_constant", "refinements", 2.0), ("c11_compare", "n_times", 8.0)]


@pytest.mark.parametrize("entry, knob, value", BOUND_COUNTS + PLANNED_COUNTS)
def test_a_runner_binds_an_integral_float_count_as_its_int(entry, knob, value):
    raw = _manifest_entry(entry)
    assert isinstance(raw["knobs"][knob], int) and raw["knobs"][knob] == value
    raw["knobs"][knob] = value
    _, solve = plan_experiment(ExperimentConfig.from_dict(raw))
    # the runner, suspended at its plan's yield, holds the value its solve reads
    runner = inspect.getclosurevars(solve).nonlocals["steps"]
    bound = inspect.getgeneratorlocals(runner)[knob]
    assert type(bound) is int and bound == value


def test_the_refinement_ceiling_admits_one_more_level_of_c10():
    raw = _manifest_entry("c10_speed_classical")
    raw["knobs"]["refinements"] = 3  # the finest level 1025^2 = 1050625 nodes
    plan_experiment(ExperimentConfig.from_dict(raw))
    assert 1025**2 <= experiments.MAX_LEVEL_NODES < 2049**2


@pytest.mark.parametrize("entry, knob, value", [
    ("c12_nash_full", "ensemble", 200.0), ("c12_nash_half_line", "ensemble", 200.0),
    ("c13_operator_inequalities", "trials", 1000.0), ("c13_operator_inequalities", "dim", 20.0),
    ("c13_hardy", "count", 14.0), ("c13_hardy", "n", 3.0), *BOUND_COUNTS])
def test_an_integral_float_count_solves_as_its_int_spelling(tmp_path, entry, knob, value):
    # every CSV row and report.json apart from the config echo, its hash and timings
    raw = _manifest_entry(entry)
    spelled = json.loads(json.dumps(raw))
    spelled["knobs"][knob] = value
    assert isinstance(raw["knobs"][knob], int) and raw["knobs"][knob] == value
    for tag, doc in (("int", raw), ("float", spelled)):
        write_report(tmp_path / tag, run_experiment(ExperimentConfig.from_dict(doc)))
    names = sorted(p.name for p in (tmp_path / "int").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "float").iterdir())
    for name in names:
        a, b = ((tmp_path / tag / name).read_text() for tag in ("int", "float"))
        if name == "report.json":
            a, b = (json.loads(text) for text in (a, b))
            for key in ("config", "config_hash", "timings"):
                a.pop(key), b.pop(key)
            assert a == b, name
        else:
            assert a.split("\n", 1)[1] == b.split("\n", 1)[1], name


def test_separation_resolves_every_level_before_the_first_solves(tmp_path, capsys, monkeypatch):
    # [1.019] and [1.021] snap to two nodes of level 0 (spacing 0.04) and to
    # one node of level 1 (spacing 0.02)
    calls = []
    monkeypatch.setattr(experiments, "separation_check", lambda *args: calls.append(args))
    raw = _manifest_entry("c07_separation_weak")
    raw["knobs"]["sources"] = [[1.019], [1.021]]
    assert _suite(tmp_path, raw) == 2
    assert ("knobs.sources[1]: point [1.021] resolves to the node of knobs.sources[0]"
            in capsys.readouterr().err)
    assert calls == []
    assert not (tmp_path / "out").exists()


# a grid too coarse or too small for a runner's constant points
@pytest.mark.parametrize("entry, grid, named", [
    ("c09_davies_gaffney", {"extents": 8.0, "counts": 3},
     "grid: the Davies-Gaffney set |x1 - c| <= 0.5 at c = -2.5 holds no node of the grid of (3,)"),
    ("c08_gaussian_bounds", {"extents": 6.0, "counts": 9},
     "grid: level 0 of (9, 9) nodes cannot hold the Gaussian-bound sources[6]: point [0.5, 0.5] "
     "resolves to the node of sources[0]"),
])
def test_cli_grid_that_cannot_hold_a_constant_point_exits_2(tmp_path, capsys, entry, grid, named):
    raw = _manifest_entry(entry)
    raw["grid"] = grid
    assert _suite(tmp_path, raw) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (entry, {path: value}, message): one bad value for each check a plan makes
PLAN_CHECKS = [
    ("c01_conservation_1d", {("knobs", "n_sources"): 0}, "knobs.n_sources must be a positive"),
    ("c01_conservation_1d", {("knobs", "times"): [0.01, 0.0]}, "knobs.times[1]: 0.0 must be"),
    ("c03_decay_1d", {("knobs", "stages", 1, "boundary"): "half_line_negative"},
     "knobs.stages[1].boundary: 'half_line_negative' is not one of "
     "['neumann_truncation', 'dirichlet_origin', 'half_line_positive']"),
    ("c03_decay_1d", {("knobs", "stages", 1, "counts"): 4000},
     "knobs.stages[1]: node counts must be odd"),
    ("c03_decay_1d", {("knobs", "stages", 1, "boundary"): "dirichlet_origin"},
     "knobs.stages[1].guard: "),
    ("c03_decay_1d", {("knobs", "stages", 1, "times"): [10.0, 1e6]},
     "knobs.stages[1].times: need at least two admissible times"),
    ("c02_decay_control", {("knobs", "stages", 0, "candidates"): "all"},
     "knobs.stages[0].candidates: 'all' reads the whole diagonal, which the "
     "'krylov_exponential' method does not give"),
    ("c02_decay_control", {("knobs", "stages", 0, "label"): 5},
     "knobs.stages[0].label: 5 is not a string"),
    # the series gives a decay stage's candidate diagonal only
    ("c01_conservation_1d", {("method", "kind"): "krylov_exponential"},
     "method.kind: 'krylov_exponential' gives only a decay stage's candidate diagonal, not a "
     "'conservation' run"),
    ("c04_distance", {("method",): {"kind": "krylov_exponential"}},
     "not a 'distance' run"),
    ("c05_volume_slopes", {("method",): {"kind": "krylov_exponential"}}, "not a 'volume' run"),
    ("c07_separation_strong", {("method", "kind"): "krylov_exponential"},
     "not a 'separation' run"),
    ("c08_gaussian_bounds", {("method", "kind"): "krylov_exponential"},
     "not a 'heat_kernel' run"),
    ("c09_davies_gaffney", {("method", "kind"): "krylov_exponential"}, "not a 'wave' run"),
    ("c11_compare", {("method", "kind"): "krylov_exponential"}, "not a 'compare' run"),
    ("c13_hardy", {("method",): {"kind": "krylov_exponential"}}, "not a 'nash' run"),
    ("c02_decay_control", {("knobs", "stages", 0, "candidates"): "degeneracy_lin"},
     "knobs.stages[0].candidates: 'degeneracy_lin' is not one of"),
    ("c02_decay_control", {("knobs", "stages", 0, "candidates"): [[0.0, 0.0], [0.01, 0.0]]},
     "knobs.stages[0].candidates[1]: point [0.01, 0.0] resolves to the node of"),
    ("c02_decay_control", {("knobs", "stages", 0, "times"): [0.5, -0.1]},
     "knobs.stages[0].times[1]: -0.1 must be positive"),
    ("c02_decay_classical", {("knobs", "stages", 0, "boundary"): "dirichlet_origin"},
     "knobs.stages[0].candidates[0]: point [0.0, 0.0] resolves to a node the 'dirichlet_origin'"),
    ("c04_distance", {("knobs", "min_closed"): 100.0}, "knobs.min_closed: no pair of level 0"),
    ("c04_distance", {("knobs", "n_targets"): 0}, "knobs.n_targets must be a positive integer"),
    ("c04_distance", {("knobs", "n_sources"): 0}, "knobs.n_sources must be a positive integer"),
    ("c05_volume_slopes", {("knobs", "origin_radii", "lo"): 0.0}, "knobs.origin_radii: "),
    ("c05_volume_slopes", {("knobs", "off_center"): [50.0, 0.0]},
     "knobs.off_center: point [50.0, 0.0] lies off the grid"),
    ("c06_doubling", {("knobs", "centers"): [[0.0], [0.0002]]},
     "knobs.centers[1]: point [0.0002] resolves to the node of knobs.centers[0]"),
    ("c06_doubling", {("knobs", "centers"): [[0.0], [50.0]]},
     "knobs.centers[1]: point [50.0] lies off the grid"),
    ("c07_separation_weak", {("knobs", "sources"): [[1.019], [1.021]]},
     "knobs.sources[1]: point [1.021] resolves to the node of knobs.sources[0]"),
    ("c07_separation_weak", {("knobs", "t"): -1.0}, "knobs.t: -1.0 must be positive"),
    ("c07_separation_strong", {("knobs", "refinements"): 0}, "knobs.refinements must be a"),
    ("c07_separation_strong", {("params", "n"): 2}, "params.n: separation compares the "
     "half-spaces x1 >= 0 and x1 <= 0, so it needs n = 1, got 2"),
    ("c08_gaussian_bounds", {("grid", "counts"): 9}, "grid: level 0 of (9, 9) nodes cannot hold"),
    ("c08_gaussian_bounds", {("knobs", "times"): [0.1, -0.2]}, "knobs.times[1]: -0.2 must be"),
    ("c09_davies_gaffney", {("grid", "counts"): 3}, "grid: the Davies-Gaffney set"),
    ("c10_speed_classical", {("knobs", "bump_center"): [30.0, 0.0]}, "knobs.bump_center: the "
     "bump at [30.0, 0.0] has no support node on the grid of (257, 257) nodes"),
    ("c10_speed_constant", {("knobs", "bump_center"): [100, 0]}, "knobs.bump_center: "),
    ("c10_speed_constant", {("knobs", "metric"): "graf"}, "knobs.metric: 'graf' is not one of"),
    ("c10_speed_classical", {("knobs", "bump_width"): 0.0}, "knobs.bump_width: 0.0 must be"),
    ("c10_speed_constant", {("knobs", "refinements"): 0}, "knobs.refinements must be a positive"),
    ("c11_compare", {("knobs", "region"): [0.1, 0.4]}, "knobs.region: [0.1, 0.4] must stay"),
    ("c11_compare", {("knobs", "region"): [50, 60]},
     "knobs.region: no grid node has |x1| in [50, 60]"),
    ("c12_nash_full", {("grid", "extents"): 2.0, ("grid", "counts"): 17},
     "grid: resolution too coarse for the narrowest bump: axis 0 of (17, 17) nodes"),
    ("c12_nash_full", {("knobs", "ensemble"): 0}, "knobs.ensemble must be a positive integer"),
    ("c12_nash_full", {("knobs", "vf_params", "delta1"): 1.5}, "knobs.vf_params.delta1 must"),
    ("c13_hardy", {("knobs", "count"): 15}, "knobs.count must be even"),
    ("c13_hardy", {("knobs", "count"): 2}, "knobs.count must be at least 4"),
    ("c13_hardy", {("knobs", "gamma"): 2.0}, "knobs.gamma must lie in"),
    ("c13_operator_inequalities", {("knobs", "dim"): 60}, "knobs.dim must lie in 1..50"),
    ("c13_operator_inequalities", {("knobs", "trials"): 0}, "knobs.trials must be a positive"),
    ("c12_nash_half_line", {("knobs", "ensemble"): 1e300}, "knobs.ensemble must lie in 1..10000"),
    ("c13_operator_inequalities", {("knobs", "trials"): 1e300}, "knobs.trials must lie in"),
    ("c14_free_space_oracle", {("knobs", "source"): [50.0]}, "knobs.source: point [50.0] lies"),
    ("c14_free_space_oracle", {("knobs", "symmetry_point"): [0.0]},
     "knobs.symmetry_point: [0.0] resolves to the source's node"),
    ("c14_free_space_oracle", {("knobs", "t"): 0.0}, "knobs.t: 0.0 must be positive"),
    ("c14_free_space_oracle", {("knobs", "oracle"): "gauss"}, "knobs.oracle: 'gauss' is not"),
    ("c14_free_space_oracle", {("params", "delta1"): 0.25},
     "knobs.oracle: 'gauss_free_space' is the kernel of the 1-D free space"),
    ("c14_free_space_oracle", {("params", "m"): 1, ("knobs", "source"): [0.0, 0.0],
                               ("knobs", "symmetry_point"): [0.5, 0.0]},
     "knobs.oracle: 'gauss_free_space' is the kernel of the 1-D free space"),
    ("c13_hardy", {("knobs", "task"): "hardyy"}, "knobs.task: 'hardyy' is not a task of 'nash'"),
    ("c13_hardy", {("knobs", "task"): ["hardy"]}, "knobs.task: ['hardy'] is not a task of 'nash'"),
    ("c13_hardy", {("experiment",): "frobnicate"}, "experiment: 'frobnicate' is not one of"),
    # a knob value of the wrong type: a string, a null or a bool for a number, a short point
    ("c01_conservation_1d", {("knobs", "times"): ["a"]}, "knobs.times[0]: 'a' is not a number"),
    ("c01_conservation_1d", {("knobs", "times"): [0.01, None]},
     "knobs.times[1]: None is not a number"),
    ("c01_conservation_1d", {("knobs", "times"): [True]}, "knobs.times[0]: True is not a number"),
    ("c07_separation_weak", {("knobs", "t"): "1"}, "knobs.t: '1' is not a number"),
    ("c10_speed_constant", {("knobs", "bump_center"): [1.0]},
     "knobs.bump_center: point must have 2 coordinates"),
    # a value the solve would refuse, refused by the plan
    ("c04_distance", {("knobs", "stencil_order"): 0},
     "knobs.stencil_order must be a positive integer"),
    ("c06_doubling", {("knobs", "n_radii"): 3}, "knobs.n_radii: need at least 8 radii"),
    ("c06_doubling", {("knobs", "r0"): 0.0}, "knobs.r0: 0.0 must be positive"),
    ("c06_doubling", {("knobs", "r0"): -0.1}, "knobs.r0: -0.1 must be positive"),
    ("c09_davies_gaffney", {("knobs", "exponent_targets"): [-4, 9]},
     "knobs.exponent_targets[0]: -4 must be positive"),
    ("c11_compare", {("knobs", "n_times"): 0}, "knobs.n_times must be a positive integer"),
    ("c11_compare", {("knobs", "exponent_range"): [-2.0, 16.0]},
     "knobs.exponent_range[0]: -2.0 must be positive"),
    ("c11_compare", {("knobs", "exponent_range"): [2.0, 0.0]},
     "knobs.exponent_range[1]: 0.0 must be positive"),
    ("c05_volume_slopes", {("knobs", "origin_radii", "lo"): -1},
     "knobs.origin_radii: lo: -1 must be positive"),
    ("c05_volume_slopes", {("knobs", "off_radii", "n"): 0},
     "knobs.off_radii.n must be a positive integer"),
    ("c12_nash_full", {("knobs", "r_grid", "hi"): -60.0},
     "knobs.r_grid: hi: -60.0 must be positive"),
    ("c12_nash_full", {("knobs", "r_grid", "lo"): -1}, "knobs.r_grid: lo: -1 must be positive"),
    # a bound, tolerance or other number knob that is not a real number
    ("c01_conservation_1d", {("knobs", "bound"): "1e-8"}, "knobs.bound: '1e-8' is not a number"),
    ("c03_decay_1d", {("knobs", "stages", 1, "tol"): None},
     "knobs.stages[1].tol: None is not a number"),
    ("c03_decay_1d", {("knobs", "stages", 0, "slope"): "-1"},
     "knobs.stages[0].slope: '-1' is not a number"),
    ("c04_distance", {("knobs", "min_closed"): "0.1"}, "knobs.min_closed: '0.1' is not a number"),
    ("c04_distance", {("knobs", "stability_factor"): [1.25]},
     "knobs.stability_factor: [1.25] is not a number"),
    ("c05_volume_slopes", {("knobs", "tol"): True}, "knobs.tol: True is not a number"),
    ("c06_doubling", {("knobs", "slack"): "0.3"}, "knobs.slack: '0.3' is not a number"),
    ("c07_separation_weak", {("knobs", "weak_gap_min"): "0.001"},
     "knobs.weak_gap_min: '0.001' is not a number"),
    ("c07_separation_strong", {("knobs", "strong_gap_bound"): None},
     "knobs.strong_gap_bound: None is not a number"),
    ("c08_gaussian_bounds", {("knobs", "epsilon"): "0.1"}, "knobs.epsilon: '0.1' is not a number"),
    ("c08_gaussian_bounds", {("knobs", "stability_factor"): False},
     "knobs.stability_factor: False is not a number"),
    ("c09_davies_gaffney", {("knobs", "epsilon"): True}, "knobs.epsilon: True is not a number"),
    ("c09_davies_gaffney", {("knobs", "min_samples"): "20"},
     "knobs.min_samples: '20' is not a number"),
    ("c10_speed_classical", {("knobs", "leak_bound"): True},
     "knobs.leak_bound: True is not a number"),
    ("c10_speed_constant", {("knobs", "epsilon"): "0.1"}, "knobs.epsilon: '0.1' is not a number"),
    ("c11_compare", {("knobs", "r_cut"): "1"}, "knobs.r_cut: '1' is not a number"),
    ("c11_compare", {("knobs", "slope_bound"): None}, "knobs.slope_bound: None is not a number"),
    ("c11_compare", {("knobs", "stability_factor"): "2"},
     "knobs.stability_factor: '2' is not a number"),
    ("c11_compare", {("knobs", "control_tol"): True}, "knobs.control_tol: True is not a number"),
    ("c12_nash_full", {("knobs", "stability_factor"): "1.25"},
     "knobs.stability_factor: '1.25' is not a number"),
    ("c13_hardy", {("knobs", "gamma"): "1.0"}, "knobs.gamma: '1.0' is not a number"),
    ("c13_hardy", {("knobs", "fraction_ok"): "0.5"}, "knobs.fraction_ok: '0.5' is not a number"),
    ("c13_operator_inequalities", {("knobs", "violation_bound"): "-1e-10"},
     "knobs.violation_bound: '-1e-10' is not a number"),
    ("c14_free_space_oracle", {("knobs", "mass_tol"): "1e-8"},
     "knobs.mass_tol: '1e-8' is not a number"),
    ("c14_free_space_oracle", {("knobs", "oracle_tol"): None},
     "knobs.oracle_tol: None is not a number"),
    # a pair knob that is not two numbers
    ("c11_compare", {("knobs", "region"): [1, 2, 3]},
     "knobs.region: [1, 2, 3] must be a list of two numbers"),
    ("c11_compare", {("knobs", "region"): ["1", 2]}, "knobs.region[0]: '1' is not a number"),
    ("c11_compare", {("knobs", "exponent_range"): [2.0]},
     "knobs.exponent_range: [2.0] must be a list of two numbers"),
    ("c11_compare", {("knobs", "exponent_range"): [2, 16, 30]},
     "knobs.exponent_range: [2, 16, 30] must be a list of two numbers"),
    # a value not of its default's kind: a bool, a number, a list
    ("c11_compare", {("knobs", "control"): "false"},
     "knobs.control: 'false' is not true or false"),
    ("c12_nash_half_line", {("knobs", "half_line"): 0}, "knobs.half_line: 0 is not true or false"),
    ("c02_decay_control", {("knobs", "stages", 0, "guard"): "false"},
     "knobs.stages[0].guard: 'false' is not true or false"),
    ("c01_conservation_1d", {("knobs", "times"): 0.5}, "knobs.times: 0.5 is not a list"),
    ("c09_davies_gaffney", {("knobs", "exponent_targets"): 4.0},
     "knobs.exponent_targets: 4.0 is not a list"),
    ("c06_doubling", {("knobs", "centers"): 5}, "knobs.centers: 5 is not a list"),
    ("c06_doubling", {("knobs", "centers"): [5.0]}, "knobs.centers[0]: 5.0 is not a list"),
    ("c07_separation_weak", {("knobs", "sources"): 5}, "knobs.sources: 5 is not a list"),
    ("c14_free_space_oracle", {("knobs", "t"): [0.1]}, "knobs.t: [0.1] is not a number"),
    ("c10_speed_classical", {("knobs", "bump_width"): [0.6]},
     "knobs.bump_width: [0.6] is not a number"),
    ("c06_doubling", {("knobs", "r0"): [0.1]}, "knobs.r0: [0.1] is not a number"),
    ("c01_conservation_1d", {("seed",): True}, "seed: True is not a number"),
    ("c01_conservation_1d", {("params", "delta1"): "0.25"},
     "params.delta1: '0.25' is not a number"),
    ("c01_conservation_1d", {("method", "tolerance"): "1e-6"},
     "method.tolerance: '1e-6' is not a number"),
    # a value no default types, typed where it is read: a stage's fields, the name, a radius
    # spec's bounds, a config point, a grid
    ("c02_decay_control", {("knobs", "stages", 0, "times"): 0.5},
     "knobs.stages[0].times: 0.5 is not a list"),
    ("c02_decay_control", {("knobs", "stages", 0, "candidates"): 5},
     "knobs.stages[0].candidates: 5 is not a list"),
    ("c01_conservation_1d", {("name",): 5}, "name: 5 is not a string"),
    ("c03_decay_1d", {("knobs", "stages"): 5}, "knobs.stages: 5 is not a list"),
    ("c05_volume_slopes", {("knobs", "origin_radii", "lo"): [0.5]},
     "knobs.origin_radii: lo: [0.5] is not a number"),
    ("c14_free_space_oracle", {("knobs", "source"): {}},
     "knobs.source: point {} is not a list of numbers"),
    ("c14_free_space_oracle", {("knobs", "symmetry_point"): [True]},
     "knobs.symmetry_point: point [True] is not a list of numbers"),
    ("c10_speed_classical", {("knobs", "bump_center"): [True, 0.0]},
     "knobs.bump_center: point [True, 0.0] is not a list of numbers"),
    ("c01_conservation_1d", {("grid", "extents"): "6"}, "grid.extents must be a number, got '6'"),
    ("c03_decay_1d", {("knobs", "stages", 1, "extents"): "150"},
     "knobs.stages[1].extents must be a number, got '150'"),
    ("c03_decay_1d", {("knobs", "stages", 1, "counts"): 4001.5},
     "knobs.stages[1].counts must be a positive integer, got 4001.5"),
    # a number that is not finite (JSON's Infinity and NaN)
    ("c01_conservation_1d", {("grid", "extents"): float("inf")},
     "grid.extents must be a number, got inf"),
    ("c01_conservation_1d", {("params", "delta2"): float("inf")},
     "params.delta2: inf is not a number"),
    ("c14_free_space_oracle", {("knobs", "source"): [float("inf")]},
     "knobs.source: point [inf] is not a list of numbers"),
    ("c01_conservation_1d", {("knobs", "bound"): float("nan")}, "knobs.bound: nan is not a number"),
    # an operator past the factored spectrum's storage ceiling, on each heat runner's grid
    ("c01_conservation_1d", {("grid", "counts"): 4501, ("method", "kind"): "auto"},
     "grid: exact spectrum of 1 fibers of 4501 x1 nodes stores 20259001 floats > 4500^2"),
    ("c14_free_space_oracle", {("grid", "counts"): 4501},
     "grid: exact spectrum of 1 fibers of 4501 x1 nodes stores 20259001 floats > 4500^2"),
    ("c09_davies_gaffney", {("grid", "counts"): 4501},
     "grid: exact spectrum of 1 fibers of 4501 x1 nodes stores 20259001 floats > 4500^2"),
    ("c03_decay_1d", {("knobs", "stages", 0, "counts"): 9001},  # 4,501 kept on the half-line
     "knobs.stages[0]: exact spectrum of 1 fibers of 4501 x1 nodes stores 20259001 floats"),
    # the finest level's Neumann operator: 1,201 -> 4,801 and 2,301 -> 4,601 nodes
    ("c07_separation_weak", {("grid", "counts"): 1201},
     "grid: exact spectrum of 1 fibers of 4801 x1 nodes stores 23049601 floats > 4500^2"),
    ("c11_compare", {("grid", "counts"): 2301},
     "grid: exact spectrum of 1 fibers of 4601 x1 nodes stores 21169201 floats > 4500^2"),
    ("c08_gaussian_bounds", {("grid", "counts"): 137},
     "grid: exact spectrum of 273 fibers of 273 x1 nodes stores 20346417 floats > 4500^2"),
    # a decay stage the solve could not fit: no row to take the sup over, a time counted twice
    ("c03_decay_1d", {("knobs", "stages", 0, "counts"): 3},  # delta1 = 1/2: both nodes isolated
     "knobs.stages[0].candidates: 'all' takes the sup over the rows that are not isolated "
     "cells, and this operator has none"),
    ("c03_decay_1d", {("knobs", "stages", 0, "times"): [0.1, 0.1]},
     "knobs.stages[0].times[1]: 0.1 repeats knobs.stages[0].times[0]"),
    ("c03_decay_1d", {("knobs", "stages", 1, "times"): [20.0, 10.0, 20.0]},
     "knobs.stages[1].times[2]: 20.0 repeats knobs.stages[1].times[0]"),
    # a slack or compare knob the solve would divide by, or fit, badly
    ("c08_gaussian_bounds", {("knobs", "epsilon"): -0.1}, "knobs.epsilon: -0.1 must be positive"),
    ("c09_davies_gaffney", {("knobs", "epsilon"): -1}, "knobs.epsilon: -1 must be positive"),
    ("c10_speed_classical", {("knobs", "epsilon"): -0.5}, "knobs.epsilon: -0.5 must be positive"),
    ("c10_speed_constant", {("knobs", "epsilon"): 0.0}, "knobs.epsilon: 0.0 must be positive"),
    ("c11_compare", {("knobs", "r_cut"): -1}, "knobs.r_cut: -1 must be positive"),
    ("c11_compare", {("knobs", "r_cut"): 0}, "knobs.r_cut: 0 must be positive"),
    ("c11_compare", {("knobs", "n_times"): 1}, "knobs.n_times: 1 must be at least 2"),
    ("c11_compare", {("knobs", "exponent_range"): [16.0, 2.0]},
     "knobs.exponent_range: [16.0, 2.0] must be increasing"),
]


@pytest.mark.parametrize("entry, changes, named", PLAN_CHECKS,
                         ids=[f"{e}-{'.'.join(map(str, path))}={value}" for e, changes, _
                              in PLAN_CHECKS for path, value in list(changes.items())[-1:]])
def test_suite_raises_a_later_entrys_bad_value_before_any_entry_solves(
        tmp_path, capsys, monkeypatch, entry, changes, named):
    solved = []  # the first entry's solve reads heat kernels; its plan reads none
    monkeypatch.setattr(experiments, "heat_kernel", lambda *args: solved.append(args))
    bad = _manifest_entry(entry)
    for (*keys, last), value in changes.items():
        node = bad
        for key in keys:
            node = node[key]
        node[last] = value
    assert _suite(tmp_path, FAST_CONFIG, bad) == 2
    assert named in capsys.readouterr().err
    assert solved == []
    assert not (tmp_path / "out").exists()


def test_a_series_decay_stage_reads_past_the_storage_ceiling():
    # under krylov_exponential a stage reads one series per candidate, not the spectrum
    stage = {"extents": 8.0, "counts": 4501, "times": [0.1, 0.2], "candidates": [[0.0]],
             "slope": -0.5, "tol": 0.1}
    rep = run_experiment(ExperimentConfig.from_dict({
        "experiment": "decay", "params": {"n": 1, "m": 0},
        "method": {"kind": "krylov_exponential"}, "knobs": {"stages": [stage]}}))
    assert rep["passed"]


# at t = 100 the 3-node Dirichlet diagonal lies far below the series tolerance
# (the series reads -1e-9)
FLOOR_ENTRY = {
    "name": "floor", "experiment": "decay", "params": {"n": 1, "m": 0},
    "method": {"kind": "krylov_exponential"},
    "knobs": {"stages": [{"extents": 2.0, "counts": 3, "boundary": "dirichlet_origin",
                          "times": [1.0, 100.0], "candidates": [[1.0]], "slope": -0.5,
                          "tol": 10.0}]},
}


def test_a_decay_stage_refuses_a_sup_at_or_below_its_tolerance():
    # a named error, not a NaN slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError, match=r"knobs.stages\[0\].times: at t = 100 the sup "
                           r".* is at or below the tolerance 1e-08 over the node weight"):
            run_experiment(ExperimentConfig.from_dict(FLOOR_ENTRY))


def test_a_guard_only_a_solve_sees_is_a_solver_guard_not_a_config_error(tmp_path, capsys):
    # a clean exit 1 naming the guard, not a traceback; the entry before has
    # written its files by then, and a config error (exit 2) means that
    # nothing was written
    assert _suite(tmp_path, FAST_CONFIG, FLOOR_ENTRY) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver guard: knobs.stages[0].times: at t = 100 the sup")
    assert "Traceback" not in err
    assert (tmp_path / "out" / "tiny" / "report.json").exists()


def test_planning_every_manifest_entry_factors_sums_propagates_and_writes_nothing(monkeypatch):
    called = []

    def spy(owner, name):
        real = getattr(owner, name)

        def record(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, record)

    spy(FiberSpectrum, "_eigenpairs")  # a plan checks the ceiling, but factors no component
    spy(evolution, "_chebyshev_terms")
    spy(wave, "cosine_propagator")
    spy(reporting, "write_report")
    plans = {raw["name"]: plan_experiment(ExperimentConfig.from_dict(raw))
             for raw in acceptance_manifest()}
    assert len(plans) == 20 and called == []
    rep, solve = plans["c14_free_space_oracle"]
    solve()  # the spies see a solve
    assert rep["passed"] and set(called) == {"_eigenpairs"}


def _raises(node, names) -> bool:
    """Whether ``node`` raises ConfigError or calls, by name, one of ``names``."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "ConfigError"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _config_error_raisers(trees) -> set:
    """Names of the functions of ``trees`` that raise ConfigError, themselves
    or through a call to another such function."""
    funcs = [f for tree in trees for f in tree.body if isinstance(f, ast.FunctionDef)]
    names = set()
    while True:
        more = {f.name for f in funcs if any(_raises(node, names) for node in ast.walk(f))}
        if more == names:
            return names
        names = more


def test_no_runner_or_stage_raises_a_config_error_after_its_plan():
    # a plan ends at the bare ``yield``: a ConfigError raised after it, or a
    # call to a function that raises one, would exit 2 after files are written
    trees = [ast.parse(inspect.getsource(module)) for module in (experiments, config)]
    raisers = _config_error_raisers(trees)
    planned, late = set(), []
    for f in trees[0].body:
        bare = [k for k, stmt in enumerate(getattr(f, "body", [])) if isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Yield) and stmt.value.value is None]
        if isinstance(f, ast.FunctionDef) and bare:
            assert len(bare) == 1, f"{f.name} has {len(bare)} bare yields"
            planned.add(f.name)
            late += [f"experiments.py:{node.lineno} in {f.name}" for stmt in f.body[bare[0] + 1:]
                     for node in ast.walk(stmt) if _raises(node, raisers)]
    runners = {r.__name__ for tasks in experiments._RUNNERS.values() for r in tasks.values()}
    assert runners | {"_decay_stage"} <= planned
    assert late == []


@pytest.mark.parametrize("entry", ["c04_distance", "c07_separation_weak", "c11_compare",
                                   "c10_speed_constant"])
def test_cli_missing_grid_exits_2(tmp_path, capsys, entry):
    raw = _manifest_entry(entry)
    del raw["grid"]
    assert _suite(tmp_path, raw) == 2
    assert "grid: required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_type_error_inside_a_runner_is_not_a_config_error(monkeypatch):
    def runner(cfg, rep, *, t=1.0):
        yield
        raise TypeError(f"raised inside the runner at t={t}")

    monkeypatch.setitem(experiments._RUNNERS, "conservation", {None: runner})
    cfg = ExperimentConfig.from_dict({"experiment": "conservation", "params": {"n": 1, "m": 0},
                                      "knobs": {"t": 2.0}})
    with pytest.raises(TypeError, match="inside the runner at t=2.0"):
        run_experiment(cfg)


def test_a_value_error_inside_a_checked_runner_is_not_a_config_error(monkeypatch):
    def inequalities(trials, dim, gamma, seed):
        raise ValueError(f"raised inside the computation at dim={dim}")

    monkeypatch.setattr(experiments, "operator_inequality_checks", inequalities)
    raw = _manifest_entry("c13_operator_inequalities")
    with pytest.raises(ValueError, match="inside the computation at dim=20") as err:
        run_experiment(ExperimentConfig.from_dict(raw))
    assert not isinstance(err.value, ConfigError)
