"""CLI driver: config handling, output contracts, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmatch.bench_cli import (PRESETS, SUMMARY_SCHEMA, ConfigError,
                              cmd_capacity_merge, cmd_compare, cmd_fluid,
                              cmd_simulate, load_config, main, sign_test_p)
from cmatch.matching import run_policy
from cmatch.stream import sample_degree_sequences


def _tiny_simulate_config(out, **overrides):
    cfg = {
        "experiment": "tiny",
        "model_u": {"kind": "regular", "d": 2},
        "model_v": {"kind": "regular", "d": 2},
        "n_values": [200],
        "runs": 2,
        "policies": ["greedy"],
        "seed_base": 0,
        "outputs": str(out),
        "step": 1e-3,
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config handling


def test_load_config_requires_something():
    with pytest.raises(ConfigError):
        load_config(None, None, None, None)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        load_config(None, "nope", None, None)


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": ')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path), None, None, None)


def test_unknown_field_rejected(tmp_path):
    # "preset" names a preset on the command line only, never in a config
    for field, value in (("typo_field", 1), ("preset", "nonsense")):
        path = _write_config(tmp_path, {"experiment": "x", field: value})
        with pytest.raises(ConfigError, match=field):
            load_config(path, None, None, None)


def test_bad_distribution_spec_names_field(tmp_path):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path, model_u={"kind": "gaussian"}))
    with pytest.raises(ConfigError, match="model_u"):
        load_config(path, None, None, None)


def test_from_spec_round_trip(tmp_path):
    # every kind of both spec families, each read through load_config
    from cmatch.bench_cli import _resolve

    laws = [({"kind": "regular", "d": 3}, 3.0),
            ({"kind": "poisson", "c": 2.0}, pytest.approx(2.0, abs=1e-9)),
            ({"kind": "explicit", "probs": [0.5, 0.5]}, 0.5)]
    profiles = [({"kind": "none"}, "none"), ({"kind": "fixed", "C": 3}, "fixed-3"),
                ({"kind": "profile", "p": [0.5, 0.5]}, "profile-0.5,0.5")]
    for (law, mean), (caps, label) in zip(laws, profiles):
        path = _write_config(tmp_path, _tiny_simulate_config(
            tmp_path, model_u=law, model_v=law, capacities=caps))
        pmf_u, pmf_v, profile = _resolve(load_config(path, None, None, None), {}, "")
        assert pmf_u.mean == mean and pmf_v.mean == mean
        assert profile.label == label
    for bad in ({}, {"kind": "weird"}, {"kind": "regular"}, "regular", {"kind": "poisson"},
                {"kind": ["regular"]}, {"kind": "regular", "d": 2, "c": 9},
                {"kind": "explicit", "probs": [1.0], "d": 1},
                # a Poisson law this thin trims to mean 0, as explicit([1.0]) is
                {"kind": "poisson", "c": 1e-12}):
        path = _write_config(tmp_path, _tiny_simulate_config(tmp_path, model_u=bad))
        with pytest.raises(ConfigError, match="model_u"):
            load_config(path, None, None, None)


def test_overrides_apply(tmp_path):
    path = _write_config(tmp_path, _tiny_simulate_config(tmp_path))
    cfg = load_config(path, None, 99, str(tmp_path / "elsewhere"))
    assert cfg.seed_base == 99
    assert cfg.outputs.endswith("elsewhere")


_JUNK = [None, True, False, 0, -1, 2.5, float("nan"), float("inf"),
         float("-inf"), 10**12, -10**12, 10**400, 1e300, "", "x", [], {}]


def _junk():
    """Wrong types, bools, non-finite and giant numbers, and nested junk."""
    return st.sampled_from(_JUNK) | st.recursive(
        st.sampled_from(_JUNK),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["kind", "d", "c", "probs", "C", "p",
                                           "model_u", "x"]), inner, max_size=3),
        max_leaves=6)


def _law():
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("regular"),
                               "d": st.integers(1, 6) | _junk()}),
        st.fixed_dictionaries({"kind": st.just("poisson"),
                               "c": st.floats(0.1, 6.0) | _junk()}),
        st.fixed_dictionaries({"kind": st.just("explicit"),
                               "probs": st.just([0.25, 0.75]) | _junk()}),
        _junk())


def _capacities():
    return st.one_of(
        st.just({"kind": "none"}),
        st.fixed_dictionaries({"kind": st.just("fixed"),
                               "C": st.integers(1, 5) | _junk()}),
        st.fixed_dictionaries({"kind": st.just("profile"),
                               "p": st.just([0.5, 0.5]) | _junk()}),
        _junk())


_VALID_FIELDS = {
    "experiment": st.text(max_size=8),
    "outputs": st.text(max_size=8),
    "model_u": _law(),
    "model_v": _law(),
    "models": st.lists(st.fixed_dictionaries(
        {}, optional={"model_u": _law(), "model_v": _law(),
                      "capacities": _capacities()}), max_size=2),
    "n_values": st.lists(st.integers(1, 1000), min_size=1, max_size=3),
    "runs": st.integers(1, 5),
    "policies": st.lists(st.sampled_from(["greedy", "ranking", "smallest"]),
                         max_size=3),
    "capacities": _capacities(),
    "merge_capacity": st.integers(1, 4),
    "seed_base": st.integers(0, 100),
    "step": st.floats(1e-4, 1e-2),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries({}, optional=_VALID_FIELDS),
       st.dictionaries(st.sampled_from(sorted(_VALID_FIELDS)), _junk(),
                       max_size=2),
       st.sampled_from([None, *PRESETS]))
def test_load_config_returns_or_raises_config_error(tmp_path_factory, valid,
                                                    junk, preset):
    # valid fields with at most two overwritten by junk, so each check is
    # reached; nested junk also comes through the spec sub-fields
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps({**valid, **junk}))
    try:
        load_config(str(path), preset, None, None)
    except ConfigError:
        pass


def test_presets_all_validate():
    for name in PRESETS:
        cfg = load_config(None, name, None, None)
        assert cfg.experiment == name


# ---------------------------------------------------------------------------
# subcommands


def test_cmd_fluid_outputs(tmp_path):
    cfg = load_config(None, "fluid-dregular", None, str(tmp_path))
    cfg.step = 1e-3
    out = cmd_fluid(cfg)
    assert len(out["fluid_endpoints"]) == 5
    csvs = sorted(tmp_path.glob("fluid_*.csv"))
    assert len(csvs) == 5
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("#") and "model_u=" in header
    summary = json.loads((tmp_path / "summary.json").read_text())
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    endpoints = sorted(summary["fluid_endpoints"].items())
    assert all(v > 0.8 for _, v in endpoints)


def test_cmd_simulate_outputs_and_schema(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(tmp_path / "o")),
                      None, None, None)
    out = cmd_simulate(cfg)
    assert not out["failures"]
    rows = out["results"]
    assert len(rows) == 1 and rows[0]["runs"] == 2
    assert rows[0]["sup_dev"] is not None
    trajs = sorted((tmp_path / "o").glob("traj_*.csv"))
    assert len(trajs) == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    jsonschema.validate(summary, SUMMARY_SCHEMA)


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg_a = load_config(_write_config(tmp_path, _tiny_simulate_config(tmp_path / "a")),
                        None, None, None)
    cfg_b = load_config(_write_config(tmp_path, _tiny_simulate_config(tmp_path / "b")),
                        None, None, None)
    cmd_simulate(cfg_a)
    cmd_simulate(cfg_b)
    for fa in sorted((tmp_path / "a").glob("*.csv")):
        fb = tmp_path / "b" / fa.name
        assert fa.read_bytes() == fb.read_bytes()
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("timestamp"), sb.pop("timestamp")
    assert sa == sb


# Desk-scale runs over every path of the run loop: unsorted n_values, four
# policies under a profile capacity, and a merge at C = 3 whose n = 301 and
# n = 300 both merge to 100 vertices.
_LOOP_CONFIG = {
    "experiment": "loop",
    "model_u": {"kind": "poisson", "c": 2},
    "model_v": {"kind": "regular", "d": 3},
    "n_values": [300, 120],
    "runs": 3,
    "seed_base": 4,
    "step": 1e-3,
}
_COUPLED = {"policies": ["ranking", "greedy", "smallest", "highest"],
            "capacities": {"kind": "profile", "p": [0.5, 0.3, 0.2]}}
_LOOP_FIELDS = {
    "simulate": _COUPLED,
    "compare": _COUPLED,
    "capacity-merge": {"n_values": [301, 300, 120], "merge_capacity": 3},
}


def _run_loop_command(tmp_path, command):
    out = tmp_path / command
    path = _write_config(tmp_path, {**_LOOP_CONFIG, **_LOOP_FIELDS[command],
                                    "outputs": str(out)}, name=f"{command}.json")
    assert main([command, "--config", path]) == 0
    return out


# sha256 over "name<TAB>sha256 of the file" lines; summary.json is hashed
# without its timestamp. compare's was recorded before the three commands
# shared one run loop. simulate's and capacity-merge's were re-recorded when
# the G-ODE became a quadrature: every trajectory CSV stayed byte-identical,
# and only the fluid-derived sup_dev and fluid_endpoints moved, by <= 8.7e-15.
@pytest.mark.parametrize("command, files, digest", [
    ("simulate", 25,
     "8342ae82bc82ee879739c338bdbe9fc5623c37a40539f60ef01abadc0ba9a232"),
    ("compare", 1,
     "76340a3289ea7abe5bcac1abe5ae08f4378db3098c07ee73ba87ae1db2d37df4"),
    ("capacity-merge", 1,
     "01a6e00702a75fff12014ec4c5b003f5a8d7225a19124ad34e08837764259dc7"),
], ids=["simulate", "compare", "capacity-merge"])
def test_run_loop_outputs_keep_their_digests(tmp_path, command, files, digest):
    lines = []
    for path in sorted(_run_loop_command(tmp_path, command).iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["timestamp"]
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        lines.append(f"{path.name}\t{hashlib.sha256(data).hexdigest()}\n")
    assert len(lines) == files
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["simulate", "compare", "capacity-merge"])
def test_one_sequence_per_n_and_seed(tmp_path, monkeypatch, command):
    from cmatch import bench_cli

    calls = Counter()

    def spy(pmf_u, pmf_v, n, seed):
        calls[n, seed] += 1
        return sample_degree_sequences(pmf_u, pmf_v, n, seed)

    monkeypatch.setattr(bench_cli, "sample_degree_sequences", spy)
    _run_loop_command(tmp_path, command)
    fields = {**_LOOP_CONFIG, **_LOOP_FIELDS[command]}
    # every policy runs on the one sequence; capacity-merge samples per arm
    sizes = ([m for n in fields["n_values"] for m in (n, n // 3)]
             if command == "capacity-merge" else fields["n_values"])
    seeds = range(fields["seed_base"], fields["seed_base"] + fields["runs"])
    assert calls == Counter((n, seed) for n in sizes for seed in seeds)


class _FailingFile:
    """Text file whose write raises after its first successful call."""

    def __init__(self, fh, budget=1):
        self.fh = fh
        self.budget = budget

    def write(self, text):
        if self.budget == 0:
            raise OSError("disk full")
        self.budget -= 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize("writer", ["summary", "fluid", "trajectory"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, existing):
    from cmatch import _io, bench_cli
    from cmatch.degrees import regular
    from cmatch.fluid import solve_G_capless, write_fluid_csv
    from cmatch.matching import write_trajectory_csv
    from cmatch.stream import sample_degree_sequences

    pmf = regular(2)
    write = {
        "summary": lambda path: bench_cli._write_summary(
            path.parent, "x", [], {"k": 1.0}),
        "fluid": lambda path: write_fluid_csv(
            solve_G_capless(pmf, pmf, 1e-2), path),
        "trajectory": lambda path: write_trajectory_csv(run_policy(
            sample_degree_sequences(pmf, pmf, 20, 0), None, "greedy", 0), path),
    }[writer]
    out = tmp_path / "out"
    out.mkdir()
    path = out / ("summary.json" if writer == "summary" else "out.csv")
    if existing:
        path.write_text("previous\n")
    monkeypatch.setattr(_io, "open", lambda *a, **k: _FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert [p.name for p in out.iterdir()] == ([path.name] if existing else [])
    if existing:
        assert path.read_text() == "previous\n"
    monkeypatch.undo()
    write(path)
    assert [p.name for p in out.iterdir()] == [path.name]
    assert path.read_text() != "previous\n"


def test_cmd_compare_couples_identical_policies(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", policies=["greedy", "greedy"], runs=3)), None, None, None)
    out = cmd_compare(cfg)
    diffs = out["comparisons"]["200"]["paired_differences"]
    assert diffs == [0.0, 0.0, 0.0]


def test_cmd_compare_reports_sign_test(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", policies=["greedy", "ranking"], runs=4,
        n_values=[500])), None, None, None)
    out = cmd_compare(cfg)
    stats_block = out["comparisons"]["500"]
    assert 0.0 <= stats_block["sign_test_p_greedy_gt_ranking"] <= 1.0
    assert len(stats_block["paired_differences"]) == 4
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    assert len(summary["results"]) == 2


def test_sign_test_matches_scipy_binomtest():
    from scipy.stats import binomtest
    assert sign_test_p(20, 20) == 9.5367431640625e-07
    assert sign_test_p(0, 0) == 1.0
    for trials in range(1, 61):
        for wins in range(trials + 1):
            ref = binomtest(wins, trials, 0.5, alternative="greater").pvalue
            assert abs(sign_test_p(wins, trials) - ref) <= 1e-12 * ref


def test_sign_test_equals_the_comb_sum_and_scales_to_many_trials():
    # the running coefficient gives the same exact integer tail, hence the
    # same correctly rounded float, as one math.comb per term
    for trials in range(61):
        for wins in range(trials + 2):
            tail = sum(math.comb(trials, k) for k in range(wins, trials + 1))
            assert sign_test_p(wins, trials) == tail / 2 ** trials
    start = time.perf_counter()
    assert 0.0 < sign_test_p(5100, 10_000) < 0.03
    assert time.perf_counter() - start < 1.0


def test_compare_leaves_scipy_alone(tmp_path):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", policies=["greedy", "ranking"], runs=3))
    code = ("import sys; from cmatch.bench_cli import main; "
            f"assert main(['compare', '--config', {path!r}]) == 0; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    assert _fresh_python(code).strip() == "False"
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert "sign_test_p_greedy_gt_ranking" in summary["comparisons"]["200"]


def test_cmd_compare_needs_two_policies(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", policies=["greedy"])), None, None, None)
    with pytest.raises(ConfigError):
        cmd_compare(cfg)


def test_capacity_merge_with_unit_capacity_is_identity(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", merge_capacity=1, n_values=[300], runs=2)),
        None, None, None)
    out = cmd_capacity_merge(cfg)
    rows = {r["variant"]: r for r in out["results"]}
    assert rows["baseline"]["mean"] == rows["merged-x1"]["mean"]


def test_capacity_merge_poisson_improves(tmp_path):
    cfg = load_config(None, "capacity-merge-poisson", None, str(tmp_path / "o"))
    cfg.n_values = [10_000]
    cfg.runs = 3
    cfg.step = 1e-3
    out = cmd_capacity_merge(cfg)
    rows = {r["variant"]: r for r in out["results"]}
    assert rows["merged-x2"]["mean"] >= rows["baseline"]["mean"]
    # Monte Carlo agrees with the fixed-capacity solver prediction
    merged_key = [k for k in out["fluid_endpoints"] if "merged" in k][0]
    assert abs(rows["merged-x2"]["mean"] - out["fluid_endpoints"][merged_key]) <= 0.01
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    jsonschema.validate(summary, SUMMARY_SCHEMA)


def test_merge_warns_on_indivisible_n(tmp_path, capsys):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", merge_capacity=2, n_values=[301], runs=1)),
        None, None, None)
    out = cmd_capacity_merge(cfg)
    assert "warning" in capsys.readouterr().err
    rows = {r["variant"]: r for r in out["results"]}
    assert rows["merged-x2"]["n"] == 150


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_main_success(tmp_path):
    path = _write_config(tmp_path, _tiny_simulate_config(tmp_path / "o"))
    assert main(["simulate", "--config", path]) == 0


def test_main_config_error_is_exit_2(tmp_path):
    assert main(["fluid", "--preset", "no-such-preset"]) == 2
    path = _write_config(tmp_path, {"runs": 0, "experiment": "x"})
    assert main(["simulate", "--config", path]) == 2


@pytest.mark.parametrize("every", [0, -3, 2.5, "10", True])
def test_bad_checkpoint_every_is_exit_2(tmp_path, capsys, every):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", checkpoint_every=every))
    assert main(["simulate", "--config", path]) == 2
    assert "checkpoint_every" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("n_values", ["abc"]),
    ("n_values", [10.7]),
    ("runs", "5"),
    ("runs", True),
    ("step", "x"),
    ("capacities", {"kind": "fixed", "C": "two"}),
    ("merge_capacity", "2"),
    ("seed_base", "1"),
    ("models", [3]),
    ("capacities", {"kind": "profile", "p": ["0.5", "0.5"]}),
    ("capacities", {"kind": "profile", "p": [True]}),
    ("capacities", {"kind": "profile", "p": "0.5,0.5"}),
    ("capacities", {"kind": "profile", "p": []}),
    ("capacities", {"kind": "fixed", "C": 0}),
    ("capacities", {"kind": "fixed", "C": True}),
    ("capacities", {"kind": "fixed", "C": 2.0}),
    ("capacities", {"kind": "fixed"}),
    ("capacities", {"kind": "profile"}),
    ("capacities", {"kind": "uniform", "C": 2}),
    ("capacities", {"kind": ["fixed"]}),
    ("capacities", {"C": 2}),
    ("capacities", "fixed"),
    ("n_values", [200, 120, 200]),
    # a kind of the other spec family
    ("capacities", {"kind": "regular", "d": 2}),
])
def test_mistyped_field_is_exit_2(tmp_path, capsys, field, value):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", **{field: value}))
    command = "fluid" if field == "models" else "simulate"
    assert main([command, "--config", path]) == 2
    assert field in capsys.readouterr().err


def test_seed_override_past_int64_is_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_simulate_config(tmp_path / "o"))
    # two runs, seeds seed_base and seed_base + 1, each a count within int64
    assert main(["simulate", "--config", path, "--seed", str(2**63 - 1)]) == 2
    assert "seed_base" in capsys.readouterr().err
    assert main(["simulate", "--config", path, "--seed", str(2**63 - 2)]) == 0


_MEAN_ZERO = {"kind": "explicit", "probs": [1.0]}
_COMMANDS = ("fluid", "simulate", "compare", "capacity-merge")


@pytest.mark.parametrize("command, field, value, named", [
    *(pytest.param(command, field, value, field, id=f"{command}-{field}")
      for command in _COMMANDS
      for field, value in (("model_u", _MEAN_ZERO), ("model_v", _MEAN_ZERO),
                           ("step", 1e-7))),
    # only fluid reads models
    pytest.param("fluid", "models", [{}, {"model_u": _MEAN_ZERO}],
                 "models[1].model_u", id="fluid-models[1].model_u"),
    pytest.param("fluid", "models", [{"model_v": _MEAN_ZERO}],
                 "models[0].model_v", id="fluid-models[0].model_v"),
])
def test_mean_zero_law_and_tiny_step_are_exit_2(tmp_path, capsys, command,
                                                field, value, named):
    # a mean-0 law has no half-edge to pair and no fluid curve; a step below
    # the floor would run millions of RK4 steps
    cfg = {"experiment": "x", "outputs": str(tmp_path / "o"), field: value}
    if command == "compare":
        cfg["policies"] = ["greedy", "ranking"]
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{named}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "capacity-merge"])
def test_models_outside_fluid_is_exit_2(tmp_path, capsys, command):
    entry = {"model_u": {"kind": "regular", "d": 3},
             "model_v": {"kind": "regular", "d": 3}}
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", policies=["greedy", "ranking"], models=[entry]))
    assert main([command, "--config", path]) == 2
    assert "models" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, argv, fields, named", [
    ("fluid", ["--seed", "3"], {}, ["seed_base"]),
    ("fluid", [], {"n_values": [200], "runs": 2, "policies": ["ranking"]},
     ["n_values", "runs", "policies"]),
    ("fluid", [], {"merge_capacity": 3}, ["merge_capacity"]),
    ("capacity-merge", [], {"capacities": {"kind": "fixed", "C": 3},
                            "policies": ["ranking"]}, ["capacities", "policies"]),
    ("simulate", [], {"merge_capacity": 3}, ["merge_capacity"]),
    ("compare", [], {"policies": ["greedy", "ranking"], "merge_capacity": 1},
     ["merge_capacity"]),
])
def test_unread_field_is_exit_2(tmp_path, capsys, command, argv, fields, named):
    cfg = {"experiment": "x", "outputs": str(tmp_path / "o"), "step": 1e-2,
           **fields}
    path = _write_config(tmp_path, cfg)
    assert main([command, "--config", path, *argv]) == 2
    err = capsys.readouterr().err
    assert f"'{command}'" in err
    assert all(name in err for name in named)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, spec, words", [
    ("model_u", {"kind": "regular", "d": 10**12}, "1000000"),
    ("model_v", {"kind": "poisson", "c": 10**12}, "1000000"),
    ("capacities", {"kind": "fixed", "C": 10**12}, "1000000"),
    # past any float: Python's json reads the integer exactly
    ("model_u", {"kind": "poisson", "c": 10**400}, "too large"),
    ("n_values", [10**12], "1000000"),
    ("merge_capacity", 10**12, "1000000"),
    # below the bound itself, but it stretches regular-2 to 1.2e6 degrees
    ("merge_capacity", 600_000, "1000000"),
    # about 3 MB of JSON each: one mass per degree or capacity level
    ("model_u", {"kind": "explicit", "probs": [0] * (10**6 + 1) + [1]}, "1000000"),
    ("capacities", {"kind": "profile", "p": [0] * 10**6 + [1]}, "1000000"),
])
def test_giant_support_is_exit_2(tmp_path, capsys, field, spec, words):
    command = {"n_values": "simulate", "merge_capacity": "capacity-merge"}.get(
        field, "fluid")
    path = _write_config(tmp_path, {"experiment": "x", field: spec,
                                    "outputs": str(tmp_path / "o")})
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert field in err and words in err
    assert not (tmp_path / "o").exists()


def test_cli_runs_record_only_initial_and_final_checkpoints(tmp_path, monkeypatch):
    from cmatch import bench_cli

    steps = []

    def spy(*args, **kwargs):
        traj = run_policy(*args, **kwargs)
        steps.append(([cp.step for cp in traj.checkpoints], traj.n_arrivals))
        return traj

    monkeypatch.setattr(bench_cli, "run_policy", spy)
    for command in ("simulate", "compare", "capacity-merge"):
        cfg = _tiny_simulate_config(
            tmp_path / command, policies=["greedy", "ranking"], n_values=[100])
        if command == "capacity-merge":
            del cfg["policies"]
        path = _write_config(tmp_path, cfg, name=f"{command}.json")
        assert main([command, "--config", path]) == 0
    # simulate and compare: 2 policies x 2 runs; capacity-merge: 2 x 2 runs
    assert len(steps) == 12
    assert all(seen == [0, n_arr] for seen, n_arr in steps)


def _fresh_python(code):
    """Standard output of ``code`` run in a fresh interpreter on src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_sparse_alone():
    code = "import sys, cmatch.bench_cli; print('scipy.sparse' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_capacity_merge_n_below_capacity_is_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", n_values=[1], merge_capacity=2))
    assert main(["capacity-merge", "--config", path]) == 2
    assert "n_values" in capsys.readouterr().err


def test_main_runtime_failure_is_exit_1(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    path = _write_config(tmp_path, _tiny_simulate_config(blocker))
    assert main(["simulate", "--config", path]) == 1


def test_failed_simulate_runs_are_exit_1(tmp_path, capsys, monkeypatch):
    # no valid config makes a run fail, so the run itself is made to fail
    def failing_run(seq, caps, policy, seed):
        if (policy, seed) == ("ranking", 1) or (policy, seq.n_offline) == ("smallest", 200):
            raise ValueError(f"{policy} fails at n={seq.n_offline} seed {seed}")
        return run_policy(seq, caps, policy, seed)

    monkeypatch.setattr("cmatch.bench_cli.run_policy", failing_run)
    out = tmp_path / "o"
    path = _write_config(tmp_path, _tiny_simulate_config(
        out, n_values=[500, 200], policies=["greedy", "ranking", "smallest"]))
    assert main(["simulate", "--config", path]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert [(r["n"], r["policy"], r["runs"]) for r in summary["results"]] == [
        (200, "greedy", 2), (200, "ranking", 1),
        (500, "greedy", 2), (500, "ranking", 1), (500, "smallest", 2)]
    # n in config order, then policy in config order, then seed
    assert [(f["n"], f["policy"], f["seed"]) for f in summary["failures"]] == [
        (500, "ranking", 1), (200, "ranking", 1),
        (200, "smallest", 0), (200, "smallest", 1)]
    assert len(list(out.glob("traj_*.csv"))) == 8
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["runtime failure: 4 run(s) failed; first: "
                   "ValueError: ranking fails at n=500 seed 1"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_biased_greedy_beyond_degree_two_is_exit_2(tmp_path, capsys, command):
    out = tmp_path / "o"
    law = {"kind": "poisson", "c": 3}
    path = _write_config(tmp_path, _tiny_simulate_config(
        out, model_u=law, model_v=law, policies=["greedy", "biased_greedy"]))
    assert main([command, "--config", path]) == 2
    assert "policies" in capsys.readouterr().err
    assert not out.exists()
    # a law of degrees at most 2 still runs it
    path = _write_config(tmp_path, _tiny_simulate_config(
        out, model_u={"kind": "explicit", "probs": [0.2, 0.3, 0.5]},
        model_v=law, policies=["greedy", "biased_greedy"]))
    assert main([command, "--config", path]) == 0


@pytest.mark.parametrize("side, spec", [
    ("model_u", {"kind": "regular", "d": 2.5}),
    ("model_u", {"kind": "regular", "d": "3"}),
    ("model_v", {"kind": "regular", "d": True}),
    ("model_u", {"kind": "poisson", "c": "4"}),
    ("model_v", {"kind": "poisson", "c": True}),
    ("model_u", {"kind": "explicit", "probs": "0.5,0.5"}),
    # a kind of the other spec family
    ("model_u", {"kind": "fixed", "C": 2}),
])
def test_mistyped_degree_spec_is_exit_2(tmp_path, capsys, side, spec):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", **{side: spec}))
    assert main(["simulate", "--config", path]) == 2
    assert side in capsys.readouterr().err


@pytest.mark.parametrize("field, spec, sub", [
    ("model_u", {"kind": "regular", "d": 2, "c": 9}, "c"),
    ("model_v", {"kind": "poisson", "c": 4, "d": 2}, "d"),
    ("model_u", {"kind": "explicit", "probs": [0.5, 0.5], "label": "x"}, "label"),
    ("capacities", {"kind": "none", "C": 2}, "C"),
    ("capacities", {"kind": "fixed", "C": 2, "p": [1.0]}, "p"),
    ("capacities", {"kind": "profile", "p": [1.0], "C": 1}, "C"),
])
@pytest.mark.parametrize("command", ["fluid", "simulate"])
def test_unknown_spec_subfield_is_exit_2(tmp_path, capsys, command, field, spec, sub):
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", **{field: spec}))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert field in err and f"'{sub}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, spec", [
    ("model_u", {"kind": "explicit", "probs": [0.5, float("nan"), 0.5]}),
    ("model_v", {"kind": "explicit", "probs": [float("inf"), 0.5]}),
    ("capacities", {"kind": "profile", "p": [float("nan")]}),
    ("capacities", {"kind": "profile", "p": [0.5, float("nan"), 0.5]}),
])
@pytest.mark.parametrize("command", ["fluid", "simulate"])
def test_non_finite_masses_are_exit_2(tmp_path, capsys, command, field, spec):
    # Python's json reads and writes the NaN and Infinity literals
    path = _write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", **{field: spec}))
    assert main([command, "--config", path]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fluid_endpoint_keys_name_each_capacity_kind(tmp_path):
    law = {"kind": "regular", "d": 2}
    entries = [{"model_u": law, "model_v": law, "capacities": caps}
               for caps in ({"kind": "none"}, {"kind": "fixed", "C": 3},
                            {"kind": "profile", "p": [0.5, 0.3, 0.2]})]
    cfg = _tiny_simulate_config(tmp_path / "o", models=entries, step=1e-2)
    del cfg["n_values"], cfg["runs"]
    path = _write_config(tmp_path, cfg)
    assert main(["fluid", "--config", path]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert sorted(summary["fluid_endpoints"]) == [
        f"u=regular-2|v=regular-2|cap={cap}"
        for cap in ("fixed-3", "none", "profile-0.5,0.3,0.2")]


def test_main_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# preset behaviour at desk scale


def test_degree_one_runs_match_everyone(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", model_u={"kind": "regular", "d": 1},
        model_v={"kind": "regular", "d": 1}, n_values=[500], runs=3)),
        None, None, None)
    out = cmd_simulate(cfg)
    assert out["results"][0]["mean"] == 1.0
    assert out["results"][0]["stddev"] == 0.0


def test_lookahead_policies_bracket_greedy(tmp_path):
    cfg = load_config(_write_config(tmp_path, _tiny_simulate_config(
        tmp_path / "o", model_u={"kind": "regular", "d": 20},
        model_v={"kind": "regular", "d": 20}, n_values=[4000], runs=6,
        policies=["smallest", "greedy", "highest"])), None, None, None)
    out = cmd_compare(cfg)
    means = {r["policy"]: r["mean"] for r in out["results"]}
    assert means["smallest"] >= means["greedy"] >= means["highest"]


def test_all_presets_complete_at_desk_scale(tmp_path):
    import time
    start = time.perf_counter()
    for name in PRESETS:
        command = {"fluid-dregular": "fluid",
                   "deviation-dregular": "simulate",
                   "greedy-vs-ranking": "compare",
                   "capacity-merge-poisson": "capacity-merge"}[name]
        code = main([command, "--preset", name, "--out", str(tmp_path / name)])
        assert code == 0
        assert (tmp_path / name / "summary.json").exists()
    assert time.perf_counter() - start < 600.0
