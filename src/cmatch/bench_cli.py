"""Experiment driver: fluid curves, Monte Carlo trajectories, coupled policy
comparisons and the capacity-merge study, with CSV/JSON emission.

Subcommands: ``fluid | simulate | compare | capacity-merge``. Each accepts
``--config <json>`` and/or ``--preset <name>`` plus ``--seed`` / ``--out``
overrides. ``--seed`` sets ``seed_base``; run seeds are
``seed_base + run_index``, so outputs are reproducible byte for byte (the
summary JSON carries the only timestamp). The three Monte Carlo commands
share one run loop (:func:`_runs`): each (n, seed) draws one sequence pair,
and every policy runs on its graph, so the policies are coupled run by run.
A command given a field it does not read, set away from its default, exits
2 naming the field: ``fluid`` draws nothing, so ``fluid --seed 3`` exits 2
naming ``seed_base``.
Exit codes: 0 success, 2 configuration error, 1 runtime failure (including
any failed ``simulate`` run, after its summary is written).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import degrees
from ._io import atomic_write
from .fluid import (_MAX_G_STEP, _MIN_G_STEP, UNIT_CAPACITY, CapacityProfile,
                    FluidCurve, solve_G_general_capacity, sup_deviation,
                    write_fluid_csv)
from .matching import (BIASED_GREEDY, GREEDY, POLICIES, RANKING, run_policy,
                       write_trajectory_csv)
from .stream import sample_degree_sequences

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["experiment", "results", "fluid_endpoints"],
    "properties": {
        "experiment": {"type": "string"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "policy", "mean", "stddev", "sup_dev", "runs"],
                "properties": {
                    "n": {"type": "integer"},
                    "policy": {"type": "string"},
                    "mean": {"type": "number"},
                    "stddev": {"type": "number"},
                    "sup_dev": {"type": ["number", "null"]},
                    "runs": {"type": "integer"},
                },
            },
        },
        "fluid_endpoints": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


class ConfigError(ValueError):
    """Bad experiment configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; see README for the JSON layout."""

    experiment: str = "experiment"
    model_u: dict = field(default_factory=lambda: {"kind": "regular", "d": 2})
    model_v: dict = field(default_factory=lambda: {"kind": "regular", "d": 2})
    models: list | None = None
    n_values: list = field(default_factory=lambda: [1000])
    runs: int = 5
    policies: list = field(default_factory=lambda: [GREEDY])
    capacities: dict = field(default_factory=lambda: {"kind": "none"})
    merge_capacity: int = 2
    seed_base: int = 0
    outputs: str = "out"
    step: float = 1e-4

    def validate(self) -> "ExperimentConfig":
        """Check each field's type, then its value; a ConfigError names the
        first bad field."""
        def need(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise ConfigError(f"field '{name}' must be {what}")

        need(isinstance(self.experiment, str), "experiment", "a string")
        need(isinstance(self.outputs, str), "outputs", "a string")
        need(isinstance(self.n_values, list) and len(self.n_values) > 0
             and all(degrees._is_int(n) and 1 <= n <= degrees._MAX_SUPPORT
                     for n in self.n_values)
             and len(set(self.n_values)) == len(self.n_values),
             "n_values", f"a nonempty list of distinct integers in "
             f"[1, {degrees._MAX_SUPPORT}]")
        need(degrees._is_int(self.runs) and self.runs >= 1, "runs", "an integer >= 1")
        need(degrees._is_int(self.seed_base) and self.seed_base >= 0,
             "seed_base", "an integer >= 0")
        need(degrees._is_int(self.merge_capacity) and self.merge_capacity >= 1,
             "merge_capacity", "an integer >= 1")
        need(type(self.step) in (int, float)
             and _MIN_G_STEP <= self.step <= _MAX_G_STEP,
             "step", f"a number in [{_MIN_G_STEP:g}, {_MAX_G_STEP:g}]")
        need(isinstance(self.policies, list), "policies", "a list")
        for p in self.policies:
            if p not in POLICIES:
                raise ConfigError(f"field 'policies': unknown policy {p!r}")
        pmf_u, _, _ = _resolve(self, {}, "")
        if BIASED_GREEDY in self.policies and pmf_u.k_max > 2:
            raise ConfigError(f"field 'policies': {BIASED_GREEDY!r} needs "
                              f"model_u degrees of at most 2, not {pmf_u.k_max}")
        need(self.models is None or isinstance(self.models, list),
             "models", "a list or null")
        for i, entry in enumerate(self.models or []):
            need(isinstance(entry, dict) and set(entry) <= set(_ENTRY_FIELDS),
                 f"models[{i}]", f"an object with fields among {_ENTRY_FIELDS}")
            _resolve(self, entry, f"models[{i}].")
        return self


PRESETS = {
    # Fluid curves for regular models of increasing degree.
    "fluid-dregular": {
        "experiment": "fluid-dregular",
        "models": [{"model_u": {"kind": "regular", "d": d},
                    "model_v": {"kind": "regular", "d": d}}
                   for d in (2, 3, 4, 6, 10)],
    },
    # Trajectory deviation from the fluid curve as n grows.
    "deviation-dregular": {
        "experiment": "deviation-dregular",
        "model_u": {"kind": "regular", "d": 4},
        "model_v": {"kind": "regular", "d": 4},
        "n_values": [100, 1000, 10000],
        "runs": 5,
        "policies": ["greedy"],
    },
    # Coupled policy comparison on the 2-regular model.
    "greedy-vs-ranking": {
        "experiment": "greedy-vs-ranking",
        "model_u": {"kind": "regular", "d": 2},
        "model_v": {"kind": "regular", "d": 2},
        "n_values": [10000],
        "runs": 20,
        "policies": ["greedy", "ranking", "smallest", "highest"],
    },
    # Few high-capacity vertices vs many unit-capacity ones.
    "capacity-merge-poisson": {
        "experiment": "capacity-merge-poisson",
        "model_u": {"kind": "poisson", "c": 4},
        "model_v": {"kind": "poisson", "c": 4},
        "n_values": [10000],
        "runs": 5,
        "merge_capacity": 2,
    },
}


def load_config(config_path: str | None, preset: str | None,
                seed: int | None, out: str | None) -> ExperimentConfig:
    data: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        data.update(copy.deepcopy(PRESETS[preset]))
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path!r} is not valid JSON "
                              f"(line {exc.lineno}, column {exc.colno})") from exc
        if not isinstance(file_data, dict):
            raise ConfigError("config root must be a JSON object")
        data.update(file_data)
    if not data:
        raise ConfigError("need --config and/or --preset")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    cfg = ExperimentConfig(**data)
    if seed is not None:
        cfg.seed_base = seed
    if out is not None:
        cfg.outputs = out
    return cfg.validate()


# ---------------------------------------------------------------------------
# shared helpers


_ENTRY_FIELDS = ("model_u", "model_v", "capacities")
_SHARED_FIELDS = ("experiment", "outputs", "step", "model_u", "model_v")
_RUN_FIELDS = ("n_values", "runs", "seed_base")
# The config fields each command reads; every other field must keep its
# default, or the command exits 2 rather than silently ignore it.
_COMMAND_FIELDS = {
    "fluid": (*_SHARED_FIELDS, "capacities", "models"),
    "simulate": (*_SHARED_FIELDS, "capacities", *_RUN_FIELDS, "policies"),
    "compare": (*_SHARED_FIELDS, "capacities", *_RUN_FIELDS, "policies"),
    "capacity-merge": (*_SHARED_FIELDS, *_RUN_FIELDS, "merge_capacity"),
}
_CAPACITY_SPECS = {"none": (), "fixed": ("C",), "profile": ("p",)}


def _capacity_profile(spec) -> CapacityProfile:
    """The capacity profile that a ``capacities`` spec names."""
    kind = degrees._spec_kind(spec, _CAPACITY_SPECS, "capacities")
    if kind == "none":
        return UNIT_CAPACITY
    if kind == "fixed":
        return CapacityProfile.fixed(degrees._spec_field(
            spec, "C", degrees._is_int, "an integer"))
    return CapacityProfile.from_fractions(degrees._spec_field(
        spec, "p", degrees._is_real_list, "a list of numbers"))


def _degree_law(spec) -> degrees.DegreePMF:
    """The degree law that a ``model_u`` or ``model_v`` spec names; with mean
    0 it has no half-edge to pair and no fluid curve."""
    pmf = degrees.from_spec(spec)
    if pmf.mean <= 0:
        raise ValueError("the degree law needs a positive mean")
    return pmf


def _check_fields_read(cfg: ExperimentConfig, command: str) -> None:
    """Raise a ConfigError naming every field ``command`` does not read
    whose value differs from its default."""
    default = ExperimentConfig()
    unread = [name for name in ExperimentConfig.__dataclass_fields__
              if name not in _COMMAND_FIELDS[command]
              and getattr(cfg, name) != getattr(default, name)]
    if unread:
        raise ConfigError(f"'{command}' does not read field(s) "
                          f"{', '.join(repr(n) for n in unread)}")


def _resolve(cfg: ExperimentConfig, entry: dict, where: str) -> tuple:
    """(pmf_u, pmf_v, profile) of one model, each built from ``entry``
    where it names it and from ``cfg`` otherwise; a ConfigError names the
    first bad field."""
    built = []
    for name, build in zip(_ENTRY_FIELDS, (_degree_law, _degree_law,
                                           _capacity_profile)):
        try:
            built.append(build(entry.get(name, getattr(cfg, name))))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"field '{where}{name}': {exc}") from exc
    return tuple(built)


def _prepare(cfg: ExperimentConfig, entry: dict | None = None):
    """Preamble of every command: the output directory, both degree laws,
    the capacity profile and the reference fluid curve, each taken from
    ``entry`` where it names them and from ``cfg`` otherwise.
    Returns (out_dir, pmf_u, pmf_v, profile, curve, endpoints)."""
    out_dir = Path(cfg.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    pmf_u, pmf_v, profile = _resolve(cfg, entry or {}, "")
    curve = solve_G_general_capacity(pmf_u, pmf_v, profile, cfg.step)
    return out_dir, pmf_u, pmf_v, profile, curve, {_model_key(curve): curve.endpoint}


def _model_key(curve: FluidCurve) -> str:
    return f"u={curve.model_u}|v={curve.model_v}|cap={curve.capacity}"


def _write_summary(out_dir: Path, experiment: str, results: list,
                   endpoints: dict, **extras) -> Path:
    """Write summary.json, with each of ``extras`` that is not empty."""
    summary = {
        "experiment": experiment,
        "results": sorted(results, key=lambda r: (r["n"], r["policy"],
                                                  r.get("variant", ""))),
        "fluid_endpoints": endpoints,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    summary.update((key, block) for key, block in extras.items() if block)
    path = out_dir / "summary.json"
    with atomic_write(path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def sign_test_p(wins: int, trials: int) -> float:
    """Exact one-sided sign test: P(X >= wins) for X ~ Binomial(trials, 1/2).

    The binomial coefficients come from one running product, so the exact
    integer tail takes O(trials) big-integer steps."""
    tail, coeff = 0, math.comb(trials, wins)
    for k in range(wins, trials + 1):
        tail += coeff
        coeff = coeff * (trials - k) // (k + 1)
    return tail / 2 ** trials


def _stats_row(n: int, policy: str, fractions: list, sup_devs: list | None,
               **extra) -> dict:
    row = {
        "n": int(n),
        "policy": policy,
        "mean": float(np.mean(fractions)),
        "stddev": float(np.std(fractions)),
        "sup_dev": (float(np.max(sup_devs)) if sup_devs else None),
        "runs": len(fractions),
    }
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# subcommands


def cmd_fluid(cfg: ExperimentConfig) -> dict:
    """Solve the fluid curve for each configured model and dump CSVs."""
    endpoints = {}
    for entry in cfg.models or [{}]:
        out_dir, _, _, _, curve, endpoint = _prepare(cfg, entry)
        endpoints.update(endpoint)
        safe = _model_key(curve).replace("=", "-").replace("|", "_").replace(",", "-")
        write_fluid_csv(curve, out_dir / f"fluid_{safe}.csv")
    _write_summary(out_dir, cfg.experiment, [], endpoints)
    return {"fluid_endpoints": endpoints}


def _runs(cfg: ExperimentConfig, pmf_u, pmf_v, profile: CapacityProfile,
          policies: list, sizes: list, failures: list | None = None):
    """Yield (n, slot, trajectory) per n in ``sizes``, run seed and policy
    slot: one sequence per (n, seed), every policy run on its graph. Given
    ``failures``, a run that raises is skipped and recorded there in the
    order n, slot, seed; otherwise it propagates."""
    for n in sizes:
        caps = profile.capacities(n)
        failed = [[] for _ in policies]
        for seed in range(cfg.seed_base, cfg.seed_base + cfg.runs):
            seq = None
            for slot, policy in enumerate(policies):
                try:
                    if seq is None:  # a draw that raises is retried per slot
                        seq = sample_degree_sequences(pmf_u, pmf_v, n, seed)
                    traj = run_policy(seq, caps, policy, seed)
                except Exception as exc:  # keep remaining runs alive
                    if failures is None:
                        raise
                    failed[slot].append({"n": n, "policy": policy, "seed": seed,
                                         "error": f"{type(exc).__name__}: {exc}"})
                else:
                    yield n, slot, traj
        if failures is not None:
            failures.extend(f for slot_failed in failed for f in slot_failed)


def cmd_simulate(cfg: ExperimentConfig) -> dict:
    """Monte Carlo runs per (n, policy) with trajectories and deviations."""
    out_dir, pmf_u, pmf_v, profile, curve, endpoints = _prepare(cfg)
    failures, runs = [], {n: [[] for _ in cfg.policies] for n in cfg.n_values}
    for n, slot, traj in _runs(cfg, pmf_u, pmf_v, profile, cfg.policies,
                               cfg.n_values, failures):
        runs[n][slot].append((traj.final_matched / traj.capacity_total,
                              sup_deviation(traj, curve)))
        write_trajectory_csv(traj, out_dir / f"traj_{traj.policy}_n{n}_seed{traj.seed}.csv")
    results = [_stats_row(n, policy, *zip(*pairs)) for n, per_slot in runs.items()
               for policy, pairs in zip(cfg.policies, per_slot) if pairs]
    _write_summary(out_dir, cfg.experiment, results, endpoints, failures=failures)
    return {"results": results, "failures": failures}


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Coupled policy comparison: all policies share each run's graph."""
    if len(cfg.policies) < 2:
        raise ConfigError("compare needs at least two policies")
    out_dir, pmf_u, pmf_v, profile, _, endpoints = _prepare(cfg)
    finals = {n: [[] for _ in cfg.policies] for n in cfg.n_values}
    for n, slot, traj in _runs(cfg, pmf_u, pmf_v, profile, cfg.policies, cfg.n_values):
        finals[n][slot].append(traj.final_matched / traj.capacity_total)
    results, comparisons = [], {}
    for n, per_slot in finals.items():
        results.extend(_stats_row(n, policy, fractions, None)
                       for policy, fractions in zip(cfg.policies, per_slot))
        block = {"pair": cfg.policies[:2],
                 "paired_differences": [a - b for a, b in zip(*per_slot[:2])]}
        if GREEDY in cfg.policies and RANKING in cfg.policies:
            diffs = [a - b for a, b in zip(per_slot[cfg.policies.index(GREEDY)],
                                           per_slot[cfg.policies.index(RANKING)])]
            wins = sum(1 for d in diffs if d > 0)
            ties = sum(1 for d in diffs if d == 0)
            block.update(greedy_minus_ranking=diffs, greedy_wins=wins, ties=ties,
                         sign_test_p_greedy_gt_ranking=sign_test_p(
                             wins, len(diffs) - ties))
        comparisons[str(n)] = block
    _write_summary(out_dir, cfg.experiment, results, endpoints, comparisons=comparisons)
    return {"results": results, "comparisons": comparisons}


def cmd_capacity_merge(cfg: ExperimentConfig) -> dict:
    """Merge groups of C equal-degree vertices into one vertex of capacity C
    and compare greedy's normalized performance against the baseline."""
    c_merge = cfg.merge_capacity
    # the merged law stretches model_u's support by c_merge; bound it before
    # anything is written (validate cannot: other commands ignore c_merge)
    support = degrees.from_spec(cfg.model_u).k_max * c_merge
    if support > degrees._MAX_SUPPORT:
        raise ConfigError(f"field 'merge_capacity': the merged law's support "
                          f"{support} exceeds {degrees._MAX_SUPPORT} degrees")
    too_small = [n for n in cfg.n_values if n < c_merge]
    if too_small:
        raise ConfigError(f"field 'n_values': {too_small} leave no merged vertex "
                          f"at merge_capacity {c_merge}")
    out_dir, pmf_u, pmf_v, unit, base_curve, endpoints = _prepare(
        cfg, {"capacities": {"kind": "none"}})
    stretched = np.zeros(pmf_u.k_max * c_merge + 1)
    stretched[:: c_merge] = pmf_u.probs
    pmf_u_merged = degrees.explicit(
        stretched, label=f"{pmf_u.label}-merged-x{c_merge}")
    merged = CapacityProfile.fixed(c_merge)
    merged_curve = solve_G_general_capacity(pmf_u_merged, pmf_v, merged, cfg.step)
    endpoints[_model_key(merged_curve)] = merged_curve.endpoint

    results = []
    for n in cfg.n_values:
        if n % c_merge:
            print(f"warning: n={n} not divisible by C={c_merge}; "
                  f"merged model uses {n // c_merge} vertices", file=sys.stderr)
        for size, law, profile, curve, variant in (
                (n, pmf_u, unit, base_curve, "baseline"),
                (n // c_merge, pmf_u_merged, merged, merged_curve, f"merged-x{c_merge}")):
            pairs = [(traj.final_matched / traj.capacity_total, sup_deviation(traj, curve))
                     for _, _, traj in _runs(cfg, law, pmf_v, profile, [GREEDY], [size])]
            results.append(_stats_row(size, GREEDY, *zip(*pairs), variant=variant))
    _write_summary(out_dir, cfg.experiment, results, endpoints)
    return {"results": results, "fluid_endpoints": endpoints}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "fluid": cmd_fluid,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "capacity-merge": cmd_capacity_merge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmatch-bench",
        description="Configuration-model matching experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", help="experiment config JSON path")
        p.add_argument("--preset", help="named preset "
                       f"({', '.join(sorted(PRESETS))})")
        p.add_argument("--seed", type=int, help="override seed_base")
        p.add_argument("--out", help="override output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset, args.seed, args.out)
        _check_fields_read(cfg, args.command)
        outcome = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    failures = outcome.get("failures")
    if failures:
        print(f"runtime failure: {len(failures)} run(s) failed; first: "
              f"{failures[0]['error']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
