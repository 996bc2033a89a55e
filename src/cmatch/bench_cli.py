"""Experiment driver: fluid curves, Monte Carlo trajectories, coupled policy
comparisons and the capacity-merge study, with CSV/JSON emission.

Subcommands: ``fluid | simulate | compare | capacity-merge``. Each accepts
``--config <json>`` and/or ``--preset <name>`` plus ``--seed`` / ``--out``
overrides. ``--seed`` sets ``seed_base``; run seeds are
``seed_base + run_index``, so outputs are reproducible byte for byte (the
summary JSON carries the only timestamp). A command given a field it does
not read, set away from its default, exits 2 naming the field: ``fluid``
draws nothing, so ``fluid --seed 3`` exits 2 naming ``seed_base``.
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
from .fluid import (UNIT_CAPACITY, CapacityProfile, FluidCurve,
                    solve_G_general_capacity, sup_deviation, write_fluid_csv)
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

        def is_int(x) -> bool:
            return type(x) is int

        need(isinstance(self.experiment, str), "experiment", "a string")
        need(isinstance(self.outputs, str), "outputs", "a string")
        need(isinstance(self.n_values, list) and len(self.n_values) > 0
             and all(is_int(n) and 1 <= n <= degrees._MAX_SUPPORT
                     for n in self.n_values),
             "n_values", f"a nonempty list of integers in [1, {degrees._MAX_SUPPORT}]")
        need(is_int(self.runs) and self.runs >= 1, "runs", "an integer >= 1")
        need(is_int(self.seed_base) and self.seed_base >= 0,
             "seed_base", "an integer >= 0")
        need(is_int(self.merge_capacity) and self.merge_capacity >= 1,
             "merge_capacity", "an integer >= 1")
        need(type(self.step) in (int, float) and 0 < self.step <= 1e-2,
             "step", "a number in (0, 1e-2]")
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
            spec, "C", lambda C: degrees._is_int(C) and C >= 1, "an integer >= 1"))
    return CapacityProfile.from_fractions(degrees._spec_field(
        spec, "p", degrees._is_real_list, "a list of numbers"))


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
    for name, build in zip(_ENTRY_FIELDS, (degrees.from_spec, degrees.from_spec,
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
                   endpoints: dict, extras: dict | None = None) -> Path:
    summary = {
        "experiment": experiment,
        "results": sorted(results, key=lambda r: (r["n"], r["policy"],
                                                  r.get("variant", ""))),
        "fluid_endpoints": endpoints,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extras:
        summary.update(extras)
    path = out_dir / "summary.json"
    with atomic_write(path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def sign_test_p(wins: int, trials: int) -> float:
    """Exact one-sided sign test: P(X >= wins) for X ~ Binomial(trials, 1/2)."""
    return sum(math.comb(trials, k) for k in range(wins, trials + 1)) / 2 ** trials


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


def cmd_simulate(cfg: ExperimentConfig) -> dict:
    """Monte Carlo runs per (n, policy) with trajectories and deviations."""
    out_dir, pmf_u, pmf_v, profile, curve, endpoints = _prepare(cfg)
    results = []
    failures = []
    for n in cfg.n_values:
        caps = profile.capacities(n)
        for policy in cfg.policies:
            fractions, sup_devs = [], []
            for r in range(cfg.runs):
                seed = cfg.seed_base + r
                try:
                    seq = sample_degree_sequences(pmf_u, pmf_v, n, seed)
                    traj = run_policy(seq, caps, policy, seed)
                except Exception as exc:  # keep remaining runs alive
                    failures.append({"n": n, "policy": policy, "seed": seed,
                                     "error": f"{type(exc).__name__}: {exc}"})
                    continue
                fractions.append(traj.final_matched / traj.capacity_total)
                sup_devs.append(sup_deviation(traj, curve))
                write_trajectory_csv(
                    traj, out_dir / f"traj_{policy}_n{n}_seed{seed}.csv")
            if fractions:
                results.append(_stats_row(n, policy, fractions, sup_devs))
    extras = {"failures": failures} if failures else None
    _write_summary(out_dir, cfg.experiment, results, endpoints, extras)
    return {"results": results, "failures": failures}


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Coupled policy comparison: all policies share each run's graph."""
    if len(cfg.policies) < 2:
        raise ConfigError("compare needs at least two policies")
    out_dir, pmf_u, pmf_v, profile, _, endpoints = _prepare(cfg)
    results = []
    comparisons = {}
    for n in cfg.n_values:
        caps = profile.capacities(n)
        finals = [[] for _ in cfg.policies]
        for r in range(cfg.runs):
            seed = cfg.seed_base + r
            seq = sample_degree_sequences(pmf_u, pmf_v, n, seed)
            for slot, policy in enumerate(cfg.policies):
                traj = run_policy(seq, caps, policy, seed)
                finals[slot].append(traj.final_matched / traj.capacity_total)
        for slot, policy in enumerate(cfg.policies):
            results.append(_stats_row(n, policy, finals[slot], None))
        block = {
            "pair": [cfg.policies[0], cfg.policies[1]],
            "paired_differences": [a - b for a, b in zip(finals[0], finals[1])],
        }
        if GREEDY in cfg.policies and RANKING in cfg.policies:
            g = finals[cfg.policies.index(GREEDY)]
            r_ = finals[cfg.policies.index(RANKING)]
            diffs = [a - b for a, b in zip(g, r_)]
            wins = sum(1 for d in diffs if d > 0)
            ties = sum(1 for d in diffs if d == 0)
            block.update(greedy_minus_ranking=diffs, greedy_wins=wins, ties=ties,
                         sign_test_p_greedy_gt_ranking=sign_test_p(
                             wins, len(diffs) - ties))
        comparisons[str(n)] = block
    extras = {"comparisons": comparisons} if comparisons else None
    _write_summary(out_dir, cfg.experiment, results, endpoints, extras)
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
        n_merged = n // c_merge
        if n_merged * c_merge != n:
            print(f"warning: n={n} not divisible by C={c_merge}; "
                  f"merged model uses {n_merged} vertices", file=sys.stderr)
        caps, caps_m = unit.capacities(n), merged.capacities(n_merged)
        base_fr, base_dev, merged_fr, merged_dev = [], [], [], []
        for r in range(cfg.runs):
            seed = cfg.seed_base + r
            seq = sample_degree_sequences(pmf_u, pmf_v, n, seed)
            traj = run_policy(seq, caps, GREEDY, seed)
            base_fr.append(traj.final_matched / traj.capacity_total)
            base_dev.append(sup_deviation(traj, base_curve))
            seq_m = sample_degree_sequences(pmf_u_merged, pmf_v, n_merged, seed)
            traj_m = run_policy(seq_m, caps_m, GREEDY, seed)
            merged_fr.append(traj_m.final_matched / traj_m.capacity_total)
            merged_dev.append(sup_deviation(traj_m, merged_curve))
        results.append(_stats_row(n, GREEDY, base_fr, base_dev,
                                  variant="baseline"))
        results.append(_stats_row(n_merged, GREEDY, merged_fr, merged_dev,
                                  variant=f"merged-x{c_merge}"))
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
