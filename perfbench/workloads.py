"""The four workloads: inputs made from the seed, the timed calls into the
program, and output checks computed apart from it.

A workload object lives in one child process. ``setup`` imports the program
and builds the inputs (this is what ``setup_s`` times), ``run`` makes the
timed calls, and ``check`` compares every output against values the
benchmark derives itself. Program functions are always looked up through
their module at call time, so a traced run sees every call.

Nothing here imports cmatch at module level: the orchestrator imports this
file only to write input files.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

import oracles

SNAPSHOTS_OFF = 10**9        # checkpoint spacing beyond any horizon
STEP = 1e-4                  # step of every G-ODE and characteristics solve
SYSTEM_STEP = 1e-3           # the density system's default and largest step
GREEDY_ER4 = 1.0 - math.log(2.0 - math.exp(-4.0)) / 4.0
GREEDY_REG2 = 4.0 * math.sqrt(math.e) - math.e - 3.0


def sub_seeds(seed: int, k: int) -> list:
    """k independent program seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def g_steps(step: float) -> int:
    """RK4 steps of one G-ODE solve (the solver's grid on [0, 1])."""
    return max(1, round(1.0 / step))


def system_steps(pmf_u, pmf_v, step: float) -> int:
    """RK4 steps of solve_full_system: it stops 10 steps short of
    t = mean_u / mean_v."""
    t_end = pmf_u.mean / pmf_v.mean - 10.0 * step
    return max(1, int(math.floor(t_end / step + 1e-9)))


def characteristics_steps(pmf_u, pmf_v, tau_end: float, step: float) -> int:
    """RK4 steps of the auxiliary ODE in verify_characteristics, which runs
    to the time that the system's last grid point warps back to."""
    t_max = -math.log(1.0 - tau_end * pmf_v.mean / pmf_u.mean) / pmf_v.mean
    return max(1, int(math.ceil(t_max / step)))


# ---------------------------------------------------------------------------
# trace hooks: counts taken at the layer boundaries of a traced run


def _hook_run_policy(tracer, args, kwargs, result, span):
    tracer.count("matching.checkpoints", len(result.checkpoints))
    every = kwargs.get("checkpoint_every", args[4] if len(args) > 4 else None)
    if every is None:
        # default spacing: matching.snapshot_s re-runs this call without
        # snapshots once the timed phase is over
        tracer.default_spacing_calls.append((args, kwargs, span[2] - span[1]))


def _hook_write_csv(tracer, args, kwargs, result, span):
    tracer.count("matching.csv_bytes", os.path.getsize(args[1]))


def _hook_build_graph(tracer, args, kwargs, result, span):
    seq = args[0]
    tracer.count("stream.half_edges_paired",
                 min(int(seq.deg_v.sum()), seq.total_u_half_edges))


def _hook_offline(tracer, args, kwargs, result, span):
    tracer.count("offline.distinct_edges", len(set(args[0].real_edges())))


def _hook_g_curve(tracer, args, kwargs, result, span):
    tracer.count("fluid.rk4_steps", len(result.grid) - 1)


def _hook_system(tracer, args, kwargs, result, span):
    tracer.count("fluid.rk4_steps", len(result.t) - 1)


def _hook_characteristics(tracer, args, kwargs, result, span):
    pmf_u, pmf_v = args[0], args[1]
    system, step = kwargs["system"], kwargs["step"]
    tracer.count("fluid.rk4_steps",
                 characteristics_steps(pmf_u, pmf_v, float(system.t[-1]), step))


TRACE_HOOKS = {
    "matching.run_policy": _hook_run_policy,
    "matching.write_trajectory_csv": _hook_write_csv,
    "stream.build_full_graph": _hook_build_graph,
    "offline.max_matching": _hook_offline,
    "offline.max_b_matching": _hook_offline,
    "fluid.solve_G_capless": _hook_g_curve,
    "fluid.solve_G_fixed_capacity": _hook_g_curve,
    "fluid.solve_G_general_capacity": _hook_g_curve,
    "fluid.solve_full_system": _hook_system,
    "fluid.verify_characteristics": _hook_characteristics,
}


# ---------------------------------------------------------------------------


class Workload:
    """One round of operations. Subclasses fill ``plan`` (operation name,
    zero-argument call) and ``units`` in ``setup`` and implement ``check``,
    which returns failure messages per operation."""

    name = ""

    @classmethod
    def write_inputs(cls, inputs_dir: Path, seed: int) -> None:
        """Input files the child reads; most workloads need none."""

    def __init__(self, seed: int, inputs_dir: Path, out_dir: Path, tracer):
        self.seed = seed
        self.inputs_dir = inputs_dir
        self.out_dir = out_dir
        self.tracer = tracer
        self.plan = []
        self.units = 0
        self.results = {}
        self.errors = {}

    @property
    def ops(self) -> list:
        return [name for name, _ in self.plan]

    def run(self) -> None:
        for name, call in self.plan:
            try:
                self.results[name] = call()
            except Exception as exc:  # one failed operation must not stop the round
                self.errors[name] = f"{type(exc).__name__}: {exc}"

    def failures(self) -> dict:
        """Failure messages for every operation that failed."""
        out = {name: [msg] for name, msg in self.errors.items()}
        try:
            found = self.check()
        except Exception as exc:
            return {name: [f"check raised {type(exc).__name__}: {exc}"] for name in self.ops}
        for name, msgs in found.items():
            if msgs:
                out.setdefault(name, []).extend(msgs)
        return out


def _expect(msgs: list, ok: bool, text: str) -> None:
    if not ok:
        msgs.append(text)


def _curve_is_sane(curve, msgs: list) -> None:
    m = curve.matched
    _expect(msgs, bool(np.all(np.diff(m) >= -1e-12)), "matched curve decreases")
    _expect(msgs, bool(m.min() >= -1e-12 and m.max() <= 1.0 + 1e-12),
            f"matched curve leaves [0, 1]: [{m.min()}, {m.max()}]")


# ---------------------------------------------------------------------------


class CliSimulate(Workload):
    """``cmatch-bench simulate`` in-process through ``bench_cli.main``."""

    name = "cli-simulate"
    N = 10_000
    RUNS = 2
    POLICIES = ("greedy", "ranking", "smallest")
    CONFIG = "simulate.json"

    @classmethod
    def write_inputs(cls, inputs_dir: Path, seed: int) -> None:
        config = {
            "experiment": "perfbench-cli-simulate",
            "model_u": {"kind": "poisson", "c": 4},
            "model_v": {"kind": "poisson", "c": 4},
            "n_values": [cls.N],
            "runs": cls.RUNS,
            "policies": list(cls.POLICIES),
            "capacities": {"kind": "none"},
            "seed_base": seed,
            "step": STEP,
        }
        (inputs_dir / cls.CONFIG).write_text(json.dumps(config, indent=2) + "\n")

    def setup(self) -> None:
        with self.tracer.span("bench_cli.import"):
            from cmatch import bench_cli
        self.tracer.install(TRACE_HOOKS)
        self.bench_cli = bench_cli
        config = str(self.inputs_dir / self.CONFIG)
        bench_cli.load_config(config, None, None, str(self.out_dir))
        argv = ["simulate", "--config", config, "--out", str(self.out_dir)]
        self.plan = [("simulate", lambda: self.bench_cli.main(argv))]
        self.trajectories = [(p, self.seed + r) for p in self.POLICIES
                             for r in range(self.RUNS)]
        self.plan_ops = ["simulate"] + [f"trajectory:{p}:seed{s}"
                                        for p, s in self.trajectories]
        # Same law on both sides, so T = round(N * mean_u / mean_v) = N.
        self.units = len(self.trajectories) * self.N

    @property
    def ops(self) -> list:
        return self.plan_ops

    def check(self) -> dict:
        out = {op: [] for op in self.ops}
        msgs = out["simulate"]
        code = self.results.get("simulate")
        if code != 0:
            return {op: [f"simulate exited with {code!r}"] for op in self.ops}
        import jsonschema
        summary = json.loads((self.out_dir / "summary.json").read_text())
        try:
            jsonschema.validate(summary, self.bench_cli.SUMMARY_SCHEMA)
        except jsonschema.ValidationError as exc:
            msgs.append(f"summary does not validate: {exc.message}")
        _expect(msgs, "failures" not in summary, f"runs failed: {summary.get('failures')}")
        rows = {r["policy"]: r for r in summary["results"]}
        _expect(msgs, sorted(rows) == sorted(self.POLICIES), f"result rows {sorted(rows)}")
        endpoint = summary["fluid_endpoints"].get("u=poisson-4|v=poisson-4|cap=none")
        _expect(msgs, endpoint is not None and abs(endpoint - GREEDY_ER4) <= 1e-5,
                f"fluid endpoint {endpoint} vs closed form {GREEDY_ER4}")

        finals = {p: [] for p in self.POLICIES}
        for policy, seed in self.trajectories:
            tmsgs = out[f"trajectory:{policy}:seed{seed}"]
            path = self.out_dir / f"traj_{policy}_n{self.N}_seed{seed}.csv"
            lines = path.read_text().splitlines()
            if lines[0] != "step,matched" or len(lines) != self.N + 2:
                tmsgs.append(f"{path.name}: header {lines[0]!r}, {len(lines) - 1} rows")
                continue
            table = np.array([[int(x) for x in ln.split(",")] for ln in lines[1:]])
            _expect(tmsgs, bool(np.array_equal(table[:, 0], np.arange(self.N + 1))),
                    f"{path.name}: steps are not 0..T")
            steps = np.diff(table[:, 1])
            _expect(tmsgs, table[0, 1] == 0 and bool(np.all((steps == 0) | (steps == 1))),
                    f"{path.name}: matched does not start at 0 and rise by 0 or 1")
            finals[policy].append(int(table[-1, 1]) / self.N)

        for policy, row in rows.items():
            _expect(msgs, row["runs"] == self.RUNS and row["n"] == self.N,
                    f"{policy}: runs {row['runs']}, n {row['n']}")
            if len(finals.get(policy, ())) == self.RUNS:
                _expect(msgs, abs(row["mean"] - float(np.mean(finals[policy]))) <= 1e-12,
                        f"{policy}: summary mean disagrees with its trajectory files")
        greedy = rows.get("greedy")
        if greedy is not None:
            _expect(msgs, abs(greedy["mean"] - GREEDY_ER4) <= 0.01,
                    f"greedy mean {greedy['mean']} vs fluid {GREEDY_ER4}")
            _expect(msgs, greedy["sup_dev"] is not None and greedy["sup_dev"] <= 0.02,
                    f"greedy sup_dev {greedy['sup_dev']}")
        return out


class McBulk(Workload):
    """Bulk Monte Carlo through ``matching.final_matched_counts``."""

    name = "mc-bulk"
    # (offline degrees, arrival degrees, runs). Runs are chosen so that the
    # 0.005 tolerance is at least six standard errors of the mean, from the
    # exact variance; the last three need the balancing vertex.
    TINY = (
        ((2, 2), (3, 1), 330_000),
        ((3, 1), (1, 1), 360_000),        # arrivals short: leftover pairing
        ((2, 1, 1), (3, 2), 100_000),     # offline short by one half-edge
        ((1, 2), (2, 2, 1), 170_000),     # offline short by two half-edges
    )
    MID_N = 1_000
    MID_RUNS = 600
    TOL = 0.005

    def setup(self) -> None:
        from cmatch import degrees, matching, stream
        self.tracer.install(TRACE_HOOKS)
        self.matching = matching
        seeds = sub_seeds(self.seed, len(self.TINY) + 1)
        self.instances = []
        for (du, dv, runs), s in zip(self.TINY, seeds):
            seq = stream.DegreeSequencePair.from_degrees(du, dv)
            self.instances.append((f"tiny:{du}/{dv}", seq, runs, s, (du, dv)))
        law = degrees.regular(2)
        mid = stream.sample_degree_sequences(law, law, self.MID_N, seeds[-1])
        self.instances.append(("regular2:n1000", mid, self.MID_RUNS, seeds[-1], None))
        self.plan = [(name, self._call(seq, runs, s))
                     for name, seq, runs, s, _ in self.instances]
        self.units = sum(runs * seq.total_u_half_edges
                         for _, seq, runs, _, _ in self.instances)

    def _call(self, seq, runs, seed):
        return lambda: self.matching.final_matched_counts(seq, None, runs=runs, seed=seed)

    @property
    def ops(self) -> list:
        return [name for name, *_ in self.instances] + \
               [f"coupling:{name}" for name, *_ in self.instances]

    def check(self) -> dict:
        out = {op: [] for op in self.ops}
        for name, seq, runs, seed, degs in self.instances:
            counts = self.results.get(name)
            msgs = out[name]
            if counts is None:
                continue
            _expect(msgs, len(counts) == runs, f"{len(counts)} counts for {runs} runs")
            _expect(msgs, counts.min() >= 0 and counts.max() <= min(seq.n_offline, seq.n_arrivals),
                    "matched count out of range")
            if degs is not None:
                exact, var = oracles.law_mean_variance(oracles.greedy_matched_law(*degs))
                gap = abs(float(counts.mean()) - float(exact))
                _expect(msgs, gap <= self.TOL,
                        f"mean {counts.mean()} vs exact {float(exact)} "
                        f"(standard error {math.sqrt(float(var) / runs):.2e})")
            else:
                frac = float(counts.mean()) / seq.n_offline
                _expect(msgs, abs(frac - GREEDY_REG2) <= self.TOL,
                        f"matched fraction {frac} vs fluid {GREEDY_REG2}")
            cmsgs = out[f"coupling:{name}"]
            one = int(self.matching.final_matched_counts(seq, None, runs=1, seed=seed)[0])
            ref = self.matching.run_policy(seq, None, "greedy", seed,
                                           checkpoint_every=SNAPSHOTS_OFF).final_matched
            _expect(cmsgs, one == ref, f"runs=1 gives {one}, run_policy gives {ref}")
        return out


class FluidSolve(Workload):
    """Library fluid solves at step 1e-4."""

    name = "fluid-solve"
    REGULAR = (2, 3, 4, 6, 10)
    POISSON = (1, 2, 4)
    MIXED = (0.5, 0.3, 0.2)

    def setup(self) -> None:
        from cmatch import degrees, fluid
        self.tracer.install(TRACE_HOOKS)
        self.fluid = fluid
        laws = {f"regular-{d}": degrees.regular(d) for d in self.REGULAR}
        laws.update({f"poisson-{c}": degrees.poisson(c) for c in self.POISSON})
        self.laws = laws
        profiles = {"0,0,1": (0, 0, 1), "1": (1,), "mixed": self.MIXED}
        self.profiles = {k: fluid.CapacityProfile.from_fractions(p)
                         for k, p in profiles.items()}
        r4 = laws["regular-4"]
        plan = [(f"capless:{name}", self._capless(pmf)) for name, pmf in laws.items()]
        plan.append(("fixed3:regular-4",
                     lambda: self.fluid.solve_G_fixed_capacity(r4, r4, 3, STEP)))
        for key, prof in self.profiles.items():
            plan.append((f"profile:{key}:regular-4", self._profile(r4, prof)))
        for name in ("regular-4", "poisson-4"):
            plan.append((f"system:{name}", self._system(laws[name])))
            plan.append((f"characteristics:{name}", self._characteristics(name)))
        self.plan = plan
        self.units = (len(laws) + 1 + len(self.profiles)) * g_steps(STEP)
        for name in ("regular-4", "poisson-4"):
            pmf = laws[name]
            n_sys = system_steps(pmf, pmf, SYSTEM_STEP)
            self.units += n_sys + characteristics_steps(pmf, pmf, n_sys * SYSTEM_STEP, STEP)

    def _capless(self, pmf):
        return lambda: self.fluid.solve_G_capless(pmf, pmf, STEP)

    def _profile(self, pmf, prof):
        return lambda: self.fluid.solve_G_general_capacity(pmf, pmf, prof, STEP)

    def _system(self, pmf):
        return lambda: self.fluid.solve_full_system(pmf, pmf, SYSTEM_STEP)

    def _characteristics(self, name):
        pmf = self.laws[name]
        return lambda: self.fluid.verify_characteristics(
            pmf, pmf, step=STEP, seed=self.seed, system=self.results[f"system:{name}"])

    def check(self) -> dict:
        out = {op: [] for op in self.ops}
        res = self.results
        for op, curve in res.items():
            if hasattr(curve, "matched"):
                _expect(out[op], len(curve.grid) == g_steps(STEP) + 1,
                        f"grid has {len(curve.grid)} points")
                _curve_is_sane(curve, out[op])

        c2 = res.get("capless:regular-2")
        if c2 is not None:
            exact_g = np.exp(c2.grid / 2.0) - 1.0
            err = max(float(np.max(np.abs(c2.G - exact_g))),
                      abs(c2.endpoint - GREEDY_REG2))
            _expect(out["capless:regular-2"], err <= 1e-5, f"closed form error {err:.2e}")
        for c in self.POISSON:
            curve = res.get(f"capless:poisson-{c}")
            if curve is not None:
                exact = 1.0 - math.log(2.0 - math.exp(-c)) / c
                err = abs(curve.endpoint - exact)
                _expect(out[f"capless:poisson-{c}"], err <= 1e-5,
                        f"closed form error {err:.2e}")

        for profile_op, ref_op in (("profile:0,0,1:regular-4", "fixed3:regular-4"),
                                   ("profile:1:regular-4", "capless:regular-4")):
            a, b = res.get(profile_op), res.get(ref_op)
            if a is not None and b is not None:
                gap = max(float(np.max(np.abs(a.G - b.G))),
                          float(np.max(np.abs(a.matched - b.matched))))
                _expect(out[profile_op], gap <= 1e-10,
                        f"degenerate profile differs from {ref_op} by {gap:.2e}")

        for name in ("regular-4", "poisson-4"):
            pmf = self.laws[name]
            system = res.get(f"system:{name}")
            msgs = out[f"system:{name}"]
            if system is not None:
                mass = system.half_edge_mass()
                drift = float(np.max(np.abs(mass - (pmf.mean - pmf.mean * system.t))))
                total = float(np.max(np.abs(system.free.sum(axis=1)
                                            + system.saturated.sum(axis=1) - 1.0)))
                _expect(msgs, drift <= 1e-6 and total <= 1e-6,
                        f"conservation: half-edge mass {drift:.2e}, density sum {total:.2e}")
                matched = system.matched_fraction()
                _expect(msgs, bool(np.all(np.diff(matched) >= -1e-12)
                                   and matched.min() >= -1e-12 and matched.max() <= 1 + 1e-12),
                        "system matched fraction not monotone in [0, 1]")
                curve = res.get(f"capless:{name}")
                if curve is not None:
                    # t arrivals per offline vertex is the proportion
                    # s = t * mean_v / mean_u of all arrivals
                    gap = float(np.max(np.abs(matched - curve.matched_at(system.t))))
                    _expect(msgs, gap <= 1e-4, f"system vs curve gap {gap:.2e}")
            report = res.get(f"characteristics:{name}")
            if report is not None:
                _expect(out[f"characteristics:{name}"], report.max_discrepancy <= 5e-4,
                        f"characteristics discrepancy {report.max_discrepancy:.2e}")
        return out


class OfflineRatio(Workload):
    """Graph realization, greedy and the exact offline optima."""

    name = "offline-ratio"
    N = 20_000
    SEEDS_PER_MODEL = 2
    TINY = 6

    def setup(self) -> None:
        from cmatch import degrees, matching, offline, stream
        self.tracer.install(TRACE_HOOKS)
        self.stream, self.matching, self.offline = stream, matching, offline
        k = self.SEEDS_PER_MODEL
        seeds = sub_seeds(self.seed, 2 * k + self.TINY)
        r3, p4 = degrees.regular(3), degrees.poisson(4)
        self.cases = []
        for i in range(k):
            s = seeds[i]
            self.cases.append((f"regular3:{i}", stream.sample_degree_sequences(r3, r3, self.N, s),
                               1, s))
            s = seeds[k + i]
            self.cases.append((f"poisson4-cap2:{i}",
                               stream.sample_degree_sequences(p4, p4, self.N, s), 2, s))
        small = (degrees.regular(2), degrees.poisson(1.5))
        for j in range(self.TINY):
            s = seeds[2 * k + j]
            law = small[j % 2]
            seq = stream.sample_degree_sequences(law, law, 3 + j % 3, s)
            self.cases.append((f"tiny:{j}", seq, None, s))
        self.plan = [(name, self._pipeline(seq, cap, s)) for name, seq, cap, s in self.cases]
        self.units = sum(min(int(seq.deg_u.sum()), int(seq.deg_v.sum()))
                         for _, seq, _, _ in self.cases)

    def _pipeline(self, seq, cap, seed):
        stream, matching, offline = self.stream, self.matching, self.offline

        def call():
            graph = stream.build_full_graph(seq, seed)
            if cap is None:          # tiny graph: optima only
                caps = [1 + u % 2 for u in range(seq.n_offline)]
                return graph, None, offline.max_matching(graph).size, \
                    offline.max_b_matching(graph, caps).size
            greedy = matching.run_policy(seq, None if cap == 1 else cap, "greedy", seed,
                                         checkpoint_every=SNAPSHOTS_OFF).final_matched
            caps = np.full(seq.n_offline, cap, dtype=np.int64)
            if cap == 1:
                return graph, greedy, offline.max_matching(graph).size, \
                    offline.max_b_matching(graph, caps).size
            return graph, greedy, None, offline.max_b_matching(graph, caps).size
        return call

    def check(self) -> dict:
        out = {op: [] for op in self.ops}
        for name, seq, cap, seed in self.cases:
            if name not in self.results:
                continue
            graph, greedy, opt, b_opt = self.results[name]
            msgs = out[name]
            edges = graph.real_edges()
            expected = min(int(seq.deg_u.sum()), int(seq.deg_v.sum()))
            _expect(msgs, len(edges) == expected,
                    f"{len(edges)} real edges, degrees imply {expected}")
            _expect(msgs, [len(a) for a in graph.adjacency] == [int(d) for d in seq.deg_v],
                    "arrival degrees not realized")
            if cap is None:
                caps = [1 + u % 2 for u in range(seq.n_offline)]
                bf = oracles.brute_force_b_matching(edges, seq.n_arrivals, [1] * seq.n_offline)
                bf_b = oracles.brute_force_b_matching(edges, seq.n_arrivals, caps)
                _expect(msgs, opt == bf, f"max_matching {opt}, brute force {bf}")
                _expect(msgs, b_opt == bf_b, f"max_b_matching {b_opt}, brute force {bf_b}")
            elif cap == 1:
                _expect(msgs, opt == self.N, f"3-regular optimum {opt}, expected {self.N}")
                _expect(msgs, greedy <= opt <= 2 * greedy, f"greedy {greedy}, optimum {opt}")
                _expect(msgs, b_opt == opt, f"unit-capacity b-matching {b_opt} vs {opt}")
            else:
                bound = min(cap * seq.n_offline, seq.n_arrivals)
                _expect(msgs, greedy <= b_opt <= 2 * greedy, f"greedy {greedy}, optimum {b_opt}")
                _expect(msgs, b_opt <= bound, f"optimum {b_opt} above min(2N, T) = {bound}")
        return out


WORKLOADS = {w.name: w for w in (CliSimulate, McBulk, FluidSolve, OfflineRatio)}
