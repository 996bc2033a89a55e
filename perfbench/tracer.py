"""Span and counter recording around the public functions of each layer.

A traced run replaces each layer function by a wrapper in every cmatch
module that holds it, so calls made by `bench_cli` and calls
made by the benchmark itself are both seen. Spans (name, start, end,
parent) and counts stay in memory; the child process writes them out once
the timed phase is over. Untraced runs use :class:`NullTracer`, which
patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Layer functions wrapped in a traced run, by module.
LAYER_FUNCTIONS = {
    "stream": ("sample_degree_sequences", "build_full_graph"),
    "matching": ("run_policy", "final_matched_counts", "write_trajectory_csv"),
    "fluid": ("solve_G_capless", "solve_G_fixed_capacity",
              "solve_G_general_capacity", "solve_full_system",
              "verify_characteristics", "sup_deviation"),
    "offline": ("max_matching", "max_b_matching"),
    "bench_cli": ("load_config", "cmd_simulate"),
}
# Per-layer metrics of a traced run: (name, unit, better). Times are totals
# over the round; a layer that a workload never calls reads 0.
PER_LAYER = (
    ("degrees.h_ratio_calls", "count", "lower"),
    ("degrees.pgf_deriv_calls", "count", "lower"),
    ("stream.sample_degree_sequences_s", "s", "lower"),
    ("stream.build_full_graph_s", "s", "lower"),
    ("stream.half_edges_per_s", "1/s", "higher"),
    ("matching.run_policy.greedy_s", "s", "lower"),
    ("matching.run_policy.ranking_s", "s", "lower"),
    ("matching.run_policy.smallest_s", "s", "lower"),
    ("matching.snapshot_s", "s", "lower"),
    ("matching.checkpoints", "count", "lower"),
    ("matching.final_matched_counts_s", "s", "lower"),
    ("matching.write_trajectory_csv_s", "s", "lower"),
    ("matching.csv_bytes", "B", "lower"),
    ("fluid.solve_G_capless_s", "s", "lower"),
    ("fluid.solve_G_fixed_capacity_s", "s", "lower"),
    ("fluid.solve_G_general_capacity_s", "s", "lower"),
    ("fluid.solve_full_system_s", "s", "lower"),
    ("fluid.verify_characteristics_s", "s", "lower"),
    ("fluid.rk4_steps", "count", "lower"),
    ("fluid.sup_deviation_s", "s", "lower"),
    ("offline.max_matching_s", "s", "lower"),
    ("offline.max_b_matching_s", "s", "lower"),
    ("offline.distinct_edges", "count", "lower"),
    ("bench_cli.import_s", "s", "lower"),
    ("bench_cli.load_config_s", "s", "lower"),
    ("bench_cli.cmd_simulate_s", "s", "lower"),
    ("bench_cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Hot scalar methods of the degree law: counted, not timed, since a span
# per call would cost more than the call.
COUNTED_METHODS = ("h_ratio", "pgf_deriv")


def _policy_of(args, kwargs) -> str:
    if "policy" in kwargs:
        return kwargs["policy"]
    return args[2] if len(args) > 2 else "greedy"


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing, patches nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def install(self, hooks=None):
        pass

    def uninstall(self):
        pass


class Tracer:
    """In-memory spans and counts for one child process."""

    enabled = True

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        # run_policy calls made at the default checkpoint spacing:
        # (args, kwargs, seconds)
        self.default_spacing_calls = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "matching.run_policy":
                span_name = f"{name}.{_policy_of(args, kwargs)}"
            with tracer.span(span_name) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result, rec)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self, hooks=None):
        """Wrap every layer function of the loaded cmatch modules wherever a
        cmatch module refers to it. ``hooks`` maps a span name to a callable
        ``hook(tracer, args, kwargs, result, span)`` run after the span."""
        hooks = hooks or {}
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cmatch" or name.startswith("cmatch.")}
        for short, fnames in LAYER_FUNCTIONS.items():
            home = modules.get(f"cmatch.{short}")
            if home is None:
                continue
            for fname in fnames:
                original = getattr(home, fname)
                name = f"{short}.{fname}"
                wrapper = self._wrap(original, name, hooks.get(name))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)
                    table = vars(mod).get("_COMMANDS")
                    if isinstance(table, dict):
                        for key, value in list(table.items()):
                            if value is original:
                                self._replace(table, key, wrapper)
        pmf_class = modules["cmatch.degrees"].DegreePMF
        for meth in COUNTED_METHODS:
            self._replace(pmf_class, meth,
                          self._counted(getattr(pmf_class, meth), f"degrees.{meth}_calls"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------------

    def totals(self) -> dict:
        """Total duration per span name."""
        out = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict:
        """Duration per span name minus the time its direct children cover
        (spans of one thread nest, so children never overlap)."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out


def layer_metrics(tracer: Tracer, snapshot_s: float) -> dict:
    """Per-layer values of one traced child, except trace.overhead_s, which
    compares traced and untraced children."""
    totals = tracer.totals()
    counts = tracer.counts
    built = totals.get("stream.build_full_graph", 0.0)
    special = {
        "stream.half_edges_per_s": (counts.get("stream.half_edges_paired", 0) / built
                                    if built > 0 else 0.0),
        "matching.snapshot_s": snapshot_s,
        "bench_cli.import_s": totals.get("bench_cli.import", 0.0),
        "bench_cli.self_s": tracer.self_times().get("bench_cli.cmd_simulate", 0.0),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name in special:
            out[name] = special[name]
        elif unit == "s":
            out[name] = totals.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
