"""cmatch benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fluid-solve --seed 0 --seconds 30 --trace 0

Each round of the workload runs in a fresh interpreter, started one at a
time with one thread, so every round pays the start-up a user pays. Rounds
repeat until the next one would overrun --seconds (at least MIN_ROUNDS),
and each metric is the median over rounds. With --trace 1 the rounds
alternate between untraced and traced, and the per-layer metrics come from
the traced ones. Between rounds a fixed pure-Python loop is timed, so that
drift of the host can be told apart from a change in the program.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
DEADLINE_S = 170.0          # the whole run ends well within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput", "work/s"),
    ("peak_rss_mib", "MiB"),
)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, index: int, traced: bool, deadline: float, warmup: bool = False):
    """Start one round, wait for it and return its result with the parent's
    measurements, or None with a message when it failed to finish."""
    tag = "warmup" if warmup else f"round{index}"
    out_dir = OUT / args.workload / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = OUT / args.workload / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", str(OUT / args.workload / "inputs"),
           "--out", str(out_dir), "--result", str(result_path),
           "--trace", "1" if traced else "0"]
    if warmup:
        cmd.append("--warmup")
    log_path = OUT / args.workload / f"{tag}.log"
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"{tag} did not finish before the deadline"
        t_exit = time.monotonic()
    shutil.rmtree(out_dir, ignore_errors=True)
    if code != 0 or (not warmup and not result_path.exists()):
        tail = log_path.read_text()[-2000:]
        return None, f"{tag} exited with {code}:\n{tail}"
    if warmup:
        return {}, None
    res = json.loads(result_path.read_text())
    res["traced"] = traced
    res["wall_s"] = t_exit - t_spawn - res["excluded_s"]
    res["setup_s"] = res["t_ready"] - t_spawn
    res["throughput"] = res["units"] / (res["t_end"] - res["t_start"])
    res["peak_rss_mib"] = res["maxrss_kib"] / 1024.0
    return res, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "cmatch" / "__init__.py").is_file():
        print(f"no cmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    inputs = OUT / args.workload / "inputs"
    inputs.mkdir(parents=True)
    workloads.WORKLOADS[args.workload].write_inputs(inputs, args.seed)
    compileall.compile_dir(ROOT / "src", quiet=1)
    _, err = run_child(args, 0, False, deadline, warmup=True)
    if err:
        print(err, file=sys.stderr)
        return 1

    rounds, refs, problems = [], [], []
    attempted = failed = 0
    t_measure = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_measure
        # trace mode runs untraced and traced rounds in pairs
        enough = len(rounds) >= MIN_ROUNDS and not (args.trace and len(rounds) % 2)
        if enough and elapsed + last > args.seconds:
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t_round = time.monotonic()
        res, err = run_child(args, len(rounds), traced, deadline)
        last = time.monotonic() - t_round
        refs.append(reference_loop())
        if err:
            problems.append(err)
            attempted += 1
            failed += 1
            break
        rounds.append(res)
        attempted += len(res["ops"])
        failed += len(res["failures"])
        for op, msgs in res["failures"].items():
            problems.append(f"round {len(rounds) - 1} {op}: {'; '.join(msgs)}")
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: "
              f"wall {res['wall_s']:.3f}s setup {res['setup_s']:.3f}s "
              f"throughput {res['throughput']:.1f}/s rss {res['peak_rss_mib']:.1f}MiB "
              f"ref {refs[-1]:.4f}s", file=sys.stderr)
    for text in problems:
        print(text, file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    metrics = {}
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, unit in units.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced_rounds)
                         - statistics.median(r["wall_s"] for r in plain)
                         if traced_rounds and plain else 0.0)
            else:
                value = (statistics.median(r["layers"][name] for r in traced_rounds)
                         if traced_rounds else 0.0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            value = statistics.median(r[name] for r in plain) if plain else 0.0
            metrics[name] = {"value": value, "unit": unit}

    print(f"reference_loop_s median {statistics.median(refs):.5f} "
          f"min {min(refs):.5f} max {max(refs):.5f} over {len(refs)} "
          f"(rounds: {len(plain)} untraced, {len(traced_rounds)} traced; "
          f"run {time.monotonic() - t0:.1f}s)")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
