#!/usr/bin/env python3
"""Greedy against ranking (and the lookahead baselines) on coupled graphs.

On 2-regular configuration models greedy beats ranking: ranking's fixed
permutation biases it toward fresh offline vertices (two unpaired
half-edges) over passed-over ones (a single half-edge left), and the
passed-over vertices it spurns tend to die unmatched. The bias is exactly
2/3 vs greedy's 1/2, which this demo measures directly, together with
per-seed paired differences on the identical realized graphs and the
competitive ratio against the exact offline optimum.

Run:  python3 demos/policy_faceoff.py [--n 10000 --runs 10]
"""

import argparse

import numpy as np

from cmatch import (GREEDY, HIGHEST, RANKING, SMALLEST, build_full_graph,
                    choice_events, regular, run_policy,
                    sample_degree_sequences)
from cmatch.offline import max_matching


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    pmf = regular(2)
    finals = {p: [] for p in (SMALLEST, GREEDY, RANKING, HIGHEST)}
    events = deg2 = 0
    for seed in range(args.runs):
        seq = sample_degree_sequences(pmf, pmf, args.n, seed=seed)
        for policy in finals:
            traj = run_policy(seq, None, policy, seed=seed)
            finals[policy].append(traj.final_matched / traj.capacity_total)
            if policy == RANKING:
                seen, won = choice_events(traj)
                events += seen
                deg2 += won

    print(f"2-regular, n={args.n}, {args.runs} coupled seeds "
          "(same realized graph per seed):")
    for policy, vals in finals.items():
        print(f"  {policy:9s} mean matched fraction {np.mean(vals):.5f}")

    diffs = np.array(finals[GREEDY]) - np.array(finals[RANKING])
    print(f"\ngreedy - ranking per seed: min {diffs.min():+.5f}, "
          f"max {diffs.max():+.5f}, wins {np.sum(diffs > 0)}/{len(diffs)}")
    print(f"ranking picked the fresh (degree-2) endpoint in "
          f"{deg2 / events:.4f} of {events} two-way choices (theory: 2/3)")

    # competitive ratio on one simple instance
    seq = sample_degree_sequences(pmf, pmf, args.n, seed=0)
    graph = build_full_graph(seq, seed=0)
    opt = max_matching(graph).size
    greedy_size = run_policy(seq, None, GREEDY, seed=0).final_matched
    print(f"\ncompetitive ratio on seed 0: greedy {greedy_size} / "
          f"optimum {opt} = {greedy_size / opt:.5f}")


if __name__ == "__main__":
    main()
