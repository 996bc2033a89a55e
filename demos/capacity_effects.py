#!/usr/bin/env python3
"""Capacitated matching: solver-vs-simulation agreement and the merge effect.

First checks the fixed-capacity and mixed-profile solvers against Monte
Carlo runs. Then demonstrates that pooling budget helps: merging pairs of
equal-degree offline vertices into one vertex of twice the degree and
capacity 2 raises greedy's normalized performance above the unit-capacity
baseline, matching the fixed-capacity solver's prediction.

Run:  python3 demos/capacity_effects.py [--n 10000 --runs 5]
"""

import argparse

import numpy as np

from cmatch import (GREEDY, UNIT_CAPACITY, CapacityProfile, explicit,
                    poisson, run_policy, sample_degree_sequences,
                    solve_G_general_capacity)


def mc_mean(pmf_u, pmf_v, n, runs, profile):
    vals = []
    for seed in range(runs):
        seq = sample_degree_sequences(pmf_u, pmf_v, n, seed=seed)
        traj = run_policy(seq, profile.capacities(seq.n_offline), GREEDY, seed=seed)
        vals.append(traj.final_matched / traj.capacity_total)
    return float(np.mean(vals))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()

    pmf = poisson(3.0)
    print("poisson(3) offline and online sides, normalized per unit capacity\n")
    for c_fix in (1, 2, 3):
        fixed = CapacityProfile.fixed(c_fix)
        curve = solve_G_general_capacity(pmf, pmf, fixed, 1e-3)
        sim = mc_mean(pmf, pmf, args.n, args.runs, fixed)
        print(f"  fixed capacity {c_fix}: solver {curve.endpoint:.5f}  "
              f"simulation {sim:.5f}")

    profile = CapacityProfile.from_fractions([0.5, 0.5])
    curve = solve_G_general_capacity(pmf, pmf, profile, 1e-3)
    sim = mc_mean(pmf, pmf, args.n, args.runs, profile)
    print(f"  half capacity-1, half capacity-2: solver {curve.endpoint:.5f}  "
          f"simulation {sim:.5f}")

    # merge experiment: same total budget, fewer but fatter vertices
    base = poisson(4.0)
    merged_probs = np.zeros(base.k_max * 2 + 1)
    merged_probs[::2] = base.probs
    merged = explicit(merged_probs, label="poisson-4-merged-x2")
    pair = CapacityProfile.fixed(2)
    base_curve = solve_G_general_capacity(base, base, UNIT_CAPACITY, 1e-3)
    merged_curve = solve_G_general_capacity(merged, base, pair, 1e-3)
    base_sim = mc_mean(base, base, args.n, args.runs, UNIT_CAPACITY)
    merged_sim = mc_mean(merged, base, args.n // 2, args.runs, pair)
    print("\nmerging pairs of poisson(4) vertices into capacity-2 vertices:")
    print(f"  baseline  solver {base_curve.endpoint:.5f}  simulation {base_sim:.5f}")
    print(f"  merged    solver {merged_curve.endpoint:.5f}  simulation {merged_sim:.5f}")
    print("  high-capacity pooling wins" if merged_sim > base_sim else "  no gain")


if __name__ == "__main__":
    main()
