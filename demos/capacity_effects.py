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

from cmatch import (GREEDY, CapacityProfile, capacities_from_profile,
                    explicit, poisson, run_policy, sample_degree_sequences,
                    solve_G_capless, solve_G_fixed_capacity,
                    solve_G_general_capacity)


def mc_mean(pmf_u, pmf_v, n, runs, capacities):
    vals = []
    for seed in range(runs):
        seq = sample_degree_sequences(pmf_u, pmf_v, n, seed=seed)
        caps = (capacities_from_profile(capacities.fractions, seq.n_offline)
                if isinstance(capacities, CapacityProfile) else capacities)
        traj = run_policy(seq, caps, GREEDY, seed=seed)
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
        curve = solve_G_fixed_capacity(pmf, pmf, c_fix, 1e-3)
        sim = mc_mean(pmf, pmf, args.n, args.runs, c_fix)
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
    base_curve = solve_G_capless(base, base, 1e-3)
    merged_curve = solve_G_fixed_capacity(merged, base, 2, 1e-3)
    base_sim = mc_mean(base, base, args.n, args.runs, None)
    merged_sim = mc_mean(merged, base, args.n // 2, args.runs, 2)
    print("\nmerging pairs of poisson(4) vertices into capacity-2 vertices:")
    print(f"  baseline  solver {base_curve.endpoint:.5f}  simulation {base_sim:.5f}")
    print(f"  merged    solver {merged_curve.endpoint:.5f}  simulation {merged_sim:.5f}")
    print("  high-capacity pooling wins" if merged_sim > base_sim else "  no gain")


if __name__ == "__main__":
    main()
