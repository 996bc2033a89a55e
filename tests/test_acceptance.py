"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, with a pass/fail line per criterion in the terminal summary."""

import math
import time

import numpy as np
from scipy import stats

from cmatch import poisson, regular
from cmatch.fluid import (CapacityProfile, compare_models, solve_full_system,
                          solve_G_capless, solve_G_fixed_capacity,
                          solve_G_general_capacity, sup_deviation,
                          verify_characteristics)
from cmatch.matching import (GREEDY, RANKING, choice_events, final_matched_counts,
                             run_policy)
from cmatch.offline import max_matching
from cmatch.stream import (DegreeSequencePair, build_full_graph,
                           sample_degree_sequences)

from conftest import record_criterion
from oracles import exhaustive_greedy_expectation, tiny_instances


def test_criterion_01_two_regular_closed_form():
    t0 = time.perf_counter()
    curve = solve_G_capless(regular(2), regular(2), step=1e-4)
    elapsed = time.perf_counter() - t0
    exact = 4.0 * math.sqrt(math.e) - math.e - 3.0
    err = abs(curve.endpoint - exact)
    ok = err <= 1e-5 and elapsed < 1.0
    record_criterion(1, ok, f"2-regular endpoint err={err:.2e} "
                            f"(runtime {elapsed:.2f}s < 1s)")
    assert err <= 1e-5
    assert elapsed < 1.0


def test_criterion_02_three_regular_band():
    endpoint = solve_G_capless(regular(3), regular(3), step=1e-4).endpoint
    ok = 0.885 <= endpoint <= 0.895
    record_criterion(2, ok, f"3-regular endpoint {endpoint:.6f} in [0.885, 0.895]")
    assert ok


def test_criterion_03_erdos_renyi_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (1.0, 2.0, 4.0):
        endpoint = solve_G_capless(poisson(c), poisson(c), step=1e-4).endpoint
        exact = 1.0 - math.log(2.0 - math.exp(-c)) / c
        worst = max(worst, abs(endpoint - exact))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 3.0
    record_criterion(3, ok, f"poisson endpoints worst err={worst:.2e} "
                            f"(runtime {elapsed:.2f}s < 3s)")
    assert worst <= 1e-5
    assert elapsed < 3.0


def test_criterion_04_trajectory_concentration():
    pmf = regular(4)
    curve = solve_G_capless(pmf, pmf, step=1e-4)
    worst_big = 0.0
    small_exceeds = 0
    seeds = range(5)  # calibration seeds recorded with the fixture
    for seed in seeds:
        seq_big = sample_degree_sequences(pmf, pmf, 10_000, seed=seed)
        traj_big = run_policy(seq_big, None, GREEDY, seed=seed)
        dev_big = sup_deviation(traj_big, curve)
        worst_big = max(worst_big, dev_big)
        seq_small = sample_degree_sequences(pmf, pmf, 100, seed=seed)
        traj_small = run_policy(seq_small, None, GREEDY, seed=seed)
        if sup_deviation(traj_small, curve) > dev_big:
            small_exceeds += 1
    ok = worst_big <= 0.02 and small_exceeds >= 4
    record_criterion(4, ok, f"n=1e4 worst sup-dev {worst_big:.4f} <= 0.02; "
                            f"n=100 exceeded in {small_exceeds}/5 pairs")
    assert worst_big <= 0.02
    assert small_exceeds >= 4


def test_criterion_05_greedy_beats_ranking():
    pmf = regular(2)
    diffs = []
    for seed in range(20):
        seq = sample_degree_sequences(pmf, pmf, 10_000, seed=seed)
        g = run_policy(seq, None, GREEDY, seed=seed)
        r = run_policy(seq, None, RANKING, seed=seed)
        diffs.append(g.final_matched - r.final_matched)
    wins = sum(d > 0 for d in diffs)
    decisive = sum(d != 0 for d in diffs)
    p_value = stats.binomtest(wins, decisive, 0.5, alternative="greater").pvalue
    ok = p_value < 0.01
    record_criterion(5, ok, f"greedy won {wins}/20 coupled seeds, "
                            f"sign test p={p_value:.2e} < 0.01")
    assert ok


def test_criterion_06_ranking_bias_equivalence():
    pmf = regular(2)
    events = deg2_wins = 0
    seed = 0
    while events < 100_000:
        seq = sample_degree_sequences(pmf, pmf, 100_000, seed=seed)
        traj = run_policy(seq, None, RANKING, seed=seed)
        seen, won = choice_events(traj)
        events += seen
        deg2_wins += won
        seed += 1
    freq = deg2_wins / events
    ok = abs(freq - 2.0 / 3.0) <= 0.01
    record_criterion(6, ok, f"ranking picked degree-2 at {freq:.4f} "
                            f"over {events} events (target 2/3 +- 0.01)")
    assert ok


def test_criterion_07_fixed_capacity_performance():
    pmf = poisson(3.0)
    curve = solve_G_fixed_capacity(pmf, pmf, 2, step=1e-4)
    fractions = []
    for seed in range(10):
        seq = sample_degree_sequences(pmf, pmf, 10_000, seed=seed)
        traj = run_policy(seq, 2, GREEDY, seed=seed)
        fractions.append(traj.final_matched / traj.capacity_total)
    gap = abs(float(np.mean(fractions)) - curve.endpoint)
    ok = gap <= 0.01
    record_criterion(7, ok, f"capacity-2 Monte Carlo vs solver gap {gap:.4f} <= 0.01")
    assert ok


def test_criterion_08_capacity_solver_reductions():
    pu = pv = poisson(3.0)
    gen_c = solve_G_general_capacity(pu, pv, CapacityProfile.from_fractions(
        [0.0, 0.0, 1.0]), step=1e-3)
    fixed = solve_G_fixed_capacity(pu, pv, 3, step=1e-3)
    gap_fixed = max(float(np.max(np.abs(gen_c.G - fixed.G))),
                    float(np.max(np.abs(gen_c.matched - fixed.matched))))
    gen_1 = solve_G_general_capacity(pu, pv, CapacityProfile.from_fractions(
        [1.0]), step=1e-3)
    capless = solve_G_capless(pu, pv, step=1e-3)
    gap_capless = max(float(np.max(np.abs(gen_1.G - capless.G))),
                      float(np.max(np.abs(gen_1.matched - capless.matched))))
    ok = gap_fixed <= 1e-10 and gap_capless <= 1e-10
    record_criterion(8, ok, f"profile reductions: delta_C gap {gap_fixed:.1e}, "
                            f"delta_1 gap {gap_capless:.1e} (<= 1e-10)")
    assert gap_fixed <= 1e-10
    assert gap_capless <= 1e-10


def test_criterion_09_full_system_cross_check():
    worst_gap = worst_cons = 0.0
    for pmf in (regular(4), poisson(4.0)):
        system = solve_full_system(pmf, pmf, step=1e-3)
        curve = solve_G_capless(pmf, pmf, step=1e-4)
        s_axis = system.t * (pmf.mean / pmf.mean)  # equal means: s = t
        gap = np.max(np.abs(system.matched_fraction() - curve.matched_at(s_axis)))
        cons = np.max(np.abs(system.half_edge_mass()
                             - (pmf.mean - system.t * pmf.mean)))
        worst_gap = max(worst_gap, float(gap))
        worst_cons = max(worst_cons, float(cons))
    ok = worst_gap <= 1e-4 and worst_cons <= 1e-6
    record_criterion(9, ok, f"system vs curve gap {worst_gap:.2e} <= 1e-4; "
                            f"conservation {worst_cons:.2e} <= 1e-6")
    assert worst_gap <= 1e-4
    assert worst_cons <= 1e-6


def test_criterion_10_characteristics_identity():
    worst = 0.0
    for pmf in (regular(4), poisson(4.0)):
        report = verify_characteristics(pmf, pmf, samples=100, step=1e-4, seed=0)
        worst = max(worst, report.max_discrepancy)
    ok = worst <= 5e-4
    record_criterion(10, ok, f"characteristics max discrepancy {worst:.2e} <= 5e-4")
    assert ok


def test_criterion_11_perfect_matching_denominator():
    found = 0
    all_perfect = True
    for d in (2, 3, 4):
        quota = 7 if d < 4 else 6
        seed = 0
        collected = 0
        while collected < quota:
            seq = sample_degree_sequences(regular(d), regular(d), 100, seed=seed)
            graph = build_full_graph(seq, seed=seed)
            seed += 1
            if not graph.is_simple():
                continue
            collected += 1
            found += 1
            if max_matching(graph).size != 100:
                all_perfect = False
    ok = all_perfect and found == 20
    record_criterion(11, ok, f"max matching = n on {found}/20 simple regular instances")
    assert ok


def test_criterion_12_exhaustive_oracle_vs_monte_carlo():
    worst = 0.0
    worst_instance = None
    for deg_u, deg_v in tiny_instances(8):
        exact = float(exhaustive_greedy_expectation(deg_u, deg_v))
        seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
        mc = float(final_matched_counts(seq, None, runs=10**6, seed=0).mean())
        gap = abs(mc - exact)
        if gap > worst:
            worst, worst_instance = gap, (deg_u, deg_v)
    ok = worst <= 0.005
    record_criterion(12, ok, f"57 tiny instances, 1e6 runs each: worst "
                             f"|MC - exact| = {worst:.5f} at {worst_instance}")
    assert ok


def test_criterion_13_model_comparison_ordering():
    result = compare_models(regular(4), poisson(4.0), regular(4), step=1e-4)
    ok = result.ordered and result.endpoint_2 >= result.endpoint_1
    record_criterion(13, ok, f"regular-V endpoint {result.endpoint_2:.5f} >= "
                             f"poisson-V endpoint {result.endpoint_1:.5f}")
    assert ok
