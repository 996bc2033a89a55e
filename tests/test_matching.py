"""Policy semantics, trajectories, histograms and couplings."""

import math

import numpy as np
import pytest

from cmatch import poisson, regular
from cmatch.matching import (BIASED_GREEDY, GREEDY, HIGHEST, POLICIES, RANKING,
                             SMALLEST, choice_events, final_matched_counts,
                             histograms_at, matched_fraction_at, run_policy,
                             write_trajectory_csv)
from cmatch.fluid import UNIT_CAPACITY, CapacityProfile, solve_full_system
from cmatch.stream import (DegreeSequencePair, decision_stream, pair_half_edges,
                           pairing_stream, sample_degree_sequences)

from oracles import (exhaustive_greedy_expectation,
                     exhaustive_lookahead_expectation, tiny_instances)


# ---------------------------------------------------------------------------
# exact semantics on forced instances


def test_greedy_capacity_one_saturates():
    seq = DegreeSequencePair.from_degrees([2], [1, 1])
    traj = run_policy(seq, None, GREEDY, seed=0)
    assert list(traj.matched_at_step) == [0, 1, 1]


def test_greedy_capacity_two_absorbs_both():
    seq = DegreeSequencePair.from_degrees([2], [1, 1])
    traj = run_policy(seq, 2, GREEDY, seed=0)
    assert list(traj.matched_at_step) == [0, 1, 2]


@pytest.mark.parametrize("policy", [GREEDY, RANKING, SMALLEST, HIGHEST])
def test_forced_perfect_matching(policy):
    seq = DegreeSequencePair.from_degrees([1, 1], [1, 1])
    traj = run_policy(seq, None, policy, seed=4)
    assert traj.final_matched == 2


def test_greedy_two_regular_hits_fluid_value():
    seq = sample_degree_sequences(regular(2), regular(2), 10_000, seed=0)
    traj = run_policy(seq, None, GREEDY, seed=0)
    exact = 4.0 * math.sqrt(math.e) - math.e - 3.0
    assert abs(traj.final_matched / traj.capacity_total - exact) <= 0.01


def test_unknown_policy_and_bad_capacities():
    seq = DegreeSequencePair.from_degrees([1, 1], [1, 1])
    with pytest.raises(ValueError):
        run_policy(seq, None, "round-robin", seed=0)
    with pytest.raises(ValueError):
        run_policy(seq, [1], GREEDY, seed=0)
    with pytest.raises(ValueError):
        run_policy(seq, [1, 0], GREEDY, seed=0)
    for caps in ([[1, 1]], [1, 1, 1], np.ones((2, 1)), [2, 0.5]):
        with pytest.raises(ValueError):
            run_policy(seq, caps, GREEDY, seed=0)
        with pytest.raises(ValueError):
            final_matched_counts(seq, caps, runs=1, seed=0)


@pytest.mark.parametrize("policy", [GREEDY, RANKING, SMALLEST, HIGHEST])
def test_profile_arrays_run_as_none_and_int(policy):
    seq = sample_degree_sequences(poisson(3.0), poisson(3.0), 400, seed=8)
    n = seq.n_offline
    for short, profile in ((None, UNIT_CAPACITY), (3, CapacityProfile.fixed(3))):
        a = run_policy(seq, short, policy, seed=8)
        b = run_policy(seq, profile.capacities(n), policy, seed=8)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.caps, b.caps)
        assert a.capacity_total == b.capacity_total


def test_greedy_matches_first_free_endpoint_exactly():
    # replay the identical stream and recompute the decision independently
    seq = sample_degree_sequences(poisson(3.0), poisson(3.0), 300, seed=21)
    traj = run_policy(seq, None, GREEDY, seed=21)
    row = pair_half_edges(seq, pairing_stream(21))[0].tolist()
    free = [True] * seq.n_offline + [False]
    matched = 0
    off = 0
    for k, dv in enumerate(seq.deg_v.tolist(), start=1):
        endpoints, off = row[off:off + dv], off + dv
        for u in endpoints:
            if free[u]:
                free[u] = False
                matched += 1
                break
        assert traj.matched_at_step[k] == matched


# ---------------------------------------------------------------------------
# matched_fraction_at


def test_matched_fraction_endpoints():
    seq = DegreeSequencePair.from_degrees([1, 1], [1, 1])
    traj = run_policy(seq, None, GREEDY, seed=0)
    assert matched_fraction_at(traj, 0.0) == 0.0
    assert matched_fraction_at(traj, 1.0) == 1.0
    with pytest.raises(ValueError):
        matched_fraction_at(traj, 1.5)


def test_matched_fraction_midpoint_on_two_regular():
    g_half = math.exp(0.25) - 1.0
    ref = 1.0 - (1.0 - g_half) ** 2
    seq = sample_degree_sequences(regular(2), regular(2), 10_000, seed=1)
    traj = run_policy(seq, None, GREEDY, seed=1)
    assert abs(matched_fraction_at(traj, 0.5) - ref) <= 0.02


def test_capacity_normalizations():
    seq = DegreeSequencePair.from_degrees([2, 2], [2, 2])
    assert run_policy(seq, None, GREEDY, seed=0).capacity_total == 2
    assert run_policy(seq, 3, GREEDY, seed=0).capacity_total == 6
    assert run_policy(seq, [1, 2], GREEDY, seed=0).capacity_total == 3


# ---------------------------------------------------------------------------
# histograms


def test_initial_histogram_is_degree_law():
    seq = sample_degree_sequences(regular(4), regular(4), 100, seed=2)
    traj = run_policy(seq, None, GREEDY, seed=2)
    assert [cp.step for cp in traj.checkpoints] == [0, seq.n_arrivals]
    free, saturated, by_cap = histograms_at(traj, 0)
    assert free == {4: 100}
    assert saturated == {}
    assert by_cap == {(4, 1): 100}


def test_final_histogram_counts_matched_vertices():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 500, seed=3)
    traj = run_policy(seq, None, GREEDY, seed=3)
    _, saturated, _ = histograms_at(traj, seq.n_arrivals)
    assert sum(saturated.values()) == traj.final_matched


def test_histogram_partition_and_half_edge_identities():
    # seed 5 puts the balancing vertex on the V side, so every consumed
    # half-edge comes off a real offline vertex and the identity is exact
    pmf = poisson(4.0)
    seq = sample_degree_sequences(pmf, pmf, 1000, seed=5)
    traj = run_policy(seq, None, GREEDY, seed=5, checkpoint_every=100)
    assert seq.balance_side == "V"
    initial = int(seq.deg_u.sum())
    consumed = np.cumsum(seq.deg_v)
    for cp in traj.checkpoints:
        total = sum(cp.free.values()) + sum(cp.saturated.values())
        assert total == seq.n_offline
        half_edges = (sum(d * c for d, c in cp.free.items())
                      + sum(d * c for d, c in cp.saturated.items()))
        expect = initial - (consumed[cp.step - 1] if cp.step else 0)
        assert half_edges == expect


def test_missing_checkpoint_raises():
    seq = DegreeSequencePair.from_degrees([1, 1], [1, 1])
    traj = run_policy(seq, None, GREEDY, seed=0)
    with pytest.raises(KeyError):
        histograms_at(traj, 12345)


def test_free_density_tracks_fluid_system():
    """Greedy's per-degree free and saturated histograms over n follow the
    density system's free and saturated densities at time k/n, in every
    degree at 20 steps up to the system's last time, for seeds 0-2.

    The worst cells measured are 0.0095 on regular-4 and 0.0050 on
    Poisson-4 (seeds 3-9 reach 0.0098 and 0.0087); each bound is 1.25 times
    the worst over seeds 0-9, rounded up. Poisson-4 runs at n = 10^5: at
    10^4 the nominal clock k/n ignores how far the realized half-edge
    totals stray, and a saturated cell lands 0.034 off late in the run.
    """
    for pmf, n, bound in ((regular(4), 10**4, 0.0125),
                          (poisson(4.0), 10**5, 0.011)):
        system = solve_full_system(pmf, pmf, 1e-3)
        rows = np.linspace(0, len(system.t) - 1, 20).round().astype(int)
        worst = 0.0
        for seed in range(3):
            seq = sample_degree_sequences(pmf, pmf, n, seed=seed)
            traj = run_policy(seq, None, GREEDY, seed=seed)
            for j in rows:
                hists = histograms_at(traj, round(system.t[j] * n))[:2]
                for hist, density in zip(hists, (system.free[j],
                                                 system.saturated[j])):
                    sim = np.zeros(pmf.k_max + 1)
                    for degree, count in hist.items():
                        sim[degree] = count / n
                    worst = max(worst, float(np.abs(sim - density).max()))
        assert worst <= bound, pmf.label


# ---------------------------------------------------------------------------
# the run's record and what is derived from it


def _record_instances(policy):
    """Small sequence pairs plus one sampled pair; biased_greedy is defined
    for residual degrees up to 2 only."""
    rng = np.random.default_rng(11)
    top = 3 if policy == BIASED_GREEDY else 5
    seqs = [DegreeSequencePair.from_degrees(
                rng.integers(0, top, size=int(rng.integers(1, 8))),
                rng.integers(0, top, size=int(rng.integers(0, 9))))
            for _ in range(25)]
    pmf = regular(2) if policy == BIASED_GREEDY else poisson(3.0)
    return seqs + [sample_degree_sequences(pmf, pmf, 60, seed=4)]


def _capacities(kind, n):
    if kind == "none":
        return None, [1] * n
    if kind == "fixed-2":
        return 2, [2] * n
    caps = CapacityProfile.from_fractions([0.5, 0.3, 0.2]).capacities(n)
    return caps, caps.tolist()


def _walk_record(traj, seq, initial_caps):
    """Replay the row and the decisions with plain dicts. Returns the
    histograms at every step 0..T and checks each decision on the way,
    against its policy's rule too (ranking has its own replay below)."""
    n = seq.n_offline
    rem = dict(enumerate(seq.deg_u.tolist()))
    left = dict(enumerate(initial_caps))
    row = traj.graph.row.tolist()
    hists = []
    off = 0
    for t in range(seq.n_arrivals + 1):
        free, saturated, by_cap = {}, {}, {}
        for u in range(n):
            if left[u] > 0:
                free[rem[u]] = free.get(rem[u], 0) + 1
                by_cap[rem[u], left[u]] = by_cap.get((rem[u], left[u]), 0) + 1
            else:
                saturated[rem[u]] = saturated.get(rem[u], 0) + 1
        hists.append((free, saturated, by_cap))
        if t == seq.n_arrivals:
            break
        endpoints = row[off:off + int(seq.deg_v[t])]
        off += len(endpoints)
        free = [u for u in endpoints if u < n and left[u] > 0]
        pre = {u: rem[u] for u in free}
        for u in endpoints:
            if u < n:
                rem[u] -= 1
        pick = int(traj.chosen[t])
        if pick < 0:
            assert not free
            continue
        assert pick in free
        left[pick] -= 1
        if traj.policy == GREEDY:
            assert pick == free[0]
        elif traj.policy == SMALLEST:
            assert rem[pick] == min(rem[u] for u in free)
        elif traj.policy == HIGHEST:
            assert rem[pick] == max(rem[u] for u in free)
        elif traj.policy == BIASED_GREEDY:
            assert {pre[u] for u in free} <= {1, 2}
    return hists


@pytest.mark.parametrize("cap_kind", ["none", "fixed-2", "profile"])
@pytest.mark.parametrize("policy", POLICIES)
def test_histograms_derive_exactly_from_the_record(policy, cap_kind):
    for k, seq in enumerate(_record_instances(policy)):
        caps, initial = _capacities(cap_kind, seq.n_offline)
        traj = run_policy(seq, caps, policy, seed=k, checkpoint_every=3)
        assert traj.caps.tolist() == initial
        assert traj.chosen.shape == (seq.n_arrivals,)
        hists = _walk_record(traj, seq, initial)
        for step, expect in enumerate(hists):
            assert histograms_at(traj, step) == expect
        picks = np.cumsum(traj.chosen >= 0)
        assert traj.matched_at_step.tolist() == [0] + picks.tolist()
        t_end = seq.n_arrivals
        steps = sorted(set(range(0, t_end + 1, 3)) | {t_end})
        assert [cp.step for cp in traj.checkpoints] == steps
        for cp in traj.checkpoints:
            assert (cp.free, cp.saturated, cp.free_by_capacity) == hists[cp.step]
        for outside in (-1, t_end + 1):
            with pytest.raises(KeyError):
                histograms_at(traj, outside)


@pytest.mark.parametrize("cap_kind", ["none", "fixed-2", "profile"])
def test_ranking_takes_the_free_endpoint_of_least_rank(cap_kind):
    for k, seq in enumerate(_record_instances(RANKING)):
        caps, left = _capacities(cap_kind, seq.n_offline)
        traj = run_policy(seq, caps, RANKING, seed=k)
        rank = list(range(seq.n_offline))
        decision_stream(k).shuffle(rank)
        row, off = traj.graph.row.tolist(), seq.arrival_offsets.tolist()
        for a, b, pick in zip(off, off[1:], traj.chosen.tolist()):
            free = [u for u in row[a:b] if u < seq.n_offline and left[u] > 0]
            if not free:
                assert pick == -1
                continue
            assert pick == min(free, key=rank.__getitem__)
            left[pick] -= 1


# Seeds 0..LOOKAHEAD_RUNS-1 per instance; the Monte Carlo mean must lie
# within LOOKAHEAD_SE standard errors of the exact expectation.
LOOKAHEAD_RUNS = 2000
LOOKAHEAD_SE = 4.0


@pytest.mark.parametrize("policy", [SMALLEST, HIGHEST])
@pytest.mark.parametrize("deg_u, deg_v", [
    ((2, 2, 1), (2, 2, 1)),
    ((3, 2, 1), (2, 2, 2)),
    ((3, 2, 1), (1, 2, 3)),
])
def test_lookahead_mean_matches_exact_enumeration(deg_u, deg_v, policy):
    exact = float(exhaustive_lookahead_expectation(deg_u, deg_v, policy))
    seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
    finals = np.array([run_policy(seq, None, policy, seed=s).final_matched
                       for s in range(LOOKAHEAD_RUNS)])
    se = finals.std() / math.sqrt(LOOKAHEAD_RUNS)
    assert abs(finals.mean() - exact) <= LOOKAHEAD_SE * se


def test_a_vertex_paired_twice_holds_one_tie_ticket():
    # the one arrival pairs every half-edge: both vertices end at residual
    # 0, so the tie is even although vertex 0 fills two of its three slots
    seq = DegreeSequencePair.from_degrees([2, 1], [3])
    picks = [run_policy(seq, None, SMALLEST, seed=s).chosen[0] for s in range(5000)]
    assert abs(np.mean(np.array(picks) == 0) - 0.5) <= 0.02


def _counted_choice_events(traj):
    """Count the {1, 2} two-way choices by replaying the record: residual
    degrees before the arrival paired its half-edges, capacity left before
    its decision."""
    rem = np.bincount(traj.graph.row, minlength=traj.n_offline + 1).tolist()
    left = traj.caps.tolist() + [0]
    row = traj.graph.row.tolist()
    events = wins = off = 0
    for dv, pick in zip(traj.graph.seq.deg_v.tolist(), traj.chosen.tolist()):
        endpoints = row[off:off + dv]
        off += dv
        for u in endpoints:
            rem[u] -= 1
        mult = {}
        for u in endpoints:
            mult[u] = mult.get(u, 0) + 1
        pre = {u: rem[u] + k for u, k in mult.items()}
        free = [u for u in pre if left[u] > 0]
        if len(free) == 2 and {pre[free[0]], pre[free[1]]} == {1, 2}:
            events += 1
            wins += pick == (free[0] if pre[free[0]] == 2 else free[1])
        if pick >= 0:
            left[pick] -= 1
    return events, wins


@pytest.mark.parametrize("law, caps, policy", [
    (regular(2), None, RANKING),
    (regular(2), None, BIASED_GREEDY),
    (poisson(2.0), 2, RANKING),
])
def test_choice_events_match_a_replayed_count(law, caps, policy):
    for seed in range(3):
        seq = sample_degree_sequences(law, law, 2000, seed=seed)
        traj = run_policy(seq, caps, policy, seed=seed)
        counted = _counted_choice_events(traj)
        assert counted[0] > 0
        assert choice_events(traj) == counted


# ---------------------------------------------------------------------------
# couplings across policies and capacities


def test_policies_share_the_realized_graph():
    # degree histograms (free + saturated) depend only on the pairing
    # stream, so they must agree across policies at every checkpoint
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 2000, seed=6)
    trajs = [run_policy(seq, None, p, seed=6, checkpoint_every=250)
             for p in (GREEDY, RANKING, SMALLEST, HIGHEST)]
    for cps in zip(*(t.checkpoints for t in trajs)):
        merged = []
        for cp in cps:
            tally: dict = {}
            for d, c in cp.free.items():
                tally[d] = tally.get(d, 0) + c
            for d, c in cp.saturated.items():
                tally[d] = tally.get(d, 0) + c
            merged.append(tally)
        assert all(m == merged[0] for m in merged[1:])


@pytest.mark.parametrize("policy", [GREEDY, RANKING])
def test_capacity_monotone_dominance(policy):
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(3, 8))
        deg_u = rng.integers(0, 4, size=n)
        deg_v = rng.integers(0, 4, size=int(rng.integers(2, 7)))
        seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
        base = rng.integers(1, 3, size=n)
        bigger = base + rng.integers(0, 2, size=n)
        lo = run_policy(seq, base, policy, seed=trial).final_matched
        hi = run_policy(seq, bigger, policy, seed=trial).final_matched
        assert hi >= lo


def test_bulk_counts_couple_with_run_policy():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        deg_u = rng.integers(0, 4, size=n)
        deg_v = rng.integers(0, 4, size=int(rng.integers(1, 6)))
        seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
        caps = None if trial % 2 else 2
        seed = 1000 + trial
        bulk = final_matched_counts(seq, caps, runs=1, seed=seed)[0]
        ref = run_policy(seq, caps, GREEDY, seed=seed).final_matched
        assert bulk == ref


def test_bulk_counts_mean_matches_oracle_quickly():
    deg_u, deg_v = (2, 1), (1, 2)
    seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
    exact = float(exhaustive_greedy_expectation(deg_u, deg_v))
    counts = final_matched_counts(seq, None, runs=200_000, seed=0)
    assert abs(counts.mean() - exact) <= 0.01


def test_tiny_instance_enumeration_shape():
    instances = tiny_instances(8)
    assert len(instances) == 57
    assert all(sum(u) == sum(v) for u, v in instances)
    assert all(2 * sum(u) <= 8 for u, v in instances)


# ---------------------------------------------------------------------------
# ranking bias and biased greedy


def test_ranking_prefers_fresh_vertices_two_to_one():
    pmf = regular(2)
    events = wins = 0
    seed = 0
    while events < 20_000:
        seq = sample_degree_sequences(pmf, pmf, 20_000, seed=seed)
        traj = run_policy(seq, None, RANKING, seed=seed, checkpoint_every=10**9)
        seen, won = choice_events(traj)
        events += seen
        wins += won
        seed += 1
    assert abs(wins / events - 2.0 / 3.0) <= 0.02


def test_biased_greedy_matches_its_bias():
    pmf = regular(2)
    for bias, tol in ((1.0, 0.0), (0.0, 0.0), (2.0 / 3.0, 0.02)):
        events = wins = 0
        seed = 50
        while events < 20_000:
            seq = sample_degree_sequences(pmf, pmf, 20_000, seed=seed)
            traj = run_policy(seq, None, BIASED_GREEDY, seed=seed, bias=bias,
                              checkpoint_every=10**9)
            seen, won = choice_events(traj)
            events += seen
            wins += won
            seed += 1
        assert abs(wins / events - bias) <= tol


def test_biased_greedy_rejects_high_degrees():
    seq = sample_degree_sequences(regular(3), regular(3), 50, seed=0)
    with pytest.raises(ValueError):
        run_policy(seq, None, BIASED_GREEDY, seed=0)


def test_ranking_permutation_is_uniform_over_seeds():
    # when the first arrival reveals both vertices, matching u1 keeps u0's
    # second half-edge alive for the second arrival, so the final count
    # exposes the rank comparison: 5/3 expected under uniform ranks versus
    # 4/3 if vertex 0 always outranked vertex 1
    seq = DegreeSequencePair.from_degrees([2, 1], [2, 1])
    total = sum(run_policy(seq, None, RANKING, seed=seed,
                           checkpoint_every=10**9).final_matched
                for seed in range(600))
    assert abs(total / 600 - 5.0 / 3.0) <= 0.08


# ---------------------------------------------------------------------------
# helpers


def test_trajectory_monotone_unit_increments():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 2000, seed=17)
    for policy in (GREEDY, RANKING, SMALLEST, HIGHEST):
        traj = run_policy(seq, None, policy, seed=17, checkpoint_every=10**9)
        inc = np.diff(traj.matched_at_step)
        assert np.all((inc == 0) | (inc == 1))


def test_write_trajectory_csv(tmp_path):
    seq = DegreeSequencePair.from_degrees([2, 1], [2, 1])
    traj = run_policy(seq, None, GREEDY, seed=0, checkpoint_every=1)
    main = tmp_path / "traj.csv"
    side = tmp_path / "hist.csv"
    write_trajectory_csv(traj, main, side)
    lines = main.read_text().splitlines()
    assert lines[0] == "step,matched"
    assert len(lines) == 1 + len(traj.matched_at_step)
    hist_lines = side.read_text().splitlines()
    assert hist_lines[0] == "step,kind,degree,capacity,count"
    assert len(hist_lines) > 1
