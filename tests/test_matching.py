"""Policy semantics, trajectories, histograms and couplings."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cmatch import matching, poisson, regular
from cmatch.matching import (BIASED_GREEDY, GREEDY, HIGHEST, POLICIES, RANKING,
                             SMALLEST, choice_events, final_matched_counts,
                             histograms_at, matched_fraction_at, run_policy,
                             write_trajectory_csv)
from cmatch.fluid import (UNIT_CAPACITY, CapacityProfile, solve_full_system,
                          solve_G_capless, sup_deviation)
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


@pytest.mark.parametrize("caps, match", [
    ([1.7, 1.2], "whole numbers, got 1.7"),
    ([0.5, 0.5], "whole numbers, got 0.5"),
    ([1.0, np.inf], "whole numbers, got inf"),
    (2.5, "whole numbers, got 2.5"),
    (np.array([True, True]), "dtype bool"),
    (True, "dtype bool"),
    (["1", "1"], "whole numbers"),
    (2**63, "at most 1000000, got 9223372036854775808"),
    (1e300, r"at most 1000000, got 1e\+300"),
    ([1e20, 1.0], r"at most 1000000, got 1e\+20"),
    ([2**63 - 1, 1], "at most 1000000, got 9223372036854775807"),
    ([2**64, 1], "at most 1000000, got 18446744073709551616"),
    (2**64, "at most 1000000, got 18446744073709551616"),
    (-2**64, "at least 1, got -18446744073709551616"),
    # numpy upcasts a bool in a list of numbers: these ran as capacity 1
    ([True, 2], "whole numbers, got True"),
    ([2, np.True_], "whole numbers, got True"),
    ([True, 2.0], "whole numbers, got True"),
])
def test_fractional_and_bool_capacities_raise(caps, match):
    # each used to run truncated to an integer, or as capacity 1; the
    # too-large ones wrapped in the int64 cast, which gave a negative
    # capacity total or blamed a capacity below 1; Python ints past int64
    # make an object array, which was rejected as "dtype object" unchecked
    seq = DegreeSequencePair.from_degrees([2, 1], [1, 1, 1])
    with pytest.raises(ValueError, match=match):
        run_policy(seq, caps, GREEDY, seed=0)
    with pytest.raises(ValueError, match=match):
        final_matched_counts(seq, caps, runs=1, seed=0)


@pytest.mark.parametrize("caps, same_as", [
    (2.0, 2), (np.int64(2), 2), ([2.0, 1.0], [2, 1]),
    (np.array([2, 1], dtype=np.uint8), [2, 1]),
])
def test_whole_float_and_integer_capacities_are_legal(caps, same_as):
    seq = DegreeSequencePair.from_degrees([2, 1], [1, 1, 1])
    traj, ref = (run_policy(seq, c, GREEDY, seed=0) for c in (caps, same_as))
    assert traj.caps.tolist() == ref.caps.tolist()
    assert np.array_equal(traj.chosen, ref.chosen)
    assert (final_matched_counts(seq, caps, runs=3, seed=0).tolist()
            == final_matched_counts(seq, same_as, runs=3, seed=0).tolist())


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


def _replay_greedy(seq, row, caps) -> list:
    """Matching size after each arrival, recomputed by hand from one
    pairing row: each arrival takes its first endpoint with capacity left."""
    # the balancing vertex, last, is never matched
    left = np.broadcast_to(1 if caps is None else caps, seq.n_offline).tolist() + [0]
    row = row.tolist()
    matched, off, sizes = 0, 0, [0]
    for dv in seq.deg_v.tolist():
        endpoints, off = row[off:off + dv], off + dv
        for u in endpoints:
            if left[u] > 0:
                left[u] -= 1
                matched += 1
                break
        sizes.append(matched)
    return sizes


def test_greedy_matches_first_free_endpoint_exactly():
    # replay the identical stream and recompute the decision independently
    seq = sample_degree_sequences(poisson(3.0), poisson(3.0), 300, seed=21)
    row = pair_half_edges(seq, pairing_stream(21))[0]
    profile = CapacityProfile.from_fractions([0.5, 0.3, 0.2]).capacities(300)
    for caps in (None, 2, profile):
        traj = run_policy(seq, caps, GREEDY, seed=21)
        assert traj.matched_at_step.tolist() == _replay_greedy(seq, row, caps)


@pytest.mark.parametrize("caps", [None, 2, [1, 2, 3]], ids=["unit", "two", "array"])
@pytest.mark.parametrize("degrees, packs", [
    (([1, 2, 1], [2, 1, 2, 1]), True),  # 6 paired slots of 3 bits: one key
    (([2, 3, 2], [3, 2, 2, 3, 2, 2, 3, 1, 2, 3]), False),  # 23 slots: 69 bits
], ids=["packs", "spills"])
def test_bulk_counts_replay_each_pairing_row(degrees, packs, caps):
    # every bulk count is the hand replay of its own row of the pairing stream
    seq = DegreeSequencePair.from_degrees(*degrees)
    paired = int(seq.arrival_offsets[-1])
    assert (paired * (seq.n_offline + 1).bit_length() < 63) == packs
    runs = 400
    counts = final_matched_counts(seq, caps, runs=runs, seed=13)
    rows = pair_half_edges(seq, pairing_stream(13), runs)
    assert counts.tolist() == [_replay_greedy(seq, r, caps)[-1] for r in rows]
    assert len(set(counts.tolist())) > 1


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
    assert seq.pad_u == 0 < seq.pad_v
    initial = int(seq.deg_u.sum())
    consumed = np.cumsum(seq.deg_v)
    for cp in traj.checkpoints:
        total = sum(cp.free.values()) + sum(cp.saturated.values())
        assert total == seq.n_offline
        half_edges = (sum(d * c for d, c in cp.free.items())
                      + sum(d * c for d, c in cp.saturated.items()))
        expect = initial - (consumed[cp.step - 1] if cp.step else 0)
        assert half_edges == expect


@pytest.mark.parametrize("caps", [None, []])
def test_a_run_without_offline_vertices_has_empty_histograms(caps):
    # the reduction max() over no capacity raised inside numpy
    traj = run_policy(DegreeSequencePair.from_degrees([], [1]), caps, GREEDY, seed=0)
    assert traj.final_matched == 0
    assert histograms_at(traj, 0) == histograms_at(traj, 1) == ({}, {}, {})


def test_normalized_readers_refuse_a_run_without_capacity():
    # matched_fraction_at divided by zero; sup_deviation returned nan
    traj = run_policy(DegreeSequencePair.from_degrees([], [1]), None, GREEDY, seed=0)
    curve = solve_G_capless(regular(2), regular(2), 1e-2)
    with pytest.raises(ValueError, match="no offline capacity"):
        matched_fraction_at(traj, 1.0)
    with pytest.raises(ValueError, match="no offline capacity"):
        sup_deviation(traj, curve)
    # with no arrival the one grid point is s = 0, not 0 / 0
    empty = run_policy(DegreeSequencePair.from_degrees([1], []), None, GREEDY, seed=0)
    assert sup_deviation(empty, curve) == matched_fraction_at(empty, 0.5) == 0.0


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


def test_bulk_counts_do_not_depend_on_the_block_size(monkeypatch):
    # the rows come from one pairing stream in order, so grouping them into
    # blocks cannot change a count: one row per block, the default (the
    # Poisson-2 pool of 620 slots puts 211 rows in a block, so its 500 runs
    # take three blocks), every row in one block, and blocks one row short
    # of the lockstep and just long enough for it
    big = sample_degree_sequences(poisson(2.0), poisson(2.0), 300, seed=2)
    instances = [
        (DegreeSequencePair.from_degrees([2, 1], [1, 2, 1]), 2, 300),  # pad_u
        (DegreeSequencePair.from_degrees([3, 2, 1], [2, 1]), None, 300),  # pad_v
        (big, CapacityProfile.from_fractions([0.5, 0.3, 0.2]).capacities(300), 500),
        # 20 and 21 paired slots of 3 bits each: rows that do and do not
        # pack into one int64 key
        (DegreeSequencePair.from_degrees([2, 2, 2], [2] * 10), 2, 300),
        (DegreeSequencePair.from_degrees([2, 2, 2], [2] * 9 + [3]), 2, 300),
    ]
    assert instances[0][0].pad_u > 0 and instances[1][0].pad_v > 0
    assert [3 * seq.arrival_offsets[-1] for seq, _, _ in instances[3:]] == [60, 63]
    default, lockstep = matching._BLOCK_SLOTS, matching._LOCKSTEP_ROWS
    assert default // big.total_u_half_edges < 500 // 2
    for seq, caps, runs in instances:
        size = max(seq.total_u_half_edges, seq.n_offline + 1)
        counts = []
        for slots in (1, default, 2**24, (lockstep - 1) * size, lockstep * size):
            monkeypatch.setattr(matching, "_BLOCK_SLOTS", slots)
            counts.append(final_matched_counts(seq, caps, runs=runs, seed=9))
        assert len(set(counts[0].tolist())) > 1
        assert all(np.array_equal(counts[0], c) for c in counts[1:])


def test_a_block_runs_in_lockstep_from_lockstep_rows(monkeypatch):
    # one row short, every row of a block is scanned on its own; from
    # _LOCKSTEP_ROWS rows on, only the short last block is
    seq = DegreeSequencePair.from_degrees([2, 1], [1, 2, 1])
    scan, scanned = matching._greedy_scan, []
    monkeypatch.setattr(matching, "_greedy_scan",
                        lambda *args: scanned.append(1) or scan(*args))
    rows = matching._LOCKSTEP_ROWS
    for per_block, scans in ((rows - 1, 300), (rows, 300 % rows)):
        monkeypatch.setattr(matching, "_BLOCK_SLOTS", per_block * seq.total_u_half_edges)
        scanned.clear()
        final_matched_counts(seq, 2, runs=300, seed=9)
        assert len(scanned) == scans


@pytest.mark.parametrize("caps", [10**6, [10**6, 1, 1]], ids=["all", "one"])
def test_the_lockstep_holds_the_largest_capacity(caps):
    # the lockstep keeps capacities in int32 cells: 10^6, the largest legal
    # capacity, must neither wrap nor skew the capacity used up
    seq = DegreeSequencePair.from_degrees([4, 1, 2], [2, 2, 3])
    counts = final_matched_counts(seq, caps, runs=200, seed=11)
    rows = pair_half_edges(seq, pairing_stream(11), 200)
    assert counts.tolist() == [_replay_greedy(seq, r, caps)[-1] for r in rows]


def test_bulk_memory_does_not_grow_with_degree_0_vertices():
    # 2*10^5 degree-0 offline vertices beside a pool of 2 slots: a capacity
    # table over every vertex, with blocks sized by the pool alone, would
    # put all 1,000 runs in one block of about 800 MB
    seq = DegreeSequencePair.from_degrees([0] * 200_000 + [1, 1], [1, 1])
    tracemalloc.start()
    try:
        counts = final_matched_counts(seq, None, runs=1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    rows = pair_half_edges(seq, pairing_stream(3), 1000)
    # the pool of two slots has two distinct rows, each replayed once
    replay = {r.tobytes(): _replay_greedy(seq, r, None)[-1]
              for r in np.unique(rows, axis=0)}
    assert counts.tolist() == [replay[r.tobytes()] for r in rows]


def test_bulk_counts_keep_each_capacity_with_its_vertex():
    # dropping the degree-0 vertices renumbers the others and their
    # capacities, and the balancing vertex, last, keeps none
    seq = DegreeSequencePair.from_degrees([0, 2, 0, 1, 3, 0], [2, 2, 1, 2])
    assert seq.pad_u > 0
    caps = [5, 1, 7, 2, 1, 9]
    counts = final_matched_counts(seq, caps, runs=300, seed=17)
    rows = pair_half_edges(seq, pairing_stream(17), 300)
    assert counts.tolist() == [_replay_greedy(seq, r, caps)[-1] for r in rows]
    assert len(set(counts.tolist())) > 1


@pytest.mark.parametrize("runs", [0, -1, 2.5, True, "3", None])
def test_bulk_runs_must_be_a_positive_integer(runs):
    # these raised numpy errors or returned an empty array with mean nan
    seq = DegreeSequencePair.from_degrees([2, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="runs must be an integer >= 1"):
        final_matched_counts(seq, None, runs=runs, seed=0)


def test_bulk_counts_are_pinned():
    # sha256 of the counts as the lockstep kernel this path replaced gave
    # them, so that a change to the bulk path cannot move one run's count
    big = sample_degree_sequences(poisson(2.0), poisson(2.0), 300, seed=2)
    mid = sample_degree_sequences(poisson(3.0), poisson(3.0), 60, seed=5)
    reg = sample_degree_sequences(regular(2), regular(2), 30, seed=6)
    assert matching._BLOCK_SLOTS // big.total_u_half_edges < 500 // 2  # 3 blocks
    cases = [
        (DegreeSequencePair.from_degrees([2, 1], [1, 2, 1]), 2, 400, 1,  # pad_u
         "c1bf756b1092a881275c99fa33e3ab392f65cf998f455b51bc023f017d55acf2"),
        (DegreeSequencePair.from_degrees([3, 2, 1], [2, 1]), None, 400, 2,  # pad_v
         "5f63150eaa22667c27f583f543ba1a889e0430076f74a88c9da3b414c4306ba0"),
        (DegreeSequencePair.from_degrees([2, 2, 1], [0, 2, 0, 3]), [1, 2, 1], 400, 3,
         "35a2f1dda5cc12d357beff4ab5dbe6c39a0bc8f364790b501fc9ef3dec28b506"),
        (big, CapacityProfile.from_fractions([0.5, 0.3, 0.2]).capacities(300), 120, 4,
         "3ef9596ba395d151680c4077f01a7aa7395ce41ab2eb6cac93c0b28efd93bda7"),
        (mid, 2, 200, 5,
         "feba9f5bb3426c142a46ff33c8673b22471c996e393f44118776deaead006318"),
        (reg, None, 500, 6,
         "3e1821669ed65f2ece1410a5432248eaa3a044d5712f5a256cbbcc4f9fb64596"),
        (DegreeSequencePair.from_degrees([2, 2, 2], [2] * 10), 2, 300, 7,
         "c7157d78e1aeb73284a014a43d9f35ac3b8847be711f0a51df74e5abd51828e8"),
        (DegreeSequencePair.from_degrees([2, 2, 2], [2] * 9 + [3]), 2, 300, 8,
         "e44f5074f76c46830b11d10eda15b3f3ad7084463f5806a4cd72383921debb85"),
        (big, CapacityProfile.from_fractions([0.5, 0.3, 0.2]).capacities(300), 500, 9,
         "0573c9406a89f82536097a008c2fbc8b91d02b26c40c9a582e9edbbd090bd0ac"),
    ]
    for seq, caps, runs, seed, digest in cases:
        counts = final_matched_counts(seq, caps, runs=runs, seed=seed)
        assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


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
        traj = run_policy(seq, None, RANKING, seed=seed)
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
            traj = run_policy(seq, None, BIASED_GREEDY, seed=seed, bias=bias)
            seen, won = choice_events(traj)
            events += seen
            wins += won
            seed += 1
        assert abs(wins / events - bias) <= tol


@pytest.mark.parametrize("bias", [5.0, -1.0, math.nan])
def test_bias_outside_the_unit_interval_raises(bias):
    # the coin gen.random(T) < bias ran every one of these silently
    seq = sample_degree_sequences(regular(2), regular(2), 50, seed=0)
    with pytest.raises(ValueError, match="bias"):
        run_policy(seq, None, BIASED_GREEDY, seed=0, bias=bias)


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
    total = sum(run_policy(seq, None, RANKING, seed=seed).final_matched
                for seed in range(600))
    assert abs(total / 600 - 5.0 / 3.0) <= 0.08


# ---------------------------------------------------------------------------
# helpers


def test_trajectory_monotone_unit_increments():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 2000, seed=17)
    for policy in (GREEDY, RANKING, SMALLEST, HIGHEST):
        traj = run_policy(seq, None, policy, seed=17)
        inc = np.diff(traj.matched_at_step)
        assert np.all((inc == 0) | (inc == 1))


def test_write_trajectory_csv(tmp_path):
    seq = DegreeSequencePair.from_degrees([2, 1], [2, 1])
    traj = run_policy(seq, None, GREEDY, seed=0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,matched"
    assert lines[1:] == [f"{k},{m}" for k, m in enumerate(traj.matched_at_step)]
