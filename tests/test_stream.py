"""Degree-sequence sampling, the pairing engine and graph realization."""

import numpy as np
import pytest
from scipy import stats

from cmatch import poisson, regular
from cmatch.stream import (DegreeSequencePair, build_full_graph,
                           pair_half_edges, pairing_stream,
                           sample_degree_sequences, write_edge_list)

from oracles import pairing_distribution


# ---------------------------------------------------------------------------
# degree sequences


def test_regular_sequences_balance_trivially():
    seq = sample_degree_sequences(regular(2), regular(2), 5, seed=0)
    assert seq.n_arrivals == 5
    assert np.all(seq.deg_u == 2) and np.all(seq.deg_v == 2)
    assert seq.pad_u == 0 and seq.pad_v == 0


def test_arrival_count_follows_mean_ratio():
    seq = sample_degree_sequences(regular(4), regular(2), 3, seed=0)
    assert seq.n_arrivals == 6
    assert seq.deg_u.sum() == 12 == seq.deg_v.sum()


def test_sequences_deterministic_in_seed():
    a = sample_degree_sequences(poisson(4.0), poisson(4.0), 500, seed=9)
    b = sample_degree_sequences(poisson(4.0), poisson(4.0), 500, seed=9)
    assert np.array_equal(a.deg_u, b.deg_u) and np.array_equal(a.deg_v, b.deg_v)
    c = sample_degree_sequences(poisson(4.0), poisson(4.0), 500, seed=10)
    assert not (np.array_equal(a.deg_u, c.deg_u) and np.array_equal(a.deg_v, c.deg_v))


def test_balance_absorbs_the_exact_deficit():
    seq = DegreeSequencePair.from_degrees([3], [1, 1, 1, 1, 1])
    assert seq.pad_u == 2 and seq.pad_v == 0
    seq2 = DegreeSequencePair.from_degrees([3, 2], [1, 1, 1])
    assert seq2.pad_u == 0 and seq2.pad_v == 2


def test_balance_degree_has_subgaussian_size():
    # both sums concentrate, so the deficit stays within 5 sd of 0
    bound = 5.0 * np.sqrt(2.0 * 16.0 * 10_000)
    pmf = poisson(4.0)
    hits = 0
    trials = 1000
    for seed in range(trials):
        seq = sample_degree_sequences(pmf, pmf, 10_000, seed=seed)
        if seq.pad_u + seq.pad_v <= bound:
            hits += 1
    assert hits >= 0.999 * trials


def test_sample_rejects_degenerate_input():
    with pytest.raises(ValueError):
        sample_degree_sequences(regular(2), regular(2), 0, seed=0)
    with pytest.raises(ValueError):
        DegreeSequencePair.from_degrees([-1], [1])


# ---------------------------------------------------------------------------
# pairing engine


def _arrival_slices(seq, row):
    """Endpoints of each arrival, read off one pairing row in arrival order."""
    ends = np.cumsum(seq.deg_v)
    return [tuple(row[a - d:a].tolist()) for a, d in zip(ends, seq.deg_v)]


def test_slots_repeat_vertices_per_degree():
    slots = DegreeSequencePair.from_degrees([2, 1], [3]).slot_vertex
    assert slots.tolist() == [0, 0, 1]


def test_slots_of_empty_pool():
    seq = DegreeSequencePair.from_degrees([0, 0], [])
    assert seq.slot_vertex.size == 0
    assert pair_half_edges(seq, pairing_stream(0), runs=3).shape == (3, 0)


def test_slots_include_balancing_vertex_on_u():
    seq = DegreeSequencePair.from_degrees([3], [1, 1, 1, 1, 1])
    slots = seq.slot_vertex
    assert slots.size == 5 == seq.total_u_half_edges
    assert np.count_nonzero(slots == 1) == 2  # balancing slot


def test_pairing_single_slot():
    seq = DegreeSequencePair.from_degrees([0, 0, 0, 1], [1])
    row = pair_half_edges(seq, pairing_stream(0))[0]
    assert row.tolist() == [3]
    assert row[int(seq.deg_v.sum()):].size == 0  # nothing left unpaired


def test_pool_never_runs_short():
    # the balancing vertex makes the offline side at least as long as the
    # arrival side, so no arrival slice can run past the end of a row
    rng = np.random.default_rng(8)
    for _ in range(200):
        deg_u = rng.integers(0, 4, size=int(rng.integers(0, 5)))
        deg_v = rng.integers(0, 4, size=int(rng.integers(0, 5)))
        seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
        assert seq.total_u_half_edges >= int(seq.deg_v.sum())
    empty = DegreeSequencePair.from_degrees([0], [])
    g = build_full_graph(empty, seed=0)
    assert g.adjacency == () and g.row[empty.arrival_offsets[-1]:].size == 0


def test_first_slot_uniform_over_half_edges():
    seq_even = DegreeSequencePair.from_degrees([1, 1], [2])
    seq_heavy = DegreeSequencePair.from_degrees([3, 1], [4])
    rng = pairing_stream(123)
    first_even = pair_half_edges(seq_even, rng, runs=100_000)[:, 0]
    first_heavy = pair_half_edges(seq_heavy, rng, runs=100_000)[:, 0]
    assert abs(np.mean(first_even == 0) - 0.5) <= 0.005
    assert abs(np.mean(first_heavy == 0) - 0.75) <= 0.005


def test_first_slot_uniformity_chi_square():
    seq = DegreeSequencePair.from_degrees([1, 1, 1, 1], [4])
    first = pair_half_edges(seq, pairing_stream(7), runs=100_000)[:, 0]
    counts = np.bincount(first, minlength=4)
    assert stats.chisquare(counts).pvalue > 0.001


def test_arrival_slice_cases():
    g = build_full_graph(DegreeSequencePair.from_degrees([2], [0, 2]), seed=0)
    assert g.adjacency == ((), (0, 0))
    # one real half-edge for three arrival half-edges: the balancing vertex
    # (id 1) takes the other two, so only one real edge is revealed
    g2 = build_full_graph(DegreeSequencePair.from_degrees([1], [3]), seed=0)
    assert sorted(g2.adjacency[0]) == [0, 1, 1]
    assert g2.real_edges() == [(0, 0)]


def test_pool_counts_stay_consistent():
    # every row is a permutation of the slots, so the unpaired tail after
    # any number of pairings holds exactly the remaining degrees
    seq = sample_degree_sequences(poisson(3.0), poisson(3.0), 200, seed=3)
    slots = seq.slot_vertex
    degree = np.bincount(slots, minlength=seq.n_offline + 1)
    rows = pair_half_edges(seq, pairing_stream(3), runs=20)
    assert rows.shape == (20, slots.size)
    for row in rows:
        assert np.array_equal(np.sort(row), slots)
        for k in range(0, slots.size, 50):
            paired = np.bincount(row[:k], minlength=seq.n_offline + 1)
            live = np.bincount(row[k:], minlength=seq.n_offline + 1)
            assert np.array_equal(live, degree - paired)
            assert live.sum() == slots.size - k


# ---------------------------------------------------------------------------
# full graph realization


def test_single_edge_graph():
    g = build_full_graph(DegreeSequencePair.from_degrees([1], [1]), seed=0)
    assert g.real_edges() == [(0, 0)]
    assert g.row.tolist() == [0]
    assert g.seq.slot_arrival.tolist() == [0]
    assert [a.tolist() for a in g.distinct_real_edges()] == [[0], [0]]


def test_graph_matches_streaming_reveal():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 300, seed=11)
    g = build_full_graph(seq, seed=11)
    row = pair_half_edges(seq, pairing_stream(11))[0]
    assert np.array_equal(g.row, row)
    streamed = _arrival_slices(seq, row)
    assert tuple(streamed) == g.adjacency
    assert g.row[seq.arrival_offsets[-1]:].tolist() == row[int(seq.deg_v.sum()):].tolist()
    assert len(g.adjacency[0]) == seq.deg_v[0]


def test_realized_law_matches_exhaustive_enumeration():
    # simulate 2-regular n=2 and chi-square against the exact pairing law
    deg_u, deg_v = (2, 2), (2, 2)
    law = pairing_distribution(deg_u, deg_v)
    seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
    counts = {key: 0 for key in law}
    trials = 10_000
    for seed in range(trials):
        g = build_full_graph(seq, seed=seed)
        key = tuple(tuple(sorted(e)) for e in g.adjacency)
        counts[key] += 1
    observed = [counts[k] for k in law]
    expected = [float(law[k]) * trials for k in law]
    assert min(observed) > 0
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_arrival_order_does_not_change_the_law():
    # same instance revealed in two arrival orders: after mapping arrivals
    # back to their identities both distributions follow the same exact law
    law_a = pairing_distribution((2, 1), (2, 1))
    law_b = pairing_distribution((2, 1), (1, 2))
    remap = {tuple(sorted((key[1], key[0]))): p for key, p in law_b.items()}
    assert remap == {tuple(sorted(k)): p for k, p in law_a.items()}

    seq = DegreeSequencePair.from_degrees((2, 1), (1, 2))
    counts: dict = {}
    trials = 20_000
    for seed in range(trials):
        g = build_full_graph(seq, seed=seed)
        key = tuple(sorted((g.adjacency[1], g.adjacency[0])))
        key = tuple(tuple(sorted(e)) for e in key)
        counts[key] = counts.get(key, 0) + 1
    law = {tuple(sorted(k)): p for k, p in law_a.items()}
    observed = [counts.get(k, 0) for k in law]
    expected = [float(law[k]) * trials for k in law]
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_half_edge_conservation_during_runs():
    # live count must track initial minus consumed exactly, step by step
    pmf = regular(4)
    for seed in range(100):
        seq = sample_degree_sequences(pmf, pmf, 10_000, seed=seed)
        row = pair_half_edges(seq, pairing_stream(seed))[0]
        revealed = np.array([len(e) for e in _arrival_slices(seq, row)])
        assert np.array_equal(revealed, seq.deg_v)
        live = row.size - np.cumsum(revealed)
        n = seq.n_offline
        k = np.arange(1, seq.n_arrivals + 1)
        # fluid bookkeeping: live/N stays on the line mu_u - (k/N) mu_v
        assert np.all(np.abs(live / n - (4.0 - (k / n) * 4.0)) <= 0.05)


def test_streams_are_deterministic_and_policy_free():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 400, seed=5)
    g1 = build_full_graph(seq, seed=5)
    g2 = build_full_graph(seq, seed=5)
    tail = seq.arrival_offsets[-1]
    assert g1.adjacency == g2.adjacency
    assert np.array_equal(g1.row[tail:], g2.row[tail:])


def test_seed_loop_finds_a_simple_graph():
    seq = DegreeSequencePair.from_degrees([2, 2], [2, 2])
    graphs = [build_full_graph(seq, seed=seed) for seed in range(20)]
    simple = [g.is_simple() for g in graphs]
    assert any(simple) and not all(simple)
    for g, ok in zip(graphs, simple):
        edges = g.real_edges()
        assert ok == (len(set(edges)) == len(edges))


def test_layouts_are_computed_once_and_read_only():
    seq = DegreeSequencePair.from_degrees([2, 1, 3], [1, 3, 2])
    for name in ("arrival_offsets", "slot_arrival", "slot_vertex"):
        layout = getattr(seq, name)
        assert getattr(seq, name) is layout
        with pytest.raises(ValueError, match="read-only"):
            layout[0] = 0


def test_leftover_edges_are_flagged(tmp_path):
    seq = DegreeSequencePair.from_degrees([2, 2], [1, 1])  # pad_v == 2
    g = build_full_graph(seq, seed=0)
    assert g.seq.slot_arrival.tolist() == [0, 1, 2, 2]
    assert g.row[seq.arrival_offsets[-1]:].size == 2 and len(g.real_edges()) == 2
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    triples = [tuple(map(int, line.split())) for line in path.read_text().splitlines()[1:]]
    flagged = [t for t in triples if t[2] == 1]
    assert len(flagged) == 2
    assert all(v == seq.n_arrivals for v, _, _ in flagged)


def test_write_edge_list_format(tmp_path):
    seq = DegreeSequencePair.from_degrees([2, 1], [2, 1])
    g = build_full_graph(seq, seed=0)
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2"
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        v, u, flag = map(int, line.split())
        assert flag in (0, 1)


def _plain_edge_list(graph) -> str:
    """The edge-list format written out with a loop over the row."""
    seq, row = graph.seq, graph.row.tolist()
    n, t = seq.n_offline, seq.n_arrivals
    lines = [f"{n} {t}\n"]
    off = 0
    for v, dv in enumerate(seq.deg_v.tolist()):
        for u in row[off:off + dv]:
            lines.append(f"{v} {u} {int(u == n)}\n")
        off += dv
    for u in row[off:]:
        lines.append(f"{t} {u} 1\n")
    return "".join(lines)


# which sides the balancing vertex pads, by the short side's name
_PADDED = {"none": (False, False), "U": (True, False), "V": (False, True)}


@pytest.mark.parametrize("deg_u, deg_v, law, sample_seed, padded", [
    ([2, 1, 3], [1, 3, 2], regular(3), 0, "none"),
    ([1, 1], [3, 0, 2], poisson(3.0), 7, "U"),
    ([3, 2, 2], [1, 2], poisson(3.0), 0, "V"),
])
def test_write_edge_list_matches_a_plain_loop(tmp_path, deg_u, deg_v, law,
                                              sample_seed, padded):
    seqs = [DegreeSequencePair.from_degrees(deg_u, deg_v),
            sample_degree_sequences(law, law, 200, seed=sample_seed)]
    for k, seq in enumerate(seqs):
        assert (seq.pad_u > 0, seq.pad_v > 0) == _PADDED[padded]
        for seed in range(3):
            g = build_full_graph(seq, seed=seed)
            path = tmp_path / f"edges_{k}_{seed}.txt"
            write_edge_list(g, path)
            assert path.read_bytes() == _plain_edge_list(g).encode()
