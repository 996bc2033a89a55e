"""Exact offline optima against brute-force oracles."""

import numpy as np
import pytest

from cmatch import poisson, regular
from cmatch.offline import max_b_matching, max_matching
from cmatch.stream import DegreeSequencePair, Multigraph, build_full_graph, \
    sample_degree_sequences

from oracles import brute_force_max_b_matching, brute_force_max_matching


def _random_tiny_graph(rng):
    n_u = int(rng.integers(1, 6))
    deg_u = rng.integers(0, 4, size=n_u)
    deg_v = rng.integers(0, 4, size=int(rng.integers(1, 6)))
    seq = DegreeSequencePair.from_degrees(deg_u, deg_v)
    return build_full_graph(seq, seed=int(rng.integers(0, 10_000)))


def test_single_edge():
    g = build_full_graph(DegreeSequencePair.from_degrees([1], [1]), seed=0)
    assert max_matching(g).size == 1


def test_star_counts_once():
    g = build_full_graph(DegreeSequencePair.from_degrees([3], [1, 1, 1]), seed=0)
    assert max_matching(g).size == 1


def test_simple_regular_instance_has_perfect_matching():
    seq = sample_degree_sequences(regular(3), regular(3), 100, seed=2)
    g = next(g for g in (build_full_graph(seq, seed=s) for s in range(2, 10**5))
             if g.is_simple())
    assert max_matching(g).size == 100


def test_matches_brute_force_on_tiny_graphs():
    rng = np.random.default_rng(0)
    for _ in range(40):
        g = _random_tiny_graph(rng)
        multi = g.real_edges()
        edges = sorted(set(multi))
        assert g.is_simple() == (len(edges) == len(multi))
        v, u = g.distinct_real_edges()
        assert list(zip(v.tolist(), u.tolist())) == edges
        expected = brute_force_max_matching(edges, g.n_offline, g.n_arrivals)
        assert max_matching(g).size == expected


def test_b_matching_reduces_to_matching_with_unit_capacities():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = _random_tiny_graph(rng)
        ones = np.ones(g.n_offline, dtype=int)
        assert max_b_matching(g, ones).size == max_matching(g).size


def test_b_matching_simple_capacity_case():
    g = build_full_graph(DegreeSequencePair.from_degrees([2], [1, 1]), seed=0)
    assert max_b_matching(g, [2]).size == 2
    assert max_b_matching(g, [1]).size == 1


def test_b_matching_matches_brute_force_with_capacities():
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = _random_tiny_graph(rng)
        caps = rng.integers(1, 4, size=g.n_offline)
        expected = brute_force_max_b_matching(
            sorted(set(g.real_edges())), g.n_offline, g.n_arrivals, caps)
        assert max_b_matching(g, caps).size == expected


def test_b_matching_brute_force_with_zero_and_surplus_capacities():
    # capacity 0 removes a vertex; capacity above its distinct degree is
    # capped at that degree by the copy construction and must not matter
    rng = np.random.default_rng(5)
    zero = surplus = multi = 0
    for _ in range(60):
        g = _random_tiny_graph(rng)
        edges = sorted(set(g.real_edges()))
        degree = np.bincount([u for _, u in edges], minlength=g.n_offline)
        caps = rng.integers(0, 6, size=g.n_offline)
        zero += int(np.any(caps == 0))
        surplus += int(np.any(caps > degree))
        multi += not g.is_simple()
        expected = brute_force_max_b_matching(edges, g.n_offline, g.n_arrivals, caps)
        assert max_b_matching(g, caps).size == expected
        assert max_b_matching(g, np.minimum(caps, degree)).size == expected
    assert zero and surplus and multi


def test_b_matching_poisson_instance_with_capacity_two():
    seq = sample_degree_sequences(poisson(4.0), poisson(4.0), 8, seed=4)
    g = build_full_graph(seq, seed=4)
    caps = np.full(8, 2)
    expected = brute_force_max_b_matching(
        sorted(set(g.real_edges())), g.n_offline, g.n_arrivals, caps)
    assert max_b_matching(g, caps).size == expected


def test_balancing_edges_are_excluded():
    # offline side has 2 spare half-edges, paired to the phantom arrival
    seq = DegreeSequencePair.from_degrees([2, 2], [1, 1])
    g = build_full_graph(seq, seed=1)
    assert max_matching(g).size <= 2
    assert all(u < 2 for _, u in g.real_edges())


def _graph(deg_u, deg_v, row):
    return Multigraph(DegreeSequencePair.from_degrees(deg_u, deg_v),
                      np.array(row, dtype=np.int64))


def test_idempotent_and_monotone():
    base = _graph([1, 1, 0], [1, 1], [0, 1])
    extended = _graph([1, 1, 1], [1, 1, 1], [0, 1, 2])
    assert base.adjacency == ((0,), (1,)) and extended.adjacency == ((0,), (1,), (2,))
    assert max_matching(base).size == max_matching(base).size == 2
    assert max_matching(extended).size >= max_matching(base).size


def test_capacity_array_validation():
    g = build_full_graph(DegreeSequencePair.from_degrees([1, 1], [1, 1]), seed=0)
    with pytest.raises(ValueError):
        max_b_matching(g, [1])
    with pytest.raises(ValueError):
        max_b_matching(g, [1, -1])


@pytest.mark.parametrize("caps, match", [
    ([0.5, 0.5], "whole numbers, got 0.5"),
    ([1.7, 1.2], "whole numbers, got 1.7"),
    ([1.0, np.inf], "whole numbers, got inf"),
    ([1.0, np.nan], "whole numbers, got nan"),
    (np.array([True, True]), "dtype bool"),
    (["1", "1"], "whole numbers"),
    ([[1], [1]], r"shape \(2, 1\), expected \(2,\)"),
    ([[1, 1], [1, 1]], r"shape \(2, 2\), expected \(2,\)"),
    (3, r"shape \(\), expected \(2,\)"),
    ([2, -1], "nonnegative"),
    (2**64, r"shape \(\), expected \(2,\)"),
    (-2**64, r"shape \(\), expected \(2,\)"),
    ([1, -2**64], "nonnegative, got -18446744073709551616"),
    # numpy upcasts a bool in a list of numbers: these ran as capacity 1
    ([True, 2], "whole numbers, got True"),
    ([1.0, True], "whole numbers, got True"),
])
def test_malformed_capacities_raise_naming_the_problem(caps, match):
    # each must raise, not be truncated ([0.5, 0.5] -> 0), accepted as a
    # bool or a fraction, or fail inside numpy; Python ints past int64 make
    # an object array, which was rejected as "dtype object" unchecked
    g = build_full_graph(DegreeSequencePair.from_degrees([2, 1], [1, 1, 1]), seed=0)
    with pytest.raises(ValueError, match=match):
        max_b_matching(g, caps)


def test_whole_float_and_zero_capacities_are_legal():
    g = build_full_graph(DegreeSequencePair.from_degrees([2, 1], [1, 1, 1]), seed=0)
    assert max_b_matching(g, [2.0, 1.0]).size == max_b_matching(g, [2, 1]).size == 3
    assert max_b_matching(g, [0, 0]).size == 0
    assert max_b_matching(g, np.array([0, 1], dtype=np.uint8)).size == 1
    # past int64 too: nonnegative is the only bound
    assert max_b_matching(g, [2**64, 1]).size == 3


def test_empty_graph():
    g = _graph([0, 0], [], [])
    assert g.adjacency == () and g.n_offline == 2
    assert g.row[g.seq.arrival_offsets[-1]:].size == 0
    assert max_matching(g).size == 0
    assert max_b_matching(g, [1, 1]).size == 0


@pytest.mark.parametrize("law, cap", [(regular(3), 1), (poisson(4.0), 2),
                                      (poisson(4.0), "mixed")])
def test_optima_match_networkx_at_mid_size(law, cap):
    # an independent oracle at a size the brute force cannot reach:
    # Hopcroft-Karp for the matching, a max flow for the b-matching
    import networkx as nx
    seq = sample_degree_sequences(law, law, 2000, seed=0)
    g = build_full_graph(seq, seed=0)
    edges = set(g.real_edges())
    top = [("u", u) for u in range(g.n_offline)]
    bip = nx.Graph()
    bip.add_nodes_from(top)
    bip.add_nodes_from(("v", v) for v in range(g.n_arrivals))
    bip.add_edges_from((("u", u), ("v", v)) for v, u in edges)
    matching = nx.bipartite.maximum_matching(bip, top_nodes=top)
    assert max_matching(g).size == len(matching) // 2

    if cap == "mixed":
        # 0s, and values above the vertex's distinct degree
        degree = np.bincount([u for _, u in edges], minlength=g.n_offline)
        caps = np.random.default_rng(0).integers(0, 9, size=g.n_offline)
        assert np.any(caps == 0) and np.any(caps > degree)
    else:
        caps = np.full(g.n_offline, cap)
    net = nx.DiGraph()
    net.add_edges_from(("s", ("u", u), {"capacity": int(caps[u])})
                       for u in range(g.n_offline))
    net.add_edges_from((("u", u), ("v", v), {"capacity": 1}) for v, u in edges)
    net.add_edges_from((("v", v), "t", {"capacity": 1}) for v in range(g.n_arrivals))
    assert max_b_matching(g, caps).size == nx.maximum_flow_value(net, "s", "t")
