"""Exact offline optima on realized graphs.

These supply the denominators for empirical competitive ratios: a maximum
cardinality matching, and its capacitated generalization where offline
vertex u may absorb up to omega_u matches. Both read the pairing row as
arrays, with balancing-vertex edges masked out and parallel edges collapsed
(:meth:`Multigraph.distinct_real_edges`); a matching can use each vertex
pair at most once, so multiplicity never helps the optimum.

Both are one Hopcroft-Karp matching (scipy.sparse.csgraph) against
capacity copies: offline vertex u becomes omega_u columns, each adjacent
to all of u's arrivals, so a b-matching is a plain matching of the copied
graph. Small-instance brute-force oracles in the test suite pin the sizes
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .degrees import _array, _whole
from .stream import Multigraph


@dataclass(frozen=True)
class OptResult:
    """Size of an optimal (b-)matching."""

    size: int


def _copies_matching(graph: Multigraph, caps) -> int:
    """Maximum matching of the arrivals against min(caps[u], d_u) copies of
    each offline vertex u, d_u its distinct real neighbours (more copies
    can never be used). The copied graph has sum_u d_u * min(caps[u], d_u)
    edges, at most max(caps) times the distinct edges."""
    v, u = graph.distinct_real_edges()
    copies = np.minimum(caps, np.bincount(u, minlength=graph.n_offline)).astype(np.int64)
    per_edge = copies[u]
    ends = np.cumsum(per_edge)
    # edges are sorted by arrival, then offline vertex, and u's copies are
    # consecutive columns, so the repeated columns are already in CSR order
    cols = np.repeat(np.cumsum(copies)[u] - ends, per_edge)
    cols += np.arange(cols.size)
    indptr = np.append(0, ends)[np.searchsorted(v, np.arange(graph.n_arrivals + 1))]
    bi = csr_matrix((np.ones(cols.size, dtype=np.int8), cols, indptr),
                    shape=(graph.n_arrivals, int(copies.sum())))
    return int(np.count_nonzero(maximum_bipartite_matching(bi, perm_type="column") >= 0))


def max_matching(graph: Multigraph) -> OptResult:
    """Exact maximum-cardinality matching between real vertices."""
    return OptResult(size=_copies_matching(graph, 1))


def max_b_matching(graph: Multigraph, capacities) -> OptResult:
    """Exact optimum when offline vertex u may be matched capacities[u]
    times; capacities are integers >= 0, one per real offline vertex."""
    caps = _array(capacities, "capacities")
    if caps.shape != (graph.n_offline,):
        raise ValueError(f"capacity array has shape {caps.shape}, "
                         f"expected ({graph.n_offline},)")
    return OptResult(size=_copies_matching(graph, _whole(capacities, "capacities", 0)))
