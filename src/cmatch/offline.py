"""Exact offline optima on realized graphs.

These supply the denominators for empirical competitive ratios: a maximum
cardinality matching, and its capacitated generalization where offline
vertex u may absorb up to omega_u matches. Both read the pairing row as
arrays, with balancing-vertex edges masked out and parallel edges collapsed
(:meth:`Multigraph.distinct_real_edges`); a matching can use each vertex
pair at most once, so multiplicity never helps the optimum.

Both solvers are exact integer routines from scipy.sparse.csgraph
(augmenting-path bipartite matching, max flow); small-instance brute-force
oracles in the test suite pin their correctness independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

from .stream import Multigraph

AUGMENTING_PATHS = "augmenting_paths"
MAX_FLOW = "max_flow"


@dataclass(frozen=True)
class OptResult:
    """Size of an optimal (b-)matching and the method that produced it."""

    size: int
    method: str


def max_matching(graph: Multigraph) -> OptResult:
    """Exact maximum-cardinality matching between real vertices."""
    v, u = graph.distinct_real_edges()
    if not v.size:
        return OptResult(size=0, method=AUGMENTING_PATHS)
    bi = csr_matrix((np.ones(v.size, dtype=np.int8), (v, u)),
                    shape=(graph.n_arrivals, graph.n_offline))
    perm = maximum_bipartite_matching(bi, perm_type="column")
    return OptResult(size=int(np.count_nonzero(perm >= 0)),
                     method=AUGMENTING_PATHS)


def max_b_matching(graph: Multigraph, capacities) -> OptResult:
    """Exact optimum when offline vertex u may be matched capacities[u]
    times: max flow on source -> u (cap omega_u) -> v (cap 1) -> sink."""
    caps = np.asarray(capacities, dtype=np.int64)
    if len(caps) != graph.n_offline:
        raise ValueError(f"capacity array has length {len(caps)}, "
                         f"expected {graph.n_offline}")
    if np.any(caps < 0):
        raise ValueError("capacities must be nonnegative")
    v, u = graph.distinct_real_edges()
    if not v.size:
        return OptResult(size=0, method=MAX_FLOW)
    n, t = graph.n_offline, graph.n_arrivals
    source, sink = 0, 1 + n + t
    # node ids: source 0, offline u at 1 + u, arrival v at 1 + n + v, sink
    fed = np.flatnonzero(caps > 0)
    rows = np.concatenate((np.full(fed.size, source), 1 + u, 1 + n + np.arange(t)))
    cols = np.concatenate((1 + fed, 1 + n + v, np.full(t, sink)))
    data = np.concatenate((caps[fed], np.ones(v.size + t, dtype=np.int64)))
    net = csr_matrix((data.astype(np.int32), (rows, cols)),
                     shape=(n + t + 2, n + t + 2))
    value = maximum_flow(net, source, sink).flow_value
    return OptResult(size=int(value), method=MAX_FLOW)
