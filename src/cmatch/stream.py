"""Bipartite configuration-model sampling, exposed as an online stream.

A degree-sequence pair fixes the half-edge counts of both sides, plus a
single balancing vertex that absorbs the total-degree deficit so a perfect
pairing of half-edges exists. Pairing the arrival half-edges in arrival
order against a uniformly random ordering of the offline half-edges gives
exactly the configuration model's uniform pairing, so one permutation per
graph (:func:`pair_half_edges`) is the whole pairing engine, and that row
is the realized graph (:class:`Multigraph`). Every reader slices it by one
layout, :attr:`DegreeSequencePair.arrival_offsets`: a policy run one
arrival at a time, the optima and the edge-list dump whole, the bulk Monte
Carlo path many rows at once. At equal seeds all see the identical pairing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._io import write_rows
from .degrees import _MAX_SUPPORT, DegreePMF, _count, _positive_means, _whole


def pairing_stream(seed: int) -> np.random.Generator:
    """Random stream driving half-edge pairing for a run with this seed."""
    return np.random.default_rng(2 * _count(seed, "seed", 0) + 1)


def decision_stream(seed: int) -> random.Random:
    """Random stream driving policy decisions; independent of the pairing
    stream so every policy sees the identical realized graph."""
    return random.Random(2 * _count(seed, "seed", 0) + 2)


def _frozen(array: np.ndarray) -> np.ndarray:  # the array, made read-only
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class DegreeSequencePair:
    """Realized degree sequences for one run.

    ``deg_u`` has one entry per offline vertex, ``deg_v`` one per arrival in
    arrival order. The balancing vertex pads both sides to equal half-edge
    totals: ``pad_u`` is the degree of offline vertex N and ``pad_v`` that
    of arrival T, and at most one of them is nonzero. Its edges never count
    toward matchings. Each layout below is computed once, read-only.
    """

    deg_u: np.ndarray
    deg_v: np.ndarray
    pad_u: int
    pad_v: int

    @property
    def n_offline(self) -> int:
        return len(self.deg_u)

    @property
    def n_arrivals(self) -> int:
        return len(self.deg_v)

    @property
    def total_u_half_edges(self) -> int:
        """Pool size: offline half-edges including the balancing vertex."""
        return int(self.deg_u.sum()) + self.pad_u

    @cached_property
    def arrival_offsets(self) -> np.ndarray:
        """Slice bounds in a pairing row: arrival v owns ``row[off[v]:off[v + 1]]``;
        ``off[T]``, the arrival half-edge count, starts the balancing tail."""
        return _frozen(np.concatenate(([0], np.cumsum(self.deg_v))))

    @cached_property
    def slot_arrival(self) -> np.ndarray:
        """Arrival id of every slot of a pairing row; T marks the tail that
        pairs with the balancing arrival."""
        return _frozen(np.repeat(np.arange(self.n_arrivals + 1),
                                 np.append(self.deg_v, self.pad_v)))

    @cached_property
    def slot_vertex(self) -> np.ndarray:
        """Offline vertex id of every offline half-edge, vertex by vertex;
        the balancing vertex N holds the last ``pad_u`` slots."""
        return _frozen(np.repeat(np.arange(self.n_offline + 1, dtype=np.int64),
                                 np.append(self.deg_u, self.pad_u)))

    @classmethod
    def from_degrees(cls, deg_u, deg_v) -> "DegreeSequencePair":
        """Pair two raw degree sequences, padding the short side; each is 1-D,
        of whole numbers in [0, 10^6] (every law's bound), copied, then frozen."""
        deg_u, deg_v = (_frozen(_whole(deg, name, 0, _MAX_SUPPORT).astype(np.int64))
                        for deg, name in ((deg_u, "deg_u"), (deg_v, "deg_v")))
        if deg_u.ndim != 1 or deg_v.ndim != 1:
            raise ValueError("deg_u and deg_v must be 1-D sequences")
        diff = int(deg_u.sum()) - int(deg_v.sum())
        return cls(deg_u=deg_u, deg_v=deg_v, pad_u=max(-diff, 0), pad_v=max(diff, 0))


def sample_degree_sequences(pmf_u: DegreePMF, pmf_v: DegreePMF,
                            n: int, seed: int) -> DegreeSequencePair:
    """Draw i.i.d. degrees for n offline vertices and the matching number of
    arrivals, T = round(n * mean_u / mean_v)."""
    n = _count(n, "n", 1)
    mu_u, mu_v = _positive_means(pmf_u, pmf_v)
    t = max(int(np.floor(n * mu_u / mu_v + 0.5)), 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    deg_u = pmf_u.sample(rng, n)
    deg_v = pmf_v.sample(rng, t)
    return DegreeSequencePair.from_degrees(deg_u, deg_v)


def pair_half_edges(seq: DegreeSequencePair, rng: np.random.Generator,
                    runs: int = 1) -> np.ndarray:
    """Uniform pairings of ``runs`` independent graphs, one row each.

    Each row is a uniform random ordering of
    :attr:`DegreeSequencePair.slot_vertex`; arrival half-edges pair with it
    in arrival order (see :attr:`DegreeSequencePair.arrival_offsets`),
    which is the configuration model's uniform pairing revealed one
    arrival at a time.
    """
    slots = seq.slot_vertex
    shape = (_count(runs, "runs", 1), slots.size)
    return rng.permuted(np.broadcast_to(slots, shape), axis=1)


@dataclass(frozen=True, eq=False)
class Multigraph:
    """The realized graph: a pairing row of ``seq``, sliced by
    ``seq.arrival_offsets``; multi-edges are retained. Edges touching the
    balancing vertex (offline id N, or arrival T holding the tail) are
    flagged and excluded from matching computations."""

    seq: DegreeSequencePair
    row: np.ndarray

    @property
    def n_offline(self) -> int:
        return self.seq.n_offline

    @property
    def n_arrivals(self) -> int:
        return self.seq.n_arrivals

    def _real_keys(self) -> np.ndarray:
        """``v * N + u`` for every real edge (v, u), in pairing order."""
        v, u = self.seq.slot_arrival, self.row
        real = (u < self.n_offline) & (v < self.n_arrivals)
        return v[real] * self.n_offline + u[real]

    def distinct_real_edges(self) -> tuple:
        """Arrays (v, u) of the real edges with parallel edges collapsed,
        sorted by arrival, then offline vertex."""
        # sort and drop repeats: np.unique hashes int64 keys in numpy 2.4,
        # which measured about 30x slower on 8e4 edges
        keys = np.sort(self._real_keys())
        return np.divmod(keys[np.diff(keys, prepend=-1) > 0], self.n_offline)

    def is_simple(self) -> bool:
        """No repeated (arrival, offline) pair among real edges."""
        return self.distinct_real_edges()[0].size == self._real_keys().size

    # Views for callers outside the library, derived on every access.

    @property
    def adjacency(self) -> tuple:
        """Offline endpoints of each arrival, in pairing order."""
        ends, off = self.row.tolist(), self.seq.arrival_offsets.tolist()
        return tuple(tuple(ends[a:b]) for a, b in zip(off, off[1:]))

    def real_edges(self) -> list:
        """Real edges (v, u) in pairing order, multiplicity retained."""
        v, u = np.divmod(self._real_keys(), self.n_offline)
        return list(zip(v.tolist(), u.tolist()))


def build_full_graph(seq: DegreeSequencePair, seed: int) -> Multigraph:
    """Realize the whole pairing for this sequence pair: the very row a
    policy run reads at the same seed, so the edge set equals what that run
    reveals."""
    return Multigraph(seq, _frozen(pair_half_edges(seq, pairing_stream(seed))[0]))


def write_edge_list(graph: Multigraph, path) -> None:
    """Dump the realized graph: header "N T", then one "v u flag" per slot
    of the row, in pairing order; flag 1 marks balancing-vertex edges."""
    seq = graph.seq
    v, u = seq.slot_arrival, graph.row
    flag = ((u == seq.n_offline) | (v == seq.n_arrivals)).astype(np.int64)
    write_rows(path, f"{seq.n_offline} {seq.n_arrivals}\n", "%d %d %d\n", v, u, flag)
