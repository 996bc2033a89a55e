"""Bipartite configuration-model sampling, exposed as an online stream.

A degree-sequence pair fixes the half-edge counts of both sides, plus a
single balancing vertex that absorbs the total-degree deficit so a perfect
pairing of half-edges exists. Pairing the arrival half-edges in arrival
order against a uniformly random ordering of the offline half-edges gives
exactly the configuration model's uniform pairing, so one permutation per
graph (:func:`pair_half_edges`) is the whole pairing engine: a policy run
reads it one arrival slice at a time, the full graph is the same slices at
once, and the bulk Monte Carlo path permutes many rows in one call. At
equal seeds all three see the identical pairing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .degrees import DegreePMF

BALANCE_NONE = "none"
BALANCE_U = "U"
BALANCE_V = "V"


def pairing_stream(seed: int) -> np.random.Generator:
    """Random stream driving half-edge pairing for a run with this seed."""
    return np.random.default_rng(2 * seed + 1)


def decision_stream(seed: int) -> random.Random:
    """Random stream driving policy decisions; independent of the pairing
    stream so every policy sees the identical realized graph."""
    return random.Random(2 * seed + 2)


@dataclass(frozen=True, eq=False)
class DegreeSequencePair:
    """Realized degree sequences for one run.

    ``deg_u`` has one entry per offline vertex, ``deg_v`` one per arrival in
    arrival order. The balancing vertex lives on whichever side is short of
    half-edges; its edges never count toward matchings.
    """

    deg_u: np.ndarray
    deg_v: np.ndarray
    balance_side: str
    balance_degree: int

    @property
    def n_offline(self) -> int:
        return len(self.deg_u)

    @property
    def n_arrivals(self) -> int:
        return len(self.deg_v)

    @property
    def total_u_half_edges(self) -> int:
        """Pool size: offline half-edges including the balancing vertex."""
        extra = self.balance_degree if self.balance_side == BALANCE_U else 0
        return int(self.deg_u.sum()) + extra

    @classmethod
    def from_degrees(cls, deg_u, deg_v) -> "DegreeSequencePair":
        """Pair two raw degree sequences, adding the balancing vertex."""
        deg_u = np.array(deg_u, dtype=np.int64)
        deg_v = np.array(deg_v, dtype=np.int64)
        if np.any(deg_u < 0) or np.any(deg_v < 0):
            raise ValueError("degrees must be nonnegative")
        diff = int(deg_u.sum()) - int(deg_v.sum())
        if diff == 0:
            side, extra = BALANCE_NONE, 0
        elif diff > 0:
            side, extra = BALANCE_V, diff
        else:
            side, extra = BALANCE_U, -diff
        deg_u.setflags(write=False)
        deg_v.setflags(write=False)
        return cls(deg_u=deg_u, deg_v=deg_v, balance_side=side, balance_degree=extra)


def sample_degree_sequences(pmf_u: DegreePMF, pmf_v: DegreePMF,
                            n: int, seed: int) -> DegreeSequencePair:
    """Draw i.i.d. degrees for n offline vertices and the matching number of
    arrivals, T = round(n * mean_u / mean_v)."""
    if n < 1:
        raise ValueError("need at least one offline vertex")
    if pmf_u.mean <= 0 or pmf_v.mean <= 0:
        raise ValueError("both degree laws need positive mean")
    t = int(np.floor(n * pmf_u.mean / pmf_v.mean + 0.5))
    t = max(t, 1)
    rng = np.random.default_rng(seed)
    deg_u = pmf_u.sample(rng, n)
    deg_v = pmf_v.sample(rng, t)
    return DegreeSequencePair.from_degrees(deg_u, deg_v)


def half_edge_slots(seq: DegreeSequencePair) -> np.ndarray:
    """Offline vertex id of every offline half-edge, vertex by vertex; the
    balancing vertex (id N) holds the last slots when it sits on U."""
    extra = seq.balance_degree if seq.balance_side == BALANCE_U else 0
    counts = np.append(seq.deg_u, extra)
    return np.repeat(np.arange(seq.n_offline + 1, dtype=np.int64), counts)


def pair_half_edges(seq: DegreeSequencePair, rng: np.random.Generator,
                    runs: int = 1) -> np.ndarray:
    """Uniform pairings of ``runs`` independent graphs, one row each.

    Each row is a uniform random ordering of :func:`half_edge_slots`.
    Arrival half-edges, taken in arrival order, pair with the row in order:
    arrival v gets ``row[off_v : off_v + deg_v[v]]`` with ``off_v`` the
    degree sum of earlier arrivals, which is the configuration model's
    uniform pairing revealed one arrival at a time. The tail
    ``row[sum(deg_v):]`` holds the half-edges left for the balancing
    arrival; it is empty unless the balance sits on V.
    """
    slots = half_edge_slots(seq)
    return rng.permuted(np.broadcast_to(slots, (runs, slots.size)), axis=1)


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Realized pairing. ``adjacency[v]`` lists the offline endpoints of
    arrival v in pairing order; multi-edges are retained. Edges touching the
    balancing vertex (offline id N, or the phantom arrival holding
    ``leftover``) are flagged and excluded from matching computations."""

    adjacency: tuple
    leftover: tuple
    n_offline: int
    n_arrivals: int
    balance_side: str
    balance_degree: int

    def edge_triples(self) -> list:
        """All edge records as (v, u, flag); flag=1 marks balancing edges."""
        out = []
        n = self.n_offline
        for v, endpoints in enumerate(self.adjacency):
            for u in endpoints:
                out.append((v, u, 1 if u == n else 0))
        for u in self.leftover:
            out.append((self.n_arrivals, u, 1))
        return out

    def real_edges(self) -> list:
        """Edges between real vertices only, multiplicity retained."""
        n = self.n_offline
        return [(v, u) for v, endpoints in enumerate(self.adjacency)
                for u in endpoints if u != n]

    def is_simple(self) -> bool:
        """No repeated (arrival, offline) pair among real edges."""
        edges = self.real_edges()
        return len(edges) == len(set(edges))


def build_full_graph(seq: DegreeSequencePair, seed: int,
                     simple_only: bool = False,
                     max_attempts: int = 100_000) -> Multigraph:
    """Realize the whole pairing for this sequence pair.

    Slices the pairing a policy run reads at the same seed, so the edge set
    equals what that run reveals. With ``simple_only`` the pairing is
    redrawn at seeds seed, seed+1, ... until the realized graph is simple.
    """
    ends = np.cumsum(seq.deg_v).tolist()
    starts = [0] + ends[:-1]
    attempt_seed = seed
    for _ in range(max_attempts):
        row = pair_half_edges(seq, pairing_stream(attempt_seed))[0].tolist()
        graph = Multigraph(adjacency=tuple(tuple(row[a:b]) for a, b in zip(starts, ends)),
                           leftover=tuple(row[int(seq.deg_v.sum()):]),
                           n_offline=seq.n_offline, n_arrivals=seq.n_arrivals,
                           balance_side=seq.balance_side,
                           balance_degree=seq.balance_degree)
        if not simple_only or graph.is_simple():
            return graph
        attempt_seed += 1
    raise RuntimeError(f"no simple pairing found in {max_attempts} attempts")


def write_edge_list(graph: Multigraph, path) -> None:
    """Dump the realized graph: header "N T", then one "v u flag" per line."""
    with atomic_write(path) as fh:
        fh.write(f"{graph.n_offline} {graph.n_arrivals}\n")
        for v, u, flag in graph.edge_triples():
            fh.write(f"{v} {u} {flag}\n")
