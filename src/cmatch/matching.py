"""Online matching policies over the streamed configuration model.

Each run owns two independent random streams derived from its seed: the
pairing stream draws the half-edge permutation that is the graph, the
decision stream breaks policy ties. Policies therefore act on the identical
realized multigraph for a fixed (sequence, seed), which sharpens paired
comparisons. A run reads its permutation one arrival slice at a time and
records only the endpoint each arrival chose; histograms and choice events
are derived from that record. The bulk Monte Carlo path
:func:`final_matched_counts` runs greedy over many permutations at once.

Policies:

* ``greedy``   - match the arrival to the first revealed endpoint with spare
  capacity (half-edge order, the order pairing produced them).
* ``ranking``  - fix a uniform permutation of offline vertices up front;
  match to the free revealed endpoint of minimal rank.
* ``smallest`` / ``highest`` - lookahead baselines: free endpoint with the
  minimal / maximal residual degree after this arrival's pairings, ties
  broken uniformly from the decision stream.
* ``biased_greedy`` - for arrivals whose free endpoints have pre-arrival
  residual degree in {1, 2} only: prefer the degree-2 endpoint with a fixed
  probability (default 2/3, the bias that replicates ranking's choice law
  on 2-regular inputs).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .stream import (DegreeSequencePair, Multigraph, build_full_graph,
                     decision_stream, pair_half_edges, pairing_stream)

GREEDY = "greedy"
RANKING = "ranking"
SMALLEST = "smallest"
HIGHEST = "highest"
BIASED_GREEDY = "biased_greedy"
POLICIES = (GREEDY, RANKING, SMALLEST, HIGHEST, BIASED_GREEDY)

# Half-edge slots per block of the bulk Monte Carlo path: bounds its memory
# while keeping each vectorized step long enough to amortize its overhead.
_BLOCK_SLOTS = 1 << 16


# The histograms of :func:`histograms_at` after ``step`` arrivals.
Checkpoint = namedtuple("Checkpoint", "step free saturated free_by_capacity")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Record of one policy run: the graph it read and its decisions.

    ``graph`` is ``build_full_graph(seq, seed)``, ``chosen[t]`` the offline
    vertex arrival t was matched to (-1 for none) and ``caps`` the initial
    capacities of the real offline vertices.
    The rest is derived: ``matched_at_step[k]`` is the matching size after k
    arrivals, ``checkpoints`` the histograms at ``report_steps``, and
    :func:`histograms_at` and :func:`choice_events` read the record.
    ``capacity_total``, the normalization denominator, is the sum of the
    real capacities (N, C*N or N*E[c]).
    """

    graph: Multigraph
    chosen: np.ndarray
    caps: np.ndarray
    report_steps: tuple
    matched_at_step: np.ndarray
    policy: str
    seed: int

    @property
    def n_offline(self) -> int:
        return self.graph.n_offline

    @property
    def n_arrivals(self) -> int:
        return self.graph.n_arrivals

    @property
    def capacity_total(self) -> int:
        return int(self.caps.sum())

    @property
    def final_matched(self) -> int:
        return int(self.matched_at_step[-1])

    @property
    def checkpoints(self) -> tuple:
        """Histograms at the report steps, derived from the record."""
        return tuple(Checkpoint(step, *histograms_at(self, step))
                     for step in self.report_steps)


def _init_capacities(seq: DegreeSequencePair, capacities) -> list:
    """Capacity left per vertex; the balancing vertex, last, has none."""
    n = seq.n_offline
    if capacities is None:
        caps = [1] * n
    elif isinstance(capacities, (int, np.integer)):
        if capacities < 1:
            raise ValueError("uniform capacity must be >= 1")
        caps = [int(capacities)] * n
    else:
        arr = np.asarray(capacities, dtype=np.int64)
        if arr.shape != (n,):
            raise ValueError(f"capacity array has shape {arr.shape}, expected ({n},)")
        if (arr < 1).any():
            raise ValueError("capacities must all be >= 1")
        caps = arr.tolist()
    caps.append(0)
    return caps


def run_policy(seq: DegreeSequencePair, capacities=None, policy: str = GREEDY,
               seed: int = 0, checkpoint_every: int | None = None,
               bias: float = 2.0 / 3.0) -> Trajectory:
    """Run one policy over the streamed graph and record its decisions.

    Deterministic given (seq, seed). The run keeps only its graph and the
    endpoint each arrival chose (see :class:`Trajectory`).
    ``checkpoint_every`` only picks the report steps of ``checkpoints``: 0,
    every ``checkpoint_every`` arrivals, and T (by default 0 and T).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    graph = build_full_graph(seq, seed)
    rng_dec = decision_stream(seed)
    caps = _init_capacities(seq, capacities)
    initial_caps = np.array(caps[:seq.n_offline], dtype=np.int64)

    ranks = None
    if policy == RANKING:
        ranks = list(range(seq.n_offline))
        rng_dec.shuffle(ranks)  # real vertices only; the balancing one is never free

    # residual degree per offline vertex (balancing vertex last), kept only
    # by the policies that read it
    rem = (np.bincount(graph.row, minlength=seq.n_offline + 1).tolist()
           if policy in (SMALLEST, HIGHEST, BIASED_GREEDY) else None)
    ends = graph.row.tolist()
    off = memoryview(seq.arrival_offsets)  # yields ints, holds no list of them
    chosen = []
    for a, b in zip(off, off[1:]):
        endpoints = ends[a:b]
        if rem is not None:
            for u in endpoints:
                rem[u] -= 1
        pick = _decide(policy, endpoints, caps, rem, ranks, rng_dec, bias)
        if pick >= 0:
            caps[pick] -= 1
        chosen.append(pick)

    chosen = np.array(chosen, dtype=np.int64)
    n_arr = seq.n_arrivals
    every = checkpoint_every or max(1, n_arr)
    steps = sorted(set(range(0, n_arr + 1, every)) | {n_arr})
    matched_at = np.concatenate(([0], np.cumsum(chosen >= 0, dtype=np.int64)))
    return Trajectory(graph=graph, chosen=chosen, caps=initial_caps,
                      report_steps=tuple(steps), matched_at_step=matched_at,
                      policy=policy, seed=seed)


def _decide(policy: str, endpoints: list, caps: list, rem: list,
            ranks, rng_dec, bias: float) -> int:
    """Pick the matched endpoint for one arrival, or -1 if none is free."""
    if policy == GREEDY:
        for u in endpoints:
            if caps[u] > 0:
                return u
        return -1

    free = [u for u in dict.fromkeys(endpoints) if caps[u] > 0]
    if not free:
        return -1

    if policy == RANKING:
        return min(free, key=ranks.__getitem__)

    if policy in (SMALLEST, HIGHEST):
        vals = [rem[u] for u in free]
        best = min(vals) if policy == SMALLEST else max(vals)
        ties = [u for u, v in zip(free, vals) if v == best]
    else:
        # biased greedy, defined for residual degrees {1, 2} only; residuals
        # are taken before this arrival paired its half-edges
        pre = {u: rem[u] + endpoints.count(u) for u in free}
        deg1 = [u for u in free if pre[u] == 1]
        deg2 = [u for u in free if pre[u] == 2]
        if len(deg1) + len(deg2) != len(free):
            raise ValueError("biased_greedy needs free endpoints of residual degree 1 or 2")
        if deg1 and deg2:
            ties = deg2 if rng_dec.random() < bias else deg1
        else:
            ties = deg2 or deg1
    # uniform among the ties; a lone candidate draws nothing
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng_dec.random() * len(ties))]


def final_matched_counts(seq: DegreeSequencePair, capacities=None,
                         runs: int = 1, seed: int = 0) -> np.ndarray:
    """Final greedy matched counts over ``runs`` independent graphs.

    Bulk Monte Carlo path: greedy runs in lockstep over blocks of rows of
    :func:`pair_half_edges`, one vectorized step per arrival. With
    ``runs=1`` it draws the very pairing :func:`run_policy` draws, so the
    count equals ``run_policy(seq, capacities, "greedy", seed)``.
    """
    base_caps = np.array(_init_capacities(seq, capacities), dtype=np.int64)
    width = base_caps.size
    block = max(1, _BLOCK_SLOTS // max(1, seq.total_u_half_edges))
    off = seq.arrival_offsets.tolist()
    arrivals = [(a, b) for a, b in zip(off, off[1:]) if b > a]
    rng = pairing_stream(seed)
    out = np.empty(runs, dtype=np.int64)
    for lo in range(0, runs, block):
        rows = min(block, runs - lo)
        # each row indexes its own copy of the capacities in one flat array
        cells = pair_half_edges(seq, rng, rows) + (np.arange(rows) * width)[:, None]
        caps = np.tile(base_caps, rows)
        matched = np.zeros(rows, dtype=np.int64)
        for a, b in arrivals:
            ends = cells[:, a:b]
            free = caps[ends] > 0
            hit = free.any(axis=1)
            # greedy takes the first free endpoint in pairing order
            caps[ends[hit, free[hit].argmax(axis=1)]] -= 1
            matched += hit
        out[lo:lo + rows] = matched
    return out


def matched_fraction_at(traj: Trajectory, s: float) -> float:
    """Matching size after a proportion s of arrivals, normalized by the
    total capacity of the offline side."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    idx = min(int(np.floor(s * traj.n_arrivals)), traj.n_arrivals)
    return float(traj.matched_at_step[idx]) / traj.capacity_total


def histograms_at(traj: Trajectory, step: int) -> tuple:
    """Histograms (free, saturated, free-by-capacity) after ``step``
    arrivals, for any step in 0..T, derived from the run's record.

    ``free`` maps residual degree to the count of real offline vertices
    with spare capacity, ``saturated`` likewise for exhausted vertices, and
    ``free_by_capacity`` maps (residual degree, capacity left) pairs.
    """
    if step not in range(traj.n_arrivals + 1):
        raise KeyError(f"step {step} lies outside 0..{traj.n_arrivals}")
    n, seq, row = traj.n_offline, traj.graph.seq, traj.graph.row
    paired = row[:seq.arrival_offsets[step]]
    rem = seq.deg_u - np.bincount(paired, minlength=n + 1)[:n]
    picks = traj.chosen[:step]
    left = traj.caps - np.bincount(picks[picks >= 0], minlength=n)
    spare = left > 0
    free_rem = rem[spare].tolist()
    return (dict(Counter(free_rem)), dict(Counter(rem[~spare].tolist())),
            dict(Counter(zip(free_rem, left[spare].tolist()))))


def choice_events(traj: Trajectory) -> tuple:
    """Count (events, degree2_wins) from the run's record.

    An event is an arrival offered exactly two distinct free endpoints
    whose residual degrees before this arrival paired its half-edges are 1
    and 2; a win is an event where the degree-2 endpoint was chosen.
    """
    seq, row = traj.graph.seq, traj.graph.row
    paired = seq.arrival_offsets[-1]
    # paired half-edges grouped by vertex, in pairing order within a vertex
    order = np.argsort(row[:paired], kind="stable")
    u, t = row[order], seq.slot_arrival[order]
    start = np.searchsorted(u, u)
    earlier = np.arange(u.size) - start  # the vertex's half-edges paired before
    # a vertex's first half-edge in an arrival's slice stands for it in that
    # decision, which saw it free unless earlier picks used up its capacity
    first = earlier == 0
    first[1:] |= t[1:] != t[:-1]
    picked = first & (traj.chosen[t] == u)
    picks_before = np.cumsum(picked) - picked
    live = first & (picks_before - picks_before[start] < np.append(traj.caps, 0)[u])
    t, u = t[live], u[live]
    pre = seq.deg_u[u] - earlier[live]  # residual degree before the arrival
    offered = np.bincount(t, minlength=traj.n_arrivals)
    pre_sum = np.bincount(t, weights=pre, minlength=traj.n_arrivals)
    # residual degrees are at least 1, so two adding up to 3 are {1, 2}
    event = (offered == 2) & (pre_sum == 3)
    wins = event[t] & (pre == 2) & (traj.chosen[t] == u)
    return int(event.sum()), int(wins.sum())


def write_trajectory_csv(traj: Trajectory, path, hist_path=None) -> None:
    """Write the per-step matching size; optionally a histogram sidecar with
    one row per (checkpoint, kind, degree, capacity) cell."""
    with atomic_write(path) as fh:
        fh.write("step,matched\n")
        for k, m in enumerate(traj.matched_at_step):
            fh.write(f"{k},{m}\n")
    if hist_path is None:
        return
    with atomic_write(hist_path) as fh:
        fh.write("step,kind,degree,capacity,count\n")
        for cp in traj.checkpoints:
            for kind, hist in (("free", cp.free), ("saturated", cp.saturated)):
                for d in sorted(hist):
                    fh.write(f"{cp.step},{kind},{d},,{hist[d]}\n")
            for (d, c) in sorted(cp.free_by_capacity):
                fh.write(f"{cp.step},free_by_capacity,{d},{c},{cp.free_by_capacity[(d, c)]}\n")
