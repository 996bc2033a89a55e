"""Online matching policies over the streamed configuration model.

Each run owns two independent random streams derived from its seed: the
pairing stream draws the half-edge permutation that is the graph, the
decision stream the policy's preferences. So every policy acts on the
identical realized multigraph for a fixed (sequence, seed), which sharpens
paired comparisons. Every policy is greedy over an order of preference on
each arrival's endpoints that is fixed before the run, so one scan serves
them all: each arrival takes the first endpoint in its order with capacity
left. The run records only that choice; histograms and choice events are
derived from the record. The bulk Monte Carlo path
:func:`final_matched_counts` runs the same greedy over many pairing rows: in
lockstep across a block's rows, one numpy step per slot, from 64 rows on, and
by the scan row by row below; each block stays within ``_BLOCK_SLOTS`` cells.

Orders of preference (endpoints with equal keys go in uniform order):

* ``greedy``   - pairing order, the order the arrival's half-edges paired.
* ``ranking``  - a uniform permutation of the offline vertices, drawn once.
* ``smallest`` / ``highest`` - lookahead baselines: minimal / maximal
  residual degree after this arrival's pairings.
* ``biased_greedy`` - offline degrees at most 2: one coin per arrival puts
  pre-arrival residual 2 first with a fixed probability (default 2/3, which
  replicates ranking's choice law on 2-regular inputs), else residual 1.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._io import write_rows
from .degrees import _MAX_SUPPORT, _count, _real, _whole
from .stream import (DegreeSequencePair, Multigraph, build_full_graph,
                     decision_stream, pair_half_edges, pairing_stream)

GREEDY = "greedy"
RANKING = "ranking"
SMALLEST = "smallest"
HIGHEST = "highest"
BIASED_GREEDY = "biased_greedy"
POLICIES = (GREEDY, RANKING, SMALLEST, HIGHEST, BIASED_GREEDY)

# Cells per block of the bulk Monte Carlo path: bounds its memory while
# keeping each vectorized step long enough to amortize its overhead.
_BLOCK_SLOTS = 1 << 17
# Rows from which a block runs greedy in lockstep rather than row by row;
# below about 64 the scan wins on wide arrival slices (Poisson-4).
_LOCKSTEP_ROWS = 64


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
    def _denominator(self) -> int:
        """``capacity_total``, which the normalized readers divide by."""
        if not self.capacity_total:
            raise ValueError("the run has no offline capacity to normalize by")
        return self.capacity_total

    @property
    def checkpoints(self) -> tuple:
        """Histograms at the report steps, derived from the record."""
        return tuple(Checkpoint(step, *histograms_at(self, step))
                     for step in self.report_steps)


def _init_capacities(seq: DegreeSequencePair, capacities) -> list:
    """Capacity left per vertex; the balancing vertex, last, has none.
    ``capacities`` is None (all 1), one whole number for every vertex, or
    one per vertex; whole floats count, fractions and bools raise."""
    n = seq.n_offline
    if capacities is None:
        return [1] * n + [0]
    caps = _whole(capacities, "capacities", 1, _MAX_SUPPORT).astype(np.int64)
    if caps.ndim == 0:
        caps = np.full(n, caps)
    elif caps.shape != (n,):
        raise ValueError(f"capacity array has shape {caps.shape}, expected ({n},)")
    return caps.tolist() + [0]


def _greedy_scan(ends, off, caps: list) -> list:
    """Greedy over one pairing row: arrival v takes the first endpoint of
    ``ends[off[v]:off[v + 1]]`` with capacity left in ``caps``, which it
    uses up. Returns each arrival's choice, -1 for none."""
    # memoryviews yield ints as the scan goes and hold no list of them
    ends, off = memoryview(ends), memoryview(off)
    chosen = []
    for a, b in zip(off, off[1:]):
        for u in ends[a:b]:
            if caps[u] > 0:
                caps[u] -= 1
                chosen.append(u)
                break
        else:
            chosen.append(-1)
    return chosen


def run_policy(seq: DegreeSequencePair, capacities=None, policy: str = GREEDY,
               seed: int = 0, checkpoint_every: int | None = None,
               bias: float = 2.0 / 3.0) -> Trajectory:
    """Run one policy over the streamed graph and record its decisions.

    The greedy scan (:func:`_greedy_scan`) of the row in the policy's order
    of preference (:func:`_preference_order`), deterministic given
    (seq, seed). The run keeps only its graph and each arrival's choice
    (:class:`Trajectory`).
    ``checkpoint_every`` only picks the report steps of ``checkpoints``: 0,
    every ``checkpoint_every`` arrivals, and T (by default 0 and T).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    seed = _count(seed, "seed", 0)
    if checkpoint_every is not None:
        checkpoint_every = _count(checkpoint_every, "checkpoint_every", 1)
    bias = _real(bias, "bias", 0.0, 1.0)
    graph = build_full_graph(seq, seed)
    caps = _init_capacities(seq, capacities)
    initial_caps = np.array(caps[:seq.n_offline], dtype=np.int64)
    order = _preference_order(policy, graph, decision_stream(seed), bias)
    ends = graph.row if order is None else graph.row[order]
    chosen = np.array(_greedy_scan(ends, seq.arrival_offsets, caps), dtype=np.int64)
    n_arr = seq.n_arrivals
    every = checkpoint_every or max(1, n_arr)
    steps = sorted(set(range(0, n_arr + 1, every)) | {n_arr})
    matched_at = np.concatenate(([0], np.cumsum(chosen >= 0, dtype=np.int64)))
    return Trajectory(graph=graph, chosen=chosen, caps=initial_caps,
                      report_steps=tuple(steps), matched_at_step=matched_at,
                      policy=policy, seed=seed)


def _visits(seq: DegreeSequencePair, row: np.ndarray) -> tuple:
    """The paired slots of ``row`` grouped by vertex, in pairing order
    within a vertex: ``u = row[order]``, ``t`` each slot's arrival,
    ``first`` marks a vertex's first slot in an arrival's slice (a visit),
    ``pre`` its residual degree before that arrival paired its half-edges."""
    paired = int(seq.arrival_offsets[-1])
    pre = np.arange(paired)
    # unique keys sort several times faster than a stable sort of the ids
    order = np.argsort(row[:paired] * paired + pre)
    u, t = row[order], seq.slot_arrival[order]
    first = np.ones(paired, dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (t[1:] != t[:-1])
    # in place, like the keys below, to keep few slot-sized arrays alive
    np.maximum.accumulate(pre * first, out=pre)  # the visit's first slot
    pre -= np.searchsorted(u, u)
    np.subtract(np.bincount(row)[u], pre, out=pre)
    return order, u, t, pre, first


def _preference_order(policy: str, graph: Multigraph, rng_dec, bias: float):
    """Permutation of the paired slots of ``graph.row`` into the policy's
    order of preference within each arrival's slice; None keeps pairing
    order (greedy). Ties get one uniform rank per visit (see
    :func:`_visits`): a vertex paired twice by one arrival holds one ticket."""
    if policy == GREEDY:
        return None
    seq, row, n = graph.seq, graph.row, graph.n_offline
    paired = int(seq.arrival_offsets[-1])
    if policy == RANKING:
        ranks = list(range(n))
        rng_dec.shuffle(ranks)  # real vertices only; the balancing one is never free
        rank = np.array(ranks + [n])
        return np.argsort(seq.slot_arrival[:paired] * (n + 1) + rank[row[:paired]])

    order, u, t, pre, first = _visits(seq, row)
    # each vertex is free when first revealed, at its full degree
    if policy == BIASED_GREEDY and (pre[u < n] > 2).any():
        raise ValueError("biased_greedy needs free endpoints of residual degree 1 or 2")
    gen = np.random.default_rng(rng_dec.getrandbits(64))
    visit = np.cumsum(first) - 1
    del u, first
    if policy == BIASED_GREEDY:
        # one coin per arrival: residual-2 endpoints first with probability bias
        level = (pre == 2) ^ (gen.random(seq.n_arrivals) < bias)[t]
    else:
        pre -= np.bincount(visit)[visit]  # residual after the arrival
        level = pre if policy == SMALLEST else pre.max(initial=0) - pre
    # t becomes the sort key (arrival, level, tie)
    t *= int(level.max(initial=0)) + 1
    t += level
    del pre, level
    t *= paired
    t += gen.permutation(paired)[visit]
    return order[np.argsort(t)]


def _lockstep_greedy(rows: np.ndarray, off, caps: list) -> np.ndarray:
    """Final greedy counts of many pairing rows at once, which it overwrites:
    one numpy step per paired slot updates that slot's cell in every row's
    own copy of ``caps``, held as one flat int32 table. Each count is the
    capacity its row used up, the count :func:`_greedy_scan` gives the row."""
    width = len(caps)
    left = np.tile(np.array(caps, dtype=np.int32), len(rows))
    rows += width * np.arange(len(rows))[:, None]  # ids become cells of left
    cells = np.ascontiguousarray(rows.T)
    todo = np.empty(len(rows), dtype=bool)  # rows whose arrival is unmatched
    off = off.tolist()
    for a, b in zip(off, off[1:]):
        todo.fill(True)
        for cell in cells[a:b]:
            cur = left[cell]
            ok = cur > 0
            ok &= todo
            todo ^= ok
            left[cell] = cur - ok
    return sum(caps) - left.reshape(len(rows), width).sum(axis=1, dtype=np.int64)


def final_matched_counts(seq: DegreeSequencePair, capacities=None,
                         runs: int = 1, seed: int = 0) -> np.ndarray:
    """Final greedy matched counts over ``runs`` independent graphs.

    Bulk Monte Carlo path: blocks of rows of :func:`pair_half_edges`, each
    run in lockstep (:func:`_lockstep_greedy`) from ``_LOCKSTEP_ROWS`` rows
    on, else by the scan of :func:`run_policy` row by row. A block holds
    ``_BLOCK_SLOTS // max(pool, N + 1)`` rows, N counting the vertices of
    degree >= 1, so its rows and its capacity table fit in that many cells.
    With ``runs=1`` it draws the very pairing :func:`run_policy` draws, so
    the count equals ``run_policy(seq, capacities, "greedy", seed)``.
    """
    runs = _count(runs, "runs", 1)
    # no row names a degree-0 vertex; dropped, the rest keep the same pairing
    live = seq.deg_u > 0
    caps = np.array(_init_capacities(seq, capacities))[np.append(live, True)].tolist()
    seq = DegreeSequencePair.from_degrees(seq.deg_u[live], seq.deg_v)
    block = max(1, _BLOCK_SLOTS // max(seq.total_u_half_edges, len(caps)))
    off = seq.arrival_offsets
    rng = pairing_stream(seed)
    out = np.empty(runs, dtype=np.int64)
    for lo in range(0, runs, block):
        rows = pair_half_edges(seq, rng, min(block, runs - lo))[:, :off[-1]]
        if len(rows) >= _LOCKSTEP_ROWS:
            out[lo:lo + len(rows)] = _lockstep_greedy(rows, off, caps)
        else:
            for i, row in enumerate(rows, lo):
                chosen = _greedy_scan(row, off, caps.copy())
                out[i] = len(chosen) - chosen.count(-1)
    return out


def matched_fraction_at(traj: Trajectory, s: float) -> float:
    """Matching size after a proportion s of arrivals, normalized by the
    total capacity of the offline side."""
    idx = min(int(np.floor(_real(s, "s", 0.0, 1.0) * traj.n_arrivals)),
              traj.n_arrivals)
    return float(traj.matched_at_step[idx]) / traj._denominator


def histograms_at(traj: Trajectory, step: int) -> tuple:
    """Histograms (free, saturated, free-by-capacity) after ``step``
    arrivals, for any step in 0..T, derived from the run's record.

    ``free`` maps residual degree to the count of real offline vertices
    with spare capacity, ``saturated`` likewise for exhausted vertices, and
    ``free_by_capacity`` maps (residual degree, capacity left) pairs. A
    whole ``step`` in int64 but outside 0..T raises KeyError, any other
    ValueError naming 0..T.
    """
    try:
        step = _count(step, "step", -2**63)
    except ValueError:
        raise ValueError(f"step must be an integer in 0..{traj.n_arrivals}, "
                         f"got {step!r}") from None
    if step not in range(traj.n_arrivals + 1):
        raise KeyError(f"step {step} lies outside 0..{traj.n_arrivals}")
    n, seq, row = traj.n_offline, traj.graph.seq, traj.graph.row
    paired = row[:seq.arrival_offsets[step]]
    rem = seq.deg_u - np.bincount(paired, minlength=n + 1)[:n]
    picks = traj.chosen[:step]
    left = traj.caps - np.bincount(picks[picks >= 0], minlength=n)
    spare = left > 0
    free_rem = rem[spare]
    width = int(traj.caps.max(initial=0)) + 1  # (degree, left) pairs as one key
    by_cap = _tally(free_rem * width + left[spare])
    return (_tally(free_rem), _tally(rem[~spare]),
            {divmod(key, width): count for key, count in by_cap.items()})


def _tally(values: np.ndarray) -> dict:
    """Map each distinct value to the number of times it occurs."""
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def choice_events(traj: Trajectory) -> tuple:
    """Count (events, degree2_wins) from the run's record.

    An event is an arrival offered exactly two distinct free endpoints
    whose residual degrees before this arrival paired its half-edges are 1
    and 2; a win is an event where the degree-2 endpoint was chosen.
    """
    _, u, t, pre, first = _visits(traj.graph.seq, traj.graph.row)
    # a vertex's first slot in an arrival's slice stands for it in that
    # decision, which saw it free unless earlier picks used up its capacity
    picked = first & (traj.chosen[t] == u)
    picks_before = np.cumsum(picked) - picked
    used = picks_before - picks_before[np.searchsorted(u, u)]  # u's earlier picks
    live = first & (used < np.append(traj.caps, 0)[u])
    t, u, pre = t[live], u[live], pre[live]
    offered = np.bincount(t, minlength=traj.n_arrivals)
    pre_sum = np.bincount(t, weights=pre, minlength=traj.n_arrivals)
    # residual degrees are at least 1, so two adding up to 3 are {1, 2}
    event = (offered == 2) & (pre_sum == 3)
    wins = event[t] & (pre == 2) & (traj.chosen[t] == u)
    return int(event.sum()), int(wins.sum())


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the per-step matching size, one ``step,matched`` row per step."""
    matched = traj.matched_at_step
    write_rows(path, "step,matched\n", "%d,%d\n", np.arange(len(matched)), matched)
