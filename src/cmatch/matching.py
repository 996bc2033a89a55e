"""Online matching policies over the streamed configuration model.

Each run owns two independent random streams derived from its seed: the
pairing stream draws the half-edge permutation that is the graph, the
decision stream breaks policy ties. Policies therefore act on the identical
realized multigraph for a fixed (sequence, seed), which sharpens paired
comparisons. A run reads its permutation one arrival slice at a time; the
bulk Monte Carlo path :func:`final_matched_counts` runs greedy over many
permutations at once, vectorized across runs.

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

from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .stream import (DegreeSequencePair, decision_stream, half_edge_slots,
                     pair_half_edges, pairing_stream)

GREEDY = "greedy"
RANKING = "ranking"
SMALLEST = "smallest"
HIGHEST = "highest"
BIASED_GREEDY = "biased_greedy"
POLICIES = (GREEDY, RANKING, SMALLEST, HIGHEST, BIASED_GREEDY)

# Half-edge slots per block of the bulk Monte Carlo path: bounds its memory
# while keeping each vectorized step long enough to amortize its overhead.
_BLOCK_SLOTS = 1 << 16


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """State snapshot after ``step`` arrivals (real offline vertices only).

    ``free`` maps residual degree to the count of vertices with spare
    capacity, ``saturated`` likewise for exhausted vertices, and
    ``free_by_capacity`` maps (residual degree, capacity left) pairs.
    """

    step: int
    free: dict
    saturated: dict
    free_by_capacity: dict


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Full record of one policy run.

    ``matched_at_step[k]`` is the matching size after k arrivals;
    ``capacity_total`` is the normalization denominator (sum of real
    capacities: N without capacities, C*N with a uniform capacity, and
    N*E[c] under a capacity profile).
    """

    matched_at_step: np.ndarray
    checkpoints: tuple
    policy: str
    seed: int
    n_offline: int
    n_arrivals: int
    capacity_total: int
    choice_events: tuple | None = None

    @property
    def final_matched(self) -> int:
        return int(self.matched_at_step[-1])


def _init_capacities(seq: DegreeSequencePair, capacities) -> list:
    """Capacity-left array of length N+1; the balancing slot is never
    matchable."""
    n = seq.n_offline
    if capacities is None:
        caps = [1] * n
    elif isinstance(capacities, (int, np.integer)):
        if capacities < 1:
            raise ValueError("uniform capacity must be >= 1")
        caps = [int(capacities)] * n
    else:
        caps = [int(c) for c in capacities]
        if len(caps) != n:
            raise ValueError(f"capacity array has length {len(caps)}, expected {n}")
        if any(c < 1 for c in caps):
            raise ValueError("capacities must all be >= 1")
    caps.append(0)
    return caps


def capacities_from_profile(fractions, n: int) -> np.ndarray:
    """Capacity array realizing a profile: fractions[i] of the n vertices get
    capacity i+1, apportioned by cumulative rounding."""
    fractions = np.asarray(fractions, dtype=float)
    if np.any(fractions < 0) or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("profile fractions must be nonnegative and sum to 1")
    bounds = np.floor(np.cumsum(fractions) * n + 0.5).astype(np.int64)
    caps = np.empty(n, dtype=np.int64)
    lo = 0
    for c, hi in enumerate(bounds, start=1):
        caps[lo:hi] = c
        lo = hi
    caps[lo:] = len(fractions)
    return caps


def _snapshot(rem: list, caps: list, step: int) -> Checkpoint:
    """Histograms of the real offline vertices; ``rem`` and ``caps`` carry
    the balancing vertex as their last entry, which is skipped."""
    free: dict = {}
    saturated: dict = {}
    by_cap: dict = {}
    for d, c in zip(rem[:-1], caps):
        if c > 0:
            free[d] = free.get(d, 0) + 1
            key = (d, c)
            by_cap[key] = by_cap.get(key, 0) + 1
        else:
            saturated[d] = saturated.get(d, 0) + 1
    return Checkpoint(step=step, free=free, saturated=saturated,
                      free_by_capacity=by_cap)


def _pre_arrival_residuals(endpoints: list, rem: list) -> dict:
    """Residual degree of each distinct endpoint before this arrival paired
    its half-edges."""
    mult: dict = {}
    for u in endpoints:
        mult[u] = mult.get(u, 0) + 1
    return {u: rem[u] + k for u, k in mult.items()}


def run_policy(seq: DegreeSequencePair, capacities=None, policy: str = GREEDY,
               seed: int = 0, checkpoint_every: int | None = None,
               record_choice_events: bool = False,
               bias: float = 2.0 / 3.0) -> Trajectory:
    """Run one policy over the streamed graph and record its trajectory.

    Deterministic given (seq, seed). Histogram snapshots are taken at steps
    0 and T, plus every ``checkpoint_every`` arrivals when it is given. With
    ``record_choice_events`` the run counts decisions offered exactly one
    free endpoint of pre-arrival residual degree 1 and one of degree 2, and
    how often the degree-2 endpoint won.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    row = pair_half_edges(seq, pairing_stream(seed))[0].tolist()
    rng_dec = decision_stream(seed)
    caps = _init_capacities(seq, capacities)
    capacity_total = sum(caps[: seq.n_offline])
    n_arr = seq.n_arrivals

    ranks = None
    if policy == RANKING:
        ranks = list(range(seq.n_offline))
        rng_dec.shuffle(ranks)
        ranks.append(seq.n_offline)  # balancing slot, never free anyway

    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    every = checkpoint_every or max(1, n_arr)

    # remaining degree per offline vertex, balancing vertex last
    rem = np.bincount(half_edge_slots(seq), minlength=seq.n_offline + 1).tolist()
    matched_at = np.zeros(n_arr + 1, dtype=np.int64)
    checkpoints = [_snapshot(rem, caps, 0)]
    events = [0, 0] if record_choice_events else None
    matched = 0
    off = 0

    for t, dv in enumerate(seq.deg_v.tolist(), start=1):
        endpoints = row[off:off + dv]
        off += dv
        for u in endpoints:
            rem[u] -= 1
        chosen = _decide(policy, endpoints, caps, rem, ranks, rng_dec, bias)
        if events is not None:
            _record_event(events, endpoints, caps, rem, chosen)
        if chosen >= 0:
            caps[chosen] -= 1
            matched += 1
        matched_at[t] = matched
        if t % every == 0 or t == n_arr:
            checkpoints.append(_snapshot(rem, caps, t))

    return Trajectory(matched_at_step=matched_at, checkpoints=tuple(checkpoints),
                      policy=policy, seed=seed, n_offline=seq.n_offline,
                      n_arrivals=n_arr, capacity_total=capacity_total,
                      choice_events=tuple(events) if events is not None else None)


def _decide(policy: str, endpoints: list, caps: list, rem: list,
            ranks, rng_dec, bias: float) -> int:
    """Pick the matched endpoint for one arrival, or -1 if none is free."""
    if policy == GREEDY:
        for u in endpoints:
            if caps[u] > 0:
                return u
        return -1

    free = []
    seen = set()
    for u in endpoints:
        if caps[u] > 0 and u not in seen:
            seen.add(u)
            free.append(u)
    if not free:
        return -1

    if policy == RANKING:
        return min(free, key=ranks.__getitem__)

    if policy in (SMALLEST, HIGHEST):
        vals = [rem[u] for u in free]
        best = min(vals) if policy == SMALLEST else max(vals)
        ties = [u for u, v in zip(free, vals) if v == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(rng_dec.random() * len(ties))]

    # biased greedy, defined for residual degrees {1, 2} only
    pre = _pre_arrival_residuals(endpoints, rem)
    deg1 = [u for u in free if pre[u] == 1]
    deg2 = [u for u in free if pre[u] == 2]
    if len(deg1) + len(deg2) != len(free):
        raise ValueError("biased_greedy needs free endpoints of residual degree 1 or 2")
    if deg1 and deg2:
        side = deg2 if rng_dec.random() < bias else deg1
    else:
        side = deg2 or deg1
    if len(side) == 1:
        return side[0]
    return side[int(rng_dec.random() * len(side))]


def _record_event(events: list, endpoints: list, caps: list, rem: list,
                  chosen: int) -> None:
    """Count {degree-1, degree-2} choice events and degree-2 wins.

    Called before the chosen endpoint's capacity is decremented, so the
    free set reflects the state the decision saw.
    """
    pre = _pre_arrival_residuals(endpoints, rem)
    free = [u for u in pre if caps[u] > 0]
    if len(free) != 2:
        return
    a, b = free
    da, db = pre[a], pre[b]
    if {da, db} != {1, 2}:
        return
    events[0] += 1
    deg2 = a if da == 2 else b
    if chosen == deg2:
        events[1] += 1


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
    stops = np.cumsum(seq.deg_v).tolist()
    arrivals = [(stop - dv, stop) for stop, dv in zip(stops, seq.deg_v.tolist()) if dv]
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
    """Snapshot (free, saturated, free-by-capacity) recorded at ``step``."""
    for cp in traj.checkpoints:
        if cp.step == step:
            return cp.free, cp.saturated, cp.free_by_capacity
    raise KeyError(f"no checkpoint recorded at step {step}")


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
            for d in sorted(cp.free):
                fh.write(f"{cp.step},free,{d},,{cp.free[d]}\n")
            for d in sorted(cp.saturated):
                fh.write(f"{cp.step},saturated,{d},,{cp.saturated[d]}\n")
            for (d, c) in sorted(cp.free_by_capacity):
                fh.write(f"{cp.step},free_by_capacity,{d},{c},{cp.free_by_capacity[(d, c)]}\n")
