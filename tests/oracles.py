"""Independent oracles for the test suite.

Everything here is deliberately naive and exact: recursive enumeration over
all half-edge pairings with rational weights, and brute-force matching
searches. These never call the library's simulators or solvers, so
agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

from fractions import Fraction


def exhaustive_greedy_expectation(deg_u, deg_v, capacities=None) -> Fraction:
    """Exact expectation of greedy's final matched count, enumerating every
    pairing sequence with its probability.

    At each pairing the arriving half-edge picks a live offline half-edge
    uniformly; greedy matches the arrival at the first endpoint with spare
    capacity and keeps pairing the rest.
    """
    rem = [int(d) for d in deg_u]
    caps = [1] * len(rem) if capacities is None else [int(c) for c in capacities]
    deg_v = [int(d) for d in deg_v]
    n_u = len(rem)

    def go(v_idx: int, h_idx: int, got: bool, matched: int) -> Fraction:
        if v_idx == len(deg_v):
            return Fraction(matched)
        if h_idx == deg_v[v_idx]:
            return go(v_idx + 1, 0, False, matched)
        live = sum(rem)
        if live == 0:
            return Fraction(matched)
        total = Fraction(0)
        for u in range(n_u):
            if rem[u] == 0:
                continue
            w = Fraction(rem[u], live)
            rem[u] -= 1
            if not got and caps[u] > 0:
                caps[u] -= 1
                total += w * go(v_idx, h_idx + 1, True, matched + 1)
                caps[u] += 1
            else:
                total += w * go(v_idx, h_idx + 1, got, matched)
            rem[u] += 1
        return total

    return go(0, 0, False, 0)


def pairing_distribution(deg_u, deg_v) -> dict:
    """Exact law of the realized multigraph under uniform pairing.

    Keys are canonical graphs: a tuple with one sorted endpoint tuple per
    arrival (order within an arrival does not change the graph). Values are
    exact probabilities.
    """
    rem = [int(d) for d in deg_u]
    deg_v = [int(d) for d in deg_v]
    n_u = len(rem)
    out: dict = {}

    def go(v_idx: int, h_idx: int, current: tuple, acc: tuple,
           prob: Fraction) -> None:
        if v_idx == len(deg_v):
            out[acc] = out.get(acc, Fraction(0)) + prob
            return
        live = sum(rem)
        if h_idx == deg_v[v_idx] or live == 0:
            go(v_idx + 1, 0, (), acc + (tuple(sorted(current)),), prob)
            return
        for u in range(n_u):
            if rem[u] == 0:
                continue
            w = Fraction(rem[u], live)
            rem[u] -= 1
            go(v_idx, h_idx + 1, current + (u,), acc, prob * w)
            rem[u] += 1

    go(0, 0, (), (), Fraction(1))
    return out


def partitions(total: int):
    """Nonincreasing positive integer partitions of total."""
    def rec(remaining: int, cap: int, acc: list):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(total, total, [])


def compositions(total: int):
    """Ordered positive integer compositions of total."""
    def rec(remaining: int, acc: list):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(1, remaining + 1):
            acc.append(part)
            yield from rec(remaining - part, acc)
            acc.pop()

    yield from rec(total, [])


def tiny_instances(max_total_degree: int = 8):
    """Every degree-sequence pair whose two sides together carry at most
    ``max_total_degree`` half-edge endpoints (offline side as a multiset,
    arrivals ordered)."""
    out = []
    for d in range(1, max_total_degree // 2 + 1):
        for pu in partitions(d):
            for pv in compositions(d):
                out.append((pu, pv))
    return out


def brute_force_max_b_matching(edges, n_u: int, n_v: int, capacities) -> int:
    """Exact optimum by recursion over arrivals: match each arrival to one
    spare-capacity neighbor or skip it."""
    caps = [int(c) for c in capacities]
    neighbors = [set() for _ in range(n_v)]
    for v, u in edges:
        neighbors[v].add(u)

    def go(v: int) -> int:
        if v == n_v:
            return 0
        best = go(v + 1)
        for u in neighbors[v]:
            if caps[u] > 0:
                caps[u] -= 1
                best = max(best, 1 + go(v + 1))
                caps[u] += 1
        return best

    return go(0)


def brute_force_max_matching(edges, n_u: int, n_v: int) -> int:
    return brute_force_max_b_matching(edges, n_u, n_v, [1] * n_u)


def exhaustive_lookahead_expectation(deg_u, deg_v, policy: str,
                                     capacities=None) -> Fraction:
    """Exact expectation of a lookahead baseline's final matched count,
    enumerating every pairing sequence with its probability.

    Each arrival pairs all its half-edges first. Among its distinct
    endpoints with spare capacity, ``"smallest"`` then matches one of
    minimal and ``"highest"`` one of maximal residual degree after those
    pairings, each tied endpoint with equal probability.
    """
    rem = [int(d) for d in deg_u]
    caps = [1] * len(rem) if capacities is None else [int(c) for c in capacities]
    deg_v = [int(d) for d in deg_v]
    n_u = len(rem)
    best_of = {"smallest": min, "highest": max}[policy]

    def decide(v_idx: int, ends: tuple, matched: int) -> Fraction:
        free = sorted({u for u in ends if caps[u] > 0})
        if not free:
            return go(v_idx + 1, 0, (), matched)
        best = best_of(rem[u] for u in free)
        ties = [u for u in free if rem[u] == best]
        total = Fraction(0)
        for u in ties:
            caps[u] -= 1
            total += go(v_idx + 1, 0, (), matched + 1)
            caps[u] += 1
        return total / len(ties)

    def go(v_idx: int, h_idx: int, ends: tuple, matched: int) -> Fraction:
        if v_idx == len(deg_v):
            return Fraction(matched)
        live = sum(rem)
        if h_idx == deg_v[v_idx] or live == 0:
            return decide(v_idx, ends, matched)
        total = Fraction(0)
        for u in range(n_u):
            if rem[u] == 0:
                continue
            w = Fraction(rem[u], live)
            rem[u] -= 1
            total += w * go(v_idx, h_idx + 1, ends + (u,), matched)
            rem[u] += 1
        return total

    return go(0, 0, (), 0)
