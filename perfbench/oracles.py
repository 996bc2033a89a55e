"""Exact reference values computed without calling the program.

Exhaustive enumeration of half-edge pairings with rational weights gives
the exact law of greedy's matched count on tiny instances; brute-force
search gives exact (b-)matching optima on tiny graphs.
"""

from __future__ import annotations

from fractions import Fraction


def greedy_matched_law(deg_u, deg_v) -> dict:
    """Exact law {matched count: probability} of greedy on the configuration
    model with these degree sequences.

    Arrivals pair their half-edges in order, each with a live offline
    half-edge chosen uniformly; greedy matches an arrival at its first
    endpoint that is still unmatched. When the offline side is short of
    half-edges a balancing vertex carrying the deficit joins the pool and
    can never be matched; when the arrivals are short, the leftover offline
    half-edges stay unpaired.
    """
    rem = [int(d) for d in deg_u]
    deficit = sum(int(d) for d in deg_v) - sum(rem)
    free = [True] * len(rem)
    if deficit > 0:
        rem.append(deficit)
        free.append(False)
    arrivals = [int(d) for d in deg_v]
    law: dict = {}

    def go(v, h, got, matched, prob):
        if v == len(arrivals):
            law[matched] = law.get(matched, Fraction(0)) + prob
            return
        if h == arrivals[v]:
            go(v + 1, 0, False, matched, prob)
            return
        live = sum(rem)
        for u, r in enumerate(rem):
            if r == 0:
                continue
            rem[u] -= 1
            p = prob * Fraction(r, live)
            if not got and free[u]:
                free[u] = False
                go(v, h + 1, True, matched + 1, p)
                free[u] = True
            else:
                go(v, h + 1, got, matched, p)
            rem[u] += 1

    go(0, 0, False, 0, Fraction(1))
    return law


def law_mean_variance(law: dict) -> tuple:
    mean = sum(k * p for k, p in law.items())
    second = sum(k * k * p for k, p in law.items())
    return mean, second - mean * mean


def brute_force_b_matching(edges, n_arrivals: int, capacities) -> int:
    """Largest number of arrivals that can each be matched to a distinct
    neighbour use, offline vertex u taking at most capacities[u] arrivals."""
    caps = [int(c) for c in capacities]
    neighbours = [sorted({u for v, u in edges if v == a}) for a in range(n_arrivals)]

    def go(a):
        if a == n_arrivals:
            return 0
        best = go(a + 1)
        for u in neighbours[a]:
            if caps[u] > 0:
                caps[u] -= 1
                best = max(best, 1 + go(a + 1))
                caps[u] += 1
        return best

    return go(0)
