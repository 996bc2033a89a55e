"""Finitely supported degree distributions and their generating series.

Every other stage of the pipeline consumes degree laws through this module:
probability mass with cached moments, the generating series
``phi(s) = sum_k p_k s^k`` and its derivatives, the match-intensity ratio
``h(q) = (1 - phi(q)) / (1 - q)``, and inverse-CDF sampling.

Instances are immutable after construction and safe to share across
concurrent readers; random streams are never stored on the distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Normalization slack accepted on explicit probability input.
_INPUT_TOL = 1e-9
# Slack around [0, 1] accepted on evaluation points before rejecting.
_DOMAIN_TOL = 1e-12
# Above 1 - _H_BAND the ratio form of h(q) is a 0/0 trap; switch to the
# exact tail polynomial, which removes the singularity with no tolerance.
_H_BAND = 1e-7
# Largest Poisson support built; far past any mean a simulation can use.
_POISSON_MAX_SUPPORT = 1_000_000


def _unit(x: float) -> float:
    """Validate a scalar evaluation point, clamping float dust at the edges."""
    x = float(x)
    if x < -_DOMAIN_TOL or x > 1.0 + _DOMAIN_TOL:
        raise ValueError(f"evaluation point {x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def _unit_array(x: np.ndarray) -> np.ndarray:
    if np.any(x < -_DOMAIN_TOL) or np.any(x > 1.0 + _DOMAIN_TOL):
        raise ValueError("evaluation points outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DegreePMF:
    """Degree law with finite support ``0..k_max``.

    ``probs[k]`` is the probability of degree ``k``; the array always sums
    to 1 within 1e-12 (truncated tails are renormalized on construction).
    Build instances through :func:`regular`, :func:`poisson`,
    :func:`explicit` or :func:`from_spec`, not directly.
    """

    probs: np.ndarray
    mean: float
    variance: float
    label: str
    # Tail sums P(X > j), j = 0..k_max-1: coefficients of the exact
    # polynomial form of h(q), whose value at 1 is the mean.
    _tail: tuple = field(repr=False)
    _cdf: np.ndarray = field(repr=False)
    _deriv_cache: dict = field(default_factory=dict, repr=False)

    @property
    def k_max(self) -> int:
        return len(self.probs) - 1

    # -- generating series -------------------------------------------------

    def pgf(self, s):
        """Generating series ``sum_k p_k s^k`` for scalar or array s in [0, 1]."""
        if isinstance(s, np.ndarray):
            return np.polynomial.polynomial.polyval(_unit_array(s), self.probs)
        s = _unit(s)
        acc = 0.0
        for p in self._rev_probs():
            acc = acc * s + p
        return acc

    def pgf_deriv(self, s, order: int = 1):
        """Order-th derivative of the generating series at s.

        Orders above ``k_max`` are identically zero.
        """
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        if order > self.k_max:
            return np.zeros_like(s, dtype=float) if isinstance(s, np.ndarray) else 0.0
        if isinstance(s, np.ndarray):
            return np.polynomial.polynomial.polyval(_unit_array(s), self._deriv_coeffs(order))
        s = _unit(s)
        acc = 0.0
        for c in self._deriv_rev(order):
            acc = acc * s + c
        return acc

    def h_ratio(self, q: float) -> float:
        """Match-intensity ratio ``(1 - phi(q)) / (1 - q)``.

        Near q = 1 the ratio form degenerates to 0/0; there the exact
        polynomial ``sum_j P(X > j) q^j`` is used instead, so h is finite
        on all of [0, 1] and ``h(1)`` equals the mean exactly.
        """
        q = _unit(q)
        if q == 1.0:
            return self.mean
        if q > 1.0 - _H_BAND:
            acc = 0.0
            for t in self._rev_tail():
                acc = acc * q + t
            return acc
        return (1.0 - self.pgf(q)) / (1.0 - q)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw degrees by inverse CDF over the finite support."""
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        idx = np.minimum(idx, self.k_max)
        return int(idx) if size is None else idx.astype(np.int64)

    # -- cached coefficient views (plain tuples: fast scalar Horner) --------

    def _rev_probs(self) -> tuple:
        cached = self._deriv_cache.get("rev0")
        if cached is None:
            cached = tuple(float(p) for p in self.probs[::-1])
            self._deriv_cache["rev0"] = cached
        return cached

    def _rev_tail(self) -> tuple:
        return self._tail[::-1]

    def _deriv_coeffs(self, order: int) -> np.ndarray:
        coeffs = self._deriv_cache.get(order)
        if coeffs is None:
            coeffs = self.probs.astype(float)
            for _ in range(order):
                coeffs = coeffs[1:] * np.arange(1, len(coeffs))
            coeffs = coeffs.copy()
            coeffs.setflags(write=False)
            self._deriv_cache[order] = coeffs
        return coeffs

    def _deriv_rev(self, order: int) -> tuple:
        key = ("rev", order)
        cached = self._deriv_cache.get(key)
        if cached is None:
            cached = tuple(float(c) for c in self._deriv_coeffs(order)[::-1])
            self._deriv_cache[key] = cached
        return cached


def _build(probs: np.ndarray, label: str) -> DegreePMF:
    """Normalize, trim trailing zero mass and cache moments and tails."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or len(probs) == 0:
        raise ValueError("probability array must be a nonempty vector")
    if np.any(probs < 0):
        raise ValueError("negative probability mass")
    total = probs.sum()
    if abs(total - 1.0) > _INPUT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {_INPUT_TOL}")
    probs = probs / total
    last = np.nonzero(probs)[0]
    k_hi = int(last[-1]) if len(last) else 0
    probs = probs[: k_hi + 1].copy()
    ks = np.arange(len(probs))
    mean = float(np.dot(ks, probs))
    variance = float(np.dot(ks * ks, probs) - mean * mean)
    tail = tuple(float(t) for t in (1.0 - np.cumsum(probs))[:-1]) if len(probs) > 1 else ()
    cdf = np.cumsum(probs)
    probs.setflags(write=False)
    return DegreePMF(probs=probs, mean=mean, variance=max(variance, 0.0),
                     label=label, _tail=tail, _cdf=cdf)


def regular(d: int) -> DegreePMF:
    """Point mass at degree d (d-regular side)."""
    if d < 1:
        raise ValueError("regular degree must be >= 1")
    probs = np.zeros(d + 1)
    probs[d] = 1.0
    return _build(probs, f"regular-{d}")


def poisson(c: float, tail_eps: float = 1e-12) -> DegreePMF:
    """Poisson(c) truncated at the smallest k_max with tail mass below
    ``tail_eps``, then renormalized.

    Terms are built in log space, ``k log c - c - lgamma(k + 1)``, so
    ``exp(-c)`` never underflows for large c, and tail masses are summed
    from the top down, so the cut never rests on a difference ``1 - cdf``.
    """
    if c <= 0:
        raise ValueError("poisson parameter must be positive")
    if not 0 < tail_eps <= 1e-6:
        raise ValueError("tail_eps must lie in (0, 1e-6]")
    # 40 standard deviations (plus 100) past the mean: the mass beyond is
    # below 1e-60, so the top-down tail sums are exact to rounding.
    k_hi = int(c + 40.0 * math.sqrt(c) + 100.0)
    if k_hi > _POISSON_MAX_SUPPORT:
        raise ValueError(f"poisson parameter {c!r} too large: support would "
                         f"exceed {_POISSON_MAX_SUPPORT} degrees")
    log_c = math.log(c)
    terms = np.array([math.exp(k * log_c - c - math.lgamma(k + 1))
                      for k in range(k_hi + 1)])
    beyond = np.cumsum(terms[::-1])[::-1][1:]  # beyond[k] = P(X > k)
    cut = np.flatnonzero(beyond < tail_eps)
    k_max = int(cut[0]) if cut.size else k_hi
    return _build(terms[: k_max + 1], f"poisson-{c:g}")


def explicit(probs, label: str = "explicit") -> DegreePMF:
    """Degree law from a raw probability array indexed by degree."""
    return _build(np.asarray(probs, dtype=float), label)


def from_spec(spec: dict) -> DegreePMF:
    """Build a law from the distribution spec format used by configs.

    Accepted shapes: ``{"kind": "regular", "d": int}``,
    ``{"kind": "poisson", "c": real}``,
    ``{"kind": "explicit", "probs": [real, ...]}``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"distribution spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "regular":
        if "d" not in spec:
            raise ValueError("regular spec needs field 'd'")
        return regular(int(spec["d"]))
    if kind == "poisson":
        if "c" not in spec:
            raise ValueError("poisson spec needs field 'c'")
        return poisson(float(spec["c"]))
    if kind == "explicit":
        if "probs" not in spec:
            raise ValueError("explicit spec needs field 'probs'")
        return explicit(spec["probs"])
    raise ValueError(f"unknown distribution kind {kind!r}")


def dominates(pmf_a: DegreePMF, pmf_b: DegreePMF, grid_size: int = 1000) -> bool:
    """True iff phi_a >= phi_b on a uniform interior grid of (0, 1).

    Both laws must have the same mean (within 1e-9); comparing generating
    series only orders matching performance under that hypothesis.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if abs(pmf_a.mean - pmf_b.mean) > 1e-9:
        raise ValueError(
            f"means differ ({pmf_a.mean!r} vs {pmf_b.mean!r}); "
            "the comparison hypothesis requires equal means"
        )
    grid = np.arange(1, grid_size) / grid_size
    return bool(np.all(pmf_a.pgf(grid) >= pmf_b.pgf(grid) - 1e-12))
