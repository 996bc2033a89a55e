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
import sys
from dataclasses import dataclass, field

import numpy as np

# Normalization slack accepted on explicit probability input.
_INPUT_TOL = 1e-9
# Slack around [0, 1] accepted on evaluation points before rejecting.
_DOMAIN_TOL = 1e-12
# Largest support built for any law, degree or capacity; far past any mean
# a simulation can use.
_MAX_SUPPORT = 1_000_000
# The largest Poisson mean whose support, up to c + 40 sqrt(c) + 100, fits.
_MAX_POISSON_C = (math.sqrt(_MAX_SUPPORT + 300.0) - 20.0) ** 2
# Tail mass beyond a truncated Poisson support.
_POISSON_TAIL_EPS = 1e-12
# Intervals of the uniform grid on which dominates compares two series.
_DOMINANCE_GRID = 1000
# The least positive float: a closed lower bound at it is the open bound at 0.
_POSITIVE = math.nextafter(0.0, 1.0)


def _whole(values, name: str, low: int, high: int | None = None) -> np.ndarray:
    """``values`` as an array of whole numbers in [low, high] (no upper
    bound for None), or a ValueError naming ``name`` and the first value
    that is not whole (a fraction, inf, nan, a bool numpy would upcast in a
    list) or out of bounds, or a dtype that holds none (bool, strings).
    Python ints past int64 stay exact in an object array until checked.
    Every count passes it or :func:`_count`, every real :func:`_real`; they
    live in this base module, which imports no scipy (the CLI must not)."""
    vals = _array(values, name)
    kind = vals.dtype.kind
    if kind == "O" and all(isinstance(c, (int, np.integer)) for c in vals.flat):
        kind = "i"  # Python ints, some past int64
    bad = f"dtype {vals.dtype}" if kind not in "iuf" else _listed_bool(values)
    if bad is None and kind == "f":
        bad = next(iter(vals[~(np.isfinite(vals) & (vals == np.trunc(vals)))]), None)
    if bad is not None:
        raise ValueError(f"{name} must be whole numbers, got {bad}")
    for bad, bound in ((vals < low, "nonnegative" if low == 0 else f"at least {low}"),
                       (high is not None and vals > high, f"at most {high}")):
        if np.any(bad):
            raise ValueError(f"{name} must be {bound}, got {vals[bad][0]}")
    return vals


def _count(value, name: str, low: int, high: int = 2**63 - 1) -> int:
    """``value`` as an int in [low, high] by the rule of :func:`_whole`: a
    Python or numpy integer, or a whole float such as 2.0; by default the
    bound is int64's, past which no count can size an array. Seeds are
    counts >= 0, and reals pass the sibling rule :func:`_real`."""
    if type(value) is int and low <= value <= high:
        return value
    try:
        if np.ndim(value) == 0:
            return int(_whole(value, name, low, high))
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer >= {low} and <= {high}, got {value!r}")


def _real(value, name: str, low: float, high: float = sys.float_info.max) -> float:
    """``value`` as a float in [low, high] (by default, any finite float), or
    a ValueError naming ``name`` and the value: a Python or numpy real, never
    a bool, a string, an array or nan. The sibling of :func:`_count`."""
    real = type(value) in (int, float) or isinstance(value, (np.integer, np.floating))
    if real and low <= value <= high:  # exact even for ints past float's range
        return float(value)
    interval = ("(0" if low == _POSITIVE else f"[{low:g}") + f", {high:g}]"
    big = "too large: " if real and value > high else ""
    raise ValueError(f"{name} {big}must be a finite real in {interval}, got {value!r}")


def _points(s, name: str, arrays: bool = True):
    """Evaluation points in [0, 1], float dust at the edges clamped: a real
    array for an array (if ``arrays``), else a float by the rule of
    :func:`_real`. Strings, bools and nan raise a ValueError naming ``name``."""
    if not (arrays and isinstance(s, np.ndarray)):
        return min(max(_real(s, name, -_DOMAIN_TOL, 1.0 + _DOMAIN_TOL), 0.0), 1.0)
    if s.dtype.kind not in "iuf" or not np.all(abs(s - 0.5) <= 0.5 + _DOMAIN_TOL):
        raise ValueError(f"{name} must be real numbers in [0, 1], got {s!r}")
    return np.clip(s, 0.0, 1.0)


def _array(values, name: str) -> np.ndarray:
    """``np.asarray(values)``, or for ragged nested sequences, which numpy
    refuses without naming the argument, a ValueError naming ``name``."""
    try:
        return np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must not be ragged nested sequences") from None


def _listed_bool(values):
    """The first bool in a non-array input (numpy upcasts [True, 2]), or None."""
    items = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    return next((v for v in items if isinstance(v, (bool, np.bool_))), None)


def _horner(rev_coeffs: tuple, x):
    """Polynomial value at a float or elementwise on an array x,
    coefficients from the highest degree down; the empty tuple is the zero
    polynomial."""
    acc = 0.0
    for c in rev_coeffs:
        acc = acc * x + c
    return acc


@dataclass(frozen=True, eq=False)
class DegreePMF:
    """Degree law with finite support ``0..k_max``.

    ``probs[k]`` is the probability of degree ``k``; the array always sums
    to 1 within 1e-12 (truncated tails are renormalized on construction).
    Build instances through :func:`regular`, :func:`poisson` or
    :func:`explicit`, not directly.
    """

    probs: np.ndarray
    mean: float
    variance: float
    label: str
    # Horner coefficients, highest degree first: the tail sums P(X > j),
    # j = 0..k_max-1, built once per law, which are the coefficients of the
    # exact polynomial form of h(q) (its value at 1 is the mean); and those
    # of phi's order-th derivative, cached per order on first use (order 0
    # is phi itself; an order above k_max gives the empty tuple).
    _rev_tail: tuple = field(repr=False)
    _cdf: np.ndarray = field(repr=False)
    _deriv_cache: dict = field(default_factory=dict, repr=False)

    @property
    def k_max(self) -> int:
        return len(self.probs) - 1

    # -- generating series -------------------------------------------------

    def pgf(self, s):
        """Generating series ``sum_k p_k s^k`` for scalar or array s in [0, 1]."""
        return _horner(self._deriv_rev(0), _points(s, "s"))

    def pgf_deriv(self, s, order: int = 1):
        """Order-th derivative of the generating series at s.

        Orders above ``k_max`` are identically zero.
        """
        order = _count(order, "order", 1)
        s = _points(s, "s")
        if order >= len(self.probs):  # above k_max
            return np.zeros_like(s, dtype=float) if isinstance(s, np.ndarray) else 0.0
        return _horner(self._deriv_rev(order), s)

    def h_ratio(self, q: float) -> float:
        """Match-intensity ratio ``(1 - phi(q)) / (1 - q)``.

        Evaluated as its exact polynomial ``sum_j P(X > j) q^j``, whose
        coefficients are nonnegative: the ratio form cancels near q = 1 and
        for laws with tiny mass above 0, the polynomial nowhere. ``h(1)``
        is the mean exactly.
        """
        q = _points(q, "q", arrays=False)
        return self.mean if q == 1.0 else _horner(self._rev_tail, q)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw degrees by inverse CDF over the finite support."""
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        idx = np.minimum(idx, self.k_max)
        return int(idx) if size is None else idx.astype(np.int64)

    # -- cached derivative coefficients -----------------------------------

    def _deriv_rev(self, order: int) -> tuple:
        """Plain-float tuple of the order-th derivative's coefficients,
        highest degree first, for :func:`_horner`."""
        cached = self._deriv_cache.get(order)
        if cached is None:
            coeffs = self.probs
            for _ in range(order):
                coeffs = coeffs[1:] * np.arange(1, len(coeffs))
            cached = tuple(float(c) for c in coeffs[::-1])
            self._deriv_cache[order] = cached
        return cached


def _build(probs, label: str, name: str = "probs") -> DegreePMF:
    """Judge ``probs`` (real masses, no bool even inside a list; errors name
    ``name``), normalize, trim trailing zero mass, cache moments and tails."""
    vals = _array(probs, name)
    bad = f"dtype {vals.dtype}" if vals.dtype.kind not in "iuf" else _listed_bool(probs)
    if bad is not None:
        raise ValueError(f"{name} must be real numbers, got {bad}")
    probs = vals.astype(float)
    if probs.ndim != 1 or len(probs) == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not (np.isfinite(probs) & (probs >= 0)).all():
        raise ValueError(f"{name} must be finite nonnegative masses")
    total = probs.sum()
    if abs(total - 1.0) > _INPUT_TOL:
        raise ValueError(f"{name} sum to {total!r}, not 1 within {_INPUT_TOL}")
    probs = probs / total
    last = np.nonzero(probs)[0]
    k_hi = int(last[-1]) if len(last) else 0
    if k_hi > _MAX_SUPPORT:
        raise ValueError(f"support reaches degree {k_hi}, past {_MAX_SUPPORT}")
    probs = probs[: k_hi + 1].copy()
    ks = np.arange(len(probs))
    mean = float(np.dot(ks, probs))
    variance = float(np.dot(ks * ks, probs) - mean * mean)
    cdf = np.cumsum(probs)
    tail = np.cumsum(probs[::-1])[::-1][1:]  # P(X > j), summed top-down
    probs.setflags(write=False)
    cdf.setflags(write=False)
    return DegreePMF(probs=probs, mean=mean, variance=max(variance, 0.0),
                     label=label, _rev_tail=tuple(float(t) for t in tail[::-1]),
                     _cdf=cdf)


def regular(d: int) -> DegreePMF:
    """Point mass at degree d (d-regular side)."""
    d = _count(d, "d", 1, _MAX_SUPPORT)
    probs = np.zeros(d + 1)
    probs[d] = 1.0
    return _build(probs, f"regular-{d}")


def poisson(c: float) -> DegreePMF:
    """Poisson(c) truncated at the smallest k_max with tail mass below
    1e-12, then renormalized.

    Terms are built in log space, ``k log c - c - lgamma(k + 1)``, so
    ``exp(-c)`` never underflows for large c, and tail masses are summed
    from the top down, so the cut never rests on a difference ``1 - cdf``.
    """
    c = _real(c, "c", _POSITIVE, _MAX_POISSON_C)
    # 40 standard deviations (plus 100) past the mean: the mass beyond is
    # below 1e-60, so the top-down tail sums are exact to rounding.
    k_hi = int(c + 40.0 * math.sqrt(c) + 100.0)
    log_c = math.log(c)
    terms = np.array([math.exp(k * log_c - c - math.lgamma(k + 1))
                      for k in range(k_hi + 1)])
    beyond = np.cumsum(terms[::-1])[::-1][1:]  # beyond[k] = P(X > k)
    cut = np.flatnonzero(beyond < _POISSON_TAIL_EPS)
    k_max = int(cut[0]) if cut.size else k_hi
    return _build(terms[: k_max + 1], f"poisson-{c:g}")


def explicit(probs, label: str = "explicit") -> DegreePMF:
    """Degree law from a raw probability array indexed by degree."""
    return _build(probs, label)


def _positive_means(*laws: DegreePMF) -> tuple:
    """The laws' means; a law of mean 0 has no half-edge to pair and no curve."""
    for law in laws:
        if law.mean <= 0:
            raise ValueError(f"degree law {law.label} needs a positive mean")
    return tuple(law.mean for law in laws)


def dominates(pmf_a: DegreePMF, pmf_b: DegreePMF) -> bool:
    """True iff phi_a >= phi_b on the interior points of a uniform grid of
    (0, 1) with 1000 intervals.

    Both laws must have the same mean (within 1e-9); comparing generating
    series only orders matching performance under that hypothesis.
    """
    if abs(pmf_a.mean - pmf_b.mean) > 1e-9:
        raise ValueError(
            f"means differ ({pmf_a.mean!r} vs {pmf_b.mean!r}); "
            "the comparison hypothesis requires equal means"
        )
    grid = np.arange(1, _DOMINANCE_GRID) / _DOMINANCE_GRID
    return bool(np.all(pmf_a.pgf(grid) >= pmf_b.pgf(grid) - 1e-12))
