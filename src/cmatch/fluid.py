"""Fluid-limit solvers: the deterministic curves that greedy trajectories
concentrate around as the graph grows.

The aggregated matched-fraction curve comes from a scalar ODE for G(s), the
cumulative match pressure after a proportion s of arrivals. Its raw form
has a removable 0/0 as the offline side runs out of fresh half-edges; the
numerator 1 - phi_v(q) shares the factor (1 - q) with the denominator, so
after cancelling analytically the integrand is just h_v(q) / mean_v with

    q = 1 - Gamma(G) / mean_u,

where Gamma collapses to phi_u'(1 - G) without capacities and gains one
correction term per unused capacity level otherwise. No epsilon guards are
needed anywhere in the integrand. It depends on G alone and lies between
(1 - p_v(0)) / mean_v > 0 and 1, so the ODE separates into the quadrature
s(G) = int_0^G dg / f(g) of a smooth, bounded 1/f on [0, 1] (G(1) <= 1),
which is inverted on the output grid by Newton steps; no scalar stepper runs.

The module also integrates the full residual-degree density system (one
equation per degree for free and saturated vertices) by classical RK4, a
method independent of the quadrature, in characteristic time sigma
(d sigma = dt / D, D the live half-edge mass), where its drift has no
singularity. It checks the system against the closed transport-equation
solution along characteristics, whose time is that sigma and whose F(t) is
G(1 - exp(-mean_v t)), so the G-ODE is the only scalar ODE solved here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_rows
from .degrees import (_MAX_SUPPORT, _POSITIVE, DegreePMF, _array, _build, _count,
                      _horner, _positive_means, _real, dominates)

# The G-ODE's output grid has round(1 / step) + 1 points, each solved on
# its own, so its accuracy does not depend on step.
_MIN_G_STEP = 1e-6
_MAX_G_STEP = 1e-2
_MAX_SYSTEM_STEP = 1e-3
# s(G) is cumulated over _G_PANELS panels of [0, 1] by the 4-point
# Gauss-Legendre rule, (node, weight) pairs on [0, 1] in closed form: nodes
# (1 -+ t) / 2, t^2 = 3/7 -+ (2/7) sqrt(6/5), weights (18 +- sqrt(30)) / 72.
_G_PANELS = 4096
_GAUSS_4 = tuple(
    ((1.0 + sign * math.sqrt(3.0 / 7.0 + side * 2.0 / 7.0 * math.sqrt(1.2))) / 2.0,
     (18.0 - side * math.sqrt(30.0)) / 72.0)
    for side in (-1.0, 1.0) for sign in (-1.0, 1.0))


# ---------------------------------------------------------------------------
# aggregated G-ODE


@dataclass(frozen=True, eq=False)
class FluidCurve:
    """Numerical solution G on a uniform s-grid with the derived normalized
    matched-fraction curve."""

    grid: np.ndarray
    G: np.ndarray
    matched: np.ndarray
    model_u: str
    model_v: str
    capacity: str
    step: float

    @property
    def endpoint(self) -> float:
        """Normalized matching size at s = 1."""
        return float(self.matched[-1])

    def g_at(self, s):
        return np.interp(s, self.grid, self.G)

    def matched_at(self, s):
        return np.interp(s, self.grid, self.matched)


@dataclass(frozen=True, eq=False)
class CapacityProfile:
    """Law of the initial capacity of an offline vertex on 1..C: ``p[c]`` is
    the fraction of vertices with capacity c (``p[0]`` is 0). ``label``
    names the profile in the curves solved under it."""

    p: np.ndarray
    mean_cap: float
    cdf: np.ndarray
    label: str

    @property
    def max_capacity(self) -> int:
        return len(self.p) - 1

    @classmethod
    def from_fractions(cls, fractions) -> "CapacityProfile":
        """Build from [p_1, p_2, ..., p_C], checked, normalized and trimmed
        of trailing zero mass as the degree law [0, p_1, ..., p_C]."""
        return cls._of(fractions)

    @classmethod
    def fixed(cls, C: int) -> "CapacityProfile":
        """Every offline vertex has capacity C."""
        C = _count(C, "C", 1, _MAX_SUPPORT)
        return cls._of([0.0] * (C - 1) + [1.0], f"fixed-{C}")

    @classmethod
    def _of(cls, fractions, label: str | None = None) -> "CapacityProfile":
        """The profile of the law [0, *fractions] under ``label``, which
        defaults to the law's ``profile-p_1,...,p_C`` label."""
        law = _build([0.0, *fractions] if _array(fractions, "fractions").ndim == 1
                     else fractions, "profile", "fractions")
        if label is None:
            label = "profile-" + ",".join(f"{v:g}" for v in law.probs[1:])
        return cls(p=law.probs, mean_cap=law.mean, cdf=law._cdf, label=label)

    def capacities(self, n: int) -> np.ndarray:
        """Capacity array of n vertices realizing the profile: vertex i gets
        the capacity c with round(n * cdf[c - 1]) <= i < round(n * cdf[c]),
        and C if no such c exists; n is a count >= 1."""
        n = _count(n, "n", 1)
        bounds = np.floor(self.cdf[1:] * n + 0.5).astype(np.int64)
        caps = np.searchsorted(bounds, np.arange(n), side="right") + 1
        return np.minimum(caps, self.max_capacity)


# Unit capacity everywhere: the capacity-less model.
UNIT_CAPACITY = CapacityProfile._of([1.0], "none")


def _rk4(slope, y0, h: float, n_steps: int) -> np.ndarray:
    """Classical fixed-step RK4 for the autonomous y' = slope(y) from t = 0:
    the states at t = 0, h, ..., n_steps * h, written into one preallocated
    (n_steps + 1, *y0.shape) array. The stages are combined in place in the
    order of y + h (k1 + 2 k2 + 2 k3 + k4) / 6, so slope must return a new
    array on each call."""
    ys = np.empty((n_steps + 1, *y0.shape))
    ys[0] = y0
    half = 0.5 * h
    for i in range(n_steps):
        y = ys[i]
        k1 = slope(y)
        k2 = slope(y + half * k1)
        k3 = slope(y + half * k2)
        k4 = slope(y + h * k3)
        k2 *= 2.0
        k3 *= 2.0
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= h
        k1 /= 6.0
        np.add(y, k1, out=ys[i + 1])
    return ys


def _g_curve(pmf_u: DegreePMF, pmf_v: DegreePMF, profile: CapacityProfile,
             step: float) -> FluidCurve:
    """Solve G'(s) = f(G) = h_v(1 - Gamma(G)/mean_u) / mean_v, G(0) = 0, where
    Gamma(g) = sum_k w_k g^k/k! phi_u^{(k+1)}(1 - g) with w_k = P(c > k),
    and return the matched fraction per unit of expected capacity,
    1 - sum_k a_k G^k/k! phi_u^{(k)}(1 - G) with a_k = E[(c - k)^+] / E[c].
    Each public solver is one call of it; none calls another.

    G inverts s(G) = int_0^G dg / f(g), cumulated at the panel edges: G at
    s_i = i * step is interpolated from them, then refined by one Newton
    step G <- G - (s(G) - s_i) f(G), s(G) being the edge value plus the rule
    on the partial panel. Every array on that path has the grid's length."""
    step = _real(step, "step", _MIN_G_STEP, _MAX_G_STEP)
    mu_u, mu_v = _positive_means(pmf_u, pmf_v)
    n_steps = round(1.0 / step)
    # survival[k] = P(c > k), and E[(c - k)^+] = sum_{j >= k} P(c > j)
    survival = 1.0 - profile.cdf[:profile.max_capacity]
    coeffs = np.cumsum(survival[::-1])[::-1] / profile.mean_cap

    def level_sum(weights: np.ndarray, order: int, g: np.ndarray) -> np.ndarray:
        """sum_k weights[k] g^k/k! phi_u^{(k + order)}(1 - g) elementwise, one
        Horner pass per level; phi_u^{(k)} is 0 for k > k_max, so levels
        past k_max - order do not count."""
        total, gk = 0.0, 1.0
        x = np.clip(1.0 - g, 0.0, 1.0)
        for k, w in enumerate(weights[:pmf_u.k_max + 1 - order]):
            if k:
                gk = gk * g / k
            total = total + w * gk * _horner(pmf_u._deriv_rev(k + order), x)
        return total

    def slope(g: np.ndarray) -> np.ndarray:
        q = np.clip(1.0 - level_sum(survival, 1, g) / mu_u, 0.0, 1.0)
        return _horner(pmf_v._rev_tail, q) / mu_v

    def s_gain(left: np.ndarray, width) -> np.ndarray:
        """int_left^{left + width} dg / f(g) by the 4-point rule."""
        return sum(w * width / slope(left + t * width) for t, w in _GAUSS_4)

    edges = np.arange(_G_PANELS + 1) / _G_PANELS
    cum = np.append(0.0, np.cumsum(s_gain(edges[:-1], 1.0 / _G_PANELS)))
    grid = np.arange(n_steps + 1) / n_steps
    G = np.interp(grid, cum, edges)
    panel = np.minimum(G * _G_PANELS, _G_PANELS - 1).astype(np.int64)
    left = edges[panel]
    G = G - (cum[panel] + s_gain(left, G - left) - grid) * slope(G)
    return FluidCurve(grid=grid, G=G, matched=1.0 - level_sum(coeffs, 0, G),
                      model_u=pmf_u.label, model_v=pmf_v.label,
                      capacity=profile.label, step=1.0 / n_steps)


def solve_G_capless(pmf_u: DegreePMF, pmf_v: DegreePMF,
                    step: float = 1e-4) -> FluidCurve:
    """Matched-fraction curve without capacities, normalized per offline
    vertex."""
    return _g_curve(pmf_u, pmf_v, UNIT_CAPACITY, step)


def solve_G_fixed_capacity(pmf_u: DegreePMF, pmf_v: DegreePMF, C: int,
                           step: float = 1e-4) -> FluidCurve:
    """Curve when every offline vertex can absorb C matches, normalized per
    unit of capacity (C per vertex)."""
    return _g_curve(pmf_u, pmf_v, CapacityProfile.fixed(C), step)


def solve_G_general_capacity(pmf_u: DegreePMF, pmf_v: DegreePMF,
                             profile: CapacityProfile,
                             step: float = 1e-4) -> FluidCurve:
    """Curve under a capacity profile, normalized per unit of expected
    capacity. Under UNIT_CAPACITY and CapacityProfile.fixed(C) it is the
    capacity-less and fixed-capacity curve."""
    return _g_curve(pmf_u, pmf_v, profile, step)


def write_fluid_csv(curve: FluidCurve, path) -> None:
    """CSV dump: a model-echo comment line, then s,G,matched rows."""
    write_rows(path, f"# model_u={curve.model_u} model_v={curve.model_v} "
               f"capacity={curve.capacity} step={curve.step:.12g}\ns,G,matched\n",
               "%.12g,%.17g,%.17g\n", curve.grid, curve.G, curve.matched)


def sup_deviation(traj, curve: FluidCurve) -> float:
    """Sup over the trajectory grid of |simulated - fluid| matched fraction."""
    steps = np.arange(traj.n_arrivals + 1)
    sim = traj.matched_at_step / traj._denominator
    ref = curve.matched_at(steps / max(traj.n_arrivals, 1))
    return float(np.max(np.abs(sim - ref)))


# ---------------------------------------------------------------------------
# full residual-degree density system


@dataclass(frozen=True, eq=False)
class SystemTrajectory:
    """Residual-degree densities on a grid uniform in characteristic time
    sigma: t = (mean_u/mean_v)(1 - exp(-mean_v sigma)) arrivals per vertex."""

    t: np.ndarray
    free: np.ndarray
    saturated: np.ndarray

    def matched_fraction(self) -> np.ndarray:
        """1 - total free density: the aggregated matching size per vertex."""
        return 1.0 - self.free.sum(axis=1)

    def half_edge_mass(self) -> np.ndarray:
        """sum_i i (free_i + saturated_i): live half-edges per vertex, which
        decays exactly linearly at rate mean_v."""
        idx = np.arange(self.free.shape[1])
        return self.free @ idx + self.saturated @ idx


def _system_drift(pmf_u: DegreePMF, pmf_v: DegreePMF):
    """dy/dsigma on states y = (f, m) of shape (..., 2 (k_max + 1)), the free
    densities by residual degree then the saturated ones: the transport
    y_i' = -mean_v i y_i + mean_v (i + 1) y_{i+1} on both rows, and the match
    flow h_v(q) (i + 1) f_{i+1} from free i + 1 to saturated i, with
    q = sum i m_i / sum i (f_i + m_i).

    rz = mean_v i y_i serves all three: the transport is its shift, the row
    masses are its sums (mean_v cancels in q), and the flow is
    h_v(q) / mean_v rz_{i+1}. On one state (the RK4 path) q is a Python float
    and h_v(q) / mean_v one dot product with its powers; a stack of states
    (the characteristics check) gets one q per state. A Horner loop in
    Python floats is about 1 us faster per call on a law a few terms wide,
    and about 2.5x slower on Poisson-200's 307 terms."""
    k = pmf_u.k_max + 1
    rate = pmf_v.mean * np.tile(np.arange(k, dtype=float), 2)
    ones, saturated = np.ones(2 * k), np.repeat([0.0, 1.0], k)
    # h_v(q) / mean_v = sum_j P(X > j) / mean_v q^j
    tail = np.array(pmf_v._rev_tail[::-1]) / pmf_v.mean
    powers = np.arange(len(tail), dtype=float)

    def drift(y: np.ndarray) -> np.ndarray:
        rz = rate * y
        dy = -rz
        # across the row boundary the shift adds rz at saturated 0, which is
        # rate[0] m_0 = 0 exactly, to free k_max
        dy[..., :-1] += rz[..., 1:]
        q = (rz @ saturated) / (rz @ ones)
        if y.ndim == 1:  # a Python-float clip saves about 1.5 us of the call's 8
            c = tail @ min(max(float(q), 0.0), 1.0) ** powers
        else:
            c = (np.clip(q, 0.0, 1.0)[..., None] ** powers @ tail)[..., None]
        flow = c * rz[..., 1:k]
        dy[..., :k - 1] -= flow
        dy[..., k:-1] += flow
        return dy

    return drift


def solve_full_system(pmf_u: DegreePMF, pmf_v: DegreePMF,
                      step: float = 1e-3) -> SystemTrajectory:
    """RK4 on the drift system for per-degree free/saturated densities.

    In t the drift divides by the live half-edge mass D = mean_u - mean_v t,
    which vanishes at t = mean_u / mean_v; in sigma, d sigma = dt / D, it
    does not (:func:`_system_drift`). ``step`` only sets the end, t_end =
    mean_u/mean_v - 10 step (half the span, if shorter). The run takes
    ceil(mean_v sigma_end max(50, k_max)) equal sigma-steps of O(k_max)
    each; the k_max term keeps the densities of wide laws nonnegative.
    The states fill one flat (n_steps + 1, 2 (k_max + 1)) array, of which
    ``free`` and ``saturated`` are views. A state that is not finite, or has
    a density below -1e-10, raises a RuntimeError naming its sigma-step;
    the rest are clipped at 0.
    """
    step = _real(step, "step", _POSITIVE, _MAX_SYSTEM_STEP)
    mu_u, mu_v = _positive_means(pmf_u, pmf_v)
    rate_end = -math.log(min(10.0 * step * mu_v / mu_u, 0.5))  # mean_v sigma_end
    n_steps = math.ceil(rate_end * max(50, pmf_u.k_max))
    k = pmf_u.k_max + 1
    y0 = np.concatenate([pmf_u.probs, np.zeros(k)])
    states = _rk4(_system_drift(pmf_u, pmf_v), y0, rate_end / mu_v / n_steps, n_steps)
    lows, highs = states.min(axis=1), states.max(axis=1)
    # NaN fails both comparisons
    bad = np.flatnonzero(~((lows >= -1e-10) & (highs < math.inf)))
    if bad.size:
        i = bad[0]
        raise RuntimeError(f"density not finite or below -1e-10 (min {lows[i]}, "
                           f"max {highs[i]}) at sigma-step {i} of {n_steps}")
    np.maximum(states, 0.0, out=states)
    t = (mu_u / mu_v) * -np.expm1(np.arange(n_steps + 1) * (-rate_end / n_steps))
    return SystemTrajectory(t=t, free=states[:, :k], saturated=states[:, k:])


# ---------------------------------------------------------------------------
# transport-equation identity along characteristics


@dataclass(frozen=True, eq=False)
class CharacteristicsReport:
    """Discrepancy between the density system's generating series and its
    closed-form transport solution at sampled (t, s) points."""

    max_discrepancy: float
    t_values: np.ndarray
    s_values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def verify_characteristics(pmf_u: DegreePMF, pmf_v: DegreePMF,
                           samples: int = 100, step: float = 1e-4,
                           seed: int = 0,
                           system: SystemTrajectory | None = None) -> CharacteristicsReport:
    """Cross-check the two fluid solvers through the characteristic curves.

    Along a characteristic, F solves

        F'(t) = exp(-mean_v t) h_v(1 - phi_u'(1 - F)/mean_u),  F(0) = 0,

    which under s = 1 - exp(-mean_v t) is the capacity-less G-ODE, so
    F(t) = G(1 - exp(-mean_v t)) is read off the solve_G_capless curve at
    ``step``. This t is the system's sigma: the system (solved at ``step``,
    at most 1e-3, unless given) is read on its sigma grid by cubic Hermite
    interpolation, the drift at each node its slope, and its generating
    series compared with phi_u((s - 1) exp(-mean_v t) + 1 - F(t)) at
    `samples` random (t, s). The two sides are independent numerical paths.
    A ``system`` not k_max + 1 wide, or not ending before t = mean_u/mean_v,
    was solved for other laws: a ValueError names it.
    """
    samples = _count(samples, "samples", 1)
    seed = _count(seed, "seed", 0)
    curve = solve_G_capless(pmf_u, pmf_v, step)
    sys_traj = system if system is not None else solve_full_system(
        pmf_u, pmf_v, min(step, _MAX_SYSTEM_STEP))
    mu_u, mu_v = pmf_u.mean, pmf_v.mean
    widths = sorted({sys_traj.free.shape[-1], sys_traj.saturated.shape[-1]})
    if widths != [pmf_u.k_max + 1]:
        raise ValueError(f"system has densities of width {widths}, not pmf_u's "
                         f"k_max + 1 = {pmf_u.k_max + 1}")
    if not sys_traj.t[-1] < mu_u / mu_v:
        raise ValueError(f"system ends at t = {float(sys_traj.t[-1])!r}, not below "
                         f"mean_u/mean_v = {mu_u / mu_v!r}")
    nodes = -np.log1p(-sys_traj.t * (mu_v / mu_u)) / mu_v

    rng = np.random.default_rng(seed)
    ts = rng.random(samples) * nodes[-1]
    ss = rng.random(samples)
    decay = np.exp(-mu_v * ts)
    rhs = pmf_u.pgf(np.clip((ss - 1.0) * decay + 1.0 - curve.g_at(1.0 - decay), 0.0, 1.0))
    free = sys_traj.free
    slope = _system_drift(pmf_u, pmf_v)(
        np.concatenate([free, sys_traj.saturated], axis=1))[:, :free.shape[1]]
    j = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, len(nodes) - 2)
    h = (nodes[j + 1] - nodes[j])[:, None]
    u = (ts - nodes[j])[:, None] / h
    free_at = ((1.0 + 2.0 * u) * free[j] + u * h * slope[j]) * (1.0 - u) ** 2 \
        + ((3.0 - 2.0 * u) * free[j + 1] - (1.0 - u) * h * slope[j + 1]) * u ** 2
    lhs = _horner(list(free_at.T[::-1]), ss)
    return CharacteristicsReport(max_discrepancy=float(np.abs(lhs - rhs).max()),
                                 t_values=ts, s_values=ss, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# closed forms and model comparison


def closed_form_2regular(s: float) -> tuple:
    """Exact (G, matched) on the 2-regular model: G = exp(s/2) - 1."""
    g = math.exp(_real(s, "s", 0.0, 1.0) / 2.0) - 1.0
    return g, 1.0 - (1.0 - g) ** 2


def closed_form_er(c: float) -> float:
    """Exact endpoint on the Poisson(c)/Poisson(c) model:
    1 - log(2 - exp(-c)) / c. Below c = 1e-6 the direct form cancels
    catastrophically; the quadratic Taylor value c - c^2 is returned."""
    c = _real(c, "c", _POSITIVE)
    if c < 1e-6:
        return c - c * c
    return 1.0 - math.log(2.0 - math.exp(-c)) / c


@dataclass(frozen=True, eq=False)
class ModelComparison:
    """Endpoints of two online-side laws sharing the offline law; when the
    first law's generating series dominates the second's, the second model
    matches at least as much."""

    endpoint_1: float
    endpoint_2: float
    ordered: bool


def compare_models(pmf_u: DegreePMF, pmf_v1: DegreePMF, pmf_v2: DegreePMF,
                   step: float = 1e-4) -> ModelComparison:
    """Solve both capacity-less curves and report the endpoint ordering.

    Requires equal online means and generating-series dominance of model 1
    over model 2 (checked on a grid); raises ValueError when the hypothesis
    fails, since the ordering is then unfounded.
    """
    if not dominates(pmf_v1, pmf_v2):
        raise ValueError("generating series of model 1 does not dominate model 2")
    e1 = solve_G_capless(pmf_u, pmf_v1, step).endpoint
    e2 = solve_G_capless(pmf_u, pmf_v2, step).endpoint
    return ModelComparison(endpoint_1=e1, endpoint_2=e2,
                           ordered=e2 >= e1 - 1e-6)
