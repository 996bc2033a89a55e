"""Fluid-limit solvers: closed forms, reductions, convergence, invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from cmatch import fluid, poisson, regular, explicit
from cmatch.fluid import (UNIT_CAPACITY, CapacityProfile, SystemTrajectory,
                          closed_form_2regular, closed_form_er,
                          compare_models, solve_full_system,
                          solve_G_capless, solve_G_fixed_capacity,
                          solve_G_general_capacity, sup_deviation,
                          verify_characteristics, write_fluid_csv)
from cmatch.matching import GREEDY, run_policy
from cmatch.stream import sample_degree_sequences

TWO_REGULAR_ENDPOINT = 4.0 * math.sqrt(math.e) - math.e - 3.0


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_2regular_values():
    assert closed_form_2regular(0.0) == (0.0, 0.0)
    g, matched = closed_form_2regular(1.0)
    assert g == pytest.approx(math.sqrt(math.e) - 1.0, abs=1e-15)
    assert matched == pytest.approx(TWO_REGULAR_ENDPOINT, abs=1e-15)
    g_half, _ = closed_form_2regular(0.5)
    assert g_half == pytest.approx(math.exp(0.25) - 1.0, abs=1e-15)
    with pytest.raises(ValueError):
        closed_form_2regular(1.2)


def test_closed_form_er_values():
    for c in (1.0, 2.0, 4.0):
        assert closed_form_er(c) == pytest.approx(
            1.0 - math.log(2.0 - math.exp(-c)) / c, abs=1e-15)
    assert closed_form_er(1e-9) == pytest.approx(1e-9, rel=1e-3)
    with pytest.raises(ValueError):
        closed_form_er(0.0)


# ---------------------------------------------------------------------------
# capacity-less curve


def test_degree_one_curve_is_identity():
    curve = solve_G_capless(regular(1), regular(1), 1e-3)
    assert np.max(np.abs(curve.G - curve.grid)) <= 1e-8
    assert curve.endpoint == pytest.approx(1.0, abs=1e-10)


def test_two_regular_curve_matches_closed_form():
    curve = solve_G_capless(regular(2), regular(2), 1e-3)
    exact = np.exp(curve.grid / 2.0) - 1.0
    assert np.max(np.abs(curve.G - exact)) <= 1e-6
    assert curve.endpoint == pytest.approx(TWO_REGULAR_ENDPOINT, abs=1e-8)


def test_poisson_curve_matches_closed_form():
    curve = solve_G_capless(poisson(4.0), poisson(4.0), 1e-3)
    assert curve.endpoint == pytest.approx(closed_form_er(4.0), abs=1e-8)


def test_curve_shape_invariants():
    for curve in (solve_G_capless(regular(2), regular(2), 1e-3),
                  solve_G_capless(poisson(4.0), regular(4), 1e-3),
                  solve_G_fixed_capacity(poisson(3.0), poisson(3.0), 2, 1e-3)):
        assert curve.G[0] == 0.0
        assert np.all(np.diff(curve.G) >= 0.0)
        assert curve.G[-1] <= 1.0 + 1e-12
        assert abs(curve.matched[0]) <= 1e-12
        assert np.all(np.diff(curve.matched) >= -1e-12)


def test_step_validation():
    with pytest.raises(ValueError):
        solve_G_capless(regular(2), regular(2), 0.05)
    with pytest.raises(ValueError):
        solve_G_capless(regular(2), regular(2), 0.0)
    with pytest.raises(ValueError):
        solve_G_capless(regular(2), regular(2), 1e-7)


def test_mean_zero_law_is_rejected():
    none = explicit([1.0])
    for pu, pv in ((none, regular(2)), (regular(2), none), (none, none)):
        with pytest.raises(ValueError, match="positive mean"):
            solve_G_capless(pu, pv, 1e-3)
        with pytest.raises(ValueError, match="positive mean"):
            solve_G_general_capacity(pu, pv, CapacityProfile.fixed(2), 1e-3)
        with pytest.raises(ValueError, match="positive mean"):
            solve_full_system(pu, pv, 1e-3)


@pytest.mark.parametrize("pmf", [regular(2), regular(4), poisson(1.0),
                                 poisson(4.0), regular(10)],
                         ids=["regular-2", "regular-4", "poisson-1",
                              "poisson-4", "regular-10"])
def test_step_sets_only_the_grid(pmf):
    # every grid point is solved on its own, so a coarse grid reads the
    # fine curve at its points; accuracy does not depend on the step
    coarse = solve_G_capless(pmf, pmf, 1e-2)
    fine = solve_G_capless(pmf, pmf, 1e-4)
    assert np.array_equal(coarse.grid, fine.grid[::100])
    assert np.max(np.abs(coarse.G - fine.G[::100])) <= 1e-15
    assert np.max(np.abs(coarse.matched - fine.matched[::100])) <= 1e-15
    if pmf.label == "regular-2":
        for curve in (coarse, fine):
            exact = np.exp(curve.grid / 2.0) - 1.0
            assert np.max(np.abs(curve.G - exact)) <= 1e-14


def test_endpoint_increases_with_regular_degree():
    endpoints = [solve_G_capless(regular(d), regular(d), 1e-3).endpoint
                 for d in range(2, 11)]
    assert all(a < b for a, b in zip(endpoints, endpoints[1:]))


# ---------------------------------------------------------------------------
# capacity solvers


def test_fixed_capacity_one_reduces_to_capless():
    pu, pv = poisson(3.0), poisson(3.0)
    a = solve_G_fixed_capacity(pu, pv, 1, 1e-3)
    b = solve_G_capless(pu, pv, 1e-3)
    assert np.max(np.abs(a.G - b.G)) <= 1e-10
    assert np.max(np.abs(a.matched - b.matched)) <= 1e-10


def test_fixed_capacity_rejects_zero():
    with pytest.raises(ValueError):
        solve_G_fixed_capacity(regular(2), regular(2), 0, 1e-3)


def test_capacity_past_the_degree_changes_nothing():
    # phi_u^(k) is 0 for k > k_max, so levels past it add exact zeros: G is
    # the same for every C >= 4, and with spare capacity everywhere every
    # arrival matches, so the endpoint per unit of capacity is 1/C
    pmf = regular(4)
    curves = [solve_G_fixed_capacity(pmf, pmf, C, 1e-2) for C in (4, 50, 10**5)]
    for C, curve in zip((4, 50, 10**5), curves):
        assert np.array_equal(curve.G, curves[0].G)
        assert abs(curve.endpoint * C - 1.0) <= 1e-9


def test_two_regular_capacity_two_never_binds():
    # with capacity >= degree every arrival is served; the analytic value
    # of the normalized endpoint is exactly 1/2
    curve = solve_G_fixed_capacity(regular(2), regular(2), 2, 1e-3)
    assert curve.endpoint == pytest.approx(0.5, abs=1e-10)
    seq = sample_degree_sequences(regular(2), regular(2), 10_000, seed=0)
    traj = run_policy(seq, 2, GREEDY, seed=0)
    assert abs(traj.final_matched / traj.capacity_total - curve.endpoint) <= 0.01


def test_general_profile_reductions():
    pu, pv = poisson(3.0), poisson(3.0)
    delta_3 = CapacityProfile.from_fractions([0.0, 0.0, 1.0])
    a = solve_G_general_capacity(pu, pv, delta_3, 1e-3)
    b = solve_G_fixed_capacity(pu, pv, 3, 1e-3)
    assert np.max(np.abs(a.G - b.G)) <= 1e-10
    assert np.max(np.abs(a.matched - b.matched)) <= 1e-10
    delta_1 = CapacityProfile.from_fractions([1.0])
    c = solve_G_general_capacity(pu, pv, delta_1, 1e-3)
    d = solve_G_capless(pu, pv, 1e-3)
    assert np.max(np.abs(c.G - d.G)) <= 1e-10
    assert np.max(np.abs(c.matched - d.matched)) <= 1e-10


def test_profile_validation():
    for bad in ([0.5, 0.6], [-0.5, 1.5], [math.nan], [0.5, math.nan, 0.5],
                [math.inf], [], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            CapacityProfile.from_fractions(bad)
    prof = CapacityProfile.from_fractions([0.5, 0.5])
    assert prof.mean_cap == pytest.approx(1.5, abs=1e-12)
    assert prof.max_capacity == 2


def test_profile_levels_are_bounded_like_degrees():
    # from_fractions built 1,000,001 levels unchecked
    with pytest.raises(ValueError, match="1000001, past 1000000"):
        CapacityProfile.from_fractions([0.0] * 10**6 + [1.0])
    assert CapacityProfile.from_fractions([1.0] + [0.0] * 10**6).max_capacity == 1


@pytest.mark.parametrize("fractions", [[0.5, 0.3, 0.2], [0.0, 0.0, 1.0],
                                       [0.2, 0.8, 0.0, 0.0], [1.0], [0.3, 0.3, 0.4]])
def test_profile_is_the_degree_law_without_mass_at_zero(fractions):
    prof = CapacityProfile.from_fractions(fractions)
    law = explicit([0.0] + fractions)
    assert np.array_equal(prof.p, law.probs)
    assert np.array_equal(prof.cdf, np.cumsum(law.probs))
    assert prof.mean_cap == law.mean
    assert prof.max_capacity == law.k_max
    assert not prof.p.flags.writeable and not prof.cdf.flags.writeable


def test_profile_labels():
    assert UNIT_CAPACITY.label == "none"
    assert CapacityProfile.fixed(3).label == "fixed-3"
    assert CapacityProfile.from_fractions([0.5, 0.3, 0.2]).label == \
        "profile-0.5,0.3,0.2"
    assert CapacityProfile.from_fractions([0, 0, 1]).label == "profile-0,0,1"
    pmf = regular(2)
    curves = (solve_G_capless(pmf, pmf, 1e-2),
              solve_G_fixed_capacity(pmf, pmf, 3, 1e-2),
              solve_G_general_capacity(
                  pmf, pmf, CapacityProfile.from_fractions([0.5, 0.3, 0.2]), 1e-2))
    assert [c.capacity for c in curves] == ["none", "fixed-3", "profile-0.5,0.3,0.2"]


def test_fixed_profile_is_the_point_mass():
    for C in (1, 2, 5):
        fixed = CapacityProfile.fixed(C)
        point = CapacityProfile.from_fractions([0.0] * (C - 1) + [1.0])
        assert np.array_equal(fixed.p, point.p) and fixed.mean_cap == C
    assert np.array_equal(UNIT_CAPACITY.p, CapacityProfile.fixed(1).p)
    with pytest.raises(ValueError):
        CapacityProfile.fixed(0)


def test_profile_capacities_rounding():
    prof = CapacityProfile.from_fractions([0.5, 0.5])
    caps = prof.capacities(10)
    assert sorted(caps.tolist()) == [1] * 5 + [2] * 5
    caps_odd = prof.capacities(9)
    assert sorted(set(caps_odd.tolist())) == [1, 2]
    assert len(caps_odd) == 9
    with pytest.raises(ValueError):
        CapacityProfile.from_fractions([0.7, 0.7])
    # the first round(n * cdf[1]) vertices get capacity 1, and so on
    prof = CapacityProfile.from_fractions([0.5, 0.3, 0.2])
    for n in (1, 2, 3, 7, 10, 333, 1000):
        caps = prof.capacities(n)
        assert caps.dtype == np.int64 and caps.shape == (n,)
        assert np.all(np.diff(caps) >= 0)
        bounds = [math.floor(c * n + 0.5) for c in prof.cdf[1:]]
        counts = np.bincount(caps, minlength=4)[1:]
        assert counts.tolist() == [bounds[0], bounds[1] - bounds[0],
                                   n - bounds[1]]
    assert CapacityProfile.fixed(3).capacities(4).tolist() == [3, 3, 3, 3]
    assert UNIT_CAPACITY.capacities(3).tolist() == [1, 1, 1]


def test_mixed_profile_against_monte_carlo():
    pu = pv = poisson(4.0)
    prof = CapacityProfile.from_fractions([0.5, 0.5])
    curve = solve_G_general_capacity(pu, pv, prof, 1e-3)
    fractions = []
    for seed in range(5):
        seq = sample_degree_sequences(pu, pv, 10_000, seed=seed)
        caps = prof.capacities(seq.n_offline)
        traj = run_policy(seq, caps, GREEDY, seed=seed)
        fractions.append(traj.final_matched / traj.capacity_total)
    assert abs(np.mean(fractions) - curve.endpoint) <= 0.01


# ---------------------------------------------------------------------------
# the quadrature against an independent scalar RK4


def _reference_curve(pmf_u, pmf_v, fractions, step):
    """G and matched by classical RK4 on the G-ODE at ``step``, with the
    slope evaluated through the public, validated pgf_deriv and h_ratio
    calls: a scalar path independent of the solvers' array quadrature."""
    prof = CapacityProfile.from_fractions(fractions)
    C = prof.max_capacity
    weights = [1.0 - float(prof.cdf[k]) for k in range(C)]
    # a_k = E[(c - k)^+] / E[c] as the tail sums sum_{j >= k} P(c > j)
    coeffs = np.cumsum(weights[::-1])[::-1] / prof.mean_cap
    # ... which is its definition up to rounding
    for k in range(C):
        acc = 0.0
        for c in range(1, C - k + 1):
            acc += c * float(prof.p[c + k])
        assert abs(acc / prof.mean_cap - coeffs[k]) <= 4 * np.finfo(float).eps

    def slope(g):
        total = 0.0
        gk = 1.0
        for k, w in enumerate(weights):
            if k:
                gk *= g / k
            total += w * gk * pmf_u.pgf_deriv(1.0 - g, k + 1)
        q = min(max(1.0 - total / pmf_u.mean, 0.0), 1.0)
        return pmf_v.h_ratio(q) / pmf_v.mean

    n_steps = round(1.0 / step)
    h = 1.0 / n_steps
    g = 0.0
    G = [g]
    for _ in range(n_steps):
        k1 = slope(g)
        k2 = slope(g + 0.5 * h * k1)
        k3 = slope(g + 0.5 * h * k2)
        k4 = slope(g + h * k3)
        g = g + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        G.append(g)
    G = np.array(G)
    x = np.clip(1.0 - G, 0.0, 1.0)
    total = np.zeros_like(G)
    gk = np.ones_like(G)
    for k, ak in enumerate(coeffs):
        if k:
            gk = gk * G / k
        total += ak * gk * (pmf_u.pgf(x) if k == 0 else pmf_u.pgf_deriv(x, k))
    return G, 1.0 - total


@pytest.mark.parametrize("solve, fractions", [
    (lambda u, v: solve_G_capless(u, v, 1e-2), [1.0]),
    (lambda u, v: solve_G_fixed_capacity(u, v, 3, 1e-2), [0.0, 0.0, 1.0]),
    (lambda u, v: solve_G_general_capacity(
        u, v, CapacityProfile.from_fractions([0.5, 0.3, 0.2]), 1e-2),
     [0.5, 0.3, 0.2]),
], ids=["capless", "fixed-3", "profile"])
@pytest.mark.parametrize("pmf_u, pmf_v", [
    (regular(4), regular(4)), (poisson(4.0), poisson(4.0)),
    (poisson(4.0), regular(4)),
], ids=["regular-4", "poisson-4", "poisson-4/regular-4"])
def test_curves_match_a_fine_reference_rk4(solve, fractions, pmf_u, pmf_v):
    # RK4 at step 1e-3 is accurate to about 1e-14 here (at 1e-2, to about
    # 1e-10), so the two methods must agree at the shared grid points
    curve = solve(pmf_u, pmf_v)
    G, matched = _reference_curve(pmf_u, pmf_v, fractions, 1e-3)
    assert np.max(np.abs(curve.G - G[::10])) <= 1e-13
    assert np.max(np.abs(curve.matched - matched[::10])) <= 1e-13


# ---------------------------------------------------------------------------
# full density system


def test_system_initial_condition_and_conservation():
    pmf = regular(4)
    system = solve_full_system(pmf, pmf, 1e-3)
    assert np.array_equal(system.free[0], pmf.probs)
    assert np.all(system.saturated[0] == 0.0)
    line = pmf.mean - system.t * pmf.mean
    assert np.max(np.abs(system.half_edge_mass() - line)) <= 1e-6
    totals = system.free.sum(axis=1) + system.saturated.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) <= 1e-8
    assert system.free.min() >= 0.0 and system.saturated.min() >= 0.0


def test_system_aggregate_matches_capless_curve():
    for pmf in (regular(4), poisson(4.0)):
        system = solve_full_system(pmf, pmf, 1e-3)
        curve = solve_G_capless(pmf, pmf, 1e-3)
        s_axis = system.t  # equal means: s = t
        gap = np.abs(system.matched_fraction() - curve.matched_at(s_axis))
        assert gap.max() <= 1e-4


@pytest.mark.parametrize("pmf", [regular(200), poisson(50.0)],
                         ids=["regular-200", "poisson-50"])
def test_wide_laws_solve_without_negative_density(pmf):
    # the k_max term of the sigma-step rule: with a fixed 200 sigma-steps
    # RK4 drives both negative
    system = solve_full_system(pmf, pmf, 1e-3)
    assert system.free.min() >= 0.0 and system.saturated.min() >= 0.0
    curve = solve_G_capless(pmf, pmf, 1e-4)
    assert np.max(np.abs(system.matched_fraction() - curve.matched_at(system.t))) <= 1e-4


def test_system_grid_is_the_sigma_grid_in_arrival_time():
    pmf_u, pmf_v, step = regular(3), poisson(2.0), 1e-3
    system = solve_full_system(pmf_u, pmf_v, step)
    end = pmf_u.mean / pmf_v.mean
    assert system.t[0] == 0.0 and np.all(np.diff(system.t) > 0.0)
    assert abs(system.t[-1] - (end - 10.0 * step)) <= 1e-12 and system.t[-1] < end
    line = pmf_u.mean - pmf_v.mean * system.t
    assert np.max(np.abs(system.half_edge_mass() - line)) <= 1e-6


def test_system_on_a_span_shorter_than_20_steps_stops_halfway():
    # mean_u / mean_v = 1e-3 is 10 steps long: stopping 10 steps short
    # would leave nothing to solve
    pmf_u, pmf_v = poisson(1e-3), regular(1)
    system = solve_full_system(pmf_u, pmf_v, 1e-3)
    assert abs(system.t[-1] - 0.5 * pmf_u.mean) <= 1e-15
    assert system.free.min() >= 0.0 and system.saturated.min() >= 0.0


def test_system_step_validation():
    with pytest.raises(ValueError):
        solve_full_system(regular(2), regular(2), 5e-3)


def _reference_drift(pmf_u, pmf_v, f, m):
    """dy/dsigma of one state written out per index: the transport on both
    rows, and h_v(q) (i + 1) f_{i+1} moved from free to saturated i."""
    k, mu = pmf_u.k_max + 1, pmf_v.mean
    q = sum(i * m[i] for i in range(k)) / sum(i * (f[i] + m[i]) for i in range(k))
    h = pmf_v.h_ratio(min(max(q, 0.0), 1.0))
    df, dm = np.zeros(k), np.zeros(k)
    for i in range(k):
        df[i] = -mu * i * f[i]
        dm[i] = -mu * i * m[i]
        if i + 1 < k:
            df[i] += mu * (i + 1) * f[i + 1] - h * (i + 1) * f[i + 1]
            dm[i] += mu * (i + 1) * m[i + 1] + h * (i + 1) * f[i + 1]
    return np.concatenate([df, dm])


@pytest.mark.parametrize("pmf_u, pmf_v", [
    (regular(4), regular(4)),
    (poisson(4.0), poisson(4.0)),
    (regular(3), poisson(2.0)),
    (poisson(200.0), poisson(200.0)),
], ids=["regular-4", "poisson-4", "regular-3/poisson-2", "poisson-200"])
def test_system_drift_matches_a_per_index_reference(pmf_u, pmf_v):
    k = pmf_u.k_max + 1
    states = np.random.default_rng(k).random((5, 2 * k))
    states /= states.sum(axis=1, keepdims=True)
    refs = np.array([_reference_drift(pmf_u, pmf_v, y[:k], y[k:]) for y in states])
    # errors are rounding on terms as large as mean_v k_max max(y)
    tol = 1e-13 * pmf_v.mean * pmf_u.k_max * states.max()
    drift = fluid._system_drift(pmf_u, pmf_v)
    for y, ref in zip(states, refs):
        assert np.max(np.abs(drift(y) - ref)) <= tol
    stacked = drift(states)
    assert stacked.shape == states.shape
    assert np.max(np.abs(stacked - refs)) <= tol


def test_rk4_step_is_the_fourth_order_taylor_polynomial():
    a = np.random.default_rng(3).normal(size=(4, 4))
    y0 = np.array([1.0, -0.5, 0.25, 2.0])
    h, n_steps = 0.1, 3
    ys = fluid._rk4(lambda y: a @ y, y0, h, n_steps)
    assert ys.shape == (n_steps + 1, 4)
    assert np.array_equal(ys[0], y0)
    ha = h * a
    step = np.eye(4) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    assert np.max(np.abs(ys[1] - step @ y0)) <= 1e-15
    assert np.max(np.abs(ys[-1] - np.linalg.matrix_power(step, n_steps) @ y0)) <= 1e-14
    # any state shape: the rows are stacked states
    ys = fluid._rk4(lambda y: -y, np.ones((2, 3)), h, 2)
    assert ys.shape == (3, 2, 3) and np.all(ys[0] == 1.0)


def test_system_trajectory_is_the_only_large_allocation():
    pmf = poisson(200.0)
    tracemalloc.start()
    try:
        system = solve_full_system(pmf, pmf, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of states copied into an array at the end peaks near 2x
    assert peak <= 1.25 * (system.free.nbytes + system.saturated.nbytes)
    assert system.free.shape == system.saturated.shape == (len(system.t), pmf.k_max + 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_system_refuses_a_state_not_finite_or_negative(monkeypatch, value):
    monkeypatch.setattr(fluid, "_system_drift",
                        lambda pmf_u, pmf_v: lambda y: np.full_like(y, value))
    with pytest.raises(RuntimeError, match=r"at sigma-step 1 of 231$"):
        solve_full_system(regular(4), regular(4), 1e-3)


def test_characteristics_identity_at_time_zero():
    pmf = regular(4)
    system = solve_full_system(pmf, pmf, 1e-3)
    for s in (0.0, 0.3, 0.8, 1.0):
        lhs = sum(system.free[0][i] * s**i for i in range(pmf.k_max + 1))
        assert abs(lhs - pmf.pgf(s)) <= 1e-12


def test_characteristics_report_small_discrepancy():
    report = verify_characteristics(regular(4), regular(4), samples=50,
                                    step=1e-3, seed=1)
    assert report.max_discrepancy <= 5e-4
    assert len(report.t_values) == 50
    assert np.all(report.lhs >= -1e-9) and np.all(report.rhs >= -1e-9)


@pytest.mark.parametrize("pmf", [regular(4), poisson(4.0)], ids=["regular-4", "poisson-4"])
def test_characteristics_hermite_read_off_is_precise(pmf):
    # a linear read of the system on its sigma grid lands near 1e-5
    report = verify_characteristics(pmf, pmf, samples=100, step=1e-4, seed=0)
    assert report.max_discrepancy <= 1e-8


def _characteristic_by_rk4(pmf_u, pmf_v, t_max, step):
    """RK4 of F' = exp(-mean_v t) h_v(1 - phi_u'(1 - F)/mean_u), F(0) = 0, in
    t, through the public pgf_deriv and h_ratio: (t grid, F on it)."""
    mu_u, mu_v = pmf_u.mean, pmf_v.mean

    def slope(t, F):
        q = 1.0 - pmf_u.pgf_deriv(min(max(1.0 - F, 0.0), 1.0), 1) / mu_u
        return math.exp(-mu_v * t) * pmf_v.h_ratio(min(max(q, 0.0), 1.0))

    n = math.ceil(t_max / step)
    h = t_max / n
    F = [0.0]
    for i in range(n):
        t, y = i * h, F[-1]
        k1 = slope(t, y)
        k2 = slope(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = slope(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = slope(t + h, y + h * k3)
        F.append(y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
    return np.arange(n + 1) * h, np.array(F)


@pytest.mark.parametrize("pmf_u, pmf_v", [
    (regular(4), regular(4)),
    (poisson(4.0), poisson(4.0)),
    (regular(3), poisson(2.0)),
], ids=["regular-4", "poisson-4", "regular-3/poisson-2"])
def test_characteristic_is_the_capless_curve_in_warped_time(pmf_u, pmf_v):
    # F(t) = G(1 - exp(-mean_v t)), up to the time the density system's
    # last point warps back to
    system = solve_full_system(pmf_u, pmf_v, 1e-3)
    tau_end = float(system.t[-1])
    t_max = -math.log(1.0 - tau_end * pmf_v.mean / pmf_u.mean) / pmf_v.mean
    ts, F = _characteristic_by_rk4(pmf_u, pmf_v, t_max, 1e-4)
    curve = solve_G_capless(pmf_u, pmf_v, 1e-4)
    G = curve.g_at(1.0 - np.exp(-pmf_v.mean * ts))
    assert np.max(np.abs(F - G)) <= 1e-8
    # and the transport solution the check reports is built on that F
    report = verify_characteristics(pmf_u, pmf_v, step=1e-4, system=system)
    decay = np.exp(-pmf_v.mean * report.t_values)
    f_at = np.interp(report.t_values, ts, F)
    rhs = pmf_u.pgf(np.clip((report.s_values - 1.0) * decay + 1.0 - f_at, 0.0, 1.0))
    assert np.max(np.abs(report.rhs - rhs)) <= 1e-8


def test_characteristics_detects_a_perturbed_system():
    pmf = regular(4)
    system = solve_full_system(pmf, pmf, 1e-3)
    report = verify_characteristics(pmf, pmf, step=1e-3, seed=1, system=system)
    assert report.max_discrepancy <= 5e-4
    free = system.free.copy()
    free[:, 2] += 1e-3
    bent = SystemTrajectory(t=system.t, free=free, saturated=system.saturated)
    report = verify_characteristics(pmf, pmf, step=1e-3, seed=1, system=bent)
    assert report.max_discrepancy > 5e-4


@pytest.mark.parametrize("solved_for, read_with, words", [
    # numpy's matmul "core dimension" error before
    ((regular(3), regular(3)), (regular(4), regular(4)), "width"),
    # a log1p warning, then "s must be real numbers in [0, 1]" before
    ((regular(4), poisson(2.0)), (regular(4), regular(4)), "ends at t"),
], ids=["narrower", "longer"])
def test_characteristics_reject_a_system_of_other_laws(solved_for, read_with, words):
    system = solve_full_system(*solved_for, 1e-3)
    with pytest.raises(ValueError, match=f"^system .*{words}"):
        verify_characteristics(*read_with, step=1e-3, system=system)


def test_characteristics_step_obeys_the_g_solver_bound():
    with pytest.raises(ValueError):
        verify_characteristics(regular(4), regular(4), step=2e-2)


# ---------------------------------------------------------------------------
# model comparison


def test_compare_identical_models():
    res = compare_models(regular(4), regular(4), regular(4), step=1e-3)
    assert res.endpoint_1 == res.endpoint_2
    assert res.ordered


def test_compare_poisson_vs_regular_online_side():
    res = compare_models(regular(4), poisson(4.0), regular(4), step=1e-3)
    assert res.ordered
    assert res.endpoint_2 >= res.endpoint_1


def test_compare_spread_vs_regular_online_side():
    spread = explicit([0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5])
    res = compare_models(regular(4), spread, regular(4), step=1e-3)
    assert res.ordered


def test_compare_rejects_failed_hypothesis():
    with pytest.raises(ValueError):
        compare_models(regular(4), regular(4), poisson(4.0), step=1e-3)
    with pytest.raises(ValueError):
        compare_models(regular(4), regular(4), regular(3), step=1e-3)


# ---------------------------------------------------------------------------
# I/O and deviation metric


def test_write_fluid_csv_format(tmp_path):
    curve = solve_G_capless(regular(2), regular(2), 1e-2)
    path = tmp_path / "curve.csv"
    write_fluid_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# model_u=regular-2 model_v=regular-2")
    assert lines[1] == "s,G,matched"
    assert len(lines) == 2 + len(curve.grid)


def test_sup_deviation_is_small_for_large_runs():
    pmf = regular(4)
    curve = solve_G_capless(pmf, pmf, 1e-3)
    seq = sample_degree_sequences(pmf, pmf, 10_000, seed=0)
    traj = run_policy(seq, None, GREEDY, seed=0)
    assert sup_deviation(traj, curve) <= 0.02
