"""Degree-law construction, generating series, moments and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from cmatch.degrees import dominates, explicit, poisson, regular


def pmf_zoo():
    return [
        regular(1),
        regular(2),
        regular(5),
        poisson(1.0),
        poisson(4.0),
        explicit([0.0, 0.25, 0.5, 0.25]),
        explicit([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]),
    ]


# ---------------------------------------------------------------------------
# constructors


def test_regular_point_mass():
    p = regular(2)
    assert list(p.probs) == [0.0, 0.0, 1.0]
    assert p.mean == 2.0
    assert p.variance == 0.0


def test_regular_degree_one():
    p = regular(1)
    assert list(p.probs) == [0.0, 1.0]
    assert p.mean == 1.0


def test_regular_pgf_is_power():
    p = regular(4)
    for s in (0.0, 0.3, 0.7, 1.0):
        assert p.pgf(s) == pytest.approx(s**4, abs=1e-15)


def test_regular_rejects_zero():
    with pytest.raises(ValueError):
        regular(0)


def test_poisson_truncation_keeps_mean():
    p = poisson(4.0)
    assert 4.0 - 1e-9 <= p.mean <= 4.0


def test_poisson_mass_at_zero():
    p = poisson(1.0)
    assert p.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_poisson_pgf_matches_exponential():
    p = poisson(4.0)
    for s in np.linspace(0.0, 1.0, 21):
        assert p.pgf(float(s)) == pytest.approx(math.exp(4.0 * (s - 1.0)), abs=1e-9)


def test_poisson_large_mean():
    # exp(-c) underflows past c ~ 745; the terms are built in log space
    for c in (745.0, 746.0, 1000.0):
        assert abs(poisson(c).mean - c) <= 1e-6


def test_poisson_rejects_bad_parameters():
    with pytest.raises(ValueError):
        poisson(0.0)
    with pytest.raises(ValueError):
        poisson(-1.0)


def test_explicit_renormalizes_within_tolerance():
    p = explicit([0.25, 0.75 + 5e-10])
    assert abs(p.probs.sum() - 1.0) <= 1e-12


def test_explicit_rejects_bad_mass():
    with pytest.raises(ValueError):
        explicit([0.3, 0.3])
    with pytest.raises(ValueError):
        explicit([1.2, -0.2])
    # NaN fails every comparison, so the sum check alone would let it pass
    for probs in ([0.5, math.nan, 0.5], [math.nan], [math.inf, 0.5],
                  [0.5, -math.inf, 1.5]):
        with pytest.raises(ValueError, match="finite"):
            explicit(probs)


def test_explicit_trims_trailing_zeros():
    p = explicit([0.0, 1.0, 0.0, 0.0])
    assert p.k_max == 1


def test_explicit_support_is_bounded_after_trimming():
    # the bound every law has; explicit built k_max = 1,000,001 unchecked
    with pytest.raises(ValueError, match="1000001, past 1000000"):
        explicit([0.0] * (10**6 + 1) + [1.0])
    assert explicit([1.0] + [0.0] * (10**6 + 1)).k_max == 0


# ---------------------------------------------------------------------------
# generating series


def test_pgf_examples():
    assert regular(2).pgf(0.5) == 0.25
    assert poisson(4.0).pgf(0.5) == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_pgf_rejects_out_of_range():
    with pytest.raises(ValueError):
        regular(2).pgf(1.5)
    with pytest.raises(ValueError):
        regular(2).pgf(-0.2)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_pgf_normalization(pmf):
    assert abs(pmf.probs.sum() - 1.0) <= 1e-12
    assert pmf.pgf(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_pgf_monotone_and_convex(pmf):
    grid = np.linspace(0.0, 1.0, 101)
    vals = pmf.pgf(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(np.diff(vals, 2) >= -1e-10)


def test_pgf_deriv_examples():
    assert regular(3).pgf_deriv(1.0, 1) == pytest.approx(3.0, abs=1e-12)
    assert regular(3).pgf_deriv(0.5, 2) == pytest.approx(3.0, abs=1e-12)
    p = poisson(2.0)
    assert p.pgf_deriv(0.7, 1) == pytest.approx(2.0 * math.exp(2.0 * (0.7 - 1.0)), abs=1e-9)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_pgf_deriv_at_one_is_mean(pmf):
    assert pmf.pgf_deriv(1.0, 1) == pytest.approx(pmf.mean, abs=1e-12)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_pgf_deriv_matches_finite_differences(pmf):
    eps = 1e-6
    for s in (0.2, 0.5, 0.8):
        fd = (pmf.pgf(s + eps) - pmf.pgf(s - eps)) / (2.0 * eps)
        assert abs(fd - pmf.pgf_deriv(s, 1)) <= 10.0 * eps * pmf.k_max**2


def test_pgf_deriv_beyond_support_is_zero():
    assert regular(3).pgf_deriv(0.5, 4) == 0.0
    arr = regular(3).pgf_deriv(np.array([0.1, 0.9]), 7)
    assert np.all(arr == 0.0)


def test_pgf_deriv_rejects_order_zero():
    with pytest.raises(ValueError):
        regular(3).pgf_deriv(0.5, 0)


# ---------------------------------------------------------------------------
# h ratio


def test_h_ratio_examples():
    assert regular(2).h_ratio(0.0) == 1.0
    assert regular(2).h_ratio(0.5) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_h_ratio_at_one_is_mean(pmf):
    assert pmf.h_ratio(1.0) == pmf.mean


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_h_ratio_continuous_at_one(pmf):
    assert abs(pmf.h_ratio(1.0 - 1e-8) - pmf.mean) <= 1e-6


def test_h_ratio_keeps_a_tiny_tail():
    # h is the constant 3.5e-88 here; tail sums formed as 1 - cdf cancel to
    # 0, and so does the ratio form (1 - phi(q)) / (1 - q)
    pmf = explicit([1.0, 3.5e-88])
    assert pmf.h_ratio(0.5) == pytest.approx(3.5e-88, rel=1e-12, abs=0.0)
    assert pmf.h_ratio(1.0 - 1e-8) == pytest.approx(3.5e-88, rel=1e-12, abs=0.0)
    assert pmf.h_ratio(1.0) == pytest.approx(3.5e-88, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pmf", pmf_zoo())
def test_h_ratio_matches_the_ratio_form_just_below_one(pmf):
    # just below 1, where the ratio form starts to cancel, it still agrees
    q = 1.0 - 0.5e-7
    rational = (1.0 - pmf.pgf(q)) / (1.0 - q)
    assert abs(pmf.h_ratio(q) - rational) <= 1e-6


# ---------------------------------------------------------------------------
# one Horner core for scalar and array points

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


@st.composite
def explicit_laws(draw):
    """Explicit laws with k_max <= 30."""
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=31)
                      .filter(lambda w: sum(w) > 1e-3)))
    return explicit(w / w.sum())


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


@_PROPERTY
@given(explicit_laws(), st.floats(0.0, 1.0))
def test_pgf_and_derivs_match_polyder_at_scalar_and_array_points(pmf, x):
    # polyder of the raw probabilities is an independent reference; every
    # order past k_max is the zero polynomial
    for order in range(pmf.k_max + 3):
        value = pmf.pgf(x) if order == 0 else pmf.pgf_deriv(x, order)
        assert _close(value, polyval(x, polyder(pmf.probs, order)))
        at = np.array([x, 0.5 * x])
        values = pmf.pgf(at) if order == 0 else pmf.pgf_deriv(at, order)
        assert values[0] == value


@_PROPERTY
@given(explicit_laws(), st.floats(0.0, 1.0 - 2e-7),
       st.floats(1.0 - 0.5e-7, 1.0, exclude_max=True))
def test_scalar_h_ratio_matches_tail_polynomial_below_and_near_one(pmf, below, inside):
    # h(1) is the mean by definition; test_h_ratio_at_one_is_mean covers it.
    # The reference is the tail polynomial with correctly rounded tails; the
    # ratio form cancels near 1 and for tiny masses above 0.
    tail = [math.fsum(pmf.probs[j + 1:]) for j in range(pmf.k_max)]  # P(X > j)
    for q in (below, inside):
        assert _close(pmf.h_ratio(q), polyval(q, tail) if tail else 0.0)


def test_scalar_core_still_validates_public_calls():
    with pytest.raises(ValueError):
        poisson(4.0).pgf_deriv(1.5, 1)
    with pytest.raises(ValueError):
        poisson(4.0).h_ratio(-0.2)


# ---------------------------------------------------------------------------
# sampling


def test_sample_regular_is_constant():
    rng = np.random.default_rng(0)
    draws = regular(4).sample(rng, 1000)
    assert np.all(draws == 4)


def test_sample_scalar_returns_int():
    rng = np.random.default_rng(0)
    val = poisson(3.0).sample(rng)
    assert isinstance(val, int)


def test_sample_poisson_moments():
    rng = np.random.default_rng(12345)
    draws = poisson(4.0).sample(rng, 10**6)
    assert abs(draws.mean() - 4.0) <= 0.01
    assert abs(np.mean(draws == 0) - math.exp(-4.0)) <= 0.001


# ---------------------------------------------------------------------------
# dominance


def test_dominates_reflexive():
    assert dominates(regular(4), regular(4))


def test_dominates_poisson_over_regular():
    assert dominates(poisson(4.0), regular(4))
    assert not dominates(regular(4), poisson(4.0))


def test_dominates_rejects_unequal_means():
    with pytest.raises(ValueError):
        dominates(regular(4), regular(3))


def test_probs_are_read_only():
    p = regular(3)
    with pytest.raises(ValueError):
        p.probs[0] = 0.5
