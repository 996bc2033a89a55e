"""One whole-number rule for every count and seed the library takes, and one
rule for every real: each entry point rejects a value that is not one,
naming the argument, and runs a legal value exactly as its int or float."""

import math

import numpy as np
import pytest

from cmatch import explicit, poisson, regular
from cmatch.bench_cli import ExperimentConfig
from cmatch.fluid import (CapacityProfile, closed_form_2regular, closed_form_er,
                          solve_full_system, solve_G_capless, verify_characteristics)
from cmatch.matching import (BIASED_GREEDY, GREEDY, final_matched_counts,
                             histograms_at, matched_fraction_at, run_policy)
from cmatch.offline import max_b_matching
from cmatch.stream import (DegreeSequencePair, build_full_graph, decision_stream,
                           pair_half_edges, pairing_stream, sample_degree_sequences)

SEQ = DegreeSequencePair.from_degrees([2, 1], [1, 1, 1])
SYSTEM = solve_full_system(regular(2), regular(2), 1e-3)

# (argument name, lowest legal value, the call with the count put in place),
# each call reduced to plain values that compare with ==
DOORS = {
    "from_degrees": ("deg_u", 0, lambda x: DegreeSequencePair.from_degrees(
        [x], [1]).deg_u.tolist()),
    "sample_degree_sequences": ("n", 1, lambda x: sample_degree_sequences(
        regular(2), poisson(2.0), x, seed=0).deg_v.tolist()),
    "pair_half_edges": ("runs", 1, lambda x: pair_half_edges(
        SEQ, pairing_stream(0), x).tolist()),
    "run_policy": ("checkpoint_every", 1, lambda x: run_policy(
        SEQ, None, GREEDY, 0, checkpoint_every=x).report_steps),
    "final_matched_counts": ("runs", 1, lambda x: final_matched_counts(
        SEQ, None, runs=x, seed=0).tolist()),
    "regular": ("d", 1, lambda x: (regular(x).label, regular(x).probs.tolist())),
    "pgf_deriv": ("order", 1, lambda x: regular(3).pgf_deriv(0.3, x)),
    "CapacityProfile.fixed": ("C", 1, lambda x: (
        CapacityProfile.fixed(x).label, CapacityProfile.fixed(x).p.tolist())),
    "verify_characteristics": ("samples", 1, lambda x: verify_characteristics(
        regular(2), regular(2), samples=x, step=1e-2, system=SYSTEM).lhs.tolist()),
    "CapacityProfile.capacities": ("n", 1, lambda x: CapacityProfile.from_fractions(
        [0.5, 0.5]).capacities(x).tolist()),
}

BAD = {"fraction": 2.5, "bool": True, "string": "3", "none": None,
       "array": np.array([2]), "past-int64": 2**64}


# None is checkpoint_every's default, which reports steps 0 and T only
@pytest.mark.parametrize("door, bad", [
    pytest.param(door, bad, id=f"{door}-{bad}") for door in DOORS
    for bad in [*BAD, "below-low"] if (door, bad) != ("run_policy", "none")])
def test_a_value_that_is_no_count_raises_naming_the_argument(door, bad):
    name, low, call = DOORS[door]
    value = low - 1 if bad == "below-low" else BAD[bad]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


@pytest.mark.parametrize("legal", [np.int64(2), 2.0], ids=["int64", "whole-float"])
@pytest.mark.parametrize("door", DOORS)
def test_a_legal_count_runs_exactly_as_its_int(door, legal):
    _, _, call = DOORS[door]
    assert call(legal) == call(2)


@pytest.mark.parametrize("deg_u, deg_v, match", [
    ([True, 2], [1], "deg_u must be whole numbers, got True"),
    ([1], [2, True], "deg_v must be whole numbers, got True"),
    ([np.True_, 2.0], [1], "deg_u must be whole numbers, got True"),
    ([2, 1.5], [1], r"deg_u must be whole numbers, got 1\.5"),
])
def test_degree_lists_mixing_bools_or_fractions_raise(deg_u, deg_v, match):
    # numpy upcasts [True, 2] to int64, and the int64 cast truncated 1.5
    with pytest.raises(ValueError, match=match):
        DegreeSequencePair.from_degrees(deg_u, deg_v)


def test_degrees_are_copied_bounded_and_one_dimensional():
    raw = np.array([2, 1])
    seq = DegreeSequencePair.from_degrees(raw, [1])
    raw[0] = 5
    assert seq.deg_u.tolist() == [2, 1] and not seq.deg_u.flags.writeable
    assert DegreeSequencePair.from_degrees([10**6], [1]).pad_v == 10**6 - 1
    for deg, match in ((10**6 + 1, "1000001"), (2**63, "9223372036854775808")):
        with pytest.raises(ValueError, match=f"deg_v must be at most 1000000, got {match}"):
            DegreeSequencePair.from_degrees([1], [deg])
    with pytest.raises(ValueError, match="1-D"):
        DegreeSequencePair.from_degrees(3, [1])


def test_a_step_that_is_no_count_raises_and_a_whole_step_outside_keyerror():
    traj = run_policy(SEQ, None, GREEDY, 0)
    for legal in (1.0, np.int64(1)):
        assert histograms_at(traj, legal) == histograms_at(traj, 1)
    for bad in (True, 1.5, "1", None, np.array([1]), 2**64):
        with pytest.raises(ValueError, match=rf"^step must be an integer in "
                                             rf"0\.\.{traj.n_arrivals}, got "):
            histograms_at(traj, bad)
    # callers read a KeyError as "no such step"
    for outside in (-1, -1.0, np.int64(4), 2**62):
        with pytest.raises(KeyError):
            histograms_at(traj, outside)


def _ranking_run(seed):
    traj = run_policy(SEQ, None, "ranking", seed=seed)
    return traj.seed, type(traj.seed), traj.chosen.tolist()


# Seeds are counts >= 0: each door's call with the seed put in place
SEED_DOORS = {
    "pairing_stream": lambda x: pairing_stream(x).integers(10**9, size=3).tolist(),
    "decision_stream": lambda x: decision_stream(x).getrandbits(64),
    "build_full_graph": lambda x: build_full_graph(SEQ, x).row.tolist(),
    "sample_degree_sequences": lambda x: sample_degree_sequences(
        poisson(2.0), poisson(2.0), 20, seed=x).deg_v.tolist(),
    "run_policy": _ranking_run,
    "final_matched_counts": lambda x: final_matched_counts(
        SEQ, None, runs=5, seed=x).tolist(),
    "verify_characteristics": lambda x: verify_characteristics(
        regular(2), regular(2), samples=3, step=1e-2, seed=x, system=SYSTEM).lhs.tolist(),
}

# The values no real door and no seed door takes; each door adds the
# values outside its bounds.
NOT_REAL = {"bool": True, "string": "0.5", "none": None, "nan": math.nan,
            "inf": math.inf, "array": np.array([0.5])}


@pytest.mark.parametrize("door, bad", [
    pytest.param(door, bad, id=f"{door}-{bad}") for door in SEED_DOORS
    for bad in [*NOT_REAL, "negative", "fraction"]])
def test_a_seed_that_is_no_count_raises_naming_it(door, bad):
    value = {**NOT_REAL, "negative": -1, "fraction": 2.5}[bad]
    with pytest.raises(ValueError, match=r"\bseed\b"):
        SEED_DOORS[door](value)


@pytest.mark.parametrize("legal", [np.int64(2), 2.0], ids=["int64", "whole-float"])
@pytest.mark.parametrize("door", SEED_DOORS)
def test_a_legal_seed_runs_exactly_as_its_int(door, legal):
    assert SEED_DOORS[door](legal) == SEED_DOORS[door](2)


SEQ_2 = sample_degree_sequences(regular(2), regular(2), 30, seed=0)
TRAJ = run_policy(SEQ_2, None, GREEDY, 0)

# (argument name, values outside the bounds, a legal float, a legal whole
# value or None, the call with the real put in place), each call reduced to
# plain values that compare with ==
REAL_DOORS = {
    "poisson": ("c", (0, -1.0, 10**6, 10**400), 2.5, 2,
                lambda x: (poisson(x).label, poisson(x).probs.tolist())),
    "solve_G_capless": ("step", (0, 0.5, 1e-7), 2e-3, None,
                        lambda x: solve_G_capless(regular(2), poisson(2.0), x).G.tolist()),
    "solve_full_system": ("step", (0, -1e-3, 0.5), 1e-3, None, lambda x: solve_full_system(
        regular(2), poisson(2.0), x).free.tolist()),
    "run_policy": ("bias", (-0.5, 1.5), 0.25, 1, lambda x: run_policy(
        SEQ_2, None, BIASED_GREEDY, 0, bias=x).chosen.tolist()),
    "matched_fraction_at": ("s", (-0.5, 1.5), 0.5, 1,
                            lambda x: matched_fraction_at(TRAJ, x)),
    "closed_form_2regular": ("s", (-0.5, 1.5), 0.5, 1, closed_form_2regular),
    "closed_form_er": ("c", (0, -2.0), 0.5, 2, closed_form_er),
    "h_ratio": ("q", (-0.5, 1.5), 0.5, 1, lambda x: poisson(2.0).h_ratio(x)),
    # pgf takes arrays too, see test_evaluation_arrays_hold_real_points
    "pgf": ("s", (-0.5, 1.5), 0.5, 1, lambda x: poisson(2.0).pgf(x)),
    "cli": ("step", (0, 0.5, 1e-7), 2e-3, None,
            lambda x: ExperimentConfig(step=x).validate().step),
}


@pytest.mark.parametrize("door, bad", [
    pytest.param(door, bad, id=f"{door}-{bad}") for door, spec in REAL_DOORS.items()
    for bad in [*NOT_REAL, *range(len(spec[1]))] if (door, bad) != ("pgf", "array")])
def test_a_value_that_is_no_real_raises_naming_the_argument(door, bad):
    name, outside, _, _, call = REAL_DOORS[door]
    value = outside[bad] if isinstance(bad, int) else NOT_REAL[bad]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


@pytest.mark.parametrize("door", REAL_DOORS)
def test_a_legal_real_runs_exactly_as_its_float_or_int(door):
    _, _, real, whole, call = REAL_DOORS[door]
    assert call(np.float64(real)) == call(float(real))
    if whole is not None:
        assert call(np.int64(whole)) == call(int(whole)) == call(float(whole))


def test_evaluation_arrays_hold_real_points():
    law = poisson(2.0)
    assert law.pgf(np.array([0.5])).tolist() == [law.pgf(0.5)]
    assert law.pgf_deriv(np.array([0.5]), 30).tolist() == [0.0]
    for bad in (np.array([math.nan]), np.array([0.5, 1.5]), np.array(["0.5"]),
                np.array([True])):
        for call in (law.pgf, law.pgf_deriv):
            with pytest.raises(ValueError, match=r"\bs must be real numbers in \[0, 1\]"):
                call(bad)
    # pgf_deriv above k_max is 0, but judges its point first
    with pytest.raises(ValueError, match=r"\bs\b"):
        regular(2).pgf_deriv("0.5", 5)


@pytest.mark.parametrize("call, name", [
    (lambda x: explicit(x), "probs"),
    (lambda x: CapacityProfile.from_fractions(x), "fractions"),
], ids=["explicit", "from_fractions"])
@pytest.mark.parametrize("masses", [[0, True], [np.True_, 0.0], [True], ["0.5", "0.5"],
                                    [None, 1.0], [10**400]],
                         ids=["bool", "numpy-bool", "only-bool", "strings", "none",
                              "giant-int"])
def test_masses_must_be_real_numbers(call, name, masses):
    # numpy upcasts [0, True] to int64: both built a law with a mass of 1
    with pytest.raises(ValueError, match=rf"^{name} must be real numbers, got"):
        call(masses)


@pytest.mark.parametrize("call, name", [
    (lambda x: explicit(x), "probs"),
    (lambda x: CapacityProfile.from_fractions(x), "fractions"),
    (lambda x: DegreeSequencePair.from_degrees(x, [1, 2]), "deg_u"),
    (lambda x: DegreeSequencePair.from_degrees([1, 2], x), "deg_v"),
    (lambda x: run_policy(SEQ, x), "capacities"),
    (lambda x: max_b_matching(build_full_graph(SEQ, 0), x), "capacities"),
], ids=["explicit", "from_fractions", "deg_u", "deg_v", "run_policy", "max_b_matching"])
def test_ragged_input_raises_naming_the_argument(call, name):
    # numpy's own "inhomogeneous shape" error names no argument
    with pytest.raises(ValueError, match=rf"^{name} must not be ragged"):
        call([[1], [1, 2]])
