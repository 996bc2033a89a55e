"""One whole-number rule for every count the library takes: each entry point
that reads a count rejects a value that is not one, naming the argument,
and runs a legal value exactly as its int."""

import numpy as np
import pytest

from cmatch import poisson, regular
from cmatch.fluid import CapacityProfile, solve_full_system, verify_characteristics
from cmatch.matching import GREEDY, final_matched_counts, run_policy
from cmatch.stream import (DegreeSequencePair, pair_half_edges, pairing_stream,
                           sample_degree_sequences)

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
