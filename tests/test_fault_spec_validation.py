"""``FaultSpec`` takes only values that can fire.

A spec field of the wrong type used to parse and then never match: a
crash of rank ``"3"`` never fires, because the oracle looks up the int.
Every field is now checked on construction; a mutant of a valid spec —
a type swap, a bool, a numeric string, NaN/inf, a negative — raises a
``ValueError`` naming the field.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, SpecError
from repro.faults import FAULT_KINDS, FaultSpec

INT_FIELDS = {"rank": 0, "group": 0, "step": 0, "count": 1}
REAL_FIELDS = ("time", "duration", "delay", "factor")
#: What a kind cannot do without.
REQUIRED = {"rank_crash": "rank", "buffer_loss": "rank", "bit_rot": "group",
            "replica_corrupt": "group", "restart": "step"}

numeric_strings = st.one_of(st.integers(-10, 10**6).map(str),
                            st.floats(allow_nan=False).map(str))
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def valid_specs(draw):
    d = {"kind": draw(st.sampled_from(FAULT_KINDS))}
    for name, low in INT_FIELDS.items():
        if draw(st.booleans()):
            d[name] = draw(st.integers(low, 10**6))
    for name in REAL_FIELDS:
        if draw(st.booleans()):
            d[name] = draw(st.one_of(
                st.integers(name == "factor", 10**6),
                st.floats(0.0, 1e9, exclude_min=name == "factor")))
    if draw(st.booleans()):
        d["transient"] = draw(st.booleans())
    for name in ("op", "path"):
        if draw(st.booleans()):
            d[name] = draw(st.text(max_size=8))
    need = REQUIRED.get(d["kind"])
    if need is not None and need not in d:
        d[need] = draw(st.integers(0, 64))
    return d


def bad_values(name):
    """Values field ``name`` must refuse."""
    if name == "kind":
        return st.one_of(st.text(max_size=8).filter(
            lambda k: k not in FAULT_KINDS), st.integers(), st.none())
    if name in INT_FIELDS:
        return st.one_of(st.booleans(), numeric_strings, non_finite,
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(max_value=INT_FIELDS[name] - 1))
    if name in REAL_FIELDS:
        negative = st.floats(max_value=0.0 if name == "factor" else -1e-300,
                             allow_infinity=False)
        return st.one_of(st.booleans(), numeric_strings, non_finite,
                         negative, st.none(), st.lists(st.integers()))
    if name == "transient":
        return st.one_of(st.integers(), st.text(max_size=4), st.none())
    return st.one_of(st.integers(), st.floats(), st.booleans(),
                     st.binary(max_size=4))  # op / path


@settings(max_examples=300, deadline=None)
@given(valid_specs())
def test_valid_specs_round_trip(d):
    spec = FaultSpec.from_dict(d)
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    for name in REAL_FIELDS:
        assert type(getattr(spec, name)) is float


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_every_mutant_of_a_valid_spec_raises(data):
    d = data.draw(valid_specs())
    name = data.draw(st.sampled_from(
        ["kind", *INT_FIELDS, *REAL_FIELDS, "transient", "op", "path"]))
    mutant = {**d, name: data.draw(bad_values(name))}
    with pytest.raises(ValueError, match=name):
        FaultSpec.from_dict(mutant)


@pytest.mark.parametrize("d", [
    {"kind": "rank_crash", "rank": "3"},
    {"kind": "rank_crash", "rank": True},
    {"kind": "fs_error", "count": 2.5},
    {"kind": "fs_stall", "time": math.nan},
    {"kind": "fs_stall", "time": "1"},
    {"kind": "net_degrade", "factor": math.inf},
    {"kind": "bit_rot", "group": 1, "step": -5},
    {"kind": "replica_corrupt", "group": -1},
    {"kind": "fs_error", "transient": "no"},
    {"kind": "restart"},
])
def test_values_that_never_fire_are_rejected(d):
    with pytest.raises(ValueError):
        FaultSpec.from_dict(d)
    with pytest.raises(SpecError, match=r"faults\.specs\[0\]"):
        CampaignSpec.from_dict({
            "name": "x", "grid": {"approaches": ["rbio_ng"], "np": [128]},
            "faults": {"specs": [d]}})
