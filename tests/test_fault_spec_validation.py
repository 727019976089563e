"""``FaultSpec`` and ``FaultConfig`` take only values that can fire.

A spec field of the wrong type used to parse and then never match: a
crash of rank ``"3"`` never fires, because the oracle looks up the int.
Every field is now checked on construction; a mutant of a valid spec —
a type swap, a bool, a numeric string, NaN/inf, a negative — raises a
``ValueError`` naming the field.  The same holds for the generation
template: a bare-string ``fs_error_ops`` used to become a tuple of its
characters, whose drawn ops never match an FS call.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, SpecError
from repro.faults import FAULT_KINDS, FaultConfig, FaultSchedule, FaultSpec
from repro.sim import StreamRegistry

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


# -- FaultConfig: the generation template --------------------------------------

COUNT_FIELDS = ("fs_errors", "fs_stalls", "stall_seconds", "degrade_duration")
UNIT_FIELDS = ("fs_fatal_fraction", "writer_crash_prob", "buffer_loss_prob",
               "replica_corrupt_prob", "net_degrade_prob")
POSITIVE_FIELDS = ("degrade_factor", "horizon")


@st.composite
def valid_configs(draw):
    d = {}
    for name in COUNT_FIELDS + POSITIVE_FIELDS:
        if draw(st.booleans()):
            d[name] = draw(st.one_of(
                st.integers(name in POSITIVE_FIELDS, 10**4),
                st.floats(0.0, 1e4, exclude_min=name in POSITIVE_FIELDS)))
    for name in UNIT_FIELDS:
        if draw(st.booleans()):
            d[name] = draw(st.one_of(st.sampled_from([0, 1]),
                                     st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        d["fs_error_ops"] = draw(st.lists(
            st.sampled_from(["create", "open", "write", "close", "read"]),
            min_size=1, max_size=4))
    return d


def bad_config_values(name):
    """Values ``FaultConfig`` field ``name`` must refuse."""
    if name == "fs_error_ops":
        return st.one_of(st.sampled_from(["write", "create"]),
                         st.just([]), st.lists(st.integers(), min_size=1),
                         st.none(), st.integers())
    low = st.floats(max_value=0.0 if name in POSITIVE_FIELDS else -1e-300,
                    allow_infinity=False)
    bad = st.one_of(st.booleans(), numeric_strings, non_finite, low,
                    st.none(), st.lists(st.integers()))
    if name in UNIT_FIELDS:  # a probability above 1
        bad = st.one_of(bad, st.floats(1.0, 1e9, exclude_min=True))
    return bad


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_valid_configs_round_trip_and_generate(d):
    config = FaultConfig.from_dict(d)
    assert FaultConfig.from_dict(config.to_dict()) == config
    schedule = FaultSchedule.generate(StreamRegistry(1), 64, config)
    assert {s.op for s in schedule.by_kind("fs_error")} <= set(
        config.fs_error_ops)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_mutant_of_a_valid_config_raises(data):
    d = data.draw(valid_configs())
    name = data.draw(st.sampled_from(
        ["fs_error_ops", *COUNT_FIELDS, *UNIT_FIELDS, *POSITIVE_FIELDS]))
    mutant = {**d, name: data.draw(bad_config_values(name))}
    with pytest.raises(ValueError, match=name):
        FaultConfig.from_dict(mutant)


@pytest.mark.parametrize("d,name", [
    ({"fs_errors": 3, "fs_error_ops": "write"}, "fs_error_ops"),
    ({"fs_errors": -3}, "fs_errors"),
    ({"writer_crash_prob": 2.0}, "writer_crash_prob"),
    ({"fs_errors": math.nan}, "fs_errors"),
])
def test_configs_that_never_fire_or_fail_untyped_are_rejected(d, name):
    with pytest.raises(ValueError, match=name):
        FaultConfig.from_dict(d)
    with pytest.raises(SpecError, match=r"faults\.generate.*" + name):
        CampaignSpec.from_dict({
            "name": "x", "grid": {"approaches": ["rbio_ng"], "np": [128],
                                  "fault_rates": [1.0]},
            "faults": {"generate": d}})
