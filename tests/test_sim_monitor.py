"""Unit tests for measurement helpers (Tally, TimeSeries, IntervalRecorder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import IntervalRecorder, Tally, TimeSeries


# ---------------------------------------------------------------------------
# Tally
# ---------------------------------------------------------------------------

def test_tally_basic_stats():
    t = Tally()
    t.extend([1.0, 2.0, 3.0, 4.0])
    assert t.count == 4
    assert t.total == 10.0
    assert t.min == 1.0
    assert t.max == 4.0
    assert t.mean == pytest.approx(2.5)
    assert t.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))


def test_tally_empty_defaults():
    t = Tally()
    assert t.count == 0
    assert t.mean == 0.0
    assert t.variance == 0.0


def test_tally_single_observation():
    t = Tally()
    t.add(7.0)
    assert t.mean == 7.0
    assert t.variance == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
@settings(max_examples=100, deadline=None)
def test_tally_matches_numpy_property(xs):
    t = Tally()
    t.extend(xs)
    assert t.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
    assert t.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-4)
    assert t.min == min(xs)
    assert t.max == max(xs)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_timeseries_record_and_arrays():
    ts = TimeSeries("bw")
    ts.record(0.0, 1.0)
    ts.record(1.0, 2.0)
    t, v = ts.as_arrays()
    assert list(t) == [0.0, 1.0]
    assert list(v) == [1.0, 2.0]
    assert len(ts) == 2


def test_timeseries_rejects_backwards_time():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 1.0)


# ---------------------------------------------------------------------------
# IntervalRecorder
# ---------------------------------------------------------------------------

def test_intervals_activity_counts_overlaps():
    rec = IntervalRecorder()
    rec.record(0.0, 2.0, "a")
    rec.record(1.0, 3.0, "b")
    starts, counts = rec.activity(1.0)
    # Bins [0,1): a only; [1,2): a+b; [2,3): b only.
    assert list(counts) == [1, 2, 1]


def test_intervals_span_and_busy_time():
    rec = IntervalRecorder()
    rec.record(1.0, 2.0)
    rec.record(4.0, 7.0)
    assert rec.span == (1.0, 7.0)


def test_intervals_reject_inverted():
    rec = IntervalRecorder()
    with pytest.raises(ValueError):
        rec.record(2.0, 1.0)


def test_intervals_zero_length_counts_in_one_bin():
    rec = IntervalRecorder()
    rec.record(0.5, 0.5)
    rec.record(0.0, 1.0)
    starts, counts = rec.activity(1.0)
    assert counts[0] == 2


def test_intervals_empty_activity():
    rec = IntervalRecorder()
    starts, counts = rec.activity(1.0)
    assert len(starts) == 0 and len(counts) == 0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_intervals_activity_conserves_total_property(spans):
    """Max concurrent activity never exceeds interval count; bins cover span."""
    rec = IntervalRecorder()
    for start, dur in spans:
        rec.record(start, start + dur)
    starts, counts = rec.activity(1.0)
    assert counts.max() <= len(spans)
    assert counts.min() >= 0


# ---------------------------------------------------------------------------
# pow2_histogram
# ---------------------------------------------------------------------------

def test_pow2_histogram_labels_and_counts():
    from repro.sim import pow2_histogram

    # Keys are bit_length bins as produced by the engine's hot loops.
    raw = {0: 2, 1: 5, 2: 3, 4: 7, 7: 1}
    out = pow2_histogram(raw)
    assert out == {"0": 2, "1": 5, "2-3": 3, "8-15": 7, "64-127": 1}


def test_pow2_histogram_empty():
    from repro.sim import pow2_histogram

    assert pow2_histogram({}) == {}


def test_pow2_histogram_negative_bins_collapse_to_zero_label():
    from repro.sim import pow2_histogram

    # Defensive: bit_length is never negative, but a negative key must
    # not crash or invent a bogus range — it merges into the "0" label
    # (last writer wins dict-insertion; both map to the same key).
    out = pow2_histogram({-3: 1, 0: 2})
    assert out == {"0": 2}
    assert pow2_histogram({-1: 4}) == {"0": 4}


def test_pow2_histogram_max_bucket_overflow():
    from repro.sim import pow2_histogram

    # A terabyte-scale drain lands in bit_length 41; the label must be
    # the exact power-of-two range with no float rounding artifacts.
    out = pow2_histogram({41: 3, 64: 1})
    assert out[f"{1 << 40}-{(1 << 41) - 1}"] == 3
    assert out[f"{1 << 63}-{(1 << 64) - 1}"] == 1
    # Labels are exact integers even beyond float53 precision.
    assert str((1 << 64) - 1) in list(out)[-1]


def test_pow2_histogram_preserves_bin_order():
    from repro.sim import pow2_histogram

    out = pow2_histogram({7: 1, 1: 2, 4: 3})
    assert list(out) == ["1", "8-15", "64-127"]


def test_intervals_identical_overlaps_all_counted():
    # Coalesce expansion replays one representative interval per member:
    # N identical intervals must rasterise to concurrency N, not 1.
    rec = IntervalRecorder()
    for tag in range(4):
        rec.record(1.0, 2.0, tag)
    starts, counts = rec.activity(0.5)
    assert counts.tolist() == [4, 4]
    assert starts.tolist() == [1.0, 1.5]


def test_intervals_bin_width_larger_than_span():
    rec = IntervalRecorder()
    rec.record(0.0, 0.25, "a")
    rec.record(0.1, 0.2, "b")
    starts, counts = rec.activity(10.0)
    assert len(starts) == 1 and counts.tolist() == [2]


def test_intervals_partial_overlap_staircase():
    rec = IntervalRecorder()
    rec.record(0.0, 2.0, 0)
    rec.record(1.0, 3.0, 1)
    rec.record(2.0, 4.0, 2)
    starts, counts = rec.activity(1.0)
    # Bins [0,1) [1,2) [2,3) [3,4): overlap staircase 1-2-2-1.
    assert counts.tolist() == [1, 2, 2, 1]
    assert rec.span == (0.0, 4.0)


def test_intervals_activity_bad_bin_width():
    rec = IntervalRecorder()
    rec.record(0.0, 1.0)
    with pytest.raises(ValueError):
        rec.activity(0.0)
    with pytest.raises(ValueError):
        rec.activity(-1.0)
