"""Unit tests for the perf-regression gate (tools/perf_gate.py).

The gate compares deterministic metrics in both directions and never
looks at host-time ones (those belong to ``python3 -m perfbench``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from perf_gate import compare_record, is_wall_metric  # noqa: E402


def record(**metrics):
    return {"scale": "smoke", "metrics": metrics}


def test_metric_classification():
    assert is_wall_metric("wall_seconds")
    assert is_wall_metric("events_per_second")
    assert not is_wall_metric("events_processed")
    assert not is_wall_metric("n_spans_full")
    # The object and memory budgets of a run are counts, gated alike.
    assert not is_wall_metric("tracked_objects_per_rank")
    assert not is_wall_metric("traced_peak_kib_per_rank")


def test_the_memory_leaf_is_gated_like_the_object_leaf():
    base = record(ckpt_rbio={"tracked_objects_per_rank": 1.49,
                             "traced_peak_kib_per_rank": 1.64})
    grown = record(ckpt_rbio={"tracked_objects_per_rank": 1.49,
                              "traced_peak_kib_per_rank": 2.2})
    assert compare_record("b", base, grown, 0.25)
    gone = record(ckpt_rbio={"tracked_objects_per_rank": 1.49})
    assert compare_record("b", base, gone, 0.25)


def test_deterministic_metrics_gated_both_directions():
    base = record(events=1000)
    assert compare_record("b", base, record(events=1400), 0.25)
    assert compare_record("b", base, record(events=600), 0.25)
    assert not compare_record("b", base, record(events=1100), 0.25)


def test_wall_metrics_never_gated():
    base = record(wall_seconds=1.0, events_per_second=1e6, events=10)
    cur = record(wall_seconds=10.0, events_per_second=1e3, events=10)
    assert not compare_record("b", base, cur, 0.25)
    # Not even a vanished one: a bench may stop recording host time.
    assert not compare_record("b", base, record(events=10), 0.25)


def test_vanished_metric_and_scale_mismatch_fail():
    base = record(events=10)
    assert compare_record("b", base, record(other=10), 0.25)
    cur = {"scale": "small", "metrics": {"events": 10}}
    problems = compare_record("b", base, cur, 0.25)
    assert "scale mismatch" in problems[0]
