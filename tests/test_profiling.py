"""Tests for Darshan-style profiling and the figure analyses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import OneFilePerProcess, ReducedBlockingIO
from repro.experiments import run_checkpoint_steps, scaled_problem
from repro.profiling import (
    DarshanProfiler,
    distribution_summary,
    io_time_distribution,
    write_activity,
    writer_worker_split,
)
from repro.topology import intrepid

QUIET = intrepid().quiet()


def test_record_and_select():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 1.0, 100, "/a")
    p.record_op(1, "read", 1.0, 2.0, 50, "/b")
    p.record_phase(2, "isend", 0.0, 0.1, 10)
    assert len(p.records) == 3
    assert len(p.select(["write"])) == 1
    assert len(p.select(path_prefix="/a")) == 1
    assert p.select(["app:isend"])[0].rank == 2


def test_per_rank_io_time_and_span():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 1.0, 1, "/a")
    p.record_op(0, "write", 5.0, 6.5, 1, "/a")
    p.record_op(1, "write", 0.0, 0.5, 1, "/b")
    t = p.per_rank_io_time(["write"])
    assert t[0] == pytest.approx(2.5)
    assert t[1] == pytest.approx(0.5)
    rank0 = [r for r in p.select(["write"]) if r.rank == 0]
    assert (rank0[0].start, rank0[-1].end) == (0.0, 6.5)


def test_reset_clears():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 1.0, 1, "/a")
    p.reset()
    assert len(p.records) == 0


def test_summary_fields():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 2.0, 100, "/a")
    s = p.summary()
    assert s["n_writes"] == 1
    assert s["bytes_written"] == 100
    assert s["max_rank_io_time"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The op log's views against a plain list of per-call records
# ---------------------------------------------------------------------------

_OPS = ("create", "open", "write", "read", "close")
_PHASES = ("isend", "stage", "drain")
_PATHS = ("/a/x", "/a/y", "/b/z")
_t = st.floats(0.0, 1e3, allow_nan=False)


@st.composite
def _log_calls(draw):
    """A random sequence of recording calls, members as a range or as a
    list in any order, with and without late ends."""
    calls = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(("op", "phase", "members", "reset")))
        start = draw(_t)
        end = start + draw(_t)
        nbytes = draw(st.integers(0, 1 << 40))
        if kind == "op":
            calls.append((kind, draw(st.integers(0, 9)),
                          draw(st.sampled_from(_OPS)), start, end, nbytes,
                          draw(st.sampled_from(_PATHS))))
        elif kind == "phase":
            calls.append((kind, draw(st.integers(0, 9)),
                          draw(st.sampled_from(_PHASES)), start, end, nbytes))
        elif kind == "members":
            lo = draw(st.integers(0, 9))
            members = range(lo, lo + draw(st.integers(0, 6)))
            if draw(st.booleans()):
                members = draw(st.permutations(list(members)))
            ended_late = draw(st.lists(st.sampled_from(list(members)),
                                       unique=True, max_size=3)) if members else []
            late = {m: start + draw(_t) for m in ended_late}
            calls.append((kind, members, draw(st.sampled_from(_PHASES)),
                          start, end, nbytes, late or None))
        else:
            calls.append((kind,))
    return calls


def _replay(calls):
    """The profiler fed ``calls``, and the per-call tuples they stand for."""
    prof, want = DarshanProfiler(), []
    for call in calls:
        kind, args = call[0], call[1:]
        if kind == "op":
            prof.record_op(*args)
            want.append(args)
        elif kind == "phase":
            rank, phase, start, end, nbytes = args
            prof.record_phase(*args)
            want.append((rank, f"app:{phase}", start, end, nbytes, ""))
        elif kind == "members":
            members, phase, start, end, nbytes, late = args
            prof.record_phase_members(members, phase, start, end, nbytes,
                                      late=late)
            want.extend((m, f"app:{phase}", start, (late or {}).get(m, end),
                         nbytes, "") for m in members)
        else:
            prof.reset()
            want.clear()
    return prof, want


def _io_time(calls):
    out = {}
    for rank, _op, start, end, _n, _p in calls:
        out[rank] = out.get(rank, 0.0) + (end - start)
    return out


@settings(max_examples=200, deadline=None)
@given(_log_calls(), st.lists(st.sampled_from(_OPS + tuple(
    f"app:{p}" for p in _PHASES)), unique=True, max_size=3))
def test_every_view_of_the_op_log_is_that_of_the_calls(calls, ops):
    prof, want = _replay(calls)
    chosen = [c for c in want if c[1] in ops]

    def items(d):
        return list(d.items())  # insertion order too

    assert [tuple(r) for r in prof.records] == want
    assert [tuple(r) for r in prof.select(ops)] == chosen
    assert [tuple(r) for r in prof.select(path_prefix="/a")] == [
        c for c in want if c[5].startswith("/a")]
    assert [tuple(r) for r in prof.select(ops, path_prefix="/b")] == [
        c for c in chosen if c[5].startswith("/b")]
    assert items(prof.per_rank_io_time()) == items(_io_time(want))
    assert items(prof.per_rank_io_time(ops)) == items(_io_time(chosen))
    writes = [c for c in want if c[1] == "write"]
    per_rank = _io_time(want)
    assert prof.summary() == {
        "n_records": len(want), "n_writes": len(writes),
        "bytes_written": float(sum(c[4] for c in writes)),
        "max_rank_io_time": max(per_rank.values()) if per_rank else 0.0,
        "mean_rank_io_time": (float(np.mean(list(per_rank.values())))
                              if per_rank else 0.0)}
    assert prof.write_intervals().intervals == [
        (c[2], c[3], c[0]) for c in writes]
    for phase in _PHASES:
        assert prof.phase_intervals(phase).intervals == [
            (c[2], c[3], c[0]) for c in want if c[1] == f"app:{phase}"]


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def test_io_time_distribution_fills_missing_ranks():
    ranks, times = io_time_distribution({0: 1.0, 3: 2.0}, n_ranks=5)
    assert list(ranks) == [0, 1, 2, 3, 4]
    assert list(times) == [1.0, 0.0, 0.0, 2.0, 0.0]


def test_io_time_distribution_sparse():
    ranks, times = io_time_distribution({7: 1.0, 2: 3.0})
    assert list(ranks) == [2, 7]
    assert list(times) == [3.0, 1.0]


def test_distribution_summary_outliers():
    times = [1.0] * 99 + [50.0]
    s = distribution_summary(times)
    assert s["median"] == 1.0
    assert s["max"] == 50.0
    assert s["outlier_fraction"] == pytest.approx(0.01)


def test_distribution_summary_empty():
    assert distribution_summary([])["count"] == 0


def test_writer_worker_split():
    per_rank = {0: 10.0, 1: 0.1, 2: 0.2, 3: 10.5}
    out = writer_worker_split(per_rank, writer_ranks=[0, 3])
    assert out["writers"]["median"] == pytest.approx(10.25)
    assert out["workers"]["max"] == pytest.approx(0.2)


def test_write_activity_from_real_run():
    data = scaled_problem(16).data()
    run = run_checkpoint_steps(OneFilePerProcess(arrival_jitter=0.0), 16, data,
                               config=QUIET)
    starts, counts = write_activity(run.profiler, bin_width=0.05)
    assert counts.max() >= 1
    assert counts.sum() > 0


def test_rbio_profiler_contains_isend_phases():
    data = scaled_problem(8).data()
    run = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=4), 8, data,
                               config=QUIET)
    isends = run.profiler.select(["app:isend"])
    assert len(isends) == 6  # 8 ranks - 2 writers
    writes = run.profiler.select(["write"])
    writers = {w.rank for w in writes}
    assert writers == {0, 4}


# ---------------------------------------------------------------------------
# Fabric traffic split: one home (the job's fabric), one publisher
# ---------------------------------------------------------------------------

def test_job_metrics_publish_the_fabric_counters_once():
    """``Job.metrics()`` carries the job's own intra/inter fabric split and
    TAM coalescing ratio; the Darshan summary is I/O records only; and in
    the flat run the worker ``isend`` spans account for every message."""
    from repro import RunConfig

    data = scaled_problem(16).data()
    runs = {}
    for tam in ("off", "require"):
        strategy = ReducedBlockingIO(workers_per_writer=8)
        if tam != "off":
            strategy.configure_tam(tam)
        runs[tam] = run_checkpoint_steps(strategy, 16, data, config=QUIET,
                                         run_config=RunConfig(trace="full"))
    for run in runs.values():
        metrics, fabric = run.job.metrics(), run.job.fabric.stats()
        for key in ("msgs_intra", "msgs_inter", "bytes_intra", "bytes_inter",
                    "tam_msgs", "tam_packages", "tam_coalesce_ratio"):
            assert metrics.get(f"fabric.{key}") == fabric[key], key
        # Messages are classified exhaustively, each counted once.
        assert (fabric["msgs_intra"] + fabric["msgs_inter"]
                == fabric["messages_sent"])
        assert not {"tam_msgs", "bytes_copied", "bytes_logical"} \
            & set(run.profiler.summary())
    flat, tam = (runs[k].job.metrics() for k in ("off", "require"))
    assert flat.get("fabric.msgs_intra") > 0
    assert flat.get("fabric.msgs_inter") > 0
    assert flat.get("fabric.tam_msgs") == 0
    assert tam.get("fabric.tam_coalesce_ratio") > 1.0
    # Span totals = counters: every flat fabric message is one worker isend.
    sent = runs["off"].job.fabric.stats()
    assert flat.get("trace.phase.isend.count") == sent["messages_sent"]
    assert flat.get("trace.phase.isend.bytes") == sent["bytes_sent"]
