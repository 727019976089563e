"""Tests for Darshan-style profiling and the figure analyses."""

import pytest

from repro.ckpt import OneFilePerProcess, ReducedBlockingIO
from repro.experiments import run_checkpoint_step, scaled_problem
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


def test_counters_and_bytes():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 1.0, 100, "/a")
    p.record_op(0, "write", 1.0, 2.0, 200, "/a")
    p.record_op(0, "read", 2.0, 3.0, 50, "/a")
    assert p.op_counts()["write"] == 2
    assert p.bytes_by_op()["write"] == 300
    assert p.bytes_by_op()["read"] == 50


def test_per_rank_io_time_and_span():
    p = DarshanProfiler()
    p.record_op(0, "write", 0.0, 1.0, 1, "/a")
    p.record_op(0, "write", 5.0, 6.5, 1, "/a")
    p.record_op(1, "write", 0.0, 0.5, 1, "/b")
    t = p.per_rank_io_time(["write"])
    assert t[0] == pytest.approx(2.5)
    assert t[1] == pytest.approx(0.5)
    span = p.per_rank_span(["write"])
    assert span[0] == (0.0, 6.5)


def test_file_counters_darshan_style():
    p = DarshanProfiler()
    p.record_op(0, "create", 0.0, 0.1, 0, "/f")
    p.record_op(0, "write", 0.1, 0.6, 100, "/f")
    p.record_op(1, "read", 1.0, 1.2, 40, "/f")
    c = p.file_counters()["/f"]
    assert c["OPENS"] == 1
    assert c["WRITES"] == 1
    assert c["BYTES_WRITTEN"] == 100
    assert c["F_WRITE_TIME"] == pytest.approx(0.5)
    assert c["BYTES_READ"] == 40


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
    run = run_checkpoint_step(OneFilePerProcess(arrival_jitter=0.0), 16, data,
                              config=QUIET)
    starts, counts = write_activity(run.profiler, bin_width=0.05)
    assert counts.max() >= 1
    assert counts.sum() > 0


def test_rbio_profiler_contains_isend_phases():
    data = scaled_problem(8).data()
    run = run_checkpoint_step(ReducedBlockingIO(workers_per_writer=4), 8, data,
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
        runs[tam] = run_checkpoint_step(strategy, 16, data, config=QUIET,
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
