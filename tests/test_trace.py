"""Tests for the unified tracing & metrics plane (repro.trace).

Covers the tracer core (modes, aggregates, coalesce expansion), the
metrics registry and counter schema, the Chrome trace exporter (schema
validation), reconciliation of span totals against ``Job.metrics()``
and ``DarshanProfiler.summary()``, the zero-cost off guarantee
(differential: trace off vs full is bit-identical across strategies ×
delta × tam × coalesce), per-job isolation of every counter and span,
the campaign ``grid.trace`` axis, and the service ``/metrics`` +
``/healthz`` endpoints.
"""

import json
import math
import urllib.request

import pytest

from repro.campaign import CampaignSpec, SweepService, expand, run_point
from repro.campaign.http import start_server
from repro.campaign.spec import SpecError
from repro.ckpt import EvolvingData
from repro.experiments.figures import problem_for, strategy_for
from repro.experiments.runner import run_checkpoint_steps
from repro.mpi import Job, RunConfig
from repro.sim import Engine
from repro.trace import SCHEMA, MetricsRegistry, Span, SpanTracer
from repro.trace.export import chrome_trace
from repro.trace.timeline import critical_path, render_critical_path, \
    render_timeline


def _traced(mode="full", **kw) -> RunConfig:
    return RunConfig(trace=mode, **kw)


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------

def test_run_config_selects_the_jobs_tracer():
    assert Job(4).tracer is None
    assert Job(4, run_config=_traced("summary")).tracer.mode == "summary"
    job = Job(4, run_config=_traced("full"))
    assert job.tracer.mode == "full"
    assert job.tracer.cores_per_node == job.config.cores_per_node
    for bad in (dict(trace="verbose"), dict(profiling="maybe"),
                dict(copy="lazy"), dict(coalesce="always")):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    with pytest.raises(ValueError):
        SpanTracer("off")


def test_summary_mode_keeps_totals_not_spans():
    tr = SpanTracer("summary")
    tr.span(3, "write", "fs", 1.0, 2.5, 100)
    tr.span(4, "write", "fs", 2.0, 3.0, 50)
    assert tr.spans == []
    totals = tr.phase_totals()
    assert totals["fs:write"] == {"count": 2, "seconds": 2.5, "bytes": 150}
    s = tr.summary()
    assert s["mode"] == "summary" and s["n_spans"] == 0


def test_coalesced_span_counts_once_per_member():
    tr = SpanTracer("full")
    tr.span(8, "checkpoint", "ckpt", 0.0, 2.0, 10, members=(8, 9, 10, 11))
    totals = tr.phase_totals()["ckpt:checkpoint"]
    assert totals == {"count": 4, "seconds": 8.0, "bytes": 40}
    assert len(tr.spans) == 1
    assert list(tr.spans[0].expand()) == [8, 9, 10, 11]


def test_instant_events_and_reset():
    tr = SpanTracer("full")
    tr.instant("retry", "fault", 1.5, rank=7, args={"attempt": 1})
    assert tr.events[0]["name"] == "retry" and tr.events[0]["rank"] == 7
    tr.span(0, "x", "fs", 0, 1)
    tr.reset()
    assert not tr.spans and not tr.events and tr.phase_totals() == {}


def test_span_repr_and_duration():
    s = Span(1, "write", "fs", 1.0, 3.0, 64)
    assert s.duration == 2.0
    assert list(s.expand()) == [1]


# ---------------------------------------------------------------------------
# metrics registry + schema
# ---------------------------------------------------------------------------

def test_registry_snapshot_and_kinds():
    reg = MetricsRegistry()
    reg.counter("campaign.points_executed", 5)
    reg.gauge("campaign.inflight_points", 2)
    reg.histogram("sim.batch_hist", {"1": 3, "2-3": 4})
    snap = reg.snapshot()
    assert snap["campaign.points_executed"] == 5
    assert snap["sim.batch_hist"] == {"1": 3, "2-3": 4}
    assert len(reg) == 3
    assert reg.get("campaign.inflight_points") == 2
    with pytest.raises(ValueError):
        reg.counter(".bad")


def test_registry_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("campaign.points_executed", 5, help="points run")
    reg.gauge("sim.virtual_time", 1.25)
    reg.histogram("sim.batch_hist", {"2-3": 4})
    text = reg.to_prometheus()
    assert "# TYPE repro_campaign_points_executed counter" in text
    assert "repro_campaign_points_executed 5" in text
    assert "# HELP repro_campaign_points_executed points run" in text
    assert "repro_sim_virtual_time 1.25" in text
    assert 'repro_sim_batch_hist{bin="2-3"} 4' in text
    assert text.endswith("\n")


def test_job_metrics_pin_full_key_set():
    """The counter schema is pinned: an untraced job publishes exactly it."""
    snap = Job(4).metrics().snapshot()
    assert set(snap) == set(SCHEMA) and len(SCHEMA) == 23
    assert snap["sim.events_processed"] == 0
    assert isinstance(snap["sim.batch_hist"], dict)
    # The engine owns the sim.* names and nothing else.
    assert set(Engine().counters()) == {k for k in SCHEMA
                                        if k.startswith("sim.")}


# ---------------------------------------------------------------------------
# chrome trace export
# ---------------------------------------------------------------------------

def _validate_chrome(doc: dict) -> None:
    """Schema-validate a Chrome trace_event JSON document."""
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert doc["displayTimeUnit"] in ("ms", "ns")
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("X", "i", "M"), ev
        if ev["ph"] == "M":
            assert ev["name"] == "process_name"
            continue
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["cat"], str)
        assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        assert isinstance(ev["args"], dict)
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
        else:
            assert ev["s"] in ("t", "p", "g")
    json.dumps(doc)  # must be JSON-serializable end to end


def test_chrome_trace_schema_and_node_attribution():
    tr = SpanTracer("full")
    tr.cores_per_node = 4
    tr.span(5, "write", "fs", 0.5, 1.5, 100, args={"path": "/f"})
    tr.instant("retry", "fault", 0.75, rank=5)
    doc = chrome_trace(tr)
    _validate_chrome(doc)
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(x) == 1
    assert x[0]["pid"] == 1 and x[0]["tid"] == 5       # rank 5 on node 1
    assert x[0]["ts"] == pytest.approx(0.5e6)
    assert x[0]["dur"] == pytest.approx(1.0e6)
    assert x[0]["args"]["nbytes"] == 100
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {m["pid"] for m in meta} == {1}


def test_chrome_trace_expands_coalesced_groups():
    tr = SpanTracer("full")
    tr.span(8, "checkpoint", "ckpt", 0.0, 1.0, 10, members=(8, 9, 10))
    doc = chrome_trace(tr, cores_per_node=2)
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert sorted(e["tid"] for e in x) == [8, 9, 10]
    assert all(e["args"]["coalesced_group"] == 3 for e in x)
    assert all(e["args"]["representative"] == 8 for e in x)


# ---------------------------------------------------------------------------
# timeline rendering
# ---------------------------------------------------------------------------

def test_timeline_and_critical_path():
    tr = SpanTracer("full")
    tr.cores_per_node = 2
    tr.span(0, "checkpoint", "ckpt", 0.0, 2.0, 100)
    tr.span(0, "write", "fs", 0.5, 1.9, 100)
    tr.span(1, "checkpoint", "ckpt", 0.0, 1.0, 100)
    tr.instant("retry", "fault", 0.7, rank=0)
    art = render_timeline(tr, width=40, max_rows=8)
    assert "r0/n0" in art and "r1/n0" in art
    assert "W" in art and "#" in art and "legend:" in art
    assert "fault:retry" in art
    cp = critical_path(tr)
    assert cp["slowest_rank"] == 0
    assert cp["makespan"] == pytest.approx(2.0)
    assert cp["chain"][0]["name"] == "checkpoint"
    text = render_critical_path(tr)
    assert "slowest rank 0" in text and "ckpt:checkpoint" in text


def test_timeline_empty_and_elision():
    assert "no spans" in render_timeline(SpanTracer("full"))
    assert critical_path(SpanTracer("full"))["slowest_rank"] is None
    tr = SpanTracer("full")
    for r in range(20):
        tr.span(r, "checkpoint", "ckpt", 0.0, 1.0)
    art = render_timeline(tr, width=20, max_rows=5)
    assert "more ranks elided" in art


# ---------------------------------------------------------------------------
# profiling off-switch (satellite: zero-cost DarshanProfiler)
# ---------------------------------------------------------------------------

def test_run_config_selects_the_jobs_profiler():
    assert Job(4).profiler is not None
    quiet = Job(4, run_config=RunConfig(profiling="off"))
    assert quiet.profiler is None
    assert all(ctx.profiler is None for ctx in quiet.contexts)
    # An active tracer forces a live profiler (its fs/phase spans are
    # views of the log).
    traced = Job(4, run_config=RunConfig(trace="full", profiling="off"))
    assert traced.profiler is not None
    assert traced.tracer.log is traced.profiler


def test_run_without_profiler_matches_run_with():
    """Profiling off changes no simulation outcome, only the records."""
    strategy = strategy_for("coio_64", 64)
    data = problem_for(64).data()
    base = run_checkpoint_steps(strategy, 64, data, 1)
    quiet = run_checkpoint_steps(strategy_for("coio_64", 64), 64, data, 1,
                                 run_config=RunConfig(profiling="off"))
    assert quiet.profiler is None
    assert base.profiler is not None and base.profiler.records
    assert quiet.result.overall_time == base.result.overall_time
    assert quiet.result.write_bandwidth == base.result.write_bandwidth


# ---------------------------------------------------------------------------
# reconciliation: spans vs Job.metrics() vs Darshan summary()
# ---------------------------------------------------------------------------

def test_full_trace_reconciles_with_profiler_and_metrics():
    strategy = strategy_for("rbio_ng", 128)
    data = problem_for(128).data()
    run = run_checkpoint_steps(strategy, 128, data, 1, run_config=_traced())
    tr = run.job.tracer
    assert tr.spans

    summary = run.profiler.summary()
    writes = tr.phase_totals()["fs:write"]
    assert writes["count"] == summary["n_writes"]
    assert writes["bytes"] == summary["bytes_written"]
    assert writes["seconds"] == pytest.approx(
        sum(r.duration for r in run.profiler.select(["write"])), rel=1e-12)

    # Span-derived write intervals are row-identical to the Darshan view.
    legacy = run.profiler.write_intervals()
    rebuilt = [(s.start, s.end, s.rank) for s in tr.spans
               if (s.cat, s.name) == ("fs", "write")]
    assert rebuilt == legacy.intervals

    # The job's metrics carry the same phase totals under trace.*.
    m = run.job.metrics()
    assert m.get("trace.fs.write.count") == writes["count"]
    assert m.get("trace.fs.write.bytes") == writes["bytes"]
    assert m.get("trace.spans") == len(tr.spans)

    # Checkpoint envelope spans agree with the run's own report.
    ck = tr.phase_totals()["ckpt:checkpoint"]
    assert ck["count"] == 128
    assert ck["bytes"] == run.result.total_bytes

    doc = chrome_trace(tr)
    _validate_chrome(doc)


def test_trace_captures_tam_and_exchange_spans():
    strategy = strategy_for("coio_64", 64, tam="require")
    data = problem_for(64).data()
    run = run_checkpoint_steps(strategy, 64, data, 1, run_config=_traced())
    totals = run.job.tracer.phase_totals()
    assert "mpiio:exchange" in totals
    assert "mpiio:tam-gather" in totals
    assert "mpiio:commit" in totals


@pytest.mark.parametrize("name", ["1pfpp", "coio", "rbio", "rbio_nf1",
                                  "bbio"])
def test_every_delta_committer_records_one_chunk_span_per_step(name):
    """The one delta plan (``repro.ckpt.incremental.plan_delta``) is what
    emits ``phase:chunk``, so all five committers are visible in the trace
    plane: each committing rank records exactly one span per step, and the
    spans' bytes are the logical bytes the delta counters report."""
    from repro.ckpt import (BurstBufferIO, ChunkingParams, CollectiveIO,
                            OneFilePerProcess, ReducedBlockingIO)

    strategy = {
        "1pfpp": lambda: OneFilePerProcess(arrival_jitter=0.0),
        "coio": lambda: CollectiveIO(ranks_per_file=8),
        "rbio": lambda: ReducedBlockingIO(workers_per_writer=8),
        "rbio_nf1": lambda: ReducedBlockingIO(workers_per_writer=8,
                                              single_file=True),
        "bbio": lambda: BurstBufferIO(workers_per_writer=8),
    }[name]().configure_delta("auto", chunking=ChunkingParams(
        min_size=256, avg_size=1024, max_size=4096))
    n_ranks, n_steps = 16, 3
    data = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5,
                                 header_bytes=256)
    run = run_checkpoint_steps(strategy, n_ranks, data, n_steps,
                               gap_seconds=1.0, run_config=_traced())
    chunk = [s for s in run.job.tracer.spans
             if (s.cat, s.name) == ("phase", "chunk")]
    committers = (range(n_ranks) if name in ("1pfpp", "coio")
                  else strategy.writer_ranks(n_ranks))
    assert sorted((s.rank, s.args["step"]) for s in chunk) == [
        (r, step) for r in committers for step in range(n_steps)]
    snap = run.job.metrics().snapshot()
    assert sum(s.nbytes for s in chunk) == snap["delta.bytes_logical"] > 0
    if name not in ("1pfpp", "coio"):
        # A writer deduplicating for its group reports the outcome.
        assert sum(s.args["hits"] for s in chunk) == snap["delta.chunk_hits"]
        assert (sum(s.args["misses"] for s in chunk)
                == snap["delta.chunk_misses"])


def test_trace_captures_restore_spans():
    from repro.storage import attach_storage
    strategy, data = strategy_for("1pfpp", 16), problem_for(16).data()
    job = Job(16, run_config=_traced())
    attach_storage(job)

    def rank_main(ctx):
        yield from strategy.checkpoint(ctx, data, 0, "/ckpt")
        yield from ctx.comm.barrier()
        yield from strategy.restore(ctx, data, 0, "/ckpt")

    job.spawn(rank_main)
    job.run()
    assert job.tracer.phase_totals()["ckpt:restore"]["count"] == 16


def test_retry_instants_recorded_on_transient_faults():
    from repro.faults import FaultSchedule, FaultSpec, faults_of
    faults = FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
                  transient=True),
    ))
    run = run_checkpoint_steps(strategy_for("1pfpp", 32), 32,
                               problem_for(32).data(), 1,
                               run_config=_traced(faults=faults))
    assert faults_of(run.job).report()["injected"] == 2
    tr = run.job.tracer
    assert tr.events, "injected faults must surface as trace instants"
    assert all(e["cat"] == "fault" for e in tr.events)
    kinds = {e["name"] for e in tr.events}
    assert "fs_error" in kinds          # injector-side instants
    assert "retry" in kinds             # retry-loop instants


# ---------------------------------------------------------------------------
# the off guarantee: bit-identical across strategies x delta x tam x coalesce
# ---------------------------------------------------------------------------

def _run_fingerprint(approach, n_ranks, *, delta="off", tam="off",
                     coalesce="auto", evolving=False, n_steps=1,
                     trace="off"):
    strategy = strategy_for(approach, n_ranks, delta=delta, tam=tam)
    if evolving:
        data = EvolvingData.mutating(64, mutated_fraction=0.25, seed=3)
    else:
        data = problem_for(n_ranks).data()
    run = run_checkpoint_steps(
        strategy, n_ranks, data, n_steps,
        run_config=RunConfig(trace=trace, coalesce=coalesce))
    assert (run.job.tracer is None) == (trace == "off")
    fp = []
    for res in run.results:
        fp.append((res.overall_time, res.blocking_time,
                   res.write_bandwidth, tuple(res.roles),
                   res.t_start.tobytes(), res.t_blocked_end.tobytes(),
                   res.t_complete.tobytes(), res.bytes_local.tobytes()))
    fp.append(tuple(sorted(run.fs.stats().items())))
    fp.append(tuple(sorted(run.job.fabric.stats().items())))
    return fp


@pytest.mark.parametrize("cfg", [
    dict(approach="1pfpp", n_ranks=32),
    dict(approach="coio_64", n_ranks=64),
    dict(approach="coio_64", n_ranks=64, coalesce="off"),
    dict(approach="coio_nf1", n_ranks=128, coalesce="require", n_steps=2),
    dict(approach="coio_64", n_ranks=64, tam="require"),
    dict(approach="rbio_ng", n_ranks=64),
    dict(approach="rbio_ng", n_ranks=64, tam="require"),
    dict(approach="rbio_ng", n_ranks=64, coalesce="off"),
    dict(approach="rbio_ng", n_ranks=64, delta="auto", evolving=True,
         n_steps=2),
    dict(approach="coio_64", n_ranks=64, delta="auto", evolving=True,
         n_steps=2),
])
def test_trace_off_is_bit_identical(cfg):
    base = _run_fingerprint(**cfg)
    for mode in ("summary", "full"):
        traced = _run_fingerprint(**cfg, trace=mode)
        assert traced == base, f"trace={mode} diverged for {cfg}"


# ---------------------------------------------------------------------------
# fig12 parity: the Darshan activity figure rebuilt from the span store
# ---------------------------------------------------------------------------

def test_fig12_activity_row_identical_from_spans():
    import numpy as np

    from repro.sim import IntervalRecorder
    run = run_checkpoint_steps(strategy_for("rbio_ng", 128), 128,
                               problem_for(128).data(), 1,
                               run_config=_traced())
    tr = run.job.tracer
    legacy_starts, legacy_counts = \
        run.profiler.write_intervals().activity(0.25)
    rebuilt = IntervalRecorder()
    rebuilt.intervals = [(s.start, s.end, s.rank) for s in tr.spans
                         if (s.cat, s.name) == ("fs", "write")]
    span_starts, span_counts = rebuilt.activity(0.25)
    assert np.array_equal(span_starts, legacy_starts)
    assert np.array_equal(span_counts, legacy_counts)


# ---------------------------------------------------------------------------
# campaign axis + service telemetry
# ---------------------------------------------------------------------------

_SPEC = {
    "name": "trace-axis",
    "seed": 5,
    "grid": {"approaches": ["coio_64"], "np": [64],
             "trace": ["off", "summary"]},
}


def test_grid_trace_axis_expands_and_hashes_distinctly():
    expanded = expand(CampaignSpec.from_dict(_SPEC))
    assert [p.trace for p in expanded.points] == ["off", "summary"]
    assert len(set(expanded.hashes())) == 2
    off, summary = expanded.points
    assert off.is_figure_point and not summary.is_figure_point
    rt = CampaignSpec.from_dict(_SPEC).to_dict()
    assert rt["grid"]["trace"] == ["off", "summary"]


def test_grid_trace_axis_rejects_unknown_mode():
    bad = {**_SPEC, "grid": {**_SPEC["grid"], "trace": ["loud"]}}
    with pytest.raises(SpecError, match="trace"):
        CampaignSpec.from_dict(bad)


def test_run_point_trace_summary():
    expanded = expand(CampaignSpec.from_dict(
        {**_SPEC, "grid": {"approaches": ["coio_64"], "np": [64],
                           "trace": ["full"]}}))
    out = run_point(expanded.points[0])
    assert out["trace"] == "full"
    phases = out["trace_summary"]["phases"]
    assert phases["ckpt:checkpoint"]["count"] == 64
    json.dumps(out)


def test_run_point_leaves_no_state_behind():
    """A traced point and an untraced live point cannot observe each other:
    both orders produce identical dicts."""
    base = {"name": "iso", "seed": 5, "steps": {"n_steps": 2, "gap": 0.0},
            "workload": {"points_per_rank": 64},
            "grid": {"approaches": ["rbio_ng"], "np": [64],
                     "delta": ["require"], "tam": ["require"],
                     "trace": ["full", "off"]}}
    traced, plain = expand(CampaignSpec.from_dict(base)).points
    assert traced.trace == "full" and plain.trace == "off"
    first = [run_point(traced), run_point(plain)]
    second = [run_point(plain), run_point(traced)]
    assert first == second[::-1]
    assert "trace_summary" in first[0] and "trace_summary" not in first[1]
    assert first[1]["bytes_logical"] > 0 and first[1]["tam_msgs"] > 0


def test_run_point_trace_off_matches_traced_results():
    spec = CampaignSpec.from_dict(_SPEC)
    points = expand(spec).points
    off = run_point(points[0])
    traced = run_point(points[1])
    for key in ("overall_time", "blocking_time", "write_bandwidth"):
        assert math.isclose(off[key], traced[key], rel_tol=0, abs_tol=0)


def test_service_metrics_and_healthz_endpoints():
    service = SweepService(n_workers=1, cache=False)
    server, _thread = start_server(service)
    host, port = server.server_address
    try:
        campaign_id = service.submit(_SPEC)
        service.wait(campaign_id, timeout=300)
        with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=30) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok" and health["workers"] == 1
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE repro_campaign_points_executed counter" in text
        assert "repro_campaign_points_executed 2" in text
        assert "repro_campaign_n_workers 1" in text
    finally:
        server.shutdown()
        service.shutdown()
