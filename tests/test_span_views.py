"""The trace plane's fs/phase spans are views of the job's Darshan log.

The oracle is the earlier design, kept here verbatim: a profiler that
forwards every record it appends into a log-less :class:`SpanTracer` as a
second copy.  Every cell runs once with the oracle and once with the job's
own tracer, which reads those spans off the log; spans, totals, summary,
Chrome trace, ``trace.*`` metrics and write intervals must agree exactly.
"""

import json

import pytest

import repro.mpi.job as job_module
from repro import trace
from repro.ckpt import EvolvingData
from repro.experiments.figures import problem_for, strategy_for
from repro.experiments.runner import run_checkpoint_steps
from repro.mpi import RunConfig
from repro.profiling import DarshanProfiler
from repro.trace import SpanTracer
from repro.trace.export import chrome_trace

NP, STEPS, GAP = 128, 2, 0.5
APPROACHES = ("1pfpp", "coio_64", "coio_nf1", "rbio_ng", "rbio_nf1", "bbio")


class _ForwardingProfiler(DarshanProfiler):
    """The earlier profiler: each record is also a span of ``tracer``."""

    tracer = None

    def record_op(self, rank, op, start, end, nbytes, path):
        DarshanProfiler.record_op(self, rank, op, start, end, nbytes, path)
        tr = self.tracer
        if tr is not None:
            tr.span(rank, op, "fs", start, end, nbytes,
                    args={"path": path})

    def record_phase(self, rank, phase, start, end, nbytes=0):
        DarshanProfiler.record_op(self, rank, f"app:{phase}", start, end,
                                  nbytes, "")
        tr = self.tracer
        if tr is not None:
            tr.span(rank, phase, "phase", start, end, nbytes)

    def record_phase_members(self, members, phase, start, end, nbytes=0,
                             late=None):
        self._runs[len(self._ops)] = (members, late or {})
        DarshanProfiler.record_op(self, -1, f"app:{phase}", start, end,
                                  nbytes, "")
        tr = self.tracer
        if tr is not None:
            late = late or {}
            for m in members:
                tr.span(m, phase, "phase", start, late.get(m, end), nbytes)


def _forwarding_tracer(mode, log):
    log.tracer = SpanTracer(mode)
    return log.tracer


def _cells():
    for approach in APPROACHES:
        for coalesce in ("off", "auto"):
            for mode in ("summary", "full"):
                yield dict(approach=approach, coalesce=coalesce, trace=mode)
    for approach in ("coio_64", "rbio_ng"):
        yield dict(approach=approach, tam="auto", trace="full")
    for approach in ("1pfpp", "rbio_ng", "coio_nf1"):
        yield dict(approach=approach, delta="auto", trace="full")


def _run(approach, trace="full", coalesce="auto", tam="off", delta="off"):
    strategy = strategy_for(approach, NP, delta=delta, tam=tam)
    data = (EvolvingData.mutating(500, 0.25, seed=1) if delta != "off"
            else problem_for(NP).data())
    return run_checkpoint_steps(
        strategy, NP, data, STEPS, gap_seconds=GAP,
        run_config=RunConfig(trace=trace, coalesce=coalesce))


def _exact(value) -> str:
    """JSON with floats in their round-trip repr: equal strings are
    bit-identical floats of the same types."""
    return json.dumps(value, sort_keys=True)


def _fields(tracer):
    return [(s.rank, s.name, s.cat, s.start.hex(), s.end.hex(), s.nbytes,
             s.members, s.args) for s in tracer.spans]


def _trace_metrics(job):
    return {k: v for k, v in job.metrics().snapshot().items()
            if k.startswith("trace.")}


@pytest.mark.parametrize("cell", list(_cells()),
                         ids=lambda c: "-".join(map(str, c.values())))
def test_log_views_equal_the_forwarded_copy(cell, monkeypatch):
    view = _run(**cell)
    with monkeypatch.context() as m:
        m.setattr(job_module, "DarshanProfiler", _ForwardingProfiler)
        m.setattr(job_module, "SpanTracer", _forwarding_tracer)
        oracle = _run(**cell)
    got, want = view.job.tracer, oracle.job.tracer
    assert got.log is view.profiler and want.log is None
    assert oracle.profiler.tracer is want

    assert _fields(got) == _fields(want)
    if cell["trace"] == "full":
        assert got.n_spans() == len(got.spans) > 0
    assert _exact(got.phase_totals()) == _exact(want.phase_totals())
    assert _exact(got.summary()) == _exact(want.summary())
    assert _exact(chrome_trace(got)) == _exact(chrome_trace(want))
    assert _exact(_trace_metrics(view.job)) == _exact(
        _trace_metrics(oracle.job))
    assert (view.profiler.write_intervals().intervals
            == oracle.profiler.write_intervals().intervals)
    # The tracer's own keys and the log's never meet.
    native, logged = set(got._totals), set(got.log.span_totals())
    assert logged and not native & logged


def test_summary_run_builds_no_span(monkeypatch):
    """A summary-traced run, its metrics and its summary construct no
    :class:`~repro.trace.Span`; the tracer records native spans only."""
    built, recorded = [], []
    init, span = trace.Span.__init__, SpanTracer.span

    def counting_init(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    def recording_span(self, rank, name, cat, *args, **kw):
        recorded.append((cat, name))
        span(self, rank, name, cat, *args, **kw)

    monkeypatch.setattr(trace.Span, "__init__", counting_init)
    monkeypatch.setattr(SpanTracer, "span", recording_span)
    run = _run("rbio_ng", trace="summary")
    snap = run.job.metrics().snapshot()
    summary = run.job.tracer.summary()
    assert built == []
    assert snap["trace.spans"] == summary["n_spans"] == 0
    assert snap["trace.fs.write.count"] == summary["phases"]["fs:write"][
        "count"] == len(run.profiler.select(["write"])) > 0
    forwarded = [(cat, name) for cat, name in recorded
                 if cat == "fs" or name in ("isend", "stage", "drain")]
    assert recorded and forwarded == []
