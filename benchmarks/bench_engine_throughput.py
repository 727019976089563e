"""DES engine micro-benchmarks: raw event throughput of the hot paths.

The figure sweeps are dominated by three engine workloads: timeout churn
(calendar push/pop/dispatch), process ping-pong (event callbacks and
synchronous resume), and wide collectives (arrival counting plus the
one-shot completion fan-out).  This bench measures events/second for each
via the engine's built-in counters (:meth:`~repro.sim.Engine.counters`)
so hot-path regressions show up as a number, not a vague slowdown.

The headline ``ping_pong`` workload completes on the counted
:class:`~repro.sim.Cohort` every collective completes on; the
``*_scalar`` series keep the one-event-per-yield variants alive as
regression canaries for the unbatched path.  ``barrier_4k`` runs
uncoalesced per-rank barriers; ``barrier_64k`` runs the same total rank
count through coalesced representatives so the O(1)-per-wave claim for
symmetric groups (``Communicator.arrive`` with a member range) is
measured, not asserted.
"""

from _common import SMOKE, bench_np, bench_record, print_series

from repro.mpi import Job
from repro.sim import Cohort, Engine
from repro.topology import intrepid

N_TIMEOUTS = 20_000 if SMOKE else 200_000
N_PINGPONG = 10_000 if SMOKE else 100_000
BATCH = 100  # exchanges per cohort volley
BARRIER_NP = bench_np(4096, 4096)
BARRIER64_NP = bench_np(65536, 8192)
GROUP64 = 64  # coalesced group width (the paper's rbIO 64:1 shape)
N_BARRIERS = 16


def _timeout_storm_scalar() -> Engine:
    """Many overlapping scalar timeouts: calendar throughput, FIFO ties."""
    eng = Engine()

    def proc(offset):
        for i in range(N_TIMEOUTS // 100):
            yield eng.timeout(((i * 7 + offset) % 13) * 0.001)

    for offset in range(100):
        eng.process(proc(offset))
    eng.run()
    return eng


def _ping_pong() -> Engine:
    """Cohort volleys: each exchange carries a BATCH-wide completion cohort."""
    eng = Engine()
    state = {"ball": None}
    n_volleys = N_PINGPONG // BATCH

    def ping():
        for _ in range(n_volleys):
            coh = Cohort(eng, BATCH)
            state["ball"] = coh
            yield eng.timeout(0.0)
            coh.succeed()

    def pong():
        for _ in range(n_volleys):
            while state["ball"] is None:
                yield eng.timeout(0.0)
            coh = state["ball"]
            state["ball"] = None
            yield coh

    eng.process(ping())
    eng.process(pong())
    eng.run()
    return eng


def _ping_pong_scalar() -> Engine:
    """Two processes alternating on events: the resume fast path."""
    eng = Engine()
    state = {"ball": None}

    def ping():
        for _ in range(N_PINGPONG):
            ev = eng.event()
            state["ball"] = ev
            yield eng.timeout(0.0)
            ev.succeed(None)

    def pong():
        while state["ball"] is None:
            yield eng.timeout(0.0)
        for _ in range(N_PINGPONG):
            yield eng.timeout(0.0)

    eng.process(ping())
    eng.process(pong())
    eng.run()
    return eng


def _wide_barrier() -> Engine:
    """Repeated full-width barriers at 4K ranks: collective throughput."""
    job = Job(BARRIER_NP, intrepid().quiet())

    def rank_main(ctx):
        for _ in range(N_BARRIERS):
            yield from ctx.comm.barrier()

    job.spawn(rank_main)
    job.run()
    return job.engine


def _wide_barrier_coalesced() -> Engine:
    """Same barrier waves at 64K ranks, entered by coalesced 64-wide reps.

    One representative process per contiguous 64-member group stands in
    for the whole group (the rbIO coalescing shape), so each wave costs
    O(groups) interpreted work instead of O(ranks).
    """
    job = Job(BARRIER64_NP, intrepid().quiet())

    def rep_main(ctx, members):
        for _ in range(N_BARRIERS):
            yield ctx.comm.comm.arrive("barrier", members).event

    for g in range(BARRIER64_NP // GROUP64):
        members = range(g * GROUP64, (g + 1) * GROUP64)
        job.spawn(rep_main, members, ranks=[members[0]])
    job.run()
    return job.engine


#: What the rbIO / coIO cells publish: the calendar events a coalesced
#: rank costs per step (a replay that goes back to an event per message or
#: a callback chain per member re-inflates it and fails the gate; rbIO's
#: is ≈ 0.53 since a group's posted burst that the writer's waiting
#: ``recv_all`` takes whole is one calendar entry, DESIGN.md section 9.4,
#: where a delivery and a look-again per message were 2.45), and
#: what a run leaves CPython's cyclic collector, as exact counts (see
#: ``_checkpoint_cell``); the perf gate holds those two at zero.  The
#: last two pin the object budget of a run (DESIGN.md section 17): a
#: change that goes back to an object per rank per concept — a context for
#: a rank that never runs, a report or a Darshan record per replayed
#: member — moves them by more than the gate's band.  The ``tracemalloc``
#: peak of the run (KiB per rank) pins its memory budget the same way.
_GATED_LEAVES = ("dispatched_per_rank_step", "drain_unreachable",
                 "left_for_collector_after_close",
                 "tracked_objects_per_rank", "contexts_built",
                 "traced_peak_kib_per_rank")


#: Warm-up runs before a measured checkpoint cell (see ``_checkpoint_cell``).
_WARM_RUNS = 30


def _checkpoint_cell(approach: str) -> dict:
    """Deterministic counts of one coalesced checkpoint.

    Non-aggregator ranks (1PFPP: every rank) are replayed as event
    callbacks; the perf gate holds the event counts, so a replay that
    drifts (an extra event per rank, a plan silently dropped) fails CI.

    ``Engine.run`` pauses the cyclic collector, which is sound only while
    a drain makes no cyclic garbage (``drain_unreachable``: what a full
    collection finds after the drain, job still referenced) and cheap only
    while ``Job.close()`` releases the run by reference count
    (``left_for_collector_after_close``: what one finds after close and
    the last reference) — so a new reference cycle fails CI too.

    ``tracked_objects_per_rank`` is what the run holds when its drain
    ends (GC-tracked objects then, less those before the job was built,
    per rank), ``contexts_built`` how many ranks were ever asked for
    their ``RankContext``, ``traced_peak_kib_per_rank`` the peak of the
    memory the run allocated (``tracemalloc``), per rank.
    """
    import gc
    import tracemalloc

    from repro.experiments.figures import problem_for, strategy_for
    from repro.experiments.runner import run_checkpoint_steps

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        data = problem_for(TRACE_NP).data()
        # First use: lazy imports and module-level memos are not the run's,
        # nor is the process's history: CPython (3.11+) gives each of a
        # class's first ~30 instances one attribute slot less than the one
        # before, so an object a run builds once weighs less the more runs
        # the process has made.  Runs built like the measured one, until
        # every such class has reached its floor.
        for _ in range(_WARM_RUNS):
            run_checkpoint_steps(strategy_for(approach, TRACE_NP), TRACE_NP,
                                 data, 1).job.close()
        before = len(gc.get_objects())
        tracemalloc.start()
        job = run_checkpoint_steps(strategy_for(approach, TRACE_NP), TRACE_NP,
                                   data, 1).job
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracked = len(gc.get_objects()) - before
        counters = job.engine.counters()
        cell = {"np": TRACE_NP,
                "tracked_objects_per_rank": round(tracked / TRACE_NP, 2),
                "traced_peak_kib_per_rank": round(peak / 1024 / TRACE_NP, 2),
                "contexts_built": len(job.contexts.built()),
                "dispatched": counters["sim.dispatched_events"],
                "dispatched_per_rank_step": round(
                    counters["sim.dispatched_events"] / TRACE_NP, 3),
                "events": counters["sim.events_processed"],
                "rank_processes": len(job._rank_procs),
                "drain_unreachable": gc.collect()}
        job.close()
        del job
        cell["left_for_collector_after_close"] = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return cell


_WORKLOADS = {
    "ping_pong": _ping_pong,
    "barrier_4k": _wide_barrier,
    "barrier_64k": _wide_barrier_coalesced,
    "timeout_storm_scalar": _timeout_storm_scalar,
    "ping_pong_scalar": _ping_pong_scalar,
}


def test_engine_throughput(benchmark):
    def run():
        return {name: fn().counters() for name, fn in _WORKLOADS.items()}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "DES engine throughput",
        ["workload", "events", "dispatched", "wall", "events/sec"],
        [[name, c["sim.events_processed"], c["sim.dispatched_events"],
          f"{c['sim.wall_seconds']:.2f} s",
          f"{c['sim.events_per_second']:,.0f}"]
         for name, c in out.items()],
    )
    cells = {"ckpt_1pfpp": _checkpoint_cell("1pfpp")}
    for name, approach in (("ckpt_rbio", "rbio_ng"), ("ckpt_coio", "coio_64")):
        cell = _checkpoint_cell(approach)
        cells[name] = {leaf: cell[leaf] for leaf in _GATED_LEAVES}
    bench_record("engine_throughput", **cells, **{
        name: {"events": c["sim.events_processed"],
               "dispatched": c["sim.dispatched_events"],
               "wall_seconds": c["sim.wall_seconds"],
               "events_per_second": c["sim.events_per_second"]}
        for name, c in out.items()
    })

    for name, c in out.items():
        assert c["sim.events_processed"] > 0, name
        assert c["sim.events_per_second"] > 0, name
    # The cohort path should clear 1M logical events/sec on any machine
    # this runs on (target hardware does >5M); the scalar calendar path
    # should sustain well beyond 100K.  A big miss means a hot-path
    # regression.
    assert out["ping_pong"]["sim.events_per_second"] > 1_000_000
    assert out["timeout_storm_scalar"]["sim.events_per_second"] > 100_000
    # Coalesced entry must make a wave *cheaper* in wall time than the
    # uncoalesced run despite twice the rank count — the O(1)-per-wave
    # property, measured.
    assert (out["barrier_64k"]["sim.wall_seconds"]
            < out["barrier_4k"]["sim.wall_seconds"])


# -- trace-plane coverage cell -------------------------------------------------

TRACE_NP = bench_np(2048, 512)


def test_trace_overhead(benchmark):
    """Instrumentation coverage of the traced hot path, as exact counts.

    Runs one rbIO checkpoint with full tracing through every
    instrumented call site (ckpt envelope, pack, mpiio exchange/commit,
    forwarded fs spans) and records the span/event counts: they are
    deterministic and gated unconditionally by the perf gate, so
    instrumentation-coverage drift fails CI.  Host-time overhead of the
    trace modes is measured on runs long enough to be signal by
    ``python3 -m perfbench`` (``trace.overhead_ratio``), not here.
    """
    from repro import RunConfig
    from repro.experiments.figures import problem_for, strategy_for
    from repro.experiments.runner import run_checkpoint_steps

    def run():
        return run_checkpoint_steps(
            strategy_for("rbio_ng", TRACE_NP), TRACE_NP,
            problem_for(TRACE_NP).data(), 1,
            run_config=RunConfig(trace="full")).job.tracer

    tracer = benchmark.pedantic(run, rounds=1, iterations=1)
    n_spans = len(tracer.spans)
    rank_spans = sum(1 for s in tracer.spans for _r in s.expand())
    bench_record("trace_overhead", **{
        "ckpt_rbio": {
            "np": TRACE_NP,
            "n_spans_full": n_spans,
            "n_events_full": len(tracer.events),
            "rank_spans_full": rank_spans,
        },
    })
    assert n_spans > 0 and rank_spans >= TRACE_NP
