"""A run and the memory manager: what DESIGN.md "Run lifetime" promises.

``Engine.run`` pauses CPython's cyclic collector for the drain.  That is
only sound because a drain makes no cyclic garbage, and only cheap because
a finished job is released by reference count when ``Job.close()`` cuts
its back-edges.  Both are invariants of the code, so they are held here,
deterministically (object counts and collector state, never timings):

(a) a full collection right after a drain finds nothing of ours;
(b) a closed, dropped run leaves nothing O(n_ranks) for the collector;
(c) the collector's state survives every way out of a drain;
(d) a closed job keeps its measurements and refuses further use.
"""

import gc

import pytest

from repro import RunConfig
from repro.campaign import run_point
from repro.campaign.compiler import CampaignPoint
from repro.ckpt import UnrecoverableCheckpointError
from repro.experiments import run_checkpoint_steps
from repro.experiments.figures import clear_cache, problem_for, strategy_for
from repro.faults import FaultSchedule, FaultSpec
from repro.mpi import Job
from repro.sim import Engine, StopEngine, Store
from repro.staging import StagingConfig, attach_staging
from repro.storage import attach_storage
from repro.topology import intrepid

from .test_mode_matrix_golden import (
    CELLS, EVOLVING, FAULTS, GAPS, N_STEPS, NP, SEED, SHARED, make_strategy)


# ---------------------------------------------------------------------------
# (a) nothing for the collector inside a drain
# ---------------------------------------------------------------------------

@pytest.fixture
def drain_offenders(monkeypatch):
    """Collect with ``DEBUG_SAVEALL`` each time ``Engine.run`` returns.

    The list the offenders land in: unreachable objects whose type is
    ours, or a generator / bound method (a process that outlived its last
    reference).  Garbage from before the drain is collected first.
    """
    offenders = []
    inner = Engine.run

    def run(self, until=None):
        gc.collect()
        try:
            return inner(self, until)
        finally:
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                offenders.extend(
                    f"{type(o).__module__}.{type(o).__qualname__}"
                    for o in gc.garbage
                    if type(o).__module__.startswith("repro.")
                    or type(o).__name__ in ("generator", "method"))
            finally:
                gc.set_debug(0)
                gc.garbage.clear()

    monkeypatch.setattr(Engine, "run", run)
    return offenders


def _richest_per_family():
    """One golden cell per (strategy, fault, flow control, coalesce)
    family: the one with the most axes switched on."""
    best = {}
    for name, cell in sorted(CELLS.items()):
        family = (cell["strategy"], cell["fault"], cell["max_outstanding"],
                  cell["coalesce"])
        rank = (cell["delta"] != "off", cell["tam"] != "off")
        if family not in best or rank > best[family][0]:
            best[family] = (rank, name)
    return sorted(name for _rank, name in best.values())


@pytest.mark.parametrize("name", _richest_per_family())
def test_a_golden_cell_drain_leaves_nothing_unreachable(name,
                                                        drain_offenders):
    cell = CELLS[name]
    data = SHARED if cell["coalesce"] == "auto" else EVOLVING
    try:
        campaign = run_checkpoint_steps(
            make_strategy(cell), NP, data, n_steps=N_STEPS, seed=SEED,
            gap_seconds=GAPS,
            run_config=RunConfig(trace="full", coalesce=cell["coalesce"],
                                 faults=FAULTS[cell["fault"]]))
        assert campaign.restore()
    except UnrecoverableCheckpointError:
        pass  # a refused restore is a drain like any other
    assert drain_offenders == []


@pytest.mark.parametrize("approach,tam", [("1pfpp", "off"), ("coio_64", "off"),
                                          ("rbio_ng", "auto")])
def test_a_coalesced_drain_leaves_nothing_unreachable(approach, tam,
                                                      drain_offenders):
    run = run_checkpoint_steps(strategy_for(approach, 256, tam=tam), 256,
                               problem_for(256).data(), 1)
    assert len(run.job._rank_procs) < 256  # it did coalesce
    assert drain_offenders == []


def test_a_finished_process_lets_go_of_its_generator():
    eng = Engine()
    seen = []

    def body(fail):
        yield eng.timeout(1.0)
        if fail:
            raise KeyError("boom")
        return 7

    good, bad = eng.process(body(False)), eng.process(body(True))
    bad.add_callback(seen.append)  # an observer: the failure is delivered
    assert good.is_alive and bad.is_alive
    eng.run()
    for proc in (good, bad):
        assert not proc.is_alive
        assert proc.generator is None and proc._resume_cb is None
    assert good.ok and good.value == 7
    assert not bad.ok and isinstance(bad.value, KeyError)
    good.add_callback(seen.append)  # late: runs at once
    assert seen == [bad, good]
    assert not eng._alive


def test_engine_close_abandons_parked_processes():
    eng = Engine()
    queue = Store(eng)
    log = []

    def daemon():
        try:
            while True:
                log.append((yield queue.get()))
        finally:
            log.append("closed")

    proc = eng.process(daemon())
    queue.put("job")
    eng.run()
    assert log == ["job"] and proc.is_alive and eng._alive == {proc}
    eng.close()
    assert log == ["job", "closed"] and not eng._alive
    assert proc.generator is None and not eng._times  # calendar empty


# ---------------------------------------------------------------------------
# (b) nothing O(n_ranks) left after run_point
# ---------------------------------------------------------------------------

_FAULTED = FaultSchedule((
    FaultSpec(kind="fs_error", time=0.0, op="write", count=2, transient=True),
    FaultSpec(kind="net_degrade", time=0.0, factor=2.0, duration=1.0),
    FaultSpec(kind="rank_crash", time=0.25, rank=8)))

_POINT_KINDS = {
    "1pfpp": dict(approach="1pfpp"),
    "coio_64": dict(approach="coio_64"),
    "rbio_ng": dict(approach="rbio_ng"),
    "bbio": dict(approach="bbio"),
    "faulted": dict(approach="rbio_ng", n_steps=2, gaps=(0.5,),
                    faults=_FAULTED),
    "resume": dict(approach="coio_64", n_steps=2, gaps=(0.5,), resume=True,
                   points_per_rank=64),
}


def _left_behind(kind: str, n_ranks: int) -> int:
    """Tracked objects ``run_point`` leaves allocated (its result dict's
    few containers included)."""
    point = CampaignPoint(n_ranks=n_ranks, config=intrepid(),
                          **_POINT_KINDS[kind])
    before = len(gc.get_objects())
    out = run_point(point)
    clear_cache()
    after = len(gc.get_objects())
    assert out["n_ranks"] == n_ranks
    return after - before


@pytest.mark.parametrize("kind", sorted(_POINT_KINDS))
def test_b_run_point_leaves_nothing_per_rank(kind):
    """With the collector off, whatever survives ``run_point`` is all there
    is: the count must not grow with the partition."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _left_behind(kind, 64)  # first use: module-level memos, imports
        small, large = _left_behind(kind, 64), _left_behind(kind, 1024)
    finally:
        if was_enabled:
            gc.enable()
    assert small == large
    assert 0 <= small <= 16


# ---------------------------------------------------------------------------
# (c) the collector's state survives every way out of a drain
# ---------------------------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def collector(request):
    """Run the test with the collector in each state; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def _probe(eng, seen, then=None):
    def body():
        yield eng.timeout(1.0)
        seen.append(gc.isenabled())
        if then is not None:
            raise then
        yield eng.timeout(1.0)
    return body()


def test_c_a_drain_that_returns_restores_the_collector(collector):
    eng, seen = Engine(), []
    eng.process(_probe(eng, seen))
    eng.run()
    assert seen == [False] and gc.isenabled() is collector


def test_c_a_drain_that_raises_restores_the_collector(collector):
    eng, seen = Engine(), []
    eng.process(_probe(eng, seen, then=KeyError("boom")))
    with pytest.raises(KeyError):
        eng.run()
    assert seen == [False] and gc.isenabled() is collector


def test_c_a_stopped_drain_restores_the_collector(collector):
    eng, seen = Engine(), []
    eng.process(_probe(eng, seen, then=StopEngine("enough")))
    eng.run()
    assert seen == [False] and gc.isenabled() is collector


def test_c_a_stepped_drain_restores_the_collector(collector):
    eng, seen = Engine(), []
    eng.process(_probe(eng, seen))
    for until in (0.5, 1.5, 2.5):
        eng.run(until=until)
        assert gc.isenabled() is collector
    with pytest.raises(ValueError):
        eng.run(until=1.0)  # in the past: refused before the pause
    assert seen == [False] and gc.isenabled() is collector


def test_c_back_to_back_waves_on_one_job_restore_the_collector(collector):
    job, seen = Job(4), []

    def wave(ctx):
        yield from ctx.comm.barrier()
        seen.append(gc.isenabled())

    for _ in range(2):
        job.spawn(wave)
        job.run()
        assert gc.isenabled() is collector
    assert seen == [False] * 8


# ---------------------------------------------------------------------------
# (d) a closed job keeps its measurements and refuses further use
# ---------------------------------------------------------------------------

def test_d_a_closed_job_keeps_what_was_measured():
    run = run_checkpoint_steps(strategy_for("rbio_ng", 128), 128,
                               problem_for(128).data(), 2,
                               run_config=RunConfig(trace="summary"))
    job = run.job
    metrics = job.metrics().snapshot()
    records = list(run.profiler.records)
    summary = job.tracer.summary()
    results, gbps = run.results, run.result.write_bandwidth
    job.close()
    job.close()  # idempotent
    assert job.metrics().snapshot() == metrics
    assert run.profiler.records == records
    assert job.tracer.summary() == summary
    assert run.results is results and run.result.write_bandwidth == gbps


def test_d_a_closed_job_refuses_further_use():
    job = Job(8, intrepid().quiet())
    attach_storage(job)
    ctx = job.contexts[3]

    def main(ctx):
        yield from ctx.comm.barrier()
        return ctx.rank

    job.spawn(main)
    assert job.run() == {r: r for r in range(8)}
    job.close()
    with pytest.raises(RuntimeError, match="closed"):
        job.spawn(main)
    with pytest.raises(RuntimeError, match="closed"):
        job.run()
    with pytest.raises(TypeError):
        job.services["fs"]
    with pytest.raises(AttributeError):
        ctx.fs  # a stale context builds no client for a released job


# ---------------------------------------------------------------------------
# FSClient on first use
# ---------------------------------------------------------------------------

def test_fs_clients_are_built_on_first_use_and_may_be_assigned():
    job = Job(8, intrepid().quiet())
    assert job.contexts[0].fs is None  # nothing attached yet
    fs = attach_storage(job)
    assert all(ctx._fs is None for ctx in job.contexts)
    client = job.contexts[5].fs
    assert client.fs is fs and client.rank == 5
    assert job.contexts[5].fs is client
    assert sum(ctx._fs is not None for ctx in job.contexts) == 1

    # A client put there by hand is the one the rank, and the staging
    # drain writing on its behalf, use.
    mine = fs.client(2)
    job.contexts[2].fs = mine
    assert job.contexts[2].fs is mine
    svc = attach_staging(job, StagingConfig())
    assert svc.drain.fs_client_of(2) is mine

    # Re-attaching storage replaces every client, used or assigned.
    fs2 = attach_storage(job, fs_type="pvfs")
    assert job.contexts[5].fs.fs is fs2 and job.contexts[2].fs.fs is fs2


# ---------------------------------------------------------------------------
# Per-rank objects on first use (DESIGN.md section 17.2)
# ---------------------------------------------------------------------------

def test_a_replayed_rank_has_no_context():
    """63 of every 64 rbIO ranks are replayed by a representative and never
    run a line of their own: only writers and representatives are ever
    asked for their context.  An uncoalesced run asks for all of them."""
    n, groups = 4096, 64
    data = problem_for(n).data()
    run = run_checkpoint_steps(strategy_for("rbio_ng", n), n, data, 2)
    built = run.job.contexts.built()
    assert len(built) <= 2 * groups
    assert sorted(ctx.rank for ctx in built) == sorted(
        r for g in range(groups) for r in (64 * g, 64 * g + 1))
    assert len(run.job.contexts) == n  # it still reads as all of them
    assert run.result.n_ranks == n and run.result.roles.count("worker") == \
        n - groups
    run.job.close()
    off = run_checkpoint_steps(strategy_for("rbio_ng", 256), 256,
                               problem_for(256).data(), 1,
                               run_config=RunConfig(coalesce="off"))
    assert len(off.job.contexts.built()) == 256
    off.job.close()


def test_a_coalesced_1pfpp_run_builds_one_context():
    """Every 1PFPP rank is replayed with a client of the job's file system:
    only rank 0, whose process drives the replay, has a context.  The
    drain leaves the collector nothing (``drain_unreachable``), nor does
    ``close()`` (``left_for_collector_after_close``)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run = run_checkpoint_steps(strategy_for("1pfpp", 256), 256,
                                   problem_for(256).data(), 2)
        job = run.job
        assert [ctx.rank for ctx in job.contexts.built()] == [0]
        assert len(job._rank_procs) == 1 and run.result.n_ranks == 256
        assert gc.collect() == 0
        job.close()
        del job, run
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_job_contexts_reads_like_the_list_it_was():
    job = Job(8, intrepid().quiet())
    contexts = job.contexts
    assert len(contexts) == 8 and not contexts.built()
    ctx = contexts[5]
    assert ctx.rank == 5 and ctx.comm.rank == 5 and ctx.job is job
    assert contexts[5] is ctx and contexts[-3] is ctx
    assert [c.rank for c in contexts.built()] == [5]
    for bad in (8, -9):
        with pytest.raises(IndexError):
            contexts[bad]
    assert [c.rank for c in contexts] == list(range(8))  # builds the rest
    assert contexts[5] is ctx and len(contexts.built()) == 8


@pytest.mark.parametrize("tam", ["off", "auto"])
def test_close_leaves_lazy_contexts_and_split_views_nothing_to_collect(tam):
    """Contexts and split views made on request — by the checkpoint wave's
    writers, and by every rank of the restore wave after it — hang off the
    job like the eager ones did: close() still releases all of it by
    reference count."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        campaign = run_checkpoint_steps(
            strategy_for("rbio_nf1", 256, tam=tam), 256, SHARED, n_steps=2,
            seed=SEED)
        campaign.restore()
        job = campaign.job
        assert len(job._rank_procs) < 2 * 256  # the first wave coalesced
        assert len(job.contexts.built()) == 256  # the restore wave ran all
        assert gc.collect() == 0
        job.close()
        del job, campaign
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
