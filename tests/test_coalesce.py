"""Symmetry-aware rank coalescing must be *exact*, not approximate.

Every test runs the same experiment twice — ``coalesce="off"`` (full SPMD)
and ``coalesce="require"`` (plan mandatory) — and asserts bit-identical
results: per-rank report arrays, roles, file-system statistics.  Runs use
the default (noisy) GPFS model on purpose: any divergence in event ordering
would desynchronize the noise RNG draw sequence and show up here.

coIO replays only the non-aggregator ranks of each file communicator (as
one cohort, a callback per segment of them; under TAM its node leaders
too), and 1PFPP every rank, as event callbacks standing where the rank
processes would have waited; their cells additionally compare file
images, fabric counters, the final clock, the whole Darshan record
sequence and the trace (totals and, in the cohort cells, every span for
coIO; every span for 1PFPP).

Configurations without a valid plan (rbIO/bbIO whose flow control can bind
in the run's steps, coIO and 1PFPP under delta) must fall back to the
uncoalesced path under ``coalesce="auto"``;
``tests/test_coalesce_faults.py`` holds the fault schedules.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.buffers import ByteRope, as_bytes, zeros
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    CheckpointResult,
    CheckpointStrategy,
    CollectiveIO,
    EvolvingData,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.ckpt.incremental import manifest_path, plan_delta
from repro.ckpt.layout import FileLayout
from repro.ckpt.result import RankReport, ReportTable
from repro.experiments import (
    run_checkpoint_steps,
)
from repro.experiments.runner import CheckpointRun, _data_fn, normalize_gaps
from repro.faults import FaultSchedule, FaultSpec, attach_faults, faults_of
from .test_fs_retry import retry_fs
from repro.mpi import Job, RankContext
from repro.mpiio import (
    FlatExchange,
    Hints,
    pick_aggregators,
    pick_node_aggregators,
)
from repro.storage import attach_storage
from repro.topology import NodeGroups, intrepid

PER_FIELD = 4096


def shared_data(n_fields: int = 3, payload: bool = True) -> CheckpointData:
    """One CheckpointData object shared by every rank (the symmetric case)."""
    rng = np.random.default_rng(7)
    fields = []
    for i in range(n_fields):
        body = (rng.integers(0, 256, size=PER_FIELD, dtype=np.uint8).tobytes()
                if payload else None)
        fields.append(Field(f"f{i}", PER_FIELD, body))
    return CheckpointData(fields, header_bytes=512)


def run_pair(strategy, n_ranks, data, **kwargs):
    off = run_checkpoint_steps(strategy, n_ranks, data, seed=11,
                               run_config=RunConfig(coalesce="off"), **kwargs)
    on = run_checkpoint_steps(strategy, n_ranks, data, seed=11,
                              run_config=RunConfig(coalesce="require"),
                              **kwargs)
    return off, on


def assert_identical(off, on):
    assert len(off.results) == len(on.results)
    for a, b in zip(off.results, on.results):
        assert a.roles == b.roles
        assert np.array_equal(a.ranks, b.ranks)
        # Bit-compatibility: exact float equality, no tolerance.
        for attr in ("t_start", "t_blocked_end", "t_complete", "bytes_local",
                     "isend_seconds"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
        assert a.fs_stats == b.fs_stats
    assert sorted(off.fs.files) == sorted(on.fs.files)


# ---------------------------------------------------------------------------
# rbIO / bbIO: coalescible (workers in a group are symmetric)
# ---------------------------------------------------------------------------

def test_rbio_single_step_exact():
    strategy = ReducedBlockingIO(workers_per_writer=8)
    off, on = run_pair(strategy, 32, shared_data())
    assert_identical(off, on)


def test_rbio_multi_step_with_gap_exact():
    strategy = ReducedBlockingIO(workers_per_writer=8)
    off, on = run_pair(strategy, 32, shared_data(), n_steps=3,
                       gap_seconds=0.5)
    assert_identical(off, on)


def test_rbio_no_per_step_barrier_exact():
    strategy = ReducedBlockingIO(workers_per_writer=8)
    off, on = run_pair(strategy, 32, shared_data(), n_steps=3,
                       gap_seconds=0.5, barrier_each_step=False)
    assert_identical(off, on)


def test_rbio_shared_file_exact():
    strategy = ReducedBlockingIO(workers_per_writer=8, single_file=True)
    off, on = run_pair(strategy, 32, shared_data())
    assert_identical(off, on)


def test_rbio_ragged_last_group_exact():
    # 32 ranks, groups of 12: last group is writer 24 + workers 25..31.
    strategy = ReducedBlockingIO(workers_per_writer=12)
    off, on = run_pair(strategy, 32, shared_data())
    assert_identical(off, on)


@pytest.mark.parametrize("tam", ["off", "auto"])
@pytest.mark.parametrize("single_file", [False, True], ids=["nf_ng", "nf1"])
def test_rbio_restore_after_a_coalesced_run(single_file, tam):
    check_rbio_restore_after_a_coalesced_run(single_file, tam, width=8)


@pytest.mark.parametrize("width", [12, 9], ids=["ragged", "lone_writer"])
@pytest.mark.parametrize("tam", ["off", "auto"])
@pytest.mark.parametrize("single_file", [False, True], ids=["nf_ng", "nf1"])
def test_rbio_restore_after_a_coalesced_run_with_a_short_last_group(
        single_file, tam, width):
    check_rbio_restore_after_a_coalesced_run(single_file, tam, width)


def check_rbio_restore_after_a_coalesced_run(single_file, tam, width):
    """The restore wave runs one process per rank on the same job: a
    replayed worker must find both setup splits done (as coIO's members
    find their file communicator), or it splits again and the writers,
    which hold theirs, never join — the restore deadlocks.  It finds them
    through one table entry per group (a ragged last group's too; a last
    group that is a lone writer has none), not one per member."""
    data = shared_data()
    n_ranks = 64  # 12: a last group of 4; 9: a last group of rank 63 alone
    runs, strategies = [], []
    for mode in ("off", "require"):
        strategy = ReducedBlockingIO(workers_per_writer=width,
                                     single_file=single_file)
        strategy.configure_tam(tam)
        strategies.append(strategy)
        runs.append(run_checkpoint_steps(
            strategy, n_ranks, data, n_steps=2, seed=11,
            run_config=RunConfig(coalesce=mode)))
        runs[-1].restore()
    off, on = runs
    assert_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert off.job.fabric.stats() == on.job.fabric.stats()
    # The rbIO replay records its workers' phases group by group: the same
    # records, in another order.
    assert sorted(records_of(off)) == sorted(records_of(on))
    want = [as_bytes(f.payload) for f in data.fields]
    for rank in range(n_ranks):
        assert off.restored[rank][0] == on.restored[rank][0] == 1
        assert [as_bytes(f) for f in off.restored[rank][1]] == want
        assert [as_bytes(f) for f in on.restored[rank][1]] == want
    strategy, job = strategies[1], on.job
    table = job.services[strategy._splits_key]
    assert sorted(table) == list(range((n_ranks - 2) // width + 1))
    for ctx in job.contexts:
        group = ctx.rank // width
        cache, writer = strategy._cache(ctx), job.contexts[group * width]
        # Every member is on its writer's own group communicator.
        assert cache["gcomm"].comm is strategy._cache(writer)["gcomm"].comm
        assert cache["gcomm"].world_rank == ctx.rank
        assert cache["am_writer"] == (ctx is writer)
        if ctx is not writer:
            assert table[group][ctx.rank].rank == cache["gcomm"].rank
            assert table[group].get(writer.rank) is None


def test_attach_storage_twice_resets_the_clients_that_exist():
    """Re-attaching drops the clients of the contexts that exist — there is
    nothing to reset on a rank that was never asked for its context — and
    builds no context to do it."""
    from repro.mpi import Job
    from repro.storage import attach_storage

    job = Job(64, intrepid().quiet())
    fs1 = attach_storage(job)
    used = job.contexts[3].fs
    assert used.fs is fs1 and len(job.contexts.built()) == 1
    fs2 = attach_storage(job, fs_type="pvfs")
    assert len(job.contexts.built()) == 1
    assert job.contexts[3].fs.fs is fs2 and job.contexts[9].fs.fs is fs2
    assert len(job.contexts.built()) == 2


def assert_file_images_identical(off, on):
    for path, fobj in off.fs.files.items():
        other = on.fs.files[path]
        assert fobj.size == other.size, path
        assert fobj.read_extents(0, fobj.size) == \
            other.read_extents(0, other.size), path


def test_rbio_file_bytes_identical():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    off, on = run_pair(strategy, 16, shared_data())
    assert_file_images_identical(off, on)


def test_bbio_exact_without_flow_control():
    strategy = BurstBufferIO(workers_per_writer=8, max_outstanding=None)
    off, on = run_pair(strategy, 32, shared_data(payload=False), n_steps=2,
                       gap_seconds=0.5)
    assert_identical(off, on)


def test_coalesce_spawns_fewer_processes():
    strategy = ReducedBlockingIO(workers_per_writer=8)
    plan = strategy.coalesce_plan(64)
    assert plan is not None
    # 8 groups of 7 workers each -> 6 replayed per group eliminated.
    assert sum(len(members) - 1 for members in plan) == 8 * 6
    assert all(type(members) is range for members in plan)


def spawn_order(plan, n_ranks):
    """Oracle of the runner's spawn sequence (the retired
    ``CoalescePlan.spawn_order``): in world-rank order, ``(rep, members)``
    for a representative, ``(rank, None)`` for a rank no group covers.
    A contiguous group is stepped over, not tested rank by rank."""
    reps = {members[0]: members for members in plan}
    skip: set = set()  # members of groups that are not contiguous
    r = 0
    while r < n_ranks:
        members = reps.get(r)
        if members is None:
            if r not in skip:
                yield r, None
        else:
            yield r, members
            if isinstance(members, range) and members.step == 1:
                r = members.stop
                continue
            skip.update(members)
        r += 1


def test_spawn_order_steps_over_a_group_and_names_every_other_rank():
    plan = ReducedBlockingIO(workers_per_writer=8).coalesce_plan(20)
    assert list(spawn_order(plan, 20)) == [
        (0, None), (1, range(1, 8)), (8, None), (9, range(9, 16)),
        (16, None), (17, range(17, 20))]
    # The runner spawns exactly that sequence, for every plan idiom.
    for strategy, n_ranks, config in (
            (OneFilePerProcess(), 64, None),
            (CollectiveIO(ranks_per_file=64), 256, None),
            (CollectiveIO(ranks_per_file=None), 128, None),
            (CollectiveIO(ranks_per_file=48), 128, None),  # ragged
            # 20 ranks on 4 nodes: a power-of-two torus.
            (ReducedBlockingIO(workers_per_writer=8), 20,
             intrepid().with_(cores_per_node=5))):
        run = run_checkpoint_steps(strategy, n_ranks, shared_data(),
                                   config=config,
                                   run_config=RunConfig(coalesce="require"))
        assert [r for r, _proc in run.job._rank_procs] == [
            r for r, _members in spawn_order(
                strategy.coalesce_plan(n_ranks), n_ranks)]


@pytest.mark.parametrize("plan", [
    (range(4, 8), range(0, 4)),
    (range(0, 5), range(4, 8)),
    (range(0, 40),),
    (range(3, 3),),
    (range(0, 8, 2),),
    ([1, 2, 3],),
], ids=["descending", "overlapping", "past_n_ranks", "empty", "strided",
        "not_a_range"])
def test_runner_rejects_a_malformed_plan(plan):
    class Offers(OneFilePerProcess):
        def coalesce_plan(self, n_ranks, loop=None):
            return plan

    with pytest.raises(ValueError, match="coalesce plan"):
        run_checkpoint_steps(Offers(), 32, shared_data(),
                             run_config=RunConfig(coalesce="auto"))


# ---------------------------------------------------------------------------
# Auto-disable: configurations that would diverge fall back, exactly
# ---------------------------------------------------------------------------

FLOW_CONTROLLED = {
    "rbio": lambda: ReducedBlockingIO(workers_per_writer=8, max_outstanding=2),
    "bbio": lambda: BurstBufferIO(workers_per_writer=8),  # 2 by default
}


@pytest.mark.parametrize("name", sorted(FLOW_CONTROLLED))
def test_flow_control_that_cannot_bind_takes_the_plan(name):
    """A worker first waits for an acknowledgement at step index
    ``max_outstanding``: a run of that many steps never waits, so it
    coalesces and equals its uncoalesced twin."""
    off, on = run_pair(FLOW_CONTROLLED[name](), 32, shared_data(), n_steps=2,
                       gap_seconds=0.5)
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert off.job.fabric.stats() == on.job.fabric.stats()
    assert len(on.job._rank_procs) == 8  # a writer and a replay per group


def test_flow_control_disables_plan():
    """One step more, and a worker may wait: ``auto`` runs every rank."""
    for make in FLOW_CONTROLLED.values():
        run = run_checkpoint_steps(make(), 32, shared_data(), n_steps=3,
                                   run_config=RunConfig(coalesce="auto"))
        assert len(run.job._rank_procs) == 32


def test_flow_control_require_raises():
    for make in FLOW_CONTROLLED.values():
        with pytest.raises(ValueError,
                           match="no plan for 3 step.*'max_outstanding': 2"):
            run_checkpoint_steps(make(), 32, shared_data(), n_steps=3,
                                 run_config=RunConfig(coalesce="require"))


@pytest.mark.parametrize("key", ["rbio_ng", "coio_64", "1pfpp"])
def test_require_with_a_per_rank_builder_names_the_builder(key):
    """The strategy offers a plan; the runner refuses it because a
    per-rank builder may hand ranks different data, and says so."""
    from repro.experiments.figures import strategy_for

    d = shared_data()
    with pytest.raises(ValueError, match="per-rank builder.*no plan"):
        run_checkpoint_steps(strategy_for(key, 64), 64, lambda r: d,
                             run_config=RunConfig(coalesce="require"))


def test_per_rank_data_builder_disables_coalescing():
    # A callable builder may hand each rank different data: never coalesce.
    strategy = ReducedBlockingIO(workers_per_writer=8)
    builder = lambda rank: shared_data()  # noqa: E731
    with pytest.raises(ValueError, match="no plan"):
        run_checkpoint_steps(strategy, 32, builder,
                             run_config=RunConfig(coalesce="require"))


@pytest.mark.parametrize("strategy", [
    CollectiveIO().configure_delta("auto"),
    ReducedBlockingIO(workers_per_writer=8, max_outstanding=2),
])
def test_auto_equals_off_when_no_plan(strategy):
    data = shared_data(payload=False)
    off = run_checkpoint_steps(strategy, 16, data, seed=3,
                               run_config=RunConfig(coalesce="off"))
    auto = run_checkpoint_steps(strategy, 16, data, seed=3,
                                run_config=RunConfig(coalesce="auto"))
    assert_identical(off, auto)


# ---------------------------------------------------------------------------
# coIO: non-aggregator ranks replayed as positioned event callbacks
# ---------------------------------------------------------------------------

#: Token storms at test scale (the calibrated knee needs thousands of
#: concurrent streams): shared-file bursts draw from the storm stream too.
STORMY = intrepid().with_(storm_knee=1.0, storm_beta=1.0,
                          storm_probability=0.6, storm_probability_max=0.6)

STEP_MODES = {
    "1step": {},
    "3steps": dict(n_steps=3, gap_seconds=0.5),
    "3steps-free": dict(n_steps=3, gap_seconds=0.25, barrier_each_step=False),
}


def coio(per_file):
    return CollectiveIO(ranks_per_file=per_file)


def records_of(run):
    return [(r.rank, r.op, r.start, r.end, r.nbytes, r.path)
            for r in run.profiler.records]


def run_traced(strategy, n_ranks, data, mode, **kwargs):
    run = run_checkpoint_steps(
        strategy, n_ranks, data, seed=11,
        run_config=RunConfig(trace="summary", coalesce=mode), **kwargs)
    return run, run.job.tracer.summary()


def assert_coio_identical(strategy, n_ranks, data, **kwargs):
    """off vs require, compared on everything a run leaves behind."""
    off, off_trace = run_traced(strategy, n_ranks, data, "off", **kwargs)
    on, on_trace = run_traced(strategy, n_ranks, data, "require", **kwargs)
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.fabric.stats() == on.job.fabric.stats()
    assert off.job.engine.now == on.job.engine.now
    assert records_of(off) == records_of(on)
    assert off_trace == on_trace
    return off


@pytest.mark.parametrize("steps", list(STEP_MODES))
@pytest.mark.parametrize("payload", [False, True], ids=["sizes", "payload"])
@pytest.mark.parametrize("config", [None, STORMY], ids=["noisy", "stormy"])
@pytest.mark.parametrize("n_ranks", [64, 128])
@pytest.mark.parametrize("per_file", [64, None], ids=["64to1", "nf1"])
def test_coio_exact(per_file, n_ranks, config, payload, steps):
    off = assert_coio_identical(coio(per_file), n_ranks,
                                shared_data(payload=payload), config=config,
                                **STEP_MODES[steps])
    assert off.fs.stats()["opens"] > 0
    if config is STORMY:
        assert off.fs.stats()["storms"] > 0


@pytest.mark.parametrize("per_file,n_ranks,config,steps", [
    (64, 256, None, "1step"),
    (None, 256, None, "3steps"),
    (64, 256, STORMY, "3steps-free"),
    (64, 1024, None, "1step"),
    (None, 1024, STORMY, "1step"),
], ids=lambda v: "stormy" if v is STORMY else str(v))
def test_coio_exact_larger(per_file, n_ranks, config, steps):
    assert_coio_identical(coio(per_file), n_ranks, shared_data(payload=False),
                          config=config, **STEP_MODES[steps])


def test_coio_exact_without_header_and_with_ragged_last_group():
    data = CheckpointData([Field("a", 3000), Field("b", 0), Field("c", 5000)],
                          header_bytes=0)
    assert_coio_identical(coio(48), 128, data)      # groups of 48, 48, 32
    assert_coio_identical(coio(None), 64, data, n_steps=2)  # back to back


@pytest.mark.parametrize("block_size,straddler", [(1024, "aggregator"),
                                                  (8192, "member")])
def test_coio_exact_when_an_extent_straddles_a_domain(block_size, straddler):
    """The domain boundary falls inside aggregator 32's own block (it ships
    the head to aggregator 0 between the members' sends) or inside member
    33's block (two sends, one ``all_of`` wait) — asserted, not assumed."""
    data = shared_data(payload=True)
    layout = FileLayout.uniform(data.header_bytes, data.field_sizes, 64)
    aggs = pick_aggregators(64, 2)
    split = set()
    for i, nbytes in enumerate(data.field_sizes):
        ex = FlatExchange.for_hints(
            [(layout.block_offset(i, r), nbytes) for r in range(64)],
            Hints(), block_size, plans={})
        split |= {r for r in range(64) if len(ex.sends(r)) > 1}
    assert split and all((r in aggs) == (straddler == "aggregator")
                         for r in split)
    config = intrepid().with_(fs_block_size=block_size)
    for n_ranks, per_file in ((128, 64), (64, None)):
        assert_coio_identical(coio(per_file), n_ranks, data, config=config,
                              **STEP_MODES["3steps"])


def spans_of(run):
    return [(s.rank, s.name, s.cat, s.start, s.end, s.nbytes, s.args)
            for s in run.job.tracer.spans]


@pytest.mark.parametrize("barrier_each_step", [True, False],
                         ids=["barriers", "free"])
@pytest.mark.parametrize("per_file,n_ranks", [(64, 128), (48, 128),
                                              (None, 128)],
                         ids=["64to1", "ragged", "nf1"])
def test_coio_cohort_exact_under_a_full_trace(per_file, n_ranks,
                                              barrier_each_step):
    """The members of a file communicator advance as one cohort, segment by
    segment; against a process per rank every span must come out the same,
    in the same order, through a gap, a zero gap (the steps chain inside
    one callback) and nf=1's idle aggregators (empty tail domains: they
    reach each barrier in the middle of the members and split the walk)."""
    off, on = (run_checkpoint_steps(
        coio(per_file), n_ranks, shared_data(), n_steps=3, seed=11,
        gap_seconds=(0.5, 0.0), barrier_each_step=barrier_each_step,
        run_config=RunConfig(trace="full", coalesce=mode))
        for mode in ("off", "require"))
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.fabric.stats() == on.job.fabric.stats()
    assert off.job.engine.now == on.job.engine.now
    assert records_of(off) == records_of(on)
    assert spans_of(off) == spans_of(on) and spans_of(on)
    n_agg = len(coio(per_file).coalesce_plan(n_ranks))
    assert len(on.job._rank_procs) == 2 * n_agg  # aggregators + run reps


def test_coio_cohort_lets_go_of_each_closed_handle():
    """A member's ``FileHandle`` (and the client stream it holds) is the
    close op's once the close starts: nothing of it outlives the step."""
    import gc

    from repro.storage import FileHandle

    off, on = run_pair(coio(64), 256, shared_data(), n_steps=2,
                       gap_seconds=0.5)
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    gc.collect()  # other tests' garbage; both runs are still referenced
    assert not [o for o in gc.get_objects() if type(o) is FileHandle]


def members_of(strategy, n_ranks):
    return {m for members in strategy.coalesce_plan(n_ranks)
            for m in members}


def member_isends(monkeypatch, strategy, n_ranks, data, **kwargs):
    """World ranks of replayed members that went through their own
    ``isend`` (the path a rank process takes) in a coalesced run, which is
    held against ``coalesce="off"`` on the way."""
    from repro.mpi import CommView
    plain = CommView.isend
    senders = set()

    def isend(self, *args, **kw):
        senders.add(self.world_rank)
        return plain(self, *args, **kw)

    assert_coio_identical(strategy, n_ranks, data, **kwargs)
    monkeypatch.setattr(CommView, "isend", isend)
    run_checkpoint_steps(strategy, n_ranks, data, seed=11,
                         run_config=RunConfig(coalesce="require"), **kwargs)
    return senders & members_of(strategy, n_ranks)


def test_coio_member_with_two_pieces_waits_like_its_process(monkeypatch):
    """A member whose extent straddles a file domain has two sends and one
    ``all_of`` wait; the sweep hands it to ``isend`` as a process would,
    and only it."""
    config = intrepid().with_(fs_block_size=8192)
    assert member_isends(monkeypatch, coio(64), 128, shared_data(),
                         config=config, n_steps=2) == {33, 97}


def test_coio_eager_and_empty_pieces_wait_like_their_process(monkeypatch):
    """A piece under the eager threshold completes on its local copy, not
    on delivery, and an empty extent sends nothing: every member takes
    ``isend``'s path for the first and none for the second."""
    data = CheckpointData([Field("a", 3000), Field("b", 0), Field("c", 800)],
                          header_bytes=64)
    assert 800 <= intrepid().eager_threshold < 3000
    assert member_isends(monkeypatch, coio(64), 64,
                         data) == members_of(coio(64), 64)


@pytest.mark.parametrize("per_file", [16, None], ids=["16to1", "nf1"])
def test_coio_restore_after_a_coalesced_run(per_file):
    """The restore wave runs one process per rank on the same job, so a
    replayed member must leave behind what its own checkpoint() would have:
    without the cached file communicator it splits again and the
    aggregators, which hold theirs, never join."""
    data = shared_data()
    strategies = coio(per_file), coio(per_file)
    off, on = (run_checkpoint_steps(strategy, 64, data, n_steps=2,
                                    seed=11,
                                    run_config=RunConfig(coalesce=mode))
               for strategy, mode in zip(strategies, ("off", "require")))
    off.restore()
    on.restore()
    for strategy, campaign in zip(strategies, (off, on)):
        assert all("iocomm" in strategy._cache(ctx)
                   for ctx in campaign.job.contexts)
    assert_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert records_of(off) == records_of(on)
    want = [as_bytes(f.payload) for f in data.fields]
    for rank in range(64):
        assert off.restored[rank][0] == on.restored[rank][0] == 1
        assert [as_bytes(f) for f in off.restored[rank][1]] == want
        assert [as_bytes(f) for f in on.restored[rank][1]] == want


def test_coio_plan_shape():
    plan = coio(64).coalesce_plan(256)
    aggregators = {g * 64 + a for g in range(4) for a in pick_aggregators(64, 2)}
    assert list(plan[:2]) == [
        range(1, 32), range(33, 64)]  # contiguous: a range, no rank objects
    assert len(plan) == 8
    covered = set()
    for members in plan:
        assert type(members) is range and members.step == 1
        assert covered.isdisjoint(members)
        covered.update(members)
    assert covered == set(range(256)) - aggregators
    # nf=1: the 31-rank runs between the world communicator's aggregators.
    nf1 = coio(None).coalesce_plan(2048)
    assert len(nf1) == 64
    assert all(len(members) == 31 and members[0] % 32 == 1
               for members in nf1)
    # Ragged last file group: its own (smaller) communicator, own aggregators.
    ragged = coio(48).coalesce_plan(128)
    assert list(ragged) == [range(1, 48), range(49, 96), range(97, 128)]


def test_coio_tam_plan_avoids_exactly_the_node_leader_aggregators():
    """Under TAM the aggregators are node leaders (on the default machine,
    four ranks a node): with three per 64-rank file they sit at 0, 20 and
    40, not at the flat stride's 0, 21 and 42, and the ragged last group of
    40 ranks has its own (0, 12 and 24)."""
    hints = Hints(cb_nodes=3)
    flat, tam = (CollectiveIO(64, hints.with_(tam=t)).coalesce_plan(232)
                 for t in ("off", "auto"))
    assert flat[:3] == (range(1, 21), range(22, 42), range(43, 64))
    assert tam[:3] == (range(1, 20), range(21, 40), range(41, 64))
    assert tam[-3:] == (range(193, 204), range(205, 216), range(217, 232))
    uncovered = set(range(232)) - {r for members in tam for r in members}
    want = set()
    for base in range(0, 232, 64):
        size = min(64, 232 - base)
        groups = NodeGroups(range(base, base + size), 4)
        want |= {base + a for a in pick_node_aggregators(
            groups.leaders, hints.n_aggregators(size))}
    assert uncovered == want
    # One core a node: no node to aggregate in, the flat placement.
    solo = run_checkpoint_steps(CollectiveIO(64, hints.with_(tam="auto")), 64,
                                shared_data(), config=intrepid().with_(
                                    cores_per_node=1))
    assert solo.loop.strategy.coalesce_plan(64, solo.loop) == flat[:3]


def test_coio_offers_no_plan_without_a_full_write_member():
    assert coio(64).configure_delta("auto").coalesce_plan(256) is None
    # Every rank an aggregator: nobody left to replay.
    assert CollectiveIO(64, Hints(ranks_per_aggregator=1)
                        ).coalesce_plan(256) is None


@pytest.mark.parametrize("case", ["builder", "delta"])
def test_coio_auto_without_a_plan_equals_off(case):
    runs = []
    for mode in ("off", "auto"):
        strategy, data = coio(16), shared_data()
        if case == "builder":
            data = lambda rank, d=data: d  # noqa: E731
        else:
            strategy.configure_delta("auto")
        runs.append(run_checkpoint_steps(
            strategy, 32, data, n_steps=2, seed=5,
            run_config=RunConfig(coalesce=mode)))
    assert_identical(*runs)
    assert records_of(runs[0]) == records_of(runs[1])


@pytest.mark.parametrize("case", ["tam", "faults"])
def test_coio_require_equals_off_under(case):
    """TAM and a file-system fault schedule take the plan: the node leaders
    join the cohort, a member's open retries in its own staged op."""
    runs = []
    for mode in ("off", "require"):
        strategy, faults = coio(16), None
        if case == "tam":
            strategy.configure_tam("auto")
        else:
            faults = FaultSchedule((
                FaultSpec(kind="fs_error", time=0.0, op="write", count=1),
                FaultSpec(kind="fs_error", time=0.0, op="open", count=2)))
        runs.append(run_checkpoint_steps(
            strategy, 32, shared_data(), n_steps=2, seed=5,
            run_config=RunConfig(coalesce=mode, faults=faults)))
    assert_identical(*runs)
    assert records_of(runs[0]) == records_of(runs[1])
    assert runs[0].job.engine.now == runs[1].job.engine.now
    if case == "faults":
        assert faults_of(runs[1].job).report()["injected"] == 3
    else:
        assert runs[1].job.fabric.stats()["tam_msgs"] > 0


class _AllButTheCreators(CollectiveIO):
    """coIO with every rank but each file's creator offered: aggregators
    join the cohort too."""

    def coalesce_plan(self, n_ranks, loop=None):
        per_file = self.ranks_per_file or n_ranks
        return tuple(range(base + 1, min(base + per_file, n_ranks))
                     for base in range(0, n_ranks, per_file))


@pytest.mark.parametrize("tam", ["off", "auto"])
@pytest.mark.parametrize("per_file,n_ranks", [(64, 256), (None, 128),
                                              (48, 128)],
                         ids=["64to1", "nf1", "ragged"])
def test_coio_aggregators_run_the_same_stages_in_a_cohort(per_file, n_ranks,
                                                          tam):
    """An aggregator's receive and burst commits and a node leader's gather
    are stages, so a cohort can drive them as it drives any member (small
    bursts: several commits per domain)."""
    strategy = _AllButTheCreators(per_file, Hints(tam=tam,
                                                  cb_buffer_size=2048))
    off = assert_coio_identical(strategy, n_ranks, shared_data(),
                                n_steps=3, gap_seconds=(0.5, 0.0))
    n_files = len(strategy.coalesce_plan(n_ranks))
    on = run_checkpoint_steps(strategy, n_ranks, shared_data(), seed=11,
                              n_steps=3, gap_seconds=(0.5, 0.0),
                              run_config=RunConfig(coalesce="require"))
    assert len(on.job._rank_procs) == 2 * n_files < len(off.job._rank_procs)


# ---------------------------------------------------------------------------
# 1PFPP: every rank replayed as positioned event callbacks
# ---------------------------------------------------------------------------

def assert_1pfpp_identical(strategy, n_ranks, data, copy="zerocopy",
                           **kwargs):
    """off vs require under a full trace: every span, record and counter."""
    off, on = (run_checkpoint_steps(
        strategy, n_ranks, data, seed=11,
        run_config=RunConfig(trace="full", copy=copy, coalesce=mode),
        **kwargs) for mode in ("off", "require"))
    assert len(on.job._rank_procs) == 1 and len(off.job._rank_procs) == n_ranks
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert records_of(off) == records_of(on)
    spans = [[(s.rank, s.name, s.cat, s.start, s.end, s.nbytes, s.args)
              for s in run.job.tracer.spans] for run in (off, on)]
    assert spans[0] == spans[1] and spans[0]
    copies = [{k: v for k, v in run.job.metrics().snapshot().items()
               if k.startswith("copy.")} for run in (off, on)]
    assert copies[0] == copies[1]
    return off


@pytest.mark.parametrize("copy", ["zerocopy", "eager"])
@pytest.mark.parametrize("steps", list(STEP_MODES))
@pytest.mark.parametrize("payload", [False, True], ids=["sizes", "payload"])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_1pfpp_exact(jitter, payload, steps, copy):
    off = assert_1pfpp_identical(
        OneFilePerProcess(arrival_jitter=jitter), 64,
        shared_data(payload=payload), copy=copy, **STEP_MODES[steps])
    assert off.fs.stats()["creates"] == 64 * len(off.results)
    if payload:
        assert off.job.metrics().get("copy.bytes_copied") > 0


@pytest.mark.parametrize("n_ranks,steps", [(1, "3steps"), (512, "3steps-free")])
def test_1pfpp_exact_one_rank_and_many(n_ranks, steps):
    assert_1pfpp_identical(OneFilePerProcess(), n_ranks,
                           shared_data(payload=False), **STEP_MODES[steps])


def test_1pfpp_restore_after_a_coalesced_run():
    """The restore wave runs one process per rank on the job a coalesced
    checkpoint ran on (the coIO lesson: what a replayed rank leaves behind
    must be what its own ``checkpoint()`` would have)."""
    data = shared_data()
    off, on = (run_checkpoint_steps(OneFilePerProcess(), 64, data,
                                    n_steps=2, seed=11,
                                    run_config=RunConfig(coalesce=mode))
               for mode in ("off", "require"))
    off.restore()
    on.restore()
    assert_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert records_of(off) == records_of(on)
    want = [as_bytes(f.payload) for f in data.fields]
    for rank in range(64):
        assert off.restored[rank][0] == on.restored[rank][0] == 1
        assert [as_bytes(f) for f in on.restored[rank][1]] == want


@pytest.mark.parametrize("case", ["delta", "builder"])
def test_1pfpp_require_without_a_plan_raises(case):
    strategy, data = OneFilePerProcess(), shared_data()
    if case == "delta":
        strategy.configure_delta("auto")
    else:
        data = lambda rank, d=data: d  # noqa: E731
    with pytest.raises(ValueError, match="no plan"):
        run_checkpoint_steps(strategy, 32, data,
                             run_config=RunConfig(coalesce="require"))


def test_bad_coalesce_value_rejected():
    with pytest.raises(ValueError, match="coalesce must be one of"):
        RunConfig(coalesce="yes")


# ---------------------------------------------------------------------------
# 1PFPP: the one staged program against the generator program it replaced
# ---------------------------------------------------------------------------
#
# The oracle is the earlier generator pair, kept verbatim (renamed): the
# runner's per-rank step loop and ``OneFilePerProcess.checkpoint``.  Both
# drivers of the staged program — a process per rank (``coalesce="off"``,
# faults, delta) and event callbacks (``coalesce="require"``) — must leave
# exactly what the oracle leaves.

def _oracle_rank_loop(ctx, strategy: CheckpointStrategy, data_fn,
                      steps: list[int], basedir: str,
                      gaps: tuple[float, ...], barrier_each_step: bool,
                      writer_set: frozenset, table: ReportTable):
    """Generator: one rank's steps; each step's report is filed in ``table``."""
    data = data_fn(ctx.rank)
    # Dedicated I/O ranks (rbIO writers) do not compute between
    # checkpoints — they spend the gap draining their backlog.  The writer
    # set is computed once per run and shared (rebuilding it per rank was
    # O(np^2) at 65K ranks).
    is_writer = ctx.rank in writer_set
    inj = ctx.job.services.get("faults")
    crash_t = inj.crash_time(ctx.rank) if inj is not None else None
    for i, step in enumerate(steps):
        dead = crash_t is not None and ctx.engine.now >= crash_t
        if gaps[i] > 0 and not is_writer and not dead:
            # Computation between checkpoints (nc * Tcomp).
            yield ctx.engine.timeout(gaps[i])
        if i == 0 or barrier_each_step:
            # Coordinated checkpoint start.  Without per-step barriers
            # ranks iterate at their own pace (the solver's nearest-
            # neighbour coupling, not a global barrier, is what loosely
            # synchronizes a real run) — this is the mode that exposes
            # rbIO writer backpressure.  Crashed ranks still enter the
            # barrier: crashes are cooperative at step boundaries, and the
            # barrier is what makes every rank evaluate the failure
            # oracle at the same instant.
            yield from ctx.comm.barrier()
        # Evolving workloads materialize each step's state just before it
        # is checkpointed (successive generations genuinely differ).
        d = data.at_step(step) if hasattr(data, "at_step") else data
        if crash_t is not None and ctx.engine.now >= crash_t:
            # This rank is dead for the rest of the campaign.  It ghosts
            # through any collective setup (communicator splits) so the
            # survivors' collectives complete, but contributes no data.
            yield from strategy.ghost(ctx, d, step, basedir)
            now = ctx.engine.now
            table.file(i, RankReport(
                rank=ctx.rank, role="crashed", t_start=now,
                t_blocked_end=now, t_complete=now, bytes_local=0))
            continue
        table.file(i, (yield from strategy.checkpoint(ctx, d, step, basedir)))


class _OracleOneFilePerProcess(OneFilePerProcess):
    """1PFPP with the generator checkpoint (no staged op)."""

    checkpoint_op = None

    @staticmethod
    def _file_payload(data: CheckpointData):
        """One rank's file image, header then fields (size-only: ``None``)."""
        if not data.has_payload:
            return None
        return ByteRope.concat(
            [zeros(data.header_bytes), data.concatenated_payload()])

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: create own file, stream header + fields, close.

        Nobody gathers; the plan is the whole file as one piece — header
        and fields (full write) or header and the chunks absent from the
        parent generation, with the manifest that maps every logical chunk
        to the generation and offset holding its bytes (delta); the commit
        is a POSIX create / write / close.
        """
        eng = ctx.engine
        t0 = eng.now
        if self.arrival_jitter > 0:
            rng = ctx.job.streams.stream("ckpt.jitter")
            yield eng.timeout(float(rng.random()) * self.arrival_jitter)
        path = self.rank_path(basedir, step, ctx.rank)
        manifest = None
        if self._delta_active(data):
            pieces, manifest = yield from plan_delta(
                self, ctx,
                [(0, data.field_sizes, data.concatenated_payload(), None)],
                step, data.header_bytes)
        else:
            pieces = [(0, data.header_bytes + data.total_bytes,
                       self._file_payload(data))]
        handle = yield from retry_fs(eng, lambda: ctx.fs.create(path),
                                     tracer=ctx.job.tracer)
        # POSIX stream write: header and fields leave the node as one
        # buffered sequential burst.
        for offset, nbytes, payload in pieces:
            yield from retry_fs(
                eng, lambda o=offset, n=nbytes, p=payload:
                    ctx.fs.write(handle, o, n, payload=p),
                tracer=ctx.job.tracer)
        yield from ctx.fs.close(handle)
        if manifest is not None:
            handle = yield from ctx.fs.create(manifest_path(path))
            yield from ctx.fs.write(handle, 0, len(manifest),
                                    payload=ByteRope.wrap(manifest))
            yield from ctx.fs.close(handle)
        t_end = eng.now
        return self._report(ctx, "independent", t0, t_end, t_end, data.total_bytes)


def run_oracle(strategy, n_ranks, data, n_steps=1, gap_seconds=0.0,
               barrier_each_step=True, run_config=None):
    """``run_checkpoint_steps`` with the oracle's rank loop and checkpoint."""
    oracle = _OracleOneFilePerProcess(strategy.arrival_jitter)
    if strategy.delta != "off":
        oracle.configure_delta(strategy.delta, strategy.chunking)
    job = Job(n_ranks, seed=11, run_config=run_config)
    fs = attach_storage(job)
    attach_faults(job, job.run_config.faults)
    table = ReportTable(n_steps, n_ranks)
    job.spawn(_oracle_rank_loop, oracle, _data_fn(data), list(range(n_steps)),
              "/ckpt", normalize_gaps(gap_seconds, n_steps),
              barrier_each_step, frozenset(), table)
    job.run()
    return CheckpointRun(job, [
        CheckpointResult(oracle.name, table, params=oracle.describe(),
                         fs_stats=fs.stats(), step=i) for i in range(n_steps)])


def counters(run, processes=True):
    """The run's simulated counters; with ``processes``, the event counts
    too (a coalesced run bootstraps and ends fewer processes)."""
    return {k: v for k, v in run.job.metrics().snapshot().items()
            if k.startswith(("copy.", "delta.", "fabric.", "faults."))
            or processes and k in ("sim.events_processed",
                                   "sim.batched_events")}


def assert_matches_oracle(strategy, n_ranks, data, modes=("off", "require"),
                          faults=None, **kwargs):
    """Every driver in ``modes`` against the oracle under a full trace:
    report rows, Darshan records, spans, file-system stats, file images,
    the final clock and the copy counters."""
    def config(mode):
        return RunConfig(trace="full", coalesce=mode, faults=faults)

    want = run_oracle(strategy, n_ranks, data, run_config=config("off"),
                      **kwargs)
    for mode in modes:
        got = run_checkpoint_steps(strategy, n_ranks, data, seed=11,
                                   run_config=config(mode), **kwargs)
        assert_identical(want, got)
        assert_file_images_identical(want, got)
        assert want.job.engine.now == got.job.engine.now
        assert records_of(want) == records_of(got)
        assert spans_of(want) == spans_of(got)
        assert counters(want, mode == "off") == counters(got, mode == "off")
    return want


@pytest.mark.parametrize("steps", list(STEP_MODES))
@pytest.mark.parametrize("payload", [False, True], ids=["sizes", "payload"])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_1pfpp_program_matches_the_oracle(jitter, payload, steps):
    assert_matches_oracle(OneFilePerProcess(arrival_jitter=jitter), 64,
                          shared_data(payload=payload), **STEP_MODES[steps])


@pytest.mark.parametrize("op", ["create", "write"])
def test_1pfpp_program_matches_the_oracle_under_a_transient_fault(op):
    faults = FaultSchedule((FaultSpec(kind="fs_error", time=0.0, op=op,
                                      count=3, transient=True),))
    run = assert_matches_oracle(OneFilePerProcess(), 32, shared_data(),
                                modes=("off", "require"), faults=faults,
                                n_steps=2, gap_seconds=0.5)
    assert run.job.services["faults"].injected


def test_1pfpp_program_matches_the_oracle_with_a_crashed_rank():
    faults = FaultSchedule((FaultSpec(kind="rank_crash", time=0.25,
                                      rank=5),))
    run = assert_matches_oracle(OneFilePerProcess(), 32, shared_data(),
                                modes=("off",), faults=faults, n_steps=3,
                                gap_seconds=0.5)
    assert run.results[-1].roles[5] == "crashed"


def test_1pfpp_program_matches_the_oracle_under_delta():
    strategy = OneFilePerProcess()
    strategy.configure_delta("auto")
    data = EvolvingData.mutating(points_per_rank=256, seed=3)
    run = assert_matches_oracle(strategy, 16, data, modes=("off",),
                                n_steps=3, gap_seconds=0.5)
    assert run.job.metrics().get("delta.chunk_hits") > 0


def test_1pfpp_checkpoint_in_a_process_is_the_runners_program():
    """``checkpoint()`` run directly in a rank process returns the report
    the runner's program files for that rank, with the same Darshan rows."""
    strategy, data = OneFilePerProcess(), shared_data()
    runner = run_checkpoint_steps(strategy, 16, data, seed=11,
                                  run_config=RunConfig(coalesce="off"))
    job = Job(16, seed=11)
    attach_storage(job)
    attach_faults(job, None)

    def main(ctx):
        yield from ctx.comm.barrier()
        return (yield from strategy.checkpoint(ctx, data, 0))

    job.spawn(main)
    reports = job.run()
    assert [reports[r] for r in range(16)] == [
        runner.result.report(r) for r in range(16)]
    assert all(isinstance(r, RankReport) for r in reports.values())
    assert records_of(runner) == [(r.rank, r.op, r.start, r.end, r.nbytes,
                                   r.path) for r in job.profiler.records]


@pytest.mark.parametrize("strategy,n_ranks", [
    (OneFilePerProcess(), 64),
    (CollectiveIO(ranks_per_file=64), 256),
    (ReducedBlockingIO(), 64),
], ids=["1pfpp", "coio_64", "rbio_ng"])
def test_a_member_files_its_rows_without_a_report_or_context(strategy,
                                                             n_ranks):
    """A coalesced run builds one context per process it spawns, none per
    member, and every member's row is filed."""
    runs = [run_checkpoint_steps(strategy, n_ranks, shared_data(),
                                 n_steps=2, gap_seconds=0.5, seed=11,
                                 run_config=RunConfig(coalesce=mode))
            for mode in ("off", "require")]
    plan = strategy.coalesce_plan(n_ranks, runs[1].loop)
    assert len(runs[1].job.contexts.built()) == n_ranks - sum(
        len(members) - 1 for members in plan)
    assert runs[1].result.roles == runs[0].result.roles
    assert "crashed" not in runs[1].result.roles
