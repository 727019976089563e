"""End-to-end reproducibility guarantees.

Every figure in EXPERIMENTS.md must be bit-reproducible: identical seeds
and configurations produce identical virtual-time measurements, and
different seeds perturb only the stochastic parts.
"""

import numpy as np

from repro import RunConfig
from repro.ckpt import CollectiveIO, OneFilePerProcess, ReducedBlockingIO
from repro.experiments import (
    clear_cache,
    fig5_write_bandwidth,
    run_checkpoint_steps,
    scaled_problem,
)
from repro.topology import intrepid

N = 512
DATA = scaled_problem(N).data()


def test_fig5_series_identical_across_processes_worth_of_state():
    """Clearing all caches and rerunning reproduces identical values."""
    clear_cache()
    a = fig5_write_bandwidth(sizes=(N,), approaches=("coio_64", "rbio_ng"))
    clear_cache()
    b = fig5_write_bandwidth(sizes=(N,), approaches=("coio_64", "rbio_ng"))
    clear_cache()
    for key in a:
        assert a[key][N] == b[key][N]


def test_noisy_runs_reproducible_with_default_seed():
    for strategy_factory in (
        lambda: OneFilePerProcess(),
        lambda: CollectiveIO(ranks_per_file=64),
        lambda: ReducedBlockingIO(workers_per_writer=64),
    ):
        r1 = run_checkpoint_steps(strategy_factory(), N, DATA).result
        r2 = run_checkpoint_steps(strategy_factory(), N, DATA).result
        assert r1.overall_time == r2.overall_time
        assert np.array_equal(r1.t_complete, r2.t_complete)


def test_different_seed_changes_noisy_measurement():
    r1 = run_checkpoint_steps(CollectiveIO(ranks_per_file=64), N, DATA,
                              seed=1).result
    r2 = run_checkpoint_steps(CollectiveIO(ranks_per_file=64), N, DATA,
                              seed=2).result
    assert r1.overall_time != r2.overall_time


def test_seed_does_not_matter_when_noise_disabled():
    quiet = intrepid().quiet()
    r1 = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=64), N,
                              DATA, config=quiet, seed=1).result
    r2 = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=64), N,
                              DATA, config=quiet, seed=2).result
    # rbIO uses no stochastic services in quiet mode except the 1PFPP-style
    # jitter (absent here): identical timings.
    assert r1.overall_time == r2.overall_time


def test_staging_benchmark_series_bit_identical():
    """Two same-seed bbIO staging campaigns produce identical series.

    The staging subsystem adds background drain processes, buffer
    queueing, and partner replication to the event mix — none of which
    may introduce ordering nondeterminism.
    """
    from repro.experiments import ext_staging_run
    from repro.staging import StagingConfig

    # Capacity must hold one step's residents plus replicas (~1.3 GB per
    # ION buffer here) but binds across steps, so the campaign exercises
    # deterministic reserve queueing and stalls too.
    staging = StagingConfig(capacity_bytes=3 * 1024**3 // 2,
                            drain_bandwidth=30e6, high_watermark=None,
                            replicate=True)
    runs = [
        ext_staging_run(n_ranks=N, n_steps=3, gap_seconds=2.0,
                        staging=staging, seed=7)
        for _ in range(2)
    ]
    a, b = runs
    assert a["per_step_blocking"] == b["per_step_blocking"]
    assert a["stall_seconds"] == b["stall_seconds"]
    assert a["stalls"] == b["stalls"]
    assert a["peak_used"] == b["peak_used"]
    assert a["last_drain_end"] == b["last_drain_end"]
    for ra, rb in zip(a["results"], b["results"]):
        assert np.array_equal(ra.t_complete, rb.t_complete)
        assert np.array_equal(ra.t_blocked_end, rb.t_blocked_end)


# -- fault-injection reproducibility ----------------------------------------

def _fs_image(job) -> dict:
    """Byte-exact snapshot of every file on the simulated PFS."""
    fs = job.services["fs"]
    return {
        path: (f.size, f.read_extents(0, f.size))
        for path, f in sorted(fs.files.items())
    }


def test_fault_schedule_generation_reproducible():
    from repro.faults import FaultConfig, FaultSchedule
    from repro.sim import StreamRegistry

    cfg = FaultConfig(fs_errors=3, fs_stalls=2, writer_crash_prob=0.9,
                      buffer_loss_prob=0.9, net_degrade_prob=0.9,
                      horizon=5.0)
    a = FaultSchedule.generate(StreamRegistry(11), 64, cfg)
    b = FaultSchedule.generate(StreamRegistry(11), 64, cfg)
    c = FaultSchedule.generate(StreamRegistry(12), 64, cfg)
    assert a == b
    assert a != c
    assert len(a) >= 5


def test_faulted_campaign_bit_reproducible():
    """Same seed, same schedule: identical reports, logs, and FS bytes."""
    from repro.ckpt import ReducedBlockingIO
    from repro.faults import FaultSchedule, FaultSpec, faults_of

    faults = FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
                  transient=True),
        FaultSpec(kind="rank_crash", time=1.0, rank=0),
    ))

    def campaign():
        run = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=16), 64, DATA, n_steps=2,
            run_config=RunConfig(faults=faults), gap_seconds=2.0, seed=5,
        )
        run.restore()
        return run

    a, b = campaign(), campaign()
    assert faults_of(a.job).report() == faults_of(b.job).report()
    assert {r: s for r, (s, _f) in a.restored.items()} == \
           {r: s for r, (s, _f) in b.restored.items()}
    for ra, rb in zip(a.results, b.results):
        assert np.array_equal(ra.t_complete, rb.t_complete)
        assert np.array_equal(ra.t_blocked_end, rb.t_blocked_end)
    assert _fs_image(a.job) == _fs_image(b.job)


def test_faulted_run_reproducible_under_auto_coalescing():
    """coalesce='auto' stays bit-identical when a fault schedule rides

    along (a non-empty schedule silently disables the coalescing plan)."""
    from repro.ckpt import ReducedBlockingIO
    from repro.experiments import run_checkpoint_steps
    from repro.faults import FaultSchedule, FaultSpec

    faults = FaultSchedule((
        FaultSpec(kind="fs_stall", time=0.0, op="create", delay=0.3),
    ))

    def run(mode):
        return run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=16), 64, DATA, 2,
            gap_seconds=1.0,
            run_config=RunConfig(coalesce=mode, faults=faults))

    a, b = run("auto"), run("auto")
    c = run("off")
    for x in (b, c):
        for ra, rx in zip(a.results, x.results):
            assert np.array_equal(ra.t_complete, rx.t_complete)
    assert _fs_image(a.job) == _fs_image(c.job)


def test_empty_schedule_is_zero_cost():
    """faults=None and an empty FaultSchedule are bit-identical: the

    injector hooks stay disarmed, so timing and FS bytes cannot move."""
    from repro.ckpt import CollectiveIO
    from repro.experiments import run_checkpoint_steps
    from repro.faults import FaultSchedule

    # The smallest partition with two file groups of two aggregators each.
    n, data = 128, scaled_problem(128).data()
    base = run_checkpoint_steps(CollectiveIO(ranks_per_file=64), n, data, 2,
                                gap_seconds=1.0)
    empty = run_checkpoint_steps(CollectiveIO(ranks_per_file=64), n, data, 2,
                                 gap_seconds=1.0,
                                 run_config=RunConfig(
                                     faults=FaultSchedule(())))
    for ra, rb in zip(base.results, empty.results):
        assert np.array_equal(ra.t_complete, rb.t_complete)
        assert ra.overall_time == rb.overall_time
    assert _fs_image(base.job) == _fs_image(empty.job)
    fs = empty.job.services["fs"]
    assert fs.injector is None
    assert empty.job.fabric.injector is None


# ---------------------------------------------------------------------------
# Engine-level determinism: FIFO tie-break at equal virtual times
# ---------------------------------------------------------------------------

def test_same_time_fifo_matches_seq_heap_reference():
    """Seeded interleaving: bucketed-calendar dispatch order must be
    bit-identical to the classic ``(time, seq)`` heap tie-break.

    Delays are drawn from a tiny discrete set so most instants hold many
    tied events; the engine must fire them in scheduling order.
    """
    import heapq

    from repro.sim import Engine

    rng = np.random.default_rng(20260807)
    delays = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=300)

    # Reference: stable heap keyed on (time, issue sequence number).
    heap = [(float(d), seq, seq) for seq, d in enumerate(delays)]
    heapq.heapify(heap)
    expected = [label for _, _, label in
                [heapq.heappop(heap) for _ in range(len(delays))]]

    eng = Engine()
    fired = []

    def proc(i, d):
        yield eng.timeout(float(d))
        fired.append(i)

    # Bootstrap events all fire at t=0 in creation order, so the timeouts
    # are issued in index order — matching the reference's seq numbering.
    for i, d in enumerate(delays):
        eng.process(proc(i, d))
    eng.run()
    assert fired == expected


def test_zero_delay_cascade_interleaving_is_fifo():
    """Events appended to an instant *while it drains* fire after every
    event scheduled there earlier, in append order — seeded across several
    tied instants with two-stage processes."""
    from repro.sim import Engine

    rng = np.random.default_rng(7)
    delays = rng.choice([1.0, 2.0, 3.0], size=60)

    eng = Engine()
    fired = []

    def proc(i, d):
        yield eng.timeout(float(d))
        fired.append(("first", i))
        yield eng.timeout(0.0)  # appended to the live bucket mid-drain
        fired.append(("second", i))

    for i, d in enumerate(delays):
        eng.process(proc(i, d))
    eng.run()

    expected = []
    for t in sorted(set(delays.tolist())):
        at_t = [i for i, d in enumerate(delays) if d == t]
        expected.extend(("first", i) for i in at_t)
        expected.extend(("second", i) for i in at_t)
    assert fired == expected


# ---------------------------------------------------------------------------
# Per-job state: runs in one process cannot observe each other
# ---------------------------------------------------------------------------

def _two_step_job(run_config, delta="off", tam="off"):
    """A spawned-but-not-run payload job: two evolving rbIO generations."""
    from repro.ckpt import EvolvingData
    from repro.experiments.figures import strategy_for
    from repro.mpi import Job
    from repro.storage import attach_storage

    strategy = strategy_for("rbio_ng", 64, delta=delta, tam=tam)
    data = EvolvingData.mutating(64, mutated_fraction=0.25, seed=3)
    job = Job(64, seed=9, run_config=run_config)
    attach_storage(job)

    def rank_main(ctx):
        mine = data.bind(ctx.rank)
        for step in range(2):
            yield from ctx.comm.barrier()
            yield from strategy.checkpoint(ctx, mine.at_step(step), step)

    job.spawn(rank_main)
    return job


def _observed(job) -> dict:
    metrics = job.metrics().snapshot()
    del metrics["sim.wall_seconds"], metrics["sim.events_per_second"]
    tracer = job.tracer
    return {
        "metrics": metrics,
        "spans": None if tracer is None else [
            (s.rank, s.cat, s.name, s.start, s.end, s.nbytes, s.members)
            for s in tracer.spans],
        "events": None if tracer is None else tracer.events,
        "records": [(r.rank, r.op, r.start, r.end, r.nbytes, r.path)
                    for r in job.profiler.records],
        "image": {path: (size, bytes(rope))
                  for path, (size, rope) in _fs_image(job).items()},
    }


def _loaded_and_plain():
    loaded = _two_step_job(RunConfig(trace="full"), delta="require",
                           tam="require")
    plain = _two_step_job(RunConfig())
    return loaded, plain


def test_alternately_advanced_jobs_match_isolated_runs():
    isolated = []
    for job in _loaded_and_plain():
        job.run()
        isolated.append(_observed(job))

    jobs = _loaded_and_plain()
    ends = [obs["metrics"]["sim.virtual_time"] for obs in isolated]
    for k in range(1, 40):
        for job, end in zip(jobs, ends):    # loaded, plain, loaded, ...
            job.run(until=end * k / 40)
    for job in jobs:
        job.run()
    assert [_observed(job) for job in jobs] == isolated
    assert isolated[0]["spans"] and isolated[0]["metrics"] != \
        isolated[1]["metrics"]


def test_plain_job_after_loaded_job_starts_from_zero():
    """No reset call anywhere: the second job's counters are its own."""
    loaded, plain = _loaded_and_plain()
    loaded.run()
    before = loaded.metrics().snapshot()
    assert before["delta.chunk_misses"] > 0 and before["copy.bytes_copied"] > 0
    assert before["fabric.tam_msgs"] > 0 and loaded.tracer.spans
    plain.run()
    after = plain.metrics().snapshot()
    assert plain.tracer is None
    assert all(after[k] == 0 for k in after
               if k.startswith(("delta.", "fabric.tam_")))
    # Its copies are exactly the isolated run's (one per committed byte).
    alone = _two_step_job(RunConfig())
    alone.run()
    assert after["copy.bytes_copied"] == \
        alone.metrics().get("copy.bytes_copied") > 0
    # ...and the first job's numbers did not move while the second ran.
    assert loaded.metrics().snapshot() == before
