"""Tests for the three checkpoint strategies at small scale.

Every strategy is exercised with real payload bytes and verified by reading
the data back (restart round-trip), plus structural checks: file counts,
roles, writer/worker splits, and timing-semantics invariants.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointData,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.mpi import Job
from repro.storage import attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def payload_data(rank: int, per_field: int = 2048, n_fields: int = 3) -> CheckpointData:
    """Deterministic distinct payload per rank and field."""
    rng = np.random.default_rng(1000 + rank)
    fields = []
    for i in range(n_fields):
        body = rng.integers(0, 256, size=per_field, dtype=np.uint8).tobytes()
        fields.append(Field(f"f{i}", per_field, body))
    return CheckpointData(fields, header_bytes=512)


def roundtrip(strategy, n_ranks, config=QUIET, **kwargs):
    """Write a checkpoint, then restore it in the same job; verify bytes."""
    job = Job(n_ranks, config)
    attach_storage(job)

    def main(ctx):
        data = payload_data(ctx.rank)
        yield from ctx.comm.barrier()
        report = yield from strategy.checkpoint(ctx, data, 0, "/ckpt")
        yield from ctx.comm.barrier()
        fields = yield from strategy.restore(ctx, data, 0, "/ckpt")
        expected = [f.payload for f in data.fields]
        return (report, fields == expected)

    job.spawn(main)
    results = job.run()
    assert all(ok for _, ok in results.values()), "restored bytes differ"
    return job, {r: rep for r, (rep, _) in results.items()}


# ---------------------------------------------------------------------------
# 1PFPP
# ---------------------------------------------------------------------------

def test_1pfpp_roundtrip_and_file_count():
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    job, reports = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 8
    assert all(rep.role == "independent" for rep in reports.values())


def test_1pfpp_all_files_in_one_directory():
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    job, _ = roundtrip(strategy, 4)
    fs = job.services["fs"]
    dirs = {p.rsplit("/", 1)[0] for p in fs.files}
    assert dirs == {"/ckpt/step000000"}


def test_1pfpp_blocked_equals_complete():
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    _, reports = roundtrip(strategy, 4)
    for rep in reports.values():
        assert rep.t_blocked_end == rep.t_complete


def test_1pfpp_jitter_validation():
    with pytest.raises(ValueError):
        OneFilePerProcess(arrival_jitter=-1.0)


def test_1pfpp_describe():
    d = OneFilePerProcess().describe()
    assert d["name"] == "1pfpp"
    assert d["nf"] == "np"


# ---------------------------------------------------------------------------
# coIO
# ---------------------------------------------------------------------------

def test_coio_nf1_roundtrip_single_file():
    strategy = CollectiveIO(ranks_per_file=None)
    job, reports = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 1
    assert all(rep.role == "collective" for rep in reports.values())


def test_coio_grouped_roundtrip_file_count():
    strategy = CollectiveIO(ranks_per_file=4)
    job, _ = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 2


def test_coio_file_layout_field_major():
    """Sections are field-major: each field's blocks in rank order."""
    strategy = CollectiveIO(ranks_per_file=None)
    job, _ = roundtrip(strategy, 4)
    fs = job.services["fs"]
    (path,) = list(fs.files)
    fobj = fs.file(path)
    per, nf, hdr = 2048, 3, 512
    data = fobj.read_extents(0, hdr + 4 * per * nf)
    for rank in range(4):
        expected = payload_data(rank)
        for i in range(nf):
            off = hdr + i * 4 * per + rank * per
            assert data[off : off + per] == expected.fields[i].payload


def test_coio_all_ranks_finish_together():
    strategy = CollectiveIO(ranks_per_file=None)
    _, reports = roundtrip(strategy, 8)
    completes = {rep.t_complete for rep in reports.values()}
    assert len(completes) == 1


def test_coio_groups_finish_independently():
    strategy = CollectiveIO(ranks_per_file=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    # Within a group all ranks share a completion time.
    t = res.t_complete
    assert np.allclose(t[:4], t[0])
    assert np.allclose(t[4:], t[4])


def test_restore_figures_are_none_until_a_run_restores():
    """A live run answers ``restored_step`` and ``restore_seconds`` with
    ``None`` before its restart wave, and with the wave's figures after."""
    run = run_checkpoint_steps(CollectiveIO(ranks_per_file=64), 128,
                               CheckpointData.synthetic([4096] * 3),
                               n_steps=2, config=QUIET)
    assert run.restored_step is None and run.restore_seconds is None
    run.restore()
    assert run.restored_step == 1
    assert run.restore_seconds > 0


def test_coio_validation():
    with pytest.raises(ValueError):
        CollectiveIO(ranks_per_file=0)


def test_coio_describe():
    assert CollectiveIO().describe()["nf"] == 1
    assert CollectiveIO(ranks_per_file=64).describe()["nf"] == "np/64"


# ---------------------------------------------------------------------------
# rbIO
# ---------------------------------------------------------------------------

def test_rbio_roundtrip_per_writer_files():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    job, reports = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 2  # ng = 2 writers
    roles = {r: rep.role for r, rep in reports.items()}
    assert roles[0] == "writer" and roles[4] == "writer"
    assert all(roles[r] == "worker" for r in [1, 2, 3, 5, 6, 7])


def test_rbio_single_file_roundtrip():
    strategy = ReducedBlockingIO(workers_per_writer=4, single_file=True)
    job, _ = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 1


def test_rbio_workers_unblock_before_writers_finish():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    worker_blocked = max(
        res.t_blocked_end[i] - res.t_start[i]
        for i in range(res.n_ranks) if res.roles[i] == "worker"
    )
    writer_complete = max(
        res.t_complete[i] - res.t_start[i]
        for i in range(res.n_ranks) if res.roles[i] == "writer"
    )
    assert worker_blocked < writer_complete / 10


def test_rbio_perceived_bandwidth_exceeds_raw():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    assert res.perceived_bandwidth > res.write_bandwidth * 10


def test_rbio_writer_file_layout_field_major():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    job, _ = roundtrip(strategy, 8)
    fs = job.services["fs"]
    per, nfld, hdr = 2048, 3, 512
    fobj = fs.file("/ckpt/step000000/writer00000.vtk")
    data = fobj.read_extents(0, hdr + 4 * per * nfld)
    for member, world_rank in enumerate(range(4)):  # group 0 = ranks 0..3
        expected = payload_data(world_rank)
        for i in range(nfld):
            off = hdr + i * 4 * per + member * per
            assert data[off : off + per] == expected.fields[i].payload


def test_rbio_single_file_layout_global_field_major():
    strategy = ReducedBlockingIO(workers_per_writer=4, single_file=True)
    job, _ = roundtrip(strategy, 8)
    fs = job.services["fs"]
    per, nfld, hdr = 2048, 3, 512
    fobj = fs.file("/ckpt/step000000/all.vtk")
    data = fobj.read_extents(0, hdr + 8 * per * nfld)
    for rank in range(8):
        expected = payload_data(rank)
        for i in range(nfld):
            off = hdr + i * 8 * per + rank * per
            assert data[off : off + per] == expected.fields[i].payload


@pytest.mark.parametrize("tam", ["off", "auto"])
@pytest.mark.parametrize("delta", ["off", "auto"])
def test_rbio_single_file_with_a_ragged_last_group_restores(delta, tam):
    """np=16 at 6:1 leaves a last group of four.  Every writer's group must
    be placed at the prefix sum of the gathered group sizes: placing it by
    the writer's index times its *own* group size leaves the shared file
    short and every generation unrestorable."""
    from repro.buffers import as_bytes
    from repro.ckpt import ChunkingParams, EvolvingData

    data = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5,
                                 header_bytes=256)
    strategy = ReducedBlockingIO(workers_per_writer=6, single_file=True)
    if delta != "off":
        strategy.configure_delta(delta, chunking=ChunkingParams(
            min_size=256, avg_size=1024, max_size=4096))
    if tam != "off":
        strategy.configure_tam(tam)
    campaign = run_checkpoint_steps(strategy, 16, data, n_steps=2,
                                    config=QUIET, gap_seconds=1.0)
    campaign.restore()
    assert campaign.restored_step == 1
    for rank in range(16):
        step, fields = campaign.restored[rank]
        assert step == 1
        truth = data.bind(rank).at_step(1).fields
        assert [as_bytes(f) for f in fields] == [f.payload for f in truth]


def test_rbio_isend_window_recorded_for_workers():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    for i in range(res.n_ranks):
        if res.roles[i] == "worker":
            assert res.isend_seconds[i] > 0
        else:
            assert res.isend_seconds[i] == 0


def test_rbio_validation():
    with pytest.raises(ValueError):
        ReducedBlockingIO(workers_per_writer=1)
    with pytest.raises(ValueError):
        ReducedBlockingIO(writer_buffer=0)


def test_rbio_writer_ranks_helper():
    s = ReducedBlockingIO(workers_per_writer=64)
    assert s.writer_ranks(256) == [0, 64, 128, 192]
    assert s.n_groups(256) == 4


def test_rbio_describe():
    d = ReducedBlockingIO(workers_per_writer=32, single_file=True).describe()
    assert d["np:ng"] == "32:1"
    assert d["nf"] == 1


# ---------------------------------------------------------------------------
# Runner / multi-step
# ---------------------------------------------------------------------------

def test_multi_step_checkpoints_separate_directories():
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    run = run_checkpoint_steps(strategy, 4, payload_data(0), n_steps=3,
                               config=QUIET)
    assert len(run.results) == 3
    fs = run.fs
    dirs = {p.rsplit("/", 1)[0] for p in fs.files}
    assert dirs == {f"/ckpt/step{i:06d}" for i in range(3)}


def test_result_metrics_sane():
    strategy = CollectiveIO(ranks_per_file=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    assert res.total_bytes == 8 * 3 * 2048
    assert res.overall_time > 0
    assert res.write_bandwidth > 0
    assert res.blocking_time <= res.overall_time + 1e-12


def test_deterministic_across_runs():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    r1 = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET).result
    strategy2 = ReducedBlockingIO(workers_per_writer=4)
    r2 = run_checkpoint_steps(strategy2, 8, payload_data(0), config=QUIET).result
    assert r1.overall_time == r2.overall_time
    assert np.array_equal(r1.t_complete, r2.t_complete)


def test_noisy_config_still_deterministic_with_same_seed():
    noisy = intrepid()
    strategy = CollectiveIO(ranks_per_file=4)
    r1 = run_checkpoint_steps(strategy, 8, payload_data(0), config=noisy, seed=7).result
    strategy2 = CollectiveIO(ranks_per_file=4)
    r2 = run_checkpoint_steps(strategy2, 8, payload_data(0), config=noisy, seed=7).result
    assert r1.overall_time == r2.overall_time


def test_profiler_captures_write_ops():
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    run = run_checkpoint_steps(strategy, 4, payload_data(0), config=QUIET)
    counts = Counter(r.op for r in run.profiler.records)
    assert counts["create"] == 4
    assert counts["write"] == 4
    assert counts["close"] == 4
