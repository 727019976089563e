"""Tests for the PVFS-like (lock-free) storage variant."""

import pytest

from repro.ckpt import CollectiveIO, ReducedBlockingIO
from repro.experiments import run_checkpoint_steps, scaled_problem
from repro.mpi import Job
from repro.storage import PVFS, attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def make_pvfs(n_ranks=8, **kwargs):
    job = Job(n_ranks, QUIET)
    fs = attach_storage(job, fs_type="pvfs", **kwargs)
    return job, fs


def test_attach_selects_pvfs():
    _, fs = make_pvfs()
    assert isinstance(fs, PVFS)
    assert fs.byte_range_locks is False
    assert fs.serialized_shared_allocation is False


def test_validation():
    with pytest.raises(ValueError):
        make_pvfs(no_cache_factor=0.5)


def test_no_lock_traffic_on_shared_files():
    bs = QUIET.fs_block_size
    job, fs = make_pvfs(4)

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        # Unaligned, adjacent regions that would revoke + RMW on GPFS.
        yield from ctx.fs.write(h, ctx.rank * (bs + 100), bs + 100)
        yield from ctx.fs.close(h)

    job.spawn(main)
    job.run()
    assert fs.revocations == 0
    assert fs.rmw_reads == 0
    assert fs.storms == 0


def test_shared_allocation_not_serialized():
    """Multi-writer shared-file writes avoid the GPFS allocation floor.

    Uses an effectively infinite data path so only metadata/allocation
    time remains.
    """
    FAST = QUIET.with_(
        client_stream_bandwidth=1e15, ion_uplink_bandwidth=1e15,
        server_disk_bandwidth=1e15, seek_penalty_per_stream=0.0,
        ion_latency=0.0, server_queue_service_fraction=0.0,
    )
    bs = FAST.fs_block_size
    blocks_per_rank = 16
    n = 8

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, ctx.rank * blocks_per_rank * bs,
                                blocks_per_rank * bs)
        yield from ctx.fs.close(h)
        return ctx.engine.now - t0

    gpfs_job = Job(n, FAST)
    attach_storage(gpfs_job)
    gpfs_job.spawn(main)
    t_gpfs = max(gpfs_job.run().values())

    pvfs_job = Job(n, FAST)
    attach_storage(pvfs_job, fs_type="pvfs")
    pvfs_job.spawn(main)
    t_pvfs = max(pvfs_job.run().values())
    # GPFS pays n * blocks * alloc_service serialization; PVFS does not.
    assert t_gpfs - t_pvfs > 0.5 * FAST.alloc_service * blocks_per_rank * n


def test_pvfs_constant_create_cost():
    n = 16
    job, fs = make_pvfs(n_ranks=n, mds_service=1e-3)

    def main(ctx):
        h = yield from ctx.fs.create(f"/dir/f{ctx.rank}")
        yield from ctx.fs.close(h)
        return ctx.engine.now

    job.spawn(main)
    out = job.run()
    assert max(out.values()) < n * 1e-3 * 2 + 0.01


def test_pvfs_roundtrip_data():
    data = b"pvfs-bytes" * 100
    job, fs = make_pvfs()

    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, len(data), payload=data)
        got = yield from ctx.fs.read(h, 0, len(data))
        yield from ctx.fs.close(h)
        return got

    job.spawn(main, ranks=[0])
    assert job.run()[0] == data


def test_coio_nf1_faster_on_pvfs_than_gpfs():
    """The nf=1 allocation ceiling is a GPFS artifact: PVFS lifts it."""
    n = 256
    data = scaled_problem(n).data()
    gpfs = run_checkpoint_steps(CollectiveIO(), n, data, config=QUIET).result
    pvfs = run_checkpoint_steps(CollectiveIO(), n, data, config=QUIET,
                                fs_type="pvfs").result
    assert pvfs.write_bandwidth > gpfs.write_bandwidth


def test_rbio_unchanged_semantics_on_pvfs():
    n = 64
    data = scaled_problem(n).data()
    run = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=8), n,
                               data, config=QUIET, fs_type="pvfs")
    res = run.result
    assert res.write_bandwidth > 0
    assert res.blocking_time < 1e-2
