"""Tests for the GPFS-like file system: metadata, allocation, locks, data."""

import pytest

from repro.mpi import Job
from repro.storage import FSError, attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def run_job(main, n_ranks=4, config=QUIET, ranks=None):
    job = Job(n_ranks, config)
    fs = attach_storage(job)
    job.spawn(main, ranks=ranks)
    results = job.run()
    return job, fs, results


# ---------------------------------------------------------------------------
# Metadata operations
# ---------------------------------------------------------------------------

def test_create_write_read_roundtrip():
    data = bytes(range(256)) * 10

    def main(ctx):
        h = yield from ctx.fs.create("/ckpt/file.vtk")
        yield from ctx.fs.write(h, 0, len(data), payload=data)
        yield from ctx.fs.close(h)
        h2 = yield from ctx.fs.open("/ckpt/file.vtk")
        got = yield from ctx.fs.read(h2, 0, len(data))
        yield from ctx.fs.close(h2)
        return got

    _, fs, results = run_job(main, 4, ranks=[0])
    assert results[0] == data
    assert fs.stats()["files"] == 1


def test_sparse_read_returns_zeros():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 100, 4, payload=b"abcd")
        got = yield from ctx.fs.read(h, 96, 12)
        yield from ctx.fs.close(h)
        return got

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == b"\x00" * 4 + b"abcd" + b"\x00" * 4


def test_open_missing_file_raises():
    def main(ctx):
        try:
            yield from ctx.fs.open("/nope")
        except FSError:
            return "raised"
        return "no error"

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == "raised"


def test_exclusive_create_existing_raises():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.close(h)
        try:
            yield from ctx.fs.create("/f", exclusive=True)
        except FSError:
            return "raised"
        return "no error"

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == "raised"


def test_create_existing_degrades_to_open():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, 4, payload=b"data")
        yield from ctx.fs.close(h)
        h2 = yield from ctx.fs.create("/f")  # open, not truncate-create
        got = yield from ctx.fs.read(h2, 0, 4)
        yield from ctx.fs.close(h2)
        return got

    _, fs, results = run_job(main, 4, ranks=[0])
    assert results[0] == b"data"
    assert fs.creates == 1


def test_double_close_raises():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.close(h)
        try:
            yield from ctx.fs.close(h)
        except FSError:
            return "raised"
        return "no"

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == "raised"


def test_write_after_close_raises():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.close(h)
        try:
            yield from ctx.fs.write(h, 0, 4)
        except FSError:
            return "raised"
        return "no"

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == "raised"


def test_directory_creates_serialize():
    """N creates in one directory take ~N * create_service (metadata storm)."""
    n = 16

    def main(ctx):
        h = yield from ctx.fs.create(f"/dir/file{ctx.rank}")
        yield from ctx.fs.close(h)
        return ctx.engine.now

    _, fs, results = run_job(main, n)
    svc = QUIET.meta_create_service
    assert max(results.values()) >= n * svc * 0.95
    # And the spread is roughly triangular: earliest finisher much sooner.
    assert min(results.values()) < max(results.values()) / 2


def test_creates_in_distinct_directories_parallel():
    n = 16

    def main(ctx):
        h = yield from ctx.fs.create(f"/dir{ctx.rank}/file")
        yield from ctx.fs.close(h)
        return ctx.engine.now

    _, _, results = run_job(main, n)
    svc = QUIET.meta_create_service
    assert max(results.values()) < 3 * svc + QUIET.meta_close_service


# ---------------------------------------------------------------------------
# Writes: sizes, allocation, locks
# ---------------------------------------------------------------------------

def test_write_zero_bytes_is_noop():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, 0)
        yield from ctx.fs.close(h)
        return "ok"

    _, fs, results = run_job(main, 4, ranks=[0])
    assert results[0] == "ok"
    assert fs.file("/f").size == 0


def test_write_bad_args_raise():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        for kwargs in [
            dict(offset=-1, nbytes=4),
            dict(offset=0, nbytes=-4),
        ]:
            try:
                yield from ctx.fs.write(h, **kwargs)
                return "no error"
            except FSError:
                pass
        try:
            yield from ctx.fs.write(h, 0, 4, payload=b"toolong!")
            return "no error"
        except FSError:
            return "raised"

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] == "raised"


def test_file_size_tracks_highest_offset():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 1000, 24)
        yield from ctx.fs.write(h, 0, 8)
        yield from ctx.fs.close(h)

    _, fs, _ = run_job(main, 4, ranks=[0])
    assert fs.file("/f").size == 1024


def test_sole_writer_no_revocations():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, 10 * QUIET.fs_block_size)
        yield from ctx.fs.close(h)

    _, fs, _ = run_job(main, 4, ranks=[0])
    assert fs.revocations == 0


def test_shared_file_alternating_writes_revoke_tokens():
    bs = QUIET.fs_block_size

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
            yield from ctx.fs.write(h, 0, bs)
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()
            # Rewrite a block now owned by rank 1: must revoke.
            yield from ctx.fs.write(h, bs, bs)
            yield from ctx.fs.close(h)
        elif ctx.rank == 1:
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
            yield from ctx.fs.write(h, bs, bs)
            yield from ctx.comm.barrier()
            yield from ctx.fs.close(h)
        else:
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()

    _, fs, _ = run_job(main, 4)
    assert fs.revocations >= 1


def test_shared_writes_to_disjoint_blocks_acquire_without_revoke():
    bs = QUIET.fs_block_size

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        if ctx.rank == 0:
            yield from ctx.comm.barrier()
        yield from ctx.fs.write(h, ctx.rank * bs, bs)
        yield from ctx.fs.close(h)

    _, fs, _ = run_job(main, 4)
    assert fs.revocations == 0


def test_shared_file_allocation_serializes():
    """Extent allocation on a multi-writer file costs per-block service."""
    bs = QUIET.fs_block_size
    blocks_per_rank = 8
    n = 8

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, ctx.rank * blocks_per_rank * bs, blocks_per_rank * bs)
        yield from ctx.fs.close(h)
        return ctx.engine.now - t0

    _, fs, results = run_job(main, n)
    total_alloc = QUIET.alloc_service * blocks_per_rank * n
    assert max(results.values()) >= total_alloc * 0.9


def test_sole_writer_allocation_batched():
    # Make data movement essentially free so only allocation time remains.
    fast = QUIET.with_(
        client_stream_bandwidth=1e15,
        ion_uplink_bandwidth=1e15,
        server_disk_bandwidth=1e15,
        seek_penalty_per_stream=0.0,
        ion_latency=0.0,
    )
    bs = fast.fs_block_size
    n_blocks = 2 * fast.alloc_batch_blocks

    def main(ctx):
        h = yield from ctx.fs.create("/big")
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, 0, n_blocks * bs)
        dt = ctx.engine.now - t0
        yield from ctx.fs.close(h)
        return dt

    _, _, results = run_job(main, 4, config=fast, ranks=[0])
    # Two batched segments, not n_blocks serial allocations.
    assert results[0] == pytest.approx(2 * fast.alloc_service, rel=0.01)


# ---------------------------------------------------------------------------
# Data-path timing
# ---------------------------------------------------------------------------

def test_single_stream_capped_by_client_bandwidth():
    nbytes = 64 << 20

    def main(ctx):
        h = yield from ctx.fs.create("/f")
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, 0, nbytes)
        dt = ctx.engine.now - t0
        yield from ctx.fs.close(h)
        return dt

    _, _, results = run_job(main, 4, ranks=[0])
    assert results[0] >= nbytes / QUIET.client_stream_bandwidth * 0.99


def test_ion_uplink_shared_within_pset():
    """Ranks in one pset share the ION pipe; aggregate <= uplink bandwidth."""
    nbytes = 32 << 20
    n = 8  # all within pset 0

    def main(ctx):
        h = yield from ctx.fs.create(f"/d{ctx.rank}/f")
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, 0, nbytes)
        yield from ctx.fs.close(h)
        return ctx.engine.now

    _, _, results = run_job(main, n)
    total = n * nbytes
    assert max(results.values()) >= total / QUIET.ion_uplink_bandwidth * 0.95


def test_reads_faster_than_contended_writes():
    nbytes = 16 << 20

    def main(ctx):
        h = yield from ctx.fs.create("/f")
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, 0, nbytes)
        t_write = ctx.engine.now - t0
        t0 = ctx.engine.now
        yield from ctx.fs.read(h, 0, nbytes)
        t_read = ctx.engine.now - t0
        yield from ctx.fs.close(h)
        return t_write, t_read

    _, _, results = run_job(main, 4, ranks=[0])
    t_write, t_read = results[0]
    assert t_read <= t_write  # no allocation cost on read


def test_stats_counters():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, 1024, payload=b"x" * 1024)
        yield from ctx.fs.read(h, 0, 1024)
        yield from ctx.fs.close(h)

    _, fs, _ = run_job(main, 4, ranks=[0])
    s = fs.stats()
    assert s["creates"] == 1
    assert s["writes"] == 1
    assert s["reads"] == 1
    assert s["bytes_stored"] == 1024


def test_noise_disabled_in_quiet_config():
    def main(ctx):
        h = yield from ctx.fs.create("/f")
        t0 = ctx.engine.now
        yield from ctx.fs.write(h, 0, 1 << 20)
        yield from ctx.fs.close(h)
        return ctx.engine.now - t0

    # Identical runs give identical times.
    _, _, r1 = run_job(main, 4, ranks=[0])
    _, _, r2 = run_job(main, 4, ranks=[0])
    assert r1[0] == r2[0]


def test_storms_only_on_shared_files():
    noisy = intrepid().with_(
        noise_sigma=0.0, storm_probability=1.0, storm_knee=1.0, storm_beta=0.0
    )

    def sole(ctx):
        h = yield from ctx.fs.create(f"/f{ctx.rank}")
        yield from ctx.fs.write(h, 0, 1 << 20)
        yield from ctx.fs.close(h)

    job = Job(4, noisy)
    fs = attach_storage(job)
    job.spawn(sole)
    job.run()
    assert fs.storms == 0

    def shared(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        yield from ctx.fs.write(h, ctx.rank * (1 << 22), 1 << 22)
        yield from ctx.fs.close(h)

    job = Job(4, noisy)
    fs = attach_storage(job)
    job.spawn(shared)
    job.run()
    assert fs.storms >= 1


# ---------------------------------------------------------------------------
# The staged create/write (PR 17) cost what the generator methods cost
# ---------------------------------------------------------------------------

def test_shared_file_with_storms_is_pinned_to_the_pre_staging_values():
    """Eight clients on one file — created once and opened seven times
    through ``create``, unaligned overlapping payload writes, an empty
    write, an aligned size-only write, a rewrite of own blocks — with token
    storms on.  The expected values were taken from the generator
    ``create``/``write`` before they were rebuilt from stages."""
    import hashlib

    stormy = intrepid().with_(storm_knee=1.0, storm_beta=1.0,
                              storm_probability=0.6,
                              storm_probability_max=0.6, fs_block_size=4096)

    def main(ctx):
        r = ctx.rank
        yield ctx.engine.timeout(0.001 * r)
        h = yield from ctx.fs.create("/d/shared.vtk")
        body = bytes([65 + r]) * 10_000
        yield from ctx.fs.write(h, 3_000 * r, 10_000, payload=body)
        yield from ctx.fs.write(h, 3_000 * r, 0)
        yield from ctx.fs.write(h, 40_000 + 4096 * r, 4096)
        yield from ctx.fs.write(h, 3_000 * r, 5_000, payload=body[:5_000])
        yield from ctx.fs.close(h)
        return ctx.engine.now

    job = Job(8, stormy, seed=3)
    fs = attach_storage(job)
    job.spawn(main)
    ends = job.run()
    assert [ends[r] for r in range(8)] == [
        0.003159892684915806, 0.01433060582470357, 6.238802721671697,
        15.35985340569074, 13.531828486689164, 50.727569758158936,
        13.075648798420094, 19.13706905140517]
    assert fs.stats() == {
        "files": 1, "creates": 1, "opens": 7, "writes": 24, "reads": 0,
        "storms": 13, "revocations": 17, "rmw_reads": 24,
        "bytes_stored": 72768}
    records = [(r.rank, r.op, r.start, r.end, r.nbytes, r.path)
               for r in job.profiler.records]
    assert len(records) == 48
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "6367bc8734411ed1ce5ccbadecd457b6aec28a7d72b3d1dabf03e28ee20533b2")
    fobj = fs.files["/d/shared.vtk"]
    assert hashlib.sha256(bytes(fobj.read_extents(0, fobj.size))
                          ).hexdigest() == (
        "37c4741f516d318fd91a5517a26f97ea11d34a02cbdbe9426f771b3563f0899f")


def test_noise_block_equals_the_scalar_draws():
    """``GPFS.noise()`` serves from prefetched blocks; the values must be
    the ones a scalar draw per call gives, across a block boundary."""
    import numpy as np
    from repro.sim import StreamRegistry

    config = intrepid()
    job = Job(4, config, seed=17)
    fs = attach_storage(job)
    rng = StreamRegistry(17).stream("fs.noise")
    want = [float(np.exp(rng.normal(0.0, config.noise_sigma)))
            for _ in range(5000)]
    assert [fs.noise() for _ in range(5000)] == want
