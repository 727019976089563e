"""Tests for the Lustre-like storage variant (future-work extension)."""

import pytest

from repro.ckpt import CollectiveIO, ReducedBlockingIO
from repro.experiments import run_checkpoint_steps, scaled_problem
from repro.mpi import Job
from repro.storage import GPFS, LustreFS, attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def make_lustre(n_ranks=8, **kwargs):
    job = Job(n_ranks, QUIET)
    fs = attach_storage(job, fs_type="lustre", **kwargs)
    return job, fs


def test_attach_storage_selects_variant():
    job, fs = make_lustre()
    assert isinstance(fs, LustreFS)
    job2 = Job(4, QUIET)
    assert isinstance(attach_storage(job2), GPFS)
    with pytest.raises(ValueError):
        attach_storage(Job(4, QUIET), fs_type="zfs")


def test_stripe_count_validation():
    with pytest.raises(ValueError):
        make_lustre(stripe_count=0)
    with pytest.raises(ValueError):
        make_lustre(stripe_count=10_000)


def test_file_touches_only_stripe_count_servers():
    job, fs = make_lustre(stripe_count=4)

    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, 64 * QUIET.fs_block_size)
        yield from ctx.fs.close(h)

    job.spawn(main, ranks=[0])
    job.run()
    fobj = fs.file("/f")
    servers = {fs.server_of_block(fobj, b) for b in range(64)}
    assert len(servers) == 4


def test_different_files_use_different_osts():
    job, fs = make_lustre(stripe_count=2)

    def main(ctx):
        h = yield from ctx.fs.create(f"/f{ctx.rank}")
        yield from ctx.fs.write(h, 0, QUIET.fs_block_size)
        yield from ctx.fs.close(h)

    job.spawn(main, ranks=[0, 1, 2, 3])
    job.run()
    osts = [
        fs.server_of_block(fs.file(f"/f{r}"), 0) for r in range(4)
    ]
    assert len(set(osts)) == 4  # round-robin OST allocation


def test_lustre_round_trip_data_integrity():
    data = bytes(range(256)) * 8
    job, fs = make_lustre()

    def main(ctx):
        h = yield from ctx.fs.create("/f")
        yield from ctx.fs.write(h, 0, len(data), payload=data)
        got = yield from ctx.fs.read(h, 0, len(data))
        yield from ctx.fs.close(h)
        return got

    job.spawn(main, ranks=[0])
    assert job.run()[0] == data


def test_lustre_creates_constant_service():
    """No directory-growth storm: N creates cost ~N * mds_service."""
    n = 16
    job, fs = make_lustre(n_ranks=n, mds_service=1e-3)

    def main(ctx):
        h = yield from ctx.fs.create(f"/dir/f{ctx.rank}")
        yield from ctx.fs.close(h)
        return ctx.engine.now

    job.spawn(main)
    results = job.run()
    assert max(results.values()) < n * 1e-3 * 2 + QUIET.meta_close_service * 2


def test_lustre_no_rmw_for_unaligned_shared_writes():
    bs = QUIET.fs_block_size
    job, fs = make_lustre(n_ranks=4)

    def main(ctx):
        if ctx.rank == 0:
            h = yield from ctx.fs.create("/shared")
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            h = yield from ctx.fs.open("/shared", write=True)
        # Deliberately unaligned, adjacent regions.
        yield from ctx.fs.write(h, ctx.rank * (bs + 100), bs + 100)
        yield from ctx.fs.close(h)

    job.spawn(main)
    job.run()
    assert fs.rmw_reads == 0  # extent locks: no whole-block RMW


def test_shared_file_ceiling_on_lustre():
    """A single shared file is limited to stripe_count OSTs: coIO nf=1 on
    Lustre underperforms the same run on GPFS (Dickens & Logan)."""
    n = 256
    data = scaled_problem(n).data()
    strategy = CollectiveIO(ranks_per_file=None)
    gpfs_bw = run_checkpoint_steps(strategy, n, data, config=QUIET).result.write_bandwidth
    strategy = CollectiveIO(ranks_per_file=None)
    lustre_bw = run_checkpoint_steps(strategy, n, data, config=QUIET,
                                     fs_type="lustre").result.write_bandwidth
    assert lustre_bw < gpfs_bw


def test_rbio_runs_unchanged_on_lustre():
    """The strategies are storage-agnostic: rbIO works on the variant."""
    n = 64
    data = scaled_problem(n).data()
    run = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=8), n,
                               data, config=QUIET, fs_type="lustre")
    res = run.result
    assert res.write_bandwidth > 0
    assert len(res.writer_ranks) == 8
