"""Conformance tests for the bbIO burst-buffer checkpoint strategy.

BurstBufferIO must behave as a drop-in fourth strategy: bit-exact restart
round-trips at small scale through every restore tier (buffer, partner
replica, drained PFS file), rbIO-compatible file layouts once drained,
and worker blocking no worse than rbIO's.
"""

import numpy as np
import pytest

from repro.ckpt import BurstBufferIO, CheckpointData, Field, ReducedBlockingIO
from repro.experiments import run_checkpoint_steps
from repro.mpi import Job
from repro.staging import StagingConfig, StagingError, staging_of
from repro.storage import attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def payload_data(rank: int, per_field: int = 2048, n_fields: int = 3) -> CheckpointData:
    rng = np.random.default_rng(1000 + rank)
    fields = []
    for i in range(n_fields):
        body = rng.integers(0, 256, size=per_field, dtype=np.uint8).tobytes()
        fields.append(Field(f"f{i}", per_field, body))
    return CheckpointData(fields, header_bytes=512)


def roundtrip(strategy, n_ranks, config=QUIET):
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


#: Drain slow enough that packages are still buffer-resident at restore
#: time, chunked so the trickle costs O(1) simulation events.
SLOW_DRAIN = StagingConfig(drain_bandwidth=1e3, drain_chunk=1 << 20,
                           high_watermark=None)


def test_bbio_roundtrip_auto():
    strategy = BurstBufferIO(workers_per_writer=4)
    job, reports = roundtrip(strategy, 8)
    roles = {r: rep.role for r, rep in reports.items()}
    assert roles[0] == "writer" and roles[4] == "writer"
    assert all(roles[r] == "worker" for r in [1, 2, 3, 5, 6, 7])


def test_bbio_roundtrip_from_buffer():
    strategy = BurstBufferIO(workers_per_writer=4, staging=SLOW_DRAIN,
                             restore_from="buffer")
    job, _ = roundtrip(strategy, 8)
    svc = staging_of(job)
    # The restore really came from resident packages, not the PFS (the
    # trickle drain finishes later, while the engine runs to quiescence).
    assert job.services["fs"].stats()["reads"] == 0
    assert svc.stats()["drain"]["packages_drained"] == 2


def test_bbio_roundtrip_from_partner_zero_pfs_reads():
    strategy = BurstBufferIO(
        workers_per_writer=4,
        staging=StagingConfig(replicate=True),
        restore_from="partner",
    )
    job, _ = roundtrip(strategy, 8)
    assert job.services["fs"].stats()["reads"] == 0
    svc = staging_of(job)
    assert sum(len(b.replicas) for b in svc.buffers) == 2  # one per group


def test_bbio_roundtrip_from_pfs_waits_for_drain():
    strategy = BurstBufferIO(workers_per_writer=4, restore_from="pfs")
    job, _ = roundtrip(strategy, 8)
    # The forced-PFS restore read the drained files.
    assert job.services["fs"].stats()["reads"] > 0


def test_bbio_drained_files_match_rbio_layout():
    """After the drain, the PFS holds rbIO's nf=ng field-major files."""
    strategy = BurstBufferIO(workers_per_writer=4)
    job, _ = roundtrip(strategy, 8)
    fs = job.services["fs"]
    assert fs.stats()["files"] == 2
    per, nfld, hdr = 2048, 3, 512
    fobj = fs.file("/ckpt/step000000/writer00000.vtk")
    data = fobj.read_extents(0, hdr + 4 * per * nfld)
    for member, world_rank in enumerate(range(4)):
        expected = payload_data(world_rank)
        for i in range(nfld):
            off = hdr + i * 4 * per + member * per
            assert data[off : off + per] == expected.fields[i].payload


def test_bbio_partner_restore_without_replica_raises():
    strategy = BurstBufferIO(workers_per_writer=4, staging=SLOW_DRAIN,
                             restore_from="partner")
    job = Job(8, QUIET)
    attach_storage(job)

    def main(ctx):
        data = payload_data(ctx.rank)
        yield from ctx.comm.barrier()
        yield from strategy.checkpoint(ctx, data, 0, "/ckpt")
        yield from ctx.comm.barrier()
        yield from strategy.restore(ctx, data, 0, "/ckpt")

    job.spawn(main)
    with pytest.raises(StagingError):
        job.run()


def test_bbio_workers_unblock_before_drain_completes():
    strategy = BurstBufferIO(workers_per_writer=4)
    run = run_checkpoint_steps(strategy, 8, payload_data(0), config=QUIET)
    res = run.result
    worker_blocked = max(
        res.t_blocked_end[i] - res.t_start[i]
        for i in range(res.n_ranks) if res.roles[i] == "worker"
    )
    drain_end = staging_of(run.job).stats()["drain"]["last_drain_end"]
    assert drain_end > 0
    assert worker_blocked < drain_end / 10


def test_bbio_blocking_no_worse_than_rbio():
    bb = run_checkpoint_steps(BurstBufferIO(workers_per_writer=4), 8,
                              payload_data(0), config=QUIET).result
    rb = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=4), 8,
                              payload_data(0), config=QUIET).result
    assert bb.blocking_time <= rb.blocking_time + 1e-6


def test_bbio_deterministic_across_runs():
    r1 = run_checkpoint_steps(BurstBufferIO(workers_per_writer=4), 8,
                              payload_data(0), config=QUIET).result
    r2 = run_checkpoint_steps(BurstBufferIO(workers_per_writer=4), 8,
                              payload_data(0), config=QUIET).result
    assert r1.overall_time == r2.overall_time
    assert np.array_equal(r1.t_complete, r2.t_complete)


def test_bbio_validation_and_describe():
    with pytest.raises(ValueError):
        BurstBufferIO(restore_from="tape")
    d = BurstBufferIO(workers_per_writer=32,
                      staging=StagingConfig(replicate=True)).describe()
    assert d["name"] == "bbio"
    assert d["np:ng"] == "32:1"
    assert d["replicate"] is True
    assert d["restore_from"] == "auto"
