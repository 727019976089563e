"""Unit tests for the staging subsystem (buffer, drain, replication, model)."""

import math

import pytest

from repro.sim import Engine, Pipe
from repro.staging import (
    BurstBuffer,
    DrainScheduler,
    MultiLevelModel,
    PartnerReplicator,
    StagedPackage,
    StagingConfig,
    StagingError,
    TierSpec,
    attach_staging,
    staging_of,
)


# ---------------------------------------------------------------------------
# StagingConfig
# ---------------------------------------------------------------------------

def test_config_defaults_valid():
    cfg = StagingConfig()
    assert cfg.placement == "ion"
    assert cfg.capacity_bytes == 4 * 1024**3
    assert not cfg.replicate


@pytest.mark.parametrize("kwargs", [
    {"placement": "pfs"},
    {"capacity_bytes": 0},
    {"device_bandwidth": 0.0},
    {"drain_bandwidth": -1.0},
    {"drain_chunk": 0},
    {"high_watermark": 0.0},
    {"high_watermark": 1.5},
    {"replica_shift": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        StagingConfig(**kwargs)


def test_config_none_watermark_is_hard_cap():
    cfg = StagingConfig(high_watermark=None)
    assert cfg.high_watermark is None


# ---------------------------------------------------------------------------
# BurstBuffer
# ---------------------------------------------------------------------------

def test_buffer_reserve_and_free_accounting():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=100, device_bandwidth=1e9)

    def proc():
        yield from buf.reserve(60)
        assert buf.used == 60
        assert buf.capacity - buf.used == 40
        buf.free(60)
        assert buf.used == 0

    eng.process(proc())
    eng.run()
    assert buf.stalls == 0


def test_buffer_reserve_blocks_until_free():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=100, device_bandwidth=1e9)
    admitted = []

    def first():
        yield from buf.reserve(80)
        yield eng.timeout(5.0)
        buf.free(80)

    def second():
        yield eng.timeout(1.0)
        yield from buf.reserve(50)
        admitted.append(eng.now)

    eng.process(first())
    eng.process(second())
    eng.run()
    assert admitted == [5.0]
    assert buf.stalls == 1
    assert buf.stall_seconds == pytest.approx(4.0)


def test_buffer_reserve_fifo_no_small_bypass():
    """A small request queued behind a big one must not jump the queue."""
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=100, device_bandwidth=1e9)
    order = []

    def holder():
        yield from buf.reserve(90)
        yield eng.timeout(10.0)
        buf.free(90)

    def want(name, nbytes, arrive):
        yield eng.timeout(arrive)
        yield from buf.reserve(nbytes)
        order.append(name)

    eng.process(holder())
    eng.process(want("big", 60, 1.0))
    eng.process(want("small", 5, 2.0))
    eng.run()
    assert order == ["big", "small"]


def test_buffer_rejects_oversized_package():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=100, device_bandwidth=1e9)
    with pytest.raises(StagingError):
        # Oversized reservation raises before the generator ever yields.
        list(buf.reserve(101))


def test_buffer_bad_free_raises():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=100, device_bandwidth=1e9)
    with pytest.raises(StagingError):
        buf.free(1)


def test_buffer_write_takes_device_time():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 30,
                      device_bandwidth=100.0)

    def proc():
        yield buf.write(200)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(2.0)


def test_buffer_link_is_pipelined_with_device():
    """Ingest over a slower link is bound by the link, not the sum."""
    eng = Engine()
    link = Pipe(eng, 50.0)
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 30,
                      device_bandwidth=100.0, link=link)

    def proc():
        yield buf.write(200)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(4.0)  # 200 B / 50 B/s, not 2 + 4


def test_buffer_drain_read_skips_link():
    eng = Engine()
    link = Pipe(eng, 50.0)
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 30,
                      device_bandwidth=100.0, link=link)

    def proc():
        yield buf.read(200, via_link=False)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(2.0)  # device only


def test_buffer_stage_unstage_residency():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 20,
                      device_bandwidth=1e9)
    pkg = StagedPackage(eng, step=3, group=1, path="/ckpt/x", nbytes=64)
    buf.stage(pkg)
    assert buf.resident[(3, 1)] is pkg
    buf.unstage(pkg)
    assert (3, 1) not in buf.resident


# ---------------------------------------------------------------------------
# DrainScheduler
# ---------------------------------------------------------------------------

class _FakeFSClient:
    """Records write calls; completes instantly."""

    def __init__(self, engine):
        self.engine = engine
        self.writes = []
        self.created = []
        self.closed = []

    def create(self, path):
        self.created.append(path)
        return iter(())  # empty generator: completes immediately
        yield  # pragma: no cover

    def write(self, handle, pos, nbytes, payload=None):
        self.writes.append((pos, nbytes))
        return
        yield  # pragma: no cover

    def close(self, handle):
        self.closed.append(handle)
        return
        yield  # pragma: no cover


def test_drain_frees_buffer_and_triggers_event():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 20,
                      device_bandwidth=1e9)
    fsc = _FakeFSClient(eng)
    cfg = StagingConfig(drain_chunk=256)
    drain = DrainScheduler(eng, lambda rank: fsc, cfg)

    def producer():
        yield from buf.reserve(1000)
        yield buf.write(1000)
        pkg = StagedPackage(eng, 0, 0, "/ckpt/step000000/writer00000.vtk",
                            1000)
        buf.stage(pkg)
        drain.enqueue(0, buf, pkg)
        yield pkg.drained
        assert buf.used == 0
        assert (0, 0) not in buf.resident

    eng.process(producer())
    eng.run()
    assert drain.packages_drained == 1
    assert drain.bytes_drained == 1000
    # 1000 B in 256 B chunks -> 4 bursts.
    assert [n for _, n in fsc.writes] == [256, 256, 256, 232]
    assert fsc.created == ["/ckpt/step000000/writer00000.vtk"]


def test_drain_trickle_paces_to_target_rate():
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 20,
                      device_bandwidth=1e12)
    fsc = _FakeFSClient(eng)
    cfg = StagingConfig(drain_bandwidth=100.0, drain_chunk=100,
                        high_watermark=None)
    drain = DrainScheduler(eng, lambda rank: fsc, cfg)

    def producer():
        yield from buf.reserve(1000)
        pkg = StagedPackage(eng, 0, 0, "/x", 1000)
        buf.stage(pkg)
        drain.enqueue(0, buf, pkg)
        yield pkg.drained

    eng.process(producer())
    eng.run()
    # 1000 B at 100 B/s hard trickle cap -> ~10 s.
    assert eng.now == pytest.approx(10.0, rel=0.05)


def test_drain_parked_process_does_not_block_run():
    """After the queue empties, engine.run() terminates."""
    eng = Engine()
    buf = BurstBuffer(eng, "bb", capacity_bytes=1 << 20,
                      device_bandwidth=1e9)
    drain = DrainScheduler(eng, lambda rank: _FakeFSClient(eng),
                           StagingConfig())

    def producer():
        yield from buf.reserve(10)
        pkg = StagedPackage(eng, 0, 0, "/x", 10)
        drain.enqueue(0, buf, pkg)
        yield pkg.drained

    eng.process(producer())
    eng.run()  # would hang if the parked drain held a live timer
    assert drain.backlog == 0


# ---------------------------------------------------------------------------
# PartnerReplicator
# ---------------------------------------------------------------------------

class _FakeFabric:
    def __init__(self, engine):
        self.engine = engine
        self.transfers = []

    def transfer(self, src, dst, nbytes):
        self.transfers.append((src, dst, nbytes))
        return self.engine.timeout(0.0)


def test_partner_group_wraps_around():
    eng = Engine()
    rep = PartnerReplicator(eng, _FakeFabric(eng), lambda r: None, shift=1)
    assert rep.partner_group(0, 4) == 1
    assert rep.partner_group(3, 4) == 0


def test_partner_group_requires_two_groups():
    eng = Engine()
    rep = PartnerReplicator(eng, _FakeFabric(eng), lambda r: None)
    with pytest.raises(StagingError):
        rep.partner_group(0, 1)


def test_replicate_stores_and_evicts_old_replica():
    eng = Engine()
    partner = BurstBuffer(eng, "bb", capacity_bytes=1000,
                          device_bandwidth=1e9)
    fabric = _FakeFabric(eng)
    rep = PartnerReplicator(eng, fabric, lambda rank: partner)

    def proc():
        old = StagedPackage(eng, 0, 2, "/a", 600)
        yield from rep.replicate(old, src_rank=0, partner_rank=64)
        assert partner.replicas[2].step == 0
        assert partner.used == 600
        # Replicating step 1 for the same group evicts step 0's copy
        # first, so both fit in a 1000 B device.
        new = StagedPackage(eng, 1, 2, "/b", 600)
        yield from rep.replicate(new, src_rank=0, partner_rank=64)
        assert partner.replicas[2].step == 1
        assert partner.used == 600

    eng.process(proc())
    eng.run()
    assert [(s, d) for s, d, _ in fabric.transfers] == [(0, 64), (0, 64)]
    assert rep.find_replica(64, group=2, step=1) is not None
    assert rep.find_replica(64, group=2, step=0) is None


# ---------------------------------------------------------------------------
# MultiLevelModel
# ---------------------------------------------------------------------------

def test_tier_spec_young_interval():
    t = TierSpec("pfs", write_seconds=50.0, read_seconds=50.0,
                 failure_rate=1 / 86400)
    assert t.young_interval() == pytest.approx(math.sqrt(2 * 50.0 * 86400))
    assert t.mtbf == pytest.approx(86400)


def test_tier_spec_zero_rate_never_checkpoints():
    t = TierSpec("pfs", write_seconds=50.0, read_seconds=50.0,
                 failure_rate=0.0)
    assert t.young_interval() == math.inf


def test_single_tier_matches_young_efficiency():
    w, r, lam = 50.0, 50.0, 1 / 86400
    m = MultiLevelModel.single_tier(w, r, lam)
    tau = math.sqrt(2 * w / lam)
    expected = 1.0 / (1.0 + w / tau + lam * (r + tau / 2))
    assert m.efficiency() == pytest.approx(expected)
    assert 0.9 < m.efficiency() < 1.0


def test_staged_model_beats_flat_pfs():
    """Absorbing frequent node failures in a fast tier wins."""
    lam_node, lam_sys = 1 / 21600, 1 / 604800
    flat = MultiLevelModel.single_tier(50.0, 50.0, lam_node + lam_sys)
    staged = MultiLevelModel.staged(
        buffer_write=2.0, buffer_read=2.0,
        pfs_write=50.0, pfs_read=50.0,
        node_failure_rate=lam_node, system_failure_rate=lam_sys,
    )
    assert staged.efficiency() > flat.efficiency()
    assert staged.improvement_over(flat) > 1.0


def test_model_tier_lookup():
    m = MultiLevelModel.staged(2.0, 2.0, 50.0, 50.0, 1 / 21600, 1 / 604800)
    assert m.tier("pfs").write_seconds == 50.0
    with pytest.raises(KeyError):
        m.tier("nope")


# ---------------------------------------------------------------------------
# StagingService
# ---------------------------------------------------------------------------

def test_attach_staging_and_lookup():
    from repro.mpi import Job
    from repro.storage import attach_storage
    from repro.topology import intrepid

    job = Job(8, intrepid().quiet())
    attach_storage(job)
    assert staging_of(job) is None
    svc = attach_staging(job, StagingConfig())
    assert staging_of(job) is svc
    # One ION buffer shared by the whole (single-pset) job.
    b0 = svc.buffer_for(0)
    b7 = svc.buffer_for(7)
    assert b0 is b7
    assert svc.stats()["stalls"] == 0


def test_node_placement_gives_private_buffers():
    from repro.mpi import Job
    from repro.storage import attach_storage
    from repro.topology import intrepid

    config = intrepid().quiet()
    job = Job(8, config)
    attach_storage(job)
    svc = attach_staging(job, StagingConfig(placement="node"))
    per_node = config.cores_per_node
    assert svc.buffer_for(0) is svc.buffer_for(per_node - 1)
    assert svc.buffer_for(0) is not svc.buffer_for(per_node)
    # Node-local buffers have no collective-network link stage.
    assert svc.buffer_for(0).link is None
