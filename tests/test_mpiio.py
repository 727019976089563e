"""Tests for the MPI-IO layer: geometry, collective writes, data integrity."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig
from repro.ckpt import CheckpointData, CollectiveIO, Field, ReducedBlockingIO
from repro.ckpt.base import PrivateCommit
from repro.experiments import run_checkpoint_steps
from repro.mpi import Job
from repro.mpiio import (
    FileDomains,
    FlatExchange,
    Hints,
    MPIFile,
    RegionMap,
    pick_aggregators,
)
from repro.storage import attach_storage
from repro.topology import intrepid

QUIET = intrepid().quiet()


def run_job(main, n_ranks, config=QUIET):
    job = Job(n_ranks, config)
    fs = attach_storage(job)
    job.spawn(main)
    results = job.run()
    return job, fs, results


# ---------------------------------------------------------------------------
# Hints
# ---------------------------------------------------------------------------

def test_hints_defaults_and_validation():
    h = Hints()
    assert h.ranks_per_aggregator == 32
    assert h.n_aggregators(64) == 2
    assert h.n_aggregators(16) == 1  # never zero
    with pytest.raises(ValueError):
        Hints(ranks_per_aggregator=0)
    with pytest.raises(ValueError):
        Hints(cb_buffer_size=0)


def test_hints_with_override():
    h = Hints().with_(ranks_per_aggregator=64)
    assert h.ranks_per_aggregator == 64
    assert h.align_file_domains is True


def test_hints_cb_nodes_precedence():
    # An explicit cb_nodes count wins over the ranks_per_aggregator ratio.
    h = Hints(ranks_per_aggregator=32, cb_nodes=7)
    assert h.n_aggregators(1024) == 7
    # Clamped to the communicator size, never zero.
    assert h.n_aggregators(4) == 4
    assert Hints(cb_nodes=1).n_aggregators(4096) == 1
    # Without cb_nodes the ratio rule is unchanged.
    assert Hints(ranks_per_aggregator=32).n_aggregators(1024) == 32


def test_hints_cb_nodes_validation():
    with pytest.raises(ValueError):
        Hints(cb_nodes=0)
    with pytest.raises(ValueError):
        Hints(tam="always")


# ---------------------------------------------------------------------------
# RegionMap
# ---------------------------------------------------------------------------

def test_regionmap_global_range():
    rm = RegionMap([(100, 50), (0, 100), (150, 10)])
    assert rm.lo == 0
    assert rm.hi == 160
    assert rm.total_bytes == 160


def test_regionmap_zero_length_regions_ignored_in_range():
    rm = RegionMap([(0, 0), (10, 5)])
    assert rm.lo == 10
    assert rm.hi == 15


# ---------------------------------------------------------------------------
# FileDomains
# ---------------------------------------------------------------------------

def test_domains_cover_range_exactly():
    fd = FileDomains(0, 1000, 4, block_size=1, align=False)
    covered = []
    for k in range(4):
        lo, hi = fd.domain(k)
        covered.append((lo, hi))
    assert covered[0][0] == 0
    assert covered[-1][1] == 1000
    for (a, b), (c, d) in zip(covered, covered[1:]):
        assert b == c


def test_domains_aligned_to_absolute_blocks():
    bs = 4096
    # Range starting mid-block (e.g. after a file header): interior
    # boundaries must still land on absolute block multiples.
    fd = FileDomains(100, 10 * bs + 17, 3, block_size=bs, align=True)
    for k in range(1, 3):
        lo_k, _ = fd.domain(k)
        assert lo_k % bs == 0


def test_domains_unaligned_mid_block_boundaries():
    bs = 4096
    fd = FileDomains(0, 3 * bs, 2, block_size=bs, align=False)
    lo1, _ = fd.domain(1)
    assert lo1 % bs != 0  # classic even split lands mid-block


def test_domains_more_domains_than_bytes():
    fd = FileDomains(0, 2, 8, block_size=1, align=False)
    spans = [fd.domain(k) for k in range(8)]
    assert spans[0] == (0, 1)
    assert spans[1] == (1, 2)
    assert all(lo == hi for lo, hi in spans[2:])  # empty tail domains


def test_domain_boundaries_vectorised_match_scalar():
    for lo, hi, n, bs, align in [(100, 10 * 4096 + 17, 3, 4096, True),
                                 (0, 2, 8, 1, False), (0, 0, 4, 64, True),
                                 (7, 1000, 5, 64, True), (0, 999, 4, 1, False)]:
        fd = FileDomains(lo, hi, n, block_size=bs, align=align)
        assert fd.boundaries().tolist() == [
            fd._boundary(k) for k in range(n + 1)]


def test_domains_overlapping_query():
    fd = FileDomains(0, 400, 4, block_size=1, align=False)
    assert list(fd.domains_overlapping(0, 100)) == [0]
    assert list(fd.domains_overlapping(50, 250)) == [0, 1, 2]
    assert list(fd.domains_overlapping(399, 400)) == [3]
    assert list(fd.domains_overlapping(400, 500)) == []


def test_domains_validation():
    with pytest.raises(ValueError):
        FileDomains(10, 0, 2, 1)
    with pytest.raises(ValueError):
        FileDomains(0, 10, 0, 1)
    fd = FileDomains(0, 10, 2, 1)
    with pytest.raises(ValueError):
        fd.domain(2)


@given(
    st.integers(min_value=1, max_value=1 << 20),
    st.integers(min_value=1, max_value=64),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_domains_partition_property(span, n_domains, align):
    """Domains tile [lo, hi) without gaps or overlaps for any parameters."""
    bs = 4096
    fd = FileDomains(0, span, n_domains, block_size=bs, align=align)
    pos = 0
    for k in range(n_domains):
        lo, hi = fd.domain(k)
        if lo == hi:
            continue
        assert lo == pos
        pos = hi
    assert pos == span


# ---------------------------------------------------------------------------
# pick_aggregators
# ---------------------------------------------------------------------------

def test_pick_aggregators_spread():
    assert pick_aggregators(64, 2) == [0, 32]
    assert pick_aggregators(64, 1) == [0]
    assert pick_aggregators(8, 8) == list(range(8))


def test_pick_aggregators_validation():
    with pytest.raises(ValueError):
        pick_aggregators(4, 5)
    with pytest.raises(ValueError):
        pick_aggregators(4, 0)


def scalar_plan(raw, n_aggregators, block_size, align=True):
    """Loop reference for :class:`FlatExchange`: what each rank used to
    work out for itself (sends) and each aggregator for its domain."""
    active = [(o, o + n) for o, n in raw if n > 0]
    lo = min((a for a, _b in active), default=0)
    hi = max((b for _a, b in active), default=0)
    fd = FileDomains(lo, hi, n_aggregators, block_size, align=align)
    aggs = pick_aggregators(len(raw), n_aggregators)
    sends = []
    for off, n in raw:
        mine = []
        if n > 0:
            for k in fd.domains_overlapping(off, off + n):
                dlo, dhi = fd.domain(k)
                a, b = max(off, dlo), min(off + n, dhi)
                if b > a:
                    mine.append((aggs[k], a, b))
        sends.append(mine)
    by_offset = sorted(range(len(raw)), key=lambda r: raw[r][0])
    expected = tuple(
        tuple(r for r in by_offset
              if r != agg and any(d == agg for d, _a, _b in sends[r]))
        for agg in aggs)
    return sends, expected


def assert_plan_matches_scalar(raw, n_aggregators, block_size, align=True):
    ex = FlatExchange(raw, n_aggregators, block_size, align=align)
    sends, expected = scalar_plan(raw, n_aggregators, block_size, align)
    assert [ex.sends(r) for r in range(len(raw))] == sends
    assert ex.expected == expected
    return ex


def test_flat_exchange_senders_in_file_offset_order():
    # Ranks hold the file's thirds out of rank order; one domain.
    ex = assert_plan_matches_scalar([(200, 100), (0, 100), (100, 100)], 1, 1)
    assert ex.expected == ((1, 2),)  # rank 0 is the aggregator itself
    assert ex.sends(2) == [(0, 100, 200)]


def test_flat_exchange_splits_an_extent_at_the_domain_boundary():
    # Two 300 B domains; rank 1's extent straddles the boundary and is
    # shipped as one piece to each aggregator (ranks 0 and 2).
    ex = assert_plan_matches_scalar(
        [(0, 250), (250, 350), (600, 0), (600, 0)], 2, 1, align=False)
    assert ex.sends(0) == [(0, 0, 250)]
    assert ex.sends(1) == [(0, 250, 300), (2, 300, 600)]
    assert ex.expected == ((1,), (1,))


def test_flat_exchange_exact_boundaries_send_one_piece():
    ex = assert_plan_matches_scalar([(0, 100), (100, 100)], 2, 1, align=False)
    assert ex.sends(0) == [(0, 0, 100)]
    assert ex.sends(1) == [(1, 100, 200)]
    assert ex.expected == ((), ())


def test_flat_exchange_zero_length_does_not_hide_a_sender():
    """Zero-length regions at a real region's offset contribute nothing and
    must not hide it from the aggregator."""
    ex = assert_plan_matches_scalar([(0, 0), (0, 400), (0, 0), (0, 0)], 1, 1)
    assert ex.expected == ((1,),)
    assert ex.sends(0) == ex.sends(2) == []


@given(
    lengths=st.lists(st.integers(0, 300), min_size=1, max_size=24),
    gaps=st.lists(st.integers(0, 40), min_size=24, max_size=24),
    order_seed=st.integers(0, 10_000),
    agg_div=st.integers(1, 8),
    bs=st.sampled_from([1, 16, 64, 256]),
    align=st.booleans(),
    base=st.integers(0, 500),
)
@settings(max_examples=150, deadline=None)
def test_flat_exchange_plan_equals_per_rank_loop(lengths, gaps, order_seed,
                                                 agg_div, bs, align, base):
    """The vectorised plan is the per-rank loop, for any non-overlapping
    extents (unordered, gapped, empty ones mixed in, degenerate domains)."""
    n = len(lengths)
    slots = np.random.default_rng(order_seed).permutation(n)
    raw = [None] * n
    pos = base
    for slot in slots:
        pos += gaps[slot]
        raw[slot] = (pos, lengths[slot])
        pos += lengths[slot]
    assert_plan_matches_scalar(raw, max(1, n // agg_div), bs, align)


def test_flat_exchange_is_the_per_rank_geometry_built_once():
    raw = [(100 * r, 100) for r in range(64)]
    ex = FlatExchange(raw, n_aggregators=2, block_size=64)
    assert (ex.regions.lo, ex.regions.hi) == (0, 6400)
    assert list(ex.aggregators) == pick_aggregators(64, 2)
    assert ex.agg_index == {0: 0, 32: 1}
    want = FileDomains(0, 6400, 2, 64)
    assert [ex.domains.domain(k) for k in range(2)] == [
        want.domain(k) for k in range(2)]
    # Nothing written anywhere: still constructible (ranks then only sync).
    empty = FlatExchange([(0, 0)] * 4, n_aggregators=1, block_size=64)
    assert empty.empty and not ex.empty
    assert empty.expected == ((),)


# ---------------------------------------------------------------------------
# Sole-owner files: the rbIO nf=ng writer calls the file system itself
# ---------------------------------------------------------------------------

def test_independent_open_write_read_roundtrip():
    data = np.arange(1000, dtype=np.float64).tobytes()
    strategy = ReducedBlockingIO(writer_buffer=3000)  # three bursts

    def main(ctx):
        if ctx.rank != 0:
            return None
        yield from PrivateCommit(ctx.fs, (("/out/self.dat",
                                           ((0, len(data), data),)),),
                                 strategy.writer_buffer).run()
        handle = yield from ctx.fs.open("/out/self.dat")
        return (yield from ctx.fs.read(handle, 0, len(data)))

    job, fs, results = run_job(main, 4)
    assert results[0] == data
    assert fs.stats()["files"] == 1
    writes = [r for r in job.profiler.records if r.op == "write"]
    assert [r.nbytes for r in writes] == [3000, 3000, 2000]


def test_independent_file_is_sole_owner():
    strategy = ReducedBlockingIO(workers_per_writer=4)
    run = run_checkpoint_steps(strategy, 16, CheckpointData.synthetic([4096] * 3),
                               config=QUIET)
    assert run.fs.revocations == 0
    assert run.fs.storms == 0
    assert run.fs.stats()["files"] == strategy.n_groups(16) == 4


def test_write_on_closed_file_raises():
    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/f")
        yield from f.close()
        try:
            yield from f.write_at_all(0, 10)
        except RuntimeError:
            return "raised"
        return "no"

    _, _, results = run_job(main, 4)
    assert set(results.values()) == {"raised"}


# ---------------------------------------------------------------------------
# MPIFile: collective path
# ---------------------------------------------------------------------------

def test_collective_write_data_integrity():
    """Each rank writes a distinct slice; file contents must be exact."""
    n = 8
    per = 1000

    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/out/shared.dat",
                                    hints=Hints(ranks_per_aggregator=4))
        payload = bytes([ctx.rank]) * per
        yield from f.write_at_all(ctx.rank * per, per, payload=payload)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    fobj = fs.file("/out/shared.dat")
    assert fobj.size == n * per
    data = fobj.read_extents(0, n * per)
    for r in range(n):
        assert data[r * per : (r + 1) * per] == bytes([r]) * per


def test_collective_write_single_aggregator():
    n = 8

    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/s",
                                    hints=Hints(ranks_per_aggregator=8))
        yield from f.write_at_all(ctx.rank * 100, 100,
                                  payload=bytes([ctx.rank]) * 100)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    data = fs.file("/s").read_extents(0, 800)
    assert all(data[i * 100] == i for i in range(n))


def test_collective_write_all_ranks_return_together():
    n = 8

    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/s")
        yield from f.write_at_all(ctx.rank * 4096, 4096)
        t = ctx.engine.now
        yield from f.close()
        return t

    _, _, results = run_job(main, n)
    assert len(set(results.values())) == 1  # collective: synchronized exit


def test_collective_write_empty_regions_everywhere():
    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/s")
        yield from f.write_at_all(0, 0)
        yield from f.close()
        return "ok"

    _, fs, results = run_job(main, 4)
    assert all(v == "ok" for v in results.values())
    assert fs.file("/s").size == 0


def test_collective_write_region_spanning_domains():
    """One rank's region can span several aggregator domains."""
    n = 4
    per = 64 * 1024

    def main(ctx):
        hints = Hints(ranks_per_aggregator=1, align_file_domains=False)
        f = yield from MPIFile.open(ctx, ctx.comm, "/s", hints=hints)
        # Rank 0 writes everything; others write nothing.
        if ctx.rank == 0:
            payload = bytes(range(256)) * (n * per // 256)
            yield from f.write_at_all(0, n * per, payload=payload)
        else:
            yield from f.write_at_all(0, 0)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    data = fs.file("/s").read_extents(0, n * per)
    assert data == bytes(range(256)) * (n * per // 256)


def test_collective_on_subcommunicator():
    """Split-collective groups write independent files (the coIO 64:1 shape)."""
    n = 8
    group = 4

    def main(ctx):
        sub = yield from ctx.comm.split(color=ctx.rank // group)
        f = yield from MPIFile.open(ctx, sub, f"/out/g{ctx.rank // group}.dat",
                                    hints=Hints(ranks_per_aggregator=2))
        payload = bytes([ctx.rank]) * 100
        yield from f.write_at_all(sub.rank * 100, 100, payload=payload)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    assert fs.stats()["files"] == 2
    g0 = fs.file("/out/g0.dat").read_extents(0, 400)
    g1 = fs.file("/out/g1.dat").read_extents(0, 400)
    assert [g0[i * 100] for i in range(4)] == [0, 1, 2, 3]
    assert [g1[i * 100] for i in range(4)] == [4, 5, 6, 7]


def test_aggregator_writes_use_multiple_bursts():
    """Domains larger than cb_buffer_size are committed in several writes."""
    n = 4
    cb = 1 << 20

    def main(ctx):
        hints = Hints(ranks_per_aggregator=4, cb_buffer_size=cb)
        f = yield from MPIFile.open(ctx, ctx.comm, "/s", hints=hints)
        yield from f.write_at_all(ctx.rank * cb, cb)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    # One aggregator, 4 MB domain, 1 MB bursts -> 4 write ops.
    assert fs.writes == 4


def test_successive_collective_writes_per_field_pattern():
    """The NekCEM pattern: one collective write per field, same file."""
    n = 4
    fields = 3
    per = 4096

    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/s",
                                    hints=Hints(ranks_per_aggregator=2))
        for fld in range(fields):
            base = fld * n * per
            payload = bytes([fld * 16 + ctx.rank]) * per
            yield from f.write_at_all(base + ctx.rank * per, per, payload=payload)
        yield from f.close()

    _, fs, _ = run_job(main, n)
    data = fs.file("/s").read_extents(0, fields * n * per)
    for fld in range(fields):
        for r in range(n):
            off = fld * n * per + r * per
            assert data[off] == fld * 16 + r


# ---------------------------------------------------------------------------
# One plan per distinct call per job, held weakly
# ---------------------------------------------------------------------------

def _spy_on_plans(monkeypatch, hold=False):
    """Record every plan ``FlatExchange.for_hints`` hands out: its regions,
    the plan (a weak reference unless the spy is to ``hold`` them), and
    whether it *is* the first plan handed out for those regions — asked
    then, while that one may still be live."""
    handed, first = [], {}
    real = FlatExchange.for_hints.__func__

    def spy(cls, raw, hints, block_size, plans):
        plan = real(cls, raw, hints, block_size, plans)
        key, ref = tuple(raw), weakref.ref(plan)
        handed.append((key, plan if hold else ref,
                       first.setdefault(key, ref)() is plan))
        return plan

    monkeypatch.setattr(FlatExchange, "for_hints", classmethod(spy))
    return handed


def _coio_run(ranks_per_file, n_ranks, coalesce, header_bytes=512):
    data = CheckpointData([Field(f"f{i}", 4096) for i in range(3)],
                          header_bytes=header_bytes)
    return run_checkpoint_steps(CollectiveIO(ranks_per_file), n_ranks, data,
                                seed=11, run_config=RunConfig(coalesce=coalesce))


def test_file_groups_making_the_same_call_share_one_plan(monkeypatch):
    """Coalesced ``coio_64`` at np=256: the four file groups make each of
    the three calls with the same regions, and all four receive the plan
    the first of them built (``is``, checked while it is live)."""
    handed = _spy_on_plans(monkeypatch)
    _coio_run(64, 256, "require", header_bytes=0)
    assert len(handed) == 4 * 3 and len({key for key, *_ in handed}) == 3
    assert all(same for *_, same in handed)


def test_two_jobs_never_share_a_plan(monkeypatch):
    """Job A's plans are held alive while job B makes the same calls:
    B builds its own, in its own table."""
    handed = _spy_on_plans(monkeypatch, hold=True)
    run_a = _coio_run(64, 128, "off")
    held = handed[:]
    del handed[:]
    run_b = _coio_run(64, 128, "off")
    assert run_b.job.services["mpiio:plans"] is not \
        run_a.job.services["mpiio:plans"]
    assert {key for key, *_ in handed} == {key for key, *_ in held}
    assert not any(b is a for _key, b, _same in handed
                   for _key_a, a, _same_a in held)


@pytest.mark.parametrize("coalesce", ["off", "require"])
def test_no_plan_outlives_its_call(coalesce):
    """After a ``coio_nf1`` run the job's plan table holds nothing: a
    strong memo would keep every distinct plan of the run alive."""
    run = _coio_run(None, 256, coalesce)
    plans = run.job.services["mpiio:plans"]
    assert isinstance(plans, weakref.WeakValueDictionary)
    assert list(plans.values()) == []
