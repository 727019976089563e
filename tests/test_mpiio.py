"""Tests for the MPI-IO layer: geometry, collective writes, data integrity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_hints_from_info_parses_romio_keys():
    h = Hints.from_info({
        "cb_nodes": "16",
        "cb_buffer_size": "8388608",
        "bgp_nodes_pset": "64",
        "tam": "auto",
        "align_file_domains": "false",
    })
    assert h.cb_nodes == 16
    assert h.cb_buffer_size == 8388608
    assert h.ranks_per_aggregator == 64
    assert h.tam == "auto"
    assert h.align_file_domains is False


def test_hints_from_info_layers_on_base():
    base = Hints(ranks_per_aggregator=8, tam="require")
    h = Hints.from_info({"cb_nodes": 3}, base=base)
    assert h.ranks_per_aggregator == 8   # untouched base field
    assert h.tam == "require"
    assert h.cb_nodes == 3


@pytest.mark.parametrize("info", [
    {"cb_nodes": "zero"},
    {"cb_nodes": 0},
    {"cb_buffer_size": -1},
    {"bgp_nodes_pset": "many"},
    {"tam": "maybe"},
    {"align_file_domains": "sometimes"},
])
def test_hints_from_info_invalid_values_name_the_key(info):
    (key,) = info
    with pytest.raises(ValueError, match=key):
        Hints.from_info(info)


def test_hints_from_info_rejects_unknown_keys():
    with pytest.raises(ValueError, match="romio_no_indep_rw"):
        Hints.from_info({"romio_no_indep_rw": "true"})


# ---------------------------------------------------------------------------
# RegionMap
# ---------------------------------------------------------------------------

def test_regionmap_global_range():
    rm = RegionMap([(100, 50), (0, 100), (150, 10)])
    assert rm.lo == 0
    assert rm.hi == 160
    assert rm.total_bytes == 160


def test_regionmap_senders_overlapping():
    # Ranks 0..3 write 100 bytes each, contiguous.
    rm = RegionMap([(i * 100, 100) for i in range(4)])
    senders = rm.senders_overlapping(150, 250)
    assert senders == [(1, 150, 200), (2, 200, 250)]


def test_regionmap_senders_exact_boundaries():
    rm = RegionMap([(0, 100), (100, 100)])
    assert rm.senders_overlapping(0, 100) == [(0, 0, 100)]
    assert rm.senders_overlapping(100, 200) == [(1, 100, 200)]


def test_regionmap_empty_range():
    rm = RegionMap([(0, 100)])
    assert rm.senders_overlapping(50, 50) == []


def test_regionmap_zero_length_regions_ignored_in_range():
    rm = RegionMap([(0, 0), (10, 5)])
    assert rm.lo == 10
    assert rm.hi == 15


def test_regionmap_zero_length_does_not_hide_overlap():
    """A zero-length region at the same offset must not end the scan early."""
    rm = RegionMap([(0, 400), (0, 0), (0, 0), (0, 0)])
    senders = rm.senders_overlapping(100, 200)
    assert senders == [(0, 100, 200)]


def test_regionmap_unsorted_input():
    rm = RegionMap([(200, 100), (0, 100), (100, 100)])
    senders = rm.senders_overlapping(0, 300)
    assert [s[0] for s in senders] == [1, 2, 0]


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
    assert empty.regions.hi <= empty.regions.lo


# ---------------------------------------------------------------------------
# MPIFile: independent path
# ---------------------------------------------------------------------------

def test_independent_open_write_read_roundtrip():
    data = np.arange(1000, dtype=np.float64).tobytes()

    def main(ctx):
        if ctx.rank != 0:
            return None
        f = yield from MPIFile.open_independent(ctx, "/out/self.dat")
        yield from f.write_at(0, len(data), payload=data)
        got = yield from f.read_at(0, len(data))
        yield from f.close()
        return got

    _, _, results = run_job(main, 4)
    assert results[0] == data


def test_independent_file_is_sole_owner():
    def main(ctx):
        f = yield from MPIFile.open_independent(ctx, f"/out/w{ctx.rank}.dat")
        yield from f.write_at(0, 1 << 20)
        yield from f.close()

    _, fs, _ = run_job(main, 4)
    assert fs.revocations == 0
    assert fs.storms == 0
    assert fs.stats()["files"] == 4


def test_write_on_closed_file_raises():
    def main(ctx):
        if ctx.rank != 0:
            return None
        f = yield from MPIFile.open_independent(ctx, "/f")
        yield from f.close()
        try:
            yield from f.write_at(0, 10)
        except RuntimeError:
            return "raised"
        return "no"

    _, _, results = run_job(main, 4)
    assert results[0] == "raised"


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


def test_split_collective_overlaps_other_work():
    """Between begin and end, ranks can do unrelated work."""
    n = 4
    marks = {}

    def main(ctx):
        f = yield from MPIFile.open(ctx, ctx.comm, "/s")
        req = f.write_at_all_begin(ctx.rank * (1 << 20), 1 << 20)
        # Simulated computation while I/O is in flight.
        yield ctx.engine.timeout(0.001)
        marks[ctx.rank] = ctx.engine.now
        yield from f.write_at_all_end(req)
        yield from f.close()
        return ctx.engine.now

    _, _, results = run_job(main, n)
    for r in range(n):
        assert marks[r] <= results[r]


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


def test_collective_write_on_independent_file_raises():
    def main(ctx):
        if ctx.rank != 0:
            return None
        f = yield from MPIFile.open_independent(ctx, "/f")
        try:
            f.write_at_all_begin(0, 10)
        except RuntimeError:
            return "raised"
        return "no"

    _, _, results = run_job(main, 4)
    assert results[0] == "raised"


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
