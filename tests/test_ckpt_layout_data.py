"""Tests for CheckpointData, FileLayout, and RankReport/CheckpointResult."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import as_bytes
from repro.ckpt import (
    CheckpointData,
    CheckpointResult,
    EvolvingData,
    Field,
    FileLayout,
    RankReport,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.topology import intrepid


# ---------------------------------------------------------------------------
# Field / CheckpointData
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ValueError):
        Field("x", -1)
    with pytest.raises(ValueError):
        Field("x", 4, b"too long")
    Field("x", 4, b"1234")  # ok


def test_data_totals_and_flags():
    d = CheckpointData([Field("a", 10, b"x" * 10), Field("b", 5, b"y" * 5)],
                       header_bytes=100)
    assert d.total_bytes == 15
    assert d.n_fields == 2
    assert d.field_sizes == (10, 5)
    assert d.has_payload
    assert d.concatenated_payload() == b"x" * 10 + b"y" * 5


def test_data_missing_payload():
    d = CheckpointData([Field("a", 10), Field("b", 5, b"y" * 5)])
    assert not d.has_payload
    assert d.concatenated_payload() is None


def test_data_duplicate_names_rejected():
    with pytest.raises(ValueError):
        CheckpointData([Field("a", 1), Field("a", 1)])


def test_data_negative_header_rejected():
    with pytest.raises(ValueError):
        CheckpointData([Field("a", 1)], header_bytes=-1)


def test_synthetic_builder():
    d = CheckpointData.synthetic([100, 200], names=["u", "v"])
    assert d.field_sizes == (100, 200)
    assert [f.name for f in d.fields] == ["u", "v"]


def test_nekcem_like_shape():
    d = CheckpointData.nekcem_like(1000)
    assert d.n_fields == 7
    assert [f.name for f in d.fields][0] == "geometry"
    # ~142 bytes per point total.
    assert d.total_bytes == 94 * 1000 + 6 * 8 * 1000


# ---------------------------------------------------------------------------
# EvolvingData layout template
# ---------------------------------------------------------------------------

def _counting_advance(data: EvolvingData) -> list[tuple[int, int]]:
    """Record every ``(rank, step)`` the mutating workload materializes."""
    calls: list[tuple[int, int]] = []
    inner = data.fn._advance

    def advance(state, rank, step):
        calls.append((rank, step))
        return inner(state, rank, step)

    data.fn._advance = advance
    return calls


def test_evolving_template_is_free_and_size_only():
    data = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5,
                                 header_bytes=256)
    calls = _counting_advance(data)
    bound = data.bind(3)
    template = bound.template()
    assert bound.total_bytes == template.total_bytes
    assert calls == []
    assert template.has_payload is False

    step0 = bound.at_step(0)
    assert step0.has_payload
    assert template.field_sizes == step0.field_sizes
    assert [f.name for f in template.fields] == [f.name for f in step0.fields]
    assert template.header_bytes == step0.header_bytes == 256
    assert template.total_bytes == step0.total_bytes


def test_evolving_template_does_not_rewind_state():
    data = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5)
    bound = data.bind(1)
    bound.at_step(2)
    calls = _counting_advance(data)
    bound.template()
    got = bound.at_step(3)
    # Continued from the cached step-2 state: no replay from step 0.
    assert calls == [(1, 3)]
    fresh = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5).bind(1)
    assert ([as_bytes(f.payload) for f in got.fields]
            == [as_bytes(f.payload) for f in fresh.at_step(3).fields])


def test_evolving_template_falls_back_to_step0_without_layout():
    calls = []

    def fn(rank, step):
        calls.append((rank, step))
        return CheckpointData([Field("a", 4, bytes([rank, step, 0, 0]))])

    template = EvolvingData(fn).bind(2).template()
    assert calls == [(2, 0)]
    assert template.field_sizes == (4,)


def test_resilient_restore_from_layout_template_is_bit_identical():
    n_ranks, n_steps = 16, 3
    data = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5,
                                 header_bytes=256)
    strategy = ReducedBlockingIO(workers_per_writer=8)
    strategy.configure_delta("require")
    campaign = run_checkpoint_steps(
        strategy, n_ranks, data, n_steps=n_steps, config=intrepid().quiet(),
        gap_seconds=2.0)
    campaign.restore()
    assert campaign.restored_step == n_steps - 1
    truth = EvolvingData.mutating(300, mutated_fraction=0.25, seed=5,
                                  header_bytes=256)
    for rank in range(n_ranks):
        _step, fields = campaign.restored[rank]
        want = truth.bind(rank).at_step(n_steps - 1)
        assert ([as_bytes(f) for f in fields]
                == [as_bytes(f.payload) for f in want.fields])


# ---------------------------------------------------------------------------
# FileLayout
# ---------------------------------------------------------------------------

def test_layout_uniform_offsets():
    lo = FileLayout.uniform(100, [10, 20], 3)
    # Section 0 (size 10 each): members at 100, 110, 120.
    assert [lo.block_offset(0, m) for m in range(3)] == [100, 110, 120]
    # Section 1 starts after section 0 (30 bytes).
    assert lo.section_offsets[1] == 130
    assert [lo.block_offset(1, m) for m in range(3)] == [130, 150, 170]
    assert lo.total_size == 100 + 30 + 60


def test_layout_ragged_members():
    lo = FileLayout(0, [[5, 1], [10, 2], [15, 3]])
    assert lo.block_offset(0, 0) == 0
    assert lo.block_offset(0, 1) == 5
    assert lo.block_offset(0, 2) == 15
    assert lo.section_offsets[1] == 30
    assert lo.block_offset(1, 0) == 30


def test_layout_validation():
    with pytest.raises(ValueError):
        FileLayout(-1, [[1]])
    with pytest.raises(ValueError):
        FileLayout(0, [])
    with pytest.raises(ValueError):
        FileLayout(0, [[1, 2], [3]])  # ragged field counts
    with pytest.raises(ValueError):
        FileLayout(0, [[-1]])
    lo = FileLayout(0, [[1]])
    with pytest.raises(ValueError):
        lo.block_offset(1, 0)
    with pytest.raises(ValueError):
        lo.block_offset(0, 1)


@pytest.mark.parametrize("sizes", [
    [[1, 2], [3, 4.5]],   # was truncated: total_size 10
    [[1, 2], [3, 4.0]],   # integral, but not an int
    [[True, 2]],          # a bool is not a size
    [[1, 2], [True, 2]],  # equal to [1, 2], still a bool
    [[1, 2], ["3", 4]],
])
def test_layout_rejects_sizes_that_are_not_ints(sizes):
    with pytest.raises(ValueError, match="field sizes must be ints"):
        FileLayout(0, sizes)


@pytest.mark.parametrize("sizes", [[[1, 2], [3]], [[1], [2, 3], [4]], [[], [1]]])
def test_layout_names_a_ragged_member(sizes):
    with pytest.raises(ValueError, match="members disagree on field count"):
        FileLayout(0, sizes)


@pytest.mark.parametrize("field_sizes, n, header", [
    ([True, 2], 3, 0), ([4.5], 2, 0), ([-1, 2], 2, 0), ([1], 0, 0),
    ([1], 2, -1), ([1], 2, 1.5)])
def test_uniform_layout_validates_too(field_sizes, n, header):
    with pytest.raises(ValueError):
        FileLayout.uniform(header, field_sizes, n)


def _reference_offsets(header, rows):
    """Every block's offset, summed out the long way: the field sections
    in order, members in order within each."""
    offsets, pos = {}, header
    for f in range(len(rows[0])):
        for m, row in enumerate(rows):
            offsets[f, m] = pos
            pos += row[f]
    return offsets, pos


def _assert_layout_is(layout, header, rows):
    offsets, total = _reference_offsets(header, rows)
    n, n_fields = len(rows), len(rows[0])
    assert (layout.n_members, layout.n_fields) == (n, n_fields)
    assert layout.total_size == total and type(layout.total_size) is int
    for m in range(n):
        got = layout.member_offsets(m)
        assert got == [offsets[f, m] for f in range(n_fields)]
        assert all(type(o) is int for o in got)
        for f in range(n_fields):
            assert layout.block_offset(f, m) == offsets[f, m]
            assert layout.block_size(f, m) == rows[m][f]


_SIZES = st.lists(st.integers(0, 1 << 40), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(header=st.integers(0, 1 << 20), row=_SIZES, n=st.integers(1, 70))
def test_uniform_layout_is_the_general_layout(header, row, n):
    """A symmetric group's layout — by :meth:`FileLayout.uniform`, by one
    row object repeated and by equal row copies — against the offsets
    summed member by member."""
    rows = [row] * n
    for layout in (FileLayout.uniform(header, row, n), FileLayout(header, rows),
                   FileLayout(header, [tuple(row) for _ in range(n)])):
        _assert_layout_is(layout, header, rows)


@settings(max_examples=150, deadline=None)
@given(header=st.integers(0, 1 << 20), data=st.data())
def test_ragged_layout_offsets(header, data):
    n_fields = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(0, 1 << 40), min_size=n_fields,
                                       max_size=n_fields), min_size=1, max_size=40))
    _assert_layout_is(FileLayout(header, rows), header, rows)


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.lists(st.integers(min_value=0, max_value=100),
                      min_size=2, max_size=4),
             min_size=1, max_size=6).filter(
        lambda ls: len({len(x) for x in ls}) == 1),
)
@settings(max_examples=100, deadline=None)
def test_layout_blocks_tile_file_property(header, sizes):
    """Blocks are disjoint, ordered, and exactly cover [header, total)."""
    lo = FileLayout(header, sizes)
    spans = []
    for f in range(lo.n_fields):
        for m in range(lo.n_members):
            o = lo.block_offset(f, m)
            s = lo.block_size(f, m)
            if s:
                spans.append((o, o + s))
    spans.sort()
    pos = header
    for a, b in spans:
        assert a == pos
        pos = b
    assert pos == lo.total_size


# ---------------------------------------------------------------------------
# RankReport / CheckpointResult
# ---------------------------------------------------------------------------

def reports_fixture():
    return {
        0: RankReport(0, "writer", 1.0, 5.0, 5.0, 100),
        1: RankReport(1, "worker", 1.0, 1.1, 1.1, 100, isend_seconds=0.1),
        2: RankReport(2, "worker", 1.0, 1.2, 1.2, 100, isend_seconds=0.2),
    }


def test_result_metrics():
    res = CheckpointResult("rbio", reports_fixture())
    assert res.total_bytes == 300
    assert res.overall_time == pytest.approx(4.0)
    assert res.write_bandwidth == pytest.approx(300 / 4.0)
    # Blocking excludes the dedicated writer.
    assert res.blocking_time == pytest.approx(0.2)
    assert res.writer_ranks == [0]


def test_result_perceived_metrics():
    res = CheckpointResult("rbio", reports_fixture())
    assert res.perceived_time == pytest.approx(0.2)
    assert res.perceived_bandwidth == pytest.approx(200 / 0.2)


def test_result_all_writers_blocking_fallback():
    reports = {0: RankReport(0, "writer", 0.0, 3.0, 3.0, 10)}
    res = CheckpointResult("x", reports)
    assert res.blocking_time == 3.0
    assert res.perceived_time == 0.0
    assert res.perceived_bandwidth == 0.0


def test_result_empty_rejected():
    with pytest.raises(ValueError):
        CheckpointResult("x", {})


def test_rank_report_properties():
    r = RankReport(3, "collective", 1.0, 2.5, 4.0, 42)
    assert r.io_time == pytest.approx(3.0)


def test_result_per_rank_io_time():
    res = CheckpointResult("rbio", reports_fixture())
    io = res.per_rank_io_time
    assert io[0] == pytest.approx(4.0)
    assert io[1] == pytest.approx(0.1)


def test_result_summary_keys():
    s = CheckpointResult("rbio", reports_fixture()).summary()
    for key in ("approach", "n_ranks", "total_gb", "overall_time_s",
                "bandwidth_gbps", "blocking_time_s", "n_writers"):
        assert key in s


# ---------------------------------------------------------------------------
# Columnar run state: rows written by index are the objects they stand for
# ---------------------------------------------------------------------------

def _loop_metrics(reports):
    """``CheckpointResult``'s metrics as loops over ``RankReport``s (the
    definitions of DESIGN.md section 5, one object per rank)."""
    reps = [reports[r] for r in sorted(reports)]
    start = min(r.t_start for r in reps)
    overall = max(r.t_complete for r in reps) - start
    total = sum(r.bytes_local for r in reps)
    compute = [r for r in reps if r.role != "writer"] or reps
    workers = [r for r in reps if r.role == "worker"]
    perceived = max((r.isend_seconds for r in workers), default=0.0)
    return {
        "total_bytes": total, "start_time": start, "overall_time": overall,
        "write_bandwidth": total / overall if overall > 0 else float("inf"),
        "blocking_time": max(r.t_blocked_end - r.t_start for r in compute),
        "per_rank_io_time": {r.rank: r.t_complete - r.t_start for r in reps},
        "writer_ranks": [r.rank for r in reps
                         if r.role in ("writer", "independent")],
        "perceived_time": perceived,
        "perceived_bandwidth": (sum(r.bytes_local for r in workers) / perceived
                                if perceived > 0 else 0.0),
    }


_instants = st.floats(0.0, 1e3, allow_nan=False, width=64)


@st.composite
def _replayed_runs(draw):
    """A run's steps as the calls a replay makes — and, beside each, the
    per-rank calls it stands for."""
    n_ranks = draw(st.integers(1, 40))
    n_steps = draw(st.integers(1, 3))
    width = draw(st.integers(2, 9))  # writer + workers; the last is ragged
    scattered = draw(st.booleans())  # members a stride apart: no slice
    steps = []
    for _step in range(n_steps):
        calls = []  # ("file" | "put" | "members", ...) in recording order
        for writer in range(0, n_ranks, width):
            t0 = draw(_instants)
            group = range(writer, min(writer + width, n_ranks))
            done = t0 + draw(_instants)
            calls.append(("file", RankReport(writer, "writer", t0, done, done,
                                             draw(st.integers(0, 1 << 40)))))
            halves = ([group[1::2], group[2::2]] if scattered
                      else [group[1:]])
            for members in halves:
                if not members:
                    continue
                if scattered:
                    members = list(members)
                t_end = t0 + draw(_instants)
                late = {m: t0 + draw(_instants) for m in draw(
                    st.lists(st.sampled_from(members), unique=True,
                             max_size=3))}
                calls.append(("members", members, t0, t_end,
                              draw(st.integers(0, 1 << 40)), late))
        for rank in draw(st.lists(st.integers(0, n_ranks - 1), unique=True,
                                  max_size=3)):
            calls.append(("put", rank, draw(_instants)))  # it crashed
        steps.append(calls)
    return n_ranks, steps


@settings(max_examples=120, deadline=None)
@given(_replayed_runs(), st.data())
def test_rows_and_run_entries_are_the_objects_they_stand_for(run, data):
    """(B) A ``CheckpointResult`` fed by ``ReportTable`` slice / index / row
    writes is the one built from the equivalent ``{rank: RankReport}``
    dict, array for array and property for property; (C) a Darshan log
    with one row per member run reads, every time, as the log of the
    per-member calls."""
    from repro.ckpt.result import ReportTable
    from repro.profiling import DarshanProfiler
    from repro.trace import SpanTracer

    n_ranks, steps = run
    table = ReportTable(len(steps), n_ranks)
    packed, plain = DarshanProfiler(), DarshanProfiler()
    per_step = []
    for i, calls in enumerate(steps):
        reports = {}
        for call in calls:
            if call[0] == "file":
                report = call[1]
                table.file(i, report)
                reports[report.rank] = report
                op = data.draw(st.sampled_from(["write", "open", "close"]))
                for prof in (packed, plain):
                    prof.record_op(report.rank, op, report.t_start,
                                   report.t_complete, report.bytes_local,
                                   f"/f{i}")
                    prof.record_phase(report.rank, "stage", report.t_start,
                                      report.t_complete, 7)
            elif call[0] == "put":
                _kind, rank, now = call
                table.put(i, rank, "crashed", now, now, now, 0)
                reports[rank] = RankReport(rank, "crashed", now, now, now, 0)
            else:
                _kind, members, t0, t_end, nbytes, late = call
                table.put(i, members, "worker", t0, t_end, t_end, nbytes,
                          t_end - t0)
                for m, t in late.items():
                    table.put(i, m, "worker", t0, t, t, nbytes, t - t0)
                packed.record_phase_members(members, "isend", t0, t_end,
                                            nbytes, late=late or None)
                for m in members:
                    t = late.get(m, t_end)
                    plain.record_phase(m, "isend", t0, t, nbytes)
                    reports[m] = RankReport(m, "worker", t0, t, t, nbytes,
                                            isend_seconds=t - t0)
        per_step.append(reports)

    for i, reports in enumerate(per_step):
        got = CheckpointResult("x", table, step=i)
        want = CheckpointResult("x", reports)
        for name in ("ranks",) + ReportTable.COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.roles == want.roles == [
            reports[r].role for r in range(n_ranks)]
        for name, value in _loop_metrics(reports).items():
            assert getattr(got, name) == getattr(want, name) == value, name
            assert type(getattr(got, name)) is type(value), name
        assert got.summary() == want.summary()
        assert [got.report(r) for r in range(n_ranks)] == [
            reports[r] for r in range(n_ranks)]

    def intervals(prof):
        return (prof.write_intervals().intervals,
                prof.phase_intervals("isend").intervals,
                prof.phase_intervals("stage").intervals)

    def as_tuples(records):
        return [(r.rank, r.op, r.start, r.end, r.nbytes, r.path)
                for r in records]

    runs = [call[1] for calls in steps for call in calls
            if call[0] == "members"]
    # One row per member run, and reading the log adds none.
    for _read in range(2):
        assert len(packed._ops) == len(plain._ops) - sum(
            len(members) - 1 for members in runs)
        assert len(packed._runs) == len(runs)
        assert intervals(packed) == intervals(plain)
        assert as_tuples(packed.records) == as_tuples(plain.records)
    assert [(s.rank, s.name, s.cat, s.start, s.end, s.nbytes)
            for s in SpanTracer("full", log=packed).spans] == [
        (s.rank, s.name, s.cat, s.start, s.end, s.nbytes)
        for s in SpanTracer("full", log=plain).spans]
