"""The runner's cohort driver against a process per rank, over drawn runs.

``coalesce="off"`` runs every rank's program in its process;
``"require"`` hands coIO's non-aggregator ranks of each file communicator,
and every 1PFPP rank, to the runner's cohort of segments.  Whatever the
geometry — ragged file groups and partitions, a headerless format, empty
and eager-sized fields, extents that straddle a file domain, two-level
aggregation on one, two or four cores a node, arrival jitter,
back-to-back or gapped steps, with or without the per-step barrier — the
two runs must leave identical reports, file images, fabric counters,
final clocks, Darshan records and trace totals.  The hand-picked cells of
``tests/test_coalesce.py`` stay; this draws the space between them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import CheckpointData, CollectiveIO, Field, OneFilePerProcess
from repro.topology import intrepid

from .test_coalesce import assert_coio_identical

EAGER = intrepid().eager_threshold


@st.composite
def geometries(draw):
    cpn = draw(st.sampled_from([1, 2, 4]))  # cores a node
    nodes = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))  # a power of two
    n_ranks = draw(st.integers(max(2, cpn * (nodes - 1) + 1),
                               max(2, cpn * nodes)))
    per_file = draw(st.sampled_from([None, 16, 48, 64]))
    sizes = draw(st.lists(st.one_of(
        st.sampled_from([0, 1, EAGER // 2, EAGER, EAGER + 1]),
        st.integers(0, 6000)), min_size=1, max_size=3))
    payload = draw(st.booleans())
    data = CheckpointData(
        [Field(f"f{i}", n, bytes([i + 1]) * n if payload else None)
         for i, n in enumerate(sizes)],
        header_bytes=draw(st.sampled_from([0, 64, 512])))
    n_steps = draw(st.integers(1, 3))
    kwargs = dict(
        n_steps=n_steps,
        gap_seconds=draw(st.lists(st.sampled_from([0.0, 0.25]),
                                  min_size=n_steps - 1,
                                  max_size=n_steps - 1)) or 0.0,
        barrier_each_step=draw(st.booleans()),
        # Small blocks put file-domain boundaries inside members' extents.
        config=intrepid().with_(
            fs_block_size=draw(st.sampled_from([512, 1024, 4096, 1 << 22])),
            cores_per_node=cpn))
    strategy = CollectiveIO(ranks_per_file=per_file)
    return (strategy.configure_tam(draw(st.sampled_from(["off", "auto"]))),
            n_ranks, data, kwargs)


@settings(max_examples=25, deadline=None)
@given(geometries())
def test_coio_off_equals_require_over_drawn_geometries(geometry):
    strategy, n_ranks, data, kwargs = geometry
    assert_coio_identical(strategy, n_ranks, data, **kwargs)


@st.composite
def onefile_runs(draw):
    nodes = draw(st.sampled_from([1, 2, 4, 8, 16]))  # a power of two
    n_ranks = draw(st.integers(max(1, 4 * nodes - 3), 4 * nodes))
    payload = draw(st.booleans())
    data = CheckpointData(
        [Field(f"f{i}", n, bytes([i + 1]) * n if payload else None)
         for i, n in enumerate(draw(st.lists(st.integers(0, 6000),
                                             min_size=1, max_size=3)))],
        header_bytes=draw(st.sampled_from([0, 512])))
    n_steps = draw(st.integers(1, 3))
    kwargs = dict(
        n_steps=n_steps,
        gap_seconds=draw(st.lists(st.sampled_from([0.0, 0.25]),
                                  min_size=n_steps - 1,
                                  max_size=n_steps - 1)) or 0.0,
        barrier_each_step=draw(st.booleans()))
    jitter = draw(st.sampled_from([0.0, 0.2]))
    return OneFilePerProcess(arrival_jitter=jitter), n_ranks, data, kwargs


@settings(max_examples=25, deadline=None)
@given(onefile_runs())
def test_1pfpp_off_equals_require_over_drawn_runs(run):
    strategy, n_ranks, data, kwargs = run
    assert_coio_identical(strategy, n_ranks, data, **kwargs)
