"""rbIO's one worker send under its two drivers, over drawn geometries.

``coalesce="off"`` runs every worker's send in its own process;
``"require"`` runs each group's workers in lock-step from one process.
Whatever the geometry — a ragged or lone-writer last group, one file per
writer or one shared file, TAM with zero, one or two node-leader classes
per group, back-to-back or gapped steps, with or without the per-step
barrier (TAM without it refuses to coalesce past one step), sizes only or
real bytes, bbIO with flow control that cannot bind — the two runs must
leave identical reports, file images, fabric counters, final clocks, and
each rank's Darshan records and spans.
``sim.events_processed`` is not compared: the lock-step driver never
matched it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig
from repro.ckpt import BurstBufferIO, CheckpointData, Field, ReducedBlockingIO
from repro.experiments import run_checkpoint_steps
from repro.topology import intrepid

from .test_coalesce import (
    assert_file_images_identical,
    assert_identical,
    records_of,
)


def run(strategy, n_ranks, data, mode, **kwargs):
    return run_checkpoint_steps(
        strategy, n_ranks, data, seed=11,
        run_config=RunConfig(trace="full", coalesce=mode), **kwargs)


def by_rank(ckpt_run):
    """Each rank's Darshan records and spans, in the order it filed them.

    A coalesced group files its members' records at once, and one span
    per class of members that complete together; their own processes file
    each as it completes (under TAM the node leaders complete later).  So
    only the order across ranks differs, and span arguments: a coalesced
    span marks itself so, a worker's own carries ``blocked_until``, which
    is its end."""
    out = {}
    for rec in records_of(ckpt_run):
        out.setdefault(rec[0], []).append(rec)
    for s in ckpt_run.job.tracer.spans:
        for rank in s.expand():
            out.setdefault(rank, []).append(
                (s.name, s.cat, s.start, s.end, s.nbytes))
    return out


@st.composite
def geometries(draw):
    # 1: no two ranks share a node (no TAM); 3 with groups of 8 gives two
    # leader classes (nodes of 3 and 2 ranks) besides the writer's node.
    cpn = draw(st.sampled_from([1, 2, 3, 4]))
    nodes = draw(st.sampled_from([1, 2, 4, 8, 16]))  # a torus: a power of 2
    n_ranks = draw(st.integers(max(2, (nodes - 1) * cpn + 1),
                               max(2, nodes * cpn)))
    widths = range(2, 13)
    if draw(st.booleans()):  # the last group's writer is alone
        widths = [w for w in widths if (n_ranks - 1) % w == 0] or widths
    width = draw(st.sampled_from(list(widths)))
    n_steps = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 6000), min_size=1, max_size=3))
    payload = draw(st.booleans())
    data = CheckpointData(
        [Field(f"f{i}", n, bytes([i + 1]) * n if payload else None)
         for i, n in enumerate(sizes)],
        header_bytes=draw(st.sampled_from([0, 256])))
    if draw(st.booleans()):
        strategy = BurstBufferIO(
            workers_per_writer=width,
            max_outstanding=draw(st.sampled_from([None, n_steps])))
    else:
        strategy = ReducedBlockingIO(workers_per_writer=width,
                                     single_file=draw(st.booleans()))
    strategy.configure_tam(draw(st.sampled_from(["off", "auto"])))
    kwargs = dict(
        n_steps=n_steps,
        gap_seconds=draw(st.lists(st.sampled_from([0.0, 0.25]),
                                  min_size=n_steps - 1,
                                  max_size=n_steps - 1)) or 0.0,
        barrier_each_step=draw(st.booleans()),
        config=intrepid().with_(cores_per_node=cpn))
    return strategy, n_ranks, data, kwargs


@settings(max_examples=25, deadline=None)
@given(geometries())
def test_rbio_off_equals_require_over_drawn_geometries(geometry):
    strategy, n_ranks, data, kwargs = geometry
    if (strategy.tam != "off" and not kwargs["barrier_each_step"]
            and kwargs["n_steps"] > 1):
        # A node leader completes after its members and, with no barrier,
        # starts its next step later: the plan refuses the run.
        with pytest.raises(ValueError, match="no plan"):
            run(strategy, n_ranks, data, "require", **kwargs)
        return
    off = run(strategy, n_ranks, data, "off", **kwargs)
    on = run(strategy, n_ranks, data, "require", **kwargs)
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.fabric.stats() == on.job.fabric.stats()
    assert off.job.engine.now == on.job.engine.now
    assert by_rank(off) == by_rank(on)
