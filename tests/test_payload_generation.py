"""The mutating payload generator: byte-identical draws, zero-copy fields.

``EvolvingData.mutating`` draws each rank's bytes straight off the PCG64
word stream and hands the pipeline read-only ``memoryview`` slices of one
state array per step.  These tests pin that

- the word-stream draw is the byte stream
  ``Generator.integers(0, 256, n, dtype=np.uint8)`` yields, on a fresh
  generator and after a 32-bit draw that left a pending high half;
- every ``(rank, step)`` state equals the earlier ``integers`` + ``tobytes``
  generator, kept below verbatim as the oracle;
- the field payloads are immutable, never alias a later step, share their
  step's one buffer and cost no copy; and
- the data plane's copy counters are what they were with ``bytes`` payloads
  (DESIGN.md section 11: the file-system commit is the copy boundary).
"""

import tracemalloc

import numpy as np
import pytest

from repro.ckpt import CheckpointData, EvolvingData, Field
from repro.ckpt.data import _random_bytes
from repro.experiments.figures import strategy_for
from repro.mpi import Job, RunConfig
from repro.storage import attach_storage

#: ``mutating(9000)``'s payload: the perfbench point size, 142 B per point.
TOTAL = 9000 * 142
LENGTHS = (0, 1, 3, 4, 5, 7, 8, 9, 319_500, 1_278_000)
SEEDS = range(200)


# ---------------------------------------------------------------------------
# the draw: random_raw words == integers(0, 256, uint8)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_draw_equals_integers_on_a_fresh_generator(n):
    for seed in SEEDS:
        got = _random_bytes(np.random.default_rng((seed, 1)), n)
        want = np.random.default_rng((seed, 1)).integers(
            0, 256, n, dtype=np.uint8)
        assert got.dtype == np.uint8 and len(got) == n
        assert np.array_equal(got, want), (seed, n)


@pytest.mark.parametrize("n", LENGTHS)
def test_draw_equals_integers_after_a_pending_high_half(n):
    for seed in SEEDS:
        mine = np.random.default_rng((seed, 1, 2))
        theirs = np.random.default_rng((seed, 1, 2))
        assert mine.integers(0, TOTAL) == theirs.integers(0, TOTAL)
        assert mine.bit_generator.state["has_uint32"] == 1
        got = _random_bytes(mine, n)
        want = theirs.integers(0, 256, n, dtype=np.uint8)
        assert np.array_equal(got, want), (seed, n)


# ---------------------------------------------------------------------------
# the oracle: the generator before the word-stream draw, verbatim
# ---------------------------------------------------------------------------

def _oracle(points_per_rank, mutated_fraction=0.25, seed=0,
            header_bytes=4096):
    """``(rank, step) -> (CheckpointData, wrapped)`` replayed from step 0.

    ``advance`` and ``fields_of`` are the earlier closures as they were,
    plus one line recording which ``(rank, step)`` regions wrapped.
    """
    shape = CheckpointData.nekcem_like(points_per_rank,
                                       header_bytes=header_bytes)
    sizes = shape.field_sizes
    names = [f.name for f in shape.fields]
    total = shape.total_bytes
    mut_len = int(total * mutated_fraction)
    wrapped = set()

    def advance(state: "np.ndarray", rank: int, step: int
                ) -> "np.ndarray":
        if step == 0:
            rng = np.random.default_rng((seed, rank))
            return rng.integers(0, 256, size=total, dtype=np.uint8)
        if mut_len == 0:
            return state
        rng = np.random.default_rng((seed, rank, step))
        start = int(rng.integers(0, total))
        fresh = rng.integers(0, 256, size=mut_len, dtype=np.uint8)
        out = state.copy()
        end = start + mut_len
        if end <= total:
            out[start:end] = fresh
        else:
            wrapped.add((rank, step))
            out[start:] = fresh[: total - start]
            out[: end - total] = fresh[total - start :]
        return out

    def fields_of(state: "np.ndarray") -> CheckpointData:
        blob = state.tobytes()
        fields = []
        pos = 0
        for name, nbytes in zip(names, sizes):
            fields.append(Field(name, nbytes, blob[pos : pos + nbytes]))
            pos += nbytes
        return CheckpointData(fields, header_bytes=header_bytes)

    def at(rank, step):
        state = None
        for k in range(step + 1):
            state = advance(state, rank, k)
        return fields_of(state), (rank, step) in wrapped

    return at


def _same(got: CheckpointData, want: CheckpointData) -> None:
    assert got.header_bytes == want.header_bytes
    assert [(f.name, f.nbytes) for f in got.fields] == [
        (f.name, f.nbytes) for f in want.fields]
    assert [bytes(f.payload) for f in got.fields] == [
        f.payload for f in want.fields]


@pytest.mark.parametrize("fraction", [0.0, 0.25, 1.0])
def test_every_step_equals_the_pre_change_generator(fraction):
    oracle = _oracle(200, fraction, seed=3, header_bytes=256)
    data = EvolvingData.mutating(200, fraction, seed=3, header_bytes=256)
    wraps = 0
    for rank in range(4):
        bound = data.bind(rank)
        for step in range(6):
            want, wrapped = oracle(rank, step)
            wraps += wrapped
            _same(bound.at_step(step), want)
        # A request for an earlier step replays from step 0.
        _same(bound.at_step(2), oracle(rank, 2)[0])
        _same(bound.at_step(3), oracle(rank, 3)[0])
    # A mutated region that runs off the end wraps to the front.
    assert wraps > 0 or fraction == 0.0


# ---------------------------------------------------------------------------
# the fields: read-only views of one buffer per step, no copy
# ---------------------------------------------------------------------------

def test_field_payloads_are_read_only():
    step = EvolvingData.mutating(200, seed=3).bind(0).at_step(1)
    for field in step.fields:
        with pytest.raises(TypeError):
            field.payload[0] = 0
        assert field.payload.readonly
        assert not field.payload.obj.flags.writeable


def test_an_earlier_step_never_aliases_a_later_one():
    bound = EvolvingData.mutating(200, 0.25, seed=3).bind(2)
    bound.at_step(0)
    held = bound.at_step(1)
    before = [bytes(f.payload) for f in held.fields]
    bound.at_step(2)
    later = bound.at_step(3)
    assert [bytes(f.payload) for f in held.fields] == before
    assert [bytes(f.payload) for f in later.fields] != before
    assert not np.shares_memory(held.fields[0].payload.obj,
                                later.fields[0].payload.obj)


def test_a_step_is_one_buffer_and_costs_no_copy():
    points = 2000
    total = CheckpointData.nekcem_like(points).total_bytes
    bound = EvolvingData.mutating(points, 0.25, seed=3).bind(1)
    bound.at_step(0)
    tracemalloc.start()
    try:
        step = bound.at_step(1)  # one state copy plus the fresh region
        held, advance_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        again = bound.at_step(1)  # the cached state: views only
        _, view_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert advance_peak < 1.6 * total
    assert view_peak - held < total // 16
    base = step.fields[0].payload.obj
    assert isinstance(base, np.ndarray) and base.nbytes == total
    for field, view in zip(step.fields, again.fields):
        assert field.payload.obj is base and view.payload.obj is base
        assert np.shares_memory(np.asarray(field.payload), base)
    assert step.concatenated_payload() == memoryview(base)


# ---------------------------------------------------------------------------
# copy accounting: the pipeline copies what it copied with bytes payloads
# ---------------------------------------------------------------------------

# The eager delta row counts one slice per chunk the planner hashes.  Steps
# 1 and 2 state their rewritten region, so the planner copies the parent's
# chunks outside it unsliced: 1 352 888 B in 220 chunks fewer than a plan
# that re-hashed every chunk (19 723 333 B, 1 417 allocations).
@pytest.mark.parametrize("approach,delta,copy,bytes_copied,allocs", [
    ("rbio_ng", "off", "zerocopy", 5_465_088, 3),
    ("coio_64", "require", "zerocopy", 4_112_200, 6),
    ("1pfpp", "require", "eager", 18_370_445, 1_197),
])
def test_copy_counters_are_pinned(approach, delta, copy, bytes_copied,
                                  allocs):
    strategy = strategy_for(approach, 64, delta=delta)
    data = EvolvingData.mutating(200, 0.25, seed=3)
    job = Job(64, seed=9, run_config=RunConfig(copy=copy))
    attach_storage(job)

    def rank_main(ctx):
        mine = data.bind(ctx.rank)
        for step in range(3):
            yield from ctx.comm.barrier()
            yield from strategy.checkpoint(ctx, mine.at_step(step), step)

    job.spawn(rank_main)
    job.run()
    snap = job.metrics().snapshot()
    assert (snap["copy.bytes_copied"], snap["copy.buffer_allocs"]) == (
        bytes_copied, allocs)
