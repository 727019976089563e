"""Delta planning re-chunks only the bytes a step states it rewrote.

- **differential** — a plan given the rewritten spans equals, field for
  field, the plan of a walk over the whole payload: the chunk list, the
  packed fresh bytes, ``hits`` and ``misses``.  Draws cover images with
  repeated content (so duplicate ``(digest, length)`` keys occur), random
  chunking parameters, and spans at field seams, at the tail, overlapping,
  adjacent, empty, covering everything, or over bytes that did not change;
- **the data's statement** — ``EvolvingData.mutating``'s spans cover every
  byte that differs from the step before (a span that missed one would
  restore stale bytes), and builders that state nothing are planned over
  the whole payload;
- **count witness** — on the benchmark's delta points the planner hashes
  at most 0.4 × the logical bytes at steps >= 1, all of them at step 0,
  and the count repeats exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import ByteRope
from repro.campaign import CampaignSpec, expand
from repro.campaign.compiler import run_point
from repro.ckpt import CheckpointData, ChunkingParams, EvolvingData
from repro.ckpt import incremental
from repro.ckpt.incremental import chunk_boundaries, plan_section

# ---------------------------------------------------------------------------
# Differential: incremental plan == full plan
# ---------------------------------------------------------------------------


@st.composite
def chunking_params(draw):
    avg = 1 << draw(st.integers(3, 10))
    lo = draw(st.integers(1, avg))
    hi = draw(st.integers(avg, 4 * avg + 64))
    return ChunkingParams(min_size=lo, avg_size=avg, max_size=hi)


@st.composite
def dense_params(draw):
    """Cuts every few bytes, mostly forced, and ``min_size`` under the
    hash window (``bits`` bytes).  A forced cut does not sync the rolling
    hash, so two chains can meet on one within a window past a span and
    still part on the next candidate: the case the stopping rule guards."""
    bits = draw(st.integers(0, 5))
    avg = 1 << bits
    return ChunkingParams(min_size=draw(st.integers(1, max(1, bits - 1))),
                          avg_size=avg,
                          max_size=draw(st.integers(avg, avg + avg // 2)))


@st.composite
def image(draw, n):
    """``n`` bytes of random runs, zero runs and repeats of earlier runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = bytearray()
    while len(out) < n:
        kind = draw(st.sampled_from(["random", "zeros", "repeat"]))
        size = draw(st.integers(1, 3000))
        if kind == "random":
            out += rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        elif kind == "zeros":
            out += bytes(size)
        elif out:
            at = draw(st.integers(0, len(out) - 1))
            out += out[at:at + size]
    return bytes(out[:n])


@st.composite
def spans(draw, n, seams, count=5, width=4000):
    """Rewritten spans: random, at field seams, at the tail, overlapping,
    adjacent, empty or covering the whole payload."""
    points = st.integers(0, n) | st.sampled_from(seams)
    out = []
    for _ in range(draw(st.integers(0, count))):
        kind = draw(st.sampled_from(
            ["any", "seam", "tail", "adjacent", "empty", "all"]))
        if kind == "all":
            lo, hi = 0, n
        elif kind == "tail":
            lo, hi = draw(st.integers(0, n)), n
        elif kind == "adjacent" and out:
            lo = out[-1][1]
            hi = draw(st.integers(lo, min(n, lo + width)))
        elif kind == "empty":
            lo = hi = draw(points)
        else:
            a = draw(points if kind == "seam" else st.integers(0, n))
            lo, hi = sorted((a, draw(st.integers(
                max(0, a - width), min(n, a + width)))))
        out.append((lo, hi))
    return out


def _rewrite(data: bytes, rewritten, draw) -> bytes:
    """Rewrite bytes inside the spans only: fresh, zeros or left as-is."""
    out = bytearray(data)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for lo, hi in rewritten:
        kind = draw(st.sampled_from(["fresh", "zeros", "same", "copy"]))
        if kind == "fresh":
            out[lo:hi] = rng.integers(0, 256, hi - lo, dtype=np.uint8).tobytes()
        elif kind == "zeros":
            out[lo:hi] = bytes(hi - lo)
        elif kind == "copy" and hi > lo:
            # Bytes that already occur elsewhere: a re-chunked chunk can hit.
            src = draw(st.integers(0, len(data) - (hi - lo)))
            out[lo:hi] = data[src:src + hi - lo]
    return bytes(out)


def _rope(data: bytes, sizes) -> ByteRope:
    parts, pos = [], 0
    for s in sizes:
        parts.append(data[pos:pos + s])
        pos += s
    return ByteRope.concat(parts)


def _as_tuple(plan):
    return ([c.to_list() for c in plan.section.chunks], plan.section.member,
            plan.section.field_sizes, bytes(plan.fresh), plan.fresh_bytes,
            plan.hits, plan.misses)


def _differential(data, params, n, **span_draw):
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    seams = [0] + cuts + [n]
    gen0 = data.draw(image(n))
    # The parent is itself a delta generation over gen0, so its refs point
    # at two source steps and repeated chunks share one index entry.
    stated1 = data.draw(spans(n, seams, **span_draw))
    gen1 = _rewrite(gen0, stated1, data.draw)
    base = plan_section(_rope(gen0, sizes), sizes, 3, 0, params).section
    parent = plan_section(_rope(gen1, sizes), sizes, 3, 1, params,
                          parent_section=base, rewritten=stated1).section
    stated2 = data.draw(spans(n, seams, **span_draw))
    payload = _rope(_rewrite(gen1, stated2, data.draw), sizes)

    full = plan_section(payload, sizes, 3, 2, params, parent_section=parent)
    delta = plan_section(payload, sizes, 3, 2, params, parent_section=parent,
                         rewritten=stated2)
    assert _as_tuple(delta) == _as_tuple(full)
    assert [c.offset + c.length for c in full.section.chunks] == (
        chunk_boundaries(payload, params))
    assert full.hashed_bytes == n
    assert delta.hashed_bytes <= n


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incremental_plan_equals_full_plan(data):
    _differential(data, data.draw(chunking_params()),
                  data.draw(st.integers(1, 20_000)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_incremental_plan_equals_full_plan_with_dense_cuts(data):
    """Many short spans over chunks of a few bytes."""
    _differential(data, data.draw(dense_params()),
                  data.draw(st.integers(1, 3000)), count=40, width=64)


def test_a_meeting_cut_within_a_window_of_a_span_is_not_the_end():
    """Seeded sweep over the dense regime, where about half of all images
    have the chains meet on a forced cut less than one window past a span
    and part again: a walk that stopped there would copy wrong cuts."""
    for seed in range(24):
        rng = np.random.default_rng((7, seed))
        bits = int(rng.integers(2, 4))
        params = ChunkingParams(int(rng.integers(1, bits)), 1 << bits,
                                (1 << bits) + int(rng.integers(0, 3)))
        before = rng.integers(0, 256, 4000, dtype=np.uint8)
        after = before.copy()
        stated = []
        for lo in sorted(rng.integers(0, 4000, 60).tolist()):
            hi = min(4000, lo + int(rng.integers(1, 16)))
            after[lo:hi] = rng.integers(0, 256, hi - lo, dtype=np.uint8)
            stated.append((lo, hi))
        parent = plan_section(ByteRope.wrap(before.tobytes()), [4000], 0, 0,
                              params).section
        payload = ByteRope.wrap(after.tobytes())
        full = plan_section(payload, [4000], 0, 1, params,
                            parent_section=parent)
        delta = plan_section(payload, [4000], 0, 1, params,
                             parent_section=parent, rewritten=stated)
        assert _as_tuple(delta) == _as_tuple(full), seed


def test_a_statement_against_other_sizes_walks_everything():
    """A parent of another layout is not reused, whatever is stated."""
    params = ChunkingParams(min_size=64, avg_size=256, max_size=1024)
    data = np.random.default_rng(1).integers(0, 256, 20_000, np.uint8)
    payload = ByteRope.wrap(data.tobytes())
    parent = plan_section(payload, [20_000], 0, 0, params).section
    plan = plan_section(payload, [10_000, 10_000], 0, 1, params,
                        parent_section=parent, rewritten=[])
    assert plan.hashed_bytes == 20_000
    same = plan_section(payload, [20_000], 0, 1, params,
                        parent_section=parent, rewritten=[])
    assert same.hashed_bytes == 0 and same.misses == 0
    assert [c.to_list()[:4] for c in same.section.chunks] == [
        c.to_list()[:4] for c in parent.chunks]


# ---------------------------------------------------------------------------
# What the data states
# ---------------------------------------------------------------------------

POINTS = 50
TOTAL = CheckpointData.nekcem_like(POINTS).total_bytes


@settings(max_examples=120, deadline=None)
@given(fraction=st.sampled_from([0.0, 1.5 / TOTAL, 0.25, 1.0]),
       seed=st.integers(0, 2**16), rank=st.integers(0, 64),
       step=st.integers(1, 6))
def test_mutating_spans_cover_every_changed_byte(fraction, seed, rank, step):
    bound = EvolvingData.mutating(POINTS, fraction, seed=seed).bind(rank)
    before = np.frombuffer(bytes(bound.at_step(step - 1)
                                 .concatenated_payload()), np.uint8)
    now = bound.at_step(step)
    after = np.frombuffer(bytes(now.concatenated_payload()), np.uint8)
    since, stated = now.rewritten
    assert since == step - 1
    covered = np.zeros(TOTAL, bool)
    for lo, hi in stated:
        assert 0 <= lo < hi <= TOTAL
        covered[lo:hi] = True
    assert not np.any((before != after) & ~covered)
    assert covered.sum() == int(TOTAL * fraction)
    assert len(stated) <= 2


def test_mutating_states_a_wrapped_region_as_two_spans():
    wrapped = [
        s for s in range(40)
        if len(EvolvingData.mutating(POINTS, 0.25, seed=s).bind(0)
               .at_step(1).rewritten[1]) == 2]
    assert wrapped, "no seed in 0..39 wraps its region"
    stated = (EvolvingData.mutating(POINTS, 0.25, seed=wrapped[0]).bind(0)
              .at_step(1).rewritten[1])
    assert stated[0][0] == 0 and stated[1][1] == TOTAL


def test_builders_that_state_nothing():
    from repro.nekcem.app import fields_to_checkpoint_data
    from repro.nekcem.maxwell import MaxwellSolver
    from repro.nekcem.mesh import box_mesh

    assert EvolvingData.mutating(POINTS, 0.25).bind(0).at_step(0).rewritten \
        is None
    assert CheckpointData.synthetic([10, 20]).rewritten is None
    solver = MaxwellSolver(box_mesh((1, 1, 1)), 2)
    state = fields_to_checkpoint_data(solver, solver.zero_fields())
    assert state.rewritten is None
    assert state.package()[2] is None


def _step_plans(monkeypatch, approach: str, seed: int):
    """``(step, hashed, logical)`` per member plan of one delta point."""
    seen = []

    def spy(payload, field_sizes, member, step, *args, **kw):
        plan = plan_section(payload, field_sizes, member, step, *args, **kw)
        seen.append((step, plan.hashed_bytes, plan.logical_bytes))
        return plan

    monkeypatch.setattr(incremental, "plan_section", spy)
    spec = {"name": "count-witness", "seed": seed,
            "grid": {"approaches": [approach], "np": [4],
                     "delta": ["require"]},
            "machine": {"preset": "intrepid_quiet"},
            "steps": {"n_steps": 4, "gap": 0.5},
            "workload": {"points_per_rank": 9000, "mutated_fraction": 0.25},
            "resume": {"enabled": True}}
    (point,) = expand(CampaignSpec.from_dict(spec)).points
    run_point(point)
    return seen


@pytest.mark.parametrize("approach", ["rbio_nf2", "coio_nf1"])
def test_count_witness_on_the_benchmark_delta_points(monkeypatch, approach):
    seen = _step_plans(monkeypatch, approach, 42)
    by_step = {}
    for step, hashed, logical in seen:
        h, lg = by_step.get(step, (0, 0))
        by_step[step] = (h + hashed, lg + logical)
    assert sorted(by_step) == [0, 1, 2, 3]
    assert by_step[0][0] == by_step[0][1]
    for step in (1, 2, 3):
        hashed, logical = by_step[step]
        assert hashed <= 0.4 * logical, (step, hashed, logical)
    assert _step_plans(monkeypatch, approach, 42) == seen


def test_a_builder_that_states_nothing_is_hashed_whole(monkeypatch):
    """Stripping the statement puts every step back on the whole walk."""
    real = EvolvingData.mutating(2000, 0.25, seed=7)
    bare = EvolvingData(lambda rank, step: CheckpointData(
        real.fn(rank, step).fields, header_bytes=4096), layout=real.layout)
    seen = []

    def spy(*args, **kw):
        plan = plan_section(*args, **kw)
        seen.append((plan.hashed_bytes, plan.logical_bytes))
        return plan

    monkeypatch.setattr(incremental, "plan_section", spy)
    from repro.experiments import run_checkpoint_steps
    from repro.experiments.figures import strategy_for
    from repro.topology import intrepid

    run_checkpoint_steps(strategy_for("coio_nf1", 4, delta="require"), 4,
                         bare, 3, config=intrepid().quiet()).job.close()
    assert len(seen) == 12
    assert all(hashed == logical for hashed, logical in seen)
