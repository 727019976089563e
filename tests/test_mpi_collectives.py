"""Tests for simulated MPI collectives (barrier, bcast, gather, reduce, split)."""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Job, MPIError, run_spmd
from repro.topology import intrepid

QUIET = intrepid().quiet()


def test_barrier_synchronizes_all_ranks():
    def main(ctx):
        yield ctx.engine.timeout(float(ctx.rank))  # staggered arrivals
        yield from ctx.comm.barrier()
        return ctx.engine.now

    results = run_spmd(main, 8, QUIET)
    times = set(results.values())
    assert len(times) == 1  # everyone leaves together
    assert times.pop() >= 7.0  # not before the last arrival


def test_barrier_has_positive_cost():
    def main(ctx):
        yield from ctx.comm.barrier()
        return ctx.engine.now

    results = run_spmd(main, 16, QUIET)
    assert all(t > 0 for t in results.values())


def test_bcast_from_root():
    def main(ctx):
        value = {"mesh": "waveguide"} if ctx.rank == 0 else None
        out = yield from ctx.comm.bcast(value, root=0)
        return out["mesh"]

    results = run_spmd(main, 8, QUIET)
    assert all(v == "waveguide" for v in results.values())


def test_bcast_nonzero_root():
    def main(ctx):
        value = ctx.rank if ctx.rank == 3 else None
        out = yield from ctx.comm.bcast(value, root=3)
        return out

    results = run_spmd(main, 8, QUIET)
    assert all(v == 3 for v in results.values())


def test_gather_to_root():
    def main(ctx):
        out = yield from ctx.comm.gather(ctx.rank * 2, root=0)
        return out

    results = run_spmd(main, 8, QUIET)
    assert results[0] == [r * 2 for r in range(8)]
    assert all(results[r] is None for r in range(1, 8))


def test_allgather_everywhere():
    def main(ctx):
        out = yield from ctx.comm.allgather(ctx.rank + 1)
        return out

    results = run_spmd(main, 8, QUIET)
    expected = list(range(1, 9))
    assert all(v == expected for v in results.values())


def test_reduce_default_sum():
    def main(ctx):
        out = yield from ctx.comm.reduce(ctx.rank, root=0)
        return out

    results = run_spmd(main, 8, QUIET)
    assert results[0] == sum(range(8))
    assert results[1] is None


def test_reduce_custom_op_max():
    def main(ctx):
        out = yield from ctx.comm.reduce(float(ctx.rank % 3), op=max, root=0)
        return out

    results = run_spmd(main, 8, QUIET)
    assert results[0] == 2.0


def test_allreduce_sum_everywhere():
    def main(ctx):
        out = yield from ctx.comm.allreduce(1)
        return out

    results = run_spmd(main, 16, QUIET)
    assert all(v == 16 for v in results.values())


def test_split_into_groups():
    def main(ctx):
        group = ctx.rank // 4
        sub = yield from ctx.comm.split(color=group)
        return (group, sub.rank, sub.size)

    results = run_spmd(main, 16, QUIET)
    for r, (group, sub_rank, sub_size) in results.items():
        assert group == r // 4
        assert sub_size == 4
        assert sub_rank == r % 4


def test_split_subcomm_p2p_routes_correctly():
    def main(ctx):
        sub = yield from ctx.comm.split(color=ctx.rank % 2)
        # Within each sub-communicator, rank 0 gathers from others.
        if sub.rank == 0:
            vals = []
            for _ in range(sub.size - 1):
                msg = yield from sub.recv()
                vals.append(msg.payload)
            return sorted(vals)
        else:
            yield from sub.send(0, nbytes=8, payload=ctx.rank)
            return None

    results = run_spmd(main, 8, QUIET)
    assert results[0] == [2, 4, 6]   # even world ranks
    assert results[1] == [3, 5, 7]   # odd world ranks


def test_split_key_orders_subranks():
    def main(ctx):
        # Reverse ordering via key.
        sub = yield from ctx.comm.split(color=0, key=-ctx.rank)
        return sub.rank

    results = run_spmd(main, 4, QUIET)
    assert results == {0: 3, 1: 2, 2: 1, 3: 0}


def test_collective_on_subcomm_independent_of_world():
    def main(ctx):
        sub = yield from ctx.comm.split(color=ctx.rank // 2)
        total = yield from sub.allreduce(ctx.rank)
        return total

    results = run_spmd(main, 4, QUIET)
    assert results[0] == results[1] == 0 + 1
    assert results[2] == results[3] == 2 + 3


def test_collective_mismatch_raises():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.bcast("x", root=1)

    job = Job(2, QUIET)
    job.spawn(main)
    with pytest.raises(MPIError, match="collective mismatch"):
        job.run()


def test_sequential_collectives_keep_order():
    def main(ctx):
        a = yield from ctx.comm.allreduce(1)
        b = yield from ctx.comm.allreduce(2)
        yield from ctx.comm.barrier()
        c = yield from ctx.comm.allgather(ctx.rank)
        return (a, b, c)

    results = run_spmd(main, 4, QUIET)
    for a, b, c in results.values():
        assert (a, b) == (4, 8)
        assert c == [0, 1, 2, 3]


def test_deadlock_detection_reports_stuck_ranks():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.recv(source=1)  # never sent
        return None
        yield  # pragma: no cover

    job = Job(2, QUIET)
    job.spawn(main)
    with pytest.raises(RuntimeError, match="never finished"):
        job.run()


def test_barrier_cost_grows_with_scale():
    def main(ctx):
        yield from ctx.comm.barrier()
        return ctx.engine.now

    t_small = max(run_spmd(main, 4, QUIET).values())
    t_large = max(run_spmd(main, 256, QUIET).values())
    assert t_large > t_small


def test_a_communicator_is_named_without_process_wide_state():
    """``Communicator._next_id`` was a class-level counter every job in the
    process bumped: a view's repr depended on what had run before."""
    from repro.mpi.core import Communicator

    before = repr(Job(8, QUIET).contexts[3].comm)
    Job(64, QUIET)
    assert repr(Job(8, QUIET).contexts[3].comm) == before
    assert "rank 3/8" in before
    assert not hasattr(Communicator, "_next_id")


# ---------------------------------------------------------------------------
# Communicator.arrive: one entry point, entered three ways
# ---------------------------------------------------------------------------

N_ARRIVE = 8
ROOT = {"bcast": 3, "gather": 2, "reduce": 1}
NBYTES = {"allgather": 64, "bcast": 1 << 20, "gather": 4096}
COLLECTIVES = ("barrier", "allgather", "bcast", "gather", "reduce",
               "allreduce", "split")


def _contrib(name, r):
    if name == "barrier":
        return None
    return (r % 3, -r, r) if name == "split" else 10 * r + 1


def _plain(value):
    """A split's views as comparable data; any other result as it is."""
    if isinstance(value, Mapping):
        return {r: (tuple(v.comm.world_ranks), v.rank) for r, v in value.items()}
    return value


def _two_calls(name, how):
    """Two consecutive ``name`` calls on an 8-rank world, entered ``how``:

    - ``range``: rank 0's process enters every member at once (lockstep);
    - ``per_rank``: each rank's process enters itself;
    - ``ahead``: rank 0 enters the first call alone, then rank 1's process
      enters all eight, so rank 0 is a call ahead and they go one by one.

    Every way spawns one process per rank, so the engine's own events are
    the same; returns the distinct ``(result, instant)`` of each call, how
    often the allgather ``map_fn`` ran, and the engine counters.
    """
    job = Job(N_ARRIVE, QUIET)
    comm, eng = job.world, job.engine
    applied, seen = [], []
    fn = {"allgather": lambda xs: applied.append(len(xs)) or tuple(xs),
          "reduce": max}.get(name)

    def enter(members):
        contribs = (None if name == "barrier"
                    else [_contrib(name, r) for r in members])
        return comm.arrive(name, members, contribs, ROOT.get(name, 0),
                           NBYTES.get(name, 0), fn).event

    def wait(event):
        value = yield event
        seen.append((_plain(value), eng.now))

    def main(ctx):
        r = ctx.rank
        if how == "per_rank":
            for _ in range(2):
                yield from wait(enter((r,)))
        elif how == "range" and r == 0:
            for _ in range(2):
                yield from wait(enter(range(N_ARRIVE)))
        elif how == "ahead" and r == 0:
            enter((0,))
        elif how == "ahead" and r == 1:
            yield from wait(enter(range(N_ARRIVE)))
            yield from wait(enter(range(1, N_ARRIVE)))
        return None
        yield  # pragma: no cover

    job.spawn(main)
    job.run()
    distinct = [x for i, x in enumerate(seen) if x not in seen[:i]]
    counters = {k: v for k, v in eng.counters().items()
                if k.endswith("_events") or k == "sim.events_processed"}
    return distinct, applied, counters


@pytest.mark.parametrize("name", COLLECTIVES)
def test_arrive_range_per_rank_and_out_of_lockstep_agree(name):
    ranged = _two_calls(name, "range")
    assert _two_calls(name, "per_rank") == ranged
    assert _two_calls(name, "ahead") == ranged
    calls, applied, counters = ranged
    assert len(calls) == 2 and calls[0][1] < calls[1][1]
    assert counters["sim.absorbed_events"] == 2 * N_ARRIVE
    if name == "allgather":
        assert applied == [N_ARRIVE, N_ARRIVE]  # once per call
        assert calls[0][0] == tuple(10 * r + 1 for r in range(N_ARRIVE))
    elif name == "reduce":
        assert calls[0][0] == 10 * (N_ARRIVE - 1) + 1  # folded with max
    elif name == "split":
        assert calls[0][0][4] == ((7, 4, 1), 1)  # colour 1, ordered by key -r


def test_arrive_rejects_no_members_and_unknown_names():
    comm = Job(4, QUIET).world
    with pytest.raises(MPIError, match="at least one member"):
        comm.arrive("barrier", [])
    with pytest.raises(MPIError, match="unknown collective"):
        comm.arrive("scatter", (0,))


@pytest.mark.parametrize("members, match", [
    ([-1], "member -1 out of range"),        # would index rank 7
    ([8], "member 8 out of range"),
    ([6, 7, 8], "member 8 out of range"),     # a contiguous range
    ([-1, 0, 1], "member -1 out of range"),
    ([3, 8], "member 8 out of range"),        # a scattered list
    ([1, 1], "member 1 repeats"),             # would finish without rank 0
    ([0, 2, 5, 2], "member 2 repeats"),
])
def test_arrive_rejects_bad_members(members, match):
    """A member that is not a rank of the communicator, or that repeats,
    raises before anyone moves on to the next call."""
    comm = Job(8, QUIET).world
    with pytest.raises(MPIError, match=match):
        comm.arrive("barrier", members)
    assert comm._coll_seq == [0] * 8 and not comm._coll_ops
    small = Job(2, QUIET).world
    with pytest.raises(MPIError, match="member 1 repeats"):
        small.arrive("barrier", [1, 1])
    op = small.arrive("barrier", [0, 1])
    assert op.arrived == 2 and small._coll_seq == [1, 1]


# ---------------------------------------------------------------------------
# split_members: a member run is one record, and the split is unchanged
# ---------------------------------------------------------------------------

def _split(entries, n, as_runs):
    """One MPI_Comm_split of an ``n``-rank world, entered by ``entries``:
    ``(at, color, ranks, key)`` — a run of ranks entering together (key
    ``None``: every key is the rank), or one rank with its own key.  A run
    enters through ``split_members`` (``as_runs``) or rank by rank with
    ``split``.  Returns each rank's sub-communicator and rank in it, and
    the completion instant."""
    job = Job(n, QUIET)
    seen, done = {}, []

    def enter(ctx, at, color, ranks, key):
        yield ctx.engine.timeout(at)
        if key is None:
            views = yield from ctx.comm.split_members(ranks, color)
            got = {r: views[r] for r in ranks}
        else:
            got = {ctx.rank: (yield from ctx.comm.split(color, key))}
        done.append(ctx.engine.now)
        for r, view in got.items():
            seen[r] = (tuple(view.comm.world_ranks), view.rank, view.size)

    for at, color, ranks, key in entries:
        if as_runs or key is not None:
            job.spawn(enter, at, color, ranks, key, ranks=[ranks[0]])
        else:
            for r in ranks:
                job.spawn(enter, at, color, range(r, r + 1), r, ranks=[r])
    job.run()
    assert len(set(done)) == 1
    return seen, done[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_member_run_split_is_a_split_rank_by_rank(data):
    """Member runs entered as one record each, among ranks entering one
    by one (their keys the rank or not), at interleaved instants, against
    every rank entering by itself: the same sub-communicators (world
    ranks in order), the same views, the same completion instant."""
    n = data.draw(st.sampled_from([4, 8, 16, 32, 64]))
    colors = data.draw(st.integers(1, 4))
    entries, lo = [], 0
    while lo < n:
        width = data.draw(st.integers(1, n - lo))
        at = data.draw(st.sampled_from([0.0, 1e-3, 2e-3]))
        color = data.draw(st.integers(0, colors - 1))
        if width > 1 and data.draw(st.booleans()):
            entries.append((at, color, range(lo, lo + width), None))
        else:
            width = 1
            key = data.draw(st.sampled_from([lo, -lo, lo % 3, 100 - lo]))
            entries.append((at, color, range(lo, lo + 1), key))
        lo += width
    assert _split(entries, n, True) == _split(entries, n, False)
