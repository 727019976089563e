"""Tests for simulated MPI point-to-point communication."""

import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, Job, MPIError, run_spmd
from repro.mpi.core import Communicator, Mailbox, Message
from repro.network import Fabric
from repro.sim import Engine
from repro.topology import intrepid


QUIET = intrepid().quiet()


def test_send_recv_payload_roundtrip():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, nbytes=64, tag=5, payload={"x": 42})
            return "sent"
        else:
            msg = yield from ctx.comm.recv(source=0, tag=5)
            return msg.payload["x"]

    results = run_spmd(main, 2, QUIET)
    assert results == {0: "sent", 1: 42}


def test_recv_any_source_any_tag():
    def main(ctx):
        if ctx.rank == 0:
            got = []
            for _ in range(3):
                msg = yield from ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append(msg.source)
            return sorted(got)
        else:
            yield from ctx.comm.send(0, nbytes=8, tag=ctx.rank)

    results = run_spmd(main, 4, QUIET)
    assert results[0] == [1, 2, 3]


def test_tag_matching_out_of_order():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, nbytes=8, tag=1, payload="first")
            yield from ctx.comm.send(1, nbytes=8, tag=2, payload="second")
        else:
            # Receive tag 2 before tag 1: filtered matching must work.
            m2 = yield from ctx.comm.recv(source=0, tag=2)
            m1 = yield from ctx.comm.recv(source=0, tag=1)
            return (m1.payload, m2.payload)

    results = run_spmd(main, 2, QUIET)
    assert results[1] == ("first", "second")


def test_isend_eager_completes_before_delivery():
    """A buffered isend's local completion precedes remote delivery."""
    nbytes = 4 << 20  # far above eager threshold; force buffered

    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(1, nbytes=nbytes, tag=0, buffered=True)
            yield req.event
            return ctx.engine.now  # local completion time
        else:
            msg = yield from ctx.comm.recv(source=0)
            return msg.delivered_at

    # Put ranks on different nodes: use 8 ranks, sender 0 / receiver 4.
    def main8(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(4, nbytes=nbytes, tag=0, buffered=True)
            yield req.event
            return ("local", ctx.engine.now)
        elif ctx.rank == 4:
            msg = yield from ctx.comm.recv(source=0)
            return ("delivered", msg.delivered_at)
        return None
        yield  # pragma: no cover

    results = run_spmd(main8, 8, QUIET)
    local_t = results[0][1]
    delivered_t = results[4][1]
    assert local_t < delivered_t
    # Local completion is roughly a memory copy: ~nbytes/membw.
    assert local_t == pytest.approx(
        QUIET.mpi_overhead + nbytes / QUIET.memory_bandwidth, rel=1e-6
    )


def test_isend_rendezvous_completes_at_delivery():
    nbytes = 4 << 20

    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(4, nbytes=nbytes, tag=0, buffered=False)
            yield req.event
            return ctx.engine.now
        elif ctx.rank == 4:
            msg = yield from ctx.comm.recv(source=0)
            return msg.delivered_at
        return None
        yield  # pragma: no cover

    results = run_spmd(main, 8, QUIET)
    assert results[0] == pytest.approx(results[4], rel=1e-9)


def test_small_message_is_eager_by_default():
    nbytes = 512  # below eager threshold (1200)

    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(4, nbytes=nbytes, tag=0)
            yield req.event
            return ctx.engine.now
        elif ctx.rank == 4:
            msg = yield from ctx.comm.recv(source=0)
            return msg.delivered_at
        return None
        yield  # pragma: no cover

    results = run_spmd(main, 8, QUIET)
    assert results[0] < results[4]


def test_waitall_collects_in_order():
    def main(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.irecv(source=s, tag=0) for s in (1, 2, 3)]
            msgs = yield from ctx.comm.waitall(reqs)
            return [m.payload for m in msgs]
        else:
            yield ctx.engine.timeout(float(4 - ctx.rank))  # reverse order
            yield from ctx.comm.send(0, nbytes=8, tag=0, payload=ctx.rank * 10)

    results = run_spmd(main, 4, QUIET)
    assert results[0] == [10, 20, 30]


def test_waitall_empty():
    def main(ctx):
        out = yield from ctx.comm.waitall([])
        return out

    assert run_spmd(main, 1, QUIET)[0] == []


def test_request_complete_flag():
    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(1, nbytes=8, tag=0)
            assert not req.complete
            yield req.event
            assert req.complete
        else:
            yield from ctx.comm.recv(source=0)

    run_spmd(main, 2, QUIET)


def test_isend_bad_dest_raises():
    job = Job(2, QUIET)

    def main(ctx):
        with pytest.raises(MPIError):
            ctx.comm.isend(5, nbytes=8)
        with pytest.raises(MPIError):
            ctx.comm.isend(0, nbytes=-1)
        return True
        yield  # pragma: no cover

    job.spawn(main, ranks=[0])
    res = job.run()
    assert res[0] is True


def test_message_timestamps_ordered():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(4, nbytes=1 << 16, tag=0)
        elif ctx.rank == 4:
            msg = yield from ctx.comm.recv(source=0)
            assert msg.sent_at <= msg.delivered_at
            return msg.nbytes
        return None
        yield  # pragma: no cover

    results = run_spmd(main, 8, QUIET)
    assert results[4] == 1 << 16


def test_many_to_one_incast_ordering():
    """63-into-1 pattern (the rbIO aggregation shape) delivers all messages."""
    def main(ctx):
        if ctx.rank == 0:
            total = 0
            for _ in range(ctx.comm.size - 1):
                msg = yield from ctx.comm.recv()
                total += msg.nbytes
            return total
        else:
            yield from ctx.comm.send(0, nbytes=1000 * ctx.rank, tag=0)

    n = 64
    results = run_spmd(main, n, QUIET)
    assert results[0] == 1000 * sum(range(1, n))


def test_exact_receives_match_out_of_order_arrivals():
    """An aggregator drains its senders in file-offset order, not arrival
    order: fully specified receives pick the right queued message."""
    def main(ctx):
        if ctx.rank == 0:
            yield ctx.engine.timeout(1.0)   # let everything queue up first
            got = []
            for src in (3, 1, 2):
                for tag in (21, 20):
                    msg = yield from ctx.comm.recv(source=src, tag=tag)
                    got.append((msg.source, msg.tag, msg.payload))
            return got
        for tag in (20, 21):
            yield from ctx.comm.send(0, nbytes=8, tag=tag,
                                     payload=f"{ctx.rank}:{tag}")

    results = run_spmd(main, 4, QUIET)
    assert results[0] == [(s, t, f"{s}:{t}") for s in (3, 1, 2)
                          for t in (21, 20)]


def test_exact_and_wildcard_receives_pending_on_one_mailbox():
    """Posted before anything arrives: each message goes to the first
    posted receive it matches, exact or wildcard alike."""
    def main(ctx):
        if ctx.rank == 0:
            comm = ctx.comm
            exact = comm.irecv(source=2, tag=5)
            any_source = comm.irecv(source=ANY_SOURCE, tag=5)
            anything = comm.irecv()
            late_exact = comm.irecv(source=1, tag=5)
            msgs = yield from comm.waitall(
                [exact, any_source, anything, late_exact])
            return [(m.source, m.tag) for m in msgs]
        # Rank r sends at time r: 1 (tag 5), 2 (tag 5), 3 (tag 6), 1 again.
        yield ctx.engine.timeout(float(ctx.rank))
        yield from ctx.comm.send(0, nbytes=8, tag=6 if ctx.rank == 3 else 5)
        if ctx.rank == 1:
            yield ctx.engine.timeout(5.0)
            yield from ctx.comm.send(0, nbytes=8, tag=5)

    results = run_spmd(main, 4, QUIET)
    # 1's first message skips the exact (2, 5) receive and takes the
    # any-source one; 3's tag-6 message only fits the full wildcard.
    assert results[0] == [(2, 5), (1, 5), (3, 6), (1, 5)]


# ---------------------------------------------------------------------------
# Mailbox.get_exact — (source, tag) matched inline, same discipline as a filter
# ---------------------------------------------------------------------------

class _Msg:
    def __init__(self, source, tag, body=None):
        self.source, self.tag, self.body = source, tag, body

    def __repr__(self):
        return f"m({self.source},{self.tag},{self.body})"


def _drive(script):
    """Run ``script(store, got)`` (a generator) and return what it collected."""
    eng = Engine()
    store = Mailbox(eng)
    got = []
    eng.process(script(eng, store, got))
    eng.run()
    return store, got


def test_mailbox_get_exact_takes_oldest_match_and_leaves_the_rest():
    def script(eng, store, got):
        for m in (_Msg(1, 7, "a"), _Msg(2, 7, "b"), _Msg(1, 7, "c"),
                  _Msg(1, 8, "d")):
            store.put(m)
        got.append((yield store.get_exact(1, 8)).body)   # out of order
        got.append((yield store.get_exact(1, 7)).body)   # oldest of two
        got.append((yield store.get_exact(1, 7)).body)

    store, got = _drive(script)
    assert got == ["d", "a", "c"]
    assert [m.body for m in store.items] == ["b"]


def test_mailbox_get_exact_pending_getter_woken_only_by_its_match():
    def script(eng, store, got):
        ev = store.get_exact(3, 5)
        store.put(_Msg(3, 4, "wrong tag"))
        store.put(_Msg(2, 5, "wrong source"))
        assert not ev.triggered
        store.put(_Msg(3, 5, "mine"))
        got.append((yield ev).body)

    store, got = _drive(script)
    assert got == ["mine"]
    assert [m.body for m in store.items] == ["wrong tag", "wrong source"]


def test_mailbox_mixed_getters_on_one_mailbox_served_in_arrival_order():
    """Wildcard, filtered and exact getters pending together: every put
    goes to the *first* getter it satisfies, whatever that getter's kind."""
    def script(eng, store, got):
        exact_a = store.get_exact(1, 7)
        wildcard = store.get()
        filtered = store.get(lambda m: m.tag == 9)
        exact_b = store.get_exact(1, 7)
        store.put(_Msg(4, 9, "p"))   # exact_a no; wildcard yes
        store.put(_Msg(1, 7, "q"))   # exact_a (registered before exact_b)
        store.put(_Msg(1, 7, "r"))   # filtered no (tag); exact_b
        store.put(_Msg(5, 9, "s"))   # filtered
        for name, ev in (("exact_a", exact_a), ("wildcard", wildcard),
                         ("filtered", filtered), ("exact_b", exact_b)):
            got.append((name, (yield ev).body))

    store, got = _drive(script)
    assert got == [("exact_a", "q"), ("wildcard", "p"), ("filtered", "s"),
                   ("exact_b", "r")]
    assert store.items == []


def test_mailbox_get_exact_delivers_like_the_closure_filter():
    """Same puts and gets through both paths: identical delivery order."""
    arrivals = [(s, t) for s in (3, 1, 2) for t in (11, 10)] * 2
    wanted = [(2, 10), (1, 11), (3, 10), (2, 10), (1, 10), (3, 11), (9, 9)]

    def make(exact):
        def script(eng, store, got):
            pending = []
            for i, (s, t) in enumerate(wanted):
                if i == 3:  # half queued first, half found pending getters
                    for n, (ps, pt) in enumerate(arrivals):
                        store.put(_Msg(ps, pt, n))
                pending.append(
                    store.get_exact(s, t) if exact else
                    store.get(lambda m, s=s, t=t: m.source == s and m.tag == t))
            for ev in pending[:-1]:
                got.append((yield ev).body)
            assert not pending[-1].triggered
        return script

    store_f, got_f = _drive(make(exact=False))
    store_e, got_e = _drive(make(exact=True))
    assert got_e == got_f
    assert [m.body for m in store_e.items] == \
        [m.body for m in store_f.items]


# ---------------------------------------------------------------------------
# recv_all == the loop of recv it replaces
# ---------------------------------------------------------------------------

_TAG, _FOREIGN, _SIDE = 7, 8, 9
_T_POST = 1.0
_SIZES = (0, 8, 1200, 1201, 64 << 10, 2 << 20)
_OFFSETS = (-0.5, -1e-3, 0.0, 1e-3, 0.5)  # sender vs the posting instant


class _SlowNet:
    """An armed ``net_adjust``: every inter-node transfer takes half again."""

    def net_adjust(self, now, _src, _dst, done):
        return now + (done - now) * 1.5


def _gather(batched, sends, sources, armed, receiver_first, side_at):
    """One receiver (rank 0 of 16) hearing from ``sources`` under tag 7.

    ``sends`` are ``(rank, offset, nbytes, tag)`` isends through the
    fabric; the mailbox also sees a wildcard receive posted before the
    gather (fed by a message put at 0.1), a tag-9 receive posted while it
    is pending, and a wildcard posted long after it.
    """
    eng = Engine()
    fabric = Fabric(eng, QUIET, 16)
    if armed:
        fabric.injector = _SlowNet()
    comm = Communicator(eng, fabric, list(range(16)))
    rx, box = comm.view(0), comm.mailbox(0)
    seen = {}

    def receiver():
        yield eng.timeout(_T_POST)
        if batched:
            msgs = yield from rx.recv_all(sources, _TAG)
        else:
            msgs = []
            for src in sources:
                msgs.append((yield from rx.recv(source=src, tag=_TAG)))
        seen["gather"] = (eng.now.hex(), [m.payload for m in msgs])

    def sender(rank, at, nbytes, tag, n):
        yield eng.timeout(at)
        comm.view(rank).isend(0, nbytes, tag=tag, payload=(rank, tag, n))

    def side(name, at, source, tag):
        yield eng.timeout(at)
        msg = yield rx.irecv(source, tag).event
        seen[name] = (eng.now.hex(), msg.payload)

    def put(at, tag, body):
        yield eng.timeout(at)
        box.put(Message(15, tag, 0, body, at, eng.now))

    procs = [sender(rank, _T_POST + off, nbytes, tag, n)
             for n, (rank, off, nbytes, tag) in enumerate(sends)]
    procs.insert(0 if receiver_first else len(procs), receiver())
    procs += [side("before", 0.0, ANY_SOURCE, ANY_TAG), put(0.1, _FOREIGN, "fed"),
              side("during", _T_POST + 0.25, ANY_SOURCE, _SIDE),
              side("after", 10.0, ANY_SOURCE, ANY_TAG)]
    if side_at is not None:
        procs.append(put(_T_POST + side_at, _SIDE, "side"))
    for proc in procs:
        eng.process(proc)
    eng.run()
    return seen, [m.payload for m in box.items], eng.events_processed


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_recv_all_is_the_recv_loop_it_replaces(data):
    ranks = data.draw(st.lists(st.integers(1, 14), min_size=1, max_size=7,
                               unique=True))
    sources = data.draw(st.permutations(ranks))
    silent = data.draw(st.none() | st.sampled_from(ranks))
    sends = []
    for rank in ranks:
        if rank == silent:
            continue
        for _ in range(data.draw(st.integers(1, 2))):  # a second one is left
            sends.append((rank, data.draw(st.sampled_from(_OFFSETS)),
                          data.draw(st.sampled_from(_SIZES)), _TAG))
        if data.draw(st.booleans()):
            sends.append((rank, data.draw(st.sampled_from(_OFFSETS)),
                          data.draw(st.sampled_from(_SIZES)), _FOREIGN))
    sends = data.draw(st.permutations(sends))
    rest = (sources, data.draw(st.booleans()), data.draw(st.booleans()),
            data.draw(st.none() | st.sampled_from(_OFFSETS)))
    loop, loop_left, loop_events = _gather(False, sends, *rest)
    batch, batch_left, batch_events = _gather(True, sends, *rest)
    assert ("gather" in batch) == ("gather" in loop) == (silent is None)
    assert batch["before"] == loop["before"] and batch["before"][1] == "fed"
    assert batch.get("during") == loop.get("during")
    if silent is None:
        # Instant (bit for bit), order, what stays queued, logical events.
        assert batch == loop
        assert [body[0] for body in batch["gather"][1]] == list(sources)
        assert batch_left == loop_left
        assert batch_events == loop_events


# ---------------------------------------------------------------------------
# A message in flight is its own delivery event: one object and one calendar
# entry, at the instant and bucket position of the Timeout it replaces
# ---------------------------------------------------------------------------

#: ``(source, dest, nbytes)`` on 16 ranks, 4 to a node: intra- and
#: inter-node pairs, eager, rendezvous and zero-byte sizes, and repeats
#: that queue behind each other on one node's pipes.
_PAIRS = [(1, 0, 4096), (5, 0, 3000), (9, 0, 1 << 20), (0, 4, 777),
          (2, 3, 0), (13, 0, 1 << 20), (5, 0, 3000), (4, 8, 64 << 10)]


def _degrade(eng):
    """An armed ``net_degrade`` injector: transfers take twice as long."""
    return FaultInjector(SimpleNamespace(engine=eng, tracer=None), FaultSchedule((
        FaultSpec(kind="net_degrade", time=0.0, factor=2.0, duration=1.0),)))


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "net_degrade"])
def test_message_in_flight_lands_at_now_plus_delay(armed):
    """``delivered_at`` is ``now + Fabric.delay(...)`` bit for bit, through
    ``isend`` (eager and rendezvous) and ``post_members`` alike; a twin fabric that
    makes the same reservations gives the delays."""
    eng = Engine()
    fabric, twin = Fabric(eng, QUIET, 16), Fabric(eng, QUIET, 16)
    if armed:
        fabric.injector, twin.injector = _degrade(eng), _degrade(eng)
    comm = Communicator(eng, fabric, list(range(16)))
    want = []

    def sender():
        yield eng.timeout(0.1)  # a clock that is not a round number
        for k, (src, dst, nbytes) in enumerate(_PAIRS):
            want.append((k, (eng.now + twin.delay(src, dst, nbytes)).hex()))
            if k % 2:
                comm.view(src).post_members((src,), dst, nbytes, tag=k)
            else:
                comm.view(src).isend(dst, nbytes, tag=k)
            if k % 3 == 2:
                yield eng.timeout(1e-5)

    eng.process(sender())
    eng.run()
    msgs = [m for r in range(16) for m in comm.mailbox(r).items]
    assert sorted((m.tag, m.delivered_at.hex()) for m in msgs) == want
    assert all(m.box is None and m.processed for m in msgs)


def test_same_instant_messages_fire_in_creation_order():
    """Intra-node messages with equal delays share one bucket with the
    Timeouts created just before and just after them, and fire in the
    order they were created."""
    eng = Engine()
    comm = Communicator(eng, Fabric(eng, QUIET, 16), list(range(16)))
    nbytes = 4096  # rendezvous: the request event is the message itself
    delay = QUIET.mpi_overhead + nbytes / QUIET.memory_bandwidth
    fired = []

    def log(name):
        return lambda _ev: fired.append((name, eng.now))

    def sender():
        yield eng.timeout(0.1)
        eng.timeout(delay).callbacks.append(log("before"))
        for k, src in enumerate((1, 2, 3, 1)):
            req = comm.view(src).isend(0, nbytes, tag=k)
            assert isinstance(req.event, Message)
            req.event.callbacks.append(log(k))
        comm.view(2).post_members((2,), 0, nbytes, tag=4)
        eng.timeout(delay).callbacks.append(log("after"))

    eng.process(sender())
    eng.run()
    assert [name for name, _t in fired] == ["before", 0, 1, 2, 3, "after"]
    assert len({t for _name, t in fired}) == 1
    assert [m.tag for m in comm.mailbox(0).items] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "net_degrade"])
def test_transfer_is_a_timeout_of_delay(armed):
    """``Fabric.transfer`` against ``timeout(delay(...))`` on two fresh
    fabrics: the same instants and the same ``stats()``."""
    def run(wait):
        eng = Engine()
        fabric = Fabric(eng, QUIET, 16)
        if armed:
            fabric.injector = _degrade(eng)
        fired = []

        def sender():
            yield eng.timeout(0.1)
            for k, pair in enumerate(_PAIRS):
                wait(eng, fabric, *pair).callbacks.append(
                    lambda _ev, k=k: fired.append((k, eng.now.hex())))
                if k % 3 == 2:
                    yield eng.timeout(1e-5)

        eng.process(sender())
        eng.run()
        return fired, fabric.stats()

    by_transfer = run(lambda eng, fabric, *pair: fabric.transfer(*pair))
    by_delay = run(lambda eng, fabric, *pair: eng.timeout(fabric.delay(*pair)))
    assert by_transfer == by_delay
    assert by_transfer[1]["msgs_intra"] and by_transfer[1]["msgs_inter"]


def test_a_message_in_flight_is_one_object():
    """``post_members`` of N messages grows the GC-tracked objects by at
    most 2N before the drain — the message and its callback list."""
    eng = Engine()
    comm = Communicator(eng, Fabric(eng, QUIET, 16), list(range(16)))
    view = comm.view(0)
    sources = [1, 2, 3] * 100  # intra-node and equal sizes: one instant
    nbytes = 4096
    view.post_members(sources, 0, nbytes, tag=1)  # the mailbox is built
    eng.run()
    # Its calendar bucket stands already: count the messages alone.
    eng.timeout(QUIET.mpi_overhead + nbytes / QUIET.memory_bandwidth)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        view.post_members(sources, 0, nbytes, tag=2)
        grown = len(gc.get_objects()) - before
    finally:
        if collecting:
            gc.enable()
    assert grown <= 2 * len(sources)
    eng.run()
    assert [m.tag for m in comm.mailbox(0).items] == [1] * 300 + [2] * 300


def test_a_message_built_outside_the_calendar_is_a_delivered_one():
    eng = Engine()
    box = Mailbox(eng)
    msg = Message(15, 7, 0, "body", 0.5, 0.75)
    assert msg.processed and msg.callbacks is None and msg.box is None
    got = []

    def reader():
        got.append((yield box.get_exact(15, 7)))

    eng.process(reader())
    box.put(msg)
    eng.run()
    assert got == [msg]
    assert (msg.source, msg.tag, msg.payload) == (15, 7, "body")
    assert (msg.sent_at, msg.delivered_at) == (0.5, 0.75)


# ---------------------------------------------------------------------------
# post_members(burst) == one post per member: a burst a waiting recv_all
# takes whole is one calendar entry, and nothing else moves
# ---------------------------------------------------------------------------

_BURST_SIZES = (0, 8, 1200, 4096, 64 << 10, 2 << 20)
_RECV_AT = (-0.5, 0.0, 1e-6, 1e-3)  # the gather's post vs the burst's


def _posted(bulk, burst, expect, nbytes, recv_at, receiver_first,
            early=(), foreign=None, later=None, armed=False):
    """Rank 0 of 32 (4 to a node) takes ``expect`` under tag 7 with one
    ``recv_all`` while ``burst`` is posted to it at ``_T_POST``, by one
    ``post_members`` (``bulk``) or one ``post`` per member.

    ``early`` sources isend theirs at 0.2; ``foreign`` is the offset of a
    tag-8 isend from rank 30 (before the post: in flight at it);
    ``later`` a burst source that isends another tag-7 message of the
    same size just after the post.  Returns everything that must agree.
    """
    eng = Engine()
    fabric = Fabric(eng, QUIET, 32)
    if armed:
        fabric.injector = _SlowNet()
    comm = Communicator(eng, fabric, list(range(32)))
    rx, box = comm.view(0), comm.mailbox(0)
    seen = {}

    def receiver():
        yield eng.timeout(_T_POST + recv_at)
        msgs = yield from rx.recv_all(expect, _TAG)
        seen["gather"] = (eng.now.hex(), [
            (m.source, m.delivered_at.hex(), m.payload) for m in msgs])

    def representative():
        yield eng.timeout(_T_POST)
        if bulk:
            comm.view(0).post_members(burst, 0, nbytes, tag=_TAG,
                                      payload="burst")
        else:
            for src in burst:
                comm.view(src).post_members((src,), 0, nbytes, tag=_TAG,
                                            payload="burst")

    def isend(at, rank, tag, size, body):
        yield eng.timeout(at)
        comm.view(rank).isend(0, size, tag=tag, payload=body)

    procs = [representative()]
    procs.insert(0 if receiver_first else 1, receiver())
    procs += [isend(0.2, src, _TAG, 64, "early") for src in early]
    if foreign is not None:
        procs.append(isend(_T_POST + foreign, 30, _FOREIGN, 4096, "foreign"))
    if later is not None:
        procs.append(isend(_T_POST + 1e-6, later, _TAG, nbytes, "later"))
    for proc in procs:
        eng.process(proc)
    eng.run()
    assert box.incoming == 0
    left = [(m.source, m.tag, m.delivered_at.hex(), m.payload)
            for m in box.items]
    return ((seen, left, eng.events_processed, fabric.stats(),
             _pipe_state(fabric)), eng.counters()["sim.dispatched_events"])


def _pipe_state(fabric):
    return [{node: (pipe.busy_until.hex(), pipe.bytes_moved)
             for node, pipe in pipes.items()}
            for pipes in (fabric._injection, fabric._ejection)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_post_members_is_one_post_per_member(data):
    """The burst against its members posted one by one: completion
    instant, order and stamps, logical events, what stays queued, the
    fabric's counters and pipes — with the receive posted before or after
    the burst, members on the writer's node (bunched arrivals, so the
    loop can be busy when the last one lands), zero-byte and eager sizes,
    slots filled earlier, a foreign message in flight, an armed
    ``net_adjust``, a repeated source and a later message to a claimed
    slot (non-overtaking: it arrives after its burst message)."""
    burst = data.draw(st.lists(st.integers(1, 31), min_size=1, max_size=9,
                               unique=True))
    if data.draw(st.booleans()):  # a repeated source: never folded
        burst.append(data.draw(st.sampled_from(burst)))
    rest = [r for r in range(1, 30) if r not in burst]
    early = data.draw(st.lists(st.sampled_from(rest), max_size=3, unique=True))
    expect = data.draw(st.permutations(sorted(set(burst)) + early))
    args = (expect, data.draw(st.sampled_from(_BURST_SIZES)),
            data.draw(st.sampled_from(_RECV_AT)), data.draw(st.booleans()))
    kwargs = dict(
        early=early,
        foreign=data.draw(st.none() | st.sampled_from((-1e-6, 1e-7))),
        later=data.draw(st.none() | st.sampled_from(burst)),
        armed=data.draw(st.booleans()))
    one, one_dispatched = _posted(False, burst, *args, **kwargs)
    bulk, bulk_dispatched = _posted(True, burst, *args, **kwargs)
    assert bulk == one
    assert "gather" in bulk[0]
    assert bulk_dispatched <= one_dispatched


#: A writer's incast: its node's three other ranks and 20 remote ones.
_INCAST = [1, 2, 3] + list(range(8, 28))


@pytest.mark.parametrize("nbytes", [0, 8, 64 << 10, 2 << 20])
def test_a_burst_a_waiting_gather_takes_is_one_calendar_entry(nbytes):
    """The receive is posted first and keeps up with the incast: the
    burst costs one calendar entry — its last message — and every other
    delivery and look-again of the per-message path is credited, so the
    logical event count is the same."""
    one, one_dispatched = _posted(False, _INCAST, _INCAST, nbytes, -0.5, True)
    bulk, bulk_dispatched = _posted(True, _INCAST, _INCAST, nbytes, -0.5, True)
    assert bulk == one
    # Every message but the last is off the calendar and, when copies
    # take time, so are the look-agains between them (bar the bunched
    # node-local ones).
    saved = len(_INCAST) - 1 + (len(_INCAST) - 4 if nbytes > 8 else 0)
    assert one_dispatched - bulk_dispatched >= saved


@pytest.mark.parametrize("case", ["after", "in_flight", "armed", "bunched",
                                  "single", "repeat"])
def test_a_burst_falls_back_to_a_message_per_member(case):
    """Nothing folded: the receive posted after the burst, a message already in
    flight to the mailbox, an armed ``net_adjust``, arrivals so bunched
    that the loop is still copying when the last one lands, a one-source
    post, a repeated source.  The calendar sees a message per member."""
    burst = [1, 2, 3] if case == "bunched" else [9] if case == "single" \
        else [9, 13, 9] if case == "repeat" else _INCAST
    kwargs = {"in_flight": dict(foreign=-1e-6), "armed": dict(armed=True)}
    args = (burst, sorted(set(burst)), 1 << 20,
            1e-3 if case == "after" else -0.5, True)
    one, one_dispatched = _posted(False, *args, **kwargs.get(case, {}))
    bulk, bulk_dispatched = _posted(True, *args, **kwargs.get(case, {}))
    assert bulk == one
    assert bulk_dispatched == one_dispatched


def test_a_later_message_to_a_claimed_slot_queues_behind_the_burst():
    """MPI's non-overtaking order: while a burst is on its way, another
    message from one of its sources with its tag is matched after it,
    even when it lands first (here: a 0-byte one from the writer's node,
    sent just after a 2 MB burst)."""
    eng = Engine()
    comm = Communicator(eng, Fabric(eng, QUIET, 32), list(range(32)))
    got = {}

    def receiver():
        msgs = yield from comm.view(0).recv_all(_INCAST, _TAG)
        got["gather"] = [m.payload for m in msgs]

    def representative():
        yield eng.timeout(_T_POST)
        comm.view(0).post_members(_INCAST, 0, 2 << 20, tag=_TAG,
                                  payload="burst")
        yield eng.timeout(1e-6)
        comm.view(2).isend(0, 0, tag=_TAG, payload="later")

    eng.process(receiver())
    eng.process(representative())
    eng.run()
    assert got["gather"] == ["burst"] * len(_INCAST)
    assert [m.payload for m in comm.mailbox(0).items] == ["later"]


def test_post_members_rejects_a_source_out_of_range():
    """``[-1, 2]`` would send from world rank 7: every source must be a
    rank of the communicator, and nothing is sent if one is not."""
    job = Job(8, QUIET)
    view = job.world.view(0)
    for sources, bad in (([-1, 2], -1), ([2, 8], 8), ([3, 9, 1], 9)):
        with pytest.raises(MPIError, match=f"post source {bad} out of range"):
            view.post_members(sources, 0, 100)
    assert job.fabric.stats()["messages_sent"] == 0
    view.post_members([], 0, 100)  # nothing to send is fine


#: Dyadic constants: every instant below is exact, so a look-again can fall
#: on an arrival instant (1 MiB copies and ejections both take 2**-11 s).
_DYADIC = QUIET.with_(mpi_overhead=2.0 ** -19, torus_hop_latency=2.0 ** -23,
                      memory_bandwidth=2.0 ** 31, torus_link_bandwidth=2.0 ** 31,
                      torus_links_per_node=1)


@pytest.mark.parametrize("bulk", [False, True], ids=["per_member", "burst"])
def test_an_arrival_goes_before_a_look_again_at_its_instant(bulk):
    """Three 1 MiB messages from nodes one hop away arrive 2**-11 s apart,
    the copy time: each look-again falls on the next arrival, which was
    queued first, so the last message lands while the loop is busy and
    the loop ends in that look-again.  A timer queued in between at the
    last arrival instant goes on before the loop does — in both paths."""
    eng = Engine()
    comm = Communicator(eng, Fabric(eng, _DYADIC, 32), list(range(32)))
    burst, order = [4, 8, 16], []

    def receiver():
        yield from comm.view(0).recv_all(burst, _TAG)
        order.append(("gather", eng.now))

    def representative():
        yield eng.timeout(_T_POST)
        if bulk:
            comm.view(0).post_members(burst, 0, 1 << 20, tag=_TAG)
        else:
            for src in burst:
                comm.view(src).post_members((src,), 0, 1 << 20, tag=_TAG)

    def timer():
        yield eng.timeout(_T_POST + 2.0 ** -12)  # after the post
        yield eng.timeout(3 * 2.0 ** -11 + 2.0 ** -19 + 2.0 ** -23
                          - 2.0 ** -12)  # to the last arrival
        yield eng.timeout(2.0 ** -11)  # to the loop's end
        order.append(("timer", eng.now))

    for proc in (receiver(), representative(), timer()):
        eng.process(proc)
    eng.run()
    assert order[0][1] == order[1][1]
    assert [name for name, _t in order] == ["timer", "gather"]


def _group_gather(bulk, n_members, nbytes, recv_at, receiver_first, config):
    """An rbIO group: members 1..n of a 64-rank world (ranks 1-3 share the
    writer's node) post ``nbytes`` each to rank 0 at ``_T_POST``, by one
    ``post_members`` (``bulk``) or one post per member, while rank 0 takes
    them with one ``recv_all`` posted at ``_T_POST + recv_at``.  Returns
    every field of every message it got, the instant it got them, the
    logical event count, the fabric's counters and pipes."""
    eng = Engine()
    fabric = Fabric(eng, config, 64)
    comm = Communicator(eng, fabric, list(range(64)))
    members = range(1, n_members + 1)
    seen = {}

    def receiver():
        yield eng.timeout(_T_POST + recv_at)
        msgs = yield from comm.view(0).recv_all(members, _TAG)
        seen["gather"] = (eng.now.hex(), [
            (m.source, m.tag, m.nbytes, m.payload, m.sent_at.hex(),
             m.delivered_at.hex(), type(m)) for m in msgs])

    def representative():
        yield eng.timeout(_T_POST)
        if bulk:
            comm.view(0).post_members(members, 0, nbytes, tag=_TAG,
                                      payload=("pkg", nbytes))
        else:
            for src in members:
                comm.view(src).post_members((src,), 0, nbytes, tag=_TAG,
                                            payload=("pkg", nbytes))

    procs = [representative()]
    procs.insert(0 if receiver_first else 1, receiver())
    for proc in procs:
        eng.process(proc)
    eng.run()
    return (seen, eng.events_processed, fabric.stats(), _pipe_state(fabric),
            eng.counters()["sim.dispatched_events"])


@settings(max_examples=120, deadline=None)
@given(n_members=st.sampled_from([1, 2, 3, 4, 7, 31, 63]),
       nbytes=st.sampled_from(_BURST_SIZES + (2_457_600,)),
       recv_at=st.sampled_from(_RECV_AT), receiver_first=st.booleans(),
       dyadic=st.booleans())
def test_post_members_at_rbio_group_shapes(n_members, nbytes, recv_at,
                                           receiver_first, dyadic):
    """The folded group burst (63 -> 1 and smaller, co-located members
    first, the receive posted before or after the burst) against one post
    per member: every field of every message ``recv_all`` returns, the
    instant it returns, ``events_processed``, the fabric's counters and
    pipes — and never more calendar entries."""
    config = _DYADIC if dyadic else QUIET
    *one, one_dispatched = _group_gather(False, n_members, nbytes, recv_at,
                                         receiver_first, config)
    *bulk, bulk_dispatched = _group_gather(True, n_members, nbytes, recv_at,
                                           receiver_first, config)
    assert bulk == one
    assert "gather" in bulk[0]
    assert bulk_dispatched <= one_dispatched
    if n_members >= 7 and recv_at < 0 and nbytes == 2_457_600 and not dyadic:
        assert bulk_dispatched < one_dispatched  # the waiting receive folded it
