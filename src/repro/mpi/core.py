"""Simulated MPI: messages, requests, communicators.

This module provides the MPI subset that NekCEM-style checkpointing needs —
point-to-point with nonblocking sends (the heart of rbIO), communicator
splitting (the heart of split-collective coIO), and the control-plane
collectives (barrier / bcast / gather / allgather / reduce / allreduce).

Programming model
-----------------
Rank code is written as Python generators driven by the DES engine.  Each
blocking MPI call is a generator used with ``yield from``; nonblocking calls
return a :class:`Request` whose ``.event`` can be yielded::

    def rank_main(ctx):
        req = ctx.comm.isend(dest=0, nbytes=1 << 20, tag=7)
        yield req.event                       # send buffer reusable
        msg = yield from ctx.comm.recv(source=ANY_SOURCE, tag=7)
        msgs = yield from ctx.comm.recv_all(sources=[1, 2, 3], tag=8)
        yield from ctx.comm.barrier()

Semantics and costs
-------------------
- **Eager sends** (``nbytes <= eager_threshold`` or ``buffered=True``)
  complete locally after a memory-bandwidth copy into the send buffer; the
  data then moves through the fabric in the background.  This is the
  mechanism rbIO exploits: ``MPI_Isend`` of a ~2.4 MB checkpoint block
  returns in ~0.2 ms while the torus delivers it to the writer.
- **Rendezvous sends** complete locally only when the transport has
  delivered the data (receiver-not-ready stalls are not modelled; the
  checkpoint protocols studied here always pre-post receivers).
- **Collectives** are modelled analytically as binomial trees over the
  partition topology rather than as explicit message storms: every rank
  still synchronises on the same completion event (so *blocking structure*
  is exact), but a 65,536-rank barrier costs O(np) simulator events instead
  of O(np log np).  Every call is entered through one
  :meth:`Communicator.arrive`, and completes by its collective's rule.
- **Receives** cost a message-body copy at memory bandwidth.  ``recv`` is
  one receive; a fixed list of sources (an aggregator's senders, a
  writer's workers) is received with ``recv_all``, which keeps all of them
  posted and follows the receive-then-copy loop's clock to the instant
  it ends at — same instant, same logical event count, an event per
  wake-up of the loop instead of two per message (DESIGN.md section 9.1).
- A coalesced representative's burst (``post_members``: a group's
  packages to its writer) is reserved in one pass over the fabric.  If
  the writer's ``recv_all`` is already waiting for exactly those
  sources, the loop is run at the post over every arrival but the last,
  and only that last message goes in flight: one calendar entry per
  burst instead of a delivery and a look-again per message, with the
  same instants and logical event count (DESIGN.md section 9.4).
- A caller that stands in for many ranks enters a collective for all of
  them at once (``split_members``, or ``Communicator.arrive`` with a
  member range): one arrival per member is counted, in one call.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from collections.abc import Mapping
from heapq import heappush as _heappush
from itertools import chain, repeat
from typing import Any, Callable, Optional

from ..network import Fabric
from ..sim import Cohort, Engine, Event, Store

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Request",
    "Communicator",
    "CommView",
    "MPIError",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: The collective calls :meth:`Communicator.arrive` enters.
_COLLECTIVES = frozenset(
    ("barrier", "bcast", "gather", "allgather", "reduce", "allreduce", "split"))


class MPIError(RuntimeError):
    """Raised on misuse of the simulated MPI interface."""


class Message(Event):
    """A point-to-point message: in flight, its own delivery event.

    :meth:`arriving` puts it in the calendar at its arrival instant
    (``now + delay`` — the float instant and the bucket position of the
    transfer ``Timeout`` it replaces) with :meth:`Mailbox.deliver` as its
    callback, so a message costs one object and one calendar entry
    (DESIGN.md section 9.3).  ``Message(...)`` builds one that has already
    been delivered (a burst's messages a waiting receive took at the post,
    made when the receive is read, section 9.4).
    """

    __slots__ = ("source", "tag", "nbytes", "payload", "sent_at",
                 "delivered_at", "box")

    def __init__(self, source: int, tag: int, nbytes: int, payload: Any,
                 sent_at: float, delivered_at: float) -> None:
        self.engine = self.callbacks = self._value = self.box = None
        self._ok = self.triggered = self.processed = True
        self.source, self.tag, self.nbytes = source, tag, nbytes
        self.payload, self.sent_at, self.delivered_at = (
            payload, sent_at, delivered_at)

    @classmethod
    def arriving(cls, engine: Engine, t: float, box: "Mailbox", source: int,
                 tag: int, nbytes: int, payload: Any) -> "Message":
        """Send a message now: it arrives in ``box`` at the instant ``t``."""
        msg = object.__new__(cls)
        msg.engine, msg.callbacks, msg.box = engine, [Mailbox.deliver], box
        msg._value = msg.delivered_at = None
        msg._ok = msg.triggered = True
        msg.processed = False
        msg.source, msg.tag, msg.nbytes = source, tag, nbytes
        msg.payload = payload
        msg.sent_at = engine.now
        box.incoming += 1
        buckets = engine._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = [msg]
            _heappush(engine._times, t)
        else:
            bucket.append(msg)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message src={self.source} tag={self.tag} "
            f"nbytes={self.nbytes} t={self.delivered_at}>"  # None in flight
        )


class _RecvAll:
    """One :meth:`CommView.recv_all` pending in a :class:`Mailbox`.

    The receive-then-copy loop it stands for, followed from the points
    where the loop's future depends on what has arrived: ``slot`` is the
    loop's next receive, ``t`` the instant it posts it, and ``waiting``
    says that it has (the message was not there).  :meth:`go_on` runs the
    loop's clock over everything that is there; an event is spent only to
    come back when the loop would look again, never per message.
    """

    __slots__ = ("tag", "slot_of", "msgs", "missing", "bandwidth", "event",
                 "slot", "t", "waiting", "owed", "bursts")

    def __init__(self, sources, tag: int, event: Event,
                 bandwidth: float) -> None:
        self.tag = tag
        self.slot_of = {src: i for i, src in enumerate(sources)}
        if len(self.slot_of) != len(sources):
            raise MPIError(f"recv_all sources repeat: {sources!r}")
        self.msgs: list = [None] * len(sources)
        self.missing = len(sources)
        self.bandwidth = bandwidth
        self.event = event
        self.slot = 0
        self.t = event.engine.now
        self.waiting = False
        #: Events the loop has dispatched so far, less those spent here.
        self.owed = -1
        #: Folded ``(probe, sources, slots, arrivals)``, read by messages().
        self.bursts: list = []

    def go_on(self, _ev: Optional[Event] = None, woken: bool = False) -> None:
        """It is now: the loop copies what has arrived (a copy timeout adds
        ``nbytes / bandwidth``) up to a missing message or its end — or,
        ``woken`` by a message, that one only: loops woken in one instant
        meet again after it — and comes back to look again, waits or ends."""
        msgs, bandwidth, now = self.msgs, self.bandwidth, self.event.engine.now
        slot, copies = self.slot, 0
        t = start = self.t  # start: of the last copy
        while slot < len(msgs) and msgs[slot] is not None:
            start = t
            copy = msgs[slot].nbytes / bandwidth
            slot += 1
            if copy > 0:
                t += copy
                copies += 1
                if woken:
                    break
        self.owed += copies + slot - self.slot
        self.slot, self.t = slot, t
        if slot < len(msgs):  # busy copying until t: look again then
            if t > now:
                self._at(t, self.go_on)
            else:
                self.waiting = True
        # The loop's last event is pushed when its last copy starts: two
        # loops that end at one instant go on in that order.
        elif now < start < t:
            self._at(start, self._finish)
        else:
            self._finish()

    def fold(self, arrivals: list, slots: list, probe: Message) -> bool:
        """A burst posted now, while the loop waits, brings ``probe``-sized
        messages into ``slots`` at ``arrivals`` (post order): run the loop
        over all but the last to arrive, in one pass over the sorted
        instants with :meth:`go_on`'s float operations (a look-again on an
        arrival instant comes second; ties in the burst go in post order).
        If it then waits for the last one, keep that state — ``probe`` in
        every earlier slot, its delivery credited — and return True; else
        False, nothing changed.
        """
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
        last = order.pop()
        # The folded arrivals in time order, then the last one's instant.
        times = list(map(arrivals.__getitem__, order)) + [arrivals[last]]
        into = list(map(slots.__getitem__, order))
        msgs = self.msgs[:]
        bandwidth, slot, t, owed = self.bandwidth, self.slot, self.t, self.owed
        look = None  # the pending look-again; None while the loop waits
        spent = len(order)  # events of the per-message path folded here
        j = 0
        while True:
            if look is not None and look < times[j]:
                spent += 1
                if msgs[slot] is None:  # nothing new: the loop waits again
                    look = None
                    continue
                now, woken = look, False
            elif j < len(into):
                landed = into[j]
                msgs[landed] = probe
                j += 1
                if look is not None or landed != slot:
                    continue
                now = t = times[j - 1]
                woken = True
                # Members that each land after the previous one's copy and
                # empty look-again, slot after slot: that whole cycle each.
                copy = probe.nbytes / bandwidth
                while j < len(into) and into[j] == slot + 1 and (
                        now < t + copy < times[j]):
                    slot += 1
                    msgs[slot] = probe
                    owed += 1
                    spent += 1
                    now = t = times[j]
                    j += 1
            else:
                break
            # go_on's step; the missing last slot stops it.
            before = slot
            while msgs[slot] is not None:
                copy = msgs[slot].nbytes / bandwidth
                slot += 1
                if copy > 0:
                    t += copy
                    owed += 1
                    if woken:
                        break
            owed += slot - before
            look = t if t > now else None
            if look is not None:
                owed -= 1
        if look is not None or slot != slots[last]:
            return False
        self.msgs, self.slot, self.t, self.owed = msgs, slot, t, owed + spent
        self.missing = 1
        return True

    def messages(self) -> list:
        """The received messages, in ``sources`` order; a folded burst's
        are made here, when the receiver reads them."""
        msgs = self.msgs
        for probe, sources, slots, arrivals in self.bursts:
            for src, slot, t in zip(sources, slots, arrivals):
                if msgs[slot] is probe:
                    msgs[slot] = Message(src, probe.tag, probe.nbytes,
                                         probe.payload, probe.sent_at, t)
        return msgs

    def _at(self, t: float, then) -> None:
        self.owed -= 1
        event = Event(self.event.engine)
        event.callbacks.append(then)
        event.engine.succeed_at(event, t)

    def _finish(self, _ev: Optional[Event] = None) -> None:
        engine = self.event.engine
        engine.count_events(self.owed)
        engine.succeed_at(self.event, self.t)


class Mailbox(Store):
    """One rank's message queue: a :class:`Store` that also matches inline.

    A fully specified receive is a pending ``(source, tag)`` pair, and a
    whole aggregator call's receives are one pending :class:`_RecvAll`
    that stays posted until its last message is in — rather than filter
    closures, so neither queued messages nor arriving ones cost a Python
    call per comparison.  The discipline is the store's: the oldest
    matching message wins, and pending receives — exact, batched, filtered
    and wildcard alike — are served in the order they were posted.
    ``incoming`` counts the messages in flight to it.
    """

    __slots__ = ("incoming",)

    def __init__(self, engine: Engine) -> None:
        super().__init__(engine)
        self.incoming = 0

    @staticmethod
    def deliver(msg: Message) -> None:
        """A message in flight arrives: stamp it and :meth:`put` it."""
        box, msg.box = msg.box, None  # a queued message holds no mailbox
        box.incoming -= 1
        msg.delivered_at = msg.engine.now
        box.put(msg)

    def take_burst(self, sources, tag: int, nbytes: int, payload: Any,
                   arrivals: list) -> bool:
        """Send a burst posted now (``nbytes`` from each of ``sources``,
        arriving at ``arrivals``) as one message in flight, if its first
        receive is a waiting :meth:`get_all` for ``tag`` missing exactly
        these sources and nothing else is in flight here, and the loop run
        over all but the last arrival (:meth:`_RecvAll.fold`) then waits
        for that one: the others are taken as delivered (made when the
        receive is read), only the last goes in flight (DESIGN.md 9.4).
        """
        getters = self._getters
        if self.incoming or not getters:
            return False
        pending = getters[0][0]
        if (pending.__class__ is not _RecvAll or pending.tag != tag
                or not pending.waiting or pending.missing != len(sources)):
            return False
        slots = list(map(pending.slot_of.get, sources))
        if (None in slots or len(set(slots)) != len(slots)
                or any(map(pending.msgs.__getitem__, slots))):  # one is filled
            return False
        engine = self.engine
        probe = Message(-1, tag, nbytes, payload, engine.now, None)
        if not pending.fold(arrivals, slots, probe):
            return False
        pending.bursts.append((probe, sources, slots, arrivals))
        last = slots.index(pending.slot)
        Message.arriving(engine, arrivals[last], self, sources[last], tag,
                         nbytes, payload)
        return True

    def put(self, msg: Message) -> None:
        """Deposit ``msg``, waking the first pending receive it satisfies."""
        for i, (flt, ev) in enumerate(self._getters):
            if flt is None:
                wanted = True
            elif flt.__class__ is _RecvAll:
                slot = flt.slot_of.get(msg.source)
                if (slot is None or msg.tag != flt.tag
                        or flt.msgs[slot] is not None):
                    continue
                flt.msgs[slot] = msg
                flt.missing -= 1
                if not flt.missing:
                    del self._getters[i]
                if flt.waiting and slot == flt.slot:  # the loop wakes up
                    flt.waiting = False
                    flt.t = msg.delivered_at
                    flt.go_on(woken=True)
                return
            elif flt.__class__ is tuple:  # get_exact's (source, tag)
                wanted = msg.source == flt[0] and msg.tag == flt[1]
            else:
                wanted = flt(msg)
            if wanted:
                del self._getters[i]
                ev.succeed(msg)
                return
        self.items.append(msg)

    def get_exact(self, source: int, tag: int) -> Event:
        """:meth:`get` for the oldest message from ``source`` with ``tag``."""
        items = self.items
        for i, msg in enumerate(items):
            if msg.source == source and msg.tag == tag:
                ev = Event(self.engine)
                ev.succeed(items.pop(i))
                return ev
        ev = Event(self.engine)
        self._getters.append(((source, tag), ev))
        return ev

    def get_all(self, sources, tag: int, bandwidth: float) -> _RecvAll:
        """One receive of the oldest ``tag`` message of every source: its
        ``event`` fires when a loop of :meth:`get_exact` + copy at
        ``bandwidth`` over ``sources`` would end (:meth:`CommView.recv_all`),
        with :meth:`_RecvAll.messages` in ``sources`` order.  Queued messages
        are taken now, in one pass; the rest as they come.
        """
        ev = Event(self.engine)
        pending = _RecvAll(sources, tag, ev, bandwidth)
        slot_of, msgs = pending.slot_of, pending.msgs
        items = self.items
        kept = []
        for msg in items:
            slot = slot_of.get(msg.source)
            if slot is not None and msg.tag == tag and msgs[slot] is None:
                msgs[slot] = msg
            else:
                kept.append(msg)
        if len(kept) != len(items):
            pending.missing -= len(items) - len(kept)
            items[:] = kept
        if pending.missing:
            self._getters.append((pending, ev))
        pending.go_on()
        return pending


class Request:
    """Handle for a nonblocking operation.

    ``event`` triggers when the operation is locally complete (send buffer
    reusable for sends; message available for receives).  ``issued_at``
    records when the operation started, so callers can compute the paper's
    *perceived* (Isend-completion) timings.
    """

    __slots__ = ("event", "issued_at", "kind")

    def __init__(self, event: Event, issued_at: float, kind: str) -> None:
        self.event = event
        self.issued_at = issued_at
        self.kind = kind

    def wait(self):
        """Generator: wait for completion, returning the event value."""
        value = yield self.event
        return value

    @property
    def complete(self) -> bool:
        """Whether the operation has locally completed."""
        return self.event.processed


class _CollectiveOp:
    """Shared state of one in-flight collective call on a communicator."""

    __slots__ = ("name", "event", "arrived", "contrib", "root")

    def __init__(self, name: str, size: int, event: Event, root: int) -> None:
        self.name = name
        self.event = event
        self.arrived = 0
        self.contrib: list = [None] * size
        self.root = root


class Communicator:
    """Shared state of one MPI communicator (all member ranks).

    User code interacts through per-rank :class:`CommView` objects; the
    communicator owns mailboxes, collective-op bookkeeping, and the mapping
    from communicator-local ranks to world ranks (used for routing).
    """

    def __init__(self, engine: Engine, fabric: Fabric, world_ranks) -> None:
        if not world_ranks:
            raise MPIError("communicator needs at least one rank")
        self.engine = engine
        self.fabric = fabric
        self.world_ranks = list(world_ranks)
        self.size = len(world_ranks)
        self._local_of_world: Optional[dict[int, int]] = None
        self._mailboxes: dict[int, Mailbox] = {}
        self._coll_ops: dict[int, _CollectiveOp] = {}
        self._coll_seq = [0] * self.size
        # Binomial-tree depth and an effective per-stage latency for the
        # analytic collective model.
        self._depth = max(1, math.ceil(math.log2(self.size))) if self.size > 1 else 0
        cfg = fabric.config
        self._stage_latency = cfg.mpi_overhead + (
            cfg.torus_hop_latency * max(1, fabric.topology.max_hops() // 2)
        )
        self._link_bw = cfg.torus_link_bandwidth * cfg.torus_links_per_node
        # Barrier completion delay is a constant of the communicator; cache
        # it so the per-rank arrival fast path does no float math.
        self._sync_time = 2 * self.tree_time()

    def view(self, local_rank: int) -> "CommView":
        """The per-rank handle for ``local_rank`` on this communicator."""
        if not 0 <= local_rank < self.size:
            raise MPIError(f"rank {local_rank} out of range for size {self.size}")
        return CommView(self, local_rank)

    def mailbox(self, local_rank: int) -> Mailbox:
        """A rank's message queue, built on its first send or receive."""
        box = self._mailboxes.get(local_rank)
        if box is None:
            box = self._mailboxes[local_rank] = Mailbox(self.engine)
        return box

    def local_rank_of(self, world_rank: int) -> int:
        """Translate a world rank to this communicator's numbering (the
        table is built by the first call)."""
        table = self._local_of_world
        if table is None:
            table = self._local_of_world = dict(
                zip(self.world_ranks, range(self.size)))
        try:
            return table[world_rank]
        except KeyError:
            raise MPIError(f"world rank {world_rank} not in communicator") from None

    # -- collective machinery (called from CommView) ------------------------
    #
    # Each arrival is credited to the engine as one absorbed logical event:
    # the analytic model folds the rank's tree-stage message into shared
    # bookkeeping, but the modeled system did send it (see the module
    # docstring — a barrier is O(np) events, np up + np down).  The "down"
    # half is the completion fan-out, which is why every op completes on a
    # :class:`~repro.sim.Cohort` sized to the communicator.

    def _op(self, seq: int, name: str, root: int, who: int) -> _CollectiveOp:
        """The op of collective call ``seq``, which ``who`` enters as
        ``name(root)``; raises if ranks disagree about which collective is
        being called (SPMD ordering violation)."""
        op = self._coll_ops.get(seq)
        if op is None:
            if name not in _COLLECTIVES:
                raise MPIError(f"unknown collective {name!r}")
            op = self._coll_ops[seq] = _CollectiveOp(
                name, self.size, Cohort(self.engine, self.size), root)
        elif op.name != name or op.root != root:
            raise MPIError(
                f"collective mismatch at seq {seq}: rank {who} called "
                f"{name}(root={root}) but op is {op.name}(root={op.root})"
            )
        return op

    def arrive(self, name: str, members, contribs=None, root: int = 0,
               nbytes: int = 0, fn: Optional[Callable] = None
               ) -> _CollectiveOp:
        """Enter ``members`` (ranks, in order) at their next collective call,
        ``name(root)``, with ``contribs`` (their contributions, in the same
        order; ``None`` for none); returns the op, whose ``event`` fires
        with the call's result.

        The only way a collective call is entered (``_barrier_arrive`` is
        its per-rank barrier, specialised).  Members in lockstep enter in
        one step (:meth:`_advance_members`), the others one by one, with
        identical semantics; the last arrival completes the op
        (:meth:`_complete`) with ``nbytes`` and ``fn``.
        """
        members = list(members)
        if not members:
            raise MPIError(f"{name} needs at least one member")
        seq = self._advance_members(members)
        if seq is None:  # not in lockstep: one by one
            for lr, value in zip(members, repeat(None) if contribs is None
                                 else contribs):
                op = self.arrive(name, (lr,), (value,), root, nbytes, fn)
            return op
        op = self._op(seq, name, root, members[0])
        if contribs is not None:  # each member's, stored in one C-level pass
            deque(map(op.contrib.__setitem__, members, contribs), 0)
        op.arrived += len(members)
        self.engine.count_events(len(members))
        if op.arrived == self.size:
            del self._coll_ops[seq]
            self._complete(op, nbytes, fn)
        return op

    def _barrier_arrive(self, local_rank: int) -> _CollectiveOp:
        """``arrive("barrier", (local_rank,))``, specialised.

        The barrier is the hottest collective (every checkpoint wave runs
        one per step per rank), and it carries no contribution and a
        constant completion delay — so the generic path's member list,
        lockstep check and completion dispatch are pure overhead.
        """
        seqs = self._coll_seq
        seq = seqs[local_rank]
        seqs[local_rank] = seq + 1
        ops = self._coll_ops
        op = ops.get(seq)
        if op is None or op.name != "barrier":
            op = self._op(seq, "barrier", 0, local_rank)
        arrived = op.arrived + 1
        op.arrived = arrived
        # Inlined engine.count_events(): one absorbed arrival, on the
        # hottest per-rank path in the simulator.
        engine = self.engine
        engine._event_count += 1
        engine._absorbed += 1
        if arrived == self.size:
            del ops[seq]
            self._finish_after(op, self._sync_time, None)
        return op

    def _advance_members(self, members: list) -> Optional[int]:
        """Move ``members`` on to their next collective call, together.

        Returns the call's sequence number, or ``None`` — nobody moved — if
        they are not in collective lockstep.  The contiguous ascending
        ranges rbIO's plans produce take two C-level slice operations.
        Raises :class:`MPIError` for a member that is not a rank of the
        communicator or that repeats.
        """
        seqs = self._coll_seq
        size = self.size
        lo, k = members[0], len(members)
        if k == 1 or members == list(range(lo, lo + k)):
            if lo < 0 or lo + k > size:
                raise MPIError(f"member {lo if lo < 0 else size} out of "
                               f"range (size {size})")
            seq = seqs[lo]
            if k == 1:
                seqs[lo] = seq + 1
                return seq
            if seqs[lo:lo + k] != [seq] * k:
                return None
            seqs[lo:lo + k] = [seq + 1] * k
            return seq
        if min(members) < 0 or max(members) >= size:
            lr = next(lr for lr in members if not 0 <= lr < size)
            raise MPIError(f"member {lr} out of range (size {size})")
        if len(set(members)) != k:
            lr = next(lr for i, lr in enumerate(members) if lr in members[:i])
            raise MPIError(f"member {lr} repeats")
        seq = seqs[lo]
        if any(seqs[lr] != seq for lr in members):
            return None
        for lr in members:
            seqs[lr] = seq + 1
        return seq

    def _complete(self, op: _CollectiveOp, nbytes: int,
                  fn: Optional[Callable]) -> None:
        """The last arrival at ``op``: its result after its analytic cost."""
        name, contrib = op.name, op.contrib
        if name == "barrier":
            self._finish_after(op, self._sync_time, None)
        elif name == "allgather":  # ``fn`` maps the list, once
            result = list(contrib)
            self._finish_after(op, 2 * self.tree_time(nbytes),
                               result if fn is None else fn(result))
        elif name == "bcast":
            self._finish_after(op, self.tree_time(nbytes), contrib[op.root])
        elif name == "gather":
            self._finish_after(
                op, self.tree_time() + (self.size - 1) * nbytes / self._link_bw,
                list(contrib))
        elif name == "split":
            self._complete_split(op)
        else:  # reduce / allreduce: ``fn`` folds (default +)
            self._finish_after(
                op, (1 if name == "reduce" else 2) * self.tree_time(),
                functools.reduce(fn or operator.add, contrib))

    def _complete_split(self, op: _CollectiveOp) -> None:
        """Build the sub-communicators of a completed MPI_Comm_split; every
        rank gets the same :class:`_SplitViews`.  A contribution is
        ``(color, key, rank)``, or ``(color, ranks)`` for a member run whose
        keys are its ranks (:meth:`CommView.split_members`): a colour keyed
        by rank is its runs in rank order, a run at a time."""
        groups: dict[int, list] = {}
        for entry in filter(None, op.contrib):
            groups.setdefault(entry[0], []).append(entry)
        sub_of: list = [None] * self.size
        world_ranks = self.world_ranks
        for entries in groups.values():
            if all(len(e) == 2 or e[1] == e[2] for e in entries):
                runs = [e[1] if len(e) == 2 else range(e[2], e[2] + 1)
                        for e in entries]
            else:  # a key that is not the rank: rank by rank, in key order
                keyed = sorted(chain.from_iterable(
                    zip(e[1], e[1]) if len(e) == 2 else (e[1:],)
                    for e in entries))
                runs = [range(r, r + 1) for _k, r in keyed]
            sub = Communicator(self.engine, self.fabric, list(
                chain.from_iterable(world_ranks[run.start:run.stop]
                                    for run in runs)))
            for run in runs:
                sub_of[run.start:run.stop] = repeat(sub, len(run))
        self._finish_after(op, 2 * self.tree_time(),
                           _SplitViews(self, sub_of, range(self.size)))

    def _finish_after(self, op: _CollectiveOp, delay: float, result: Any) -> None:
        """Trigger a collective's completion event after ``delay``."""
        if delay <= 0:
            op.event.succeed(result)
        else:
            self.engine.timeout(delay).add_callback(
                lambda _ev, op=op, result=result: op.event.succeed(result)
            )

    def tree_time(self, nbytes_per_stage: float = 0.0, stages: Optional[int] = None) -> float:
        """Analytic binomial-tree traversal time for the collective model."""
        depth = self._depth if stages is None else stages
        per_stage = self._stage_latency + nbytes_per_stage / self._link_bw
        return depth * per_stage


class _SplitViews(Mapping):
    """What a split completes with: ``views[r]`` is rank ``r``'s
    :class:`CommView` on its new sub-communicator, made when it is asked
    for (1 024 of the 65 536 ranks of a coalesced rbIO run ask).
    ``members`` restricts the mapping to the ranks a caller stands in for.
    """

    __slots__ = ("_parent", "_sub_of", "_members")

    def __init__(self, parent: Communicator, sub_of: list, members) -> None:
        self._parent = parent
        self._sub_of = sub_of  # by rank on ``parent``: its sub-communicator
        self._members = members

    def __getitem__(self, rank: int) -> "CommView":
        if rank not in self._members:
            raise KeyError(rank)
        sub = self._sub_of[rank]
        return CommView(
            sub, sub.local_rank_of(self._parent.world_ranks[rank]))

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)


class CommView:
    """Per-rank handle to a :class:`Communicator` — the user-facing MPI API."""

    __slots__ = ("comm", "rank")

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.comm.size

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator (used for routing)."""
        return self.comm.world_ranks[self.rank]

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def isend(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None,
              buffered: bool = False) -> Request:
        """Nonblocking send of ``nbytes`` to communicator rank ``dest``.

        With ``buffered=True`` (or small messages) the returned request
        completes after a local memory copy — the rbIO fast path; a
        rendezvous send's request event is the message itself.
        """
        if not 0 <= dest < self.comm.size:
            raise MPIError(f"isend dest {dest} out of range (size {self.comm.size})")
        if nbytes < 0:
            raise MPIError(f"negative message size {nbytes}")
        msg = self.isend_from(self.rank, dest, nbytes, tag, payload)
        fabric = self.comm.fabric
        cfg = fabric.config
        if buffered or nbytes <= cfg.eager_threshold:
            # Local completion: buffer copy at memory bandwidth plus the
            # per-message software overhead.
            copy = cfg.mpi_overhead + fabric.local_copy_time(nbytes)
            return Request(msg.engine.timeout(copy), msg.sent_at, "isend")
        return Request(msg, msg.sent_at, "isend")

    def isend_from(self, source: int, dest: int, nbytes: int, tag: int,
                   payload: Any = None) -> Message:
        """:meth:`isend` of rank ``source`` of this communicator (the view's
        own, or a coalesced cohort's member) to rank ``dest`` without its
        :class:`Request`: the message, a rendezvous send's completion."""
        comm = self.comm
        eng, world = comm.engine, comm.world_ranks
        box = comm._mailboxes.get(dest)
        if box is None:
            box = comm.mailbox(dest)
        return Message.arriving(
            eng, eng.now + comm.fabric.delay(world[source], world[dest], nbytes),
            box, source, tag, nbytes, payload)

    def post_members(self, sources_local, dest: int, nbytes: int,
                     tag: int = 0, payload: Any = None) -> None:
        """Fire-and-forget buffered sends (coalescing replay), one per
        member of ``sources_local`` (ranks on this communicator, in issue
        order): each delivers to ``dest`` as ``isend(..., buffered=True)``
        would, with its own fabric reservation (:meth:`Fabric.arrivals`:
        the writer-side incast is the uncoalesced one), but no sender-side
        completion event — a representative never waits on a symmetric
        member's local completion.  A burst that a waiting ``recv_all``
        takes whole is one calendar entry (:meth:`Mailbox.take_burst`).
        """
        comm = self.comm
        size = comm.size
        if not 0 <= dest < size:
            raise MPIError(f"post dest {dest} out of range (size {size})")
        if nbytes < 0:
            raise MPIError(f"negative message size {nbytes}")
        if len(sources_local) and (min(sources_local) < 0
                                   or max(sources_local) >= size):
            bad = next(src for src in sources_local if not 0 <= src < size)
            raise MPIError(f"post source {bad} out of range (size {size})")
        eng = comm.engine
        fabric = comm.fabric
        world = comm.world_ranks
        box = comm.mailbox(dest)
        arrivals = fabric.arrivals(map(world.__getitem__, sources_local),
                                   world[dest], nbytes)
        if (len(arrivals) > 1 and fabric.injector is None
                and box.take_burst(sources_local, tag, nbytes, payload,
                                   arrivals)):
            return
        arriving = Message.arriving
        for src, t in zip(sources_local, arrivals):
            arriving(eng, t, box, src, tag, nbytes, payload)

    def send(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Blocking send (generator): returns when send buffer is reusable."""
        req = self.isend(dest, nbytes, tag=tag, payload=payload)
        yield req.event

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the request completes with a :class:`Message`."""
        comm = self.comm
        if source != ANY_SOURCE and not 0 <= source < comm.size:
            raise MPIError(f"irecv source {source} out of range")
        mailbox = comm._mailboxes.get(self.rank)
        if mailbox is None:
            mailbox = comm.mailbox(self.rank)
        if source != ANY_SOURCE and tag != ANY_TAG:
            # Fully specified (every aggregator receive): matched inline by
            # the mailbox, no filter closure called per queued message.
            ev = mailbox.get_exact(source, tag)
        elif source == ANY_SOURCE and tag == ANY_TAG:
            ev = mailbox.get()
        else:
            def flt(m, source=source, tag=tag):
                return (source == ANY_SOURCE or m.source == source) and (
                    tag == ANY_TAG or m.tag == tag
                )
            ev = mailbox.get(flt)
        return Request(ev, comm.engine.now, "irecv")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator): returns the matched :class:`Message`.

        Includes the receiver-side copy of the message body at memory
        bandwidth.
        """
        comm = self.comm
        msg = yield self.irecv(source, tag).event
        copy = comm.fabric.local_copy_time(msg.nbytes)
        if copy > 0:
            yield comm.engine.timeout(copy)
        return msg

    def recv_all(self, sources, tag: int):
        """Generator: one ``tag`` message from each of ``sources``, in order.

        What ``[(yield from self.recv(src, tag)) for src in sources]``
        returns, at the instant that loop returns, without an event and a
        process resume per message (the loop's events are credited, so
        ``sim.events_processed`` is its): the mailbox follows the loop's
        clock — wait for the message, then copy it — as the messages
        arrive (:class:`_RecvAll`).  It holds every listed source's
        receive posted from now on, where the loop posts them one at a
        time; the two part ways only when another receive on this mailbox
        competes for the same messages, which no deterministic program
        does.
        """
        sources = tuple(sources)
        if not sources:
            return []
        comm = self.comm
        if tag == ANY_TAG or min(sources) < 0 or max(sources) >= comm.size:
            raise MPIError(f"recv_all needs exact sources and tag, got "
                           f"{sources!r}, tag {tag}")
        pending = comm.mailbox(self.rank).get_all(
            sources, tag, comm.fabric.config.memory_bandwidth)
        yield pending.event
        return pending.messages()

    def waitall(self, requests: list[Request]):
        """Generator: wait for all requests; returns their values in order."""
        if not requests:
            return []
        if len(requests) == 1:
            value = yield requests[0].event
            return [value]
        values = yield self.comm.engine.all_of([r.event for r in requests])
        return values

    # ------------------------------------------------------------------
    # Collectives (analytic-cost, exact blocking structure)
    # ------------------------------------------------------------------
    def barrier(self):
        """Generator: block until every rank of the communicator arrives."""
        op = self.comm._barrier_arrive(self.rank)
        yield op.event

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 0):
        """Generator: broadcast ``value`` (and ``nbytes`` of data) from root."""
        return (yield self.comm.arrive("bcast", (self.rank,), (value,), root,
                                       nbytes).event)

    def gather(self, value: Any, root: int = 0, nbytes: int = 0):
        """Generator: gather per-rank ``value``s to root (others get None)."""
        result = yield self.comm.arrive("gather", (self.rank,), (value,), root,
                                        nbytes).event
        return result if self.rank == root else None

    def allgather(self, value: Any, nbytes: int = 0,
                  map_fn: Optional[Callable[[list], Any]] = None):
        """Generator: gather per-rank ``value``s to every rank.

        ``map_fn``, if given, transforms the gathered list exactly once (at
        completion); every rank receives the same transformed object.  Large
        collectives use this to build shared index structures without
        per-rank rework.
        """
        return (yield self.comm.arrive("allgather", (self.rank,), (value,),
                                       nbytes=nbytes, fn=map_fn).event)

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] = None, root: int = 0):
        """Generator: reduce per-rank values to root with binary ``op`` (default +)."""
        result = yield self.comm.arrive("reduce", (self.rank,), (value,), root,
                                        fn=op).event
        return result if self.rank == root else None

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None):
        """Generator: reduce per-rank values and distribute the result."""
        return (yield self.comm.arrive("allreduce", (self.rank,), (value,),
                                       fn=op).event)

    def split(self, color: int, key: Optional[int] = None):
        """Generator: partition the communicator by ``color`` (MPI_Comm_split).

        Returns this rank's :class:`CommView` on its new sub-communicator.
        Ranks within a colour are ordered by ``key`` (default: current rank).
        """
        key = self.rank if key is None else key
        views = yield self.comm.arrive("split", (self.rank,),
                                       ((color, key, self.rank),)).event
        return views[self.rank]

    # ------------------------------------------------------------------
    # Coalescing replay (multi-member collective entry)
    # ------------------------------------------------------------------
    def split_members(self, local_ranks, color: int):
        """Generator: enter the next MPI_Comm_split once per member.

        Every member of ``local_ranks`` enters with ``color`` (its current
        rank doubles as its ordering key, matching ``split`` with
        ``key=None``).  Returns a mapping ``local_rank -> sub CommView``
        over the members, each view made when it is asked for.  A range
        of ranks is entered as one ``(color, ranks)`` record at its first
        rank, not a record per member.
        """
        if isinstance(local_ranks, range) and local_ranks.step == 1:
            contribs = [(color, local_ranks)] + [None] * (len(local_ranks) - 1)
        else:
            contribs = [(color, lr, lr) for lr in local_ranks]
        views = yield self.comm.arrive("split", local_ranks, contribs).event
        return _SplitViews(views._parent, views._sub_of, local_ranks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CommView rank {self.rank}/{self.size} of the communicator "
                f"at world rank {self.comm.world_ranks[0]}>")
