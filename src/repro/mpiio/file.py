"""MPI-IO file interface: collective open, write and close.

Implements the ROMIO subset the paper's collective approaches use (coIO,
rbIO ``nf = 1``):

- ``MPI_File_open`` — collective create/open over a communicator
  (:meth:`MPIFile.open`).
- ``MPI_File_write_at_all`` — two-phase collective write
  (:meth:`MPIFile.write_at_all`).  The paper's coIO calls
  ``MPI_File_write_at_all_begin`` and ``_end`` back to back, which is this
  call; the rbIO ``nf = ng`` writer's ``MPI_COMM_SELF`` file adds no
  exchange, so it commits the file itself
  (:class:`~repro.ckpt.base.PrivateCommit`).
- ``MPI_File_close`` — collective close.

The collective write follows BG/P ROMIO: access regions are exchanged, the
touched range is split into block-aligned file domains, one per designated
aggregator (``Hints.ranks_per_aggregator``, default 1:32), data is shuffled
point-to-point to aggregators, and each aggregator commits its domain in
``cb_buffer_size`` bursts.  All participants synchronize before returning —
the collective blocking the paper's rbIO is designed to avoid.

Each call is written once, as the stages of a :class:`MPIFile`, a
:class:`~repro.sim.stages.Segment` of the file's communicator (DESIGN.md
section 9.2): a rank's process runs a segment of one, a coalesced cohort
segments of many.  What the ranks of one open file share — per-rank
handles, regions and exchange start times — lives in arrays on one object.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..buffers import ByteRope, overlay
from ..mpi import CommView, RankContext
from ..sim.stages import Segment, StagedOp
from .aggregation import FlatExchange, TamExchange, node_groups, plan_table
from .hints import Hints

__all__ = ["MPIFile", "SHUFFLE_TAG_BASE"]

#: Tag of collective call ``seq``'s shuffle messages is this plus ``seq``.
SHUFFLE_TAG_BASE = 1 << 20
#: Tag space of the intra-node (rank -> node leader) TAM shuffle; disjoint
#: from the inter-node shuffle tags so both phases of one call coexist.
_TAM_TAG_BASE = 1 << 22


class _File:
    """One open file: what the ranks of its communicator share, per-rank
    state in arrays by communicator rank.  The job's ``mpiio:files`` table
    holds it by ``(communicator, path)`` until the last rank's close."""

    __slots__ = ("comm", "view", "path", "hints", "engine", "tracer",
                 "services", "left", "groups", "exchange", "handles",
                 "regions", "payloads", "t_x0", "staged")

    def __init__(self, comm, path: str, hints: Hints, job) -> None:
        config = job.services["fs"].config
        size = self.left = comm.size  # ``left``: ranks yet to close
        self.comm, self.view, self.path, self.hints = comm, CommView(comm, 0), path, hints
        self.engine, self.tracer, self.services = comm.engine, job.tracer, job.services
        self.handles: list = [None] * size
        #: The call in progress: each rank's ``(offset, nbytes)`` and data,
        #: an aggregator's own pieces, the exchange start times (traced).
        self.regions: list = [None] * size
        self.payloads: list = [None] * size
        self.staged: dict[int, list] = {}
        self.t_x0 = None if job.tracer is None else [0.0] * size
        cpn = config.cores_per_node
        self.groups = node_groups(comm.world_ranks, hints.tam, cpn)
        if self.groups is None and hints.tam == "require":
            raise ValueError(
                f"tam='require' on {path!r}: no node hosts more than one "
                f"rank of the communicator (cores_per_node={cpn}), "
                f"two-level aggregation cannot engage")
        #: ``allgather`` map of a call: its one plan, built by one rank.
        self.exchange = partial(
            FlatExchange.for_hints, hints=hints, plans=plan_table(job.services),
            block_size=config.fs_block_size) if self.groups is None else partial(
            TamExchange, groups=self.groups, block_size=config.fs_block_size,
            n_aggregators=hints.n_aggregators(size),
            align=hints.align_file_domains)

    @classmethod
    def of(cls, job, comm, path: str, hints: Hints) -> "_File":
        files = job.services.setdefault("mpiio:files", {})
        if (comm, path) not in files:
            files[comm, path] = cls(comm, path, hints, job)
        return files[comm, path]


class MPIFile(Segment):
    """An open MPI-IO file as seen by a segment of its communicator.

    Construct via the generator classmethod :meth:`open`, which returns a
    rank's segment of one.  A call's stages end at ``ret`` (for the
    generator entry points, the end of the op).  Where ranks part ways —
    each open and close takes its own time, each rank's sends complete on
    their own — a cohort's segment goes on a rank at a time, and the next
    collective arrival re-forms it.
    """

    __slots__ = ("file", "client", "seq", "ret", "ev")

    def __init__(self, first, ranks, cohort=None, client=None) -> None:
        # StagedOp.__init__ flattened; ``seq``: the calls written so far.
        self.then, self.ranks, self.cohort, self.client = first, ranks, cohort, client
        self.result = self.up = self.sub = self.ev = self.file = None
        self.seq, self.ret = 0, StagedOp.done

    # -- generator entry points: a rank's process --------------------------
    @classmethod
    def open(cls, ctx: RankContext, comm: CommView, path: str,
             hints: Optional[Hints] = None):
        """Generator: collective create-or-open over ``comm``: rank 0
        creates the file, everyone else opens it after a barrier (ROMIO's
        shared-file open protocol)."""
        f = cls(MPIFile._open, [comm.rank], client=ctx.fs)
        f.file = _File.of(ctx.job, comm.comm, path, hints or Hints())
        yield from f.run()
        return f

    def write_at_all(self, offset: int, nbytes: int,
                     payload: Optional[bytes] = None):
        """Generator: blocking collective write (two-phase)."""
        lr = self._check_open()
        self.file.regions[lr] = (offset, nbytes)
        self.file.payloads[lr] = None if payload is None else ByteRope.wrap(payload)
        self.then = MPIFile._write
        yield from self.run()

    def close(self):
        """Generator: collective close."""
        self._check_open()
        self.then = MPIFile._close
        yield from self.run()

    def _check_open(self) -> int:
        if self.file.handles[self.ranks[0]] is None:
            raise RuntimeError(
                f"operation on closed MPI file {self.file.path!r}")
        return self.ranks[0]

    def _barrier(self, then):
        ranks, comm = self.ranks, self.file.comm
        return self.wait((comm._barrier_arrive(ranks[0]) if len(ranks) == 1
                          else comm.arrive("barrier", ranks)).event, then)

    # -- opening and closing -----------------------------------------------
    def _open(self):
        if self.ranks[0]:  # the others open it once rank 0 has created it
            return self._barrier(MPIFile._open_each)
        self.then = MPIFile._opened  # rank 0, a process, creates the file
        return self.call(self.client.create_op(self.file.path))

    def _open_each(self, _ev=None):
        return self.each(MPIFile._open_one)

    def _open_one(self):
        self.then = MPIFile._opened
        f = self.file
        # A cohort's member takes a client from the job's file system (the
        # handle keeps it until the close).
        client = self.client if self.cohort is None else f.services["fs"].client(
            f.comm.world_ranks[self.ranks[0]])
        return self.call(client.open_op(f.path, True))

    def _opened(self):
        lr = self.ranks[0]
        self.file.handles[lr], self.result = self.result, None
        if lr or self.file.comm.size == 1:
            return self.ret(self)
        return self._barrier(self.ret)  # the creator lets the others open

    def _close(self):
        f = self.file
        f.left -= len(self.ranks)
        if not f.left:
            del f.services["mpiio:files"][f.comm, f.path]
        return (self._barrier(MPIFile._close_each) if f.comm.size > 1
                else self._close_each())

    def _close_each(self, _ev=None):
        return self.each(MPIFile._close_one)

    def _close_one(self):
        f, lr = self.file, self.ranks[0]
        # The close op holds the handle (and its stream) from here on.
        handle, f.handles[lr] = f.handles[lr], None
        self.then = MPIFile._closed
        return self.call(handle.client.close_op(handle))

    def _closed(self):
        return (self._barrier(self.ret) if self.file.comm.size > 1
                else self.ret(self))

    # -- collective I/O ----------------------------------------------------
    def _write(self):
        """Phase 0 of the two-phase write: exchange the ranks' regions
        (``file.regions`` / ``file.payloads``) for the call's one plan.
        Phase 1 (:meth:`_ship`, :meth:`_lead`) ships each rank's data, as
        zero-copy ropes, to the aggregators owning it; phase 2
        (:meth:`_commit`) overlays and commits each domain."""
        f, ranks = self.file, self.ranks
        if f.t_x0 is not None:
            for lr in ranks:
                f.t_x0[lr] = f.engine.now
        op = f.comm.arrive(
            "allgather", ranks, map(f.regions.__getitem__, ranks), nbytes=16,
            fn=f.exchange)
        self.ev = op.event
        return self.wait(op.event, MPIFile._ship)

    def _ship(self, _ev=None):
        """Phase 1, rank by rank in walk order (DESIGN.md section 9.2): a
        rank ships its pieces (under TAM to its node leader) and waits for
        its sends; a node leader and an aggregator go on alone, a cohort's
        as a segment of one that ``advance()`` drives."""
        f = self.file
        ex = self.ev._value
        if ex.empty:  # nothing to write anywhere: still synchronize
            return self._barrier(MPIFile._written)
        comm, cohort, regions, payloads = f.comm, self.cohort, f.regions, f.payloads
        isend_from, aggs, delivered = f.view.isend_from, ex.agg_index, MPIFile._delivered
        leads = None if f.groups is None else f.groups.leader_of
        tag = (SHUFFLE_TAG_BASE if leads is None else _TAM_TAG_BASE) + self.seq
        eager = comm.fabric.config.eager_threshold
        for lr in self.ranks:
            offset, nbytes = regions[lr]
            sent, stage = [], MPIFile._commit if lr in aggs else MPIFile._sent
            if leads is None:
                payload = payloads[lr]
                for dest, lo, hi in ex.sends(lr) if nbytes else ():
                    part = None if payload is None else payload[lo - offset:
                                                                hi - offset]
                    if dest == lr:  # self-contribution: no message needed
                        f.staged.setdefault(lr, []).append((lo, hi, part))
                    elif hi - lo == nbytes > eager:
                        # One rendezvous send: its delivery is its completion.
                        sent.append(isend_from(lr, dest, nbytes, tag, (lo, hi, part)))
                    else:
                        sent.append(comm.view(lr).isend(
                            dest, hi - lo, tag=tag, payload=(lo, hi, part)).event)
            elif leads[lr] == lr:  # a node leader: its node's extents first
                stage = partial(MPIFile._receive, sources=ex.node_senders[lr],
                                tag=tag, then=MPIFile._lead, t_g0=f.engine.now)
            elif nbytes:  # a member's extent, to its node leader
                sent.append(comm.view(lr).isend(
                    leads[lr], nbytes, tag=tag,
                    payload=(offset, nbytes, payloads[lr])).event)
            if cohort is None:  # a process is a segment of one
                return stage(self, sent=sent)
            if stage is not MPIFile._sent:
                seg = self._one(lr)
                seg.then = partial(stage, sent=sent)
                seg.advance()
            elif sent:
                (f.engine.all_of(sent) if sent[1:] else sent[0]
                 ).callbacks.append(partial(delivered, self, lr))
            else:
                delivered(self, lr)

    def _receive(self, sources, tag: int, then, **state):
        """Post this rank's ``recv_all`` of ``tag`` from ``sources``; go on
        at ``then`` with it (``pending``) once all are in."""
        comm = self.file.comm
        pending = comm.mailbox(self.ranks[0]).get_all(
            sources, tag, comm.fabric.config.memory_bandwidth) if sources else None
        self.then = partial(then, pending=pending, **state)
        return self.then(self) if pending is None else pending.event

    def _lead(self, pending, sent: list, t_g0: float):
        """A TAM node leader clips its node's extents against the file
        domains and sends one message per touched domain (its own domain's
        pieces are staged); an aggregator then commits (:meth:`_commit`)."""
        f, me, ex = self.file, self.ranks[0], self.ev._value
        offset, nbytes = f.regions[me]
        parts = [(offset, nbytes, f.payloads[me])] if nbytes > 0 else []
        if pending is not None:
            parts += [msg.payload for msg in pending.messages()]
        for k in ex.send_domains.get(me, ()):
            pieces, dest = ex.clip(k, parts), ex.aggregators[k]
            if dest == me:
                f.staged.setdefault(me, []).extend(pieces)
            else:
                f.comm.fabric.count_tam(len(pieces))
                sent.append(f.comm.view(me).isend(
                    dest, sum(hi - lo for lo, hi, _p in pieces),
                    tag=SHUFFLE_TAG_BASE + self.seq, payload=pieces).event)
        if f.tracer is not None:
            self._span(me, "tam-gather", t_g0, sum(n for _o, n, _p in parts),
                       seq=self.seq, members=len(f.groups.members_of[me]))
        return (self._commit if me in ex.agg_index else self._sent)(sent)

    def _commit(self, sent: list):
        """Phase 2 at an aggregator: it receives its file domain (:meth:`_received`)."""
        ex, lr = self.ev._value, self.ranks[0]
        return self._receive(ex.expected[ex.agg_index[lr]], SHUFFLE_TAG_BASE + self.seq,
                             MPIFile._received, sent=sent)

    def _received(self, pending, sent: list):
        """The aggregator overlays its pieces (offset-sorted, later shadows
        earlier) into one rope and commits the covered part in
        ``cb_buffer_size`` bursts (:meth:`_burst`); then its sends."""
        f = self.file
        pieces = f.staged.pop(self.ranks[0], [])
        for msg in () if pending is None else pending.messages():
            pieces += [msg.payload] if f.groups is None else msg.payload
        if not pieces:
            return self._sent(sent)
        pieces.sort(key=lambda p: p[0])
        lo, hi = pieces[0][0], max(p[1] for p in pieces)
        data: Optional[ByteRope] = None
        if any(p[2] is not None for p in pieces):
            data = overlay(((plo, part) for plo, _phi, part in pieces
                            if part is not None), lo, hi)
        return self._burst((sent, data, lo, hi, f.engine.now), lo)

    def _burst(self, domain: tuple, pos: int):
        """The burst at ``pos`` through ``self.call(write_op)``, or the
        commit span and the sends after the last one."""
        f, (sent, data, lo, hi, t_w0) = self.file, domain
        lr = self.ranks[0]
        if pos < hi:
            cb, handle = f.hints.cb_buffer_size, f.handles[lr]
            burst = min(cb, hi - pos)
            self.then = partial(MPIFile._burst, domain=domain, pos=pos + cb)
            return self.call(handle.client.write_op(
                handle, pos, burst,
                None if data is None else data[pos - lo:pos - lo + burst]))
        if f.tracer is not None:
            ex = self.ev._value
            self._span(lr, "commit", t_w0, hi - lo,
                       domain=list(ex.domains.domain(ex.agg_index[lr])))
        return self._sent(sent)

    def _sent(self, sent: list):
        """Once a rank's sends are out, the closing barrier."""
        if not sent:
            return self._barrier(MPIFile._exchanged)
        self.then = MPIFile._delivered
        return sent[0] if len(sent) == 1 else self.file.engine.all_of(sent)

    def _delivered(self, lr: Optional[int] = None, _ev=None):
        """A rank's sends are out (``lr``: a cohort's, from their event)."""
        return self.wait(self.file.comm._barrier_arrive(
            self.ranks[0] if lr is None else lr).event, MPIFile._exchanged, lr)

    def _exchanged(self, _ev=None):
        f = self.file
        if f.tracer is not None:
            tam = {} if f.groups is None else {"tam": True}
            for lr in self.ranks:
                self._span(lr, "exchange", f.t_x0[lr], f.regions[lr][1],
                           seq=self.seq, **tam)
        return self._written()

    def _span(self, lr: int, name: str, t0: float, nbytes: int, **args) -> None:
        """Rank ``lr``'s ``name`` span from ``t0`` to now (a traced run)."""
        f = self.file
        f.tracer.span(f.comm.world_ranks[lr], name, "mpiio", t0, f.engine.now,
                      nbytes, args={"path": f.path, **args})

    def _written(self, _ev=None):
        self.seq += 1
        return self.ret(self)

