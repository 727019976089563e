"""MPI-IO file interface: collective open, write and close.

Implements the ROMIO subset the paper's collective approaches use (coIO,
rbIO ``nf = 1``):

- ``MPI_File_open`` — collective create/open over a communicator
  (:meth:`MPIFile.open`).
- ``MPI_File_write_at_all`` — two-phase collective write
  (:meth:`MPIFile.write_at_all`).  The paper's coIO calls
  ``MPI_File_write_at_all_begin`` and ``_end`` back to back, which is this
  call; the rbIO ``nf = ng`` writer's ``MPI_COMM_SELF`` file adds no
  exchange, so it writes through :class:`~repro.storage.FSClient` itself.
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
from ..topology import NodeGroups
from .aggregation import FlatExchange, TamExchange, plan_table
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
        # Node co-residency, or ``None``: the flat exchange runs (TAM off,
        # or no node hosts two ranks; ``tam="require"`` raises then).
        cpn = config.cores_per_node
        self.groups = None if hints.tam == "off" else NodeGroups(
            comm.world_ranks, cpn)
        if self.groups is not None and not self.groups.nontrivial:
            self.groups = None
            if hints.tam == "require":
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
        if self.cohort is None:  # a process: through its client's open,
            # the call tests/test_fs_retry.py's retry oracle wraps
            return self.client.open(f.path, True)
        # A cohort's member: a client from the job's file system (the
        # handle keeps it until the close).
        client = f.services["fs"].client(f.comm.world_ranks[self.ranks[0]])
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
        Phase 1 (:meth:`_ship`, :meth:`_tam_ship`) ships each rank's data,
        as zero-copy ropes, to the aggregators owning it; phase 2
        (:meth:`_aggregate`) overlays and commits each domain."""
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
        """Phase 1: each rank ships its extent's pieces; then it waits for
        its own sends (a cohort's rank alone, :meth:`_delivered`)."""
        f = self.file
        ex = self.ev._value
        if ex.empty:  # nothing to write anywhere: still synchronize
            return self._barrier(MPIFile._written)
        if f.groups is not None:  # TAM runs uncoalesced: a hand-off
            self.then = MPIFile._shipped
            return self._tam_ship(ex)
        comm, cohort, regions, payloads = f.comm, self.cohort, f.regions, f.payloads
        isend_from, delivered = f.view.isend_from, MPIFile._delivered
        tag = SHUFFLE_TAG_BASE + self.seq
        eager = comm.fabric.config.eager_threshold
        idle = []
        for lr in self.ranks:
            offset, nbytes = regions[lr]
            payload = payloads[lr]
            sent = []
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
            if cohort is None:  # a process is a segment of one
                self.result = sent
                return self._shipped()
            if not sent:
                idle.append(lr)
            else:
                (f.engine.all_of(sent) if sent[1:] else sent[0]
                 ).callbacks.append(partial(delivered, self, lr))
        self.ranks = idle  # the rest wait at the barrier on their own
        return self._barrier(MPIFile._exchanged) if idle else None

    def _delivered(self, lr: int, _ev):
        """A cohort rank's sends are out: the call's closing barrier."""
        return self.wait(self.file.comm._barrier_arrive(lr).event,
                         MPIFile._exchanged, lr)

    def _shipped(self):
        """A process's sends (``result``) are out; an aggregator receives
        and commits its domain (phase 2), then it waits for its sends."""
        k = self.ev._value.agg_index.get(self.ranks[0])
        if k is not None:  # aggregators keep their processes: a hand-off
            self.then = MPIFile._committed
            return self._aggregate(k)
        return self._committed()

    def _committed(self, _ev=None):
        sent, self.result = self.result, None
        if not sent:
            return self._barrier(MPIFile._exchanged)
        return self.wait(sent[0] if len(sent) == 1
                         else self.file.engine.all_of(sent), MPIFile._committed)

    def _exchanged(self, _ev=None):
        f = self.file
        if f.tracer is not None:
            for lr in self.ranks:
                args = {"path": f.path, "seq": self.seq}
                if f.groups is not None:
                    args["tam"] = True
                f.tracer.span(f.comm.world_ranks[lr], "exchange", "mpiio",
                              f.t_x0[lr], f.engine.now, f.regions[lr][1],
                              args=args)
        return self._written()

    def _written(self, _ev=None):
        self.seq += 1
        return self.ret(self)

    def _tam_ship(self, ex):
        """Generator: phase 1 of a two-level call (TAM runs uncoalesced).
        A rank hands its extent to its node's leader over shared memory; a
        leader clips the node's extents against the file domains and sends
        one message per touched domain.  Returns the send events."""
        f, me, groups = self.file, self.ranks[0], self.file.groups
        view = f.comm.view(me)
        offset, nbytes = f.regions[me]
        payload = f.payloads[me]
        tag_intra = _TAM_TAG_BASE + self.seq
        if groups.leader_of[me] != me:
            return [] if not nbytes else [view.isend(
                groups.leader_of[me], nbytes, tag=tag_intra,
                payload=(offset, nbytes, payload)).event]
        t_g0 = f.engine.now
        parts = [(offset, nbytes, payload)] if nbytes > 0 else []
        parts += [msg.payload for msg in (yield from view.recv_all(
            [m for m in groups.members_of[me][1:] if ex.raw[m][1] > 0],
            tag_intra))]
        sent = []
        for k in ex.send_domains.get(me, ()):
            dlo, dhi = ex.domains.domain(k)
            pieces = [(lo, hi, None if pay is None else pay[lo - off:hi - off])
                      for off, n, pay in parts
                      for lo, hi in ((max(off, dlo), min(off + n, dhi)),)
                      if lo < hi]
            dest = ex.aggregators[k]
            if dest == me:
                f.staged.setdefault(me, []).extend(pieces)
            else:
                f.comm.fabric.count_tam(len(pieces))
                sent.append(view.isend(dest, sum(hi - lo for lo, hi, _p in pieces),
                                       tag=SHUFFLE_TAG_BASE + self.seq,
                                       payload=pieces).event)
        if f.tracer is not None:
            f.tracer.span(view.world_rank, "tam-gather", "mpiio", t_g0,
                          f.engine.now, sum(n for _o, n, _p in parts),
                          args={"path": f.path, "seq": self.seq,
                                "members": len(groups.members_of[me])})
        return sent

    def _aggregate(self, k: int):
        """Generator: the aggregator of domain ``k`` receives it, overlays
        the pieces (offset-sorted, later shadows earlier) into one rope and
        commits the covered part in ``cb_buffer_size`` bursts.  Returns its
        send events (``result``) for the wait after it."""
        f, me, sent, ex = self.file, self.ranks[0], self.result, self.ev._value
        pieces = f.staged.pop(me, [])
        for msg in (yield from f.comm.view(me).recv_all(
                ex.expected[k], SHUFFLE_TAG_BASE + self.seq)):
            pieces += [msg.payload] if f.groups is None else msg.payload
        if not pieces:
            return sent
        pieces.sort(key=lambda p: p[0])
        lo, hi = pieces[0][0], max(p[1] for p in pieces)
        data: Optional[ByteRope] = None
        if any(p[2] is not None for p in pieces):
            data = overlay(((plo, part) for plo, _phi, part in pieces
                            if part is not None), lo, hi)
        handle, cb, t_w0 = f.handles[me], f.hints.cb_buffer_size, f.engine.now
        for pos in range(lo, hi, cb):
            burst = min(cb, hi - pos)
            yield from handle.client.write(
                handle, pos, burst,
                payload=None if data is None else data[pos - lo:pos - lo + burst])
        if f.tracer is not None:
            f.tracer.span(f.comm.world_ranks[me], "commit", "mpiio", t_w0,
                          f.engine.now, hi - lo, args={
                              "path": f.path, "domain": list(ex.domains.domain(k))})
        return sent
