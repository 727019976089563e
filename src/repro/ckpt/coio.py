"""coIO — tuned MPI-IO collective checkpointing.

All ranks call MPI-IO split-collective writes
(``MPI_File_write_at_all_begin`` / ``_end``); the paper calls the pair back
to back, so each is one :meth:`~repro.mpiio.MPIFile.write_at_all`.  The
number of output files ``nf`` is the tunable:

- ``nf = 1``: every rank of ``MPI_COMM_WORLD`` participates in one
  collective per field on a single shared file;
- ``np : nf = g : 1`` (paper's 64:1): ranks are split into ``np/g`` groups
  of ``g`` (``MPI_Comm_split``), each group collectively writing its own
  file; the groups' collectives proceed independently of each other
  ("split collective" in the paper's terminology).

ROMIO designates aggregators inside each file's communicator (default one
per 32 ranks on BG/P virtual-node mode) and aligns file domains to GPFS
block boundaries — both inherited from :mod:`repro.mpiio`.

The file layout is the NekCEM format of Fig. 2: master header, then one
section per field, each holding the group members' blocks in rank order,
so the collective pattern is one ``write_at_all`` per field.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Optional

from ..buffers import zeros
from ..mpi import Message, RankContext
from ..mpiio import FlatExchange, Hints, MPIFile, pick_aggregators
from ..mpiio.aggregation import plan_table
from ..mpiio.file import SHUFFLE_TAG_BASE
from .base import CheckpointStrategy
from .data import CheckpointData
from .incremental import plan_delta
from .layout import FileLayout, header_piece

__all__ = ["CollectiveIO"]


class CollectiveIO(CheckpointStrategy):
    """The coIO strategy.

    Parameters
    ----------
    ranks_per_file:
        Group size ``g`` so that ``nf = np / g``; ``None`` means ``nf = 1``
        (one shared file for the whole world communicator).
    hints:
        MPI-IO hints; defaults to the BG/P production setting (1 aggregator
        per 32 ranks, aligned file domains).
    """

    name = "coio"

    def __init__(self, ranks_per_file: Optional[int] = None,
                 hints: Optional[Hints] = None) -> None:
        if ranks_per_file is not None and ranks_per_file < 1:
            raise ValueError("ranks_per_file must be >= 1 or None")
        self.ranks_per_file = ranks_per_file
        self.hints = hints or Hints()

    def describe(self) -> dict:
        out = {
            "name": self.name,
            "nf": 1 if self.ranks_per_file is None else f"np/{self.ranks_per_file}",
            "ranks_per_aggregator": self.hints.ranks_per_aggregator,
            "aligned": self.hints.align_file_domains,
        }
        if self.hints.cb_nodes is not None:
            out["cb_nodes"] = self.hints.cb_nodes
        if self.hints.tam != "off":
            out["tam"] = self.hints.tam
        return out

    def configure_tam(self, tam: str = "auto"):
        """Enable two-level aggregation on every file this strategy opens.

        coIO's TAM lives entirely inside the MPI-IO collective write, so
        enabling it is a pure hint change: ranks coalesce their extents
        through node leaders before ROMIO's inter-node shuffle.  The
        resulting files are bit-identical to the flat exchange.
        """
        super().configure_tam(tam)
        self.hints = self.hints.with_(tam=tam)
        return self

    def group_of(self, rank: int) -> int:
        """Output-file group index of a world rank."""
        return 0 if self.ranks_per_file is None else rank // self.ranks_per_file

    def file_path(self, basedir: str, step: int, group: int) -> str:
        """Path of one group's shared output file."""
        return f"{self.step_dir(basedir, step)}/part{group:05d}.vtk"

    # -- coalescing -------------------------------------------------------
    def coalesce_plan(self, n_ranks: int):
        """Replay the ranks that only contribute an extent and wait.

        Aggregator placement is a property of the file communicator, so
        the non-aggregator ranks are known up front: one group per maximal
        contiguous run of them between two aggregators (1-31 and 33-63 of
        a 64-rank file group under the default 1:32 hint).  Aggregators —
        the ranks that receive, overlay and touch the file system — keep
        their processes.  Only the flat, full-write exchange is replayed:
        TAM and delta change the members' roles and run uncoalesced.
        """
        if self.hints.tam != "off" or self.delta != "off":
            return None
        per_file = self.ranks_per_file or n_ranks
        plan = []
        for base in range(0, n_ranks, per_file):
            size = min(per_file, n_ranks - base)
            aggs = pick_aggregators(size, self.hints.n_aggregators(size))
            for agg, nxt in zip(aggs, aggs[1:] + [size]):
                members = range(base + agg + 1, base + nxt)
                if members:
                    plan.append(members)
        return tuple(plan) or None

    def coalesced_worker_main(self, ctx: RankContext, members, loop):
        """Generator: bring one run of non-aggregator ranks to its cohort.

        Only the world barrier and the communicator split — which complete
        for all members at once — are entered from here.  From the first
        layout allgather on, the runs of one file communicator advance
        together as a :class:`_RunReplay`, through every step.
        """
        world = ctx.comm
        job = ctx.job
        yield world.comm.arrive("barrier", members).event
        t0 = ctx.engine.now
        contexts = [job.contexts[m] for m in members]
        if self.ranks_per_file is None:
            views = [member.comm for member in contexts]
        else:
            by_rank = yield from world.split_members(
                members, self.group_of(members[0]))
            views = [by_rank[m] for m in members]
        for member, view in zip(contexts, views):
            # What _iocomm leaves behind: a later restore (or ghost) of the
            # member must find the split done, as the aggregators do.
            self._cache(member)["iocomm"] = view
        cohorts = job.services.setdefault(f"ckpt:{id(self)}:cohorts", {})
        group = self.group_of(members[0])
        run = cohorts.get(group)
        if run is None:
            run = cohorts[group] = _RunReplay(self, ctx, group, loop,
                                             views[0].comm)
        yield run.join([view.rank for view in views], t0)

    # -- setup ------------------------------------------------------------
    def _iocomm(self, ctx: RankContext):
        """Generator: the communicator sharing this rank's output file."""
        cache = self._cache(ctx)
        comm = cache.get("iocomm")
        if comm is None:
            if self.ranks_per_file is None:
                comm = ctx.comm
            else:
                comm = yield from ctx.comm.split(color=self.group_of(ctx.rank))
            cache["iocomm"] = comm
        return comm

    def _group_members(self, ctx: RankContext) -> range:
        """World ranks sharing this rank's output file."""
        if self.ranks_per_file is None:
            return range(ctx.comm.size)
        g = self.group_of(ctx.rank)
        lo = g * self.ranks_per_file
        return range(lo, min(lo + self.ranks_per_file, ctx.comm.size))

    def ghost(self, ctx: RankContext, data: CheckpointData, step: int,
              basedir: str = "/ckpt"):
        """A crashed rank still joins the (cached) communicator split."""
        yield from self._iocomm(ctx)

    # -- checkpoint -------------------------------------------------------
    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: one collective write per piece on the group file."""
        eng = ctx.engine
        t0 = eng.now
        comm = yield from self._iocomm(ctx)
        inj = ctx.job.services.get("faults")
        if inj is not None and inj.has_rank_faults and any(
                inj.dead_at(r, t0) for r in self._group_members(ctx)):
            # A dead member can never rejoin the collective; the whole
            # group skips this generation (every survivor evaluates the
            # same oracle at the same post-barrier time) and restore falls
            # back to the newest complete one.
            return self._report(ctx, "collective", t0, t0, t0, 0)
        # Gather happens inside the collective call (ROMIO's aggregators);
        # the plan is one piece per field section of the NekCEM layout —
        # or, for a delta, the member's fresh region placed by the group's
        # allgather — behind the master header.
        manifest = None
        if self._delta_active(data):
            pieces, manifest = yield from plan_delta(
                self, ctx,
                [(comm.rank, *data.package())],
                step, data.header_bytes, comm=comm)
        else:
            layout: FileLayout = yield from comm.allgather(
                list(data.field_sizes), nbytes=8 * data.n_fields,
                map_fn=lambda sizes: FileLayout(data.header_bytes, sizes),
            )
            hdr = zeros(data.header_bytes) if data.has_payload else None
            # Fields contribute zero-copy views; the two-phase exchange
            # slices and ships segment references, never the bytes.
            pieces = header_piece(comm.rank, data.header_bytes, hdr) + [
                (offset, fld.nbytes, fld.view) for offset, fld in
                zip(layout.member_offsets(comm.rank), data.fields)]
        path = self.file_path(basedir, step, self.group_of(ctx.rank))
        f = yield from MPIFile.open(ctx, comm, path, hints=self.hints)
        yield from self._commit_shared(ctx, f, pieces, manifest)
        t_end = eng.now
        return self._report(ctx, "collective", t0, t_end, t_end, data.total_bytes)

    # -- restore ----------------------------------------------------------
    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: read this rank's blocks back from the group file."""
        t_r0 = ctx.engine.now
        group = self.group_of(ctx.rank)
        fields = yield from self._restore_delta(
            ctx, template, step,
            member=(ctx.rank if self.ranks_per_file is None
                    else ctx.rank % self.ranks_per_file),
            path_of=lambda s: self.file_path(basedir, s, group))
        if fields is not None:
            return fields
        comm = yield from self._iocomm(ctx)
        layout: FileLayout = yield from comm.allgather(
            list(template.field_sizes), nbytes=8 * template.n_fields,
            map_fn=lambda sizes: FileLayout(template.header_bytes, sizes),
        )
        return (yield from self._read_blocks(
            ctx, template, step, self.file_path(basedir, step, group),
            layout.total_size, layout.member_offsets(comm.rank), t_r0))


class _RunReplay:
    """The non-aggregator ranks of one file communicator, without processes.

    Each method is the continuation the rank processes would run when the
    event they wait on fires, for a *segment* of them: members whose
    resumes would have sat next to each other in the event's callback
    list, in that order.  :meth:`_await` puts one callback where the first
    of them would have appended its resume and lets later arrivals join
    it for as long as nobody else has appended after it — an aggregator's
    process arriving in between starts a new segment.  Members therefore
    take their turns among the aggregators (and each other) in the
    uncoalesced order, which makes everything order-sensitive exact by
    construction: the shared noise stream's draws, the reservations on an
    aggregator node's ejection pipe (its own straddling piece included),
    collective arrival order, Darshan records and spans.  Where members
    part ways — each open and close takes its own time, each message is
    delivered at its own instant — a member reaches the next collective
    from its own event, and joins the segment forming there.

    Nothing another layer decides is re-derived here: a member ships the
    pieces :meth:`FlatExchange.sends` lists for it, like
    ``MPIFile._two_phase`` does, and an open or close is ``FSClient``'s own
    staged op, driven from callbacks (:meth:`_drive`) as a process would
    ``yield from`` it.
    """

    def __init__(self, strategy: CollectiveIO, ctx: RankContext, group: int,
                 loop, comm) -> None:
        job = ctx.job
        data = loop.data
        self.strategy = strategy
        self.eng = job.engine
        self.tracer = job.tracer
        self.contexts = job.contexts
        self.world = ctx.comm.comm
        self.comm = comm
        self.gaps = loop.gaps
        self.barrier_each_step = loop.barrier_each_step
        self.paths = [strategy.file_path(loop.basedir, step, group)
                      for step in loop.steps]
        self.total_bytes = data.total_bytes
        self.field_sizes = list(data.field_sizes)
        self.layout_nbytes = 8 * data.n_fields
        self.make_layout = partial(FileLayout, data.header_bytes)
        # The collective calls of one step: the master header (members
        # contribute an empty region) is call -1 when there is one.
        self.first_call = -1 if data.header_bytes else 0
        self.payloads = [fld.view for fld in data.fields]
        self.exchange_plan = partial(
            FlatExchange.for_hints, hints=strategy.hints,
            block_size=ctx.fs.fs.config.fs_block_size,
            plans=plan_table(job.services))
        # Per member, by rank on ``comm`` (an aggregator's slot stays None).
        self.fs: list = [None] * comm.size
        self.handles: list = [None] * comm.size
        self.offs = None  # offs[lr][field], once the layout is known
        self.t_x0 = [0.0] * comm.size
        self.step = 0
        self.t0 = [0.0] * len(self.paths)
        self.table = loop.table
        self.unfinished = 0
        self.done: list = []  # one event per joined run
        self._tail = None

    def join(self, lrs: list, t0: float):
        """A run's members (ranks on ``comm``) enter their first step.

        Returns the event that fires when the cohort is through its last
        step.
        """
        world_ranks = self.comm.world_ranks
        for lr in lrs:
            self.fs[lr] = self.contexts[world_ranks[lr]].fs
        self.unfinished += len(lrs)
        self.done.append(self.eng.event())
        self.t0[0] = t0
        self._gather_layout(lrs)
        return self.done[-1]

    def _await(self, event, lrs, handler, arg) -> None:
        """Go on with ``handler(lrs, arg, event)`` where ``lrs``' processes
        would have resumed from ``event``."""
        callbacks = event.callbacks
        tail = self._tail
        if callbacks and callbacks[-1] is tail:
            tail.args[0].extend(lrs)
        else:
            self._tail = tail = partial(handler, list(lrs), arg)
            callbacks.append(tail)

    # -- step prologue ----------------------------------------------------
    def _after_gap(self, lrs, step, _ev) -> None:
        if self.barrier_each_step:
            world_ranks = self.comm.world_ranks
            self._await(self.world.arrive(
                "barrier", [world_ranks[lr] for lr in lrs]).event,
                lrs, self._enter_step, step)
        else:
            self._enter_step(lrs, step, None)

    def _enter_step(self, lrs, step, _ev) -> None:
        self.step = step
        self.t0[step] = self.eng.now
        self._gather_layout(lrs)

    def _gather_layout(self, lrs) -> None:
        self._await(self.comm.arrive(
            "allgather", lrs, repeat(self.field_sizes), nbytes=self.layout_nbytes,
            fn=self.make_layout).event, lrs, self._laid_out, None)

    def _laid_out(self, lrs, _arg, ev) -> None:
        if self.offs is None:
            self.offs = [fs and ev.value.member_offsets(lr)
                         for lr, fs in enumerate(self.fs)]
        # MPIFile.open, non-creator side: barrier, then fs.open.
        self._await(self.comm.arrive("barrier", lrs).event,
                    lrs, self._open, None)

    def _drive(self, op, done, lr, fired=None) -> None:
        """Run one member's ``FSClient`` op up to its next wait, from where
        its process would have resumed; ``done(lr, result)`` after it."""
        ev = op.advance(fired, False)
        if ev is None:
            done(lr, op.result)
        else:
            ev.add_callback(partial(self._drive, op, done, lr))

    def _open(self, lrs, _arg, _ev) -> None:
        path = self.paths[self.step]
        for lr in lrs:
            self._drive(self.fs[lr].open_op(path, True), self._opened, lr)

    def _opened(self, lr, handle) -> None:
        self.handles[lr] = handle
        self._write_at_all((lr,), self.first_call)

    # -- one collective write per call: allgather, ship, barrier ----------
    def _write_at_all(self, lrs, i) -> None:
        comm = self.comm
        if i == len(self.payloads):
            # MPIFile.close: barrier, fs.close, barrier.
            self._await(comm.arrive("barrier", lrs).event,
                        lrs, self._close, None)
            return
        if self.tracer is not None:
            now = self.eng.now
            for lr in lrs:
                self.t_x0[lr] = now
        if i < 0:
            regions = repeat((0, 0))
        else:
            offs, nbytes = self.offs, self.field_sizes[i]
            regions = [(offs[lr][i], nbytes) for lr in lrs]
        self._await(comm.arrive(
            "allgather", lrs, regions, nbytes=16, fn=self.exchange_plan).event,
            lrs, self._ship, i)

    def _ship(self, lrs, i, ev) -> None:
        ex: FlatExchange = ev.value
        comm = self.comm
        if ex.empty or i < 0:
            # Nothing to send: straight to the call's closing barrier.
            self._await(comm.arrive("barrier", lrs).event, lrs,
                        self._next_call if ex.empty else self._exchanged, i)
            return
        eng = self.eng
        fabric = comm.fabric
        delay = fabric.delay
        eager = fabric.config.eager_threshold
        world = comm.world_ranks
        mailbox = comm.mailbox
        offs = self.offs
        payload = self.payloads[i]
        tag = SHUFFLE_TAG_BASE + i - self.first_call
        shipped, delivered = self._shipped, self._delivered
        for lr in lrs:
            sends = ex.sends(lr)
            offset = offs[lr][i]
            if len(sends) != 1 or sends[0][2] - sends[0][1] <= eager:
                # A straddling extent, an eager piece, nothing at all: the
                # rank's own isend(s) and wait, as MPIFile._two_phase.
                view = comm.view(lr)
                sent = [view.isend(
                    dest, hi - lo, tag=tag,
                    payload=(lo, hi, None if payload is None
                             else payload[lo - offset:hi - offset])).event
                    for dest, lo, hi in sends]
                if not sent:
                    shipped(lr, i)
                else:
                    (sent[0] if len(sent) == 1 else eng.all_of(sent)
                     ).add_callback(partial(shipped, lr, i))
                continue
            # One rendezvous send: its delivery is its completion.
            dest, lo, hi = sends[0]
            Message.arriving(
                eng, eng.now + delay(world[lr], world[dest], hi - lo),
                mailbox(dest), lr, tag, hi - lo,
                (lo, hi, None if payload is None
                 else payload[lo - offset:hi - offset])
            ).callbacks.append(delivered)

    def _delivered(self, msg) -> None:
        """A member's rendezvous send is in (its call is read off the tag)."""
        self._shipped(msg.source, msg.tag - SHUFFLE_TAG_BASE + self.first_call)

    def _shipped(self, lr, i, _ev=None) -> None:
        self._await(self.comm._barrier_arrive(lr).event, (lr,),
                    self._exchanged, i)

    def _exchanged(self, lrs, i, _ev) -> None:
        tr = self.tracer
        if tr is not None:
            now = self.eng.now
            world = self.comm.world_ranks
            nbytes = 0 if i < 0 else self.field_sizes[i]
            for lr in lrs:
                tr.span(world[lr], "exchange", "mpiio", self.t_x0[lr], now,
                        nbytes, args={"path": self.paths[self.step],
                                      "seq": i - self.first_call})
        self._write_at_all(lrs, i + 1)

    def _next_call(self, lrs, i, _ev) -> None:
        self._write_at_all(lrs, i + 1)

    def _close(self, lrs, _arg, _ev) -> None:
        for lr in lrs:
            # The close op holds the handle (and its stream) from here on.
            op, self.handles[lr] = self.fs[lr].close_op(self.handles[lr]), None
            self._drive(op, self._closed, lr)

    def _closed(self, lr, _result) -> None:
        self._await(self.comm._barrier_arrive(lr).event, (lr,),
                    self._finished, self.step)

    def _finished(self, lrs, step, _ev) -> None:
        now = self.eng.now
        t0 = self.t0[step]
        world = self.comm.world_ranks
        for lr in lrs:
            self.strategy._put_report(self.table, self.tracer, step,
                                      world[lr], "collective", t0, now, now,
                                      self.total_bytes)
        step += 1
        if step == len(self.paths):
            self.unfinished -= len(lrs)
            if not self.unfinished:
                for done in self.done:
                    done.succeed()
                self._tail = None  # it points back here
            return
        gap = self.gaps[step]
        if gap > 0:
            # One timer where the segment's would have stood side by side.
            self.eng.count_events(len(lrs) - 1)
            self.eng.timeout(gap).callbacks.append(
                partial(self._after_gap, list(lrs), step))
        else:
            self._after_gap(lrs, step, None)
