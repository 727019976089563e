"""coIO — tuned MPI-IO collective checkpointing.

All ranks call MPI-IO split-collective writes
(``MPI_File_write_at_all_begin`` / ``_end``).  The number of output files
``nf`` is the tunable:

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
from typing import Optional

from ..buffers import zeros
from ..mpi import RankContext
from ..mpiio import FlatExchange, Hints, MPIFile, pick_aggregators
from ..mpiio.file import SHUFFLE_TAG_BASE
from ..sim import CoalescePlan, GroupPlan, StagedOp
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
        groups = []
        for base in range(0, n_ranks, per_file):
            size = min(per_file, n_ranks - base)
            aggs = pick_aggregators(size, self.hints.n_aggregators(size))
            for agg, nxt in zip(aggs, aggs[1:] + [size]):
                members = tuple(range(base + agg + 1, base + nxt))
                if members:
                    groups.append(GroupPlan(rep=members[0], members=members))
        if not groups:
            return None
        return CoalescePlan(groups=tuple(groups),
                            worker_main=self.coalesced_worker_main)

    def coalesced_worker_main(self, ctx: RankContext, members,
                              data: CheckpointData, steps, basedir: str,
                              gaps, barrier_each_step: bool):
        """Generator: stand in for one run of non-aggregator ranks.

        Only the world barrier and the communicator split — which complete
        for all members at once — use the bulk collective entries.  From
        the first layout allgather on each member is a
        :class:`_MemberReplay`: a chain of plain event callbacks,
        registered where the rank's process would have been waiting,
        through every step.
        """
        world = ctx.comm
        contexts = ctx.job.contexts
        yield from world.barrier_members(members)
        t0 = ctx.engine.now
        if self.ranks_per_file is None:
            views = [contexts[m].comm for m in members]
        else:
            by_rank = yield from world.split_members(
                [(m, self.group_of(m)) for m in members])
            views = [by_rank[m] for m in members]
        for m, view in zip(members, views):
            # What _iocomm leaves behind: a later restore (or ghost) of the
            # member must find the split done, as the aggregators do.
            self._cache(contexts[m])["iocomm"] = view
        run = _RunReplay(self, ctx, members, data, steps, basedir, gaps,
                         barrier_each_step, views[0].comm)
        for m, view in zip(members, views):
            _MemberReplay(run, m, view, t0)._gather_layout()
        return (yield run.done)

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
                [(comm.rank, data.field_sizes, data.concatenated_payload())],
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
    """What the members of one coalesced run share (see ``_MemberReplay``)."""

    def __init__(self, strategy: CollectiveIO, ctx: RankContext, members,
                 data: CheckpointData, steps, basedir: str, gaps,
                 barrier_each_step: bool, comm) -> None:
        job = ctx.job
        self.strategy = strategy
        self.eng = job.engine
        self.tracer = job.tracer
        self.contexts = job.contexts
        self.world = ctx.comm.comm
        self.comm = comm
        self.gaps = gaps
        self.barrier_each_step = barrier_each_step
        group = strategy.group_of(members[0])
        self.paths = [strategy.file_path(basedir, step, group)
                      for step in steps]
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
            block_size=ctx.fs.fs.config.fs_block_size)
        self.reports: dict[int, list] = {m: [] for m in members}
        self.unfinished = len(members)
        self.done = self.eng.event()


class _MemberReplay(StagedOp):
    """One non-aggregator rank of a collective checkpoint, without a process.

    Each method is the continuation a rank process would run when the
    event it waits on fires, and registers the next one exactly where the
    process would have appended its resume callback.  Members therefore
    take their turns among the aggregator processes (and each other) in
    the uncoalesced order, which makes everything order-sensitive exact by
    construction: the shared noise stream's draws, the reservations on an
    aggregator node's ejection pipe (its own straddling piece included),
    collective arrival order, Darshan records and spans.

    Nothing another layer decides is re-derived here: a member ships the
    pieces :meth:`FlatExchange.sends` lists for it, like
    ``MPIFile._two_phase`` does, and an open or close is ``FSClient``'s own
    staged op, called from :meth:`_open` / :meth:`_close` as a process
    would ``yield from`` it.
    """

    __slots__ = ("run", "rank", "view", "lr", "fs", "step", "t0", "offs",
                 "handle", "seq", "t_x0")

    def __init__(self, run: _RunReplay, rank: int, view, t0: float) -> None:
        super().__init__(None)
        self.run = run
        self.rank = rank
        self.view = view
        self.lr = view.rank
        self.fs = run.contexts[rank].fs
        self.step = 0
        self.t0 = t0

    # -- step prologue ----------------------------------------------------
    def _after_gap(self, _ev) -> None:
        run = self.run
        if run.barrier_each_step:
            run.world._barrier_arrive(self.rank).event.callbacks.append(
                self._enter_step)
        else:
            self._enter_step(None)

    def _enter_step(self, _ev) -> None:
        self.t0 = self.run.eng.now
        self._gather_layout()

    def _gather_layout(self) -> None:
        run = self.run
        run.comm._allgather_arrive(
            self.lr, run.field_sizes, run.layout_nbytes, run.make_layout
        ).event.callbacks.append(self._laid_out)

    def _laid_out(self, ev) -> None:
        self.offs = ev.value.member_offsets(self.lr)
        self.then = _MemberReplay._open
        self.run.comm._barrier_arrive(self.lr).event.callbacks.append(
            self.advance)

    # -- MPIFile.open, non-creator side: the open barrier has released ----
    # (_open/_opened and _close/_closed are StagedOp stages, not callbacks.)
    def _open(self):
        self.then = _MemberReplay._opened
        return self.call(self.fs.open_op(self.run.paths[self.step], True))

    def _opened(self) -> None:
        self.handle = self.result
        self.seq = self.run.first_call
        self._write_at_all()

    # -- one collective write per call: allgather, ship, barrier ----------
    def _write_at_all(self) -> None:
        run = self.run
        i = self.seq
        if i == len(run.payloads):
            # MPIFile.close: barrier, fs.close, barrier.
            self.then = _MemberReplay._close
            run.comm._barrier_arrive(self.lr).event.callbacks.append(
                self.advance)
            return
        self.t_x0 = run.eng.now
        region = (0, 0) if i < 0 else (self.offs[i], run.field_sizes[i])
        run.comm._allgather_arrive(
            self.lr, region, 16, run.exchange_plan
        ).event.callbacks.append(self._ship)

    def _ship(self, ev) -> None:
        ex: FlatExchange = ev.value
        run = self.run
        if ex.empty:
            run.comm._barrier_arrive(self.lr).event.callbacks.append(
                self._next_call)
            return
        sends = ex.sends(self.lr)
        if not sends:
            self._shipped(None)
            return
        i = self.seq
        offset = self.offs[i]
        payload = run.payloads[i]
        tag = SHUFFLE_TAG_BASE + i - run.first_call
        sent = [
            self.view.isend(
                dest, hi - lo, tag=tag,
                payload=(lo, hi, None if payload is None
                         else payload[lo - offset:hi - offset])).event
            for dest, lo, hi in sends]
        (sent[0] if len(sent) == 1 else run.eng.all_of(sent)).add_callback(
            self._shipped)

    def _shipped(self, _ev) -> None:
        self.run.comm._barrier_arrive(self.lr).event.callbacks.append(
            self._exchanged)

    def _exchanged(self, ev) -> None:
        run = self.run
        tr = run.tracer
        if tr is not None:
            i = self.seq
            tr.span(self.rank, "exchange", "mpiio", self.t_x0, run.eng.now,
                    0 if i < 0 else run.field_sizes[i],
                    args={"path": run.paths[self.step],
                          "seq": i - run.first_call})
        self._next_call(ev)

    def _next_call(self, _ev) -> None:
        self.seq += 1
        self._write_at_all()

    # -- MPIFile.close ----------------------------------------------------
    def _close(self):
        self.then = _MemberReplay._closed
        return self.call(self.fs.close_op(self.handle))

    def _closed(self) -> None:
        self.run.comm._barrier_arrive(self.lr).event.callbacks.append(
            self._finished)

    def _finished(self, _ev) -> None:
        run = self.run
        now = run.eng.now
        run.reports[self.rank].append(run.strategy._report(
            run.contexts[self.rank], "collective", self.t0, now, now,
            run.total_bytes))
        self.step += 1
        if self.step == len(run.paths):
            run.unfinished -= 1
            if not run.unfinished:
                run.done.succeed(run.reports)
            return
        gap = run.gaps[self.step]
        if gap > 0:
            run.eng.timeout(gap).callbacks.append(self._after_gap)
        else:
            self._after_gap(None)
