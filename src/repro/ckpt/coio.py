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

The checkpoint is written once (:class:`_Checkpoint`, a segment of the
file's :class:`~repro.mpiio.MPIFile`): a rank's process runs a segment of
one, the runner's cohort of a coalesced run's members segments of many.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Optional

from ..buffers import ByteRope, zeros
from ..mpi import RankContext
from ..mpiio import Hints, MPIFile, node_groups, place_aggregators
from ..mpiio.file import _File
from ..topology import intrepid
from .base import CheckpointStrategy, PrivateCommit
from .data import CheckpointData
from .incremental import manifest_files, plan_delta
from .layout import FileLayout

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
    def coalesce_plan(self, n_ranks: int, loop=None):
        """Offer the ranks that only contribute an extent and wait: one
        range per maximal contiguous run of them between two aggregators
        (1-31 and 33-63 of a 64-rank file group under the default 1:32
        hint; :func:`~repro.mpiio.place_aggregators` on the run's machine).
        Aggregators keep their processes.  A delta refuses (its plan is a
        hand-off only a process takes), and so do schedules that move
        ranks (:meth:`_moves_ranks`).
        """
        if self.delta != "off" or self._moves_ranks(loop):
            return None
        cpn = (intrepid() if loop is None else loop.job.config).cores_per_node
        per_file = self.ranks_per_file or n_ranks
        plan = []
        for base in range(0, n_ranks, per_file):
            size = min(per_file, n_ranks - base)
            groups = node_groups(range(base, base + size), self.hints.tam, cpn)
            aggs = place_aggregators(size, self.hints.n_aggregators(size), groups)
            for agg, nxt in zip(aggs, aggs[1:] + (size,)):
                if agg + 1 < nxt:
                    plan.append(range(base + agg + 1, base + nxt))
        return tuple(plan) or None

    def coalesced_setup(self, ctx: RankContext, members, loop):
        """Generator: the members' file split, their views left for a
        later restore (:meth:`_iocomm` reads them); returns the file
        communicator and its cohort's checkpoint (:meth:`_segment`)."""
        comm = ctx.comm.comm
        if self.ranks_per_file is not None:
            group = self.group_of(members[0])
            views = yield from ctx.comm.split_members(members, group)
            self._leave_views(ctx.job, group, views)
            comm = views[members[0]].comm
        return comm, partial(self._segment, comm)

    def _segment(self, comm, seg, data: CheckpointData, step: int,
                 t0: float):
        """The checkpoint of cohort segment ``seg`` (world ranks) on file
        communicator ``comm``; after its rows the runner's stages go on."""
        base = comm.world_ranks[0]
        return _Checkpoint(
            self, data, step, seg.loop.basedir, t0, cohort=seg.cohort,
            ranks=[r - base for r in seg.ranks])._enter(comm, seg.loop.job)

    # -- setup ------------------------------------------------------------
    def _iocomm(self, ctx: RankContext):
        """Generator: the communicator sharing this rank's output file."""
        cache = self._cache(ctx)
        comm = cache.get("iocomm")
        if comm is None:
            comm = (ctx.comm if self.ranks_per_file is None
                    else self._left_view(ctx, self.group_of(ctx.rank)))
            if comm is None:  # not a member a coalesced run split for
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
    def checkpoint_op(self, job, client, data: CheckpointData, step: int,
                      basedir: str, sink) -> "_Checkpoint":
        """:meth:`checkpoint` staged; ``sink`` is the rank's context."""
        return _Checkpoint(self, data, step, basedir, job.engine.now,
                           ctx=sink, client=client)

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: one collective write per piece on the group file."""
        return (yield from self.checkpoint_op(ctx.job, ctx.fs, data, step,
                                              basedir, ctx).run())

    # -- restore ----------------------------------------------------------
    def _restore_file(self, ctx: RankContext, basedir: str):
        """The group file, where the rank is its file communicator's rank."""
        group = self.group_of(ctx.rank)
        return (ctx.rank if self.ranks_per_file is None
                else ctx.rank % self.ranks_per_file,
                lambda s: self.file_path(basedir, s, group))

    def _layout_comms(self, ctx: RankContext):
        """The file communicator."""
        return ((yield from self._iocomm(ctx)),)


class _Checkpoint(MPIFile):
    """One coIO checkpoint of a segment of a file communicator's ranks:
    the layout allgather (or a delta's placement), the open, one
    ``write_at_all`` per piece (the master header, then each field
    section), the close, the ranks' rows.  A process runs a segment of one
    under the runner's rank program; the runner's cohort runs segments of
    many, which hand their ranks back to it after their rows.  The split
    and the delta plan are hand-offs only a process takes."""

    __slots__ = ("strategy", "ctx", "data", "step", "basedir", "t0",
                 "layout", "plan")

    def __init__(self, strategy: CollectiveIO, data, step: int, basedir: str,
                 t0: float, ctx=None, client=None, cohort=None,
                 ranks=None) -> None:
        super().__init__(_Checkpoint._begin, ranks, cohort, client)
        self.strategy, self.ctx, self.data, self.step = strategy, ctx, data, step
        self.basedir, self.t0, self.layout, self.plan = basedir, t0, None, None
        self.ret = _Checkpoint._next

    def _one(self, lr: int) -> "_Checkpoint":
        seg = object.__new__(_Checkpoint)  # a copy, minus the other ranks
        seg.result = seg.up = seg.sub = seg.ctx = seg.plan = None
        seg.file, seg.cohort, seg.seq, seg.ret, seg.ev, seg.ranks = (
            self.file, self.cohort, self.seq, self.ret, self.ev, [lr])
        seg.client, seg.strategy, seg.data, seg.step = (
            None, self.strategy, self.data, self.step)
        seg.basedir, seg.t0, seg.layout = self.basedir, self.t0, self.layout
        return seg

    def _begin(self):  # a process: its file communicator first
        self.then = _Checkpoint._grouped
        return self.strategy._iocomm(self.ctx)

    def _grouped(self):
        comm, self.result = self.result, None
        ctx, strategy, t0 = self.ctx, self.strategy, self.t0
        inj = ctx.job.services.get("faults")
        if inj is not None and inj.has_rank_faults and any(
                inj.dead_at(r, t0) for r in strategy._group_members(ctx)):
            # A dead member can never rejoin the collective: the group
            # skips this generation (every survivor evaluates the same
            # oracle at the same time), restore falls back past it.
            self.result = strategy._report(ctx, "collective", t0, t0, t0, 0)
            return self.done()
        self.ranks = [comm.rank]
        return self._enter(comm.comm, ctx.job)

    def _enter(self, comm, job):
        """The step's file, then the members' placement (a delta) or the
        layout allgather."""
        strategy, data, lr = self.strategy, self.data, self.ranks[0]
        self.file = _File.of(job, comm, strategy.file_path(
            self.basedir, self.step,
            strategy.group_of(comm.world_ranks[lr])), strategy.hints)
        if strategy._delta_active(data):
            self.then = _Checkpoint._planned
            return plan_delta(strategy, self.ctx, [(lr, *data.package())],
                              self.step, data.header_bytes, comm=comm.view(lr))
        op = comm.arrive("allgather", self.ranks, repeat(list(data.field_sizes)),
                         nbytes=8 * data.n_fields,
                         fn=partial(FileLayout, data.header_bytes))
        self.ev = op.event
        return self.wait(op.event, _Checkpoint._planned)

    def _planned(self, _ev=None):
        if self.result is None:  # the allgather's layout, or a delta plan
            self.layout = self.ev._value
        self.plan, self.result = self.result, None
        return self._open()

    def _next(self, _ev=None):
        """The file is open or a piece written: the next piece's
        ``write_at_all``, or the close after the last."""
        f, i, layout = self.file, self.seq, self.layout
        regions, payloads = f.regions, f.payloads
        if i == (len(self.plan[0]) if self.plan is not None
                 else layout.n_fields + (layout.header_bytes > 0)):
            self.ret = _Checkpoint._closed
            return self._close()
        if self.plan is not None:  # a delta: the rank's planned pieces
            offset, nbytes, payload = self.plan[0][i]
            regions[self.ranks[0]] = (offset, nbytes)
            payloads[self.ranks[0]] = (None if payload is None
                                       else ByteRope.wrap(payload))
            return self._write()
        field = i - 1 if layout.header_bytes else i
        if field < 0:  # the master header: rank 0's, an empty region else
            for lr in self.ranks:
                regions[lr], payloads[lr] = (0, 0), None
            if not self.ranks[0]:
                regions[0] = (0, layout.header_bytes)
                if self.data.has_payload:
                    payloads[0] = zeros(layout.header_bytes)
            return self._write()
        # Fields contribute zero-copy views; the two-phase exchange slices
        # and ships segment references, never the bytes.
        offsets = layout.field_offsets(field)
        fld = self.data.fields[field]
        nbytes, payload = fld.nbytes, fld.view
        for lr in self.ranks:
            regions[lr], payloads[lr] = (offsets[lr], nbytes), payload
        return self._write()

    def _closed(self, _ev=None):
        """Closed: the manifest next to its data file (a delta's rank 0),
        then the ranks' rows."""
        if self.plan is None:
            return self._report()
        self.then = _Checkpoint._report
        return self.call(PrivateCommit(self.client, manifest_files(
            self.file.path, self.plan[1])))

    def _report(self):
        f, strategy, t0, cohort = self.file, self.strategy, self.t0, self.cohort
        now, nbytes = f.engine.now, self.data.total_bytes
        if cohort is None:  # a process: the report its program files
            self.result = strategy._report(self.ctx, "collective", t0, now,
                                           now, nbytes)
            return self.done()
        ranks = list(map(f.comm.world_ranks.__getitem__, self.ranks))
        for rank in ranks:
            strategy._put_report(cohort.loop.table, f.tracer, self.step, rank,
                                 "collective", t0, now, now, nbytes)
        return cohort.stepped(self.step, ranks)
