"""Checkpoint strategy interface.

A strategy implements one coordinated application-level checkpoint step: all
ranks enter :meth:`CheckpointStrategy.checkpoint` together (the experiment
runner barriers first), each rank contributes its
:class:`~repro.ckpt.data.CheckpointData`, and each rank returns a
:class:`~repro.ckpt.result.RankReport` describing when it was blocked and
when its I/O duty completed.

A strategy's rank program is written once, as **gather -> plan -> commit**:
who gathers (nobody, ROMIO's aggregators inside the collective call, or
dedicated writers), what is written (a *plan*: ``(offset, nbytes, payload)``
pieces, a delta's manifest one more file —
:func:`repro.ckpt.incremental.plan_delta`), and the commit that takes the
plan to the file system (private: :class:`PrivateCommit`; shared; staged).
Delta, TAM, faults and staging are choices made inside a stage, never a
parallel method; restart is one body, :meth:`CheckpointStrategy.restore`.

Strategies are shared, immutable configuration objects; per-rank state that
must persist across steps (split communicators, cached layouts) lives in
``ctx.user`` under the strategy's cache key.
"""

from __future__ import annotations

from collections import ChainMap
from functools import partial
from typing import Any, Optional

from ..faults import UnrecoverableCheckpointError
from ..mpi import RankContext
from ..sim import StagedOp
from .data import CheckpointData
from .layout import FileLayout
from .result import RankReport

__all__ = ["CheckpointStrategy", "PrivateCommit"]


class CheckpointStrategy:
    """Base class for the checkpointing I/O approaches.

    Subclasses implement :meth:`checkpoint` (gather -> plan -> commit, see
    the module docstring) and say where a rank's blocks are
    (:meth:`_restore_file`, :meth:`_layout_comms`); the restore body that
    reads them is shared (:meth:`restore`).
    """

    #: Short identifier used in result tables ("1pfpp", "coio", "rbio").
    name: str = "abstract"

    #: Incremental-checkpointing mode: "off" (full write, the paper-fidelity
    #: default), "auto" (delta when payloads are present and the group is
    #: intact), or "require" (raise if delta writes are impossible).
    delta: str = "off"

    #: Content-defined chunking bounds used by delta commits (set by
    #: :meth:`configure_delta`; ``None`` while ``delta == "off"``).
    chunking = None

    #: Two-level intra-node aggregation mode: "off" (flat exchange, the
    #: paper-fidelity default), "auto" (coalesce through node leaders when
    #: nodes host multiple ranks), or "require" (raise if TAM cannot
    #: engage).  Set via :meth:`configure_tam`.
    tam: str = "off"

    #: A strategy whose checkpoint is written once as a
    #: :class:`~repro.sim.StagedOp` (1PFPP, coIO) makes this its builder,
    #: ``checkpoint_op(job, client, data, step, basedir, sink)``; the
    #: runner's rank program then calls the op, under either driver,
    #: instead of handing its process :meth:`checkpoint`.
    checkpoint_op = None

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: perform one coordinated checkpoint step on this rank.

        Returns a :class:`~repro.ckpt.result.RankReport`.
        """
        raise NotImplementedError

    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: read this rank's contribution back (restart path).

        ``template`` describes the expected field names/sizes.  Returns the
        list of per-field payload byte strings: the member's delta chain, or
        its blocks in the layout allgathered over :meth:`_layout_comms`.
        """
        t_r0 = ctx.engine.now
        member, path_of = self._restore_file(ctx, basedir)
        fields = yield from self._restore_delta(ctx, template, step, member,
                                                path_of)
        if fields is not None:
            return fields
        layout_of = partial(FileLayout, template.header_bytes)
        layout = layout_of([template.field_sizes])  # a file it owns alone
        for comm in (yield from self._layout_comms(ctx)):
            layout = yield from comm.allgather(
                list(template.field_sizes), nbytes=8 * template.n_fields,
                map_fn=layout_of)
        return (yield from self._read_blocks(
            ctx, template, step, path_of(step), layout.total_size,
            layout.member_offsets(member), t_r0))

    def _restore_file(self, ctx: RankContext, basedir: str):
        """``(member, path_of)``: the rank's member index in its file, and
        ``path_of(step)``, the file of generation ``step``."""
        raise NotImplementedError

    def _layout_comms(self, ctx: RankContext):
        """Generator: the communicators laying the file out, in order."""
        return ()
        yield  # pragma: no cover - makes this a generator

    def ghost(self, ctx: RankContext, data: CheckpointData, step: int,
              basedir: str = "/ckpt"):
        """Generator: a crashed rank's step-boundary participation.

        The runner calls this instead of :meth:`checkpoint` for ranks the
        fault schedule has killed.  The default contributes nothing;
        strategies with collective setup (communicator splits) override it
        so survivors' collectives still complete deterministically.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def describe(self) -> dict[str, Any]:
        """Strategy parameters for result records / EXPERIMENTS.md rows."""
        d: dict[str, Any] = {"name": self.name}
        if self.delta != "off":
            d["delta"] = self.delta
        if self.tam != "off":
            d["tam"] = self.tam
        return d

    def coalesce_plan(self, n_ranks: int, loop=None):
        """Offer the ranks to run without a process each, or ``None``.

        A plan is a tuple of ascending, disjoint, non-empty ``range``s of
        world ranks; ranks no range covers run uncoalesced.  ``loop`` is
        the run's :class:`~repro.experiments.runner.StepLoop` (``None``:
        a one-step run without faults).  The default offers none.

        The runner drives each range with its one step loop: a process in
        the range's first-rank slot enters the first barrier for every
        member and runs :meth:`coalesced_setup`, then goes on in lock-step
        (no :attr:`checkpoint_op`: rbIO/bbIO workers, identical by
        construction) or hands the members to a cohort of segments driven
        from event callbacks (1PFPP's and coIO's members, which diverge).
        A coalesced run is **exact**: every pipe reservation, collective
        arrival, noise draw, Darshan record and span of a rank happens
        where it does uncoalesced (``tests/test_coalesce.py``); only
        different ranks' records may be filed in another order.  A plan
        refuses what would make members diverge from their driver, and
        is asked for only when every rank shares one
        :class:`~repro.ckpt.CheckpointData` object.
        """
        return None

    @staticmethod
    def _moves_ranks(loop) -> bool:
        """Whether the run's fault schedule kills or rolls back ranks
        (``rank_crash``, ``restart``): no plan follows a rank off its
        program."""
        return loop is not None and bool(
            loop.faults.schedule.by_kind("rank_crash", "restart"))

    def coalesced_setup(self, ctx: RankContext, members, loop):
        """Generator: the first-step setup of coalesced range ``members``
        (every member's splits; their views left by :meth:`_leave_views`).
        Returns ``(key, op)``: ranges with one ``key`` share a cohort;
        ``op`` is the range's checkpoint: ``op(data, step, table)`` in
        lock-step (no :attr:`checkpoint_op`), else ``op(segment, data,
        step, t0)`` for a cohort's segment (``None``: each member's own)."""
        return None, None
        yield  # pragma: no cover - makes this a generator

    @property
    def _splits_key(self) -> str:
        """``job.services`` key of the views coalesced ranges leave."""
        return f"ckpt:{id(self)}:splits"

    def _leave_views(self, job, group: int, views) -> None:
        """Leave a range's split views (one entry per group; a ``ChainMap`` if two)."""
        table = job.services.setdefault(self._splits_key, {})
        table[group] = ChainMap(table[group], views) if group in table else views

    def _left_view(self, ctx: RankContext, group: int):
        """This rank's view a range left, or ``None``: it splits itself."""
        return ctx.job.services.get(self._splits_key, {}).get(group, {}).get(ctx.rank)

    # -- incremental checkpointing --------------------------------------------
    def configure_delta(self, delta: str = "auto", chunking=None):
        """Enable incremental (content-addressed delta) checkpointing.

        ``delta="auto"`` writes deltas whenever the data carries payload and
        the writing group is fully intact, silently falling back to full
        writes otherwise; ``"require"`` raises instead of falling back when
        the data is size-only (fault degradation still falls back — a full
        write is always a correct superset of a delta).  Returns ``self``
        for chaining.
        """
        from .incremental import ChunkingParams

        if delta not in ("off", "auto", "require"):
            raise ValueError(f"delta must be 'off'|'auto'|'require', "
                             f"got {delta!r}")
        self.delta = delta
        if delta == "off":
            self.chunking = None
        else:
            self.chunking = chunking or ChunkingParams()
        return self

    # -- two-level intra-node aggregation -------------------------------------
    def configure_tam(self, tam: str = "auto"):
        """Enable two-level (intra-node) request aggregation.

        With ``tam="auto"`` ranks sharing a compute node coalesce their
        requests through the node's leader before any inter-node exchange,
        cutting inter-node message counts from O(np x aggregators) to
        O(nodes x aggregators) (Kang et al., arXiv:1907.12656); the path
        silently stays flat when nothing is co-resident or when rank-crash
        fault schedules demand the flat failover protocol.  ``"require"``
        raises instead of degrading.  File images are bit-identical to the
        flat exchange either way.  Returns ``self`` for chaining.
        """
        from ..mpiio.hints import TAM_MODES

        if tam not in TAM_MODES:
            raise ValueError(
                f"tam must be one of {TAM_MODES}, got {tam!r}")
        self.tam = tam
        return self

    def _delta_active(self, data: CheckpointData) -> bool:
        """Whether this commit should attempt a delta write."""
        if self.delta == "off":
            return False
        if data.has_payload:
            return True
        if self.delta == "require":
            raise ValueError(
                f"{self.name}: delta='require' needs payload-carrying "
                f"CheckpointData, got size-only fields")
        return False

    def _restore_delta(self, ctx: RankContext, template: CheckpointData,
                       step: int, member: int, path_of):
        """Generator: restore one member by walking its delta chain.

        ``path_of(step)`` maps a generation to the data-file path holding
        this member's chunks.  Returns ``None`` when ``step`` left no
        manifest (a full write: the caller reads its blocks instead).
        Otherwise reads the generation's manifest, merges its chunk list
        into contiguous runs per source generation, reads each run,
        verifies every chunk's CRC32, and returns the per-field payload
        ropes.  Any damage (missing/short source file, bit-flip, malformed
        manifest) raises an
        :class:`~repro.faults.UnrecoverableCheckpointError` subclass so
        resilient restores vote the generation down.
        """
        from ..buffers import ByteRope
        from .incremental import (ManifestError, assemble_section,
                                  manifest_exists, read_manifest, read_plan)

        path = path_of(step)
        if self.delta == "off" or not manifest_exists(ctx, path):
            return None
        t_r0 = ctx.engine.now
        manifest = yield from read_manifest(ctx, path, step)
        section = manifest.section_for(member)
        if section.field_sizes != template.field_sizes:
            raise ManifestError(
                f"{path!r}: manifest member {member} has field sizes "
                f"{list(section.field_sizes)}, template expects "
                f"{list(template.field_sizes)}",
                step=step, path=path, rank=ctx.rank)
        runs = read_plan(section)
        run_data = []
        i = 0
        while i < len(runs):
            src = runs[i].src_step
            src_path = path_of(src)
            handle = yield from ctx.fs.open(src_path)
            while i < len(runs) and runs[i].src_step == src:
                run = runs[i]
                if handle.file.size < run.offset + run.length:
                    yield from ctx.fs.close(handle)
                    raise UnrecoverableCheckpointError(
                        f"{src_path!r} has {handle.file.size} B, a chunk "
                        f"run of generation {step} needs "
                        f"{run.offset + run.length} B",
                        step=step, path=src_path, rank=ctx.rank)
                piece = yield from ctx.fs.read(handle, run.offset, run.length)
                run_data.append((run, ByteRope.wrap(piece)))
                i += 1
            yield from ctx.fs.close(handle)
        payload = assemble_section(section, run_data, step, path,
                                   rank=ctx.rank)
        fields = []
        pos = 0
        for nbytes in template.field_sizes:
            fields.append(payload.slice(pos, pos + nbytes))
            pos += nbytes
        self._span(ctx, "restore", t_r0, ctx.engine.now,
                   template.total_bytes, step=step, delta=True)
        return fields

    def _read_blocks(self, ctx: RankContext, template: CheckpointData,
                     step: int, path: str, file_bytes: int, offsets,
                     t_r0: float):
        """Generator: read this rank's field blocks from a full-write file.

        ``offsets[i]`` is where field ``i``'s block starts.  A file that is
        not exactly ``file_bytes`` long is a partial generation (aborted
        write, failover file holding survivors only): it is refused, so
        the resilient restore falls back to an older one.
        """
        handle = yield from ctx.fs.open(path)
        if handle.file.size != file_bytes:
            yield from ctx.fs.close(handle)
            raise UnrecoverableCheckpointError(
                f"{path!r} has {handle.file.size} B, expected "
                f"{file_bytes} B", step=step, path=path, rank=ctx.rank)
        fields = []
        for fld, offset in zip(template.fields, offsets):
            chunk = yield from ctx.fs.read(handle, offset, fld.nbytes)
            fields.append(chunk)
        yield from ctx.fs.close(handle)
        self._span(ctx, "restore", t_r0, ctx.engine.now,
                   template.total_bytes, step=step)
        return fields

    # -- shared helpers -------------------------------------------------------
    def step_dir(self, basedir: str, step: int) -> str:
        """Directory holding one checkpoint step's files."""
        return f"{basedir}/step{step:06d}"

    def _cache(self, ctx: RankContext) -> dict:
        """Per-rank persistent state for this strategy instance."""
        key = f"ckpt:{id(self)}"
        cache = ctx.user.get(key)
        if cache is None:
            cache = {}
            ctx.user[key] = cache
        return cache

    @staticmethod
    def _span(ctx: RankContext, name: str, t_start: float, t_end: float,
              nbytes: int = 0, cat: str = "ckpt", members=None,
              **args: Any) -> None:
        """Record one sim-time span if tracing is on (else free).

        Spans never schedule engine events or touch simulation state, so
        trace ``off``/``summary``/``full`` runs stay bit-identical.
        """
        tr = ctx.job.tracer
        if tr is not None:
            tr.span(ctx.rank, name, cat, t_start, t_end, nbytes,
                    members=members, args=args or None)

    @staticmethod
    def _checkpoint_span(tracer, rank: int, role: str, t_start: float,
                         t_blocked_end: float, t_complete: float,
                         nbytes: int) -> None:
        """One rank's whole-checkpoint span of a traced run."""
        tracer.span(rank, "checkpoint", "ckpt", t_start, t_complete, nbytes,
                    args={"role": role, "blocked_until": t_blocked_end})

    @classmethod
    def _report(cls, ctx: RankContext, role: str, t_start: float,
                t_blocked_end: float, t_complete: float, nbytes: int,
                isend_seconds: float = 0.0) -> RankReport:
        """What :meth:`checkpoint` returns: the rank's span and report."""
        if ctx.job.tracer is not None:
            cls._checkpoint_span(ctx.job.tracer, ctx.rank, role, t_start,
                                 t_blocked_end, t_complete, nbytes)
        return RankReport(ctx.rank, role, t_start, t_blocked_end, t_complete,
                          nbytes, isend_seconds)

    @classmethod
    def _put_report(cls, table, tracer, step: int, rank: int, role: str,
                    t_start: float, t_blocked_end: float, t_complete: float,
                    nbytes: int) -> None:
        """:meth:`_report` for a rank replayed without a process: its span,
        and its row of the run's table instead of a report object."""
        if tracer is not None:
            cls._checkpoint_span(tracer, rank, role, t_start, t_blocked_end,
                                 t_complete, nbytes)
        table.put(step, rank, role, t_start, t_blocked_end, t_complete,
                  nbytes)


class PrivateCommit(StagedOp):
    """The commit of files one rank owns: for each ``(path, pieces)`` of the
    tuple ``files``, a create, one write per ``(offset, nbytes, payload)``
    piece and a close, each ``client``'s staged op (which absorbs its own
    transient faults).  1PFPP's file, an rbIO ``nf = ng`` writer's, a
    failover adoption's, bbIO's degraded write and a delta's manifest
    (:func:`~repro.ckpt.incremental.manifest_files`) all go through it.

    ``burst`` cuts the first file's pieces into writes of at most that many
    bytes (a piece of none takes none): a writer flushes its data file
    whenever its buffer fills, several fields per burst.  A later file — a
    manifest, one serialized blob — keeps one write per piece.
    """

    __slots__ = ("client", "files", "handle", "pieces")

    def __init__(self, client, files: tuple, burst: Optional[int] = None) -> None:
        super().__init__(PrivateCommit._create)
        if burst is not None and files:
            (path, pieces), *rest = files
            files = ((path, _bursts(pieces, burst)), *rest)
        self.client, self.files, self.handle, self.pieces = client, files, None, None

    def _create(self):
        """The next file's create, or the end (:meth:`_end`)."""
        if not self.files:
            return self._end()
        (path, self.pieces), self.files = self.files[0], self.files[1:]
        self.then = type(self)._created  # a subclass's may build the pieces
        return self.call(self.client.create_op(path))

    def _created(self):
        self.handle, self.result = self.result, None
        self.then = PrivateCommit._write
        return self._write()

    def _write(self):
        """The open file's next piece, or its close."""
        if self.pieces:
            piece, self.pieces = self.pieces[0], self.pieces[1:]
            return self.call(self.client.write_op(self.handle, *piece))
        handle, self.handle, self.pieces = self.handle, None, None
        self.then = PrivateCommit._create
        return self.call(self.client.close_op(handle))

    def _end(self):
        """After the last close: the op is done (a subclass goes on)."""
        return self.done()


def _bursts(pieces, burst: int) -> tuple:
    """``pieces`` as writes of at most ``burst`` bytes, in order."""
    return tuple((offset + pos, min(burst, nbytes - pos),
                  None if payload is None else payload[pos:pos + burst])
                 for offset, nbytes, payload in pieces
                 for pos in range(0, nbytes, burst))
