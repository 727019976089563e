"""bbIO — burst-buffer staged checkpointing (multi-level extension of rbIO).

bbIO keeps rbIO's two-phase application-level aggregation — workers Isend
their package to a dedicated writer, the writer reorders to the file-major
image — but replaces the synchronous PFS commit with a *staged* one:

1. the writer reserves capacity in its failure domain's burst buffer (the
   only point where backpressure can reach the application: the reserve
   blocks exactly when the background drain has fallen behind);
2. the file image is ingested at device speed (plus the collective-network
   link for ION-attached buffers) and registered as resident;
3. optionally the package is replicated to a partner failure domain's
   buffer over the torus;
4. the package is handed to the background drain, and workers are
   acknowledged immediately — the PFS write happens later, overlapped with
   computation.

Restart prefers the cheapest tier that still holds the checkpoint: the
local buffer, then the partner replica (zero PFS reads — the buffer/partner
paths distribute field blocks over the group communicator and never touch
the file system), then the PFS files the drain produced, which are
bit-identical to rbIO's nf=ng files.
"""

from __future__ import annotations

from typing import Optional

from ..faults import UnrecoverableCheckpointError
from ..mpi import RankContext
from ..mpiio import Hints
from ..staging import (
    StagedPackage,
    StagingConfig,
    StagingError,
    StagingService,
    attach_staging,
    staging_of,
)
from ..storage import FSError
from .data import CheckpointData
from .base import PrivateCommit
from .incremental import manifest_files, plan_delta
from .rbio import ReducedBlockingIO

__all__ = ["BurstBufferIO"]

_RESTORE_TAG = 1 << 25

#: Restore-source preference values.
_SOURCES = ("auto", "buffer", "partner", "pfs")

#: Scatter payload the restoring writer sends when the staged image turned
#: out to be corrupt after the tier decision was already broadcast: workers
#: must raise rather than hang (or worse, accept damaged bytes).
_CORRUPT = "__bbio_corrupt__"


class BurstBufferIO(ReducedBlockingIO):
    """The bbIO strategy: rbIO aggregation + asynchronous staged commit.

    Parameters
    ----------
    workers_per_writer:
        Group size, as in rbIO.
    max_outstanding:
        Worker-side flow control (packages in flight before a worker waits
        for its writer's acknowledgement).  Defaults to 2 — unlike rbIO's
        unbounded default, bbIO bounds it so buffer backpressure is
        *measurable* at the workers instead of hiding in send buffers.
    staging:
        The staging-tier configuration used when the job has no staging
        service attached yet (capacity, device/drain bandwidth,
        replication).
    restore_from:
        Restart tier preference: ``"auto"`` (buffer, then partner replica,
        then PFS), or force ``"buffer"`` / ``"partner"`` / ``"pfs"``.
        Forcing a tier that does not hold the checkpoint raises
        :class:`~repro.staging.StagingError`.
    """

    name = "bbio"

    def __init__(self, workers_per_writer: int = 64,
                 max_outstanding: Optional[int] = 2,
                 staging: Optional[StagingConfig] = None,
                 restore_from: str = "auto",
                 hints: Optional[Hints] = None) -> None:
        super().__init__(workers_per_writer=workers_per_writer,
                         single_file=False, max_outstanding=max_outstanding,
                         hints=hints)
        if restore_from not in _SOURCES:
            raise ValueError(
                f"restore_from must be one of {_SOURCES}, got {restore_from!r}"
            )
        self.staging = staging if staging is not None else StagingConfig()
        self.restore_from = restore_from

    def describe(self) -> dict:
        out = super().describe()
        out.update({
            "name": self.name,
            "placement": self.staging.placement,
            "capacity_bytes": self.staging.capacity_bytes,
            "drain_bandwidth": self.staging.drain_bandwidth,
            "replicate": self.staging.replicate,
            "restore_from": self.restore_from,
        })
        return out

    # -- staging plumbing --------------------------------------------------
    def _service(self, ctx: RankContext) -> StagingService:
        """The job's staging service, attached on first use."""
        svc = staging_of(ctx.job)
        if svc is None:
            svc = attach_staging(ctx.job, self.staging)
        return svc

    def _partner_rank(self, svc: StagingService, ctx: RankContext) -> int:
        """World rank of the writer whose buffer holds my group's replica."""
        if svc.replicator is None:
            raise StagingError("partner replication is not enabled")
        group = self.group_of(ctx.rank)
        partner = svc.replicator.partner_group(group, self.n_groups(ctx.comm.size))
        return partner * self.workers_per_writer

    # -- checkpoint --------------------------------------------------------
    #: The writer's duty window is the Darshan "stage" phase.
    _writer_phase = "stage"

    def _commit_group(self, ctx: RankContext, cache: dict,
                      data: CheckpointData, step: int, basedir: str,
                      gathered, dead):
        """Generator: stage the assembled image instead of committing it;
        degrade to the PFS if the local buffer is unusable.

        The burst buffer stages the *full* field-major image (buffer and
        partner restores scatter from it, bit-identical to delta-off); in
        incremental mode the background drain ships only the delta plan —
        ``[header][fresh chunks]`` plus the manifest.  The delta is planned
        only after the image is safely staged, and only for a complete
        group, so the degraded direct-PFS path below never plans one — a
        degraded generation is always a plain full write without a
        manifest.
        """
        layout, image, packages = gathered
        delta = (self._delta_active(data)
                 and len(packages) == cache["gcomm"].size)
        eng = ctx.engine
        svc = self._service(ctx)
        buf = svc.buffer_for(ctx.rank)
        group = self.group_of(ctx.rank)
        path = self.file_path(basedir, step, group)
        total = layout.total_size
        if not buf.lost:
            try:
                yield from buf.reserve(total)
                yield buf.write(total)
            except StagingError as exc:
                if exc.op is None:
                    raise  # usage error (oversized package...), not a fault
                # Device died under us: fall through to degradation.
            else:
                pkg = StagedPackage(eng, step, group, path, total,
                                    layout=layout, image=image)
                if delta:
                    pieces, blob = yield from plan_delta(
                        self, ctx,
                        [(m, *pkg) for m, pkg in enumerate(packages)],
                        step, data.header_bytes, span_dedup=True)
                    pkg.pfs_commits = ((path, tuple(pieces)),) + manifest_files(
                        path, blob)
                    pkg.wire_nbytes = len(blob) + sum(
                        n for _o, n, _p in pieces)
                buf.stage(pkg)
                if svc.replicator is not None:
                    partner_rank = self._partner_rank(svc, ctx)
                    try:
                        yield from svc.replicator.replicate(pkg, ctx.rank,
                                                            partner_rank)
                    except StagingError:
                        # Partner buffer unusable: the local copy and the
                        # drain's PFS copy still protect this generation.
                        inj = ctx.job.services.get("faults")
                        if inj is not None:
                            inj.log("replica_skipped", rank=ctx.rank,
                                    step=step, group=group)
                svc.drain.enqueue(ctx.rank, buf, pkg)
                return
        # Graceful degradation: local buffer lost — commit straight to the
        # PFS like rbIO so the generation is still durable.
        yield from PrivateCommit(ctx.fs, ((path, ((0, total, image),)),),
                                 self.writer_buffer).run()
        inj = ctx.job.services.get("faults")
        if inj is not None:
            inj.log("bbio_degraded", rank=ctx.rank, step=step, group=group)

    # -- restore -----------------------------------------------------------
    def _locate(self, svc: StagingService, ctx: RankContext, step: int,
                size: int):
        """Find the best available *trustworthy* copy: ``(package, tier)``.

        Copies whose checksum no longer matches (bit-rot, device loss) are
        skipped — detected corruption falls through to the next tier.  So
        are copies that lack one of the group's ``size`` members (a crashed
        worker sent nothing): the scatter has no block for it, and the PFS
        tier's size check rejects the generation for the whole group.
        """
        group = self.group_of(ctx.rank)
        want = self.restore_from
        inj = ctx.job.services.get("faults")
        if want in ("auto", "buffer"):
            buf = svc.buffer_for(ctx.rank)
            pkg = None if buf.lost else buf.resident.get((step, group))
            if pkg is not None and pkg.layout.n_members == size:
                if pkg.verify():
                    return pkg, "buffer"
                if inj is not None:
                    inj.log("corruption_detected", tier="buffer", group=group,
                            step=step, rank=ctx.rank)
            if want == "buffer":
                raise StagingError(
                    f"step {step} group {group} is not intact in the buffer"
                )
        if want in ("auto", "partner"):
            if svc.replicator is not None:
                partner_rank = self._partner_rank(svc, ctx)
                pbuf = svc.buffer_for(partner_rank)
                pkg = (None if pbuf.lost
                       else svc.replicator.find_replica(partner_rank, group,
                                                        step))
                if pkg is not None and pkg.layout.n_members == size:
                    if pkg.verify():
                        return pkg, "partner"
                    if inj is not None:
                        inj.log("corruption_detected", tier="partner",
                                group=group, step=step, rank=ctx.rank)
            if want == "partner":
                raise StagingError(
                    f"no intact partner replica of step {step} group {group}"
                )
        return None, "pfs"

    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: restore from the cheapest tier holding the checkpoint.

        The group's writer picks the tier and broadcasts the decision; for
        the buffer/partner tiers it reads the staged image and scatters
        each member's field blocks over the group communicator — no file
        system involvement at all.
        """
        t_r0 = ctx.engine.now
        cache = yield from self._setup(ctx)
        gcomm = cache["gcomm"]
        if not cache["am_writer"]:
            tier = yield from gcomm.bcast(root=0, nbytes=8)
            if tier == "fail":
                # Only a forced tier (restore_from="buffer"/"partner") can
                # fail to serve; "auto" always falls through to the PFS.
                if self.restore_from != "auto":
                    raise StagingError(
                        f"step {step} group {self.group_of(ctx.rank)} is "
                        f"not intact in the {self.restore_from} tier")
                raise UnrecoverableCheckpointError(
                    f"no tier can serve step {step} for group "
                    f"{self.group_of(ctx.rank)}", step=step, rank=ctx.rank)
            if tier == "pfs":
                return (yield from super().restore(ctx, template, step,
                                                   basedir))
            msg = yield from gcomm.recv(source=0, tag=_RESTORE_TAG)
            if msg.payload == _CORRUPT:
                raise UnrecoverableCheckpointError(
                    f"staged image of step {step} failed its checksum",
                    step=step, rank=ctx.rank)
            self._span(ctx, "restore", t_r0, ctx.engine.now,
                       template.total_bytes, step=step, tier=tier)
            if msg.payload is None:
                return [None] * template.n_fields
            return list(msg.payload)

        svc = self._service(ctx)
        group = self.group_of(ctx.rank)
        pkg = None
        try:
            pkg, tier = self._locate(svc, ctx, step, gcomm.size)
            if tier == "pfs":
                # The PFS copy is only durable once the background drain has
                # committed it; if our package is still in flight, wait it
                # out.  An aborted drain leaves a missing/partial file the
                # PFS restore path then rejects — consistently for every
                # member of the group.
                pending = svc.buffer_for(ctx.rank).resident.get((step, group))
                if pending is not None and not pending.is_drained:
                    try:
                        yield pending.drained
                    except (StagingError, FSError):
                        pass
        except StagingError as exc:
            # A forced tier (restore_from="buffer"/"partner") has nothing
            # intact to serve: broadcast the failure so nobody hangs.
            tier = "fail"
            forced_exc = exc
        yield from gcomm.bcast(tier, root=0, nbytes=8)
        if tier == "fail":
            raise forced_exc
        if tier == "pfs":
            return (yield from super().restore(ctx, template, step, basedir))

        # Pull the staged image back to the writer's memory.  The tier was
        # already broadcast, so device failures here must not raise before
        # the workers' scatter messages are sent — note them and tell the
        # whole group.
        intact = True
        try:
            if tier == "buffer":
                yield svc.buffer_for(ctx.rank).read(pkg.nbytes)
            else:
                partner_rank = self._partner_rank(svc, ctx)
                yield svc.buffer_for(partner_rank).read(pkg.nbytes)
                yield ctx.job.fabric.transfer(partner_rank, ctx.rank,
                                              pkg.nbytes)
        except StagingError:
            intact = False
        # Re-verify after the read: corruption that landed between the
        # tier decision and now must not be scattered as good data.
        if intact and not pkg.verify():
            intact = False

        # Scatter members' field blocks; slice straight out of the image.
        layout, image = pkg.layout, pkg.image

        def member_blocks(m: int):
            if image is None:
                return None
            return tuple(
                image[layout.block_offset(f, m):
                      layout.block_offset(f, m) + layout.block_size(f, m)]
                for f in range(layout.n_fields)
            )

        for m in range(1, gcomm.size):
            nbytes = sum(layout.block_size(f, m)
                         for f in range(layout.n_fields))
            gcomm.isend(m, nbytes, tag=_RESTORE_TAG,
                        payload=member_blocks(m) if intact else _CORRUPT)
        if not intact:
            raise UnrecoverableCheckpointError(
                f"staged image of step {step} failed its checksum",
                step=step, path=pkg.path, rank=ctx.rank)
        own = member_blocks(0)
        self._span(ctx, "restore", t_r0, ctx.engine.now,
                   template.total_bytes, step=step, tier=tier)
        if own is None:
            return [None] * template.n_fields
        return list(own)
