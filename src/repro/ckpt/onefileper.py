"""1 POSIX File Per Processor (1PFPP) — the traditional baseline.

Every rank creates its own output file (``nf = np``) in the step's shared
directory and streams its header plus fields into it.  The approach is
portable and simple but collapses at scale: tens of thousands of
simultaneous creates in one directory serialize through the directory
metanode, producing the 0-300+ s per-rank spread of Fig. 9 and the ~0.1 GB/s
effective bandwidth of Fig. 5.

A small random arrival jitter models the skew with which ranks actually hit
the metadata service (cache state, interrupt timing); it randomizes queue
order so the per-rank time distribution forms the paper's scatter cloud
rather than an artificial rank-ordered ramp.
"""

from __future__ import annotations

from ..buffers import ByteRope, zeros
from ..faults import UnrecoverableCheckpointError
from ..faults.retry import retry_fs
from ..mpi import RankContext
from .base import CheckpointStrategy
from .data import CheckpointData

__all__ = ["OneFilePerProcess"]


class OneFilePerProcess(CheckpointStrategy):
    """The 1PFPP strategy (``nf = np``).

    Parameters
    ----------
    arrival_jitter:
        Upper bound (seconds) of the uniform per-rank delay before hitting
        the metadata service.
    """

    name = "1pfpp"

    def __init__(self, arrival_jitter: float = 0.2) -> None:
        if arrival_jitter < 0:
            raise ValueError("negative jitter")
        self.arrival_jitter = arrival_jitter

    def describe(self) -> dict:
        return {"name": self.name, "nf": "np", "arrival_jitter": self.arrival_jitter}

    def rank_path(self, basedir: str, step: int, rank: int) -> str:
        """This rank's private output file (all in one directory)."""
        return f"{self.step_dir(basedir, step)}/p{rank:06d}.vtk"

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: create own file, stream header + fields, close."""
        eng = ctx.engine
        t0 = eng.now
        if self.arrival_jitter > 0:
            rng = ctx.job.streams.stream("ckpt.jitter")
            yield eng.timeout(float(rng.random()) * self.arrival_jitter)
        path = self.rank_path(basedir, step, ctx.rank)
        if self._delta_active(data):
            return (yield from self._checkpoint_delta(ctx, data, step, path,
                                                      t0))
        handle = yield from retry_fs(eng, lambda: ctx.fs.create(path),
                                     tracer=ctx.job.tracer)
        # POSIX stream write: header and fields leave the node as one
        # buffered sequential burst.
        total = data.header_bytes + data.total_bytes
        payload = None
        if data.has_payload:
            payload = ByteRope.concat(
                [zeros(data.header_bytes), data.concatenated_payload()])
        yield from retry_fs(
            eng, lambda: ctx.fs.write(handle, 0, total, payload=payload),
            tracer=ctx.job.tracer)
        yield from ctx.fs.close(handle)
        t_end = eng.now
        return self._report(ctx, "independent", t0, t_end, t_end, data.total_bytes)

    def _checkpoint_delta(self, ctx: RankContext, data: CheckpointData,
                          step: int, path: str, t0: float):
        """Generator: write only chunks absent from the parent generation.

        The file holds ``[header][fresh chunks, packed]``; the manifest
        written alongside maps every logical chunk to the generation and
        offset that holds its bytes.
        """
        from .incremental import (Manifest, plan_section, shift_fresh,
                                  write_manifest)

        eng = ctx.engine
        cache = self._cache(ctx)
        parent = cache.get("delta_parent")  # (step, shifted section) | None
        plan = plan_section(
            data.concatenated_payload(), data.field_sizes, member=0,
            step=step, params=self.chunking,
            parent_section=parent[1] if parent else None)
        # Chunking + hashing is one pass over the image.
        t_c0 = eng.now
        yield eng.timeout(data.total_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "chunk", t_c0, eng.now, data.total_bytes,
                   cat="phase", step=step)
        section = shift_fresh(plan.section, step, data.header_bytes)
        manifest = Manifest(
            strategy=self.name, step=step,
            parent=parent[0] if parent else None,
            header_bytes=data.header_bytes, chunking=self.chunking,
            sections=(section,))
        handle = yield from retry_fs(eng, lambda: ctx.fs.create(path),
                                     tracer=ctx.job.tracer)
        total = data.header_bytes + plan.fresh_bytes
        payload = ByteRope.concat([zeros(data.header_bytes), plan.fresh])
        yield from retry_fs(
            eng, lambda: ctx.fs.write(handle, 0, total, payload=payload),
            tracer=ctx.job.tracer)
        yield from ctx.fs.close(handle)
        manifest_bytes = yield from write_manifest(ctx, manifest, path)
        cache["delta_parent"] = (step, section)
        ctx.job.stats.record_commit(data.total_bytes, total + manifest_bytes,
                                    plan.hits, plan.misses)
        t_end = eng.now
        return self._report(ctx, "independent", t0, t_end, t_end,
                            data.total_bytes)

    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: read this rank's fields back from its private file."""
        path = self.rank_path(basedir, step, ctx.rank)
        t_r0 = ctx.engine.now
        if self.delta != "off":
            from .incremental import manifest_exists
            if manifest_exists(ctx, path):
                fields = yield from self._delta_restore(
                    ctx, template, step, member=0,
                    path_of=lambda s: self.rank_path(basedir, s, ctx.rank))
                self._span(ctx, "restore", t_r0, ctx.engine.now,
                           template.total_bytes, step=step, delta=True)
                return fields
        handle = yield from ctx.fs.open(path)
        expected = template.header_bytes + template.total_bytes
        if handle.file.size != expected:
            # Truncated/partial file (e.g. an aborted write): refuse it so
            # the resilient restore falls back to an older generation.
            yield from ctx.fs.close(handle)
            raise UnrecoverableCheckpointError(
                f"{path!r} has {handle.file.size} B, expected {expected} B",
                step=step, path=path, rank=ctx.rank)
        fields = []
        offset = template.header_bytes
        for f in template.fields:
            chunk = yield from ctx.fs.read(handle, offset, f.nbytes)
            fields.append(chunk)
            offset += f.nbytes
        yield from ctx.fs.close(handle)
        self._span(ctx, "restore", t_r0, ctx.engine.now,
                   template.total_bytes, step=step)
        return fields
