"""Background drain: trickle staged checkpoints from the buffer to the PFS.

One drain process runs per writer rank (started lazily at its first staged
package).  Each process pulls packages off its queue in staging order and
commits them to the parallel file system through the writer's own
:class:`~repro.storage.FSClient`, in ``drain_chunk`` bursts:

- below the configured ``high_watermark`` the process paces itself to the
  ``drain_bandwidth`` target, leaving PFS headroom for everything else the
  machine is doing (the "trickle" of aggregated asynchronous
  checkpointing);
- above the watermark it drains flat out until the buffer is safe again.

When a package's last burst is durably on the PFS the drain frees the
package's buffer reservation — which is what unparks writers waiting in
:meth:`~repro.staging.buffer.BurstBuffer.reserve` — and records the drain
window with the profiler (op name ``app:drain``), giving the Fig. 12-style
drain-activity timeline.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..buffers import crc32_of
from ..sim import Engine, Event, IntervalRecorder, Store
from .buffer import BurstBuffer, StagingConfig, StagingError

__all__ = ["StagedPackage", "DrainScheduler"]


class StagedPackage:
    """One group's aggregated checkpoint, resident in a burst buffer.

    ``nbytes`` is the full file-image size (header + field-major data), the
    amount reserved in the buffer and later written to the PFS.  ``image``
    carries real data at payload scale — a zero-copy
    :class:`~repro.buffers.ByteRope` sharing the worker packages' segments
    — and is ``None`` in size-only runs.  ``layout`` (a
    :class:`~repro.ckpt.FileLayout`) lets the restore path slice any
    member's blocks straight out of the image.

    A CRC of the image is taken at staging time, computed incrementally
    over the rope's segments (no materialization); :meth:`verify` re-checks
    it before any consumer (drain, restore) trusts the resident bytes.  In
    size-only runs corruption is modelled by the ``corrupt`` flag alone.
    """

    __slots__ = ("step", "group", "path", "nbytes", "layout", "image",
                 "staged_at", "drained", "checksum", "corrupt",
                 "pfs_commits", "wire_nbytes")

    def __init__(self, engine: Engine, step: int, group: int, path: str,
                 nbytes: int, layout: Any = None,
                 image: Optional[Any] = None) -> None:
        if nbytes < 0:
            raise ValueError(f"negative package size: {nbytes}")
        self.step = step
        self.group = group
        self.path = path
        self.nbytes = int(nbytes)
        self.layout = layout
        self.image = image
        self.staged_at = engine.now
        #: Incremental checkpointing: explicit drain-time PFS commits
        #: ``((path, ((offset, nbytes, rope), ...)), ...)`` replacing the
        #: default single full-image write of ``path`` (delta data file +
        #: manifest).  ``None`` means the classic full write.
        self.pfs_commits: Optional[tuple] = None
        #: Bytes this package actually moves over wires (drain + partner
        #: replication) when ``pfs_commits`` is set; ``None`` means
        #: ``nbytes`` (no dedup).
        self.wire_nbytes: Optional[int] = None
        #: Triggers when the package is durably on the PFS.
        self.drained: Event = Event(engine)
        #: CRC32 of ``image`` at staging time (``None`` in size-only runs).
        self.checksum: Optional[int] = (
            crc32_of(image) if image is not None else None
        )
        #: Set by fault injection (bit-rot, device loss).
        self.corrupt = False

    def verify(self) -> bool:
        """Whether the package's bytes can still be trusted."""
        if self.corrupt:
            return False
        if self.image is not None and self.checksum is not None:
            return crc32_of(self.image) == self.checksum
        return True

    @property
    def is_drained(self) -> bool:
        """Whether the PFS commit has completed."""
        return self.drained.triggered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "drained" if self.is_drained else "staged"
        return f"<StagedPackage step={self.step} g={self.group} {self.nbytes}B {state}>"


class DrainScheduler:
    """Writer-side background drain processes for one job.

    Parameters
    ----------
    engine:
        The job's simulation engine.
    fs_client_of:
        ``rank -> FSClient`` accessor (the drain commits through the
        writer's own file-system client, so ION routing and stream
        accounting stay faithful).
    config:
        The staging configuration (chunking, trickle rate, watermark).
    profiler:
        Optional :class:`~repro.profiling.DarshanProfiler`; drain windows
        are recorded as ``app:drain`` phases.
    """

    def __init__(self, engine: Engine, fs_client_of: Callable[[int], Any],
                 config: StagingConfig, profiler: Any = None) -> None:
        self.engine = engine
        self.fs_client_of = fs_client_of
        self.config = config
        self.profiler = profiler
        self._queues: dict[int, Store] = {}
        self.intervals = IntervalRecorder("drain")
        self.packages_drained = 0
        self.bytes_drained = 0
        self.packages_aborted = 0
        self.last_drain_end = 0.0

    @property
    def backlog(self) -> int:
        """Packages staged but not yet picked up by a drain process."""
        return sum(len(q) for q in self._queues.values())

    def enqueue(self, writer_rank: int, buffer: BurstBuffer,
                pkg: StagedPackage) -> StagedPackage:
        """Hand a staged package to ``writer_rank``'s background drain."""
        queue = self._queues.get(writer_rank)
        if queue is None:
            queue = Store(self.engine)
            self._queues[writer_rank] = queue
            self.engine.process(
                self._drain_loop(writer_rank, queue), name=f"drain{writer_rank}"
            )
        queue.put((buffer, pkg))
        return pkg

    # -- the background process -------------------------------------------
    def _drain_loop(self, rank: int, queue: Store):
        """Generator: drain packages for one writer rank, forever.

        The process parks on an empty queue between checkpoint bursts; a
        parked process holds no pending timer, so it never keeps the
        simulation alive.
        """
        from ..storage import FSError

        cfg = self.config
        eng = self.engine
        fsc = self.fs_client_of(rank)
        while True:
            buffer, pkg = yield queue.get()
            t0 = eng.now
            handle = None
            try:
                # Trust nothing that sat in the buffer: a lost device or a
                # rotted package must not propagate to the PFS as a
                # plausible-looking checkpoint file.
                if buffer.lost or not pkg.verify():
                    raise StagingError(
                        f"package {pkg.path!r} unreadable before drain",
                        op="drain", path=pkg.path, time=eng.now)
                # Incremental packages carry an explicit commit list (delta
                # data file + manifest); classic packages commit the one
                # full image at offset 0.
                commits = pkg.pfs_commits
                if commits is None:
                    commits = ((pkg.path, ((0, pkg.nbytes, pkg.image),)),)
                committed = 0
                for path, pieces in commits:
                    handle = yield from fsc.create(path)
                    for base, nbytes, image in pieces:
                        pos = 0
                        while pos < nbytes:
                            # Re-check every burst: bit-rot landing
                            # mid-drain must abort with a short
                            # (rejectable) file, never complete a full-size
                            # file holding corrupt bytes.
                            if buffer.lost or not pkg.verify():
                                raise StagingError(
                                    f"package {pkg.path!r} rotted during "
                                    f"drain",
                                    op="drain", path=pkg.path, time=eng.now)
                            burst = min(cfg.drain_chunk, nbytes - pos)
                            t_burst = eng.now
                            # Read the burst off the staging device, then
                            # push it to the PFS; the device read contends
                            # with ingest by design.
                            yield buffer.read(burst, via_link=False)
                            chunk = None
                            if image is not None:
                                chunk = image[pos : pos + burst]
                            yield from fsc.write(handle, base + pos, burst,
                                                 payload=chunk)
                            pos += burst
                            committed += burst
                            if (cfg.drain_bandwidth is not None
                                    and (cfg.high_watermark is None
                                         or buffer.fill_fraction
                                         < cfg.high_watermark)):
                                # Trickle pacing: stretch this burst to the
                                # target rate.
                                target = burst / cfg.drain_bandwidth
                                elapsed = eng.now - t_burst
                                if elapsed < target:
                                    yield eng.timeout(target - elapsed)
                    yield from fsc.close(handle)
                    handle = None
            except (FSError, StagingError) as exc:
                # Abort this package: leave the partial PFS file (size
                # validation rejects it on restore), release the buffer,
                # and fail the drained event so waiters learn the truth.
                if handle is not None and not handle.closed:
                    try:
                        yield from fsc.close(handle)
                    except (FSError, StagingError):
                        pass
                buffer.unstage(pkg)
                if not buffer.lost:
                    buffer.free(pkg.nbytes)
                self.packages_aborted += 1
                if not pkg.drained.triggered:
                    pkg.drained.fail(StagingError(
                        f"drain of {pkg.path!r} aborted: {exc}",
                        op="drain", path=pkg.path, time=eng.now))
                continue
            buffer.unstage(pkg)
            if not buffer.lost:
                buffer.free(pkg.nbytes)
            t1 = eng.now
            self.intervals.record(t0, t1, rank)
            self.packages_drained += 1
            self.bytes_drained += committed
            if t1 > self.last_drain_end:
                self.last_drain_end = t1
            if self.profiler is not None:
                self.profiler.record_phase(rank, "drain", t0, t1, committed)
            pkg.drained.succeed()

    def stats(self) -> dict:
        """Drain counters (diagnostics / benches)."""
        return {
            "packages_drained": self.packages_drained,
            "bytes_drained": self.bytes_drained,
            "packages_aborted": self.packages_aborted,
            "backlog": self.backlog,
            "last_drain_end": self.last_drain_end,
        }
