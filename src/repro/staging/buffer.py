"""Burst-buffer tier model: finite fast storage between ranks and the PFS.

A :class:`BurstBuffer` is one staging device — an SSD/NVRAM module attached
either to a writer's compute node or to its pset's I/O node — modelled with
the same :class:`~repro.sim.Pipe` primitives as the rest of the machine:

- **ingest** moves a staged checkpoint package onto the device at device
  bandwidth (ION-attached buffers additionally cross the pset's collective
  network link, and both stages pipeline like every other composite
  transport in the simulator);
- **capacity** is finite: :meth:`reserve` admits a package only when it
  fits, queueing writers FIFO otherwise.  This is the staging analogue of
  the paper's lambda — compute ranks only ever block when the buffer is
  full and the background drain cannot free space fast enough;
- **drain and restore reads** share the same device pipe as ingest, so a
  busy drain slows staging exactly as a real shared device would.

Capacity accounting is by *bytes reserved*, not bytes resident: a package
occupies its reservation from admission until the drain (or an eviction)
calls :meth:`free`.

Device ``read``/``write`` model *time* only; the staged payload itself is
a :class:`~repro.buffers.ByteRope` held by the resident
:class:`~repro.staging.drain.StagedPackage`, sharing the worker packages'
segments — staging a checkpoint copies no host bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim import Engine, Event, Pipe, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .drain import StagedPackage

__all__ = ["StagingConfig", "BurstBuffer", "StagingError"]


class StagingError(RuntimeError):
    """Raised on invalid staging usage or a failed/lost staging tier.

    Mirrors :class:`~repro.storage.FSError`'s context: the failing
    operation, path and simulated timestamp.
    """

    def __init__(self, message: str, *, op: Optional[str] = None,
                 path: Optional[str] = None,
                 time: Optional[float] = None) -> None:
        super().__init__(message)
        self.op = op
        self.path = path
        self.time = time


@dataclass(frozen=True)
class StagingConfig:
    """Tunables of the staging tier (one config per job).

    Parameters
    ----------
    placement:
        ``"ion"`` — one buffer per pset, shared by that pset's writers and
        reached over the collective network (DataWarp-style); ``"node"`` —
        a private buffer on each writer's compute node (local NVMe).
    capacity_bytes:
        Usable capacity of one buffer device.
    device_bandwidth:
        Sequential device bandwidth (shared by ingest, drain, and restore
        reads).
    drain_bandwidth:
        Target background trickle rate toward the PFS.  ``None`` drains as
        fast as the PFS accepts.  The cap is lifted whenever occupancy is
        above ``high_watermark`` (emergency drain).
    drain_chunk:
        Bytes per PFS write burst issued by the drain process.
    high_watermark:
        Occupancy fraction above which the drain ignores ``drain_bandwidth``
        and goes flat out.  ``None`` makes the trickle cap *hard* (no
        emergency override) — useful when sweeping ``drain_bandwidth`` as
        an experimental knob.
    replicate:
        Copy every staged package to a partner failure domain's buffer
        (enables restart with zero PFS reads).  Size ``capacity_bytes``
        for residents *plus* replicas (roughly twice a step's volume): a
        replica reservation can only be freed by drains of earlier
        packages, never by the step currently being staged.
    replica_shift:
        Distance (in writer groups) to the replication partner.
    """

    placement: str = "ion"
    capacity_bytes: int = 4 * 1024**3
    device_bandwidth: float = 1.5e9
    drain_bandwidth: Optional[float] = None
    drain_chunk: int = 16 * 1024 * 1024
    high_watermark: Optional[float] = 0.75
    replicate: bool = False
    replica_shift: int = 1

    def __post_init__(self) -> None:
        if self.placement not in ("ion", "node"):
            raise ValueError(f"placement must be 'ion' or 'node', got {self.placement!r}")
        if self.capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        if self.device_bandwidth <= 0:
            raise ValueError("device_bandwidth must be positive")
        if self.drain_bandwidth is not None and self.drain_bandwidth <= 0:
            raise ValueError("drain_bandwidth must be positive or None")
        if self.drain_chunk < 1:
            raise ValueError("drain_chunk must be >= 1")
        if self.high_watermark is not None and not 0.0 < self.high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1] or None")
        if self.replica_shift < 1:
            raise ValueError("replica_shift must be >= 1")


class BurstBuffer:
    """One staging device with finite capacity and a shared data pipe.

    ``link`` is the optional network stage in front of the device (the
    pset's collective link for ION-attached placement); node-local buffers
    have none.
    """

    def __init__(self, engine: Engine, name: str, capacity_bytes: int,
                 device_bandwidth: float, link: Optional[Pipe] = None) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self.engine = engine
        self.name = name
        self.capacity = int(capacity_bytes)
        self.device = Pipe(engine, device_bandwidth)
        self.link = link
        self.used = 0
        self.peak_used = 0
        self._waiters: deque[tuple[int, Event]] = deque()
        #: Resident staged packages keyed by ``(step, group)``.
        self.resident: dict[tuple[int, int], "StagedPackage"] = {}
        #: Partner replicas held on behalf of other groups, keyed by group.
        self.replicas: dict[int, "StagedPackage"] = {}
        self.occupancy = TimeSeries(f"{name}.occupancy")
        self.stall_seconds = 0.0
        self.stalls = 0
        #: Set by fault injection: the device failed and lost its contents.
        self.lost = False

    # -- capacity ----------------------------------------------------------
    @property
    def fill_fraction(self) -> float:
        """Reserved fraction of capacity."""
        return self.used / self.capacity

    def _admit(self, nbytes: int) -> None:
        self.used += nbytes
        if self.used > self.peak_used:
            self.peak_used = self.used
        self.occupancy.record(self.engine.now, self.used)

    def reserve(self, nbytes: int):
        """Generator: block (FIFO) until ``nbytes`` of capacity is reserved.

        This is the staging subsystem's single backpressure point: a writer
        parked here cannot acknowledge its workers, which is what finally
        stalls computation when the drain falls behind.
        """
        nbytes = int(nbytes)
        if self.lost:
            raise StagingError(f"buffer {self.name} lost", op="reserve",
                               path=self.name, time=self.engine.now)
        if nbytes < 0:
            raise StagingError(f"negative reservation: {nbytes}")
        if nbytes > self.capacity:
            raise StagingError(
                f"package of {nbytes} B exceeds buffer capacity "
                f"{self.capacity} B ({self.name})"
            )
        if not self._waiters and self.used + nbytes <= self.capacity:
            self._admit(nbytes)
            return
        ev = Event(self.engine)
        self._waiters.append((nbytes, ev))
        self.stalls += 1
        t0 = self.engine.now
        yield ev
        self.stall_seconds += self.engine.now - t0

    def free(self, nbytes: int) -> None:
        """Return ``nbytes`` of capacity, admitting queued writers in order."""
        nbytes = int(nbytes)
        if nbytes < 0 or nbytes > self.used:
            raise StagingError(
                f"bad free of {nbytes} B with {self.used} B reserved ({self.name})"
            )
        self.used -= nbytes
        self.occupancy.record(self.engine.now, self.used)
        while self._waiters and self.used + self._waiters[0][0] <= self.capacity:
            want, ev = self._waiters.popleft()
            self._admit(want)
            ev.succeed()

    @property
    def queue_length(self) -> int:
        """Writers currently parked in :meth:`reserve`."""
        return len(self._waiters)

    # -- data movement -----------------------------------------------------
    def _move(self, nbytes: int, via_link: bool) -> Event:
        t_dev = self.device.reserve(nbytes)
        if via_link and self.link is not None:
            t_link = self.link.reserve(nbytes)
            if t_link > t_dev:
                t_dev = t_link
        return self.engine.timeout(t_dev - self.engine.now)

    def write(self, nbytes: int) -> Event:
        """Event: ``nbytes`` ingested onto the device (link + device pipes)."""
        if self.lost:
            raise StagingError(f"buffer {self.name} lost", op="write",
                               path=self.name, time=self.engine.now)
        if nbytes < 0:
            raise StagingError(f"negative write size: {nbytes}")
        return self._move(nbytes, via_link=True)

    def read(self, nbytes: int, via_link: bool = True) -> Event:
        """Event: ``nbytes`` read back off the device.

        Restore reads cross the link back to a compute node
        (``via_link=True``); the background drain runs *at* the device's
        host and reads locally (``via_link=False``) — its traffic to the
        PFS is charged by the file-system client instead.
        """
        if self.lost:
            raise StagingError(f"buffer {self.name} lost", op="read",
                               path=self.name, time=self.engine.now)
        if nbytes < 0:
            raise StagingError(f"negative read size: {nbytes}")
        return self._move(nbytes, via_link=via_link)

    def mark_lost(self) -> int:
        """Fail the device, losing all contents; returns packages lost.

        Every resident package and replica is marked corrupt (so a restore
        path that still holds a reference detects the loss), residency is
        cleared, and writers parked in :meth:`reserve` get a
        :class:`StagingError` thrown into them so nothing hangs on a dead
        device.
        """
        self.lost = True
        n = len(self.resident) + len(self.replicas)
        for pkg in self.resident.values():
            pkg.corrupt = True
        for pkg in self.replicas.values():
            pkg.corrupt = True
        self.resident.clear()
        self.replicas.clear()
        while self._waiters:
            _, ev = self._waiters.popleft()
            ev.fail(StagingError(f"buffer {self.name} lost", op="reserve",
                                 path=self.name, time=self.engine.now))
        return n

    # -- residency ---------------------------------------------------------
    def stage(self, pkg: "StagedPackage") -> None:
        """Register a package as resident (restorable from this buffer)."""
        self.resident[(pkg.step, pkg.group)] = pkg

    def unstage(self, pkg: "StagedPackage") -> None:
        """Drop residency after the drain committed the package to the PFS."""
        self.resident.pop((pkg.step, pkg.group), None)

    def stats(self) -> dict:
        """Occupancy and stall counters (diagnostics / benches)."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "used": self.used,
            "peak_used": self.peak_used,
            "resident": len(self.resident),
            "replicas": len(self.replicas),
            "stalls": self.stalls,
            "stall_seconds": self.stall_seconds,
            "bytes_moved": self.device.bytes_moved,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BurstBuffer {self.name} {self.used}/{self.capacity}B "
            f"q={len(self._waiters)}>"
        )
