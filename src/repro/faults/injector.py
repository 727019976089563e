"""Schedule-driven fault injector hooking storage, network, ranks, staging.

:func:`attach_faults` builds a :class:`FaultInjector` from a
:class:`~repro.faults.FaultSchedule` and wires it into an assembled
:class:`~repro.mpi.Job`:

* **storage** — every :class:`~repro.storage.FSClient` operation consults
  :meth:`FaultInjector.before_fs_op` first (via ``fs.injector``), which can
  stall the op or raise a contextual :class:`~repro.storage.FSError` (a
  write-side call retries a transient one itself);
* **network** — :meth:`FaultInjector.net_adjust` stretches
  :class:`~repro.network.Fabric` transfer completion inside a degradation
  window (via ``fabric.injector``);
* **ranks** — :meth:`FaultInjector.crash_time` / :meth:`dead_at` form a
  deterministic failure-detector oracle the checkpoint runner and the
  rbIO failover consult at step boundaries; :attr:`restarts` holds the
  steps a ``restart`` still rolls every rank back before;
* **staging** — buffer loss / bit-rot / replica corruption fire as
  absolute-time engine callbacks against ``job.services["staging"]``.

The zero-cost contract: when no schedule is attached, ``fs.injector`` and
``fabric.injector`` stay ``None`` and the hot paths skip the hook with one
``is not None`` test — no extra events, no RNG draws, bit-identical
timing.  All injector decisions are functions of the (seeded) schedule and
simulated time, never of wall-clock state, so faulted runs replay exactly.
"""

from __future__ import annotations

from typing import Any, Optional

from ..storage import FSError
from .schedule import FS_KINDS, NET_KINDS, TIMER_KINDS, FaultSchedule

__all__ = ["FaultInjector", "attach_faults", "faults_of"]


class FaultInjector:
    """Executes one :class:`FaultSchedule` against a running job."""

    def __init__(self, job: Any, schedule: FaultSchedule) -> None:
        self.job = job
        self.engine = job.engine
        self.schedule = schedule
        #: Chronological record of every fault actually delivered.
        self.injected: list[dict] = []
        self._crash: dict[int, float] = {}  # each rank's earliest crash
        for spec in schedule.by_kind("rank_crash"):
            self._crash[spec.rank] = min(spec.time,
                                         self._crash.get(spec.rank, spec.time))
        # [spec, remaining_count] and [spec, already_logged]
        self._fs_state = [[s, s.count] for s in schedule.by_kind(*FS_KINDS)]
        self._net = [[s, False] for s in schedule.by_kind(*NET_KINDS)]
        self._timer_specs = schedule.by_kind(*TIMER_KINDS)
        #: Steps a pending ``restart`` fires before (the runner discards one
        #: once every rank has entered its restore wave).
        self.restarts = {s.step for s in schedule.by_kind("restart")}
        self.has_rank_faults = bool(self._crash)
        self.has_fs_faults = bool(self._fs_state)
        self.has_net_faults = bool(self._net)

    # -- bookkeeping ---------------------------------------------------------
    def log(self, kind: str, **detail: Any) -> None:
        """Record one delivered fault (deterministic, comparable)."""
        self.injected.append({"kind": kind, "time": self.engine.now, **detail})
        tr = self.job.tracer
        if tr is not None:
            # Faults (including writer failovers) surface as instant
            # events on the trace timeline, annotated with the same
            # detail dict the fault report carries.
            tr.instant(kind, "fault", self.engine.now,
                       rank=detail.get("rank", detail.get("adopter", -1)),
                       args={k: v for k, v in detail.items()
                             if isinstance(v, (int, float, str, bool))})

    def report(self) -> dict:
        """Summary of what was actually injected (for tests and benches)."""
        counts: dict[str, int] = {}
        for entry in self.injected:
            counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
        return {
            "scheduled": len(self.schedule),
            "injected": len(self.injected),
            "by_kind": counts,
            "log": list(self.injected),
        }

    # -- rank-crash oracle ---------------------------------------------------
    def crash_time(self, rank: int) -> Optional[float]:
        """Simulated time at which ``rank`` dies, or ``None``."""
        return self._crash.get(rank)

    def dead_at(self, rank: int, now: float) -> bool:
        """Whether ``rank`` is dead at simulated time ``now``.

        Every rank evaluates this locally from the shared schedule — a
        perfect, deterministic failure detector (no detection latency).
        """
        t = self._crash.get(rank)
        return t is not None and now >= t

    def dead_ranks(self, now: float) -> tuple[int, ...]:
        """Sorted tuple of all ranks dead at ``now``."""
        return tuple(sorted(r for r, t in self._crash.items() if now >= t))

    # -- storage hook --------------------------------------------------------
    def before_fs_op(self, rank: int, op: str, path: str):
        """First stage of every FS operation: its stall event, or ``None``.

        Applies at most one matching armed fault: a stall is returned as
        the timeout the caller must wait for, an error raises a contextual
        transient/fatal :class:`FSError` *before* the operation mutates
        any state (so a retried call re-runs cleanly).
        """
        now = self.engine.now
        for state in self._fs_state:
            spec, remaining = state
            if remaining <= 0 or now < spec.time:
                continue
            if spec.rank is not None and spec.rank != rank:
                continue
            if spec.op is not None and spec.op != op:
                continue
            if spec.path is not None and spec.path != path:
                continue
            state[1] = remaining - 1
            if spec.kind == "fs_stall":
                self.log("fs_stall", rank=rank, op=op, path=path,
                         delay=spec.delay)
                return self.engine.timeout(spec.delay)
            self.log("fs_error", rank=rank, op=op, path=path,
                     transient=spec.transient)
            raise FSError(
                f"injected {'transient' if spec.transient else 'fatal'} "
                f"{op} error on {path!r}",
                op=op, path=path, time=now, transient=spec.transient,
            )
        return None

    # -- network hook --------------------------------------------------------
    def net_adjust(self, now: float, src: int, dst: int, done: float) -> float:
        """Adjust a fabric transfer's completion time ``done``.

        Degradation stretches the remaining transfer by ``factor`` inside
        the fault window; drops surface as ``delay`` of link-level
        retransmission (BG/P torus links are reliable — packets are never
        lost, only late).
        """
        for state in self._net:
            spec, logged = state
            end = spec.time + spec.duration if spec.duration > 0 else float("inf")
            if not (spec.time <= now < end):
                continue
            if spec.rank is not None and spec.rank not in (src, dst):
                continue
            if spec.kind == "net_degrade":
                done = now + (done - now) * spec.factor
            else:  # net_drop
                done += spec.delay
            if not logged:
                state[1] = True
                self.log(spec.kind, src=src, dst=dst, factor=spec.factor,
                         delay=spec.delay)
        return done

    # -- staging / fs-slow timers --------------------------------------------
    def arm_timers(self) -> None:
        """Schedule absolute-time faults as engine callbacks.

        Targets (the staging service, the FS instance) are looked up at
        *fire* time, so attachment order relative to ``attach_storage`` /
        ``attach_staging`` does not matter.
        """
        eng = self.engine
        for spec in self._timer_specs:
            delay = max(0.0, spec.time - eng.now)
            eng.timeout(delay).add_callback(
                lambda _ev, spec=spec: self._fire_timer(spec))

    def _fire_timer(self, spec) -> None:
        if spec.kind == "fs_slow":
            fs = self.job.services.get("fs")
            if fs is None:
                return
            fs.server_service_factor = fs.server_service_factor * spec.factor
            self.log("fs_slow", factor=spec.factor, duration=spec.duration)
            if spec.duration > 0:
                self.engine.timeout(spec.duration).add_callback(
                    lambda _ev, fs=fs, f=spec.factor: setattr(
                        fs, "server_service_factor",
                        fs.server_service_factor / f))
            return
        svc = self.job.services.get("staging")
        if svc is None:
            return
        if spec.kind == "buffer_loss":
            buf = svc.buffer_for(spec.rank)
            lost = buf.mark_lost()
            self.log("buffer_loss", rank=spec.rank, packages_lost=lost)
            return
        # bit_rot / replica_corrupt: find the target package in some buffer.
        for buf in svc.buffers:
            if spec.kind == "bit_rot":
                for (step, group), pkg in buf.resident.items():
                    if group == spec.group and (spec.step is None
                                                or step == spec.step):
                        self._corrupt(pkg)
                        self.log("bit_rot", group=group, step=step,
                                 path=pkg.path)
                        return
            else:
                pkg = buf.replicas.get(spec.group)
                if pkg is not None and (spec.step is None
                                        or pkg.step == spec.step):
                    self._corrupt(pkg)
                    self.log("replica_corrupt", group=spec.group,
                             step=pkg.step, path=pkg.path)
                    return

    @staticmethod
    def _corrupt(pkg) -> None:
        """Damage a staged package in place.

        With payload bytes present, flip one byte so the checksum check
        does the detecting; in size-only mode just set the modeled flag.
        The image may be a zero-copy rope sharing segments with worker
        packages and replicas — it is materialized into a private buffer
        before the flip so the damage never leaks into shared segments.
        """
        if pkg.image:
            from ..buffers import as_bytes
            buf = bytearray(as_bytes(pkg.image))
            buf[len(buf) // 2] ^= 0xFF
            pkg.image = bytes(buf)
        pkg.corrupt = True


def attach_faults(job: Any, schedule: Optional[FaultSchedule]) -> Optional[FaultInjector]:
    """Wire a fault schedule into an assembled job; returns the injector.

    ``None`` (or an empty schedule with no specs) still installs the
    injector service so callers can query it, but leaves the storage and
    network hot-path hooks unset — the zero-cost off-switch.
    """
    if schedule is None:
        schedule = FaultSchedule(())
    inj = FaultInjector(job, schedule)
    job.services["faults"] = inj
    if inj.has_fs_faults:
        fs = job.services.get("fs")
        if fs is not None:
            fs.injector = inj
    if inj.has_net_faults:
        job.fabric.injector = inj
    inj.arm_timers()
    return inj


def faults_of(job: Any) -> Optional[FaultInjector]:
    """The job's injector, or ``None`` when faults were never attached."""
    return job.services.get("faults")
