"""Darshan-style I/O instrumentation.

The paper verifies its tuning with two kinds of profile data:

- **per-rank I/O time distributions** (Figs. 9-11): for every processor, the
  wall-clock time it spent blocked on checkpoint I/O in one step;
- **Darshan log analysis** (Fig. 12): write-activity timelines showing when
  each writer/aggregator was actually committing data, which exposes the
  lock-contention gaps of coIO versus the tight synchronized band of rbIO.

:class:`DarshanProfiler` collects per-operation records from the file-system
clients (create/open/write/read/close with timestamps, sizes, and paths) and
app-level *phase* records from the checkpoint strategies (e.g. a worker's
``isend`` window).  :mod:`repro.profiling.analysis` turns these into the
figures' data series.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..sim import IntervalRecorder

__all__ = ["OpRecord", "DarshanProfiler"]


class OpRecord:
    """One instrumented operation (file op or app-level phase)."""

    __slots__ = ("rank", "op", "start", "end", "nbytes", "path")

    def __init__(self, rank: int, op: str, start: float, end: float,
                 nbytes: int, path: str) -> None:
        self.rank = rank
        self.op = op
        self.start = start
        self.end = end
        self.nbytes = nbytes
        self.path = path

    @property
    def duration(self) -> float:
        """Wall-clock duration of the operation."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Op {self.op} rank={self.rank} [{self.start:.4f},{self.end:.4f}] "
            f"{self.nbytes}B {self.path!r}>"
        )


class _MemberRun(NamedTuple):
    """One log entry for ``members`` that went through a phase side by
    side (``late``: those that ended at an instant of their own)."""

    members: Sequence[int]
    op: str
    start: float
    end: float
    nbytes: int
    late: Optional[dict]

    def expand(self) -> list[OpRecord]:
        """One record per member, in their order."""
        late = self.late or {}
        return [OpRecord(m, self.op, self.start, late.get(m, self.end),
                         self.nbytes, "") for m in self.members]


class DarshanProfiler:
    """Collects I/O operation records for one job.

    File-system clients call :meth:`record_op`; checkpoint strategies call
    :meth:`record_phase` for application-level blocking windows (phases are
    stored with an ``app:`` prefix on the op name).  ``reset()`` between
    checkpoint steps isolates per-step analyses.  With the run's
    ``tracer`` attached, every record is also forwarded as a span — one
    event, two views, so op records and fs/phase spans cannot disagree.

    There is one log, in recording order.  A replay that stands for many
    ranks appends one entry for all of them (:meth:`record_phase_members`);
    :attr:`records` expands such entries in place when first read, so it
    is the sequence of the per-rank calls (DESIGN.md section 17.2).
    """

    def __init__(self, tracer=None) -> None:
        self._log: list = []  # OpRecord | _MemberRun
        self._packed = 0  # _MemberRun entries in the log
        self.tracer = tracer

    @property
    def records(self) -> list[OpRecord]:
        """Every record, in recording order (the log itself)."""
        log = self._log
        if self._packed:
            log[:] = [rec for entry in log for rec in (
                (entry,) if entry.__class__ is OpRecord else entry.expand())]
            self._packed = 0
        return log

    # -- recording -----------------------------------------------------------
    def record_op(self, rank: int, op: str, start: float, end: float,
                  nbytes: int, path: str) -> None:
        """Record a file-system operation (called by FSClient)."""
        self._log.append(OpRecord(rank, op, start, end, nbytes, path))
        tr = self.tracer
        if tr is not None:
            tr.span(rank, op, "fs", start, end, nbytes,
                    args={"path": path})

    def record_phase(self, rank: int, phase: str, start: float, end: float,
                     nbytes: int = 0) -> None:
        """Record an application-level phase (e.g. 'ckpt', 'isend')."""
        self._log.append(OpRecord(rank, f"app:{phase}", start, end, nbytes, ""))
        tr = self.tracer
        if tr is not None:
            tr.span(rank, phase, "phase", start, end, nbytes)

    def record_phase_members(self, members, phase: str, start: float,
                             end: float, nbytes: int = 0,
                             late: Optional[dict] = None) -> None:
        """:meth:`record_phase` for every rank of ``members``, in order, as
        one log entry; ``late[rank]`` replaces ``end`` for a member that
        ended at an instant of its own."""
        self._log.append(
            _MemberRun(members, f"app:{phase}", start, end, nbytes, late))
        self._packed += 1
        tr = self.tracer
        if tr is not None:
            late = late or {}
            for m in members:
                tr.span(m, phase, "phase", start, late.get(m, end), nbytes)

    def reset(self) -> None:
        """Drop all records (between checkpoint steps)."""
        self._log.clear()
        self._packed = 0

    # -- queries --------------------------------------------------------------
    def select(self, ops: Optional[Iterable[str]] = None,
               path_prefix: Optional[str] = None) -> list[OpRecord]:
        """Records filtered by op name(s) and/or path prefix."""
        out = self.records
        if ops is not None:
            opset = set(ops)
            out = [r for r in out if r.op in opset]
        if path_prefix is not None:
            out = [r for r in out if r.path.startswith(path_prefix)]
        return list(out) if out is self.records else out

    def op_counts(self) -> Counter:
        """Darshan-like counter table: number of ops per type."""
        return Counter(r.op for r in self.records)

    def bytes_by_op(self) -> dict[str, int]:
        """Total bytes moved per op type."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.op] = out.get(r.op, 0) + r.nbytes
        return out

    def per_rank_io_time(self, ops: Optional[Iterable[str]] = None) -> dict[int, float]:
        """Total time each rank spent inside the selected operations."""
        out: dict[int, float] = {}
        for r in self.select(ops):
            out[r.rank] = out.get(r.rank, 0.0) + r.duration
        return out

    def per_rank_span(self, ops: Optional[Iterable[str]] = None) -> dict[int, tuple[float, float]]:
        """(first start, last end) of the selected ops, per rank."""
        out: dict[int, tuple[float, float]] = {}
        for r in self.select(ops):
            cur = out.get(r.rank)
            if cur is None:
                out[r.rank] = (r.start, r.end)
            else:
                out[r.rank] = (min(cur[0], r.start), max(cur[1], r.end))
        return out

    def write_intervals(self) -> IntervalRecorder:
        """Activity intervals of all 'write' operations (Fig. 12 input)."""
        return self._intervals("writes", "write")

    def _intervals(self, name: str, op: str) -> IntervalRecorder:
        """Intervals of the ``op`` records, expanding only entries of it."""
        rec = IntervalRecorder(name)
        for r in self._log:
            if r.op != op:
                continue
            if r.__class__ is OpRecord:
                rec.record(r.start, r.end, r.rank)
            else:
                for m in r.expand():
                    rec.record(m.start, m.end, m.rank)
        return rec

    def phase_intervals(self, phase: str) -> IntervalRecorder:
        """Activity intervals of one application-level phase.

        ``phase`` is the name passed to :meth:`record_phase` (e.g.
        ``"isend"``, ``"stage"``, ``"drain"``) — the ``app:`` prefix is
        added here.
        """
        return self._intervals(phase, f"app:{phase}")

    def file_counters(self) -> dict[str, dict[str, float]]:
        """Per-file Darshan-style counters.

        Keys mirror Darshan's POSIX module: ``WRITES``, ``BYTES_WRITTEN``,
        ``READS``, ``BYTES_READ``, ``F_WRITE_TIME``, ``F_READ_TIME``,
        ``OPENS``.
        """
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            if not r.path:
                continue
            c = out.setdefault(r.path, {
                "WRITES": 0, "BYTES_WRITTEN": 0, "READS": 0, "BYTES_READ": 0,
                "F_WRITE_TIME": 0.0, "F_READ_TIME": 0.0, "OPENS": 0,
            })
            if r.op == "write":
                c["WRITES"] += 1
                c["BYTES_WRITTEN"] += r.nbytes
                c["F_WRITE_TIME"] += r.duration
            elif r.op == "read":
                c["READS"] += 1
                c["BYTES_READ"] += r.nbytes
                c["F_READ_TIME"] += r.duration
            elif r.op in ("open", "create"):
                c["OPENS"] += 1
        return out

    def summary(self) -> dict[str, float]:
        """One-line job summary (total ops, bytes, busiest rank)."""
        writes = self.select(["write"])
        per_rank = self.per_rank_io_time()
        return {
            "n_records": len(self.records),
            "n_writes": len(writes),
            "bytes_written": float(sum(r.nbytes for r in writes)),
            "max_rank_io_time": max(per_rank.values()) if per_rank else 0.0,
            "mean_rank_io_time": float(np.mean(list(per_rank.values()))) if per_rank else 0.0,
        }
