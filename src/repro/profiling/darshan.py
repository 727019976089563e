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
``isend`` window) into one columnar op log: a row per call, or one row for a
replayed member run.  Every query — :attr:`~DarshanProfiler.records`, the
counters, the interval sets :mod:`repro.profiling.analysis` turns into
the figures' data series, and the trace plane's fs/phase spans — is a
view of those columns.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from ..sim import IntervalRecorder
from ..trace import Span

__all__ = ["OpRecord", "DarshanProfiler"]


class OpRecord(NamedTuple):
    """One instrumented operation (file op or app-level phase)."""

    rank: int
    op: str
    start: float
    end: float
    nbytes: int
    path: str

    @property
    def duration(self) -> float:
        """Wall-clock duration of the operation."""
        return self.end - self.start


class DarshanProfiler:
    """Collects I/O operation records for one job.

    File-system clients call :meth:`record_op`; checkpoint strategies call
    :meth:`record_phase` for application-level blocking windows (phases are
    stored with an ``app:`` prefix on the op name).  ``reset()`` between
    checkpoint steps isolates per-step analyses.  A traced job reads its
    fs/phase spans from this log, so op records and spans cannot disagree.

    The log is one set of append-only columns in recording order — op code,
    rank, start, end, nbytes, path — with a row per call or per replayed
    member run (:meth:`record_phase_members`: its members and sparse late
    ends sit in a side table).  :attr:`records` and every query read the
    columns as the sequence of the per-rank calls (DESIGN.md section 17.2).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop all records (between checkpoint steps)."""
        self._codes: dict[str, int] = {}  # op name -> code, in code order
        self._ops, self._ranks = bytearray(), array("q")
        self._starts, self._ends = array("d"), array("d")
        self._nbytes, self._paths = [], []
        self._runs: dict = {}  # row -> (members, late) of a member run
        # Bound once: a row is appended per file operation.
        self._append = (self._ops.append, self._ranks.append,
                        self._starts.append, self._ends.append,
                        self._nbytes.append, self._paths.append)

    @property
    def records(self) -> list[OpRecord]:
        """Every record, in recording order (a member run expanded)."""
        return list(self._calls())

    @property
    def n_rows(self) -> int:
        """Rows so far (a member run is one row)."""
        return len(self._ops)

    def n_calls(self) -> int:
        """Per-rank calls so far (a member run counts each member)."""
        return len(self._ops) + sum(
            len(members) - 1 for members, _late in self._runs.values())

    # -- recording -----------------------------------------------------------
    def record_op(self, rank: int, op: str, start: float, end: float,
                  nbytes: int, path: str) -> None:
        """Record a file-system operation (called by FSClient)."""
        codes = self._codes
        code = codes.get(op)
        if code is None:
            code = codes[op] = len(codes)
        put_op, put_rank, put_start, put_end, put_nbytes, put_path = \
            self._append
        put_op(code)
        put_rank(rank)
        put_start(start)
        put_end(end)
        put_nbytes(nbytes)
        put_path(path)

    def record_phase(self, rank: int, phase: str, start: float, end: float,
                     nbytes: int = 0) -> None:
        """Record an application-level phase (e.g. 'ckpt', 'isend')."""
        self.record_op(rank, f"app:{phase}", start, end, nbytes, "")

    def record_phase_members(self, members, phase: str, start: float,
                             end: float, nbytes: int = 0,
                             late: Optional[dict] = None) -> None:
        """:meth:`record_phase` for every rank of ``members``, in order, as
        one row; ``late[rank]`` replaces ``end`` for a member that ended
        at an instant of its own."""
        self._runs[len(self._ops)] = (members, late or {})
        self.record_op(-1, f"app:{phase}", start, end, nbytes, "")

    # -- queries --------------------------------------------------------------
    def _calls(self, ops: Optional[Iterable[str]] = None, first: int = 0,
               stop: Optional[int] = None) -> Iterator[OpRecord]:
        """The per-rank calls of the rows ``first:stop`` of ``ops`` (all
        when ``None``), in recording order."""
        names, runs = list(self._codes), self._runs
        codes = None if ops is None else {self._codes.get(op) for op in ops}
        rows = slice(first, stop)
        for row, (code, rank, start, end, nbytes, path) in enumerate(zip(
                self._ops[rows], self._ranks[rows], self._starts[rows],
                self._ends[rows], self._nbytes[rows], self._paths[rows]),
                first):
            if codes is None or code in codes:
                members, late = runs.get(row, ((rank,), {}))
                for m in members:
                    yield OpRecord(m, names[code], start, late.get(m, end),
                                   nbytes, path)

    def spans(self, first: int = 0, stop: Optional[int] = None
              ) -> Iterator[Span]:
        """Rows ``first:stop`` as trace spans: a file operation is an ``fs``
        span with its path, an ``app:`` phase a ``phase`` span, a member
        run a span per member."""
        for r in self._calls(None, first, stop):
            if r.op.startswith("app:"):
                yield Span(r.rank, r.op[4:], "phase", r.start, r.end,
                           r.nbytes)
            else:
                yield Span(r.rank, r.op, "fs", r.start, r.end, r.nbytes,
                           args={"path": r.path})

    def span_totals(self) -> dict[tuple[str, str], list]:
        """``(cat, name) -> [count, seconds, bytes]`` of :meth:`spans`, off
        the columns, adding one call at a time in recording order."""
        keys = [("phase", op[4:]) if op.startswith("app:") else ("fs", op)
                for op in self._codes]
        aggs, runs = [[0, 0.0, 0] for _key in keys], self._runs
        for row, (code, start, end, nbytes) in enumerate(zip(
                self._ops, self._starts, self._ends, self._nbytes)):
            agg, nbytes = aggs[code], int(nbytes)
            if row not in runs:
                agg[0] += 1
                agg[1] += end - start
                agg[2] += nbytes
                continue
            members, late = runs[row]
            for m in members:
                agg[0] += 1
                agg[1] += float(late.get(m, end)) - start
                agg[2] += nbytes
        return {key: agg for key, agg in zip(keys, aggs) if agg[0]}

    def select(self, ops: Optional[Iterable[str]] = None,
               path_prefix: Optional[str] = None) -> list[OpRecord]:
        """Records filtered by op name(s) and/or path prefix."""
        out = self._calls(ops)
        if path_prefix is not None:
            return [r for r in out if r.path.startswith(path_prefix)]
        return list(out)

    def per_rank_io_time(self, ops: Optional[Iterable[str]] = None) -> dict[int, float]:
        """Total time each rank spent inside the selected operations."""
        out: dict[int, float] = {}
        for r in self._calls(ops):
            out[r.rank] = out.get(r.rank, 0.0) + r.duration
        return out

    def write_intervals(self) -> IntervalRecorder:
        """Activity intervals of all 'write' operations (Fig. 12 input)."""
        return self._intervals("writes", "write")

    def _intervals(self, name: str, op: str) -> IntervalRecorder:
        """Intervals of the ``op`` rows, read from the columns: only member
        runs of ``op`` are expanded."""
        rec = IntervalRecorder(name)
        add, runs, ops = rec.record, self._runs, self._ops
        code = self._codes.get(op)
        row = -1 if code is None else ops.find(code)
        while row >= 0:
            start, end = self._starts[row], self._ends[row]
            if row not in runs:
                add(start, end, self._ranks[row])
            else:
                members, late = runs[row]
                for m in members:
                    add(start, late.get(m, end), m)
            row = ops.find(code, row + 1)
        return rec

    def phase_intervals(self, phase: str) -> IntervalRecorder:
        """Activity intervals of the application phase ``phase``, as named
        to :meth:`record_phase` (``"isend"``, ``"stage"``, ``"drain"``)."""
        return self._intervals(phase, f"app:{phase}")

    def summary(self) -> dict[str, float]:
        """One-line job summary (total ops, bytes, busiest rank)."""
        writes = self.select(["write"])
        per_rank = self.per_rank_io_time()
        return {
            "n_records": self.n_calls(),
            "n_writes": len(writes),
            "bytes_written": float(sum(r.nbytes for r in writes)),
            "max_rank_io_time": max(per_rank.values()) if per_rank else 0.0,
            "mean_rank_io_time": float(np.mean(list(per_rank.values()))) if per_rank else 0.0,
        }
