"""Per-rank reports and aggregate results of one checkpoint step.

The measurement semantics follow DESIGN.md section 5:

- *raw write bandwidth* (Figs. 5 and 8): total bytes over the wall-clock
  window from the coordinated start to the slowest participating rank's
  completion (open + write + close), writers included;
- *overall time* (Fig. 6): that same window;
- *blocking time* (Fig. 7 numerator): the longest any **compute** rank was
  prevented from resuming computation.  For 1PFPP/coIO every rank blocks
  until its (collective) write finishes; for rbIO workers block only for
  the MPI_Isend window while dedicated writers drain in the background;
- *perceived bandwidth* (Table I): total worker bytes over the maximum
  Isend completion window.

A run keeps these per-rank facts in one :class:`ReportTable`, written by
index; a :class:`CheckpointResult` is one step's rows of it (DESIGN.md
section 17.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = ["RankReport", "ReportTable", "CheckpointResult"]


@dataclass
class RankReport:
    """What one rank experienced during a checkpoint step."""

    rank: int
    role: str                 # "writer" | "worker" | "independent"
    t_start: float            # coordinated checkpoint start (after barrier)
    t_blocked_end: float      # when this rank could resume computation
    t_complete: float         # when this rank's I/O duty was fully done
    bytes_local: int          # checkpoint bytes this rank contributed
    isend_seconds: float = 0.0  # rbIO workers: Isend completion window

    @property
    def io_time(self) -> float:
        """The per-rank 'I/O time' plotted in Figs. 9-11."""
        return self.t_complete - self.t_start


class ReportTable:
    """What every rank experienced in every step of one run: a column of
    ``n_steps x n_ranks`` per :class:`RankReport` field (``role`` as an
    index into :attr:`role_names`; ``-1``: nothing filed).  A rank process
    files the report its strategy returned (:meth:`file`); a replay writes
    the rows of the ranks it stands for by index (:meth:`put`), one
    assignment for ``k`` ranks that behaved alike — no object per rank.
    """

    COLUMNS = ("t_start", "t_blocked_end", "t_complete", "bytes_local",
               "isend_seconds")

    def __init__(self, n_steps: int, n_ranks: int) -> None:
        shape = (n_steps, n_ranks)
        self.ranks = np.arange(n_ranks, dtype=np.int64)
        self.role_names: list[str] = []
        self.role = np.full(shape, -1, dtype=np.int8)
        for name in self.COLUMNS:
            setattr(self, name, np.zeros(
                shape, np.int64 if name == "bytes_local" else np.float64))

    @classmethod
    def of_reports(cls, reports: dict[int, RankReport]) -> "ReportTable":
        """A one-step table of ``reports`` (any rank ids), in rank order."""
        table = cls(1, len(reports))
        table.ranks[:] = sorted(reports)
        for row, rank in enumerate(table.ranks.tolist()):
            table.file(0, reports[rank], row)
        return table

    def put(self, step: int, rows, role: str, t_start: float,
            t_blocked_end: float, t_complete: float, bytes_local: int,
            isend_seconds: float = 0.0) -> None:
        """Write one row of ``step`` (``rows``: a rank of the run), or the
        same values into several: a contiguous ``range`` is a slice
        assignment per column, any other sequence an indexed one."""
        if isinstance(rows, range) and rows.step == 1:
            rows = slice(rows.start, rows.stop)
        names = self.role_names
        if role not in names:
            names.append(role)
        self.role[step, rows] = names.index(role)
        self.t_start[step, rows] = t_start
        self.t_blocked_end[step, rows] = t_blocked_end
        self.t_complete[step, rows] = t_complete
        self.bytes_local[step, rows] = bytes_local
        self.isend_seconds[step, rows] = isend_seconds

    def file(self, step: int, report: RankReport, row: int = None) -> None:
        """Write ``report`` as its rank's row of ``step``."""
        self.put(step, report.rank if row is None else row, report.role,
                 report.t_start, report.t_blocked_end, report.t_complete,
                 report.bytes_local, report.isend_seconds)


class CheckpointResult:
    """Aggregate outcome of one coordinated checkpoint step.

    ``reports`` is the step's :class:`RankReport` by rank, or the run's
    :class:`ReportTable` with ``step`` naming the row; either way the
    result *is* that row of columns (a dict is filed into a table first),
    and :meth:`report` is the :class:`RankReport` view of one rank.
    ``fs_stats`` is the file system's state at the **end of the run**: the
    same on every step's result of a multi-step run.
    """

    def __init__(self, approach: str, reports,
                 params: Optional[dict[str, Any]] = None,
                 fs_stats: Optional[dict] = None, step: int = 0) -> None:
        if not isinstance(reports, ReportTable):
            if not reports:
                raise ValueError("no rank reports")
            reports = ReportTable.of_reports(reports)
        self.approach = approach
        self.params = dict(params or {})
        self.fs_stats = dict(fs_stats or {})
        self.n_ranks = len(reports.ranks)
        self.ranks = reports.ranks
        self.role_names = reports.role_names
        self._role = reports.role[step]
        if self._role.min() < 0:
            missing = self.ranks[self._role < 0]
            raise ValueError(f"{len(missing)} rank(s) filed no report for "
                             f"step {step}: {missing[:8].tolist()}...")
        for name in ReportTable.COLUMNS:
            setattr(self, name, getattr(reports, name)[step])

    @property
    def roles(self) -> list[str]:
        """Each rank's role, in ``ranks`` order."""
        return [self.role_names[code] for code in self._role.tolist()]

    def _has_role(self, *roles: str) -> np.ndarray:
        """Boolean column: the ranks whose role is one of ``roles``."""
        names = self.role_names
        return np.isin(self._role, [names.index(r) for r in roles
                                    if r in names])

    def report(self, rank: int) -> RankReport:
        """The :class:`RankReport` view of one rank's row."""
        row = int(np.searchsorted(self.ranks, rank))
        if row == self.n_ranks or self.ranks[row] != rank:
            raise KeyError(rank)
        return RankReport(rank, self.role_names[self._role[row]], *(
            getattr(self, name)[row].item() for name in ReportTable.COLUMNS))

    # -- core metrics ----------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Checkpoint bytes across all ranks."""
        return int(self.bytes_local.sum())

    @property
    def start_time(self) -> float:
        """Coordinated start instant."""
        return float(self.t_start.min())

    @property
    def overall_time(self) -> float:
        """Fig. 6 metric: window to the slowest rank's completion."""
        return float(self.t_complete.max() - self.start_time)

    @property
    def write_bandwidth(self) -> float:
        """Fig. 5 metric: total bytes / overall time (B/s)."""
        t = self.overall_time
        return self.total_bytes / t if t > 0 else float("inf")

    @property
    def blocking_time(self) -> float:
        """Fig. 7 numerator: longest *compute*-rank blockage (seconds).

        Dedicated rbIO writers are I/O ranks — the solver's time-stepping
        loop runs on the workers, so writers are excluded (they drain in
        the background).  For 1PFPP/coIO every rank computes and blocks.
        """
        blocked = self.t_blocked_end - self.t_start
        mask = ~self._has_role("writer")
        if not mask.any():
            return float(blocked.max())
        return float(blocked[mask].max())

    @property
    def per_rank_io_time(self) -> dict[int, float]:
        """Per-rank I/O time (Figs. 9-11 scatter)."""
        io = self.t_complete - self.t_start
        return dict(zip(self.ranks.tolist(), io.tolist()))

    # -- role views -------------------------------------------------------------
    @property
    def writer_ranks(self) -> list[int]:
        """Ranks that committed data to the file system."""
        return self.ranks[self._has_role("writer", "independent")].tolist()

    # -- rbIO perceived metrics ----------------------------------------------
    @property
    def perceived_time(self) -> float:
        """Table I: max worker Isend completion window (seconds)."""
        mask = self._has_role("worker")
        if not mask.any():
            return 0.0
        return float(self.isend_seconds[mask].max())

    @property
    def perceived_bandwidth(self) -> float:
        """Table I: total worker bytes / perceived time (B/s)."""
        mask = self._has_role("worker")
        t = self.perceived_time
        if t <= 0:
            return 0.0
        return float(self.bytes_local[mask].sum()) / t

    def summary(self) -> dict[str, float]:
        """Headline numbers for printing in benches/EXPERIMENTS.md."""
        return {
            "approach": self.approach,
            "n_ranks": self.n_ranks,
            "total_gb": self.total_bytes / 1e9,
            "overall_time_s": self.overall_time,
            "bandwidth_gbps": self.write_bandwidth / 1e9,
            "blocking_time_s": self.blocking_time,
            "n_writers": len(self.writer_ranks),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CheckpointResult {self.approach} np={self.n_ranks} "
            f"{self.total_bytes/1e9:.2f}GB in {self.overall_time:.2f}s "
            f"({self.write_bandwidth/1e9:.2f} GB/s)>"
        )
