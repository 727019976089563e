"""Darshan-style I/O instrumentation and figure analyses.

Whether a run is profiled is part of its :class:`repro.mpi.RunConfig`
(``profiling="on" | "off"``): the :class:`~repro.mpi.Job` holds either a
live :class:`DarshanProfiler` or ``None`` as ``job.profiler``.  Every
hot-path producer (``FSClient._record``, strategy ``record_phase`` calls,
the staging drainer) guards with ``profiler is not None``, so ``off``
costs one attribute test per op — nothing is allocated or appended.
``on`` appends one row per op to the profiler's columns (one row per
replayed member run), never an object per op; ``OpRecord``s are built
only when a query reads them.  Sweeps that never read profiles (the
campaign runner's non-figure points) run with profiling off; figure
pipelines keep it on because their summaries read ``run.profiler``.
"""

from __future__ import annotations

from .analysis import (
    distribution_summary,
    drain_activity,
    io_time_distribution,
    write_activity,
    writer_worker_split,
)
from .darshan import DarshanProfiler, OpRecord

__all__ = [
    "DarshanProfiler",
    "OpRecord",
    "PROFILING_MODES",
    "distribution_summary",
    "drain_activity",
    "io_time_distribution",
    "write_activity",
    "writer_worker_split",
]

PROFILING_MODES = ("on", "off")
