"""Unified observability plane: sim-time spans, metrics, exporters.

This package is the single place the simulator's telemetry — engine
counters, fabric intra/inter + TAM counters, copy/delta counters,
Darshan-style op records — comes together:

- :class:`SpanTracer` records hierarchical *sim-time* spans (checkpoint
  → pack / chunk / tam-gather / exchange / write / drain / restore,
  the fs and phase ones read off the job's Darshan log) with per-rank
  and per-node attribution, plus instant events for retries and writer
  failovers;
- :class:`~repro.trace.registry.MetricsRegistry` and
  :data:`~repro.trace.registry.SCHEMA` give every counter a stable,
  namespaced name (Prometheus-exportable);
- :mod:`repro.trace.export` renders Chrome ``trace_event`` JSON that
  loads in ``chrome://tracing`` / Perfetto;
- :mod:`repro.trace.timeline` renders per-rank ASCII Gantt charts and a
  critical-path summary for ``repro-report timeline``.

A tracer belongs to exactly one run: :class:`repro.mpi.Job` builds a
:class:`SpanTracer` when its ``RunConfig.trace`` is ``summary`` or
``full`` and holds ``None`` when it is ``off``, and every instrumented
call site reaches it through its job (``ctx.job.tracer``, or a reference
captured at construction) and guards with a single ``is not None`` test.
Spans never schedule engine events and never touch simulation state, so
``off`` is bit-identical to pre-trace behaviour *by construction* — the
differential tests in ``tests/test_trace.py`` enforce it across
strategies × delta × tam × coalesce.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

__all__ = ["MODES", "Span", "SpanTracer", "MetricsRegistry", "SCHEMA"]

#: Recognised trace modes, mirroring ``repro.faults`` / delta / tam:
#: ``off`` removes every cost, ``summary`` keeps only per-phase
#: aggregates, ``full`` additionally retains every span for export.
MODES = ("off", "summary", "full")


class Span:
    """One closed sim-time interval attributed to a rank and a phase.

    ``cat`` is the span's layer (``ckpt``, ``phase``, ``fs``,
    ``mpiio``); ``name`` the phase within it (``checkpoint``, ``pack``,
    ``write``, ...).  ``members`` marks a *coalesce-representative*
    span: one rank did the simulated work on behalf of the whole
    symmetry group, and exporters expand the span to every member.
    """

    __slots__ = ("rank", "name", "cat", "start", "end", "nbytes",
                 "members", "args")

    def __init__(self, rank: int, name: str, cat: str, start: float,
                 end: float, nbytes: int = 0,
                 members: Optional[Sequence[int]] = None,
                 args: Optional[dict] = None) -> None:
        self.rank = rank
        self.name = name
        self.cat = cat
        self.start = float(start)
        self.end = float(end)
        self.nbytes = int(nbytes)
        self.members = None if members is None else tuple(members)
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def expand(self) -> Iterator[int]:
        """Ranks this span stands for (the symmetry group, or just one)."""
        if self.members is None:
            yield self.rank
        else:
            yield from self.members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grp = "" if self.members is None else f" x{len(self.members)}"
        return (f"Span({self.cat}:{self.name} rank={self.rank}{grp} "
                f"[{self.start:.6f},{self.end:.6f}] {self.nbytes}B)")


class SpanTracer:
    """Collects spans and instant events; aggregates per-phase totals.

    In ``summary`` mode only the ``(cat, name)`` → (count, seconds,
    bytes) aggregates are kept; ``full`` mode additionally retains the
    span list for Chrome-trace export and the timeline.
    Coalesce-representative spans count once per member in the
    aggregates, so summary totals match what an uncoalesced run of the
    same workload would report.  With a ``log`` (the job's
    :class:`~repro.profiling.DarshanProfiler`) the fs/phase spans and
    totals of its rows are read from it; each span recorded here
    remembers how many rows came before it.
    """

    def __init__(self, mode: str = "full", log=None) -> None:
        if mode not in ("summary", "full"):
            raise ValueError(f"tracer mode must be 'summary' or 'full', "
                             f"got {mode!r}")
        self.mode = mode
        self.log = log
        self.events: list[dict] = []
        #: Ranks per node, set by the runner from ``MachineConfig`` so
        #: exporters can attribute spans to nodes (pid = rank // cpn).
        self.cores_per_node: Optional[int] = None
        self._totals: dict[tuple[str, str], list] = {}
        self._spans: list[Span] = []
        self._rows: list[int] = []  # log rows before each of ``_spans``

    # -- recording -----------------------------------------------------------
    def span(self, rank: int, name: str, cat: str, start: float, end: float,
             nbytes: int = 0, members: Optional[Sequence[int]] = None,
             args: Optional[dict] = None) -> None:
        """Record one closed span (optionally a coalesce representative)."""
        n = 1 if members is None else len(members)
        key = (cat, name)
        agg = self._totals.get(key)
        if agg is None:
            agg = self._totals[key] = [0, 0.0, 0]
        agg[0] += n
        agg[1] += (float(end) - float(start)) * n
        agg[2] += int(nbytes) * n
        if self.mode == "full":
            self._spans.append(Span(rank, name, cat, start, end, nbytes,
                                    members, args))
            if self.log is not None:
                self._rows.append(self.log.n_rows)

    def instant(self, name: str, cat: str, t: float, rank: int = -1,
                args: Optional[dict[str, Any]] = None) -> None:
        """Record a zero-duration annotation (retry, failover, ...)."""
        self.events.append({"name": name, "cat": cat, "time": float(t),
                            "rank": rank, "args": dict(args or {})})

    # -- views ---------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every span in recording order (none in ``summary`` mode)."""
        log = self.log
        if log is None or self.mode != "full":
            return self._spans
        out, row = [], 0
        for span, mark in zip(self._spans, self._rows):
            out.extend(log.spans(row, mark))
            out.append(span)
            row = mark
        out.extend(log.spans(row))
        return out

    def n_spans(self) -> int:
        """``len(self.spans)``, counted without building a span."""
        listed = self.log is not None and self.mode == "full"
        return len(self._spans) + (self.log.n_calls() if listed else 0)

    def phase_totals(self) -> dict[str, dict]:
        """Per-phase aggregates: ``"cat:name" -> {count, seconds, bytes}``."""
        totals = dict(self._totals)
        if self.log is not None:
            totals.update(self.log.span_totals())
        return {f"{cat}:{name}": {"count": agg[0], "seconds": agg[1],
                                  "bytes": agg[2]}
                for (cat, name), agg in sorted(totals.items())}

    def summary(self) -> dict:
        """JSON-clean rollup of everything this tracer holds."""
        return {
            "mode": self.mode,
            "n_spans": self.n_spans(),
            "n_events": len(self.events),
            "phases": self.phase_totals(),
        }

    def reset(self) -> None:
        self._spans.clear()
        self._rows.clear()
        self.events.clear()
        self._totals.clear()


from .registry import SCHEMA, MetricsRegistry  # noqa: E402  (re-export)
