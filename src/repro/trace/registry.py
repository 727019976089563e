"""Namespaced metrics schema and registry.

:data:`SCHEMA` is the single source of truth for counter names: the
canonical dotted names every run publishes through
:meth:`repro.mpi.Job.metrics` (``sim.*`` from the engine, ``copy.*`` /
``delta.*`` from the job's run stats, ``fabric.*`` from its fabric), and
``tests/test_trace.py`` pins the full set so shape changes are loud.

:class:`MetricsRegistry` is the aggregation point: counters, gauges and
pow2-histograms registered under canonical names, exportable as a plain
dict or Prometheus text exposition (served by the campaign service's
``/metrics`` endpoint).
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

__all__ = ["SCHEMA", "MetricsRegistry"]

#: Canonical dotted names of the per-run counters (``Job.metrics()``).
SCHEMA: tuple[str, ...] = (
    # simulator core (Engine.counters())
    "sim.events_processed",
    "sim.dispatched_events",
    "sim.batched_events",
    "sim.absorbed_events",
    "sim.batches",
    "sim.batch_hist",
    "sim.drain_hist",
    "sim.wall_seconds",
    "sim.events_per_second",
    "sim.virtual_time",
    # copy/buffer accounting
    "copy.bytes_copied",
    "copy.buffer_allocs",
    # incremental (delta) checkpointing
    "delta.bytes_logical",
    "delta.bytes_to_pfs",
    "delta.chunk_hits",
    "delta.chunk_misses",
    # fabric traffic
    "fabric.msgs_intra",
    "fabric.msgs_inter",
    "fabric.bytes_intra",
    "fabric.bytes_inter",
    "fabric.tam_msgs",
    "fabric.tam_packages",
    "fabric.tam_coalesce_ratio",
)

Number = Union[int, float]


class MetricsRegistry:
    """Counters, gauges and pow2-histograms under one namespace.

    Values are plain numbers (histograms are ``{bucket_label: count}``
    dicts as produced by :func:`repro.sim.monitor.pow2_histogram`);
    registering an existing name overwrites it, so the registry can be
    refreshed from live sources before every scrape.
    """

    _KINDS = ("counter", "gauge", "histogram")

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[str, tuple[str, object, str]] = {}

    # -- registration --------------------------------------------------------
    def _set(self, kind: str, name: str, value, help: str) -> None:
        if not name or name.startswith(".") or name.endswith("."):
            raise ValueError(f"bad metric name: {name!r}")
        self._metrics[name] = (kind, value, help)

    def counter(self, name: str, value: Number = 0, help: str = "") -> None:
        """A monotonically-meaningful count (events, bytes, retries)."""
        self._set("counter", name, value, help)

    def gauge(self, name: str, value: Number = 0, help: str = "") -> None:
        """A point-in-time level (backlog, inflight points, ratios)."""
        self._set("gauge", name, value, help)

    def histogram(self, name: str, buckets: Mapping[str, int],
                  help: str = "") -> None:
        """A pow2-bucketed distribution, ``{label: count}``."""
        self._set("histogram", name, dict(buckets), help)

    def update_counters(self, values: Mapping[str, object]) -> None:
        """Bulk-register ``values`` as counters (mappings as histograms)."""
        for name, value in values.items():
            if isinstance(value, Mapping):
                self.histogram(name, value)
            else:
                self.counter(name, value)

    # -- ingestion from live sources ----------------------------------------
    def collect_tracer(self, tracer) -> None:
        """Register a :class:`~repro.trace.SpanTracer`'s phase totals."""
        for phase, agg in tracer.phase_totals().items():
            slug = phase.replace(":", ".")
            self.counter(f"trace.{slug}.count", agg["count"])
            self.counter(f"trace.{slug}.seconds", agg["seconds"])
            self.counter(f"trace.{slug}.bytes", agg["bytes"])
        self.counter("trace.spans", tracer.n_spans())
        self.counter("trace.events", len(tracer.events))

    # -- export --------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat ``{name: value}`` dict (histograms stay nested dicts)."""
        return {name: (dict(v) if isinstance(v, dict) else v)
                for name, (_k, v, _h) in sorted(self._metrics.items())}

    def to_prometheus(self) -> str:
        """Text exposition (one scrape) in the Prometheus 0.0.4 format."""
        lines: list[str] = []
        for name, (kind, value, help_text) in sorted(self._metrics.items()):
            metric = self._prom_name(name)
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")
            if kind == "histogram":
                lines.append(f"# TYPE {metric} gauge")
                for bucket, count in value.items():
                    lines.append(f'{metric}{{bin="{bucket}"}} {count}')
            else:
                lines.append(f"# TYPE {metric} {kind}")
                lines.append(f"{metric} {self._prom_value(value)}")
        return "\n".join(lines) + "\n"

    def _prom_name(self, name: str) -> str:
        slug = name.replace(".", "_").replace("-", "_")
        return f"{self.namespace}_{slug}"

    @staticmethod
    def _prom_value(value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[object]:
        entry = self._metrics.get(name)
        return None if entry is None else entry[1]
