"""Lightweight measurement helpers for simulation experiments.

:class:`Tally`
    Streaming summary statistics (count / sum / min / max / mean / variance)
    via Welford's algorithm — used for per-rank I/O-time summaries.
:class:`TimeSeries`
    Append-only ``(time, value)`` trace with binning helpers — used for the
    Darshan-style write-activity timelines of Fig. 12.
:class:`IntervalRecorder`
    Records ``(start, end, tag)`` activity intervals and can rasterise the
    number of concurrently active intervals over time.
:func:`pow2_histogram`
    Formats the engine's power-of-two binned size histograms (batch sizes,
    per-instant drain sizes) as human-readable range labels.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = ["Tally", "TimeSeries", "IntervalRecorder", "pow2_histogram"]


def pow2_histogram(counts: dict) -> dict:
    """Format a ``bit_length``-binned histogram with power-of-two labels.

    The engine's hot loops bin sizes by ``size.bit_length()`` (one int op);
    this turns ``{bl: count}`` into ``{"1": c, "2-3": c, "4-7": c, ...}``
    for counters output and benchmark records.  Bin 0 (size-zero drains)
    is labelled ``"0"``.
    """
    out: dict = {}
    for bl in sorted(counts):
        if bl <= 0:
            label = "0"
        else:
            lo = 1 << (bl - 1)
            hi = (1 << bl) - 1
            label = str(lo) if lo == hi else f"{lo}-{hi}"
        out[label] = counts[bl]
    return out


class Tally:
    """Streaming univariate summary statistics (Welford)."""

    __slots__ = ("count", "total", "min", "max", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        """Record one observation."""
        x = float(x)
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    def extend(self, xs: Iterable[float]) -> None:
        """Record many observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with <2 observations)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.count:
            return "<Tally empty>"
        return (
            f"<Tally n={self.count} mean={self.mean:.4g} "
            f"min={self.min:.4g} max={self.max:.4g}>"
        )


class TimeSeries:
    """Append-only time-stamped samples with binning utilities."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and t < self.times[-1]:
            raise ValueError(f"time went backwards: {t} < {self.times[-1]}")
        self.times.append(float(t))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as numpy arrays."""
        return np.asarray(self.times), np.asarray(self.values)


class IntervalRecorder:
    """Records activity intervals and rasterises concurrent activity.

    Used to reconstruct "how many writers were actively writing at time t",
    the quantity plotted in the paper's Darshan analysis (Fig. 12).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.intervals: list[tuple[float, float, Any]] = []

    def record(self, start: float, end: float, tag: Any = None) -> None:
        """Record one ``[start, end]`` activity interval."""
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end}]")
        self.intervals.append((float(start), float(end), tag))

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all intervals."""
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(s for s, _, _ in self.intervals),
            max(e for _, e, _ in self.intervals),
        )

    def activity(self, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
        """Concurrent-activity histogram.

        Returns ``(bin_starts, active_counts)`` where ``active_counts[i]``
        is the number of intervals overlapping bin ``i`` at any point.
        """
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if not self.intervals:
            return np.array([]), np.array([])
        t0, t1 = self.span
        n_bins = max(1, int(np.ceil((t1 - t0) / bin_width)))
        counts = np.zeros(n_bins, dtype=np.int64)
        for s, e, _ in self.intervals:
            i0 = int((s - t0) / bin_width)
            i1 = int(np.ceil((e - t0) / bin_width))
            i1 = max(i1, i0 + 1)
            counts[i0 : min(i1, n_bins)] += 1
        starts = t0 + bin_width * np.arange(n_bins)
        return starts, counts
