"""Discrete-event simulation kernel used by the whole reproduction.

Public surface:

- :class:`~repro.sim.engine.Engine`, :class:`~repro.sim.engine.Event`,
  :class:`~repro.sim.engine.Process`, :func:`~repro.sim.engine.all_of`,
  :func:`~repro.sim.engine.any_of` — the process/event core.
- :class:`~repro.sim.engine.Cohort` — one calendar entry standing for N
  identical completions (every collective completes on one).
- :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Pipe` — shared-resource primitives.
- :class:`~repro.sim.randomness.StreamRegistry`,
  :class:`~repro.sim.randomness.NoiseModel` — deterministic noise.
- :class:`~repro.sim.monitor.Tally`, :class:`~repro.sim.monitor.TimeSeries`,
  :class:`~repro.sim.monitor.IntervalRecorder` — measurement helpers.
- :class:`~repro.sim.stages.StagedOp` — a blocking operation cut at its
  waits, runnable from a process or from event callbacks
  (:class:`~repro.sim.stages.HandOffError` when a stage hands a generator
  to the callback driver).
"""

from .engine import (
    AllOf,
    AnyOf,
    Cohort,
    Engine,
    Event,
    Process,
    SimulationError,
    StopEngine,
    Timeout,
    all_of,
    any_of,
)
from .monitor import IntervalRecorder, Tally, TimeSeries, pow2_histogram
from .randomness import NoiseModel, StreamRegistry
from .resources import Pipe, Resource, Store
from .stages import HandOffError, StagedOp

__all__ = [
    "AllOf",
    "AnyOf",
    "Cohort",
    "Engine",
    "HandOffError",
    "Event",
    "Process",
    "SimulationError",
    "StopEngine",
    "Timeout",
    "all_of",
    "any_of",
    "IntervalRecorder",
    "Tally",
    "TimeSeries",
    "pow2_histogram",
    "NoiseModel",
    "StreamRegistry",
    "Pipe",
    "Resource",
    "Store",
    "StagedOp",
]
