"""Checkpoint scheduling and the paper's production-time model (Eq. 1).

The paper quantifies end-to-end benefit with the ratio of production times
under two I/O approaches, checkpointing every ``nc`` computation steps:

    improvement = (Tc_a + nc * Tcomp) / (Tc_b + nc * Tcomp)
                = (Ratio_a + nc) / (Ratio_b + nc),          (Eq. 1)

where ``Ratio = Tc / Tcomp`` is the checkpoint-to-computation ratio plotted
in Fig. 7.  With ``nc = 20``, Ratio_1PFPP > 1000 and Ratio_rbIO < 20 give
the paper's ~25x production improvement.

:class:`CheckpointSchedule` also provides the classic Young interval as an
extension (not in the paper): the checkpoint frequency that minimises
expected lost work under a failure rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "checkpoint_ratio",
    "production_improvement",
    "CheckpointSchedule",
    "CheckpointRule",
    "checkpoint_instants",
]


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def checkpoint_ratio(t_checkpoint: float, t_computation_step: float) -> float:
    """Fig. 7 metric: checkpoint time per I/O step over compute time per step."""
    if t_computation_step <= 0:
        raise ValueError("computation step time must be positive")
    return t_checkpoint / t_computation_step


def production_improvement(t_ckpt_old: float, t_ckpt_new: float,
                           t_computation_step: float, nc: int) -> float:
    """Eq. 1: end-to-end production speedup of approach *new* over *old*.

    ``nc`` is the number of computation steps between checkpoints.
    """
    if nc < 1:
        raise ValueError("nc must be >= 1")
    r_old = checkpoint_ratio(t_ckpt_old, t_computation_step)
    r_new = checkpoint_ratio(t_ckpt_new, t_computation_step)
    return (r_old + nc) / (r_new + nc)


@dataclass(frozen=True)
class CheckpointRule:
    """One declarative checkpoint rule (yMMSL/muscle3-style).

    A rule either fires periodically (``every`` time units, from ``start``
    up to and including ``stop``) or at explicit instants (``at``).  Units
    are whatever axis the rule is attached to — simulated seconds for
    wall-clock rules, solver steps for step rules; the campaign compiler
    scales step rules by the per-step compute time.
    """

    every: Optional[float] = None
    at: tuple[float, ...] = ()
    start: float = 0.0
    stop: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", tuple(float(t) for t in self.at))
        if (self.every is None) == (not self.at):
            raise ValueError(
                "a checkpoint rule needs exactly one of 'every' or 'at'")
        if self.every is not None and self.every <= 0:
            raise ValueError(f"'every' must be positive, got {self.every}")
        if any(t < 0 for t in self.at):
            raise ValueError(f"'at' instants must be non-negative: {self.at}")
        if self.start < 0:
            raise ValueError(f"'start' must be non-negative, got {self.start}")
        if self.stop is not None and self.stop < self.start:
            raise ValueError(
                f"'stop' ({self.stop}) must be >= 'start' ({self.start})")

    def instants(self, horizon: float) -> list[float]:
        """The rule's firing instants within ``[0, horizon]``, sorted.

        Periodic rules fire at ``start, start+every, ...`` up to
        ``min(stop, horizon)``; explicit rules fire at each ``at`` instant
        that falls inside the horizon (and ``stop``, if given).
        """
        if horizon < 0:
            raise ValueError(f"negative horizon: {horizon}")
        end = horizon if self.stop is None else min(self.stop, horizon)
        if self.at:
            return sorted(t for t in self.at if self.start <= t <= end)
        out = []
        k = 0
        # Multiply rather than accumulate so long schedules don't drift.
        while (t := self.start + k * self.every) <= end + 1e-12:
            out.append(t)
            k += 1
        return out


def checkpoint_instants(rules: Iterable[CheckpointRule], horizon: float,
                        at_end: bool = False, scale: float = 1.0
                        ) -> tuple[float, ...]:
    """Merge rules into one sorted, deduplicated instant sequence.

    ``scale`` converts rule units into seconds (e.g. seconds-per-step for
    solver-step rules; the horizon stays in seconds).  ``at_end`` appends a
    final checkpoint at the horizon itself.  Instants closer together than
    1 µs collapse into one checkpoint.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    instants: list[float] = []
    for rule in rules:
        instants.extend(t * scale for t in rule.instants(horizon / scale))
    if at_end:
        instants.append(float(horizon))
    instants.sort()
    merged: list[float] = []
    for t in instants:
        if not merged or t - merged[-1] > 1e-6:
            merged.append(t)
    return tuple(merged)


@dataclass(frozen=True)
class CheckpointSchedule:
    """A periodic checkpoint schedule for a time-stepping solver.

    Parameters
    ----------
    nc:
        Checkpoint every ``nc`` computation steps.
    t_computation_step:
        Wall-clock seconds per computation step.
    t_checkpoint:
        Wall-clock seconds the application is blocked per checkpoint.
    """

    nc: int
    t_computation_step: float
    t_checkpoint: float

    def __post_init__(self) -> None:
        if self.nc < 1:
            raise ValueError("nc must be >= 1")
        if self.t_computation_step <= 0:
            raise ValueError("computation step time must be positive")
        if self.t_checkpoint < 0:
            raise ValueError("negative checkpoint time")

    def production_time(self, n_steps: int) -> float:
        """Total wall-clock for ``n_steps`` steps including checkpoints."""
        if n_steps < 0:
            raise ValueError("negative step count")
        n_ckpts = n_steps // self.nc
        return n_steps * self.t_computation_step + n_ckpts * self.t_checkpoint

    @property
    def overhead_fraction(self) -> float:
        """Fraction of production time spent checkpointing (long-run)."""
        period = self.nc * self.t_computation_step + self.t_checkpoint
        return self.t_checkpoint / period

    @property
    def ratio(self) -> float:
        """The Fig. 7 ratio for this schedule."""
        return checkpoint_ratio(self.t_checkpoint, self.t_computation_step)

    @staticmethod
    def young_interval(t_checkpoint: float, mtbf: float) -> float:
        """Young's optimal checkpoint interval: sqrt(2 * Tc * MTBF) seconds.

        An extension beyond the paper for sizing ``nc`` on failure-prone
        systems.
        """
        if t_checkpoint <= 0 or mtbf <= 0:
            raise ValueError("checkpoint time and MTBF must be positive")
        return math.sqrt(2.0 * t_checkpoint * mtbf)

    @classmethod
    def young(cls, t_checkpoint: float, t_computation_step: float, mtbf: float
              ) -> "CheckpointSchedule":
        """Schedule with ``nc`` chosen by Young's formula (at least 1)."""
        interval = cls.young_interval(t_checkpoint, mtbf)
        nc = max(1, round(interval / t_computation_step))
        return cls(nc=nc, t_computation_step=t_computation_step,
                   t_checkpoint=t_checkpoint)

    @staticmethod
    def young_interval_incremental(t_full_checkpoint: float,
                                   delta_fraction: float, mtbf: float,
                                   manifest_overhead: float = 0.0) -> float:
        """Young's interval when checkpoints are delta-sized.

        With incremental checkpointing the per-checkpoint cost is no
        longer the full-image write time but
        ``t_full * delta_fraction + manifest_overhead`` — the fraction of
        chunks that actually changed (amplified by chunk granularity; see
        :func:`repro.model.effective_delta_fraction`) plus the fixed
        header/manifest cost.  A smaller cost shortens the optimal
        interval: checkpoint *more* often, lose less work per failure.
        """
        _check_positive(t_full_checkpoint=t_full_checkpoint, mtbf=mtbf)
        if not 0.0 < delta_fraction <= 1.0:
            raise ValueError(
                f"delta_fraction must be in (0, 1], got {delta_fraction}")
        if manifest_overhead < 0:
            raise ValueError("negative manifest_overhead")
        t_delta = t_full_checkpoint * delta_fraction + manifest_overhead
        return math.sqrt(2.0 * t_delta * mtbf)

    @classmethod
    def young_incremental(cls, t_full_checkpoint: float,
                          delta_fraction: float, t_computation_step: float,
                          mtbf: float, manifest_overhead: float = 0.0
                          ) -> "CheckpointSchedule":
        """Schedule sized for delta writes (Young's rule on the delta cost)."""
        t_delta = (t_full_checkpoint * delta_fraction + manifest_overhead)
        interval = cls.young_interval_incremental(
            t_full_checkpoint, delta_fraction, mtbf,
            manifest_overhead=manifest_overhead)
        nc = max(1, round(interval / t_computation_step))
        return cls(nc=nc, t_computation_step=t_computation_step,
                   t_checkpoint=t_delta)
