"""Fault schedules: what breaks, where, and at which simulated time.

A schedule is an immutable, ordered tuple of :class:`FaultSpec` records.
It can be written out literally (the test matrix does) or drawn from a
:class:`~repro.sim.StreamRegistry` stream via :meth:`FaultSchedule.generate`
so that one root seed determines every fault of a campaign — the same
contract the rest of the simulator honours for service-time noise.  Two
schedules generated from equal seeds and configs are equal element for
element, which is what makes fault campaigns bit-reproducible.

Spec kinds and the layer they hook (see :mod:`repro.faults.injector`):

========================  =====================================================
kind                      effect
========================  =====================================================
``fs_error``              an FS operation raises :class:`~repro.storage.FSError`
                          (``transient`` selects retryable vs. fatal)
``fs_stall``              an FS operation pauses ``delay`` seconds first
``fs_slow``               server service inflates by ``factor`` for ``duration``
``net_degrade``           fabric transfers stretch by ``factor`` in the window
``net_drop``              fabric transfers pay ``delay`` of link-level
                          retransmission in the window (BG/P links are
                          reliable; drops surface as latency, not loss)
``rank_crash``            the rank is dead from ``time`` on (checked at
                          coordinated step boundaries)
``buffer_loss``           a burst-buffer device is lost with all residents
``bit_rot``               a resident staged package is corrupted in place
``replica_corrupt``       a partner replica is corrupted in place
``restart``               before checkpointing ``step``, every rank rolls back
                          to the newest generation before it (the restore
                          wave's vote) and the run goes on from there; each
                          restart fires once
========================  =====================================================

Every field is checked on construction: integers (``rank``, ``group``,
``step`` >= 0, ``count`` >= 1) must be non-bool ints, times and magnitudes
finite numbers (stored as floats), ``transient`` a bool and ``op`` /
``path`` strings — a value of another type would never match and the
fault would silently never fire.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Optional, Sequence

from ..sim import StreamRegistry

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultConfig", "FaultSchedule"]

FAULT_KINDS = (
    "fs_error",
    "fs_stall",
    "fs_slow",
    "net_degrade",
    "net_drop",
    "rank_crash",
    "buffer_loss",
    "bit_rot",
    "replica_corrupt",
    "restart",
)

#: Kinds that arm the file-system operation hook.
FS_KINDS = ("fs_error", "fs_stall")
#: Kinds that arm the fabric transfer hook.
NET_KINDS = ("net_degrade", "net_drop")
#: Kinds fired by absolute-time callbacks against the staging tier / FS.
TIMER_KINDS = ("fs_slow", "buffer_loss", "bit_rot", "replica_corrupt")
#: The field a kind cannot do without: its target.
_NEEDS = {"rank_crash": "rank", "buffer_loss": "rank", "bit_rot": "group",
          "replica_corrupt": "group", "restart": "step"}


def _known(cls, d: Mapping, what: str) -> Mapping:
    """``d`` if every key is a field of ``cls``; ``ValueError`` otherwise."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown fault {what} field(s) {unknown}; expected "
                         f"a subset of {sorted(f.name for f in fields(cls))}")
    return d


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see the module table for kind semantics).

    Matching fields (``rank``, ``op``, ``path``) are filters for the
    operation-hook kinds; ``None`` matches anything.  ``count`` bounds how
    many operations an ``fs_error``/``fs_stall`` spec hits once armed.
    """

    kind: str
    time: float = 0.0
    rank: Optional[int] = None
    op: Optional[str] = None
    path: Optional[str] = None
    count: int = 1
    duration: float = 0.0
    factor: float = 1.0
    delay: float = 0.0
    transient: bool = True
    step: Optional[int] = None
    group: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        for name, low in (("rank", 0), ("group", 0), ("step", 0),
                          ("count", 1)):
            value = getattr(self, name)
            if value is None and name != "count":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("time", "duration", "delay", "factor"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0
                    or (name == "factor" and value == 0)):
                bound = "> 0" if name == "factor" else ">= 0"
                raise ValueError(f"{name} must be a finite number {bound}, "
                                 f"got {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.transient, bool):
            raise ValueError(f"transient must be true or false, got "
                             f"{self.transient!r}")
        for name in ("op", "path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string, got "
                                 f"{getattr(self, name)!r}")
        need = _NEEDS.get(self.kind)
        if need is not None and getattr(self, need) is None:
            raise ValueError(f"{self.kind} needs its target {need}")

    def to_dict(self) -> dict:
        """Plain-data form (campaign specs, JSON transport): non-defaults only."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "kind" or value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: Mapping) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        return cls(**_known(cls, d, "spec"))


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for :meth:`FaultSchedule.generate` (rates over one campaign).

    ``*_errors`` style fields are expected *counts* over the campaign; the
    actual draws (times, target ops, transience) come from the registry's
    ``"faults.schedule"`` stream.  ``horizon`` is the simulated-time window
    fault instants are drawn from — size it to cover the checkpoint steps.

    Fields are checked as :class:`FaultSpec`'s are: ``fs_error_ops`` is a
    non-empty list or tuple of op names, every other field a finite number
    >= 0 (``*_prob``, ``fs_fatal_fraction`` <= 1; ``degrade_factor``,
    ``horizon`` > 0).
    """

    fs_errors: float = 0.0
    fs_error_ops: Sequence[str] = ("write", "create")
    fs_fatal_fraction: float = 0.0
    fs_stalls: float = 0.0
    stall_seconds: float = 0.5
    writer_crash_prob: float = 0.0
    buffer_loss_prob: float = 0.0
    replica_corrupt_prob: float = 0.0
    net_degrade_prob: float = 0.0
    degrade_factor: float = 4.0
    degrade_duration: float = 1.0
    horizon: float = 10.0

    def __post_init__(self) -> None:
        ops = self.fs_error_ops
        if (not isinstance(ops, (list, tuple)) or not ops
                or not all(isinstance(op, str) for op in ops)):
            raise ValueError(f"fs_error_ops must be a non-empty list of op "
                             f"names, got {ops!r}")
        object.__setattr__(self, "fs_error_ops", tuple(ops))
        for name in (f.name for f in fields(self) if f.name != "fs_error_ops"):
            value = getattr(self, name)
            unit = name.endswith("_prob") or name == "fs_fatal_fraction"
            positive = name in ("degrade_factor", "horizon")
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0
                    or (unit and value > 1) or (positive and value == 0)):
                bound = "in [0, 1]" if unit else "> 0" if positive else ">= 0"
                raise ValueError(f"{name} must be a finite number {bound}, "
                                 f"got {value!r}")

    def to_dict(self) -> dict:
        """Plain-data form (campaign specs, JSON transport): non-defaults only."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = (tuple(f.default) if isinstance(f.default, (list, tuple))
                       else f.default)
            if value != default:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: Mapping) -> "FaultConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        return cls(**_known(cls, d, "config"))


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered collection of fault specs."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def by_kind(self, *kinds: str) -> tuple[FaultSpec, ...]:
        """Specs of the given kinds, preserving schedule order."""
        return tuple(s for s in self.specs if s.kind in kinds)

    @classmethod
    def generate(cls, streams: StreamRegistry, n_ranks: int,
                 config: FaultConfig,
                 writer_ranks: Optional[Sequence[int]] = None
                 ) -> "FaultSchedule":
        """Draw a schedule from the registry's ``"faults.schedule"`` stream.

        Equal ``(root seed, n_ranks, config, writer_ranks)`` inputs yield
        identical schedules; the draw order is fixed, so adding a fault
        class to the *config* perturbs only that class's draws.
        """
        rng = streams.stream("faults.schedule")
        cfg = config
        horizon = float(cfg.horizon)
        specs: list[FaultSpec] = []
        targets = list(writer_ranks) if writer_ranks else list(range(n_ranks))

        n_err = int(round(cfg.fs_errors))
        for _ in range(n_err):
            specs.append(FaultSpec(
                kind="fs_error",
                time=float(rng.random()) * horizon,
                op=str(cfg.fs_error_ops[int(rng.integers(len(cfg.fs_error_ops)))]),
                transient=bool(rng.random() >= cfg.fs_fatal_fraction),
            ))
        n_stall = int(round(cfg.fs_stalls))
        for _ in range(n_stall):
            specs.append(FaultSpec(
                kind="fs_stall",
                time=float(rng.random()) * horizon,
                delay=float(cfg.stall_seconds) * (0.5 + float(rng.random())),
            ))
        if cfg.writer_crash_prob > 0 and float(rng.random()) < cfg.writer_crash_prob:
            specs.append(FaultSpec(
                kind="rank_crash",
                time=float(rng.random()) * horizon,
                rank=int(targets[int(rng.integers(len(targets)))]),
            ))
        if cfg.buffer_loss_prob > 0 and float(rng.random()) < cfg.buffer_loss_prob:
            specs.append(FaultSpec(
                kind="buffer_loss",
                time=float(rng.random()) * horizon,
                rank=int(targets[int(rng.integers(len(targets)))]),
            ))
        if cfg.replica_corrupt_prob > 0 and float(rng.random()) < cfg.replica_corrupt_prob:
            specs.append(FaultSpec(
                kind="replica_corrupt",
                time=float(rng.random()) * horizon,
                group=int(rng.integers(max(1, len(targets)))),
            ))
        if cfg.net_degrade_prob > 0 and float(rng.random()) < cfg.net_degrade_prob:
            specs.append(FaultSpec(
                kind="net_degrade",
                time=float(rng.random()) * horizon,
                duration=float(cfg.degrade_duration),
                factor=float(cfg.degrade_factor),
            ))
        # Canonical order: by time, then kind, for stable comparison.
        specs.sort(key=lambda s: (s.time, s.kind))
        return cls(tuple(specs))
