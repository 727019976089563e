"""Deterministic fault injection and the recovery contract (DESIGN.md §10).

The package is the failure half of the checkpointing story: a seeded
:class:`FaultSchedule` describes *what breaks when*, :func:`attach_faults`
wires it into a job's storage/network/rank/staging layers, and the
strategies' resilient paths (retry, rbIO writer failover, bbIO
degradation, checksummed multi-generation restore) turn those faults into
either a bit-identical restart or a typed
:class:`UnrecoverableCheckpointError` — never silent corruption.

Everything is driven by :class:`~repro.sim.StreamRegistry`, so one root
seed reproduces the fault schedule, the injection log, and every recovery
decision bit-for-bit.  With no schedule attached the hooks stay unset and
the simulation is bit-identical to a build without this package.
"""

from .errors import UnrecoverableCheckpointError
from .injector import FaultInjector, attach_faults, faults_of
from .schedule import FAULT_KINDS, FaultConfig, FaultSchedule, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "UnrecoverableCheckpointError",
    "attach_faults",
    "faults_of",
]
