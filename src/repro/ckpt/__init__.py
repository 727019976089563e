"""Application-level checkpointing strategies — the paper's contribution.

Three approaches from Fu et al. (CLUSTER 2011):

- :class:`OneFilePerProcess` — 1PFPP baseline (one POSIX file per rank);
- :class:`CollectiveIO` — coIO, tuned MPI-IO collectives with tunable nf;
- :class:`ReducedBlockingIO` — rbIO, application-level two-phase I/O with
  dedicated writers (the reduced-blocking contribution).

Plus one extension beyond the paper:

- :class:`BurstBufferIO` — bbIO, rbIO aggregation with an asynchronous
  staged commit through :mod:`repro.staging` (burst buffer + background
  drain + optional partner replication).

Plus the shared data/layout/result types and the production-time model.
"""

from ..faults import UnrecoverableCheckpointError
from .base import CheckpointStrategy
from .bbio import BurstBufferIO
from .coio import CollectiveIO
from .data import BoundEvolvingData, CheckpointData, EvolvingData, Field
from .incremental import (
    ChunkingParams,
    ChunkRef,
    Manifest,
    ManifestError,
    ManifestSection,
    chunk_boundaries,
    chunk_spans,
    manifest_path,
)
from .layout import FileLayout
from .onefileper import OneFilePerProcess
from .rbio import ReducedBlockingIO
from .result import CheckpointResult, RankReport
from .schedule import (
    CheckpointRule,
    CheckpointSchedule,
    checkpoint_instants,
    checkpoint_ratio,
    production_improvement,
)

__all__ = [
    "BurstBufferIO",
    "CheckpointStrategy",
    "CollectiveIO",
    "CheckpointData",
    "EvolvingData",
    "BoundEvolvingData",
    "Field",
    "FileLayout",
    "OneFilePerProcess",
    "ReducedBlockingIO",
    "CheckpointResult",
    "RankReport",
    "CheckpointRule",
    "CheckpointSchedule",
    "ChunkingParams",
    "ChunkRef",
    "Manifest",
    "ManifestError",
    "ManifestSection",
    "UnrecoverableCheckpointError",
    "chunk_boundaries",
    "chunk_spans",
    "checkpoint_instants",
    "checkpoint_ratio",
    "manifest_path",
    "production_improvement",
]
