"""repro — reproduction of "Parallel I/O Performance for Application-Level
Checkpointing on the Blue Gene/P System" (Fu, Min, Latham, Carothers;
CLUSTER 2011).

The package implements the paper's contribution — the rbIO reduced-blocking
two-phase checkpointing approach, alongside tuned collective MPI-IO (coIO)
and the 1-POSIX-file-per-processor baseline — together with every substrate
the study depends on, built from scratch:

- :mod:`repro.sim` — discrete-event simulation kernel;
- :mod:`repro.topology` / :mod:`repro.network` — Blue Gene/P machine model
  (torus, psets/IONs, calibrated Intrepid constants);
- :mod:`repro.mpi` — simulated MPI (p2p, collectives, communicators);
- :mod:`repro.storage` — GPFS-like shared parallel file system (metadata
  service, block allocation, byte-range lock tokens, striped servers);
- :mod:`repro.mpiio` — ROMIO-like collective buffering (two-phase I/O,
  aggregators, aligned file domains, hints);
- :mod:`repro.ckpt` — the three checkpointing strategies + restart, plus
  the bbIO burst-buffer extension;
- :mod:`repro.staging` — multi-tier asynchronous checkpoint staging
  (burst buffers, background drain, partner replication);
- :mod:`repro.nekcem` — a NekCEM-like SEDG Maxwell solver (GLL bases,
  low-storage RK4, hex meshes, .rea/.map inputs, vtk outputs) with a
  slab-parallel driver on the simulated machine;
- :mod:`repro.buffers` — zero-copy scatter-gather payload buffers
  (:class:`~repro.buffers.ByteRope`) with data-plane copy accounting;
- :mod:`repro.profiling` — Darshan-style I/O instrumentation;
- :mod:`repro.model` — the paper's analytic models (Eqs. 1-7);
- :mod:`repro.experiments` — per-figure/table experiment harness.

Quickstart::

    from repro.ckpt import ReducedBlockingIO
    from repro.experiments import paper_data, run_checkpoint_steps

    run = run_checkpoint_steps(ReducedBlockingIO(workers_per_writer=64),
                               n_ranks=16384, data=paper_data(16384))
    print(run.result.write_bandwidth / 1e9, "GB/s")
    run.restore()                  # restart from it on the same job
    print(run.restore_seconds, "s to restart")
"""

from .buffers import ByteRope
from .ckpt import (
    BurstBufferIO,
    CheckpointData,
    CheckpointResult,
    CheckpointSchedule,
    CheckpointStrategy,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    RankReport,
    ReducedBlockingIO,
)
from .mpi import RunConfig
from .topology import MachineConfig, intrepid

__version__ = "1.1.0"

__all__ = [
    "BurstBufferIO",
    "ByteRope",
    "CheckpointData",
    "CheckpointResult",
    "CheckpointSchedule",
    "CheckpointStrategy",
    "CollectiveIO",
    "Field",
    "OneFilePerProcess",
    "RankReport",
    "ReducedBlockingIO",
    "RunConfig",
    "MachineConfig",
    "intrepid",
    "__version__",
]
