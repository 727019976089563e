"""Lustre-like storage variant (the paper's future work).

The paper closes by asking "how rbIO performs on platforms such as the
Cray XT with other file systems such as Lustre".  This variant swaps the
GPFS semantics for Lustre's, keeping the same client interface so every
checkpoint strategy runs unchanged:

- **Object striping**: a file is striped over a fixed ``stripe_count`` of
  OSTs (default 4), not over every server.  A single shared file can
  therefore drive at most ``stripe_count`` servers — the mechanism behind
  the poor shared-file MPI-IO performance Dickens & Logan reported on
  Lustre, and the reason the optimal number of checkpoint files differs
  per file system (the paper's Fig. 8 point).
- **Single MDS**: creates serialize through one metadata server with a
  constant service time (no GPFS directory-metanode growth).
- **Extent locks**: byte-range (not whole-block) server-side locks — no
  read-modify-write penalty for unaligned boundaries; revocation costs
  remain.
"""

from __future__ import annotations

from typing import Any

from ..sim import Engine, Resource, StreamRegistry
from ..topology import MachineConfig, PsetMap
from .gpfs import GPFS, FileObject

__all__ = ["LustreFS"]


class LustreFS(GPFS):
    """Lustre-flavoured shared file system.

    Parameters as :class:`~repro.storage.gpfs.GPFS`, plus:

    stripe_count:
        OSTs per file (Lustre default stripe count; 4 here).
    mds_service:
        Constant metadata-create service time through the single MDS.
    """

    #: Extent (byte-range) locks: unaligned boundaries need no RMW.
    whole_block_locks = False

    def __init__(self, engine: Engine, config: MachineConfig, psets: PsetMap,
                 streams: StreamRegistry, profiler: Any = None,
                 stripe_count: int = 4, mds_service: float = 1.0e-3) -> None:
        super().__init__(engine, config, psets, streams, profiler=profiler)
        if stripe_count < 1 or stripe_count > config.n_file_servers:
            raise ValueError(f"bad stripe count {stripe_count}")
        self.stripe_count = stripe_count
        self.mds_service = mds_service
        self._mds = Resource(engine, capacity=1)

    def server_of_block(self, file: FileObject, block: int) -> int:
        """Stripe file blocks over the file's ``stripe_count`` OSTs only."""
        ost_index = block % self.stripe_count
        # The file's OST set starts at a per-file offset (round-robin OST
        # allocation at create time).
        return (file.file_id * self.stripe_count + ost_index) % self.config.n_file_servers

    def create_service_time(self, dirname: str) -> float:
        """Constant MDS service (no directory-growth factor)."""
        return self.mds_service
