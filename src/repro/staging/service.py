"""Per-job staging service: buffers + drain + replication in one facade.

:func:`attach_staging` hangs a :class:`StagingService` off ``job.services``
(the same idiom :func:`repro.storage.attach_storage` uses), after which any
checkpoint strategy can stage through it.  The service owns:

- one :class:`~repro.staging.buffer.BurstBuffer` per failure domain —
  per *pset* for ION-attached placement (reached through a modelled
  collective-network link) or per *compute node* for node-local placement —
  created lazily on first touch;
- the :class:`~repro.staging.drain.DrainScheduler` whose background
  processes trickle staged packages to whatever parallel file system is
  attached to the job (GPFS, Lustre, PVFS — the drain only sees the
  ``FSClient`` interface);
- optionally a :class:`~repro.staging.replicate.PartnerReplicator`.

Buffers are shared by every writer in the failure domain, which is exactly
what makes capacity pressure interesting at scale.
"""

from __future__ import annotations

from typing import Optional

from ..mpi import Job
from ..sim import Pipe
from .buffer import BurstBuffer, StagingConfig, StagingError
from .drain import DrainScheduler
from .replicate import PartnerReplicator

__all__ = ["StagingService", "attach_staging", "staging_of"]


class StagingService:
    """The staging tier of one job.

    Parameters
    ----------
    job:
        The owning :class:`~repro.mpi.Job`; its contexts must already have
        file-system clients attached (the drain writes through them).
    config:
        Staging tunables; defaults to :class:`StagingConfig`'s defaults.

    Drain windows land in the job's profiler (when it has one), the same
    Darshan-style record stream the storage layer writes.
    """

    def __init__(self, job: Job, config: Optional[StagingConfig] = None
                 ) -> None:
        self.job = job
        self.config = config if config is not None else StagingConfig()
        self._psets = job.config.pset_map(job.n_ranks)
        self._buffers: dict[int, BurstBuffer] = {}

        # The drain and the replicator reach back through the job, never
        # through a bound method of this service: every back-edge of a run
        # passes through its job, which is what Job.close() cuts.
        def fs_client_of(rank: int):
            fsc = job.contexts[rank].fs
            if fsc is None:
                raise StagingError(
                    f"rank {rank} has no file-system client; call "
                    "attach_storage before the drain runs"
                )
            return fsc

        self.drain = DrainScheduler(job.engine, fs_client_of,
                                    self.config, profiler=job.profiler)
        self.replicator: Optional[PartnerReplicator] = None
        if self.config.replicate:
            self.replicator = PartnerReplicator(
                job.engine, job.fabric,
                lambda rank: staging_of(job).buffer_for(rank),
                shift=self.config.replica_shift,
            )

    def domain_of(self, rank: int) -> int:
        """Failure-domain index of a rank (pset or node, per placement)."""
        if self.config.placement == "ion":
            return self._psets.pset_of_rank(rank)
        return self._psets.node_of_rank(rank)

    def buffer_for(self, rank: int) -> BurstBuffer:
        """The burst buffer serving ``rank`` (created on first touch)."""
        domain = self.domain_of(rank)
        buf = self._buffers.get(domain)
        if buf is None:
            cfg = self.config
            link = None
            if cfg.placement == "ion":
                # ION-attached: staged data crosses the pset's collective
                # network link before hitting the device.
                link = Pipe(self.job.engine,
                            self.job.config.collective_net_bandwidth)
            buf = BurstBuffer(
                self.job.engine,
                name=f"bb-{cfg.placement}{domain}",
                capacity_bytes=cfg.capacity_bytes,
                device_bandwidth=cfg.device_bandwidth,
                link=link,
            )
            self._buffers[domain] = buf
        return buf

    @property
    def buffers(self) -> list[BurstBuffer]:
        """All buffers created so far, in domain order."""
        return [self._buffers[d] for d in sorted(self._buffers)]

    def stats(self) -> dict:
        """Aggregated tier statistics (benches / diagnostics)."""
        bufs = self.buffers
        out = {
            "n_buffers": len(bufs),
            "placement": self.config.placement,
            "stalls": sum(b.stalls for b in bufs),
            "stall_seconds": sum(b.stall_seconds for b in bufs),
            "peak_used": max((b.peak_used for b in bufs), default=0),
            "drain": self.drain.stats(),
        }
        if self.replicator is not None:
            out["replication"] = self.replicator.stats()
        return out


def attach_staging(job: Job, config: Optional[StagingConfig] = None
                   ) -> StagingService:
    """Create a job's staging tier and register it under ``job.services``.

    Idempotent per job: attaching twice replaces the service (fresh
    buffers), mirroring how tests re-attach storage between phases.
    """
    service = StagingService(job, config=config)
    job.services["staging"] = service
    return service


def staging_of(job: Job) -> Optional[StagingService]:
    """The job's staging service, or ``None`` if never attached."""
    return job.services.get("staging")
