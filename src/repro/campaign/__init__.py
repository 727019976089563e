"""Declarative campaigns: spec -> compiler -> sharded sweep service.

Every figure, extension bench, and resilience sweep in this repo can be
stated as one *campaign*: a grid of (approach x processor-count [x
fault-rate]) points run on a configured machine under declarative
checkpoint and fault rules, productionized for many concurrent clients:

:mod:`repro.campaign.spec`
    The campaign spec: YAML/dict -> frozen dataclasses with schema
    validation and helpful errors.  Checkpoint rules follow muscle3's
    yMMSL shape (``every``/``at``/``start``/``stop`` in wall-clock time or
    solver steps, plus ``at_end``).

:mod:`repro.campaign.compiler`
    Deterministic expansion of a spec into runnable points, each with a
    content hash derived from every run-determining input (reusing the
    ``CACHE_VERSION``-keyed scheme of :mod:`repro.experiments.parallel`),
    and :func:`~repro.campaign.compiler.run_point`, the one executor of a
    point: a local sweep is ``run_sweep(run_point, expand(spec).points)``.

:mod:`repro.campaign.service`
    A long-lived supervisor that shards campaign points across worker
    processes, dedupes concurrent identical campaigns and in-flight
    points, streams results into the bounded JSON :class:`DiskCache`, and
    serves status/summaries to many concurrent clients.

:mod:`repro.campaign.http`
    A small stdlib HTTP JSON API over the service (submit campaign, poll
    progress, fetch results).

:mod:`repro.campaign.cli`
    ``repro-campaign`` (also reachable as ``repro-report campaign ...``):
    run/expand specs locally, serve the HTTP API, submit/poll remotely.
"""

from .compiler import CampaignPoint, ExpandedCampaign, expand, run_point
from .service import CampaignEvicted, SweepService, WorkerLost
from .spec import (
    CampaignCheckpoint,
    CampaignFaults,
    CampaignSpec,
    GridSpec,
    MachineSpec,
    ResumeSpec,
    SpecError,
    StepsSpec,
    WorkloadSpec,
)

__all__ = [
    "CampaignCheckpoint",
    "CampaignFaults",
    "CampaignPoint",
    "CampaignSpec",
    "ExpandedCampaign",
    "GridSpec",
    "MachineSpec",
    "ResumeSpec",
    "SpecError",
    "StepsSpec",
    "SweepService",
    "WorkerLost",
    "CampaignEvicted",
    "WorkloadSpec",
    "expand",
    "run_point",
]
