"""Simulated MPI runtime (communicators, p2p, collectives, job launcher)."""

from .core import (
    ANY_SOURCE,
    ANY_TAG,
    CommView,
    Communicator,
    Message,
    MPIError,
    Request,
)
from .job import Job, RankContext, RunConfig, RunStats, run_spmd

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CommView",
    "Communicator",
    "Message",
    "MPIError",
    "Request",
    "Job",
    "RankContext",
    "RunConfig",
    "RunStats",
    "run_spmd",
]
