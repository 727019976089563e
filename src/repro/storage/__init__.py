"""GPFS-like shared parallel file-system substrate."""

from ..mpi import Job
from .gpfs import FSClient, FSError, FileHandle, FileObject, GPFS
from .lustre import LustreFS
from .pvfs import PVFS

__all__ = [
    "GPFS",
    "LustreFS",
    "PVFS",
    "FSClient",
    "FSError",
    "FileHandle",
    "FileObject",
    "attach_storage",
]


def attach_storage(job: Job, fs_type: str = "gpfs", **fs_kwargs) -> GPFS:
    """Create a file system for ``job`` and attach per-rank clients.

    ``fs_type`` selects ``"gpfs"`` (the paper's Intrepid setup),
    ``"lustre"`` (the future-work variant), or ``"pvfs"`` (the lock-free
    comparison the paper wanted).  After this call ``ctx.fs`` of every
    :class:`~repro.mpi.RankContext` in the job is its :class:`FSClient`
    (built when the rank first uses it), reporting every operation to
    ``job.profiler`` when the job has one.  Returns the file system (also
    stored as ``job.services["fs"]``).
    """
    cls = {"gpfs": GPFS, "lustre": LustreFS, "pvfs": PVFS}.get(fs_type)
    if cls is None:
        raise ValueError(f"unknown fs_type {fs_type!r}")
    fs = cls(job.engine, job.config, job.config.pset_map(job.n_ranks),
             job.streams, profiler=job.profiler, **fs_kwargs)
    if "fs" in job.services:
        # Clients of the file system being replaced: only a context that
        # exists can hold one.
        for ctx in job.contexts.built():
            ctx.fs = None
    job.services["fs"] = fs
    return fs
