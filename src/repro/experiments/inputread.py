"""Global input-file read experiment (paper Section III-B).

NekCEM reads its global ``.rea`` mesh and ``.map`` partition files once at
presetup: rank 0 reads and parses the global data, then distributes it.
The paper reports 7.5 s for E = 136K elements on 32,768 processors and
28 s for E = 546K on 131,072 processors — slow enough to notice but, since
it happens once per run, not the optimization target (writes are).

This harness stages a realistically sized input file in the simulated GPFS,
has rank 0 read and parse it, and broadcasts the mesh data to all ranks.
"""

from __future__ import annotations

from typing import Optional

from ..mpi import Job
from ..storage import attach_storage
from ..topology import MachineConfig, intrepid

__all__ = ["REA_BYTES_PER_ELEMENT", "PARSE_CYCLES_PER_BYTE", "input_read_time"]

#: ASCII .rea size per element: 8 vertices x 3 coordinates x ~17 chars
#: plus boundary-condition lines.
REA_BYTES_PER_ELEMENT = 500

#: Text parsing cost on the 850 MHz PPC450 (float parsing dominated).
PARSE_CYCLES_PER_BYTE = 80.0


def input_read_time(n_ranks: int, elements: int,
                    config: Optional[MachineConfig] = None) -> dict:
    """Measure the presetup read of a global ``.rea`` file.

    Returns timings (seconds of virtual time) for the read, parse, and
    broadcast stages plus the total.
    """
    if elements < 1:
        raise ValueError("need at least one element")
    config = config if config is not None else intrepid()
    nbytes = elements * REA_BYTES_PER_ELEMENT
    job = Job(n_ranks, config)
    fs = attach_storage(job)
    fs.preload_file("/inputs/mesh.rea", nbytes)
    timings: dict[str, float] = {}

    def rank_main(ctx):
        eng = ctx.engine
        t0 = eng.now
        if ctx.rank == 0:
            handle = yield from ctx.fs.open("/inputs/mesh.rea")
            yield from ctx.fs.read(handle, 0, nbytes)
            yield from ctx.fs.close(handle)
            timings["read"] = eng.now - t0
            # Parse the ASCII mesh (vertex coordinates, BCs).
            yield eng.timeout(nbytes * PARSE_CYCLES_PER_BYTE / ctx.config.cpu_hz)
            timings["parse"] = eng.now - t0 - timings["read"]
        t1 = eng.now
        yield from ctx.comm.bcast(value="meshdata", root=0, nbytes=nbytes)
        if ctx.rank == 0:
            timings["bcast"] = eng.now - t1
            timings["total"] = eng.now - t0
        return eng.now

    job.spawn(rank_main)
    job.run()
    job.close()
    timings["n_ranks"] = n_ranks
    timings["elements"] = elements
    timings["file_mb"] = nbytes / 1e6
    return timings
