"""1 POSIX File Per Processor (1PFPP) — the traditional baseline.

Every rank creates its own output file (``nf = np``) in the step's shared
directory and streams its header plus fields into it.  The approach is
portable and simple but collapses at scale: tens of thousands of
simultaneous creates in one directory serialize through the directory
metanode, producing the 0-300+ s per-rank spread of Fig. 9 and the ~0.1 GB/s
effective bandwidth of Fig. 5.

A small random arrival jitter models the skew with which ranks actually hit
the metadata service (cache state, interrupt timing); it randomizes queue
order so the per-rank time distribution forms the paper's scatter cloud
rather than an artificial rank-ordered ramp.
"""

from __future__ import annotations

import math

from ..buffers import ByteRope, zeros
from ..mpi import RankContext
from ..sim import Timeout
from .base import CheckpointStrategy, PrivateCommit
from .data import CheckpointData
from .incremental import manifest_files, plan_delta

__all__ = ["OneFilePerProcess"]


class OneFilePerProcess(CheckpointStrategy):
    """The 1PFPP strategy (``nf = np``).

    Parameters
    ----------
    arrival_jitter:
        Upper bound (seconds) of the uniform per-rank delay before hitting
        the metadata service.
    """

    name = "1pfpp"

    def __init__(self, arrival_jitter: float = 0.2) -> None:
        if not (math.isfinite(arrival_jitter) and arrival_jitter >= 0):
            raise ValueError(f"arrival_jitter must be finite and "
                             f"non-negative, got {arrival_jitter!r}")
        self.arrival_jitter = arrival_jitter

    def describe(self) -> dict:
        return {"name": self.name, "nf": "np", "arrival_jitter": self.arrival_jitter}

    def rank_path(self, basedir: str, step: int, rank: int) -> str:
        """This rank's private output file (all in one directory)."""
        return f"{self.step_dir(basedir, step)}/p{rank:06d}.vtk"

    # -- coalescing -------------------------------------------------------
    def coalesce_plan(self, n_ranks: int, loop=None):
        """Offer every rank to the runner's cohort: between a rank's waits
        nothing happens that an event callback cannot do, and each member
        runs its :class:`_Checkpoint` with a client from the job's file
        system (each call retries its own faults).  Delta commits keep
        per-rank parent manifests, so they run uncoalesced, as schedules
        that move ranks do (:meth:`_moves_ranks`)."""
        if self.delta != "off" or self._moves_ranks(loop):
            return None
        return (range(n_ranks),)

    # -- checkpoint -------------------------------------------------------
    def checkpoint_op(self, job, client, data: CheckpointData, step: int,
                      basedir: str, sink) -> "_Checkpoint":
        """:meth:`checkpoint` of ``client``'s rank, staged.  ``sink`` is the
        rank's context (the op's ``result`` is the report) or, for a rank
        without one and with delta off, the run's step loop (the op files
        row ``step`` of its table)."""
        return _Checkpoint(self, job, client, data, step, basedir, sink)

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: create own file, stream header + fields, close."""
        return (yield from self.checkpoint_op(ctx.job, ctx.fs, data, step,
                                              basedir, ctx).run())

    def _restore_file(self, ctx: RankContext, basedir: str):
        """The rank's private file holds it alone: member 0."""
        return 0, lambda s: self.rank_path(basedir, s, ctx.rank)


class _Checkpoint(PrivateCommit):
    """One rank's checkpoint: jitter, plan, the commit, report.

    Nobody gathers; the plan is the whole file as one piece — header and
    fields (full write) or header and the chunks absent from the parent
    generation, with the manifest that maps every logical chunk to the
    generation and offset holding its bytes as one more file (delta); the
    commit is the :class:`~repro.ckpt.base.PrivateCommit` this op is.  The
    delta plan is a generator, handed to the rank's process.
    """

    __slots__ = ("strategy", "data", "step", "basedir", "sink", "t0")

    def __init__(self, strategy, job, client, data, step, basedir,
                 sink) -> None:
        # PrivateCommit.__init__ flattened: one of these per rank per step.
        self.then, self.result, self.up, self.sub = _Checkpoint._jitter, None, None, None
        self.client, self.files, self.handle, self.pieces = client, (), None, None
        self.strategy, self.data, self.step = strategy, data, step
        self.basedir, self.sink, self.t0 = basedir, sink, job.engine.now

    def _jitter(self):
        jitter = self.strategy.arrival_jitter
        if jitter <= 0:
            return self._plan()
        # The ``ckpt.jitter`` stream's only reader: a prefetched block
        # serves the values of one scalar ``rng.random()`` per call, in order.
        job = self.sink.job
        block = job.services.get("ckpt:jitter")
        if not block:
            block = job.services["ckpt:jitter"] = job.streams.stream(
                "ckpt.jitter").random(256)[::-1].tolist()
        self.then = _Checkpoint._planned if self.strategy.delta == "off" else _Checkpoint._plan
        return Timeout(job.engine, block.pop() * jitter)

    def _plan(self):
        data = self.data
        if not self.strategy._delta_active(data):
            return self._planned()
        self.then = _Checkpoint._planned
        return plan_delta(self.strategy, self.sink,
                          [(0, *data.package())],
                          self.step, data.header_bytes)

    def _planned(self):
        """A delta's pieces and manifest, or the full write's one piece,
        built once the file exists (:meth:`_created`)."""
        (pieces, blob), self.result = self.result or (None, None), None
        path = self.strategy.rank_path(self.basedir, self.step, self.client.rank)
        self.files = ((path, pieces),) + manifest_files(path, blob)
        return self._create()

    def _created(self):
        if self.pieces is None:
            # The full write (a metadata storm holds every member at its
            # create): header and fields leave the node as one buffered
            # sequential burst.
            data = self.data
            self.pieces = ((0, data.header_bytes + data.total_bytes,
                            ByteRope.concat([zeros(data.header_bytes),
                                             data.concatenated_payload()])
                            if data.has_payload else None),)
        return PrivateCommit._created(self)

    def _end(self):  # the report
        sink, now, nbytes = self.sink, self.sink.job.engine.now, self.data.total_bytes
        if isinstance(sink, RankContext):
            self.result = self.strategy._report(sink, "independent", self.t0,
                                                now, now, nbytes)
        else:
            self.strategy._put_report(sink.table, sink.job.tracer, self.step,
                                      self.client.rank, "independent",
                                      self.t0, now, now, nbytes)
        return self.done()
