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
from ..sim import StagedOp, Timeout
from .base import CheckpointStrategy
from .data import CheckpointData
from .incremental import plan_delta, write_manifest
from .result import ReportTable

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
        without one and with delta off, the run's
        :class:`~repro.ckpt.result.ReportTable` (the op files row ``step``)."""
        return _Checkpoint(self, job, client, data, step, basedir, sink)

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: create own file, stream header + fields, close."""
        return (yield from self.checkpoint_op(ctx.job, ctx.fs, data, step,
                                              basedir, ctx).run())

    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: read this rank's fields back from its private file."""
        t_r0 = ctx.engine.now
        path_of = lambda s: self.rank_path(basedir, s, ctx.rank)  # noqa: E731
        fields = yield from self._restore_delta(ctx, template, step, 0,
                                                path_of)
        if fields is not None:
            return fields
        offsets = []
        pos = template.header_bytes
        for f in template.fields:
            offsets.append(pos)
            pos += f.nbytes
        return (yield from self._read_blocks(ctx, template, step,
                                             path_of(step), pos, offsets,
                                             t_r0))


class _Checkpoint(StagedOp):
    """One rank's checkpoint: jitter, plan, create, write each piece,
    close, manifest, report.

    Nobody gathers; the plan is the whole file as one piece — header and
    fields (full write) or header and the chunks absent from the parent
    generation, with the manifest that maps every logical chunk to the
    generation and offset holding its bytes (delta); the commit is a POSIX
    create / write / close, each ``FSClient``'s staged op (which absorbs
    its own transient faults).  The delta plan and the manifest write are
    generators, handed to the rank's process.
    """

    __slots__ = ("strategy", "job", "client", "data", "step", "basedir",
                 "sink", "t0", "handle", "plan")

    def __init__(self, strategy, job, client, data, step, basedir,
                 sink) -> None:
        # StagedOp.__init__ flattened: one of these per rank per step.
        self.then = _Checkpoint._jitter
        self.result = self.up = self.sub = None
        self.strategy = strategy
        self.job = job
        self.client = client
        self.data = data
        self.step = step
        self.basedir = basedir
        self.sink = sink
        self.plan = None  # a delta plan: (pieces left, manifest)
        self.t0 = job.engine.now

    def _jitter(self):
        jitter = self.strategy.arrival_jitter
        if jitter <= 0:
            return self._plan()
        # The ``ckpt.jitter`` stream's only reader: a prefetched block
        # serves the values of one scalar ``rng.random()`` per call, in order.
        block = self.job.services.get("ckpt:jitter")
        if not block:
            block = self.job.services["ckpt:jitter"] = self.job.streams.stream(
                "ckpt.jitter").random(256)[::-1].tolist()
        self.then = _Checkpoint._create if self.strategy.delta == "off" else _Checkpoint._plan
        return Timeout(self.job.engine, block.pop() * jitter)

    def _plan(self):
        data = self.data
        if not self.strategy._delta_active(data):
            return self._create()
        self.then = _Checkpoint._planned
        return plan_delta(self.strategy, self.sink,
                          [(0, *data.package())],
                          self.step, data.header_bytes)

    def _planned(self):
        pieces, manifest = self.result
        self.plan = (iter(pieces), manifest)
        return self._create()

    def _create(self):
        client = self.client
        path = self.strategy.rank_path(self.basedir, self.step, client.rank)
        self.then = _Checkpoint._write
        return self.call(client.create_op(path))

    def _write(self):
        self.handle = handle = self.result
        if self.plan is not None:  # delta: the planned pieces, in order
            return self._piece()
        # The full write: header and fields leave the node as one
        # buffered sequential burst.
        client, data = self.client, self.data
        nbytes = data.header_bytes + data.total_bytes
        payload = ByteRope.concat([zeros(data.header_bytes),
                                   data.concatenated_payload()]
                                  ) if data.has_payload else None
        self.then = _Checkpoint._close
        return self.call(client.write_op(handle, 0, nbytes, payload))

    def _piece(self):
        piece = next(self.plan[0], None)
        if piece is None:
            return self._close()
        self.then = _Checkpoint._piece
        return self.call(self.client.write_op(self.handle, *piece))

    def _close(self):
        self.then = (_Checkpoint._report if self.plan is None
                     else _Checkpoint._closed)
        return self.call(self.client.close_op(self.handle))

    def _closed(self):  # delta: the manifest, next to its data file
        self.then = _Checkpoint._report
        return write_manifest(self.sink, self.plan[1], self.handle.file.path)

    def _report(self):
        now, nbytes, sink = self.job.engine.now, self.data.total_bytes, self.sink
        if sink.__class__ is ReportTable:
            self.strategy._put_report(sink, self.job.tracer, self.step,
                                      self.client.rank, "independent",
                                      self.t0, now, now, nbytes)
        else:
            self.result = self.strategy._report(sink, "independent", self.t0,
                                                now, now, nbytes)
        return self.done()
