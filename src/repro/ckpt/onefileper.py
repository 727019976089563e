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

from types import SimpleNamespace

from ..buffers import ByteRope, zeros
from ..faults.retry import retry_fs
from ..mpi import RankContext
from ..sim import CoalescePlan, GroupPlan, StagedOp
from .base import CheckpointStrategy
from .data import CheckpointData
from .incremental import plan_delta, write_manifest

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
        if arrival_jitter < 0:
            raise ValueError("negative jitter")
        self.arrival_jitter = arrival_jitter

    def describe(self) -> dict:
        return {"name": self.name, "nf": "np", "arrival_jitter": self.arrival_jitter}

    def rank_path(self, basedir: str, step: int, rank: int) -> str:
        """This rank's private output file (all in one directory)."""
        return f"{self.step_dir(basedir, step)}/p{rank:06d}.vtk"

    # -- coalescing -------------------------------------------------------
    def coalesce_plan(self, n_ranks: int):
        """Offer every rank as a continuation (:class:`_RankReplay`).

        Between a rank's waits nothing happens that a callback on the
        awaited event cannot do, so no rank needs a process.  Delta commits
        keep per-rank parent manifests and run uncoalesced.
        """
        if self.delta != "off":
            return None
        group = GroupPlan(rep=0, members=range(n_ranks))
        return CoalescePlan(groups=(group,),
                            worker_main=self.coalesced_worker_main)

    def coalesced_worker_main(self, ctx: RankContext, members,
                              data: CheckpointData, steps, basedir: str,
                              gaps, barrier_each_step: bool, table):
        """Generator: the one process of a coalesced run.

        It enters the first barrier for everybody, starts the ranks in rank
        order — as the barrier's release resumes rank processes — and waits
        for the last to finish.  The first wave's jitter is one vector
        draw: the values, in the order, of one scalar draw per rank.
        """
        yield from ctx.comm.barrier_members(members)
        job = ctx.job
        eng = job.engine
        run = SimpleNamespace(
            strategy=self, eng=eng, fs=job.services["fs"],
            tracer=job.tracer, table=table,
            world=ctx.comm.comm, rng=job.streams.stream("ckpt.jitter"),
            data=data, has_payload=data.has_payload,
            total_bytes=data.total_bytes,
            file_bytes=data.header_bytes + data.total_bytes, steps=steps,
            basedir=basedir, gaps=gaps, barrier_each_step=barrier_each_step,
            unfinished=len(members), done=eng.event())
        if self.arrival_jitter > 0:
            delays = run.rng.random(len(members)) * self.arrival_jitter
            for m, delay in zip(members, delays.tolist()):
                eng.timeout(delay).callbacks.append(_RankReplay(run, m).advance)
        else:
            for m in members:
                _RankReplay(run, m).advance()
        yield run.done

    @staticmethod
    def _file_payload(data: CheckpointData):
        """One rank's file image, header then fields (size-only: ``None``)."""
        if not data.has_payload:
            return None
        return ByteRope.concat(
            [zeros(data.header_bytes), data.concatenated_payload()])

    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: create own file, stream header + fields, close.

        Nobody gathers; the plan is the whole file as one piece — header
        and fields (full write) or header and the chunks absent from the
        parent generation, with the manifest that maps every logical chunk
        to the generation and offset holding its bytes (delta); the commit
        is a POSIX create / write / close.
        """
        eng = ctx.engine
        t0 = eng.now
        if self.arrival_jitter > 0:
            rng = ctx.job.streams.stream("ckpt.jitter")
            yield eng.timeout(float(rng.random()) * self.arrival_jitter)
        path = self.rank_path(basedir, step, ctx.rank)
        manifest = None
        if self._delta_active(data):
            pieces, manifest = yield from plan_delta(
                self, ctx, [(0, data.field_sizes, data.concatenated_payload())],
                step, data.header_bytes)
        else:
            pieces = [(0, data.header_bytes + data.total_bytes,
                       self._file_payload(data))]
        handle = yield from retry_fs(eng, lambda: ctx.fs.create(path),
                                     tracer=ctx.job.tracer)
        # POSIX stream write: header and fields leave the node as one
        # buffered sequential burst.
        for offset, nbytes, payload in pieces:
            yield from retry_fs(
                eng, lambda o=offset, n=nbytes, p=payload:
                    ctx.fs.write(handle, o, n, payload=p),
                tracer=ctx.job.tracer)
        yield from ctx.fs.close(handle)
        if manifest is not None:
            yield from write_manifest(ctx, manifest, path)
        t_end = eng.now
        return self._report(ctx, "independent", t0, t_end, t_end, data.total_bytes)

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


class _RankReplay(StagedOp):
    """One rank of a coalesced 1PFPP run, without a process.

    The stages are ``_rank_main``'s loop around :meth:`OneFilePerProcess.
    checkpoint`, cut at its waits, and :meth:`StagedOp.advance` takes each
    wait where the rank's process would have: noise draws, the directory
    token's FIFO, pipe reservations, ``active_streams``, Darshan records
    and spans fall in the uncoalesced order by construction.  What a
    create, write or close costs is ``FSClient``'s staged op.  ``run`` is
    what the ranks share (see ``coalesced_worker_main``).  A member builds
    no ``RankContext``: its client comes from the job's file system, and
    the replay, its client and its handle are gone when its last step ends.
    """

    __slots__ = ("run", "rank", "fs", "step", "t0", "handle")

    def __init__(self, run, rank: int) -> None:
        # Step 0 starts past its barrier and jitter (the worker main's).
        super().__init__(_RankReplay._create)
        self.run = run
        self.rank = rank
        self.fs = run.fs.client(rank)
        self.step = 0
        self.t0 = run.eng.now

    def _next_step(self):
        run = self.run
        gap = run.gaps[self.step]
        if gap > 0:
            self.then = _RankReplay._barrier
            return run.eng.timeout(gap)
        return self._barrier()

    def _barrier(self):
        run = self.run
        if run.barrier_each_step:
            self.then = _RankReplay._enter
            return run.world._barrier_arrive(self.rank).event
        return self._enter()

    def _enter(self):
        run = self.run
        self.t0 = run.eng.now
        jitter = run.strategy.arrival_jitter
        if jitter > 0:
            self.then = _RankReplay._create
            return run.eng.timeout(float(run.rng.random()) * jitter)
        return self._create()

    def _create(self):
        run = self.run
        self.then = _RankReplay._write
        return self.call(self.fs.create_op(run.strategy.rank_path(
            run.basedir, run.steps[self.step], self.rank)))

    def _write(self):
        run = self.run
        self.handle = self.result
        self.then = _RankReplay._close
        # A rope per member, as in checkpoint(): the copy counters count it.
        payload = (run.strategy._file_payload(run.data) if run.has_payload
                   else None)
        return self.call(self.fs.write_op(self.handle, 0, run.file_bytes,
                                          payload))

    def _close(self):
        self.then = _RankReplay._report
        return self.call(self.fs.close_op(self.handle))

    def _report(self):
        run = self.run
        now = run.eng.now
        run.strategy._put_report(run.table, run.tracer, self.step, self.rank,
                                 "independent", self.t0, now, now,
                                 run.total_bytes)
        self.step += 1
        if self.step < len(run.steps):
            return self._next_step()
        run.unfinished -= 1
        if not run.unfinished:
            run.done.succeed()
        return self.done()
