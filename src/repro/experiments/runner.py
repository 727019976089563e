"""Run coordinated checkpoint steps and collect results.

This is the measurement harness every benchmark uses: build a job on the
simulated machine, attach storage and a profiler, run one (or several)
coordinated checkpoint steps with a given strategy, and return
:class:`~repro.ckpt.CheckpointResult` objects with the paper's metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ..ckpt import CheckpointData, CheckpointResult, CheckpointStrategy
from ..ckpt.data import EvolvingData
from ..ckpt.result import RankReport, ReportTable
from ..faults import FaultInjector, UnrecoverableCheckpointError, attach_faults
from ..mpi import Job, RunConfig
from ..profiling import DarshanProfiler
from ..sim.stages import Segment
from ..staging import StagingError
from ..storage import FSError, attach_storage
from ..topology import MachineConfig

__all__ = ["CheckpointRun", "normalize_gaps", "run_checkpoint_steps"]

DataBuilder = Union[CheckpointData, EvolvingData,
                    Callable[[int], CheckpointData]]

#: Computation gaps between checkpoint steps: one uniform value, or one
#: value per inter-step interval (``n_steps - 1`` of them).
GapSpec = Union[float, Sequence[float]]


def normalize_gaps(gap_seconds: GapSpec, n_steps: int) -> tuple[float, ...]:
    """Per-step pre-gap tuple of length ``n_steps`` (first entry always 0).

    A scalar means the classic uniform spacing; a sequence gives the gap
    before each step after the first (campaign checkpoint rules compile to
    these).  Entry ``i`` is the computation time a rank spends before
    entering step ``i``.  Every gap must be finite and non-negative.
    """
    if isinstance(gap_seconds, (int, float)):
        given = (float(gap_seconds),)
        gaps = given * (n_steps - 1)
    else:
        given = gaps = tuple(float(g) for g in gap_seconds)
        if len(gaps) != n_steps - 1:
            raise ValueError(
                f"need {n_steps - 1} inter-step gaps for {n_steps} steps, "
                f"got {len(gaps)}")
    if not all(math.isfinite(g) and g >= 0 for g in given):
        raise ValueError(f"gaps must be finite and non-negative, got "
                         f"{gap_seconds!r}")
    return (0.0,) + gaps


class CheckpointRun:
    """Everything produced by a checkpoint experiment run.

    ``profiler`` is ``None`` when the run's ``RunConfig`` switched
    profiling off (sweeps that never read profiles); figure pipelines
    always run with it on.  ``loop`` is the run's :class:`StepLoop`, what
    :meth:`restore` restarts from.
    """

    def __init__(self, job: Job, results: list[CheckpointResult],
                 loop: Optional[StepLoop] = None) -> None:
        self.job = job
        self.results = results
        self.loop = loop
        #: ``{rank: (step, fields)}`` once :meth:`restore` has returned.
        self.restored: Optional[dict[int, tuple]] = None
        #: ``{rank: (t0, t1)}``: from the restart barrier to the moment the
        #: kept generation's read returned on that rank.
        self.restore_windows: Optional[dict[int, tuple[float, float]]] = None

    @property
    def profiler(self) -> Optional[DarshanProfiler]:
        """The job's I/O profiler."""
        return self.job.profiler

    @property
    def result(self) -> CheckpointResult:
        """The (last) step's result."""
        return self.results[-1]

    @property
    def fs(self):
        """The job's file system."""
        return self.job.services["fs"]

    def restore(self) -> dict[int, tuple]:
        """Restart every rank from the newest generation all of them read
        back intact; return ``{rank: (step, fields)}``.

        The wave runs on the same job once the checkpoint steps and every
        background drain have settled.  It raises
        :class:`~repro.faults.UnrecoverableCheckpointError` when no
        generation survives — never a silently wrong restore.  All ranks
        take part (a real restart replaces crashed ranks).
        """
        # A closure over the loop, not the run: the run held from the job's
        # processes would be a cycle the refcount release cannot free.
        loop = self.loop
        self.job.spawn(lambda ctx: _restore_wave(
            ctx, loop.strategy, loop.data_fn(ctx.rank), loop.steps[::-1],
            loop.basedir))
        waves = self.job.run()  # {rank: (step, fields, t0, t1)}
        self.restored = {r: w[:2] for r, w in waves.items()}
        self.restore_windows = {r: w[2:] for r, w in waves.items()}
        return self.restored

    @property
    def restored_step(self) -> Optional[int]:
        """The generation the ranks agreed to restore, or ``None`` before
        :meth:`restore`."""
        return next(iter(self.restored.values()))[0] if self.restored else None

    @property
    def restore_seconds(self) -> Optional[float]:
        """The restart latency a failure recovery pays: from the
        coordinated restart start until the slowest rank holds its state;
        ``None`` before :meth:`restore`."""
        if not self.restore_windows:
            return None
        windows = self.restore_windows.values()
        return max(b for _a, b in windows) - min(a for a, _b in windows)


def _restore_wave(ctx, strategy: CheckpointStrategy, data, steps,
                  basedir: str):
    """One rank's restart of its ``data``: barrier, then the newest-first vote.

    Each step of ``steps`` is tried with ``strategy.restore``; a rank whose
    read fails validation (missing or truncated file, corrupt package,
    checksum mismatch) votes it down, and a min-allreduce agrees the vote
    so every rank falls back to the same generation together.  Returns
    ``(step, fields, t0, t1)``: ``t1`` is when the kept attempt's read
    returned, before its vote.
    """
    # Evolving workloads and applications: restore only needs the layout.
    template = data.template() if hasattr(data, "template") else data
    yield from ctx.comm.barrier()  # coordinated restart start
    t0 = ctx.engine.now
    last_failure = None
    for step in steps:
        ok, fields = 1, None
        try:
            fields = yield from strategy.restore(ctx, template, step,
                                                 basedir=basedir)
        except (FSError, StagingError, UnrecoverableCheckpointError) as exc:
            ok = 0
            # The message, not the exception: its traceback holds this
            # frame, and a frame holding it back would be a cycle.
            last_failure = str(exc)
        t1 = ctx.engine.now
        if (yield from ctx.comm.allreduce(ok, op=min)):
            return step, fields, t0, t1
    raise UnrecoverableCheckpointError(
        f"no restorable checkpoint generation among steps {list(steps)!r}"
        + (f" (last failure: {last_failure})"
           if last_failure is not None else ""),
        rank=ctx.rank,
    )


def _data_fn(data: DataBuilder):
    if isinstance(data, CheckpointData):
        return lambda _rank: data
    if isinstance(data, EvolvingData):
        return data.bind
    return data


@dataclass(eq=False)
class StepLoop:
    """One run's step loop: what every rank's program reads.

    :func:`run_checkpoint_steps` builds it, and a strategy's
    :meth:`~repro.ckpt.CheckpointStrategy.coalesce_plan` decides from it.
    ``data_fn(rank)`` is a rank's data (``data`` itself when a plan
    coalesces); ``steps`` is ``range(n_steps)``, a step being its own row
    of ``table``; ``gaps`` comes from :func:`normalize_gaps`, and the
    ``writer_set`` ranks skip them; ``faults`` is the job's injector.
    ``app``: the rank data objects are an application (DESIGN.md §6.1),
    whose ``advance(ctx, step)`` runs in every rank's gap slot and
    ``restore(step, fields)`` after a restart.
    """

    job: Job
    strategy: CheckpointStrategy
    data: DataBuilder
    data_fn: Callable
    steps: range
    basedir: str
    gaps: tuple
    barrier_each_step: bool
    writer_set: frozenset
    table: ReportTable
    faults: FaultInjector
    app: bool

    @property
    def synchronized(self) -> bool:
        """Whether every step starts at a world barrier."""
        return self.barrier_each_step or len(self.steps) == 1

    def rank_main(self, ctx, members=None):
        """``job.spawn`` target: rank ``ctx.rank``'s program in its process,
        or, in a plan range's first-rank slot, the program over ``members``."""
        return _ProcessProgram(self, ctx, self.data_fn(ctx.rank), members).run()


class _RunCohort:
    """Coalesced ranks going on from event callbacks: ``tail`` (for
    ``Segment.wait``), ``op`` (their checkpoint; ``None``: each member's
    own op) and their ranges' processes' ``done`` events (``left`` = 0)."""

    __slots__ = ("tail", "loop", "op", "left", "done")

    def __init__(self, loop: StepLoop, op) -> None:
        self.tail, self.loop, self.op, self.left, self.done = None, loop, op, 0, []

    def stepped(self, step: int, ranks: list) -> None:
        """World ``ranks`` filed step ``step``'s rows: the stages go on."""
        return _RankProgram(self.loop, ranks[0], ranks, self, self.loop.steps.index(step))._next()


class _RankProgram(Segment):
    """The step loop — gap or application, restart or barrier, crash
    check, checkpoint, rows — of a segment of world ``ranks`` (``None``:
    ``rank`` alone), driven from event callbacks by a :class:`_RunCohort`
    or, as a :class:`_ProcessProgram`, by a process."""

    __slots__ = ("loop", "rank", "i")

    def __init__(self, loop: StepLoop, rank: int, ranks, cohort, i: int) -> None:
        # StagedOp.__init__ flattened: one of these per member and step.
        self.then, self.result, self.up, self.sub = _RankProgram._gap, None, None, None
        self.loop, self.rank, self.ranks, self.cohort, self.i = loop, rank, ranks, cohort, i

    def _one(self, member: int) -> "_RankProgram":
        return _RankProgram(self.loop, member, None, self.cohort, self.i)

    def _dead(self) -> bool:
        faults = self.loop.faults
        return faults.has_rank_faults and faults.dead_at(
            self.rank, self.loop.job.engine.now)

    def _gap(self):
        loop = self.loop
        if loop.app:
            # On every rank (writers own slabs too).  A per-rank builder
            # never coalesces: this hand-off always meets a process.
            self.then = _RankProgram._barrier
            return self.data.advance(self.ctx, loop.steps[self.i])
        gap = loop.gaps[self.i]
        if gap > 0 and self.rank not in loop.writer_set and not self._dead():
            # Computation between checkpoints (nc * Tcomp); dedicated I/O ranks
            # (rbIO writers) drain instead.  A cohort segment: one timer, rest credited.
            engine = loop.job.engine
            if self.cohort is not None:
                engine.count_events(len(self.ranks) - 1)
            return self.wait(engine.timeout(gap), _RankProgram._barrier)
        return self._barrier()

    def _barrier(self, _ev=None):
        loop = self.loop
        if loop.steps[self.i] in loop.faults.restarts:
            # Every rank rolls back together, newest earlier generation
            # first; the wave's barrier stands in for the step's.
            self.then = _RankProgram._restored
            return _restore_wave(self.ctx, loop.strategy, self.data,
                                 loop.steps[:self.i][::-1], loop.basedir)
        if self.i and not loop.barrier_each_step:
            return self._checkpoint()
        # Coordinated checkpoint start.  Without per-step barriers ranks
        # iterate at their own pace (the solver's nearest-neighbour
        # coupling, not a global barrier, loosely synchronizes a real run)
        # — the mode that exposes rbIO writer backpressure.  Crashed ranks
        # still enter: crashes are cooperative at step boundaries, and the
        # barrier makes every rank evaluate the failure oracle at once.
        ranks, world = self.ranks, loop.job.world
        op = (world._barrier_arrive(self.rank) if ranks is None or len(ranks) == 1
              else world.arrive("barrier", ranks))
        return self.wait(op.event, _RankProgram._checkpoint)

    def _restored(self):
        loop, faults = self.loop, self.loop.faults
        step, fields = self.result[:2]
        self.result = None
        # Fired once: every rank is past the wave's barrier, so has fired it.
        faults.restarts.discard(loop.steps[self.i])
        if self.rank == 0:
            faults.log("restart", step=loop.steps[self.i], restored=step)
        if loop.app:
            self.data.restore(step, fields)
        self.i = step  # the run goes on after the restored generation
        return self._next()

    def _checkpoint(self, _ev=None):
        loop = self.loop
        strategy, step = loop.strategy, loop.steps[self.i]
        if self.ranks is not None:
            if self.cohort is None and self.op is None:  # a range's first step
                self.t0, self.then = loop.job.engine.now, _ProcessProgram._set_up
                return strategy.coalesced_setup(self.ctx, self.ranks, loop)
            return self._step(loop.job.engine.now)
        ctx, data = self.ctx, self.data
        # Evolving workloads materialize each step's state just before it
        # is checkpointed (successive generations genuinely differ).
        d = data.at_step(step) if hasattr(data, "at_step") else data
        if self._dead():
            # Dead for the rest of the campaign: it ghosts through any
            # collective setup (communicator splits) so the survivors'
            # collectives complete, but contributes no data.
            self.then = _RankProgram._crashed
            return strategy.ghost(ctx, d, step, loop.basedir)
        self.then = _RankProgram._file
        if strategy.checkpoint_op is None:
            return strategy.checkpoint(ctx, d, step, loop.basedir)
        return self.call(strategy.checkpoint_op(loop.job, ctx.fs, d, step,
                                                loop.basedir, ctx))

    def _step(self, t0: float):
        """The checkpoint, begun at ``t0``, of the segment's ranks."""
        cohort, data, step = self.cohort, self.loop.data, self.loop.steps[self.i]
        if cohort is None:  # lock-step, in the range's process
            self.then = _RankProgram._next
            return self.op(data, step, self.loop.table)
        if cohort.op is None:
            return self.each(_RankProgram._member)
        return cohort.op(self, data, step, t0)

    def _member(self):
        """A cohort member's own staged op (it files the row)."""
        loop = self.loop
        self.then = _RankProgram._next
        return self.call(loop.strategy.checkpoint_op(
            loop.job, loop.job.services["fs"].client(self.rank), loop.data,
            loop.steps[self.i], loop.basedir, loop))

    def _crashed(self):
        now = self.loop.job.engine.now
        self.result = RankReport(self.rank, "crashed", now, now, now, 0)
        return self._file()

    def _file(self):
        self.loop.table.file(self.i, self.result)
        self.result = None  # the row holds it; the process returns nothing
        return self._next()

    def _next(self):
        i = self.i = self.i + 1
        cohort = self.cohort
        if i < len(self.loop.steps):
            if cohort is not None and self.ranks is None:  # a member alone:
                self.ranks = [self.rank]  # its next wait may join others
            return self._gap()
        if cohort is None:
            return self.done()
        cohort.left -= 1 if self.ranks is None else len(self.ranks)
        if not cohort.left:
            for done in cohort.done:
                done.succeed()
            cohort.tail = None  # it points back into the cohort
        return None


class _ProcessProgram(_RankProgram):
    """The step loop in a process: rank ``ctx.rank``'s own (``ranks`` is
    ``None``) or a plan range's, which runs the first-step setup (begun at
    ``t0``), then goes on in lock-step (``op``) or waits for its cohort."""

    __slots__ = ("ctx", "data", "op", "t0")

    def __init__(self, loop: StepLoop, ctx, data, ranks=None) -> None:
        # Flattened: one of these per rank process.
        self.then, self.result, self.up, self.sub = _RankProgram._gap, None, None, None
        self.loop, self.rank, self.ctx, self.data = loop, ctx.rank, ctx, data
        self.ranks, self.cohort, self.op, self.i = ranks, None, None, 0

    def _set_up(self):
        """Go on in lock-step, or hand the ranks to ``key``'s cohort."""
        (key, op), self.result = self.result, None
        loop = self.loop
        if loop.strategy.checkpoint_op is None:
            self.op = op
            return self._step(self.t0)
        cohort = loop.job.services.setdefault("run:cohorts", {}).setdefault(
            key, _RunCohort(loop, op))
        cohort.left += len(self.ranks)
        cohort.done.append(loop.job.engine.event())
        _RankProgram(loop, self.rank, self.ranks, cohort, self.i)._step(self.t0)
        return self.wait(cohort.done[-1], _RankProgram.done)


def run_checkpoint_steps(strategy: CheckpointStrategy, n_ranks: int,
                         data: DataBuilder, n_steps: int = 1,
                         config: Optional[MachineConfig] = None,
                         seed: Optional[int] = None,
                         basedir: str = "/ckpt",
                         fs_type: str = "gpfs",
                         gap_seconds: GapSpec = 0.0,
                         barrier_each_step: bool = True,
                         run_config: Optional[RunConfig] = None
                         ) -> CheckpointRun:
    """Run ``n_steps`` coordinated checkpoint steps; return all results.

    Each step writes into its own ``stepNNNNNN`` directory, as NekCEM does
    (restart files double as visualization dumps).  ``fs_type`` selects the
    storage variant ("gpfs" default, "lustre"/"pvfs" for the comparison
    studies); ``gap_seconds`` inserts computation time between checkpoints
    (nc * Tcomp), during which rbIO writers drain their backlog.  It is a
    scalar (uniform spacing) or a sequence of ``n_steps - 1`` per-interval
    gaps — the form campaign checkpoint rules (every/at in sim or wall
    time) compile down to.

    ``run_config`` (:class:`~repro.mpi.RunConfig`) selects how the run
    executes: tracing, profiling, copy mode, rank coalescing (the
    strategy's :meth:`~repro.ckpt.CheckpointStrategy.coalesce_plan`, which
    sees the run's :class:`StepLoop`; coalesced runs are bit-identical to
    uncoalesced ones) and the :class:`~repro.faults.FaultSchedule`
    attached to the job.  ``data`` may build per-rank application objects
    (:class:`StepLoop`), whose ``advance`` takes the gaps' place; such a
    run never coalesces.

    The returned run is live: :meth:`CheckpointRun.restore` restarts from
    its checkpoints on the same job.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    job = Job(n_ranks, config, seed=seed, run_config=run_config)
    coalesce = job.run_config.coalesce
    fs = attach_storage(job, fs_type=fs_type)
    injector = attach_faults(job, job.run_config.faults)
    gaps = normalize_gaps(gap_seconds, n_steps)
    if injector.restarts and max(injector.restarts) >= n_steps:
        raise ValueError(f"a restart at step {max(injector.restarts)} is "
                         f"past the run's {n_steps} steps")
    # Rank 0's object speaks for the run: an application is decided once.
    app = callable(data) and hasattr(data(0), "advance")
    if app and any(gaps):
        raise ValueError("an application computes between steps: no gaps")
    writer_set = frozenset()
    if any(g > 0 for g in gaps) and hasattr(strategy, "writer_ranks"):
        writer_set = frozenset(strategy.writer_ranks(n_ranks))
    loop = StepLoop(job, strategy, data, _data_fn(data), range(n_steps),
                    basedir, gaps, barrier_each_step, writer_set,
                    ReportTable(n_steps, n_ranks), injector, app)
    plan = None
    if coalesce != "off" and not isinstance(data, CheckpointData):
        # Per-rank data builders can diverge, so only a single shared
        # CheckpointData object is provably the same for every rank.
        if coalesce == "require":
            raise ValueError(
                "coalesce='require' but the data is a per-rank builder, "
                "which may hand ranks different data: the runner takes no "
                "plan for it")
    elif coalesce != "off":
        plan = _checked_plan(strategy.coalesce_plan(n_ranks, loop), n_ranks)
    if coalesce == "require" and plan is None:
        raise ValueError(
            f"coalesce='require' but {strategy.name} offers no plan for "
            f"{n_steps} step(s) of {strategy.describe()} under faults "
            f"{sorted({s.kind for s in injector.schedule})}")
    # Spawn in world-rank order (a range's program in its first rank's
    # slot) so process bootstrap — and with it every same-time event tie
    # — happens in the same order as the uncoalesced run.
    r = 0
    for members in plan or ():
        job.spawn(loop.rank_main, ranks=range(r, members.start))
        job.spawn(loop.rank_main, members, ranks=[members.start])
        r = members.stop
    job.spawn(loop.rank_main, ranks=range(r, n_ranks))
    job.run()
    fs_stats = fs.stats()
    results = [CheckpointResult(strategy.name, loop.table,
                                params=strategy.describe(),
                                fs_stats=fs_stats, step=i)
               for i in range(n_steps)]
    return CheckpointRun(job, results, loop)


def _checked_plan(plan, n_ranks: int):
    """``plan`` if it is ascending, disjoint, non-empty ``range``s of
    consecutive ranks below ``n_ranks`` (or ``None``); raise otherwise.
    A subclassed strategy may offer anything."""
    if plan is None:
        return None
    stop = 0
    for members in plan:
        if not (isinstance(members, range) and members.step == 1
                and stop <= members.start < members.stop <= n_ranks):
            raise ValueError(
                f"coalesce plan {plan!r} is not ascending, disjoint, "
                f"non-empty ranges of consecutive ranks below {n_ranks}")
        stop = members.stop
    return plan
