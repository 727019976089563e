"""Run coordinated checkpoint steps and collect results.

This is the measurement harness every benchmark uses: build a job on the
simulated machine, attach storage and a profiler, run one (or several)
coordinated checkpoint steps with a given strategy, and return
:class:`~repro.ckpt.CheckpointResult` objects with the paper's metrics.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from ..ckpt import CheckpointData, CheckpointResult, CheckpointStrategy
from ..ckpt.data import EvolvingData
from ..ckpt.result import RankReport, ReportTable
from ..faults import attach_faults
from ..mpi import Job, RunConfig
from ..profiling import DarshanProfiler
from ..storage import attach_storage
from ..topology import MachineConfig

__all__ = ["CheckpointRun", "normalize_gaps", "run_checkpoint_step",
           "run_checkpoint_steps"]

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
    entering step ``i``.
    """
    if isinstance(gap_seconds, (int, float)):
        gap = float(gap_seconds)
        if gap < 0:
            raise ValueError(f"negative gap_seconds: {gap}")
        return (0.0,) + (gap,) * (n_steps - 1)
    gaps = tuple(float(g) for g in gap_seconds)
    if len(gaps) != n_steps - 1:
        raise ValueError(
            f"need {n_steps - 1} inter-step gaps for {n_steps} steps, "
            f"got {len(gaps)}")
    if any(g < 0 for g in gaps):
        raise ValueError(f"negative inter-step gap in {gaps}")
    return (0.0,) + gaps


class CheckpointRun:
    """Everything produced by a checkpoint experiment run.

    ``profiler`` is ``None`` when the run's ``RunConfig`` switched
    profiling off (sweeps that never read profiles); figure pipelines
    always run with it on.
    """

    def __init__(self, job: Job, results: list[CheckpointResult]) -> None:
        self.job = job
        self.results = results

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


def _data_fn(data: DataBuilder):
    if isinstance(data, CheckpointData):
        return lambda _rank: data
    if isinstance(data, EvolvingData):
        return data.bind
    return data


def _rank_main(ctx, strategy: CheckpointStrategy, data_fn, steps: list[int],
               basedir: str, gaps: tuple[float, ...], barrier_each_step: bool,
               writer_set: frozenset, table: ReportTable):
    """Generator: one rank's steps; each step's report is filed in ``table``."""
    data = data_fn(ctx.rank)
    # Dedicated I/O ranks (rbIO writers) do not compute between
    # checkpoints — they spend the gap draining their backlog.  The writer
    # set is computed once per run and shared (rebuilding it per rank was
    # O(np^2) at 65K ranks).
    is_writer = ctx.rank in writer_set
    inj = ctx.job.services.get("faults")
    crash_t = inj.crash_time(ctx.rank) if inj is not None else None
    for i, step in enumerate(steps):
        dead = crash_t is not None and ctx.engine.now >= crash_t
        if gaps[i] > 0 and not is_writer and not dead:
            # Computation between checkpoints (nc * Tcomp).
            yield ctx.engine.timeout(gaps[i])
        if i == 0 or barrier_each_step:
            # Coordinated checkpoint start.  Without per-step barriers
            # ranks iterate at their own pace (the solver's nearest-
            # neighbour coupling, not a global barrier, is what loosely
            # synchronizes a real run) — this is the mode that exposes
            # rbIO writer backpressure.  Crashed ranks still enter the
            # barrier: crashes are cooperative at step boundaries, and the
            # barrier is what makes every rank evaluate the failure
            # oracle at the same instant.
            yield from ctx.comm.barrier()
        # Evolving workloads materialize each step's state just before it
        # is checkpointed (successive generations genuinely differ).
        d = data.at_step(step) if hasattr(data, "at_step") else data
        if crash_t is not None and ctx.engine.now >= crash_t:
            # This rank is dead for the rest of the campaign.  It ghosts
            # through any collective setup (communicator splits) so the
            # survivors' collectives complete, but contributes no data.
            yield from strategy.ghost(ctx, d, step, basedir)
            now = ctx.engine.now
            table.file(i, RankReport(
                rank=ctx.rank, role="crashed", t_start=now,
                t_blocked_end=now, t_complete=now, bytes_local=0))
            continue
        table.file(i, (yield from strategy.checkpoint(ctx, d, step, basedir)))


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
    executes: tracing, profiling, copy mode, rank coalescing (see
    :mod:`repro.sim.coalesce`; coalesced runs are bit-identical to
    uncoalesced ones) and the
    :class:`~repro.faults.FaultSchedule` attached to the job.  A non-empty
    schedule disables coalescing: faults target ranks individually, so
    every rank must actually run.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    job = Job(n_ranks, config, seed=seed, run_config=run_config)
    coalesce, faults = job.run_config.coalesce, job.run_config.faults
    fs = attach_storage(job, fs_type=fs_type)
    attach_faults(job, faults)
    steps = list(range(n_steps))
    gaps = normalize_gaps(gap_seconds, n_steps)
    writer_set = frozenset()
    if any(g > 0 for g in gaps) and hasattr(strategy, "writer_ranks"):
        writer_set = frozenset(strategy.writer_ranks(n_ranks))
    plan = None
    if coalesce != "off" and isinstance(data, CheckpointData) and not faults:
        # Per-rank data builders can diverge, so only a single shared
        # CheckpointData object is provably the same for every rank.  A
        # non-empty fault schedule also disqualifies coalescing.
        plan = strategy.coalesce_plan(n_ranks)
    if coalesce == "require" and plan is None:
        raise ValueError(
            f"coalesce='require' but {strategy.name} offers no plan for "
            f"this configuration"
        )
    table = ReportTable(n_steps, n_ranks)
    rank_args = (strategy, _data_fn(data), steps, basedir, gaps,
                 barrier_each_step, writer_set, table)
    if plan is None:
        job.spawn(_rank_main, *rank_args)
    else:
        # Spawn in world-rank order (reps in their group's first-worker
        # slot) so process bootstrap — and with it every same-time event
        # tie — happens in the same order as the uncoalesced run.
        for r, members in plan.spawn_order(n_ranks):
            if members is None:
                job.spawn(_rank_main, *rank_args, ranks=[r])
            else:
                job.spawn(plan.worker_main, members, data, steps, basedir,
                          gaps, barrier_each_step, table, ranks=[r])
    job.run()
    fs_stats = fs.stats()
    results = [CheckpointResult(strategy.name, table,
                                params=strategy.describe(),
                                fs_stats=fs_stats, step=i)
               for i in range(n_steps)]
    return CheckpointRun(job, results)


def run_checkpoint_step(strategy: CheckpointStrategy, n_ranks: int,
                        data: DataBuilder,
                        config: Optional[MachineConfig] = None,
                        seed: Optional[int] = None,
                        basedir: str = "/ckpt",
                        fs_type: str = "gpfs",
                        run_config: Optional[RunConfig] = None
                        ) -> CheckpointRun:
    """Run a single coordinated checkpoint step."""
    return run_checkpoint_steps(strategy, n_ranks, data, 1, config, seed,
                                basedir, fs_type, run_config=run_config)


def run_checkpoint_and_restore(strategy: CheckpointStrategy, n_ranks: int,
                               data: DataBuilder,
                               config: Optional[MachineConfig] = None,
                               seed: Optional[int] = None,
                               basedir: str = "/ckpt",
                               fs_type: str = "gpfs",
                               run_config: Optional[RunConfig] = None
                               ) -> dict:
    """One checkpoint step followed by a coordinated restart read.

    Returns the checkpoint :class:`~repro.ckpt.CheckpointResult` plus
    restart timing: the window from the coordinated restore start until
    the slowest rank holds its state again (the restart latency a failure
    recovery pays).
    """
    job = Job(n_ranks, config, seed=seed, run_config=run_config)
    fs = attach_storage(job, fs_type=fs_type)
    data_fn = _data_fn(data)
    restore_windows: dict[int, tuple[float, float]] = {}

    def rank_main(ctx):
        d = data_fn(ctx.rank)
        yield from ctx.comm.barrier()
        report = yield from strategy.checkpoint(ctx, d, 0, basedir)
        yield from ctx.comm.barrier()  # coordinated restart start
        t0 = ctx.engine.now
        yield from strategy.restore(ctx, d, 0, basedir)
        restore_windows[ctx.rank] = (t0, ctx.engine.now)
        return report

    job.spawn(rank_main)
    reports = job.run()
    result = CheckpointResult(strategy.name, reports,
                              params=strategy.describe(), fs_stats=fs.stats())
    job.close()
    t0 = min(a for a, _b in restore_windows.values())
    t1 = max(b for _a, b in restore_windows.values())
    total = sum(data_fn(r).total_bytes for r in range(n_ranks))
    return {
        "checkpoint": result,
        "restore_seconds": t1 - t0,
        "restore_bandwidth": total / (t1 - t0) if t1 > t0 else float("inf"),
        "per_rank_restore": {
            r: b - a for r, (a, b) in restore_windows.items()
        },
    }
