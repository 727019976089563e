"""Resilience campaigns: faulted checkpoint runs followed by restarts.

Builds on :func:`~repro.experiments.runner.run_checkpoint_steps`:
:func:`run_resilient_campaign` runs ``n_steps`` coordinated checkpoint
steps under a :class:`~repro.faults.FaultSchedule`, then (on the same
job, after all background drains settle) a coordinated resilient restore
(:meth:`~repro.ckpt.CheckpointStrategy.restore_resilient`) that agrees
on the newest generation every rank can read back intact.  Checkpoint
overhead against the injected fault rate is a campaign's ``fault_rates``
axis (:mod:`repro.campaign.compiler`).
"""

from __future__ import annotations

from typing import Optional

from ..ckpt import CheckpointStrategy
from ..faults import faults_of
from ..mpi import RunConfig
from ..topology import MachineConfig
from .runner import CheckpointRun, DataBuilder, _data_fn, run_checkpoint_steps

__all__ = ["ResilientCampaign", "run_resilient_campaign"]


class ResilientCampaign:
    """Outcome of one faulted checkpoint campaign plus its restart."""

    def __init__(self, run: CheckpointRun,
                 restored: Optional[dict[int, tuple]]) -> None:
        self.run = run
        #: ``{rank: (step, fields)}`` from the resilient restore, or ``None``
        #: when the campaign was run with ``restore=False``.
        self.restored = restored

    @property
    def results(self) -> list:
        """Per-step :class:`~repro.ckpt.CheckpointResult` objects."""
        return self.run.results

    @property
    def injector(self):
        """The job's :class:`~repro.faults.FaultInjector`."""
        return faults_of(self.run.job)

    @property
    def fault_report(self) -> dict:
        """Scheduled/injected fault accounting (see ``FaultInjector.report``)."""
        return self.injector.report()

    @property
    def restored_step(self) -> Optional[int]:
        """The generation the ranks agreed to restore (all ranks agree)."""
        if not self.restored:
            return None
        return next(iter(self.restored.values()))[0]


def _restore_main(ctx, strategy: CheckpointStrategy, data_fn, steps, basedir):
    template = data_fn(ctx.rank)
    if hasattr(template, "template"):
        # Evolving workloads: restore only needs the field layout.
        template = template.template()
    yield from ctx.comm.barrier()  # coordinated restart start
    step, fields = yield from strategy.restore_resilient(
        ctx, template, steps, basedir=basedir)
    return step, fields


def run_resilient_campaign(strategy: CheckpointStrategy, n_ranks: int,
                           data: DataBuilder, n_steps: int = 2,
                           config: Optional[MachineConfig] = None,
                           seed: Optional[int] = None,
                           basedir: str = "/ckpt",
                           fs_type: str = "gpfs",
                           gap_seconds: float = 0.0,
                           barrier_each_step: bool = True,
                           restore: bool = True,
                           run_config: Optional[RunConfig] = None
                           ) -> ResilientCampaign:
    """Checkpoint ``n_steps`` generations under faults, then restart.

    The fault schedule is ``run_config.faults``.  The restore wave is
    spawned on the *same* job after the checkpoint wave (and every
    background drain) has completed, trying generations
    newest first; it returns ``(step, fields)`` per rank or raises
    :class:`~repro.faults.UnrecoverableCheckpointError` when no generation
    survives — never a silently corrupt restore.  All ranks participate in
    the restart (a real restart replaces crashed ranks).
    """
    run = run_checkpoint_steps(
        strategy, n_ranks, data, n_steps, config=config, seed=seed,
        basedir=basedir, fs_type=fs_type, gap_seconds=gap_seconds,
        barrier_each_step=barrier_each_step, run_config=run_config,
    )
    restored = None
    if restore:
        steps_newest_first = list(range(n_steps - 1, -1, -1))
        run.job.spawn(_restore_main, strategy, _data_fn(data),
                      steps_newest_first, basedir)
        restored = run.job.run()
    return ResilientCampaign(run, restored)
