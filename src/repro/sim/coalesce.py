"""Rank coalescing: run a job without a generator process per rank.

At figure scale the simulator replays tens of thousands of ranks, most of
which need no process of their own.  A strategy says which in a
:class:`CoalescePlan`; the runner spawns one *representative* per group
and the strategy's ``worker_main`` stands in for the members.  Whatever
the idiom, a coalesced run is **exact**, not approximate: every pipe
reservation, collective arrival (``Communicator.arrive`` counts one per
member; contiguous ranges in lockstep enter in one step), noise draw,
Darshan record and span happens where it does in the uncoalesced run
(``tests/test_coalesce.py``).  Three idioms exist (DESIGN.md section 9):

- *Lock-step* (rbIO/bbIO workers).  Members of a 64:1 group are identical
  by construction — same data, same barrier release, one buffered Isend —
  so one generator performs each member's visible actions in member order
  and writes their rows of the run's report table, one slice per step,
  from its own times.  Valid only while
  members cannot diverge: flow-control acknowledgements
  (``max_outstanding``) offer no plan.  Under TAM symmetry holds per
  role, so the one replay
  (:meth:`repro.ckpt.ReducedBlockingIO.coalesced_worker_main`) is
  role-aware: node leaders are replayed per symmetry class, and the flat
  exchange is the case with no leader class.
- *Role-based continuations* (coIO).  Aggregator placement is a property
  of the file communicator, so the ranks that only contribute an extent
  and wait (62 of 64) are known before the run.  They do diverge — each
  draws its own file-open noise — so they are event callbacks, one per
  segment of members that wait side by side, appended to the awaited
  event's callback list where the first rank's process would have
  appended its resume.  Aggregators keep their processes.
- *One program, two drivers* (1PFPP).  Ranks diverge from the first
  instant (arrival jitter, the directory token's queue) but never interact
  except through the file system.  Each member runs the runner's own rank
  program (:meth:`~repro.experiments.runner.StepLoop.member`), a
  :class:`~repro.sim.StagedOp` that an uncoalesced rank runs in its
  process, here driven from event callbacks by one process.

The runner only coalesces when every rank shares one
:class:`~repro.ckpt.CheckpointData` object and no fault schedule is
attached (faults target ranks individually, so every rank must run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

__all__ = ["GroupPlan", "CoalescePlan"]


@dataclass(frozen=True)
class GroupPlan:
    """One replayed group: ``rep`` stands in for every rank in ``members``.

    ``members`` are world ranks with identical schedules, or at least one
    shared role (``rep`` is the first of them), ascending — a ``range``
    when contiguous (every strategy's are: no per-rank object in a plan);
    ranks not covered by any group run uncoalesced.
    """

    rep: int
    members: Sequence[int]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a coalesce group needs at least one member")
        if self.rep != self.members[0]:
            raise ValueError(
                f"rep {self.rep} must be the first member {self.members[0]}"
            )


@dataclass(frozen=True)
class CoalescePlan:
    """A strategy's offer to replay symmetric ranks once.

    ``worker_main(ctx, members, loop)`` is a generator run on each group's
    representative rank; ``loop`` is the run's
    :class:`repro.experiments.runner.StepLoop` (strategy, data, steps,
    basedir, gaps, per-step barrier, writer set and report table), and
    the generator must write every member's row of every step into
    ``loop.table``.
    """

    groups: tuple[GroupPlan, ...]
    worker_main: Callable

    def rep_members(self) -> dict[int, Sequence[int]]:
        """Mapping representative rank -> the members it replays."""
        return {g.rep: g.members for g in self.groups}

    def spawn_order(self, n_ranks: int
                    ) -> Iterator[tuple[int, Optional[Sequence[int]]]]:
        """What the runner spawns, in world-rank order: ``(rep, members)``
        for a representative, ``(rank, None)`` for a rank no group covers.
        A contiguous group is stepped over, not tested rank by rank."""
        reps = self.rep_members()
        skip: set = set()  # members of groups that are not contiguous
        r = 0
        while r < n_ranks:
            members = reps.get(r)
            if members is None:
                if r not in skip:
                    yield r, None
            else:
                yield r, members
                if isinstance(members, range) and members.step == 1:
                    r = members.stop
                    continue
                skip.update(members)
            r += 1
