"""Symmetry-aware rank coalescing for the DES engine.

At figure scale the simulator replays tens of thousands of rank processes,
but most of them are *identical by construction*: every rbIO worker in a
64:1 group contributes the same checkpoint data, resumes from the same
barrier at the same instant, and performs the same single buffered Isend.
Simulating each of those ranks as its own generator process buys nothing —
their timelines are copies of each other.

Coalescing replays each symmetric group **once**: a single *representative*
process stands in for every member, performing each member's externally
visible actions (fabric transfers, mailbox deliveries, collective arrivals)
in member order from one generator.  Because

- per-member transfers still make the same :class:`~repro.sim.Pipe`
  reservations in the same order (the 63-into-1 writer incast serializes on
  the writer node's ejection pipe exactly as before),
- collective operations are still entered once per member (the arrival
  count, contribution slots, and completion timing of
  ``Communicator._collective_enter`` are unchanged; contiguous member
  ranges take the bulk O(1)-per-wave arrival path of
  ``Communicator._barrier_arrive_members``, which bumps the same counters
  in one step), and
- member timelines are identical by symmetry (their reports are synthesized
  from the representative's observed times),

the coalesced run is *exact*: writers, the file system, and every
downstream metric see the identical event timeline, at a fraction of the
process/event count.

Validity limits (enforced by the strategy's ``coalesce_plan`` and the
experiment runner, documented in DESIGN.md):

- per-member checkpoint data must be identical — the runner only coalesces
  when every rank shares one :class:`~repro.ckpt.CheckpointData` object;
- a *lock-step* replay (one generator acting for all members at once) is
  only valid while members cannot diverge: per-rank RNG draws (1PFPP's
  arrival jitter) or flow-control acknowledgements (``max_outstanding``)
  desynchronize the group, so those configurations offer no plan and run
  uncoalesced;
- a fault schedule targets ranks individually, so every rank must run.

Role-based replay for collective groups (coIO).  The ranks of a two-phase
collective write are not symmetric — file domains make some of them
aggregators — but the roles are a property of the communicator, known
before the run: :meth:`repro.ckpt.CollectiveIO.coalesce_plan` offers one
group per contiguous run of *non-aggregator* ranks (which only contribute
an extent and wait), and aggregators keep their processes.  Those members
do diverge — each draws its own file-open noise, and from then on they
reach every collective at their own time — so only the world barrier and
the communicator split go through the bulk entries.  After them a member
is a chain of plain event callbacks, each appended to the awaited event's
callback list at the moment the rank's process would have appended its
resume.  The engine fires callbacks in list order, so every member action
(collective arrival, fabric reservation, noise draw, Darshan record, span)
happens at the same position among the aggregators' and the other
members' actions as in the uncoalesced run: order-dependent state is equal
by construction rather than re-derived.  What is saved is the process —
a five-deep generator chain resumed ~30 times per rank per step.

Two-level aggregation (``tam``, rbIO) breaks *full* group symmetry — node
leaders block on their members' intra-node forwards before issuing the
combined inter-node message — but preserves it *per role*: all plain
members are symmetric, and leaders of equal-size node subgroups are
symmetric with each other.  rbIO therefore keeps its coalesce plan under
TAM and swaps in a role-aware replay
(:meth:`repro.ckpt.ReducedBlockingIO._coalesced_worker_tam`) that posts the
member traffic in bulk and replays each leader symmetry class from one
child process, so 64K-rank TAM sweeps stay as cheap as flat ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["GroupPlan", "CoalescePlan"]


@dataclass(frozen=True)
class GroupPlan:
    """One replayed group: ``rep`` stands in for every rank in ``members``.

    ``members`` are world ranks with identical schedules, or at least one
    shared role (``rep`` is the first of them); ranks not covered by any
    group run uncoalesced.
    """

    rep: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a coalesce group needs at least one member")
        if self.rep != self.members[0]:
            raise ValueError(
                f"rep {self.rep} must be the first member {self.members[0]}"
            )

    @property
    def is_contiguous(self) -> bool:
        """Whether members form a contiguous ascending rank range.

        Contiguous groups (every plan the checkpoint strategies produce)
        take the engine's bulk O(1)-per-wave collective arrival path;
        other shapes fall back to per-member entry with identical
        semantics.
        """
        m = self.members
        return list(m) == list(range(m[0], m[0] + len(m)))


@dataclass(frozen=True)
class CoalescePlan:
    """A strategy's offer to replay symmetric ranks once.

    ``worker_main(ctx, members, data, steps, basedir, gaps,
    barrier_each_step)`` is a generator run on each group's representative
    rank; it must return ``{member_rank: [RankReport, ...]}`` covering every
    member of that group for every step.  ``gaps`` is the normalized
    per-step pre-gap tuple (``len(steps)`` entries, first always 0) from
    :func:`repro.experiments.runner.normalize_gaps`.
    """

    groups: tuple[GroupPlan, ...]
    worker_main: Callable

    def rep_members(self) -> dict[int, tuple[int, ...]]:
        """Mapping representative rank -> the members it replays."""
        return {g.rep: g.members for g in self.groups}

    def replayed_ranks(self) -> frozenset:
        """Ranks that must *not* be spawned (replayed by a representative)."""
        out = set()
        for g in self.groups:
            out.update(g.members)
            out.discard(g.rep)
        return frozenset(out)

    @property
    def n_replayed(self) -> int:
        """How many rank processes the plan eliminates."""
        return sum(len(g.members) - 1 for g in self.groups)
