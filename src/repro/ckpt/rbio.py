"""rbIO — reduced-blocking, application-level two-phase I/O (the paper's
contribution).

Ranks are partitioned into groups of ``workers_per_writer`` (the paper's
``np:ng`` ratio, 64:1 in production).  The first rank of each group is that
group's dedicated **writer**; the rest are **workers**:

- Workers ``MPI_Isend`` their entire checkpoint package (all fields) to
  their writer over the torus with *buffered* semantics and return as soon
  as the local copy completes — typically a few hundred microseconds for a
  ~2.4 MB package, which is what yields the perceived TB/s bandwidths of
  Table I.  Computation resumes immediately; I/O latency is hidden.
- The writer aggregates its group's packages, reorders them from
  member-major to the file's field-major layout, and commits:

  - ``nf = ng`` (default): each writer owns a private file opened with
    ``MPI_COMM_SELF`` (:meth:`~repro.mpiio.MPIFile.open_independent`) and
    flushes whenever its collective buffer fills — several fields per
    burst, no shared-file lock traffic, no collective synchronization.
  - ``nf = 1``: all writers collectively write one shared file
    (``MPI_File_write_at_all`` on the writers' communicator, every writer
    its own aggregator).  The field-major layout forces one commit per
    field, and extent allocation on the single file serializes — the 2x
    gap of Fig. 5.
"""

from __future__ import annotations

from typing import Optional

from ..buffers import ByteRope, zeros
from ..faults import UnrecoverableCheckpointError
from ..mpi import RankContext
from ..mpiio import Hints, MPIFile
from ..sim import CoalescePlan, GroupPlan
from .base import CheckpointStrategy
from .data import CheckpointData
from .layout import FileLayout
from .result import RankReport

__all__ = ["ReducedBlockingIO"]

_PKG_TAG_BASE = 1 << 24
_ACK_TAG = (1 << 24) - 1
#: Member -> node-leader forwards of the two-level (TAM) exchange; disjoint
#: from the package, ack and bbIO restore tag spaces.
_TAM_TAG_BASE = 3 << 24


class ReducedBlockingIO(CheckpointStrategy):
    """The rbIO strategy.

    Parameters
    ----------
    workers_per_writer:
        Group size (``np:ng`` ratio); the paper studies 64:1, 32:1, 16:1.
    single_file:
        ``False`` (default) = ``nf = ng`` (one file per writer);
        ``True`` = ``nf = 1`` (writers collectively share one file).
    writer_buffer:
        Writer-side aggregation buffer; with ``nf = ng`` a flush commits
        this many bytes (multiple fields) per burst.  Default matches the
        BG/P collective-buffer size (16 MB).
    max_outstanding:
        Optional worker-side flow control: the number of checkpoint
        packages a worker may have in flight before it must wait for the
        writer's acknowledgement.  ``None`` (the paper's setup) means
        unbounded send buffering — workers never block beyond the Isend.
        With a bound, workers block when writers cannot drain between
        checkpoints: this is exactly the paper's lambda (the fraction of
        writer write time workers are blocked, Eq. 4), made measurable.
    """

    name = "rbio"

    def __init__(self, workers_per_writer: int = 64, single_file: bool = False,
                 writer_buffer: int = 16 * 1024 * 1024,
                 max_outstanding: Optional[int] = None,
                 hints: Optional[Hints] = None) -> None:
        if workers_per_writer < 2:
            raise ValueError("workers_per_writer must be >= 2")
        if writer_buffer < 1:
            raise ValueError("writer_buffer must be >= 1")
        if max_outstanding is not None and max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1 or None")
        self.workers_per_writer = workers_per_writer
        self.single_file = single_file
        self.writer_buffer = writer_buffer
        self.max_outstanding = max_outstanding
        # Writers are their own aggregators: the application already did
        # the two-phase exchange, so ROMIO must not re-shuffle.
        self.hints = hints or Hints(ranks_per_aggregator=1)

    def describe(self) -> dict:
        out = {
            "name": self.name,
            "np:ng": f"{self.workers_per_writer}:1",
            "nf": 1 if self.single_file else "ng",
            "writer_buffer": self.writer_buffer,
            "max_outstanding": self.max_outstanding,
        }
        if self.tam != "off":
            out["tam"] = self.tam
        return out

    def group_of(self, rank: int) -> int:
        """Writer-group index of a world rank."""
        return rank // self.workers_per_writer

    def n_groups(self, n_ranks: int) -> int:
        """Number of writer groups (= ng = number of writers)."""
        return -(-n_ranks // self.workers_per_writer)

    def writer_ranks(self, n_ranks: int) -> list[int]:
        """World ranks acting as writers."""
        return [g * self.workers_per_writer for g in range(self.n_groups(n_ranks))]

    def file_path(self, basedir: str, step: int, group: int) -> str:
        """Output path for one writer's file (nf=ng mode)."""
        return f"{self.step_dir(basedir, step)}/writer{group:05d}.vtk"

    def shared_path(self, basedir: str, step: int) -> str:
        """Output path of the single shared file (nf=1 mode)."""
        return f"{self.step_dir(basedir, step)}/all.vtk"

    # -- coalescing --------------------------------------------------------
    def coalesce_plan(self, n_ranks: int):
        """Workers within a group are symmetric: replay each group once.

        Coalescing is only exact when workers never diverge; flow control
        (``max_outstanding``) makes a worker's timeline depend on how many
        acknowledgements it has already drained, so it disables the plan.
        """
        if self.max_outstanding is not None:
            return None
        groups = []
        for g in range(self.n_groups(n_ranks)):
            w = g * self.workers_per_writer
            members = tuple(range(w + 1, min(w + self.workers_per_writer, n_ranks)))
            if members:
                groups.append(GroupPlan(rep=members[0], members=members))
        if not groups:
            return None
        return CoalescePlan(groups=tuple(groups),
                            worker_main=self.coalesced_worker_main)

    def coalesced_worker_main(self, ctx: RankContext, members, data:
                              CheckpointData, steps, basedir: str,
                              gaps, barrier_each_step: bool):
        """Generator: replay every worker of one group from its representative.

        Mirrors ``runner._rank_main`` + :meth:`_worker` member by member:
        collective arrivals are entered once per member (same arrival
        counts, same completion timing), each member's package moves through
        the fabric as its own transfer (same pipe reservations, so the
        writer-side incast is bit-identical), and the single shared eager
        copy time stands in for every member's local Isend completion.

        With TAM engaged the worker roles split by node position, so the
        replay hands off to :meth:`_coalesced_worker_tam`.
        """
        if self.tam != "off":
            inj = ctx.job.services.get("faults")
            if inj is None or not inj.has_rank_faults:
                from ..topology import NodeGroups
                world = (members[0] - 1,) + tuple(members)
                groups = NodeGroups(list(world), ctx.config.cores_per_node)
                if groups.nontrivial:
                    return (yield from self._coalesced_worker_tam(
                        ctx, members, data, steps, basedir, gaps,
                        barrier_each_step, groups))
        eng = ctx.engine
        comm = ctx.comm
        fabric = ctx.job.fabric
        nbytes = data.total_bytes
        copy = ctx.config.mpi_overhead + fabric.local_copy_time(nbytes)
        gviews = None
        reports: dict[int, list] = {m: [] for m in members}
        for i, step in enumerate(steps):
            if gaps[i] > 0:
                yield eng.timeout(gaps[i])
            if i == 0 or barrier_each_step:
                yield from comm.barrier_members(members)
            if gviews is None:
                # First step: stand in for every member of the two setup
                # splits (group comm, then writers-vs-workers comm).
                gviews = yield from comm.split_members(
                    [(m, self.group_of(m)) for m in members]
                )
                yield from comm.split_members([(m, 1) for m in members])
            t0 = eng.now
            tag = _PKG_TAG_BASE + step
            package = (tuple(data.field_sizes), data.concatenated_payload())
            # One bulk call posts every member's package to the writer
            # (group-local rank 0); transfers are still issued per member in
            # member order, so the writer-side incast is bit-identical.
            gviews[members[0]].post_members(
                [gviews[m].rank for m in members], 0, nbytes, tag=tag,
                payload=package)
            yield eng.timeout(copy)
            t_done = eng.now
            if ctx.profiler is not None:
                for m in members:
                    ctx.profiler.record_phase(m, "isend", t0, t_done, nbytes)
            # One representative span stands for the whole symmetry group;
            # exporters expand it to every member.
            self._span(ctx, "checkpoint", t0, t_done, nbytes,
                       members=tuple(members), role="worker", coalesced=True)
            for m in members:
                reports[m].append(RankReport(
                    rank=m, role="worker", t_start=t0, t_blocked_end=t_done,
                    t_complete=t_done, bytes_local=nbytes,
                    isend_seconds=t_done - t0,
                ))
        return reports

    def _coalesced_worker_tam(self, ctx: RankContext, members,
                              data: CheckpointData, steps, basedir: str,
                              gaps, barrier_each_step: bool, groups):
        """Generator: TAM-aware coalesced replay of one group's workers.

        Worker roles under TAM are not fully symmetric, so the replay is
        role-aware.  Writer-node members and plain members are replayed by
        bulk fire-and-forget posts plus the shared eager-copy timeout
        (exactly the flat replay's discipline).  Node leaders — whose
        timelines depend on their members' intra-node arrivals — are
        replayed by one child process per *symmetry class* (leaders with
        equal member counts behave identically): the child faithfully
        receives the class representative's member messages, posts every
        same-class leader's combined inter-node message at that instant
        (with its TAM accounting), consumes the remaining leaders' member
        messages fire-and-forget, and completes after the combined local
        copy.  Message sources, tags, payloads and per-message fabric
        transfers match the uncoalesced TAM run, so the writer-side gather
        — and hence the file image — is bit-identical.
        """
        eng = ctx.engine
        comm = ctx.comm
        fabric = ctx.job.fabric
        nbytes = data.total_bytes
        copy = ctx.config.mpi_overhead + fabric.local_copy_time(nbytes)
        world = (members[0] - 1,) + tuple(members)
        co_located = list(groups.members_of[0][1:])
        leaders = [lead for lead in groups.leaders if lead != 0]
        classes: dict[int, list[int]] = {}
        for lead in leaders:
            classes.setdefault(len(groups.members_of[lead]), []).append(lead)
        class_list = list(classes.values())
        gviews = None
        reports: dict[int, list] = {m: [] for m in members}
        for i, step in enumerate(steps):
            if gaps[i] > 0:
                yield eng.timeout(gaps[i])
            if i == 0 or barrier_each_step:
                yield from comm.barrier_members(members)
            if gviews is None:
                gviews = yield from comm.split_members(
                    [(m, self.group_of(m)) for m in members]
                )
                yield from comm.split_members([(m, 1) for m in members])
            t0 = eng.now
            tag = _PKG_TAG_BASE + step
            ttag = _TAM_TAG_BASE + step
            package = (tuple(data.field_sizes), data.concatenated_payload())
            if co_located:
                gviews[members[0]].post_members(co_located, 0, nbytes,
                                                tag=tag, payload=package)
            for lead in leaders:
                for src in groups.members_of[lead][1:]:
                    gviews[world[src]].post(lead, nbytes, tag=ttag,
                                            payload=(src, package))

            def leader_replay(lead0, leads):
                parts0 = [(lead0, package)]
                for src in groups.members_of[lead0][1:]:
                    msg = yield from gviews[world[lead0]].recv(source=src,
                                                               tag=ttag)
                    parts0.append(msg.payload)
                total = sum(sum(sizes) for _, (sizes, _p) in parts0)
                for lead in leads:
                    parts = ([(lead, package)]
                             + [(src, package)
                                for src in groups.members_of[lead][1:]])
                    fabric.count_tam(len(parts))
                    gviews[world[lead]].post(0, total, tag=tag, payload=parts)
                    if lead != lead0:
                        for src in groups.members_of[lead][1:]:
                            gviews[world[lead]].irecv(source=src, tag=ttag)
                yield eng.timeout(ctx.config.mpi_overhead
                                  + fabric.local_copy_time(total))
                return eng.now

            children = [eng.process(leader_replay(leads[0], leads))
                        for leads in class_list]
            yield eng.timeout(copy)
            t_member = eng.now
            done = yield eng.all_of(children)
            t_leader: dict[int, float] = {}
            for leads, t in zip(class_list, done):
                for lead in leads:
                    t_leader[lead] = t
            by_end: dict[float, list[int]] = {}
            for m in members:
                t_done = t_leader.get(gviews[m].rank, t_member)
                by_end.setdefault(t_done, []).append(m)
                if ctx.profiler is not None:
                    ctx.profiler.record_phase(m, "isend", t0, t_done, nbytes)
                reports[m].append(RankReport(
                    rank=m, role="worker", t_start=t0, t_blocked_end=t_done,
                    t_complete=t_done, bytes_local=nbytes,
                    isend_seconds=t_done - t0,
                ))
            # One representative span per symmetry class (members sharing a
            # completion time); exporters expand to every class member.
            for t_done, cls_members in by_end.items():
                self._span(ctx, "checkpoint", t0, t_done, nbytes,
                           members=tuple(cls_members), role="worker",
                           coalesced=True, tam=True)
        return reports

    # -- setup -------------------------------------------------------------
    def _setup(self, ctx: RankContext):
        """Generator: split group comm (and writers' comm) once, cache."""
        cache = self._cache(ctx)
        if "gcomm" not in cache:
            gcomm = yield from ctx.comm.split(color=self.group_of(ctx.rank))
            am_writer = gcomm.rank == 0
            wcomm = yield from ctx.comm.split(color=0 if am_writer else 1)
            cache["gcomm"] = gcomm
            cache["am_writer"] = am_writer
            cache["wcomm"] = wcomm if am_writer else None
        return cache

    def ghost(self, ctx: RankContext, data: CheckpointData, step: int,
              basedir: str = "/ckpt"):
        """A crashed rank still joins the (cached) communicator splits."""
        yield from self._setup(ctx)

    # -- checkpoint ----------------------------------------------------------
    def checkpoint(self, ctx: RankContext, data: CheckpointData, step: int,
                   basedir: str = "/ckpt"):
        """Generator: worker fast path or writer aggregation-and-commit."""
        cache = yield from self._setup(ctx)
        inj = ctx.job.services.get("faults")
        if inj is not None and inj.has_rank_faults:
            # Writer failover reroutes individual workers across groups at
            # fault-oracle instants; only the flat worker->writer protocol
            # supports that, so TAM degrades to flat for the whole run.
            if self.tam == "require":
                raise ValueError(
                    f"{self.name}: tam='require' is incompatible with "
                    f"rank-crash fault schedules (writer failover needs the "
                    f"flat worker->writer protocol)")
            cache["tam_groups"] = None
            return (yield from self._checkpoint_faulted(ctx, inj, cache, data,
                                                        step, basedir))
        gcomm = cache["gcomm"]
        groups = self._tam_groups(ctx, gcomm, cache)
        if not cache["am_writer"]:
            if groups is not None:
                return (yield from self._worker_tam(ctx, gcomm, groups, data,
                                                    step))
            return (yield from self._worker(ctx, gcomm, data, step))
        return (yield from self._writer(ctx, cache, data, step, basedir))

    def _tam_groups(self, ctx: RankContext, gcomm, cache: dict):
        """The group's :class:`NodeGroups`, or ``None`` for the flat path.

        Cached per rank: the split is static, so the node grouping is too.
        ``None`` is cached when TAM is off or when no node hosts more than
        one rank of the group (nothing to coalesce — ``"require"`` raises
        instead).
        """
        if self.tam == "off":
            cache["tam_groups"] = None
            return None
        if "tam_groups" not in cache:
            from ..topology import NodeGroups
            cpn = ctx.config.cores_per_node
            groups = NodeGroups(gcomm.comm.world_ranks, cpn)
            if not groups.nontrivial:
                if self.tam == "require":
                    raise ValueError(
                        f"{self.name}: tam='require' but no node hosts more "
                        f"than one rank of a writer group (cores_per_node="
                        f"{cpn}, workers_per_writer="
                        f"{self.workers_per_writer})")
                groups = None
            cache["tam_groups"] = groups
        return cache["tam_groups"]

    # -- failover ------------------------------------------------------------
    def _adopter_rank(self, inj, group: int, ng: int, now: float) -> int:
        """World rank of the surviving writer adopting ``group``.

        Every rank evaluates the same deterministic oracle at the same
        post-barrier time, so workers and the adopter agree without any
        election traffic: the next alive writer in cyclic group order.
        """
        for d in range(1, ng):
            w = ((group + d) % ng) * self.workers_per_writer
            if not inj.dead_at(w, now):
                return w
        raise UnrecoverableCheckpointError(
            f"no surviving writer to adopt group {group}")

    def _checkpoint_faulted(self, ctx: RankContext, inj, cache: dict,
                            data: CheckpointData, step: int, basedir: str):
        """Crash-aware checkpoint step (identical to the normal path while
        nobody is dead yet)."""
        now = ctx.engine.now
        gcomm = cache["gcomm"]
        g = self.group_of(ctx.rank)
        ng = self.n_groups(ctx.comm.size)
        if not cache["am_writer"]:
            writer = g * self.workers_per_writer
            if inj.dead_at(writer, now):
                target = self._adopter_rank(inj, g, ng, now)
                return (yield from self._worker_rerouted(ctx, data, step,
                                                         target))
            return (yield from self._worker(ctx, gcomm, data, step))
        return (yield from self._writer_faulted(ctx, inj, cache, data, step,
                                                basedir, now))

    def _worker_rerouted(self, ctx: RankContext, data: CheckpointData,
                         step: int, target: int):
        """Worker whose writer died: send to the adopter over world comm.

        Flow-control state is reset on every writer switch — outstanding
        packages at the dead writer will never be acknowledged.
        """
        eng = ctx.engine
        t0 = eng.now
        cache = self._cache(ctx)
        if self.max_outstanding is not None:
            if cache.get("ack_target") != target:
                cache["ack_target"] = target
                cache["outstanding"] = 0
            outstanding = cache.get("outstanding", 0)
            while outstanding >= self.max_outstanding:
                yield from ctx.comm.recv(source=target, tag=_ACK_TAG)
                outstanding -= 1
            cache["outstanding"] = outstanding + 1
        package = (tuple(data.field_sizes), data.concatenated_payload())
        req = ctx.comm.isend(target, data.total_bytes,
                             tag=_PKG_TAG_BASE + step, payload=package,
                             buffered=True)
        yield req.event
        t_done = eng.now
        if ctx.profiler is not None:
            ctx.profiler.record_phase(ctx.rank, "isend", t0, t_done,
                                      data.total_bytes)
        return self._report(ctx, "worker", t0, t_done, t_done,
                            data.total_bytes, isend_seconds=t_done - t0)

    def _writer_faulted(self, ctx: RankContext, inj, cache: dict,
                        data: CheckpointData, step: int, basedir: str,
                        now: float):
        """Writer step under a fault schedule: skip dead members, adopt
        orphaned groups of dead writers."""
        eng = ctx.engine
        t0 = eng.now
        gcomm = cache["gcomm"]
        g = self.group_of(ctx.rank)
        n_ranks = ctx.comm.size
        ng = self.n_groups(n_ranks)
        base = g * self.workers_per_writer
        dead_members = tuple(src for src in range(1, gcomm.size)
                             if inj.dead_at(base + src, now))
        layout, image, member_sizes, member_payloads = yield from \
            self._gather_group(ctx, gcomm, data, step,
                               dead_members=dead_members)
        dead_writers = [w for w in self.writer_ranks(n_ranks)
                        if inj.dead_at(w, now)]
        if not self.single_file:
            # Delta commits describe a *complete* group; a group missing a
            # dead member's block falls back to the plain (rejectable)
            # full write so restore voting skips it.
            if self._delta_active(data) and not dead_members:
                yield from self._commit_private_delta(
                    ctx, cache, member_sizes, member_payloads,
                    data.header_bytes, step, basedir)
            else:
                yield from self._commit_private(ctx, layout, image, step,
                                                basedir)
        elif not dead_writers:
            # nf=1: the writers' delta collectives must all agree, so delta
            # requires every rank of the world alive (each writer evaluates
            # the same oracle at the same post-barrier instant).
            if self._delta_active(data) and not any(
                    inj.dead_at(r, now) for r in range(n_ranks)):
                yield from self._commit_shared_delta(
                    ctx, cache, member_sizes, member_payloads,
                    data.header_bytes, step, basedir)
            else:
                yield from self._commit_shared(ctx, cache["wcomm"], layout,
                                               member_sizes, member_payloads,
                                               data.header_bytes, step,
                                               basedir)
        # nf=1 with a dead writer: the writers' collective can never
        # complete, so survivors skip this generation's shared commit
        # entirely (restore falls back past it) but still ack their group.
        self._ack_group(gcomm, dead_members=dead_members)
        for w in dead_writers:
            og = self.group_of(w)
            if self._adopter_rank(inj, og, ng, now) == ctx.rank:
                yield from self._adopt_group(ctx, inj, og, data, step,
                                             basedir, now)
        t_end = eng.now
        return self._report(ctx, "writer", t0, t_end, t_end, data.total_bytes)

    def _adopt_group(self, ctx: RankContext, inj, group: int,
                     data: CheckpointData, step: int, basedir: str,
                     now: float):
        """Adopt a dead writer's group: gather its surviving workers'
        packages over world comm and commit them direct to the PFS.

        The dead writer's own contribution is gone, so the adopted file
        holds survivors only — a later restore of this generation rejects
        it by size and falls back; the failover's job is durability of the
        survivors' data and keeping the campaign running without hangs.
        """
        eng = ctx.engine
        lo = group * self.workers_per_writer
        hi = min(lo + self.workers_per_writer, ctx.comm.size)
        alive = [r for r in range(lo + 1, hi) if not inj.dead_at(r, now)]
        if not alive:
            return
        tag = _PKG_TAG_BASE + step
        member_sizes: list[tuple[int, ...]] = []
        member_payloads: list[Optional[bytes]] = []
        for r in alive:
            msg = yield from ctx.comm.recv(source=r, tag=tag)
            sizes, payload = msg.payload
            member_sizes.append(sizes)
            member_payloads.append(payload)
        group_bytes = sum(sum(s) for s in member_sizes)
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        layout = FileLayout(data.header_bytes,
                            [list(s) for s in member_sizes])
        image = self._field_major_image(layout, member_sizes, member_payloads)
        yield from self._commit_private(ctx, layout, image, step, basedir,
                                        group=group)
        if self.max_outstanding is not None:
            for r in alive:
                ctx.comm.isend(r, 8, tag=_ACK_TAG, buffered=True)
        inj.log("writer_failover", group=group, adopter=ctx.rank, step=step,
                members=len(alive))

    def _worker(self, ctx: RankContext, gcomm, data: CheckpointData, step: int):
        """Worker: one buffered Isend of the whole package to the writer.

        With flow control enabled, first drain writer acknowledgements
        until the in-flight package count is under the bound — the time
        spent here is the lambda blocking of Eq. 4.
        """
        eng = ctx.engine
        t0 = eng.now
        cache = self._cache(ctx)
        if self.max_outstanding is not None:
            outstanding = cache.get("outstanding", 0)
            while outstanding >= self.max_outstanding:
                yield from gcomm.recv(source=0, tag=_ACK_TAG)
                outstanding -= 1
            cache["outstanding"] = outstanding + 1
        package = (tuple(data.field_sizes), data.concatenated_payload())
        req = gcomm.isend(0, data.total_bytes, tag=_PKG_TAG_BASE + step,
                          payload=package, buffered=True)
        yield req.event
        t_done = eng.now
        if ctx.profiler is not None:
            ctx.profiler.record_phase(ctx.rank, "isend", t0, t_done,
                                      data.total_bytes)
        return self._report(ctx, "worker", t0, t_done, t_done,
                            data.total_bytes, isend_seconds=t_done - t0)

    def _worker_tam(self, ctx: RankContext, gcomm, groups,
                    data: CheckpointData, step: int):
        """Worker step under two-level aggregation (TAM).

        Three roles by node position: members co-resident with the writer
        keep the flat single (their send is shared-memory traffic already);
        other members forward ``(group_rank, package)`` to their node's
        leader over shared memory; each leader coalesces its node's
        packages and issues **one** combined inter-node message to the
        writer — O(nodes) inter-node messages per group instead of the
        flat exchange's O(workers).  The writer rebuilds exact group-rank
        order (:meth:`_gather_group_tam`), so the committed file image is
        bit-identical to the flat path's.
        """
        eng = ctx.engine
        t0 = eng.now
        cache = self._cache(ctx)
        if self.max_outstanding is not None:
            # The writer still acknowledges every member directly, so flow
            # control is untouched by where the package physically travels.
            outstanding = cache.get("outstanding", 0)
            while outstanding >= self.max_outstanding:
                yield from gcomm.recv(source=0, tag=_ACK_TAG)
                outstanding -= 1
            cache["outstanding"] = outstanding + 1
        me = gcomm.rank
        lead = groups.leader_of[me]
        package = (tuple(data.field_sizes), data.concatenated_payload())
        if lead == 0:
            req = gcomm.isend(0, data.total_bytes, tag=_PKG_TAG_BASE + step,
                              payload=package, buffered=True)
        elif me != lead:
            req = gcomm.isend(lead, data.total_bytes,
                              tag=_TAM_TAG_BASE + step, payload=(me, package),
                              buffered=True)
        else:
            parts = [(me, package)]
            for src in groups.members_of[me][1:]:
                msg = yield from gcomm.recv(source=src,
                                            tag=_TAM_TAG_BASE + step)
                parts.append(msg.payload)
            total = sum(sum(sizes) for _, (sizes, _p) in parts)
            ctx.job.fabric.count_tam(len(parts))
            req = gcomm.isend(0, total, tag=_PKG_TAG_BASE + step,
                              payload=parts, buffered=True)
        yield req.event
        t_done = eng.now
        if ctx.profiler is not None:
            ctx.profiler.record_phase(ctx.rank, "isend", t0, t_done,
                                      data.total_bytes)
        return self._report(ctx, "worker", t0, t_done, t_done,
                            data.total_bytes, isend_seconds=t_done - t0)

    def _gather_group(self, ctx: RankContext, gcomm, data: CheckpointData,
                      step: int, dead_members: tuple = ()):
        """Generator: aggregate group packages and reorder to file order.

        Returns ``(layout, image, member_sizes, member_payloads)`` — the
        group's :class:`FileLayout`, the assembled field-major file image
        (``None`` in size-only runs), and the raw per-member packages.
        Shared by rbIO's synchronous commit and bbIO's staged commit.
        ``dead_members`` (group-comm source indices) are skipped: a dead
        worker sends nothing, so its block is simply absent.

        When the checkpoint step engaged TAM (``cache["tam_groups"]`` set
        by :meth:`checkpoint`), the gather dispatches to the two-level
        variant; fault paths always set it to ``None``, so degraded steps
        stay on the flat protocol.
        """
        if not dead_members:
            groups = self._cache(ctx).get("tam_groups")
            if groups is not None:
                return (yield from self._gather_group_tam(ctx, gcomm, groups,
                                                          data, step))
        eng = ctx.engine
        tag = _PKG_TAG_BASE + step
        # Aggregate: collect each member's (sizes, payload) package.
        member_sizes: list[tuple[int, ...]] = [tuple(data.field_sizes)]
        member_payloads: list[Optional[bytes]] = [data.concatenated_payload()]
        for src in range(1, gcomm.size):
            if src in dead_members:
                continue
            msg = yield from gcomm.recv(source=src, tag=tag)
            sizes, payload = msg.payload
            member_sizes.append(sizes)
            member_payloads.append(payload)
        group_bytes = sum(sum(s) for s in member_sizes)

        # Reorder member-major packages into field-major file order: one
        # memory pass over the aggregation buffer.
        t_p0 = eng.now
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "pack", t_p0, eng.now, group_bytes, cat="phase",
                   step=step)
        layout = FileLayout(data.header_bytes, [list(s) for s in member_sizes])
        image = self._field_major_image(layout, member_sizes, member_payloads)
        return layout, image, member_sizes, member_payloads

    def _gather_group_tam(self, ctx: RankContext, gcomm, groups,
                          data: CheckpointData, step: int):
        """Generator: two-level variant of :meth:`_gather_group`.

        Receives flat singles from the writer's own node and one combined
        ``[(group_rank, package), ...]`` message per remote node leader,
        then rebuilds the packages in group-rank order — layout and image
        are byte-identical to the flat gather's, only the message count
        differs.
        """
        eng = ctx.engine
        tag = _PKG_TAG_BASE + step
        t_g0 = eng.now
        packages: dict[int, tuple] = {
            0: (tuple(data.field_sizes), data.concatenated_payload())}
        for src in groups.members_of[0][1:]:
            msg = yield from gcomm.recv(source=src, tag=tag)
            packages[src] = msg.payload
        for lead in groups.leaders[1:]:
            msg = yield from gcomm.recv(source=lead, tag=tag)
            for src, pkg in msg.payload:
                packages[src] = pkg
        member_sizes: list[tuple[int, ...]] = []
        member_payloads: list[Optional[bytes]] = []
        for src in range(gcomm.size):
            sizes, payload = packages[src]
            member_sizes.append(tuple(sizes))
            member_payloads.append(payload)
        group_bytes = sum(sum(s) for s in member_sizes)
        self._span(ctx, "tam-gather", t_g0, eng.now, group_bytes,
                   cat="phase", step=step)
        t_p0 = eng.now
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "pack", t_p0, eng.now, group_bytes, cat="phase",
                   step=step)
        layout = FileLayout(data.header_bytes, [list(s) for s in member_sizes])
        image = self._field_major_image(layout, member_sizes, member_payloads)
        return layout, image, member_sizes, member_payloads

    def _writer(self, ctx: RankContext, cache: dict, data: CheckpointData,
                step: int, basedir: str):
        """Writer: gather group packages, reorder, commit to disk."""
        eng = ctx.engine
        t0 = eng.now
        gcomm = cache["gcomm"]
        layout, image, member_sizes, member_payloads = yield from \
            self._gather_group(ctx, gcomm, data, step)

        if self._delta_active(data):
            if not self.single_file:
                yield from self._commit_private_delta(
                    ctx, cache, member_sizes, member_payloads,
                    data.header_bytes, step, basedir)
            else:
                yield from self._commit_shared_delta(
                    ctx, cache, member_sizes, member_payloads,
                    data.header_bytes, step, basedir)
        elif not self.single_file:
            yield from self._commit_private(ctx, layout, image, step, basedir)
        else:
            yield from self._commit_shared(ctx, cache["wcomm"], layout,
                                           member_sizes, member_payloads,
                                           data.header_bytes, step, basedir)
        self._ack_group(gcomm)
        t_end = eng.now
        return self._report(ctx, "writer", t0, t_end, t_end, data.total_bytes)

    def _ack_group(self, gcomm, dead_members: tuple = ()) -> None:
        """Flow control: acknowledge the commit so workers release a slot."""
        if self.max_outstanding is not None:
            for dst in range(1, gcomm.size):
                if dst in dead_members:
                    continue
                gcomm.isend(dst, 8, tag=_ACK_TAG, buffered=True)

    @staticmethod
    def _field_major_image(layout: FileLayout,
                           member_sizes: list[tuple[int, ...]],
                           member_payloads: list
                           ) -> Optional[ByteRope]:
        """Assemble the file image (header zeros + field-major data).

        The member-major -> field-major reorder is a pure *gather of
        segment references*: the returned rope lists header zeros followed
        by each field section's member blocks as views into the members'
        own packages (which tile ``[header, total)`` exactly — the layout
        has no padding).  No payload byte is copied here; the simulated
        memory pass in :meth:`_gather_group` models the reorder cost.
        """
        if any(p is None for p in member_payloads):
            return None
        ropes = [ByteRope.wrap(p) for p in member_payloads]
        # Per-member prefix offset of each field block within its package.
        prefixes = []
        for sizes in member_sizes:
            run = 0
            pre = []
            for sz in sizes:
                pre.append(run)
                run += sz
            prefixes.append(pre)
        parts = [zeros(layout.header_bytes)] if layout.header_bytes else []
        n_fields = len(member_sizes[0])
        for f in range(n_fields):
            for m, rope in enumerate(ropes):
                lo = prefixes[m][f]
                parts.append(rope.slice(lo, lo + member_sizes[m][f]))
        return ByteRope.concat(parts)

    def _commit_private(self, ctx: RankContext, layout: FileLayout,
                        image: Optional[bytes], step: int, basedir: str,
                        group: Optional[int] = None):
        """nf=ng: sole-owner file, buffered multi-field flushes.

        ``group`` defaults to the writer's own; a failover adopter passes
        the orphaned group's index so the file lands at its usual path.
        """
        if group is None:
            group = self.group_of(ctx.rank)
        path = self.file_path(basedir, step, group)
        f = yield from MPIFile.open_independent(ctx, path, hints=self.hints)
        total = layout.total_size
        pos = 0
        while pos < total:
            burst = min(self.writer_buffer, total - pos)
            chunk = image[pos : pos + burst] if image is not None else None
            yield from f.write_at(pos, burst, payload=chunk)
            pos += burst
        yield from f.close()

    def _plan_group_delta(self, member_sizes, member_payloads, step: int,
                          parent_secs: dict, member_ids):
        """Plan every member's delta against its cached parent section.

        Fresh regions are packed sequentially (relative base 0); returns
        ``(sections, fresh_parts, fresh_total, hits, misses)``.
        """
        from .incremental import plan_section, shift_fresh

        sections = []
        fresh_parts = []
        fresh_total = 0
        hits = misses = 0
        for member, sizes, payload in zip(member_ids, member_sizes,
                                          member_payloads):
            plan = plan_section(
                ByteRope.wrap(payload), sizes, member=member, step=step,
                params=self.chunking, parent_section=parent_secs.get(member))
            sections.append(shift_fresh(plan.section, step, fresh_total))
            fresh_total += plan.fresh_bytes
            if plan.fresh_bytes:
                fresh_parts.append(plan.fresh)
            hits += plan.hits
            misses += plan.misses
        return sections, fresh_parts, fresh_total, hits, misses

    def _commit_private_delta(self, ctx: RankContext, cache: dict,
                              member_sizes, member_payloads,
                              header_bytes: int, step: int, basedir: str):
        """nf=ng delta: the writer's file holds only its group's fresh chunks.

        Layout is ``[header][member 0 fresh][member 1 fresh]...`` (packed,
        member-major — delta files carry no field-major sections; the
        manifest, not a fixed layout, is what restore walks).  Workers
        still send full packages (the fast path is untouched); dedup is
        writer-side against the previous generation's manifest.
        """
        from .incremental import Manifest, shift_fresh, write_manifest

        eng = ctx.engine
        group = self.group_of(ctx.rank)
        parents = cache.get("delta_parent")  # (step, {member: section})
        parent_step = parents[0] if parents else None
        parent_secs = parents[1] if parents else {}
        group_bytes = sum(sum(s) for s in member_sizes)
        sections, fresh_parts, fresh_total, hits, misses = \
            self._plan_group_delta(member_sizes, member_payloads, step,
                                   parent_secs, range(len(member_sizes)))
        # Chunking + hashing: one more pass over the aggregation buffer.
        t_c0 = eng.now
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "chunk", t_c0, eng.now, group_bytes, cat="phase",
                   step=step, hits=hits, misses=misses)
        sections = [shift_fresh(s, step, header_bytes) for s in sections]
        manifest = Manifest(
            strategy=self.name, step=step, parent=parent_step,
            header_bytes=header_bytes, chunking=self.chunking,
            sections=tuple(sections))
        parts = [zeros(header_bytes)] if header_bytes else []
        image = ByteRope.concat(parts + fresh_parts)
        total = header_bytes + fresh_total
        path = self.file_path(basedir, step, group)
        f = yield from MPIFile.open_independent(ctx, path, hints=self.hints)
        pos = 0
        while pos < total:
            burst = min(self.writer_buffer, total - pos)
            yield from f.write_at(pos, burst, payload=image[pos : pos + burst])
            pos += burst
        yield from f.close()
        manifest_bytes = yield from write_manifest(ctx, manifest, path)
        cache["delta_parent"] = (step, {s.member: s for s in sections})
        ctx.job.stats.record_commit(group_bytes, total + manifest_bytes,
                                    hits, misses)

    def _commit_shared_delta(self, ctx: RankContext, cache: dict,
                             member_sizes, member_payloads,
                             header_bytes: int, step: int, basedir: str):
        """nf=1 delta: writers collectively append their fresh regions.

        The writers allgather ``(sections, fresh_bytes)`` and one shared
        merge places each writer's fresh region by prefix sum, producing a
        single manifest (members keyed by world rank) written by writer 0.
        """
        from .incremental import Manifest, shift_fresh, write_manifest

        eng = ctx.engine
        wcomm = cache["wcomm"]
        base_rank = self.group_of(ctx.rank) * self.workers_per_writer
        parents = cache.get("delta_parent")
        parent_step = parents[0] if parents else None
        parent_secs = parents[1] if parents else {}
        group_bytes = sum(sum(s) for s in member_sizes)
        member_ids = [base_rank + m for m in range(len(member_sizes))]
        sections, fresh_parts, fresh_total, hits, misses = \
            self._plan_group_delta(member_sizes, member_payloads, step,
                                   parent_secs, member_ids)
        t_c0 = eng.now
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "chunk", t_c0, eng.now, group_bytes, cat="phase",
                   step=step, hits=hits, misses=misses)
        chunking = self.chunking
        strategy_name = self.name

        def merge(entries):
            bases = []
            all_sections = []
            pos = header_bytes
            for secs, fresh_bytes in entries:
                bases.append(pos)
                all_sections.extend(shift_fresh(s, step, pos) for s in secs)
                pos += fresh_bytes
            manifest = Manifest(
                strategy=strategy_name, step=step, parent=parent_step,
                header_bytes=header_bytes, chunking=chunking,
                sections=tuple(all_sections))
            return manifest, tuple(bases), pos

        manifest, bases, _total = yield from wcomm.allgather(
            (tuple(sections), fresh_total),
            nbytes=16 + 48 * sum(len(s.chunks) for s in sections),
            map_fn=merge)
        path = self.shared_path(basedir, step)
        f = yield from MPIFile.open(ctx, wcomm, path, hints=self.hints)
        if header_bytes:
            if wcomm.rank == 0:
                yield from f.write_at_all(0, header_bytes,
                                          payload=zeros(header_bytes))
            else:
                yield from f.write_at_all(0, 0)
        yield from f.write_at_all(bases[wcomm.rank], fresh_total,
                                  payload=ByteRope.concat(fresh_parts))
        yield from f.close()
        to_pfs = fresh_total
        if wcomm.rank == 0:
            manifest_bytes = yield from write_manifest(ctx, manifest, path)
            to_pfs += header_bytes + manifest_bytes
        mine = set(member_ids)
        cache["delta_parent"] = (step, {
            s.member: s for s in manifest.sections if s.member in mine})
        ctx.job.stats.record_commit(group_bytes, to_pfs, hits, misses)

    def _commit_shared(self, ctx: RankContext, wcomm, layout: FileLayout,
                       member_sizes: list[tuple[int, ...]],
                       member_payloads: list[Optional[bytes]],
                       header_bytes: int, step: int, basedir: str):
        """nf=1: writers collectively share one file; per-field commits."""
        path = self.shared_path(basedir, step)
        f = yield from MPIFile.open(ctx, wcomm, path, hints=self.hints)
        # Global layout over every member of every group (groups are
        # contiguous world-rank blocks, in writers'-communicator order).
        global_layout: FileLayout = yield from wcomm.allgather(
            [list(s) for s in member_sizes],
            nbytes=8 * len(member_sizes[0]) * len(member_sizes),
            map_fn=lambda lists: FileLayout(
                header_bytes, [s for group in lists for s in group]
            ),
        )
        first_member = wcomm.rank * len(member_sizes)
        if header_bytes:
            hdr = (zeros(header_bytes)
                   if all(p is not None for p in member_payloads) else None)
            if wcomm.rank == 0:
                yield from f.write_at_all(0, header_bytes, payload=hdr)
            else:
                yield from f.write_at_all(0, 0)
        n_fields = len(member_sizes[0])
        have_payload = all(p is not None for p in member_payloads)
        member_ropes = ([ByteRope.wrap(p) for p in member_payloads]
                        if have_payload else None)
        # Per-field prefix offsets into each member's package.
        prefixes = [[0] * len(member_sizes) for _ in range(n_fields + 1)]
        for m, sizes in enumerate(member_sizes):
            run = 0
            for fidx, sz in enumerate(sizes):
                prefixes[fidx][m] = run
                run += sz
        for fidx in range(n_fields):
            # My group's blocks are contiguous within the field section.
            offset = global_layout.block_offset(fidx, first_member)
            nbytes = sum(s[fidx] for s in member_sizes)
            chunk = None
            if member_ropes is not None:
                # Gather the members' field blocks as segment references.
                parts = []
                for m, rope in enumerate(member_ropes):
                    lo = prefixes[fidx][m]
                    parts.append(rope.slice(lo, lo + member_sizes[m][fidx]))
                chunk = ByteRope.concat(parts)
            yield from f.write_at_all(offset, nbytes, payload=chunk)
        yield from f.close()

    # -- restore ---------------------------------------------------------------
    def restore(self, ctx: RankContext, template: CheckpointData, step: int,
                basedir: str = "/ckpt"):
        """Generator: read this rank's blocks back from its group's file."""
        t_r0 = ctx.engine.now
        if self.delta != "off":
            from .incremental import manifest_exists
            if self.single_file:
                member = ctx.rank
                path_of = lambda s: self.shared_path(basedir, s)  # noqa: E731
            else:
                group = self.group_of(ctx.rank)
                member = ctx.rank % self.workers_per_writer
                path_of = (  # noqa: E731
                    lambda s: self.file_path(basedir, s, group))
            if manifest_exists(ctx, path_of(step)):
                fields = yield from self._delta_restore(
                    ctx, template, step, member=member, path_of=path_of)
                self._span(ctx, "restore", t_r0, ctx.engine.now,
                           template.total_bytes, step=step, delta=True)
                return fields
        cache = yield from self._setup(ctx)
        gcomm = cache["gcomm"]
        member = gcomm.rank
        # Layout within the group (or globally for nf=1).
        group_layout: FileLayout = yield from gcomm.allgather(
            list(template.field_sizes), nbytes=8 * template.n_fields,
            map_fn=lambda sizes: FileLayout(template.header_bytes, sizes),
        )
        if self.single_file:
            layout: FileLayout = yield from ctx.comm.allgather(
                list(template.field_sizes), nbytes=8 * template.n_fields,
                map_fn=lambda sizes: FileLayout(template.header_bytes, sizes),
            )
            member = ctx.rank
            path = self.shared_path(basedir, step)
        else:
            layout = group_layout
            path = self.file_path(basedir, step, self.group_of(ctx.rank))
        handle = yield from ctx.fs.open(path)
        if handle.file.size != layout.total_size:
            # Partial generation (aborted commit, failover file holding
            # survivors only): reject it so the fallback engages.
            yield from ctx.fs.close(handle)
            raise UnrecoverableCheckpointError(
                f"{path!r} has {handle.file.size} B, expected "
                f"{layout.total_size} B", step=step, path=path, rank=ctx.rank)
        fields = []
        for i, fld in enumerate(template.fields):
            offset = layout.block_offset(i, member)
            chunk = yield from ctx.fs.read(handle, offset, fld.nbytes)
            fields.append(chunk)
        yield from ctx.fs.close(handle)
        self._span(ctx, "restore", t_r0, ctx.engine.now,
                   template.total_bytes, step=step)
        return fields
