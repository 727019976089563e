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

  - ``nf = ng`` (default): each writer owns a private file and flushes
    whenever its collective buffer fills — several fields per burst, no
    shared-file lock traffic, no collective synchronization.  The paper's
    ``MPI_COMM_SELF`` file adds no exchange, so the writer commits it
    itself (:class:`~repro.ckpt.base.PrivateCommit`).
  - ``nf = 1``: all writers collectively write one shared file
    (``MPI_File_write_at_all`` on the writers' communicator, every writer
    its own aggregator).  The field-major layout forces one commit per
    field, and extent allocation on the single file serializes — the 2x
    gap of Fig. 5.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..buffers import ByteRope, zeros
from ..faults import UnrecoverableCheckpointError
from ..mpi import CommView, RankContext
from ..mpiio import Hints, MPIFile
from .base import CheckpointStrategy, PrivateCommit
from .data import CheckpointData
from .incremental import manifest_files, plan_delta
from .layout import FileLayout, header_piece

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

    #: Darshan phase a writer's whole duty window is recorded as (bbIO:
    #: "stage"); rbIO writers record none.
    _writer_phase: Optional[str] = None

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
    def coalesce_plan(self, n_ranks: int, loop=None):
        """A group's workers are symmetric: one range each, in lock-step.

        Exact only while no worker can diverge.  Flow control first waits
        at step index ``max_outstanding`` (runs with more steps refuse);
        a TAM node leader completes after its members, so without a world
        barrier at every step it would start the next one late (refused);
        ``rank_crash`` / ``restart`` reroute, kill or roll back workers
        (refused).  File-system, network and staging faults reach only the
        writers, which keep their processes, and the fabric, which
        stretches each member's transfer in member order.
        """
        if loop is not None:
            binds = (self.max_outstanding is not None
                     and len(loop.steps) > self.max_outstanding)
            drifts = self.tam != "off" and not loop.synchronized
            if binds or drifts or self._moves_ranks(loop):
                return None
        w = self.workers_per_writer
        plan = tuple(range(first + 1, min(first + w, n_ranks))
                     for first in range(0, n_ranks, w) if first + 1 < n_ranks)
        return plan or None

    def coalesced_setup(self, ctx: RankContext, members, loop):
        """Generator: the workers' two setup splits (group, then writers
        vs workers), their group views left for later processes; returns
        the group communicator and the lock-step :meth:`_worker` body."""
        group = self.group_of(members[0])
        gviews = yield from ctx.comm.split_members(members, group)
        yield from ctx.comm.split_members(members, 1)
        self._leave_views(ctx.job, group, gviews)
        gview = gviews[members[0]]
        ranks = range(gview.rank, gview.rank + len(members))
        # TAM as the writer has it (no plan under rank faults).
        return gview.comm, partial(self._worker, ctx, gview, ranks, 0,
                                   self._tam_groups(ctx, gview, {}))

    # -- setup -------------------------------------------------------------
    def _setup(self, ctx: RankContext):
        """Generator: split group comm (and writers' comm) once, cache."""
        cache = self._cache(ctx)
        if "gcomm" not in cache:
            gcomm = self._left_view(ctx, self.group_of(ctx.rank))
            am_writer, wcomm = False, None
            if gcomm is None:  # not a worker a coalesced run split for
                gcomm = yield from ctx.comm.split(
                    color=self.group_of(ctx.rank))
                am_writer = gcomm.rank == 0
                wcomm = yield from ctx.comm.split(
                    color=0 if am_writer else 1)
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
        gcomm = cache["gcomm"]
        inj = ctx.job.services.get("faults")
        rank_faults = inj is not None and inj.has_rank_faults
        if rank_faults:
            # Writer failover reroutes individual workers across groups at
            # fault-oracle instants; only the flat worker->writer protocol
            # supports that, so TAM degrades to flat for the whole run.
            if self.tam == "require":
                raise ValueError(
                    f"{self.name}: tam='require' is incompatible with "
                    f"rank-crash fault schedules (writer failover needs the "
                    f"flat worker->writer protocol)")
            groups = cache["tam_groups"] = None
        else:
            groups = self._tam_groups(ctx, gcomm, cache)
        if cache["am_writer"]:
            return (yield from self._writer(ctx, cache, data, step, basedir))
        comm, dest = gcomm, 0
        if rank_faults:
            # Every rank evaluates the oracle at the same post-barrier
            # instant (identical to the normal path while nobody is dead).
            now = ctx.engine.now
            g = self.group_of(ctx.rank)
            if inj.dead_at(g * self.workers_per_writer, now):
                # My writer died: send to the adopter over world comm.
                comm = ctx.comm
                dest = self._adopter_rank(inj, g, self.n_groups(comm.size),
                                          now)
        return (yield from self._worker(ctx, comm, (comm.rank,), dest, groups,
                                        data, step))

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

    # -- gather --------------------------------------------------------------
    def _worker(self, ctx: RankContext, comm, ranks, dest: int, groups,
                data: CheckpointData, step: int, table=None):
        """Workers ``ranks`` (group ranks on ``comm``): one buffered Isend
        of the whole package each (:meth:`_send` to ``dest``: the writer,
        group rank 0, or the adopter on the world communicator once the
        writer is dead), then resume.  A rank's process passes itself and
        gets its report; a coalesced group's process passes all its
        workers and files their rows of ``table`` (the TAM leaders' own
        instants as point fixes), their Darshan phase as one member run
        and one span per completion class.

        With flow control, first drain acknowledgements until the
        in-flight count is under the bound: Eq. 4's lambda blocking (never
        in a coalesced group's plan).  The count restarts when the
        acknowledging rank changes (a dead writer acknowledges nothing);
        the writer acknowledges every member, wherever its package went.
        """
        eng = ctx.engine
        t0 = eng.now
        if self.max_outstanding is not None:
            cache = self._cache(ctx)
            target = comm.comm.world_ranks[dest]
            if cache.setdefault("ack_target", target) != target:
                cache["ack_target"] = target
                cache["outstanding"] = 0
            outstanding = cache.get("outstanding", 0)
            while outstanding >= self.max_outstanding:
                yield from comm.recv(source=dest, tag=_ACK_TAG)
                outstanding -= 1
            cache["outstanding"] = outstanding + 1
        t_member, t_leader = yield from self._send(ctx, comm, ranks, dest,
                                                   groups, data, step)
        nbytes = data.total_bytes
        if table is None:
            t_done = t_leader.get(ranks[0], t_member)
            if ctx.profiler is not None:
                ctx.profiler.record_phase(ctx.rank, "isend", t0, t_done, nbytes)
            return self._report(ctx, "worker", t0, t_done, t_done, nbytes,
                                isend_seconds=t_done - t0)
        members = range(ctx.rank, ctx.rank + len(ranks))
        # Leaders complete with their class, everyone else together.
        t_leader = {ctx.rank - ranks[0] + lead: t for lead, t in t_leader.items()}
        if ctx.profiler is not None:
            ctx.profiler.record_phase_members(
                members, "isend", t0, t_member, nbytes, late=t_leader or None)
        table.put(step, members, "worker", t0, t_member, t_member, nbytes,
                  t_member - t0)
        for m, t_done in t_leader.items():
            table.put(step, m, "worker", t0, t_done, t_done, nbytes,
                      t_done - t0)
        if ctx.job.tracer is not None:
            # Exporters expand a class's span to every class member.
            span_args = {} if groups is None else {"tam": True}
            by_end: dict[float, list[int]] = {}
            for m in members:
                by_end.setdefault(t_leader.get(m, t_member), []).append(m)
            for t_done, cls_members in by_end.items():
                self._span(ctx, "checkpoint", t0, t_done, nbytes,
                           members=tuple(cls_members), role="worker",
                           coalesced=True, **span_args)

    def _send(self, ctx: RankContext, comm, ranks, dest: int, groups,
              data: CheckpointData, step: int):
        """Generator: the buffered Isend of group ranks ``ranks``, in lock-step.

        One ``data`` package stands for each rank (symmetric).  ``dest``
        is the writer's rank on ``comm``.  Flat
        (``groups`` is ``None``), and under TAM for the members co-resident
        with the writer, a rank posts its package to ``dest``; other
        members post ``(group_rank, package)`` to their node's leader, and
        each leader combines its node's packages into **one** inter-node
        message to the writer (:meth:`_lead`).  Every post is the message
        of an ``isend(..., buffered=True)`` in the order the ranks' own
        processes issue them, complete after the local copy.

        Returns ``(t_member, t_leader)``: the instant every non-leader
        completes (``None`` if there is none), and ``{leader: instant}``.
        Leader classes run in child processes beside the members' copy;
        without members (a leader's own process) the class runs inline.
        """
        eng = ctx.engine
        fabric = comm.comm.fabric
        nbytes = data.total_bytes
        package = data.package()
        flat, remote, classes = ranks, (), {}
        if groups is not None:
            lead_of = groups.leader_of
            flat = [r for r in ranks if lead_of[r] == 0]
            remote = [r for r in ranks if lead_of[r] not in (0, r)]
            for r in ranks:
                if lead_of[r] == r:
                    classes.setdefault(len(groups.members_of[r]), []).append(r)
        if flat:
            comm.post_members(flat, dest, nbytes, _PKG_TAG_BASE + step, package)
        for src in remote:
            comm.post_members((src,), lead_of[src], nbytes,
                              _TAM_TAG_BASE + step, (src, package))
        gens = [self._lead(ctx, comm, cls, dest, groups, package, step)
                for cls in classes.values()]
        if flat or remote:
            children = [eng.process(gen) for gen in gens]
            yield eng.timeout(fabric.config.mpi_overhead
                              + fabric.local_copy_time(nbytes))
            t_member = eng.now
            done = (yield eng.all_of(children)) if children else ()
        else:
            (gen,) = gens
            t_member, done = None, [(yield from gen)]
        t_leader = {}
        for cls, t in zip(classes.values(), done):
            t_leader.update(dict.fromkeys(cls, t))
        return t_member, t_leader

    def _lead(self, ctx: RankContext, comm, leads, dest: int, groups,
              package, step: int):
        """Generator: the combined sends of one *symmetry class* of node
        leaders (equal member counts), complete after their local copy.

        The class representative receives its members' messages, then
        every class leader sends; the other leaders' member messages are
        consumed unread.  O(nodes) inter-node messages per group instead
        of O(workers).  Returns the instant the class completes."""
        fabric = comm.comm.fabric
        members_of = groups.members_of
        ttag = _TAM_TAG_BASE + step
        lead0 = leads[0]
        parts0 = [(lead0, package)] + [
            msg.payload for msg in (yield from CommView(comm.comm, lead0)
                                    .recv_all(members_of[lead0][1:], ttag))]
        total = sum(sum(pkg[0]) for _, pkg in parts0)
        for lead in leads:
            parts = (parts0 if lead == lead0
                     else [(src, package) for src in members_of[lead]])
            fabric.count_tam(len(parts))
            comm.post_members((lead,), dest, total, _PKG_TAG_BASE + step,
                              parts)
            if lead != lead0:
                view = CommView(comm.comm, lead)
                for src in members_of[lead][1:]:
                    view.irecv(src, ttag)
        yield ctx.engine.timeout(fabric.config.mpi_overhead
                                 + fabric.local_copy_time(total))
        return ctx.engine.now

    def _gather_group(self, ctx: RankContext, gcomm, data: CheckpointData,
                      step: int, alive, groups):
        """Generator: aggregate group packages and reorder to file order.

        ``alive`` are the group ranks to hear from (a dead worker sends
        nothing, so its block is simply absent).  With the group's node
        ``groups`` (TAM; ``None`` = flat) the receive loop is two-level:
        flat singles from the writer's own node and one combined
        ``[(group_rank, package), ...]`` message per remote node leader,
        rebuilt in group-rank order — layout and image are byte-identical
        to the flat gather's, only the message count differs.

        Returns ``(layout, image, packages)`` — the group's
        :class:`FileLayout`, the assembled field-major file image (``None``
        in size-only runs), and the raw per-member packages
        (:meth:`CheckpointData.package`), in group-rank order.
        Shared by rbIO's synchronous commit and bbIO's staged commit.
        """
        eng = ctx.engine
        tag = _PKG_TAG_BASE + step
        t_g0 = eng.now
        packages = [data.package()]
        if groups is None:
            packages += [msg.payload for msg in
                         (yield from gcomm.recv_all(alive, tag))]
        else:
            local = groups.members_of[0][1:]
            msgs = yield from gcomm.recv_all(
                list(local) + list(groups.leaders[1:]), tag)
            by_rank = {msg.source: msg.payload for msg in msgs[:len(local)]}
            for msg in msgs[len(local):]:
                by_rank.update(msg.payload)
            packages += [by_rank[src] for src in alive]
        member_sizes = [pkg[0] for pkg in packages]
        member_payloads = [pkg[1] for pkg in packages]
        first, n = member_sizes[0], len(member_sizes)
        if member_sizes.count(first) == n:  # a symmetric group: one row
            layout = FileLayout.uniform(data.header_bytes, first, n)
        else:
            layout = FileLayout(data.header_bytes, member_sizes)
        group_bytes = layout.total_size - data.header_bytes
        if groups is not None:
            self._span(ctx, "tam-gather", t_g0, eng.now, group_bytes,
                       cat="phase", step=step)
        # Reorder member-major packages into field-major file order: one
        # memory pass over the aggregation buffer.
        t_p0 = eng.now
        yield eng.timeout(group_bytes / ctx.config.memory_bandwidth)
        self._span(ctx, "pack", t_p0, eng.now, group_bytes, cat="phase",
                   step=step)
        image = self._field_major_image(layout, member_sizes, member_payloads)
        return layout, image, packages

    @classmethod
    def _field_major_image(cls, layout: FileLayout, member_sizes,
                           member_payloads) -> Optional[ByteRope]:
        """Assemble the file image (header zeros + field-major data).

        The returned rope lists header zeros followed by each field
        section's member blocks (which tile ``[header, total)`` exactly —
        the layout has no padding).  No payload byte is copied here; the
        simulated memory pass in :meth:`_gather_group` models the reorder
        cost.
        """
        blocks = cls._field_blocks(member_sizes, member_payloads)
        if blocks is None:
            return None
        head = [zeros(layout.header_bytes)] if layout.header_bytes else []
        return ByteRope.concat(head + [b for sec in blocks for b in sec])

    @staticmethod
    def _field_blocks(member_sizes, member_payloads):
        """``blocks[field][member]``: every member's field blocks as views
        into the members' own packages (``None`` in size-only runs).

        The member-major -> field-major reorder is a pure *gather of
        segment references* over this table.
        """
        if any(p is None for p in member_payloads):
            return None
        blocks = [[] for _ in member_sizes[0]]
        for sizes, payload in zip(member_sizes, member_payloads):
            rope = ByteRope.wrap(payload)
            lo = 0
            for section, sz in zip(blocks, sizes):
                section.append(rope.slice(lo, lo + sz))
                lo += sz
        return blocks

    # -- writer: gather -> plan -> commit --------------------------------------
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

    def _writer(self, ctx: RankContext, cache: dict, data: CheckpointData,
                step: int, basedir: str):
        """Writer: gather the group's packages, commit them, acknowledge.

        The dead — nobody, unless a rank-crash schedule is attached — are
        skipped in the gather and the acknowledgements, and the orphaned
        groups of dead writers are adopted after the writer's own commit.
        """
        eng = ctx.engine
        t0 = eng.now
        gcomm = cache["gcomm"]
        n_ranks = ctx.comm.size
        inj = ctx.job.services.get("faults")
        dead = inj.dead_ranks(t0) if inj is not None else ()
        alive = range(1, gcomm.size)
        if dead:
            alive = [src for src in alive if ctx.rank + src not in dead]
        gathered = yield from self._gather_group(ctx, gcomm, data, step,
                                                 alive, cache["tam_groups"])
        yield from self._commit_group(ctx, cache, data, step, basedir,
                                      gathered, dead)
        if self.max_outstanding is not None:
            # Flow control: acknowledge so workers release a slot.
            for dst in alive:
                gcomm.isend(dst, 8, tag=_ACK_TAG, buffered=True)
        for w in dead:
            og = self.group_of(w)
            if w == og * self.workers_per_writer and self._adopter_rank(
                    inj, og, self.n_groups(n_ranks), t0) == ctx.rank:
                yield from self._adopt_group(ctx, inj, og, data, step,
                                             basedir, dead)
        t_end = eng.now
        if self._writer_phase and ctx.profiler is not None:
            ctx.profiler.record_phase(ctx.rank, self._writer_phase, t0,
                                      t_end, gathered[0].total_size)
        return self._report(ctx, "writer", t0, t_end, t_end, data.total_bytes)

    def _adopt_group(self, ctx: RankContext, inj, group: int,
                     data: CheckpointData, step: int, basedir: str, dead):
        """Adopt a dead writer's group: gather its surviving workers'
        packages over world comm and commit them direct to the PFS.

        The dead writer's own contribution is gone, so the adopted file
        holds survivors only — a later restore of this generation rejects
        it by size and falls back; the failover's job is durability of the
        survivors' data and keeping the campaign running without hangs.
        """
        lo = group * self.workers_per_writer
        hi = min(lo + self.workers_per_writer, ctx.comm.size)
        alive = [r for r in range(lo + 1, hi) if r not in dead]
        if not alive:
            return
        tag = _PKG_TAG_BASE + step
        msgs = yield from ctx.comm.recv_all(alive, tag)
        member_sizes = [msg.payload[0] for msg in msgs]
        member_payloads = [msg.payload[1] for msg in msgs]
        layout = FileLayout(data.header_bytes, member_sizes)
        yield ctx.engine.timeout((layout.total_size - data.header_bytes)
                                 / ctx.config.memory_bandwidth)
        image = self._field_major_image(layout, member_sizes, member_payloads)
        yield from PrivateCommit(ctx.fs, (
            (self.file_path(basedir, step, group),
             ((0, layout.total_size, image),)),), self.writer_buffer).run()
        if self.max_outstanding is not None:
            for r in alive:
                ctx.comm.isend(r, 8, tag=_ACK_TAG, buffered=True)
        inj.log("writer_failover", group=group, adopter=ctx.rank, step=step,
                members=len(alive))

    def _commit_group(self, ctx: RankContext, cache: dict,
                      data: CheckpointData, step: int, basedir: str,
                      gathered, dead):
        """Generator: plan what the gathered group writes, and commit it.

        ``nf = ng``: the group's image — or, for a delta, its members'
        fresh chunks, packed member-major (delta files carry no
        field-major sections; the manifest, not a fixed layout, is what
        restore walks) and its manifest — goes to the writer's own files.
        ``nf = 1``: the writers place their groups in the one shared file
        through an allgather and commit collectively.  Workers send full
        packages either way (the fast path is untouched); dedup is
        writer-side against the previous generation's manifest.

        A delta describes a *complete* group: with a dead member
        (``nf = ng``) or any dead rank (``nf = 1``: the writers' delta
        collectives must all agree) the commit falls back to the plain,
        rejectable full write so restore voting skips it.  ``nf = 1`` with
        a dead writer: the writers' collective can never complete, so
        survivors skip this generation's shared commit entirely (restore
        falls back past it).
        """
        layout, image, packages = gathered
        header_bytes = data.header_bytes
        complete = len(packages) == cache["gcomm"].size
        manifest = None
        if not self.single_file:
            pieces = ((0, layout.total_size, image),)
            if self._delta_active(data) and complete:
                pieces, manifest = yield from plan_delta(
                    self, ctx, [(m, *pkg) for m, pkg in enumerate(packages)],
                    step, header_bytes, span_dedup=True)
            path = self.file_path(basedir, step, self.group_of(ctx.rank))
            yield from PrivateCommit(
                ctx.fs, ((path, pieces),) + manifest_files(path, manifest),
                self.writer_buffer).run()
        elif not any(r % self.workers_per_writer == 0 for r in dead):
            wcomm = cache["wcomm"]
            delta = self._delta_active(data) and not dead
            if delta:
                # Members are keyed by world rank in the one manifest.
                pieces, manifest = yield from plan_delta(
                    self, ctx, [(m, *pkg) for m, pkg in
                                enumerate(packages, start=ctx.rank)],
                    step, header_bytes, comm=wcomm, span_dedup=True)
            # A delta is placed before the file is opened, a full write
            # with it open: each keeps the order it has always had.
            f = yield from MPIFile.open(
                ctx, wcomm, self.shared_path(basedir, step), hints=self.hints)
            if not delta:
                pieces = yield from self._plan_shared(
                    wcomm, packages, header_bytes)
            # One write_at_all per piece (the master header is rank 0's
            # first), the close, then the manifest (a delta's rank 0).
            for offset, nbytes, payload in pieces:
                yield from f.write_at_all(offset, nbytes, payload=payload)
            yield from f.close()
            yield from PrivateCommit(
                ctx.fs, manifest_files(f.file.path, manifest)).run()

    def _plan_shared(self, wcomm, packages, header_bytes: int):
        """Generator: the full-write plan of one group in the shared file.

        The field-major layout forces one piece per field: the group's
        blocks are contiguous within each field section of the global
        layout over every member of every group (groups are contiguous
        world-rank blocks, in writers'-communicator order), which starts
        at the prefix sum of the gathered per-group member counts.
        """
        def global_layout(lists):
            firsts = [0]
            for group in lists:
                firsts.append(firsts[-1] + len(group))
            return firsts, FileLayout(
                header_bytes, [s for group in lists for s in group])

        member_sizes = [pkg[0] for pkg in packages]
        firsts, layout = yield from wcomm.allgather(
            member_sizes,
            nbytes=8 * len(member_sizes[0]) * len(member_sizes),
            map_fn=global_layout)
        blocks = self._field_blocks(member_sizes, [pkg[1] for pkg in packages])
        hdr = zeros(header_bytes) if blocks is not None else None
        pieces = header_piece(wcomm.rank, header_bytes, hdr)
        for fidx in range(len(member_sizes[0])):
            pieces.append((
                layout.block_offset(fidx, firsts[wcomm.rank]),
                sum(s[fidx] for s in member_sizes),
                None if blocks is None else ByteRope.concat(blocks[fidx])))
        return pieces

    # -- restore ---------------------------------------------------------------
    def _restore_file(self, ctx: RankContext, basedir: str):
        """The group's file (``nf = ng``) or the shared one (``nf = 1``)."""
        if self.single_file:
            return ctx.rank, lambda s: self.shared_path(basedir, s)
        group = self.group_of(ctx.rank)
        return (ctx.rank % self.workers_per_writer,
                lambda s: self.file_path(basedir, s, group))

    def _layout_comms(self, ctx: RankContext):
        """The group, then (``nf = 1``) every rank."""
        cache = yield from self._setup(ctx)
        return (cache["gcomm"], ctx.comm)[:1 + self.single_file]
