"""MPI-IO file interface: collective open, write and close.

Implements the ROMIO subset the paper's collective approaches use (coIO,
rbIO ``nf = 1``):

- ``MPI_File_open`` — collective create/open over a communicator
  (:meth:`MPIFile.open`).
- ``MPI_File_write_at_all`` — two-phase collective write
  (:meth:`MPIFile.write_at_all`).  The paper's coIO calls
  ``MPI_File_write_at_all_begin`` and ``_end`` back to back, which is this
  call; the rbIO ``nf = ng`` writer's ``MPI_COMM_SELF`` file adds no
  exchange, so it writes through :class:`~repro.storage.FSClient` itself.
- ``MPI_File_close`` — collective close.

The collective write follows BG/P ROMIO: access regions are exchanged, the
touched range is split into block-aligned file domains, one per designated
aggregator (``Hints.ranks_per_aggregator``, default 1:32), data is shuffled
point-to-point to aggregators, and each aggregator commits its domain in
``cb_buffer_size`` bursts.  All participants synchronize before returning —
the collective blocking the paper's rbIO is designed to avoid.
"""

from __future__ import annotations

from typing import Any, Optional

from ..buffers import ByteRope, overlay
from ..mpi import CommView, RankContext
from ..storage import FSClient, FileHandle
from ..topology import NodeGroups
from .aggregation import FlatExchange, TamExchange, plan_table
from .hints import Hints

__all__ = ["MPIFile", "SHUFFLE_TAG_BASE"]

#: Tag of collective call ``seq``'s shuffle messages is this plus ``seq``.
SHUFFLE_TAG_BASE = 1 << 20
#: Tag space of the intra-node (rank -> node leader) TAM shuffle; disjoint
#: from the inter-node shuffle tags so both phases of one call coexist.
_TAM_TAG_BASE = 1 << 22

_UNSET = object()


class MPIFile:
    """An open MPI-IO file as seen by one rank of its communicator.

    Construct via the generator classmethod :meth:`open`.
    """

    def __init__(self, comm: CommView, ctx: RankContext,
                 handle: FileHandle, path: str, hints: Hints) -> None:
        self.comm = comm
        self.fs: FSClient = ctx.fs
        self.tracer = ctx.job.tracer
        self.services = ctx.job.services
        self.handle = handle
        self.path = path
        self.hints = hints
        self._call_seq = 0
        self._staged: dict[int, list] = {}
        self._tam_groups_cache: Any = _UNSET
        self.closed = False

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, ctx: RankContext, comm: CommView, path: str,
             hints: Optional[Hints] = None):
        """Generator: collective create-or-open over ``comm``.

        Rank 0 of the communicator creates the file; everyone else opens it
        after a barrier (ROMIO's shared-file open protocol).
        """
        hints = hints or Hints()
        if comm.rank == 0:
            handle = yield from ctx.fs.create(path)
            if comm.size > 1:
                yield from comm.barrier()
        else:
            yield from comm.barrier()
            handle = yield from ctx.fs.open(path, write=True)
        return cls(comm, ctx, handle, path, hints)

    # ------------------------------------------------------------------
    # Collective I/O
    # ------------------------------------------------------------------
    def write_at_all(self, offset: int, nbytes: int, payload: Optional[bytes] = None):
        """Generator: blocking collective write (two-phase).

        Runs the two-phase exchange inline in the calling rank's process:
        there is nothing to overlap, so spawning a dedicated process per
        rank per call (the dominant object churn of coIO runs) would buy
        nothing.
        """
        self._check_open()
        seq = self._call_seq
        self._call_seq += 1
        yield from self._two_phase(seq, offset, nbytes, payload)

    def _two_phase(self, seq: int, offset: int, nbytes: int,
                   payload: Optional[bytes]):
        """The two-phase collective write, executed per rank.

        Phase 0 exchanges the access regions and builds the call's one
        shared plan; phase 1 ships every rank's data towards the
        aggregator(s) owning it; in phase 2 aggregators overlay what they
        received into their domain and commit it.  Only phase 1 knows
        about two-level aggregation (TAM, when the file's node groups are
        non-trivial): flat, a rank slices its own extent per domain and
        sends the pieces itself; two-level, it hands the extent to its
        node's leader over shared memory (no torus traffic), and the
        leader clips its node's extents against the file domains and sends
        *one* message per touched domain (``Fabric.count_tam`` records the
        coalescing).  The clipped piece set is identical either way, piece
        by piece, so the overlaid file image is bit-exact.

        Payloads travel as zero-copy ropes end to end: region descriptors
        plus segment views are shipped, never reassembled bytes.
        """
        comm = self.comm
        tag = SHUFFLE_TAG_BASE + seq
        tag_intra = _TAM_TAG_BASE + seq
        if payload is not None:
            payload = ByteRope.wrap(payload)
        groups = self._node_groups()
        eng = self.fs.fs.engine
        t_x0 = eng.now

        # Phase 0: exchange access regions (one shared exchange plan built).
        ex = yield from comm.allgather(
            (offset, nbytes), nbytes=16,
            map_fn=self._flat_exchange if groups is None
            else self._tam_exchange)
        if ex.empty:
            # Nothing to write anywhere: still synchronize.
            yield from comm.barrier()
            return
        me = comm.rank

        # Phase 1: shuffle my data towards the aggregator(s) owning it.
        send_reqs = []
        if groups is None:
            for dest, lo, hi in ex.sends(me):
                part = None
                if payload is not None:
                    part = payload[lo - offset : hi - offset]
                if dest == me:
                    # Self-contribution: no message needed.
                    self._staged.setdefault(tag, []).append((lo, hi, part))
                else:
                    send_reqs.append(comm.isend(dest, hi - lo, tag=tag,
                                                payload=(lo, hi, part)))
        elif groups.leader_of[me] != me:
            # Phase 1a: hand my extent to my node's leader (shared memory).
            if nbytes > 0:
                send_reqs.append(
                    comm.isend(groups.leader_of[me], nbytes, tag=tag_intra,
                               payload=(offset, nbytes, payload)))
        else:
            # Leader: coalesce the node's extents...
            t_g0 = eng.now
            parts: list[tuple[int, int, Optional[ByteRope]]] = []
            if nbytes > 0:
                parts.append((offset, nbytes, payload))
            parts += [msg.payload for msg in (yield from comm.recv_all(
                [m for m in groups.members_of[me][1:] if ex.raw[m][1] > 0],
                tag_intra))]
            # ...and forward one message per touched domain (phase 1b).
            for k in ex.send_domains.get(me, ()):
                dlo, dhi = ex.domains.domain(k)
                pieces = []
                total = 0
                for p_off, p_len, p_pay in parts:
                    lo = max(p_off, dlo)
                    hi = min(p_off + p_len, dhi)
                    if hi <= lo:
                        continue
                    part = None
                    if p_pay is not None:
                        part = p_pay[lo - p_off : hi - p_off]
                    pieces.append((lo, hi, part))
                    total += hi - lo
                dest = ex.aggregators[k]
                if dest == me:
                    self._staged.setdefault(tag, []).extend(pieces)
                else:
                    comm.comm.fabric.count_tam(len(pieces))
                    send_reqs.append(
                        comm.isend(dest, total, tag=tag, payload=pieces))
            tr = self.tracer
            if tr is not None:
                tr.span(comm.world_rank, "tam-gather", "mpiio", t_g0,
                        eng.now, sum(n for _o, n, _p in parts),
                        args={"path": self.path, "seq": seq,
                              "members": len(groups.members_of[me])})

        # Phase 2: aggregators receive their domain and commit it.
        k = ex.agg_index.get(me)
        if k is not None:
            pieces = self._staged.pop(tag, [])
            for msg in (yield from comm.recv_all(ex.expected[k], tag)):
                if groups is None:
                    pieces.append(msg.payload)
                else:
                    pieces.extend(msg.payload)
            yield from self._commit_domain(*ex.domains.domain(k), pieces)

        if send_reqs:
            yield from comm.waitall(send_reqs)
        yield from comm.barrier()
        tr = self.tracer
        if tr is not None:
            args = {"path": self.path, "seq": seq}
            if groups is not None:
                args["tam"] = True
            tr.span(comm.world_rank, "exchange", "mpiio", t_x0, eng.now,
                    nbytes, args=args)

    def _flat_exchange(self, raw: list) -> FlatExchange:
        """``allgather`` map: the call's shared plan, built by one rank.

        A bound method rather than a closure: every rank holds its
        ``map_fn`` for the whole collective, and a closure per rank per
        call is measurable resident memory at 8K ranks.
        """
        return FlatExchange.for_hints(raw, self.hints,
                                      self.fs.fs.config.fs_block_size,
                                      plan_table(self.services))

    def _tam_exchange(self, raw: list) -> TamExchange:
        """``allgather`` map of the two-level call (bound, as above)."""
        hints = self.hints
        return TamExchange(raw, self._node_groups(),
                           hints.n_aggregators(len(raw)),
                           self.fs.fs.config.fs_block_size,
                           align=hints.align_file_domains)

    def _node_groups(self) -> Optional[NodeGroups]:
        """Node co-residency of the file's communicator, or ``None``.

        ``None`` means the flat exchange runs: TAM is off, or no node
        hosts two ranks (nothing to
        coalesce — ``tam="require"`` raises instead of degrading
        silently).  Cached per file; the communicator never changes.
        """
        if self._tam_groups_cache is not _UNSET:
            return self._tam_groups_cache
        groups = None
        tam = self.hints.tam
        if tam != "off":
            cpn = self.fs.fs.config.cores_per_node
            candidate = NodeGroups(self.comm.comm.world_ranks, cpn)
            if candidate.nontrivial:
                groups = candidate
            elif tam == "require":
                raise ValueError(
                    f"tam='require' on {self.path!r}: no node hosts more "
                    f"than one rank of the communicator (cores_per_node="
                    f"{cpn}), two-level aggregation cannot engage")
        self._tam_groups_cache = groups
        return groups

    def _commit_domain(self, dlo: int, dhi: int,
                       pieces: list[tuple[int, int, Optional[bytes]]]):
        """Aggregator side: write the covered part of the domain in bursts.

        The received segment views are overlaid (offset-sorted, later
        shadows earlier — identical to the old ``bytearray`` assembly
        order) into one domain rope; no reassembly copy happens, the rope
        materializes at the file system's extent commit.
        """
        if not pieces:
            return
        pieces.sort(key=lambda p: p[0])
        lo = pieces[0][0]
        hi = max(p[1] for p in pieces)
        have_payload = any(p[2] is not None for p in pieces)
        data: Optional[ByteRope] = None
        if have_payload:
            data = overlay(((plo, part) for plo, _phi, part in pieces
                            if part is not None), lo, hi)
        # Commit in collective-buffer-sized bursts.
        cb = self.hints.cb_buffer_size
        eng = self.fs.fs.engine
        t_w0 = eng.now
        pos = lo
        while pos < hi:
            burst = min(cb, hi - pos)
            chunk = data[pos - lo : pos - lo + burst] if data is not None else None
            yield from self.fs.write(self.handle, pos, burst, payload=chunk)
            pos += burst
        tr = self.tracer
        if tr is not None:
            tr.span(self.comm.world_rank, "commit", "mpiio", t_w0, eng.now, hi - lo,
                    args={"path": self.path, "domain": [dlo, dhi]})

    # ------------------------------------------------------------------
    # Closing
    # ------------------------------------------------------------------
    def close(self):
        """Generator: collective close."""
        self._check_open()
        self.closed = True
        if self.comm.size > 1:
            yield from self.comm.barrier()
        yield from self.fs.close(self.handle)
        if self.comm.size > 1:
            yield from self.comm.barrier()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"operation on closed MPI file {self.path!r}")
