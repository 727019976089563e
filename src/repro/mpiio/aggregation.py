"""Two-phase collective-buffering geometry: regions, file domains, aggregators.

ROMIO's collective write works in two phases: ranks exchange their access
regions, the file's touched range is partitioned into one contiguous *file
domain* per aggregator (aligned to file-system blocks on Blue Gene), data is
shuffled so each aggregator holds exactly its domain, and aggregators commit
to the file system.  This module implements the geometry; the data movement
lives in :class:`repro.mpiio.file.MPIFile`.

Everything here is *descriptors* — (offset, length) regions and domain
boundaries, never payload bytes.  The exchange ships region descriptors
plus zero-copy segment views (:mod:`repro.buffers`), which is exactly the
segment-list discipline that makes collective I/O fast in the first place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional
from weakref import WeakValueDictionary

import numpy as np

from ..topology import NodeGroups

__all__ = ["RegionMap", "FileDomains", "FlatExchange", "TamExchange",
           "node_groups", "pick_aggregators", "pick_node_aggregators",
           "place_aggregators", "plan_table"]


class RegionMap:
    """The gathered per-rank access regions of one collective write call.

    Built exactly once per collective call (via ``allgather(map_fn=...)``)
    and shared read-only by all participants, so a 65,536-rank collective
    costs one index construction, not 65,536.
    """

    __slots__ = ("offsets", "ends", "ranks", "lo", "hi")

    def __init__(self, regions: list[tuple[int, int]]) -> None:
        offs = np.fromiter((r[0] for r in regions), dtype=np.int64, count=len(regions))
        lens = np.fromiter((r[1] for r in regions), dtype=np.int64, count=len(regions))
        order = np.argsort(offs, kind="stable")
        self.offsets = offs[order]
        self.ends = self.offsets + lens[order]
        self.ranks = order.astype(np.int64)
        active = lens[order] > 0
        self.lo = int(self.offsets[active].min()) if active.any() else 0
        self.hi = int(self.ends[active].max()) if active.any() else 0

    @property
    def size(self) -> int:
        """Number of participating ranks."""
        return len(self.ranks)

    @property
    def total_bytes(self) -> int:
        """Sum of all region lengths."""
        return int((self.ends - self.offsets).sum())


class FileDomains:
    """Partition of a byte range into per-aggregator file domains.

    With ``align=True`` (BG/P ROMIO behaviour) every interior domain
    boundary is rounded up to an *absolute* file-system block multiple, so
    no two aggregators ever write the same block — the Liao & Choudhary
    alignment optimization that avoids lock conflicts and read-modify-write
    on GPFS.  Unaligned mode splits the range evenly by bytes (the classic
    ROMIO default), placing boundaries mid-block.

    Boundaries are computed arithmetically (O(1) per query), which matters
    when 65,536 ranks each consult the same partition.
    """

    __slots__ = ("lo", "hi", "n_domains", "block_size", "align", "_chunk")

    def __init__(self, lo: int, hi: int, n_domains: int,
                 block_size: int, align: bool = True) -> None:
        if hi < lo:
            raise ValueError(f"inverted range [{lo}, {hi})")
        if n_domains < 1:
            raise ValueError("need at least one domain")
        self.lo = lo
        self.hi = hi
        self.n_domains = n_domains
        self.block_size = max(int(block_size), 1)
        self.align = align
        span = hi - lo
        self._chunk = max(-(-span // n_domains), 1) if span else 1

    def _boundary(self, k: int) -> int:
        """Absolute file offset of the boundary before domain ``k``."""
        if k <= 0:
            return self.lo
        if k >= self.n_domains:
            return self.hi
        b = self.lo + k * self._chunk
        if self.align:
            bs = self.block_size
            b = -(-b // bs) * bs
        return min(b, self.hi)

    def boundaries(self) -> np.ndarray:
        """All ``n_domains + 1`` boundaries at once (``_boundary`` vectorised)."""
        b = self.lo + np.arange(self.n_domains + 1, dtype=np.int64) * self._chunk
        if self.align:
            bs = self.block_size
            b = -(-b // bs) * bs
        np.minimum(b, self.hi, out=b)
        b[0] = self.lo
        b[-1] = self.hi
        return b

    def domain(self, k: int) -> tuple[int, int]:
        """Byte range ``[lo, hi)`` of domain ``k`` (may be empty)."""
        if not 0 <= k < self.n_domains:
            raise ValueError(f"domain {k} out of range")
        return (self._boundary(k), self._boundary(k + 1))

    def domains_overlapping(self, lo: int, hi: int) -> range:
        """Indices of domains intersecting ``[lo, hi)``.

        O(1): estimates the first/last indices from the raw chunk size and
        corrects for alignment rounding locally.
        """
        if hi <= lo or lo >= self.hi or hi <= self.lo:
            return range(0)
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        # Estimate, then walk (alignment moves boundaries < one block).
        first = max(0, min(self.n_domains - 1, (lo - self.lo) // self._chunk))
        while first > 0 and self._boundary(first) > lo:
            first -= 1
        while first < self.n_domains - 1 and self._boundary(first + 1) <= lo:
            first += 1
        last = max(0, min(self.n_domains - 1, (hi - 1 - self.lo) // self._chunk))
        while last < self.n_domains - 1 and self._boundary(last + 1) < hi:
            last += 1
        while last > 0 and self._boundary(last) >= hi:
            last -= 1
        return range(int(first), int(last) + 1)


@lru_cache(maxsize=256)
def _aggregator_placement(comm_size: int, n_aggregators: int) -> tuple[int, ...]:
    if n_aggregators < 1 or n_aggregators > comm_size:
        raise ValueError(f"bad aggregator count {n_aggregators} for size {comm_size}")
    stride = comm_size // n_aggregators
    return tuple(k * stride for k in range(n_aggregators))


def pick_aggregators(comm_size: int, n_aggregators: int) -> list[int]:
    """Evenly spread aggregator ranks over the communicator.

    Mirrors the BG/P placement rule: aggregators are distributed over the
    topology so no node hosts more than one (rank striding achieves this
    under block rank-to-node placement).  The placement is a pure function
    of ``(comm_size, n_aggregators)`` and is memoized: every rank of every
    collective call consults the same few geometries (hot paths read the
    cached tuple through :func:`place_aggregators`).
    """
    return list(_aggregator_placement(comm_size, n_aggregators))


class FlatExchange:
    """Shared plan of one flat two-phase collective write call.

    File domains and aggregator placement are properties of the collective
    call, not of the calling rank (Thakur, Gropp & Lusk), so the whole
    exchange — which pieces every rank sends where, and whom every
    aggregator hears from — is computed exactly once per call via
    ``allgather(map_fn=...)``, vectorised over the gathered extents, and
    consulted read-only by every participant: the two-phase write's stages
    (``MPIFile._ship``, and an aggregator's ``_commit`` and ``_received``,
    for a process's rank and a cohort's segment alike) read this one plan,
    or a :class:`TamExchange` when two-level aggregation engages.  The
    aggregators are :func:`place_aggregators`'s, as a coalesce plan sees
    them.

    ``agg_index`` maps an aggregator's rank to the domain it commits;
    ``expected[k]`` lists the ranks domain ``k``'s aggregator receives from
    (ascending file offset, itself excluded — its own pieces are staged
    locally); :meth:`sends` gives a rank's ``(dest, lo, hi)`` pieces.
    """

    __slots__ = ("regions", "domains", "aggregators", "agg_index",
                 "expected", "_pieces", "_starts", "__weakref__")

    def __init__(self, raw_regions: list, n_aggregators: int,
                 block_size: int, align: bool = True) -> None:
        regions = self.regions = RegionMap(raw_regions)
        domains = self.domains = FileDomains(
            regions.lo, regions.hi, n_aggregators, block_size, align=align)
        aggregators = self.aggregators = place_aggregators(
            len(raw_regions), n_aggregators)
        self.agg_index = {r: k for k, r in enumerate(aggregators)}
        # Clip every extent (in file-offset order) against the domain
        # boundaries: extent i touches domains first[i]..last[i].
        offs, ends = regions.offsets, regions.ends
        bounds = domains.boundaries()
        first = np.searchsorted(bounds[1:], offs, side="right")
        last = np.searchsorted(bounds[:-1], ends, side="left") - 1
        count = np.where(ends > offs, last - first + 1, 0)
        ext = np.repeat(np.arange(len(count)), count)
        dom = first[ext] + np.arange(len(ext)) - np.repeat(
            np.cumsum(count) - count, count)
        lo = np.maximum(offs[ext], bounds[dom])
        hi = np.minimum(ends[ext], bounds[dom + 1])
        keep = hi > lo  # a degenerate (empty) domain inside the extent
        src, dom, lo, hi = regions.ranks[ext[keep]], dom[keep], lo[keep], hi[keep]
        # Receiver side: per domain, senders in file-offset order.
        by_dom = np.argsort(dom, kind="stable")
        senders = src[by_dom].tolist()
        cut = np.searchsorted(dom[by_dom],
                              np.arange(n_aggregators + 1)).tolist()
        self.expected = tuple(
            tuple(s for s in senders[cut[k]:cut[k + 1]] if s != agg)
            for k, agg in enumerate(aggregators))
        # Sender side: pieces grouped by rank, ascending domain within.
        by_src = np.argsort(src, kind="stable")
        dest = np.asarray(aggregators, dtype=np.int64)[dom[by_src]]
        self._pieces = list(zip(dest.tolist(), lo[by_src].tolist(),
                                hi[by_src].tolist()))
        self._starts = np.searchsorted(
            src[by_src], np.arange(len(raw_regions) + 1)).tolist()

    @classmethod
    def for_hints(cls, raw_regions: list, hints, block_size: int,
                  plans: WeakValueDictionary) -> "FlatExchange":
        """The plan a file's :class:`~repro.mpiio.Hints` select, shared by
        equal calls while one is live in ``plans`` (:func:`plan_table`:
        weak, a plan dies with its last call; DESIGN.md section 9.3)."""
        n_aggregators = hints.n_aggregators(len(raw_regions))
        align = hints.align_file_domains
        key = (tuple(raw_regions), n_aggregators, block_size, align)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = cls(raw_regions, n_aggregators, block_size,
                                    align=align)
        return plan

    @property
    def empty(self) -> bool:
        """Nothing is written anywhere (participants only synchronize)."""
        return self.regions.hi <= self.regions.lo

    def sends(self, rank: int) -> list[tuple[int, int, int]]:
        """``(dest rank, lo, hi)`` pieces of ``rank``'s extent, one per
        touched domain (``dest == rank``: an aggregator's own piece)."""
        return self._pieces[self._starts[rank]:self._starts[rank + 1]]


def plan_table(services: dict) -> WeakValueDictionary:
    """A job's live :class:`FlatExchange` plans (``services["mpiio:plans"]``)."""
    plans = services.get("mpiio:plans")
    if plans is None:
        plans = services["mpiio:plans"] = WeakValueDictionary()
    return plans


def pick_node_aggregators(leaders, n_aggregators: int) -> tuple[int, ...]:
    """Node-aware aggregator placement for the two-level (TAM) exchange.

    Inter-node aggregators are chosen *among node leaders* — under TAM
    only leaders carry inter-node traffic, so placing an aggregator on a
    non-leader rank would reintroduce the per-rank fan-in TAM exists to
    remove.  The count is clamped to the number of nodes (this is how a
    ``cb_nodes`` hint larger than the node count degrades gracefully) and
    leaders are strided evenly, mirroring :func:`pick_aggregators`.
    """
    n = max(1, min(n_aggregators, len(leaders)))
    stride = len(leaders) // n
    return tuple(leaders[k * stride] for k in range(n))


def node_groups(world_ranks, tam: str,
                cores_per_node: int) -> Optional[NodeGroups]:
    """A file communicator's nodes when two-level aggregation engages:
    ``tam`` is not ``"off"`` and some node hosts two of ``world_ranks``;
    else ``None`` (the flat exchange runs)."""
    if tam == "off":
        return None
    groups = NodeGroups(world_ranks, cores_per_node)
    return groups if groups.nontrivial else None


def place_aggregators(size: int, n_aggregators: int,
                      groups: Optional[NodeGroups] = None) -> tuple[int, ...]:
    """The ranks of a ``size``-rank file communicator that commit its file
    domains, as a call's plan (:class:`FlatExchange`, :class:`TamExchange`)
    and a strategy's coalesce plan read them: ``n_aggregators`` strided
    over the ranks (:func:`pick_aggregators`) or, under two-level
    aggregation (``groups``, :func:`node_groups`), over the node leaders
    (:func:`pick_node_aggregators`)."""
    if groups is None:
        return _aggregator_placement(size, n_aggregators)
    return pick_node_aggregators(groups.leaders, n_aggregators)


class TamExchange:
    """Shared geometry of one two-level (TAM) collective write call.

    Built exactly once per call via ``allgather(map_fn=...)`` from the
    raw per-rank ``(offset, nbytes)`` regions, and consulted read-only by
    every participant (the same single-construction discipline as
    :class:`RegionMap`).  Encodes who sends what where:

    - every rank forwards its extent to its node **leader** over shared
      memory (no fabric traffic);
    - each leader clips its node's coalesced extents against the file
      domains and sends one message per *touched domain* to that domain's
      aggregator — O(nodes x aggregators) inter-node messages instead of
      the flat exchange's O(np x aggregators);
    - aggregators overlay the received pieces and commit, exactly like
      the flat path, so file images stay bit-identical.
    """

    __slots__ = ("raw", "regions", "groups", "domains", "aggregators",
                 "agg_index", "node_senders", "send_domains", "expected")

    def __init__(self, raw_regions: list, groups, n_aggregators: int,
                 block_size: int, align: bool = True) -> None:
        self.raw = tuple(raw_regions)
        self.regions = RegionMap(list(raw_regions))
        self.groups = groups
        leaders = groups.leaders
        self.aggregators = place_aggregators(len(raw_regions), n_aggregators,
                                             groups)
        self.agg_index = {r: k for k, r in enumerate(self.aggregators)}
        self.domains = FileDomains(
            self.regions.lo, self.regions.hi, len(self.aggregators),
            block_size, align=align)
        # Per-leader: the members that hand it an extent, in rank order.
        self.node_senders = {lead: tuple(m for m in groups.members_of[lead][1:]
                                         if self.raw[m][1] > 0)
                             for lead in leaders}
        # Per-leader: which domains its node's members touch.  Every listed
        # domain is guaranteed at least one non-empty piece from that node
        # (overlap is computed per member region), so no aggregator ever
        # waits for a message that is never sent.
        send_domains: dict[int, tuple[int, ...]] = {}
        for lead in leaders:
            touched: set[int] = set()
            for m in groups.members_of[lead]:
                off, length = self.raw[m]
                if length > 0:
                    touched.update(
                        self.domains.domains_overlapping(off, off + length))
            if touched:
                send_domains[lead] = tuple(sorted(touched))
        self.send_domains = send_domains
        # Per-domain: which leaders the aggregator must receive from
        # (leaders in ascending order; an aggregator's own node's pieces
        # are staged locally, not messaged).
        expected: dict[int, list[int]] = {k: [] for k in
                                          range(len(self.aggregators))}
        for lead in leaders:
            for k in send_domains.get(lead, ()):
                if self.aggregators[k] != lead:
                    expected[k].append(lead)
        self.expected = {k: tuple(v) for k, v in expected.items()}

    @property
    def empty(self) -> bool:
        """Nothing is written anywhere (participants only synchronize)."""
        return self.regions.hi <= self.regions.lo

    def clip(self, k: int, parts: list) -> list:
        """A node's extents ``parts`` (``(offset, nbytes, payload)``) cut to
        domain ``k``: its ``(lo, hi, payload slice)`` pieces."""
        dlo, dhi = self.domains.domain(k)
        return [(lo, hi, None if pay is None else pay[lo - off:hi - off])
                for off, n, pay in parts
                for lo, hi in ((max(off, dlo), min(off + n, dhi)),)
                if lo < hi]
