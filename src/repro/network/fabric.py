"""Message transport over the simulated Blue Gene/P fabric.

The fabric models the part of the network that shapes the paper's results:

- **Endpoint serialization.**  Every node has one injection and one ejection
  pipe whose bandwidth is the node's aggregate torus capacity (six links at
  425 MB/s each direction).  All traffic into a node shares its ejection
  pipe — this is what makes the 63-into-1 rbIO writer incast take
  ``63 * msg / ejection_bw`` rather than being free.
- **Distance latency.**  Dimension-ordered hop count times the per-hop
  router latency, plus a fixed per-message software overhead.
- **Intermediate links** are *not* individually modelled; checkpoint traffic
  is bulk-synchronous and endpoint-bound, so per-hop contention would add
  cost without changing any of the reproduced curves (see DESIGN.md §2).

Both pipe reservations for a message are made when the message is injected
and the message completes at the later of the two plus latency — the
standard steady-state pipelining approximation, costing exactly one timer
event per message (essential at 65,536 ranks).
"""

from __future__ import annotations

from itertools import groupby, repeat

from ..sim import Engine, Event, Pipe
from ..topology import MachineConfig, PsetMap, TorusTopology

__all__ = ["Fabric"]


class Fabric:
    """Transport service between ranks of one partition.

    Parameters
    ----------
    engine:
        The simulation engine.
    config:
        Machine constants (bandwidths, latencies).
    n_ranks:
        Partition size; rank-to-node placement follows
        :class:`~repro.topology.PsetMap`.
    """

    def __init__(self, engine: Engine, config: MachineConfig, n_ranks: int) -> None:
        self.engine = engine
        self.config = config
        self.psets: PsetMap = config.pset_map(n_ranks)
        self.topology: TorusTopology = config.torus(n_ranks)
        self._node_bw = config.torus_link_bandwidth * config.torus_links_per_node
        # Pipes are created lazily: most nodes never touch the network in a
        # given experiment phase, and 16K Pipe objects up front is waste.
        self._injection: dict[int, Pipe] = {}
        self._ejection: dict[int, Pipe] = {}
        # Traffic counters, split by whether the endpoints share a compute
        # node (intra-node transfers move over shared memory and never
        # touch the torus); ``tam_msgs`` inter-node messages carried
        # ``tam_packages`` original per-rank packages.
        self.msgs_intra = 0
        self.msgs_inter = 0
        self.bytes_intra = 0
        self.bytes_inter = 0
        self.tam_msgs = 0
        self.tam_packages = 0
        self._cores_per_node = config.cores_per_node
        self._intra_overhead = config.mpi_overhead
        self._mem_bw = config.memory_bandwidth
        # Checkpoint traffic is many-messages-between-few-node-pairs
        # (workers -> their writer); hop latency per pair is cached.
        self._latency_cache: dict[int, float] = {}
        self._n_nodes = self.psets.n_nodes
        # The arrival instants :meth:`arrivals` handed out at one instant.
        self._instants: dict[float, float] = {}
        self._instants_at = -1.0
        #: Optional :class:`~repro.faults.FaultInjector`; ``None`` keeps
        #: transfers on the zero-cost fast path.
        self.injector = None

    # -- pipe accessors ----------------------------------------------------
    def injection(self, node: int) -> Pipe:
        """The (shared) injection pipe of a compute node."""
        pipe = self._injection.get(node)
        if pipe is None:
            pipe = Pipe(self.engine, self._node_bw)
            self._injection[node] = pipe
        return pipe

    def ejection(self, node: int) -> Pipe:
        """The (shared) ejection pipe of a compute node."""
        pipe = self._ejection.get(node)
        if pipe is None:
            pipe = Pipe(self.engine, self._node_bw)
            self._ejection[node] = pipe
        return pipe

    # -- transfers -----------------------------------------------------------
    def _pair_latency(self, src: int, dst: int) -> float:
        """Cached overhead + hop latency between two distinct nodes."""
        key = src * self._n_nodes + dst
        lat = self._latency_cache.get(key)
        if lat is None:
            hops = self.topology.hops(src, dst)
            lat = self.config.mpi_overhead + hops * self.config.torus_hop_latency
            self._latency_cache[key] = lat
        return lat

    def delay(self, src_rank: int, dst_rank: int, nbytes: int) -> float:
        """Reserve the way for ``nbytes`` from ``src_rank``'s node to
        ``dst_rank``'s node; the time from now until the last byte is in.

        Same-node transfers cost a memory copy instead of network time.  A
        message in flight and :meth:`transfer` wait this long (:meth:`arrivals`
        reserves a burst with the same float operations).  Only sizes move
        through the fabric: payloads ride the message as zero-copy ropes.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        cpn = self._cores_per_node
        src = src_rank // cpn
        dst = dst_rank // cpn
        if src == dst:
            # Intra-node: one memory-bandwidth copy plus software overhead.
            self.msgs_intra += 1
            self.bytes_intra += nbytes
            return self._intra_overhead + nbytes / self._mem_bw
        self.msgs_inter += 1
        self.bytes_inter += nbytes
        now = self.engine.now
        # Pipe.reserve on the injection and the ejection pipe, inline.
        inj = self._injection.get(src) or self.injection(src)
        busy = inj.busy_until
        inj.busy_until = t_inj = (busy if busy > now else now) + nbytes / inj.bandwidth
        inj.bytes_moved += int(nbytes)
        ej = self._ejection.get(dst) or self.ejection(dst)
        busy = ej.busy_until
        ej.busy_until = t_ej = (busy if busy > now else now) + nbytes / ej.bandwidth
        ej.bytes_moved += int(nbytes)
        lat = self._latency_cache.get(src * self._n_nodes + dst)
        if lat is None:
            lat = self._pair_latency(src, dst)
        done = (t_ej if t_ej > t_inj else t_inj) + lat  # max(), inline
        if self.injector is not None:
            done = self.injector.net_adjust(now, src_rank, dst_rank, done)
        return done - now

    def arrivals(self, src_ranks, dst_rank: int, nbytes: int) -> list:
        """Each of ``src_ranks``' arrival instant ``now + delay(...)`` for
        ``nbytes`` sent now to ``dst_rank``, with one :meth:`delay` per
        source's reservations and counters, taken a run of same-node
        sources at a time (DESIGN.md 9.4).  Equal instants handed out at one
        instant are one float, as the calendar's bucket key is."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        now = self.engine.now
        if self._instants_at != now:
            self._instants_at, self._instants = now, {}
        intern, injector = self._instants.setdefault, self.injector
        dst = dst_rank // self._cores_per_node
        ej, out = None, []
        for node, run in groupby(src_ranks, self._cores_per_node.__rfloordiv__):
            run = list(run)
            k = len(run)
            if node == dst:  # shared memory: one copy time for each
                self.msgs_intra += k
                self.bytes_intra += k * nbytes
                t = now + (self._intra_overhead + nbytes / self._mem_bw)
                out += repeat(intern(t, t), k)
                continue
            self.msgs_inter += k
            self.bytes_inter += k * nbytes
            if ej is None:
                ej = self._ejection.get(dst) or self.ejection(dst)
                e_busy, e_cost = ej.busy_until, nbytes / ej.bandwidth
            inj = self._injection.get(node) or self.injection(node)
            i_cost = nbytes / inj.bandwidth
            lat = (self._latency_cache.get(node * self._n_nodes + dst)
                   or self._pair_latency(node, dst))
            # delay's (busy if busy > now else now) + cost, then adding on.
            i_busy = inj.busy_until if inj.busy_until > now else now
            e_busy = e_busy if e_busy > now else now
            for src_rank in run:
                i_busy += i_cost
                e_busy += e_cost
                done = (e_busy if e_busy > i_busy else i_busy) + lat
                if injector is not None:
                    done = injector.net_adjust(now, src_rank, dst_rank, done)
                t = now + (done - now)
                out.append(intern(t, t))
            inj.busy_until = i_busy
            inj.bytes_moved += k * int(nbytes)
            ej.bytes_moved += k * int(nbytes)
        if ej is not None:
            ej.busy_until = e_busy
        return out

    def transfer(self, src_rank: int, dst_rank: int, nbytes: int) -> Event:
        """An event when ``nbytes`` have moved (:meth:`delay` from now)."""
        return self.engine.timeout(self.delay(src_rank, dst_rank, nbytes))

    def local_copy_time(self, nbytes: int) -> float:
        """Time for a node-local buffer copy of ``nbytes`` (eager sends)."""
        if nbytes < 0:
            raise ValueError(f"negative copy size: {nbytes}")
        return nbytes / self.config.memory_bandwidth

    def count_tam(self, packages: int) -> None:
        """Record one coalesced TAM message standing in for ``packages``
        original per-rank packages (issued by a node leader)."""
        self.tam_msgs += 1
        self.tam_packages += packages

    # -- diagnostics ---------------------------------------------------------
    def stats(self) -> dict:
        """This run's traffic counters.

        ``msgs_intra`` / ``msgs_inter`` (and the byte equivalents) split
        the ``messages_sent`` / ``bytes_sent`` totals by whether the
        endpoints shared a compute node.  ``tam_msgs`` / ``tam_packages``
        describe two-level aggregation: how many inter-node messages
        carried how many coalesced per-rank packages, and
        ``tam_coalesce_ratio`` is the message-count reduction that
        achieved (0 if none).
        """
        ratio = self.tam_packages / self.tam_msgs if self.tam_msgs else 0.0
        return {
            "messages_sent": self.msgs_intra + self.msgs_inter,
            "bytes_sent": self.bytes_intra + self.bytes_inter,
            "msgs_intra": self.msgs_intra,
            "msgs_inter": self.msgs_inter,
            "bytes_intra": self.bytes_intra,
            "bytes_inter": self.bytes_inter,
            "tam_msgs": self.tam_msgs,
            "tam_packages": self.tam_packages,
            "tam_coalesce_ratio": ratio,
            "nodes_touched": len(set(self._injection) | set(self._ejection)),
        }
