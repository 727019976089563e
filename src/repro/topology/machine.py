"""Machine configuration for the simulated Blue Gene/P ("Intrepid") system.

All hardware constants live here so experiments, calibration sweeps, and
ablations can vary one machine aspect without touching mechanism code.
Values follow the paper's Section V-A and the cited Blue Gene/P references:

- quad-core 850 MHz PowerPC 450 compute nodes, 4 ranks/node in VN mode;
- 3-D torus, 425 MB/s per link per direction, six links per node;
- one dedicated I/O node (ION) per pset of 64 compute nodes, connected to
  storage over 10 Gigabit Ethernet;
- GPFS backed by 16 DDN 9900 arrays / 128 file servers with a ~47 GB/s
  aggregate write peak (Lang et al., SC'09).

Effective (as opposed to theoretical) bandwidth parameters are calibrated so
the five checkpointing configurations land on the paper's measured curves;
see ``DESIGN.md`` sections 6-7; the benchmarks assert the resulting shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .torus import TorusTopology

__all__ = ["MachineConfig", "NodeGroups", "intrepid", "PsetMap"]


@dataclass(frozen=True)
class PsetMap:
    """Mapping between ranks, compute nodes, and psets/IONs.

    A *pset* is one ION plus the ``nodes_per_pset`` compute nodes it serves;
    every file-system call from a compute node is proxied through its pset's
    ION.  Ranks are laid out block-wise over nodes (ranks ``0..c-1`` on node
    0, etc.), matching CNK's default in virtual-node mode.
    """

    n_ranks: int
    cores_per_node: int
    nodes_per_pset: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1 or self.cores_per_node < 1 or self.nodes_per_pset < 1:
            raise ValueError("PsetMap parameters must be positive")

    @property
    def n_nodes(self) -> int:
        """Number of compute nodes in the partition (last node may be partial)."""
        return -(-self.n_ranks // self.cores_per_node)

    @property
    def n_psets(self) -> int:
        """Number of psets (= IONs) in the partition (at least one)."""
        return max(1, self.n_nodes // self.nodes_per_pset)

    def node_of_rank(self, rank: int) -> int:
        """Compute node hosting ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.cores_per_node

    def pset_of_rank(self, rank: int) -> int:
        """Pset (== ION index) serving ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return min(rank // (self.cores_per_node * self.nodes_per_pset),
                   self._last_pset)

    @cached_property
    def _last_pset(self) -> int:
        # Asked once per file-system client: not re-derived every time.
        return self.n_psets - 1

    def ranks_per_pset(self) -> int:
        """Ranks served by one full pset."""
        return self.cores_per_node * self.nodes_per_pset


class NodeGroups:
    """Node co-residency structure of a communicator's ranks.

    Groups the *local* ranks of a communicator by the compute node their
    world rank lives on (block placement: node = world rank //
    ``cores_per_node``, CNK's VN-mode default).  This is the geometry the
    two-level aggregation (TAM) paths consult: each node's first local
    rank is its **leader** (node-local aggregator), and only leaders take
    part in inter-node exchanges.

    Attributes
    ----------
    leaders:
        Tuple of leader local ranks, in ascending node order.  The
        communicator's rank 0 is always ``leaders[0]``.
    members_of:
        ``{leader local rank: (members...)}`` — each node's local ranks in
        ascending order, leader first.
    leader_of:
        ``{local rank: leader local rank}`` for every member.
    max_group:
        Largest co-resident group size; 1 means no two ranks share a node
        (TAM has nothing to coalesce).
    """

    __slots__ = ("leaders", "members_of", "leader_of", "max_group")

    def __init__(self, world_ranks, cores_per_node: int) -> None:
        if cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        by_node: dict[int, list[int]] = {}
        for local, world in enumerate(world_ranks):
            by_node.setdefault(world // cores_per_node, []).append(local)
        leaders = []
        members_of = {}
        leader_of = {}
        max_group = 0
        for node in sorted(by_node):
            members = by_node[node]
            lead = members[0]
            leaders.append(lead)
            members_of[lead] = tuple(members)
            for m in members:
                leader_of[m] = lead
            if len(members) > max_group:
                max_group = len(members)
        self.leaders = tuple(leaders)
        self.members_of = members_of
        self.leader_of = leader_of
        self.max_group = max_group

    @property
    def n_nodes(self) -> int:
        """Number of distinct compute nodes represented."""
        return len(self.leaders)

    @property
    def nontrivial(self) -> bool:
        """Whether at least one node hosts two or more ranks."""
        return self.max_group >= 2


@dataclass(frozen=True)
class MachineConfig:
    """Every tunable hardware/software constant of the simulated system.

    Units: bytes, seconds, bytes/second.  See module docstring for sources.
    """

    # --- compute nodes ---------------------------------------------------
    cores_per_node: int = 4
    cpu_hz: float = 850e6               # PowerPC 450 clock
    memory_bandwidth: float = 13.6e9    # per-node DDR2 stream bandwidth

    # --- torus network ---------------------------------------------------
    torus_link_bandwidth: float = 425e6   # per link per direction
    torus_links_per_node: int = 6
    torus_hop_latency: float = 0.1e-6     # per-hop router latency
    mpi_overhead: float = 2.0e-6          # per-message software overhead
    eager_threshold: int = 1200           # CNK default eager/rendezvous cutoff

    # --- I/O nodes (psets) ----------------------------------------------
    nodes_per_pset: int = 64
    # Effective GPFS throughput of one ION's 10 GbE uplink.  10 GbE is
    # 1.25 GB/s raw; ~350 MB/s is what GPFS traffic achieved in practice
    # (shared with metadata/proxy traffic).
    ion_uplink_bandwidth: float = 350e6
    ion_latency: float = 40e-6            # compute node <-> ION round trip
    collective_net_bandwidth: float = 700e6  # compute node -> ION tree link

    # --- GPFS / storage ---------------------------------------------------
    n_file_servers: int = 128
    server_disk_bandwidth: float = 367e6  # 47 GB/s aggregate / 128 servers
    fs_block_size: int = 4 * 1024 * 1024  # GPFS block size on Intrepid
    # Backend stream-concurrency model.  Per-block service at a file server
    # is inflated by two opposing terms:
    #   - a queue-depth term ~ (server_queue_knee / active_streams): with few
    #     concurrent streams the DDN back-ends run at low queue depth and
    #     aggregate throughput grows roughly linearly with stream count;
    #   - a seek/stream-management term ~ seek_penalty_per_stream *
    #     active_streams: past saturation, more streams thrash.
    # Together they produce the concurrency optimum near 1,024 concurrent
    # writer streams that Fig. 8 measures on Intrepid's GPFS.
    seek_penalty_per_stream: float = 10.7e-6
    server_queue_knee: float = 1000.0
    server_queue_max_factor: float = 8.0
    server_queue_service_fraction: float = 0.8
    # Disk-head thrash reflects the streams multiplexed over a recent
    # window, not the instantaneous count: the concurrency estimate decays
    # from its peak with this time constant (seconds).
    stream_window: float = 2.0
    # Effective per-client single-stream write bandwidth (GPFS client
    # overhead; a single stream cannot saturate the backend).
    client_stream_bandwidth: float = 80e6
    # Metadata service times.  Directory inserts serialize through the
    # directory's metanode and slow down steeply as the directory grows
    # (block splits, metanode cache pressure, longer lock holds):
    #   t_create = meta_create_service
    #              * (1 + min((entries/knee)^3, max_factor))
    # With the defaults, step directories of <= ~1,024 files (rbIO/coIO)
    # pay ~1 ms per create, while 16,384+ creates in one directory (1PFPP)
    # sum to the ~300 s metadata storm of Fig. 9.
    meta_create_service: float = 1.0e-3
    meta_create_dir_knee: float = 4000.0
    meta_create_dir_max_factor: float = 40.0
    meta_open_service: float = 1.5e-3     # open existing / second opener
    meta_close_service: float = 0.8e-3
    # Per-extent block-allocation service for files with >1 concurrent
    # writer (serialized through the file's allocation manager).
    alloc_service: float = 0.7e-3
    alloc_batch_blocks: int = 64          # sole writers allocate in segments
    # Byte-range lock tokens.
    token_acquire: float = 0.3e-3
    token_revoke: float = 2.0e-3
    # Token-manager congestion storms.  A write burst on a *shared* file
    # (more than one concurrent writer client) risks a pathological token
    # revocation storm whose probability rises steeply once the global
    # number of active writer streams passes the token manager's saturation
    # knee:  p = storm_probability * (streams / storm_knee) ** storm_beta.
    # Severity is Pareto(storm_shape) scaled by storm_scale seconds.  This
    # is the model of the paper's "outliers (caused by noise and/or other
    # factors under normal user load)" behind Fig. 10 and the coIO drop at
    # 65,536 processors; rbIO with nf=ng writes sole-owner files and is
    # therefore immune (the flat writer line of Fig. 11).
    storm_probability: float = 0.002
    storm_knee: float = 2000.0
    storm_beta: float = 12.0
    storm_scale: float = 4.0
    storm_shape: float = 2.0
    storm_probability_max: float = 0.35

    # --- noise ------------------------------------------------------------
    noise_sigma: float = 0.10             # lognormal body on service times
    seed: int = 20110926                  # CLUSTER'11 conference date

    def pset_map(self, n_ranks: int) -> PsetMap:
        """Rank/node/pset layout for an ``n_ranks`` partition."""
        return PsetMap(n_ranks, self.cores_per_node, self.nodes_per_pset)

    def torus(self, n_ranks: int) -> TorusTopology:
        """Torus geometry for an ``n_ranks`` partition."""
        return TorusTopology.for_nodes(self.pset_map(n_ranks).n_nodes)

    def with_(self, **changes) -> "MachineConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)

    def quiet(self) -> "MachineConfig":
        """Copy with all stochastic noise disabled (deterministic tests)."""
        return replace(self, noise_sigma=0.0, storm_probability=0.0)


def intrepid() -> MachineConfig:
    """The default calibrated Intrepid (ALCF Blue Gene/P) configuration."""
    return MachineConfig()
