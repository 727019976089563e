"""MPI-IO hints (the tunables the paper adjusts on Blue Gene).

The Blue Gene MPI-IO library exposes collective-buffering controls through
hints; the ones that matter here are the aggregator ratio
(``bgp_nodes_pset``: how many ranks share one I/O aggregator — default one
aggregator per 32 MPI processes in virtual-node mode), the explicit
aggregator count (``cb_nodes``, ROMIO's node-aware override — it wins over
the ratio when both are set), file-domain alignment to file-system block
boundaries (which avoids lock conflicts on GPFS), and the two-level
intra-node aggregation mode (``tam``, after Kang et al., arXiv:1907.12656).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["Hints", "TAM_MODES"]

#: Two-level (intra-node) aggregation modes: ``"off"`` keeps the flat
#: exchange, ``"auto"`` engages TAM whenever nodes host multiple ranks,
#: ``"require"`` raises if TAM cannot engage (no co-resident ranks).
TAM_MODES = ("off", "auto", "require")

@dataclass(frozen=True)
class Hints:
    """Collective-buffering hints for one MPI-IO file.

    Parameters
    ----------
    ranks_per_aggregator:
        One I/O aggregator is designated per this many ranks of the file's
        communicator (ROMIO's ``bgp_nodes_pset`` behaviour; BG/P VN-mode
        default is 32).
    align_file_domains:
        Round file-domain boundaries up to file-system block multiples,
        the BG/P ROMIO alignment optimization (Liao & Choudhary, SC'08).
        Turning this off is the alignment ablation.
    cb_buffer_size:
        Collective buffer size per aggregator.  Domains larger than this
        are committed in multiple bursts.
    cb_nodes:
        Explicit aggregator count (ROMIO's node-aware hint).  When set it
        takes precedence over ``ranks_per_aggregator``; the count is
        clamped to the communicator size (and, under TAM, to the number of
        participating nodes).
    tam:
        Two-level intra-node aggregation mode (one of :data:`TAM_MODES`).
        Under TAM ranks first coalesce extents through their node's leader
        over shared memory, and only node leaders join the inter-node
        two-phase exchange.
    """

    ranks_per_aggregator: int = 32
    align_file_domains: bool = True
    cb_buffer_size: int = 16 * 1024 * 1024
    cb_nodes: Optional[int] = None
    tam: str = "off"

    def __post_init__(self) -> None:
        if self.ranks_per_aggregator < 1:
            raise ValueError("ranks_per_aggregator must be >= 1")
        if self.cb_buffer_size < 1:
            raise ValueError("cb_buffer_size must be >= 1")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be >= 1 (or None)")
        if self.tam not in TAM_MODES:
            raise ValueError(
                f"tam must be one of {TAM_MODES}, got {self.tam!r}")

    def n_aggregators(self, comm_size: int) -> int:
        """Number of aggregators designated for a communicator.

        An explicit ``cb_nodes`` wins over the ``ranks_per_aggregator``
        ratio, clamped to the communicator size.
        """
        if self.cb_nodes is not None:
            return max(1, min(self.cb_nodes, comm_size))
        return max(1, comm_size // self.ranks_per_aggregator)

    def with_(self, **changes) -> "Hints":
        """Copy with fields replaced."""
        return replace(self, **changes)
