"""Experiment presets: the paper's weak-scaling problem sizes.

Section V-B of the paper runs 3-D cylindrical waveguide simulations with
polynomial order N=15 (4096 grid points per element) at three weak-scaling
sizes:

    (E, P) = (68K, 16K), (137K, 32K), (273K, 65K)
    (n, S) = (275M, 39 GB), (550M, 78 GB), (1.1B, 156 GB) per I/O step.

NekCEM's computation scales nearly perfectly on Intrepid at these sizes, so
the per-step computation time is effectively constant across the sweep;
from the paper's scaling data (0.13 s/step at 131K procs for n/P = 8,530)
the 16.8K-points-per-rank runs here take ~0.26 s/step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ckpt import CheckpointData

__all__ = [
    "ProblemSize",
    "PAPER_SIZES",
    "TCOMP_PER_STEP",
    "POLY_ORDER",
    "paper_problem",
    "paper_data",
    "scaled_problem",
]

#: Polynomial approximation order used throughout the evaluation.
POLY_ORDER = 15

#: NekCEM computation seconds per time step at the paper's weak-scaling
#: point (~16.8K grid points per rank).
TCOMP_PER_STEP = 0.26


@dataclass(frozen=True)
class ProblemSize:
    """One weak-scaling configuration of the NekCEM waveguide run."""

    n_ranks: int          # P: processors (cores)
    elements: int         # E: spectral elements
    points: int           # n = E * (N+1)^3 grid points
    file_bytes: int       # S: checkpoint bytes per I/O step

    @property
    def points_per_rank(self) -> int:
        """n / P (rounded)."""
        return round(self.points / self.n_ranks)

    def data(self) -> CheckpointData:
        """Per-rank checkpoint contribution (NekCEM-shaped, size-only)."""
        return CheckpointData.nekcem_like(self.points_per_rank)


def _paper_size(n_ranks: int, elements: int) -> ProblemSize:
    points = elements * (POLY_ORDER + 1) ** 3
    # The paper's reported S works out to ~142 B per grid point, which is
    # what CheckpointData.nekcem_like produces per rank.
    data = CheckpointData.nekcem_like(round(points / n_ranks))
    return ProblemSize(n_ranks, elements, points, data.total_bytes * n_ranks)


#: The paper's three evaluation sizes, keyed by processor count.
PAPER_SIZES: dict[int, ProblemSize] = {
    16384: _paper_size(16384, 68_000),
    32768: _paper_size(32768, 137_000),
    65536: _paper_size(65536, 273_000),
}


def paper_problem(n_ranks: int) -> ProblemSize:
    """The paper's problem for one of its processor counts."""
    try:
        return PAPER_SIZES[n_ranks]
    except KeyError:
        raise ValueError(
            f"no paper size for {n_ranks} ranks; have {sorted(PAPER_SIZES)}"
        ) from None


def paper_data(n_ranks: int) -> CheckpointData:
    """Per-rank checkpoint data for a paper processor count."""
    return paper_problem(n_ranks).data()


def scaled_problem(n_ranks: int) -> ProblemSize:
    """A weak-scaled problem for *any* rank count (tests, small demos).

    Keeps the paper's per-rank load (~16.8K points per rank, ~2.4 MB per
    rank per checkpoint).
    """
    elements = max(1, round(68_000 * n_ranks / 16384))
    return _paper_size(n_ranks, elements)
