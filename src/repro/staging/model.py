"""Multi-level efficiency model: Eq. 1 extended to a tiered hierarchy.

The paper's Eq. 1 compares production time under a *single* checkpoint
tier.  With staging, checkpoints live at several levels — burst buffer,
partner replica, PFS — each with its own commit cost, recovery cost, and
the failure rate it protects against (a node loss restores from the
buffer; a failure-domain loss from the partner; a full-system loss from
the PFS).  This module gives the standard first-order multi-level model
(Moody et al., SCR; Di et al., multi-level optimal intervals):

- per-tier Young interval  ``tau_i = sqrt(2 * w_i / lambda_i)`` — the
  checkpoint period at tier *i* that balances commit overhead against
  expected rework for the failures that tier absorbs;
- steady-state efficiency (useful-work fraction)

  ``E = 1 / (1 + sum_i w_i / tau_i + sum_i lambda_i * (r_i + tau_i / 2))``

  where ``w_i / tau_i`` is tier *i*'s commit overhead and each failure of
  class *i* costs its recovery read ``r_i`` plus half an interval of lost
  work.

Because staged commits overlap computation, ``w_i`` for the buffer tier is
the *blocking* cost (ingest + any capacity stall), not the PFS write time —
which is exactly what :class:`~repro.ckpt.BurstBufferIO` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TierSpec", "MultiLevelModel"]


@dataclass(frozen=True)
class TierSpec:
    """One checkpoint tier of the hierarchy.

    Parameters
    ----------
    name:
        Tier label ("buffer", "partner", "pfs", ...).
    write_seconds:
        Application-blocking seconds to commit one checkpoint to this tier.
    read_seconds:
        Seconds to restore one checkpoint from this tier.
    failure_rate:
        Rate (failures/second) of the failure class this tier is the
        cheapest survivor of.  ``1 / MTBF`` for that class.
    """

    name: str
    write_seconds: float
    read_seconds: float
    failure_rate: float

    def __post_init__(self) -> None:
        if self.write_seconds <= 0:
            raise ValueError(f"tier {self.name}: write_seconds must be positive")
        if self.read_seconds < 0:
            raise ValueError(f"tier {self.name}: negative read_seconds")
        if self.failure_rate < 0:
            raise ValueError(f"tier {self.name}: negative failure_rate")

    @property
    def mtbf(self) -> float:
        """Mean time between failures of this tier's failure class."""
        if self.failure_rate == 0:
            return math.inf
        return 1.0 / self.failure_rate

    def young_interval(self) -> float:
        """Young's optimal period for this tier alone: sqrt(2 w / lambda)."""
        if self.failure_rate == 0:
            return math.inf
        return math.sqrt(2.0 * self.write_seconds / self.failure_rate)


class MultiLevelModel:
    """First-order efficiency model over a stack of checkpoint tiers."""

    def __init__(self, tiers: list[TierSpec]) -> None:
        if not tiers:
            raise ValueError("need at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = list(tiers)

    def tier(self, name: str) -> TierSpec:
        """Look a tier up by name."""
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(name)

    def intervals(self) -> dict[str, float]:
        """Per-tier Young-optimal checkpoint periods (seconds)."""
        return {t.name: t.young_interval() for t in self.tiers}

    def efficiency(self, intervals: dict[str, float] | None = None) -> float:
        """Steady-state useful-work fraction at the given (or optimal) periods."""
        taus = intervals if intervals is not None else self.intervals()
        overhead = 0.0
        for t in self.tiers:
            tau = taus[t.name]
            if tau <= 0:
                raise ValueError(f"tier {t.name}: interval must be positive")
            if math.isfinite(tau):
                overhead += t.write_seconds / tau
                overhead += t.failure_rate * (t.read_seconds + tau / 2.0)
        return 1.0 / (1.0 + overhead)

    def improvement_over(self, other: "MultiLevelModel") -> float:
        """Eq. 1 generalised: this hierarchy's speedup over ``other``.

        Both sides run at their own optimal intervals; the ratio of
        expected runtimes equals the inverse ratio of efficiencies.
        """
        return self.efficiency() / other.efficiency()

    @classmethod
    def single_tier(cls, write_seconds: float, read_seconds: float,
                    failure_rate: float, name: str = "pfs") -> "MultiLevelModel":
        """The paper's flat setup: every failure pays the PFS tier."""
        return cls([TierSpec(name, write_seconds, read_seconds, failure_rate)])

    @classmethod
    def staged(cls, buffer_write: float, buffer_read: float,
               pfs_write: float, pfs_read: float,
               node_failure_rate: float, system_failure_rate: float,
               partner_read: float | None = None,
               domain_failure_rate: float = 0.0) -> "MultiLevelModel":
        """A bbIO-shaped hierarchy: buffer [+ partner] + PFS.

        ``buffer_write`` is the worker-blocking cost of a staged commit
        (what bbIO measures); the PFS tier's write cost is the synchronous
        cost a flat scheme would pay, charged only at the PFS tier's own
        (much longer) period.
        """
        tiers = [TierSpec("buffer", buffer_write, buffer_read,
                          node_failure_rate)]
        if partner_read is not None:
            tiers.append(TierSpec("partner", buffer_write, partner_read,
                                  domain_failure_rate))
        tiers.append(TierSpec("pfs", pfs_write, pfs_read,
                              system_failure_rate))
        return cls(tiers)
