"""Compile a campaign spec into concrete, runnable, hashable points.

:func:`expand` turns one :class:`~repro.campaign.spec.CampaignSpec` into
an ordered :class:`ExpandedCampaign` of :class:`CampaignPoint` records.
Expansion is pure and deterministic — same spec, same points, same
content hashes:

- figure-shaped points (one step, no faults, default paths) execute via
  :func:`~repro.experiments.figures.get_run`, sharing its memory/disk
  caches, so a campaign over ``(approach, np)`` is point-for-point
  bit-identical to ``fig5_write_bandwidth`` and friends;
- fault-rate points draw their schedules from the per-rate-index stream
  ``root_seed + 7919 * i`` with ``fs_errors = rate``, ``fs_stalls =
  rate / 2``, so a rate campaign is bit-reproducible from its seed;
- resume points follow their checkpoint steps with the run's restore
  wave (:meth:`~repro.experiments.CheckpointRun.restore`).

:func:`run_point` is the module-level worker that ``run_sweep`` and the
sweep service ship to worker processes; it returns a JSON-clean dict —
what the service's :class:`~repro.experiments.DiskCache` stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..ckpt import EvolvingData
from ..experiments.figures import get_run, problem_for, strategy_for
from ..experiments.parallel import cache_key
from ..experiments.runner import run_checkpoint_steps
from ..faults import FaultConfig, FaultSchedule, faults_of
from ..mpi import RunConfig
from ..sim import StreamRegistry
from ..topology import MachineConfig
from .spec import CampaignSpec

__all__ = ["CampaignPoint", "SkippedPoint", "ExpandedCampaign", "expand",
           "run_point"]


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved run: everything that determines its output."""

    approach: str
    n_ranks: int
    config: MachineConfig
    seed: Optional[int] = None
    n_steps: int = 1
    gaps: tuple[float, ...] = ()  # inter-step gaps (n_steps - 1 of them)
    fs_type: str = "gpfs"
    basedir: str = "/ckpt"
    faults: FaultSchedule = FaultSchedule()
    fault_rate: Optional[float] = None
    resume: bool = False
    delta: str = "off"
    tam: str = "off"
    trace: str = "off"
    points_per_rank: Optional[int] = None
    mutated_fraction: float = 0.25

    @property
    def is_figure_point(self) -> bool:
        """True when the point is exactly a figure-sweep run.

        Those execute through :func:`get_run` so they share the figure
        benches' caches and reproduce their values bit for bit.
        Incremental (delta) points, two-level-aggregation (tam) points and
        evolving-workload points never qualify — their data, written bytes
        or message traffic differ from the figures'.  Trace-capture points
        don't either: a cache hit would skip execution and produce no
        spans, so they always run live.
        """
        return (self.n_steps == 1 and not self.faults and not self.resume
                and self.fs_type == "gpfs" and self.basedir == "/ckpt"
                and self.delta == "off" and self.tam == "off"
                and self.trace == "off" and self.points_per_rank is None)

    @property
    def content_hash(self) -> str:
        """Hash over every run-determining input (``CACHE_VERSION``-keyed)."""
        return cache_key(
            "campaign_point", self.approach, self.n_ranks, self.seed,
            self.n_steps, self.gaps, self.fs_type, self.basedir,
            self.fault_rate, self.resume, self.config, self.faults,
            self.delta, self.tam, self.trace, self.points_per_rank,
            self.mutated_fraction)


@dataclass(frozen=True)
class SkippedPoint:
    """A grid combination expansion dropped, with the reason why."""

    approach: str
    n_ranks: int
    reason: str


@dataclass(frozen=True)
class ExpandedCampaign:
    """The deterministic expansion of one spec."""

    spec: CampaignSpec
    points: tuple[CampaignPoint, ...]
    skipped: tuple[SkippedPoint, ...] = ()

    def hashes(self) -> tuple[str, ...]:
        """Per-point content hashes, in expansion order."""
        return tuple(p.content_hash for p in self.points)


#: The fault-rate stream stride: rate index ``i`` draws its schedule from
#: ``StreamRegistry(root_seed + 7919 * i)``.
_RATE_SEED_STRIDE = 7919


def _rate_schedule(spec: CampaignSpec, config: MachineConfig, n_ranks: int,
                   rate_index: int, rate: float) -> FaultSchedule:
    template = spec.faults.generate or FaultConfig()
    cfg = replace(template, fs_errors=rate, fs_stalls=rate / 2.0)
    root_seed = config.seed if spec.seed is None else spec.seed
    return FaultSchedule.generate(
        StreamRegistry(root_seed + _RATE_SEED_STRIDE * rate_index),
        n_ranks, cfg)


def expand(spec: CampaignSpec) -> ExpandedCampaign:
    """Expand a spec into points: approach-major, then np, delta, tam, rate.

    Infeasible combinations (an ``rbio_nfNNN`` key whose file count
    leaves fewer than two ranks per writer group) are skipped and
    recorded in :attr:`ExpandedCampaign.skipped`, never silently dropped.
    """
    config = spec.machine.config()
    n_steps, gaps = spec.steps_and_gaps()
    base_faults = FaultSchedule(spec.faults.specs)
    points: list[CampaignPoint] = []
    skipped: list[SkippedPoint] = []
    for approach in spec.grid.approaches:
        for n_ranks in spec.grid.np:
            if approach.startswith("rbio_nf") and approach != "rbio_nf1":
                nf = int(approach[7:])
                if n_ranks // nf < 2:
                    skipped.append(SkippedPoint(
                        approach, n_ranks,
                        f"nf={nf} needs at least 2 ranks per writer group "
                        f"at np={n_ranks}"))
                    continue
            workload = dict(
                points_per_rank=spec.workload.points_per_rank,
                mutated_fraction=spec.workload.mutated_fraction,
            ) if spec.workload is not None else {}
            for delta in (spec.grid.delta or ("off",)):
                for tam in (spec.grid.tam or ("off",)):
                    for trace in (spec.grid.trace or ("off",)):
                        common = dict(
                            approach=approach, n_ranks=n_ranks,
                            config=config, seed=spec.seed, n_steps=n_steps,
                            gaps=gaps, fs_type=spec.fs_type,
                            basedir=spec.basedir,
                            resume=spec.resume.enabled, delta=delta,
                            tam=tam, trace=trace, **workload,
                        )
                        if spec.grid.fault_rates:
                            for i, rate in enumerate(spec.grid.fault_rates):
                                points.append(CampaignPoint(
                                    faults=_rate_schedule(spec, config,
                                                          n_ranks, i, rate),
                                    fault_rate=rate, **common))
                        else:
                            points.append(CampaignPoint(faults=base_faults,
                                                        **common))
    return ExpandedCampaign(spec, tuple(points), tuple(skipped))


#: Result-dict keys of a delta point (``delta.<key>`` in ``Job.metrics()``).
_DELTA_KEYS = ("bytes_logical", "bytes_to_pfs", "chunk_hits", "chunk_misses")

#: Result-dict keys of a tam point -> their ``Job.metrics()`` names.  The
#: flat spellings are part of the result format caches and readers hold.
_FABRIC_KEYS = {
    "fabric_msgs_intra": "fabric.msgs_intra",
    "fabric_msgs_inter": "fabric.msgs_inter",
    "fabric_bytes_intra": "fabric.bytes_intra",
    "fabric_bytes_inter": "fabric.bytes_inter",
    "tam_msgs": "fabric.tam_msgs",
    "tam_packages": "fabric.tam_packages",
    "tam_coalesce_ratio": "fabric.tam_coalesce_ratio",
}


def run_point(point: CampaignPoint) -> dict:
    """Execute one point; return a JSON-clean metrics dict.

    Module-level and picklable so :func:`~repro.experiments.run_sweep`
    and the sweep service can ship points to worker processes.  The same
    point always produces the same dict (seeded simulation), which is
    what lets the service dedupe concurrent identical requests; it holds
    JSON types only, so a cached copy equals it.
    """
    out = {
        "approach": point.approach,
        "n_ranks": point.n_ranks,
        "n_steps": point.n_steps,
        "seed": point.seed,
        "fault_rate": point.fault_rate,
        "delta": point.delta,
        "tam": point.tam,
        "trace": point.trace,
        "point": point.content_hash,
    }
    if point.is_figure_point:
        res = get_run(point.approach, point.n_ranks, point.config,
                      point.seed).result
        out.update({
            "overall_time": res.overall_time,
            "blocking_time": res.blocking_time,
            "write_bandwidth": res.write_bandwidth,
            "gbps": res.write_bandwidth / 1e9,
        })
        return out
    # Non-figure sweep points never read their profiles: run with the
    # zero-cost None-profiler unless the point is traced (a tracer forces
    # a live profiler; figure points go through get_run, whose summaries
    # read ``run.profiler``, so they keep it on).
    run_config = RunConfig(trace=point.trace, profiling="off",
                           faults=point.faults)
    strategy = strategy_for(point.approach, point.n_ranks,
                            delta=point.delta, tam=point.tam)
    if point.points_per_rank is not None:
        data = EvolvingData.mutating(
            point.points_per_rank,
            mutated_fraction=point.mutated_fraction,
            seed=0 if point.seed is None else point.seed)
    else:
        data = problem_for(point.n_ranks).data()
    run = run_checkpoint_steps(
        strategy, point.n_ranks, data, point.n_steps,
        config=point.config, seed=point.seed, basedir=point.basedir,
        fs_type=point.fs_type, gap_seconds=point.gaps,
        run_config=run_config)
    if point.resume:
        run.restore()
        out.update({
            "restored_step": run.restored_step,
            "failovers": faults_of(run.job).report()["by_kind"].get(
                "writer_failover", 0),
            "crashed_roles": run.results[-1].roles.count("crashed"),
        })
    report = faults_of(run.job).report()
    res = run.results[-1]
    out.update({
        "scheduled": report["scheduled"],
        "injected": report["injected"],
        "overall_time": res.overall_time,
        "blocking_time": res.blocking_time,
        "write_bandwidth": res.write_bandwidth,
        "gbps": res.write_bandwidth / 1e9,
        "per_step_blocking": [r.blocking_time for r in run.results],
    })
    metrics = run.job.metrics()
    if point.delta != "off":
        out.update({key: metrics.get(f"delta.{key}") for key in _DELTA_KEYS})
    if point.tam != "off":
        out.update({flat: metrics.get(name)
                    for flat, name in _FABRIC_KEYS.items()})
    if run.job.tracer is not None:
        out["trace_summary"] = run.job.tracer.summary()
    run.job.close()
    return out
