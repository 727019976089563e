"""Job launcher: assembles a partition and runs SPMD rank generators.

A :class:`Job` owns one DES engine, the torus fabric for the partition, and
the world communicator.  ``spawn`` starts one generator per rank (the SPMD
program); ``run`` drives the engine until every rank finishes and returns
the per-rank results.

A job is also the unit of configuration and measurement: it is built from
one frozen :class:`RunConfig` and owns everything a run mutates — its
span tracer (or ``None``), its profiler (or ``None``), and the
:class:`RunStats` its copy and delta counters land in — so two jobs in
one process never see each other's state, and :meth:`Job.metrics` is the
single publisher of a run's counters.

Higher layers (storage, staging, the NekCEM driver) attach their per-job
services to the job and their per-rank clients to each :class:`RankContext`.

A rank's :class:`RankContext` is built by the first code that indexes
``job.contexts`` for it (DESIGN.md section 17.2); a replayed rank that
never runs a line of its own never has one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional
from weakref import WeakKeyDictionary

from ..buffers import COPY_MODES, run_scope
from ..network import Fabric
from ..profiling import PROFILING_MODES, DarshanProfiler
from ..sim import Engine, StreamRegistry
from ..topology import MachineConfig, intrepid
from ..trace import MODES as TRACE_MODES
from ..trace import SCHEMA, MetricsRegistry, SpanTracer
from .core import Communicator, CommView

__all__ = ["Job", "RankContext", "RunConfig", "RunStats", "run_spmd"]

COALESCE_MODES = ("auto", "off", "require")


@dataclass(frozen=True)
class RunConfig:
    """Everything that selects *how* one run executes (never what it computes).

    ``trace``
        ``off`` (no tracer, zero cost), ``summary`` (per-phase aggregates)
        or ``full`` (every span retained for export).
    ``profiling``
        ``on`` gives the job a :class:`~repro.profiling.DarshanProfiler`,
        ``off`` gives it ``None`` — unless tracing is on, which forces a
        live profiler because the log is where the tracer's fs/phase
        spans live (they are views of its rows).
    ``copy``
        ``zerocopy`` moves rope segment references between hops;
        ``eager`` materializes at every hop (the pre-rope reference the
        data-plane bench and property tests compare against).
    ``coalesce``
        Rank coalescing in the checkpoint runners (ranks replayed without
        a process each; every strategy offers a plan): ``auto`` accepts
        the plan when all ranks share one ``CheckpointData`` and the
        strategy's plan takes the run, ``off`` forces the full SPMD run,
        ``require`` raises if no plan is available.  Coalesced runs are
        bit-identical.
    ``faults``
        A :class:`~repro.faults.FaultSchedule` the runners attach to the
        job, or ``None``.  Each strategy's plan refuses the kinds that
        can reach its members: 1PFPP and coIO any schedule, rbIO/bbIO
        ``rank_crash`` and ``restart``.
    """

    trace: str = "off"
    profiling: str = "on"
    copy: str = "zerocopy"
    coalesce: str = "auto"
    faults: Any = None

    def __post_init__(self) -> None:
        for name, allowed in (("trace", TRACE_MODES),
                              ("profiling", PROFILING_MODES),
                              ("copy", COPY_MODES),
                              ("coalesce", COALESCE_MODES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} must be one of {allowed}, got {value!r}")


class RunStats:
    """One run's copy and delta counters (fabric counts live on the fabric).

    ``bytes_copied`` counts payload bytes physically moved between host
    buffers and ``buffer_allocs`` the fresh buffers those moves filled;
    zero-copy rope operations touch neither.  ``bytes_logical`` is the
    application state delta commits covered, ``bytes_to_pfs`` what they
    actually shipped (header + fresh chunks + manifest), and
    ``chunk_hits`` / ``chunk_misses`` the parent-manifest dedup outcomes —
    all zero while ``delta="off"``.  ``eager`` is the run's copy
    discipline and ``ropes`` its per-data rope memo, both used by
    :mod:`repro.buffers` only.
    """

    __slots__ = ("eager", "ropes", "bytes_copied", "buffer_allocs",
                 "bytes_logical", "bytes_to_pfs", "chunk_hits",
                 "chunk_misses")

    def __init__(self, eager: bool = False) -> None:
        self.eager = eager
        self.ropes = WeakKeyDictionary()
        self.bytes_copied = 0
        self.buffer_allocs = 0
        self.bytes_logical = 0
        self.bytes_to_pfs = 0
        self.chunk_hits = 0
        self.chunk_misses = 0

    def count_copy(self, nbytes: int) -> None:
        """Record one materialization of ``nbytes`` into a fresh buffer."""
        self.bytes_copied += nbytes
        self.buffer_allocs += 1

    def record_commit(self, logical: int, to_pfs: int, hits: int,
                      misses: int) -> None:
        """Record one delta commit."""
        self.bytes_logical += logical
        self.bytes_to_pfs += to_pfs
        self.chunk_hits += hits
        self.chunk_misses += misses


class RankContext:
    """Everything one simulated MPI rank can see.

    Attributes
    ----------
    rank:
        World rank id.
    comm:
        :class:`~repro.mpi.core.CommView` on the world communicator.
    job:
        The owning :class:`Job` (engine, fabric, machine config).
    fs:
        Per-rank file-system client of the job's attached file system
        (:func:`repro.storage.attach_storage`), built on first use; may be
        assigned.  ``None`` while no file system is attached.
    profiler:
        The job's I/O profiler, or ``None`` when profiling is off.
    """

    __slots__ = ("rank", "comm", "job", "_fs", "profiler", "user")

    def __init__(self, rank: int, comm: CommView, job: "Job") -> None:
        self.rank = rank
        self.comm = comm
        self.job = job
        self._fs = None
        self.profiler = job.profiler
        self.user: dict[str, Any] = {}

    @property
    def fs(self):
        """This rank's file-system client (most ranks of a run never touch
        the file system, so it is built when first asked for)."""
        client = self._fs
        if client is None:
            fs = self.job.services.get("fs")
            if fs is not None:
                client = self._fs = fs.client(self.rank)
        return client

    @fs.setter
    def fs(self, client) -> None:
        self._fs = client

    @property
    def engine(self) -> Engine:
        """The job's simulation engine (for ``ctx.engine.now`` etc.)."""
        return self.job.engine

    @property
    def config(self) -> MachineConfig:
        """The machine configuration."""
        return self.job.config

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext rank={self.rank}/{self.comm.size}>"


class _Contexts(Sequence):
    """``job.contexts``: reads like the list of every rank's
    :class:`RankContext` (iteration builds them all), each built when
    first indexed; :meth:`built` is those that exist."""

    __slots__ = ("_job", "_built")

    def __init__(self, job: "Job") -> None:
        self._job = job
        self._built: dict[int, RankContext] = {}

    def __len__(self) -> int:
        return self._job.n_ranks

    def __getitem__(self, rank: int) -> RankContext:
        ctx = self._built.get(rank)
        if ctx is None:
            job = self._job
            if not -job.n_ranks <= rank < job.n_ranks:
                raise IndexError(f"rank {rank} out of range for "
                                 f"{job.n_ranks} ranks")
            if rank < 0:
                return self[rank + job.n_ranks]
            ctx = self._built[rank] = RankContext(
                rank, CommView(job.world, rank), job)
        return ctx

    def built(self) -> Iterable[RankContext]:
        """The contexts that exist, in the order they were first asked for."""
        return self._built.values()


class Job:
    """One simulated parallel job on a partition of the machine.

    Parameters
    ----------
    n_ranks:
        Partition size in MPI ranks (cores).
    config:
        Machine constants; defaults to the calibrated Intrepid preset.
    seed:
        Overrides ``config.seed`` for the job's random streams.
    run_config:
        How the run executes (tracing, profiling, copy mode, coalescing,
        faults); defaults to :class:`RunConfig`'s defaults.
    """

    def __init__(self, n_ranks: int, config: Optional[MachineConfig] = None,
                 seed: Optional[int] = None,
                 run_config: Optional[RunConfig] = None) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.config = config if config is not None else intrepid()
        self.n_ranks = n_ranks
        rc = self.run_config = run_config or RunConfig()
        self.profiler: Optional[DarshanProfiler] = None
        if rc.profiling == "on" or rc.trace != "off":
            self.profiler = DarshanProfiler()
        self.tracer: Optional[SpanTracer] = None
        if rc.trace != "off":
            self.tracer = SpanTracer(rc.trace, log=self.profiler)
            self.tracer.cores_per_node = self.config.cores_per_node
        self.stats = RunStats(eager=rc.copy == "eager")
        self.engine = Engine()
        self.fabric = Fabric(self.engine, self.config, n_ranks)
        self.streams = StreamRegistry(self.config.seed if seed is None else seed)
        self.world = Communicator(self.engine, self.fabric, range(n_ranks))
        self.contexts: Optional[_Contexts] = _Contexts(self)
        self._rank_procs: list = []
        self.services: dict[str, Any] = {}

    def spawn(self, rank_fn: Callable, *args, ranks: Optional[list[int]] = None) -> None:
        """Start ``rank_fn(ctx, *args)`` as a process on each rank.

        ``rank_fn`` must be a generator function (the SPMD program).  By
        default every rank runs it; pass ``ranks`` to restrict.
        """
        if self.contexts is None:
            raise RuntimeError("spawn() on a closed job")
        targets = range(self.n_ranks) if ranks is None else ranks
        for r in targets:
            ctx = self.contexts[r]
            proc = self.engine.process(rank_fn(ctx, *args), name=f"rank{r}")
            self._rank_procs.append((r, proc))

    def run(self, until: Optional[float] = None) -> dict[int, Any]:
        """Drive the simulation to completion; return per-rank results.

        Raises if any rank process failed (its exception propagates) or, for
        ``until=None``, if some rank never finished (deadlock diagnosis).
        """
        if self.contexts is None:
            raise RuntimeError("run() on a closed job")
        with run_scope(self.stats):
            self.engine.run(until=until)
        results: dict[int, Any] = {}
        stuck = []
        # Later spawns for the same rank overwrite earlier results, so a
        # two-wave campaign (checkpoint, then restore on the same job) reads
        # the latest wave's values.
        for r, proc in self._rank_procs:
            if proc.is_alive:
                stuck.append(r)
            elif not proc.ok:
                # The process failed but had observers (so the engine did
                # not crash at fire time); surface its exception here
                # instead of returning it as a result value.
                raise proc.value
            else:
                results[r] = proc.value
        if stuck and until is None:
            preview = ", ".join(map(str, stuck[:8]))
            raise RuntimeError(
                f"{len(stuck)} rank(s) never finished (deadlock?): ranks {preview}..."
            )
        return results

    def close(self) -> None:
        """Release the finished run; the job can no longer spawn or run.

        A job is a tree apart from the edges that point back at it —
        ``RankContext.job``, a service's ``job``, the fabric's fault hook
        — so dropping its contexts, services and rank processes here lets
        the whole run (file images, per-rank state, finished generators)
        die by reference count at once instead of waiting, as one large
        cycle, for the cyclic collector.  :meth:`metrics`, ``profiler``,
        ``tracer`` and results already taken stay readable.
        """
        self.contexts = self.services = self._rank_procs = None
        self.fabric.injector = None
        self.engine.close()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    def metrics(self) -> MetricsRegistry:
        """This run's counters under the canonical ``repro.trace.SCHEMA`` names.

        ``sim.*`` from the engine, ``copy.*`` / ``delta.*`` from the run
        stats, ``fabric.*`` from the fabric, plus ``trace.*`` phase totals
        when the run was traced.  A fresh job reports zeros; nothing here
        is shared with any other job.
        """
        reg = MetricsRegistry()
        reg.update_counters(self.engine.counters())
        fabric = self.fabric.stats()
        for name in SCHEMA:
            owner, key = name.split(".", 1)
            if owner == "fabric":
                reg.counter(name, fabric[key])
            elif owner != "sim":  # copy.*, delta.*
                reg.counter(name, getattr(self.stats, key))
        if self.tracer is not None:
            reg.collect_tracer(self.tracer)
        return reg


def run_spmd(rank_fn: Callable, n_ranks: int,
             config: Optional[MachineConfig] = None, *args,
             seed: Optional[int] = None) -> dict[int, Any]:
    """Convenience: build a :class:`Job`, run ``rank_fn`` on all ranks.

    Returns the per-rank return values.
    """
    job = Job(n_ranks, config=config, seed=seed)
    job.spawn(rank_fn, *args)
    results = job.run()
    job.close()
    return results
