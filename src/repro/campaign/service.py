"""The sharded sweep service: one supervisor, many worker processes.

:class:`SweepService` is the long-lived core behind the HTTP API and the
``repro-campaign`` CLI.  A submitted campaign is expanded
(:func:`~repro.campaign.compiler.expand`) and its points are sharded
across a shared :class:`~concurrent.futures.ProcessPoolExecutor`.  Three
layers keep redundant work off the pool:

1. **campaign dedup** — submitting a spec whose ``campaign_id`` is
   already registered returns the existing campaign (one execution no
   matter how many concurrent clients submit it);
2. **in-flight point dedup** — two different campaigns that expand to a
   point with the same content hash share one future while it runs;
3. **result cache** — every finished point streams into the (bounded)
   :class:`~repro.experiments.parallel.DiskCache`, so later campaigns
   start from warm hits.

A worker process that dies (out of memory on a large point, a signal)
breaks the whole pool: every pending future fails and every later
``submit`` raises.  Runs are deterministic, so the service rebuilds the
pool and re-dispatches each point that was in flight, once; a point whose
worker dies a second time fails with :class:`WorkerLost`, and the service
stays usable either way.

All public methods are thread-safe; the HTTP layer calls them from
request-handler threads.  :attr:`SweepService.counters` exposes exactly
how many points actually executed vs. were deduped or served from cache
— the observability hook the dedup tests (and CI smoke) assert on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Union

from ..experiments.parallel import DiskCache, default_workers, sweep_cache
from .compiler import ExpandedCampaign, expand, run_point
from .spec import CampaignSpec

__all__ = ["SweepService", "CampaignStatus", "WorkerLost", "CampaignEvicted",
           "MAX_FINISHED_CAMPAIGNS"]

#: Finished campaigns a service keeps answering for (their points stay in
#: the result cache; resubmitting an evicted spec is served from it).
MAX_FINISHED_CAMPAIGNS = 256

#: Evicted ids remembered (to answer 410 rather than 404); bounded too.
_EVICTED_IDS_KEPT = 4096


class WorkerLost(RuntimeError):
    """A point's worker process died twice; the point was not computed."""


class CampaignEvicted(KeyError):
    """The campaign finished and has since made room for newer ones."""


class CampaignStatus:
    """Mutable bookkeeping for one registered campaign."""

    def __init__(self, campaign_id: str, expanded: ExpandedCampaign) -> None:
        self.campaign_id = campaign_id
        self.expanded = expanded
        self.results: list[Optional[dict]] = [None] * len(expanded.points)
        self.errors: dict[int, str] = {}
        self.futures: list[Optional[Future]] = [None] * len(expanded.points)
        self.submissions = 1  # how many clients asked for this campaign

    @property
    def total(self) -> int:
        return len(self.expanded.points)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None) + len(self.errors)

    @property
    def state(self) -> str:
        if self.errors:
            return "failed"
        return "done" if self.completed == self.total else "running"

    def status_dict(self) -> dict:
        """JSON-clean progress snapshot."""
        out = {
            "campaign_id": self.campaign_id,
            "name": self.expanded.spec.name,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "submissions": self.submissions,
            "skipped": [
                {"approach": s.approach, "np": s.n_ranks, "reason": s.reason}
                for s in self.expanded.skipped
            ],
        }
        if self.errors:
            out["errors"] = dict(sorted(self.errors.items()))
        return out

    def summary_dict(self) -> dict:
        """Per-point headline metrics (``None`` for unfinished points)."""
        points = []
        for point, result in zip(self.expanded.points, self.results):
            row = {
                "approach": point.approach,
                "np": point.n_ranks,
                "fault_rate": point.fault_rate,
                "hash": point.content_hash,
            }
            if result is not None:
                row.update({k: result.get(k) for k in
                            ("overall_time", "blocking_time", "gbps")})
            points.append(row)
        return {**self.status_dict(), "points": points}


class SweepService:
    """Shards campaign points across worker processes; dedupes everything.

    ``n_workers`` defaults to the ``REPRO_BENCH_PARALLEL`` convention of
    :func:`~repro.experiments.parallel.default_workers`.  ``cache``
    accepts a :class:`DiskCache`, a directory path, ``None`` to adopt the
    environment's ``REPRO_BENCH_CACHE`` cache, or ``False`` to disable
    caching outright; a path or ``None`` is bounded by
    ``REPRO_BENCH_CACHE_MAX``.  At most ``max_finished`` settled campaigns stay
    registered: beyond that the oldest are evicted (running ones never),
    and asking for an evicted id raises :class:`CampaignEvicted`.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 cache: Union[DiskCache, str, None, bool] = None,
                 max_finished: int = MAX_FINISHED_CAMPAIGNS) -> None:
        workers = default_workers() if n_workers is None else max(1, n_workers)
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self.n_workers = workers
        if cache is False:
            self.cache: Optional[DiskCache] = None
        elif isinstance(cache, DiskCache):
            self.cache = cache
        elif isinstance(cache, str):
            self.cache = sweep_cache(cache)
        else:
            self.cache = sweep_cache()
        # Reentrant: add_done_callback runs synchronously (in the caller,
        # under this lock) when the future is already finished.
        self._lock = threading.RLock()
        self._campaigns: dict[str, CampaignStatus] = {}
        self.max_finished = max(0, max_finished)
        self._evicted: dict[str, None] = {}  # ids only, oldest first
        self._inflight: dict[str, Future] = {}
        self.counters = {
            "campaigns_submitted": 0,
            "campaigns_deduped": 0,
            "points_executed": 0,
            "points_deduped": 0,
            "points_cached": 0,
            "pool_rebuilds": 0,
            "campaigns_evicted": 0,
        }

    # -- submission --------------------------------------------------------

    def submit(self, spec: Union[CampaignSpec, dict]) -> str:
        """Register a campaign and start executing it; returns its id.

        Identical concurrent submissions collapse onto the already
        running campaign (the ``campaigns_deduped`` counter ticks and
        ``submissions`` on the campaign increments).
        """
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(spec)
        campaign_id = spec.campaign_id
        # Expanding costs points x np: do it before taking the lock, so a
        # big submission never stalls status() or /healthz.
        expanded = expand(spec)
        with self._lock:
            self.counters["campaigns_submitted"] += 1
            existing = self._campaigns.get(campaign_id)
            if existing is not None:
                existing.submissions += 1
                self.counters["campaigns_deduped"] += 1
                return campaign_id
            status = CampaignStatus(campaign_id, expanded)
            self._campaigns[campaign_id] = status
            self._evicted.pop(campaign_id, None)
            for index, point in enumerate(status.expanded.points):
                self._schedule(status, index, point)
            self._evict(status)  # every point may have been a cache hit
        return campaign_id

    def _evict(self, settled: CampaignStatus) -> None:
        """Once ``settled`` is, drop the oldest finished campaigns beyond
        the retention bound.  Caller holds ``self._lock``."""
        if settled.state == "running":
            return
        finished = [cid for cid, status in self._campaigns.items()
                    if status.state != "running"]
        for cid in finished[:max(0, len(finished) - self.max_finished)]:
            del self._campaigns[cid]
            self._evicted[cid] = None
            self.counters["campaigns_evicted"] += 1
        while len(self._evicted) > _EVICTED_IDS_KEPT:
            del self._evicted[next(iter(self._evicted))]

    def _schedule(self, status: CampaignStatus, index: int, point) -> None:
        """Resolve one point: cache hit, shared in-flight future, or pool.

        Caller holds ``self._lock``.
        """
        key = point.content_hash
        if self.cache is not None:
            hit = self.cache.get(key)
            # Only a point's own result is a hit: any other entry under its
            # key is a miss, and the run's result overwrites it.
            if isinstance(hit, dict) and hit.get("point") == key:
                status.results[index] = hit
                self.counters["points_cached"] += 1
                return
        future = self._inflight.get(key)
        if future is not None:
            self.counters["points_deduped"] += 1
        else:
            future = self._inflight[key] = Future()
            self.counters["points_executed"] += 1
            future.add_done_callback(
                lambda f, key=key: self._retire(key, f))
            self._dispatch(point, future, retry=True)
        status.futures[index] = future
        future.add_done_callback(
            lambda f, status=status, index=index: self._record(
                status, index, f))

    def _dispatch(self, point, future: Future, retry: bool) -> None:
        """Run ``point`` on the pool and settle ``future`` with the outcome.

        ``future`` is the service's own, so a re-dispatch after a worker
        death is invisible to the campaigns waiting on it.  Caller holds
        ``self._lock``.
        """
        pool = self._pool
        try:
            attempt = pool.submit(run_point, point)
        except BrokenProcessPool:  # died since the last point settled
            self._rebuild(pool)
            pool = self._pool
            attempt = pool.submit(run_point, point)

        def settle(attempt: Future) -> None:
            exc = attempt.exception()
            if exc is None:
                future.set_result(attempt.result())
            elif not isinstance(exc, BrokenProcessPool):
                future.set_exception(exc)
            elif retry:
                with self._lock:
                    self._rebuild(pool)
                    self._dispatch(point, future, retry=False)
            else:
                future.set_exception(WorkerLost(
                    f"worker process died twice running point "
                    f"{point.content_hash[:12]} ({point.approach} "
                    f"np={point.n_ranks})"))

        attempt.add_done_callback(settle)

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` (once, however many futures report it)."""
        if self._pool is broken:
            broken.shutdown(wait=False)
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            self.counters["pool_rebuilds"] += 1

    def _retire(self, key: str, future: Future) -> None:
        """Drop a finished future from the in-flight table; cache success."""
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
        if self.cache is not None and future.exception() is None:
            self.cache.put(key, future.result())

    def _record(self, status: CampaignStatus, index: int,
                future: Future) -> None:
        exc = future.exception()
        with self._lock:
            if exc is not None:
                status.errors[index] = f"{type(exc).__name__}: {exc}"
            else:
                status.results[index] = future.result()
            self._evict(status)

    # -- inspection --------------------------------------------------------

    def _get(self, campaign_id: str) -> CampaignStatus:
        status = self._campaigns.get(campaign_id)
        if status is None:
            if campaign_id in self._evicted:
                raise CampaignEvicted(
                    f"campaign {campaign_id!r} finished and was evicted "
                    f"(the service keeps {self.max_finished} finished "
                    f"campaigns); resubmit it to be served from the cache")
            raise KeyError(f"unknown campaign {campaign_id!r}")
        return status

    def status(self, campaign_id: str) -> dict:
        """Progress snapshot for one campaign (raises ``KeyError``)."""
        with self._lock:
            return self._get(campaign_id).status_dict()

    def summary(self, campaign_id: str) -> dict:
        """Status plus per-point headline metrics."""
        with self._lock:
            return self._get(campaign_id).summary_dict()

    def results(self, campaign_id: str) -> list[Optional[dict]]:
        """Full per-point result dicts, in expansion order."""
        with self._lock:
            return list(self._get(campaign_id).results)

    def list_campaigns(self) -> list[dict]:
        """Status snapshots of every registered campaign."""
        with self._lock:
            return [c.status_dict() for c in self._campaigns.values()]

    def service_status(self) -> dict:
        """Service-level counters and load (the HTTP ``/status`` payload)."""
        with self._lock:
            return {
                "n_workers": self.n_workers,
                "campaigns": len(self._campaigns),
                "inflight_points": len(self._inflight),
                "counters": dict(self.counters),
            }

    def metrics_registry(self):
        """Live telemetry as a :class:`repro.trace.MetricsRegistry`.

        Backs the HTTP ``/metrics`` endpoint: service counters and load
        gauges under ``campaign.``.  Simulator counters belong to one job
        each (:meth:`repro.mpi.Job.metrics`) and reach clients through
        the per-point results, not this process-level scrape.
        """
        from ..trace import MetricsRegistry
        registry = MetricsRegistry()
        status = self.service_status()
        registry.gauge("campaign.n_workers", status["n_workers"])
        registry.gauge("campaign.campaigns", status["campaigns"])
        registry.gauge("campaign.inflight_points", status["inflight_points"])
        for key, value in status["counters"].items():
            registry.counter(f"campaign.{key}", value)
        return registry

    # -- lifecycle ---------------------------------------------------------

    def wait(self, campaign_id: str,
             timeout: Optional[float] = None) -> dict:
        """Block until a campaign settles; return its final status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            futures = [f for f in self._get(campaign_id).futures
                       if f is not None]
        futures_wait(futures, timeout=timeout)
        while True:
            # Done-callbacks record results *after* waiters wake; spin
            # until the bookkeeping catches up (or the deadline passes).
            status = self.status(campaign_id)
            if status["state"] != "running":
                return status
            if deadline is not None and time.monotonic() >= deadline:
                return status
            time.sleep(0.01)

    def shutdown(self) -> None:
        """Stop the worker pool (finishes in-flight points first)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
