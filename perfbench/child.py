"""One rep: run a workload's points once in this (fresh) process.

Reads a JSON job on stdin, prints one JSON line on stdout.  The program is
driven only through its public campaign surface — ``CampaignSpec.from_dict``
-> ``expand`` -> ``run_point`` — and only result dicts are read, so internal
refactors of ``repro`` cannot break the harness.

Job keys: ``specs`` (campaign spec dicts, run in order), ``spawned_at``
(parent's ``time.time()`` just before the spawn, for ``setup_s``),
``run`` (false: set up and exit — a set-up probe), ``profile`` (true:
``cProfile`` around the ``run_point`` calls plus the direct public-call
timings), ``scratch`` (directory for the temporary ``DiskCache``).

Host-speed reference.  The build and driver machines are shared hosts
whose per-core speed wanders by tens of percent for seconds at a time, which
no median over a 20 s window removes.  So an untraced child also times a
fixed kernel every ``SpeedSampler.PERIOD`` seconds, on the same thread and
core as the program (a ``SIGALRM`` handler, ~6 % of the run), and reports
every interval twice: ``seconds``, the wall time net of the kernel's own,
and ``speed``, how fast the kernel ran inside the interval relative to its
reference times.  ``seconds * speed`` is the time the interval would have
taken at the reference speed.  Set-up cannot be sampled inside (it is
mostly imports, and samples taken there are bimodal); its speed is a burst
of kernel runs taken right after it.  On the build machine this cut the
spread between invocations from 12-30 % to 2-5 % of the median (quartile
to quartile); see README.md.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import tempfile
import time

from .layers import by_layer


class SpeedSampler:
    """Times a fixed kernel periodically on the main thread, from ``SIGALRM``.

    The kernel has an interpreter-bound half (an arithmetic loop) and a
    memory-bound half (a random walk over a 20 MB list of ints, beyond the
    4 MiB L2): neighbours on the host slow the two differently, and the
    mean of the two slow-downs tracked all four workloads where either half
    alone failed on one of them (README.md, "Reference-speed seconds").
    """

    PERIOD = 0.025
    #: Seconds the two halves take at the reference speed (the build
    #: machine when no neighbour slows it); they only fix the unit.
    REFERENCE_CPU_S = 0.0004
    REFERENCE_MEM_S = 0.0007
    _WALK = 500_000

    def __init__(self) -> None:
        import numpy  # already loaded by ``repro``; builds the walk in ~40 ms
        order = numpy.random.default_rng(1).permutation(self._WALK)
        succ = numpy.empty(self._WALK, dtype=numpy.int64)
        succ[order[:-1]] = order[1:]
        succ[order[-1]] = order[0]
        self._next = succ.tolist()  # one cycle through every slot
        self._at = 0
        self.samples: list = []  # (kernel seconds, slow-down), in order

    def _tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        t1 = time.perf_counter()
        at, succ = self._at, self._next
        for _ in range(2000):
            at = succ[at]
        self._at = at
        t2 = time.perf_counter()
        self.samples.append((t2 - t0, ((t1 - t0) / self.REFERENCE_CPU_S
                                       + (t2 - t1) / self.REFERENCE_MEM_S) / 2))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        """Sample now, just before an interval starts; pass to ``since``."""
        self._tick()
        return len(self.samples) - 1

    def _speed(self, window: list) -> float:
        return len(window) / sum(slow for _, slow in window)

    def speed_now(self, ticks: int = 30) -> float:
        """Speed from a burst of samples: for an interval that just ended
        and could not be sampled inside (set-up, before any import)."""
        mark = len(self.samples)
        for _ in range(ticks):
            self._tick()
        return self._speed(self.samples[mark:])

    def since(self, mark: int, gross_seconds: float) -> dict:
        """Sample now, just after the interval; its ``seconds`` and ``speed``."""
        self._tick()
        window = self.samples[mark:]
        return {"seconds": gross_seconds - sum(d for d, _ in window[1:-1]),
                "speed": self._speed(window)}


def _timed_ms(fn, iterations: int = 50) -> float:
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def _direct_timings(job: dict, specs: list, points: list,
                    last_result: dict) -> dict:
    """Host cost of the public calls around ``run_point`` (profiler off)."""
    from repro.campaign import expand
    from repro.experiments import DiskCache

    out = {}
    out["campaign.expand_ms_per_1k_points"] = _timed_ms(
        lambda: [expand(s) for s in specs], 20) / len(points) * 1e3
    out["campaign.hash_us_per_point"] = _timed_ms(
        lambda: [p.content_hash for p in points]) / len(points) * 1e3
    with tempfile.TemporaryDirectory(dir=job["scratch"]) as root:
        cache = DiskCache(root)
        key = points[-1].content_hash
        out["cache.put_ms"] = _timed_ms(lambda: cache.put(key, last_result))
        out["cache.get_ms"] = _timed_ms(lambda: cache.get(key))
    return out


def main() -> int:
    job = json.load(sys.stdin)
    from repro.campaign import CampaignSpec, expand, run_point

    specs = [CampaignSpec.from_dict(d) for d in job["specs"]]
    points = [p for s in specs for p in expand(s).points]
    setup_s = time.time() - job["spawned_at"]
    sampler = SpeedSampler()
    out = {"setup": {"seconds": setup_s, "speed": sampler.speed_now()},
           "points": []}
    if not job["run"]:
        print(json.dumps(out))
        return 0

    profiler = None
    if job["profile"]:
        import cProfile
        profiler = cProfile.Profile()
    else:
        sampler.start()  # a profiled run is not timed: sample its ends only
    for point in points:
        record = {"approach": point.approach, "n_ranks": point.n_ranks,
                  "n_steps": point.n_steps, "start": time.time()}
        mark = sampler.mark()
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            record["result"] = run_point(point)
        except Exception as exc:  # a failed point fails its checks, not the rep
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.disable()
        record.update(sampler.since(mark, time.perf_counter() - t0))
        record["end"] = time.time()
        out["points"].append(record)
    sampler.stop()  # a timer left running kills the exiting process
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if profiler is not None:
        profiler.create_stats()
        out["layers"] = by_layer(profiler.stats)
        try:
            out["direct"] = _direct_timings(
                job, specs, points, out["points"][-1].get("result", {}))
        except Exception as exc:  # reported as unavailable, never a crash
            out["direct_error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
