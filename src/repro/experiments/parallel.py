"""Parallel, disk-cached sweep execution.

Regenerating the paper's evaluation means sweeping the same checkpoint
experiment over (approach x processor count) grids.  Points are fully
independent — a sweep is embarrassingly parallel — and bit-reproducible
(every run is seeded), so results can be fanned out across worker
processes and memoized on disk across invocations.  :func:`run_sweep` is
the one local fan-out (``repro-campaign run`` and ``get_runs`` use it).

Three knobs, all environment-driven so ``pytest benchmarks/`` needs no
plumbing:

``REPRO_BENCH_PARALLEL``
    Worker-process count for :func:`run_sweep`.  Unset: one worker per
    spare core (``cpu_count - 1``, min 1 — i.e. serial on small boxes).
    ``1`` forces serial (in-process, easiest to debug/profile).

``REPRO_BENCH_CACHE``
    Disk-cache location.  Unset/empty/``0``: caching off.  ``1``: the
    default ``.repro-cache/`` under the current directory.  Anything
    else: used as the cache directory path.

``REPRO_BENCH_CACHE_MAX``
    Cache size bound in bytes (suffixes ``K``/``M``/``G`` accepted, e.g.
    ``512M``).  Unset/empty: unbounded.  When a write pushes the cache
    past the bound, least-recently-used entries are evicted (reads touch
    entry mtimes) until it fits again — any cache :func:`sweep_cache` builds.

Cache keys hash every input that determines a run's output — approach
key, rank count, seed, the full :class:`~repro.topology.MachineConfig`
repr — plus :data:`CACHE_VERSION`, which must be bumped whenever timing
semantics change anywhere in the simulator (engine, fabric, storage,
strategies).  Entries are canonical JSON — data, never code, so a
directory shared between processes cannot run anything in its readers —
written atomically (tmp + rename); eviction is serialized through an
``O_EXCL`` lock file so at most one process compacts at a time, and every
reader treats a concurrently-evicted or unparseable entry as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "CACHE_VERSION",
    "DiskCache",
    "cache_key",
    "parse_size",
    "point_seed",
    "sweep_cache",
    "default_workers",
    "run_sweep",
]

#: Bump when any change alters simulated timings, or what an entry holds
#: (the JSON form of ``RunSummary``, a ``run_point`` result dict): cached
#: entries from earlier versions must never be served as current results.
#: 2: ``CheckpointResult`` role codes.  3: JSON entries.
CACHE_VERSION = 3


def cache_key(*parts: Any) -> str:
    """Stable content hash over heterogeneous key parts.

    Parts are rendered with ``repr`` — adequate for the scalars, strings,
    and frozen dataclasses that define a run — and separated unambiguously.
    """
    blob = "\x1f".join(repr(p) for p in (CACHE_VERSION,) + parts)
    return hashlib.sha256(blob.encode()).hexdigest()


def point_seed(base_seed: Optional[int], *fields: Any) -> Optional[int]:
    """Deterministic per-point seed derived from a base seed and the point.

    ``None`` stays ``None`` (the unseeded-run convention); otherwise each
    sweep point gets its own stream, stable across runs and independent of
    execution order or worker assignment.
    """
    if base_seed is None:
        return None
    digest = cache_key("seed", base_seed, *fields)
    return int(digest[:16], 16)


class DiskCache:
    """JSON-per-entry cache directory; safe for concurrent writers.

    A value is anything :func:`json.dumps` encodes (``put`` raises
    ``TypeError`` otherwise), stored canonically (sorted keys).

    With ``max_bytes`` set the cache is bounded: after each write, if the
    directory exceeds the bound, least-recently-used entries (by mtime;
    reads touch their entry) are unlinked until it fits.  Eviction runs
    under an ``O_EXCL`` lock file so concurrent writer processes never
    compact simultaneously; losers simply skip — the next write retries.
    Readers racing an eviction observe a clean miss and recompute.
    """

    #: A crashed evictor must not wedge the cache: locks older than this
    #: many seconds are broken by the next evictor.
    _LOCK_STALE_SECONDS = 60.0
    #: Orphaned ``*.tmp`` files (a writer killed mid-dump) older than this
    #: are swept during eviction.
    _TMP_STALE_SECONDS = 300.0

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value, or ``None`` on miss or corrupt entry."""
        path = self._path(key)
        try:
            value = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except Exception:
            # A torn write (interrupted run) or not JSON: a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if self.max_bytes is not None:
            try:
                os.utime(path)  # LRU touch; entry may be evicted mid-read
            except OSError:
                pass
        return value

    def put(self, key: str, value: Any) -> None:
        """Store atomically: a reader sees the old entry or the new one."""
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._maybe_evict()

    def _maybe_evict(self) -> None:
        if self.max_bytes is None:
            return
        lock = self.root / ".evict.lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Another process is evicting.  Break the lock only if its
            # holder looks dead (mtime far in the past), else skip.
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                return
            if age < self._LOCK_STALE_SECONDS:
                return
            try:
                lock.unlink()
            except OSError:
                return
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                return
        try:
            os.close(fd)
            self._evict_lru()
        finally:
            try:
                lock.unlink()
            except OSError:
                pass

    def _evict_lru(self) -> None:
        """Unlink oldest entries until the cache fits ``max_bytes`` again."""
        now = time.time()
        entries = []
        for path in self.root.iterdir():
            try:
                st = path.stat()
            except OSError:
                continue  # lost a race with another writer/evictor
            if path.suffix == ".tmp":
                if now - st.st_mtime > self._TMP_STALE_SECONDS:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            if path.suffix == ".json":
                entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _t, size, _p in entries)
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        # Never evict the newest entry: the value just written must be
        # readable even when it alone exceeds the bound.
        for _mtime, size, path in entries[:-1]:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size


def parse_size(spec: str) -> int:
    """Parse a byte count with an optional ``K``/``M``/``G`` suffix."""
    text = spec.strip().upper()
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:] or "", 1)
    if scale != 1:
        text = text[:-1]
    try:
        value = int(float(text) * scale)
    except (ValueError, OverflowError):  # "lots"; "inf" / "1e400"
        raise ValueError(
            f"bad size {spec!r}: expected bytes with optional K/M/G suffix"
        ) from None
    if value < 1:
        raise ValueError(f"size must be positive, got {spec!r}")
    return value


def sweep_cache(root: Optional[str] = None) -> Optional[DiskCache]:
    """The disk cache at ``root`` — by default ``REPRO_BENCH_CACHE``'s,
    ``None`` when that turns caching off — bounded by
    ``REPRO_BENCH_CACHE_MAX``.  Every cache the package opens is built
    here, so none of them escapes the bound."""
    if root is None:
        spec = os.environ.get("REPRO_BENCH_CACHE", "")
        if spec in ("", "0"):
            return None
        root = ".repro-cache" if spec == "1" else spec
    max_spec = os.environ.get("REPRO_BENCH_CACHE_MAX", "")
    try:
        max_bytes = parse_size(max_spec) if max_spec else None
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_CACHE_MAX: {exc}") from None
    return DiskCache(root, max_bytes=max_bytes)


def default_workers() -> int:
    """Sweep worker count: ``REPRO_BENCH_PARALLEL`` or one per spare core."""
    spec = os.environ.get("REPRO_BENCH_PARALLEL", "")
    try:
        return max(1, int(spec) if spec else (os.cpu_count() or 1) - 1)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_PARALLEL: expected an integer worker "
                         f"count, got {spec!r}") from None


def run_sweep(fn: Callable[[Any], Any], points: Sequence[Any],
              n_workers: Optional[int] = None) -> list:
    """Evaluate ``fn`` over independent sweep points; results in order.

    With more than one worker, points run in a ``ProcessPoolExecutor``
    (``fn``, each point and each result must be picklable — use a
    module-level function).  Serial execution (one worker, or a single
    point) stays in-process, so closures work and tracebacks are direct.
    """
    points = list(points)
    workers = 1 if len(points) <= 1 else (
        default_workers() if n_workers is None else max(1, n_workers))
    if workers <= 1:
        return [fn(p) for p in points]
    with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
        return list(pool.map(fn, points))
