"""Tests for the parallel cached sweep runner (repro.experiments.parallel)."""

import os
import pickle

import pytest

from repro.experiments import (
    DiskCache,
    cache_key,
    clear_cache,
    default_workers,
    get_run,
    point_seed,
    prefetch_runs,
    run_sweep,
)
from repro.experiments.parallel import sweep_cache
from repro.topology import intrepid


# ---------------------------------------------------------------------------
# Keys and seeds
# ---------------------------------------------------------------------------

def test_cache_key_stable_and_distinct():
    a = cache_key("get_run", "rbio_ng", 1024, None, intrepid())
    b = cache_key("get_run", "rbio_ng", 1024, None, intrepid())
    c = cache_key("get_run", "rbio_ng", 2048, None, intrepid())
    assert a == b
    assert a != c
    assert len(a) == 64  # sha256 hex


def test_cache_key_sensitive_to_config():
    assert cache_key("x", intrepid()) != cache_key("x", intrepid().quiet())


def test_point_seed_deterministic():
    assert point_seed(7, "rbio_ng", 1024) == point_seed(7, "rbio_ng", 1024)
    assert point_seed(7, "rbio_ng", 1024) != point_seed(7, "rbio_ng", 2048)
    assert point_seed(7, "a") != point_seed(8, "a")
    assert point_seed(None, "a") is None


# ---------------------------------------------------------------------------
# DiskCache
# ---------------------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path):
    cache = DiskCache(tmp_path / "c")
    assert cache.get("k") is None
    cache.put("k", {"x": [1, 2, 3]})
    assert cache.get("k") == {"x": [1, 2, 3]}


def test_disk_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = DiskCache(tmp_path / "c")
    cache.put("k", 42)
    (cache.root / "k.pkl").write_bytes(b"not a pickle")
    assert cache.get("k") is None
    # The corrupt entry was evicted; a fresh put works again.
    cache.put("k", 43)
    assert cache.get("k") == 43


def test_disk_cache_atomic_write_leaves_no_temp_files(tmp_path):
    cache = DiskCache(tmp_path / "c")
    cache.put("k", list(range(100)))
    assert [p.name for p in cache.root.iterdir()] == ["k.pkl"]


# ---------------------------------------------------------------------------
# Bounded cache: LRU eviction + concurrent multi-process writers
# ---------------------------------------------------------------------------

def test_parse_size():
    from repro.experiments.parallel import parse_size

    assert parse_size("1000") == 1000
    assert parse_size("4K") == 4096
    assert parse_size("2M") == 2 * 1024 ** 2
    assert parse_size("1G") == 1024 ** 3
    assert parse_size("1.5K") == 1536
    with pytest.raises(ValueError):
        parse_size("lots")
    with pytest.raises(ValueError):
        parse_size("0")


def test_sweep_cache_max_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "c"))
    monkeypatch.setenv("REPRO_BENCH_CACHE_MAX", "64K")
    cache = sweep_cache()
    assert cache.max_bytes == 64 * 1024
    monkeypatch.delenv("REPRO_BENCH_CACHE_MAX")
    assert sweep_cache().max_bytes is None


def test_disk_cache_lru_eviction_bounds_size(tmp_path):
    import time

    cache = DiskCache(tmp_path / "c", max_bytes=2048)
    for i in range(12):
        cache.put(f"k{i:02d}", b"x" * 400)
        time.sleep(0.01)  # distinct mtimes so LRU order is unambiguous
    assert cache.size_bytes() <= 2048
    # Newest entries survive, oldest are gone.
    assert cache.get("k11") is not None
    assert cache.get("k00") is None
    # No lock or temp litter after a quiescent put sequence.
    leftover = {p.suffix for p in cache.root.iterdir()}
    assert leftover == {".pkl"}


def test_disk_cache_lru_reads_protect_entries(tmp_path):
    import time

    cache = DiskCache(tmp_path / "c", max_bytes=1300)
    cache.put("hot", b"x" * 400)
    for i in range(3):
        time.sleep(0.01)
        cache.put(f"cold{i}", b"x" * 400)
        time.sleep(0.01)
        assert cache.get("hot") is not None  # touch refreshes recency
    # The repeatedly-read entry outlived colder, younger ones.
    assert cache.get("hot") is not None
    assert cache.get("cold0") is None


def test_disk_cache_oversized_single_entry_still_readable(tmp_path):
    cache = DiskCache(tmp_path / "c", max_bytes=64)
    cache.put("big", b"x" * 1000)
    assert cache.get("big") is not None


def test_disk_cache_stale_evict_lock_is_broken(tmp_path):
    cache = DiskCache(tmp_path / "c", max_bytes=512)
    lock = cache.root / ".evict.lock"
    lock.touch()
    old = 1_000_000.0  # epoch 1970: far past the staleness threshold
    os.utime(lock, (old, old))
    for i in range(4):
        cache.put(f"k{i}", b"x" * 400)
    assert cache.size_bytes() <= 512
    assert not lock.exists()


def _hammer(args):
    """One worker process: interleaved puts and gets on a shared cache."""
    root, max_bytes, worker, rounds = args
    cache = DiskCache(root, max_bytes=max_bytes)
    bad = 0
    for i in range(rounds):
        key = f"k{(worker + i) % 8}"
        cache.put(key, (key, b"v" * 200))
        value = cache.get(key)
        # Concurrent eviction may turn the read into a miss, but a hit
        # must never be torn or belong to another key.
        if value is not None and value[0] != key:
            bad += 1
    return bad


def test_disk_cache_concurrent_multiprocess_writers(tmp_path):
    from concurrent.futures import ProcessPoolExecutor

    root = str(tmp_path / "shared")
    args = [(root, 4096, w, 25) for w in range(4)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        corrupt = list(pool.map(_hammer, args))
    assert corrupt == [0, 0, 0, 0]
    cache = DiskCache(root, max_bytes=4096)
    # The shared directory stayed bounded and every surviving entry is
    # readable and consistent.
    assert cache.size_bytes() <= 4096
    for path in cache.root.glob("*.pkl"):
        key = path.stem
        value = cache.get(key)
        assert value is None or value[0] == key


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

def test_run_sweep_serial_preserves_order():
    out = run_sweep(lambda p: p * p, [3, 1, 2], n_workers=1)
    assert out == [9, 1, 4]


def _square(x):
    return x * x


def test_run_sweep_parallel_matches_serial():
    points = list(range(8))
    assert run_sweep(_square, points, n_workers=2) == \
        run_sweep(_square, points, n_workers=1)


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_PARALLEL", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_BENCH_PARALLEL", "0")
    assert default_workers() == 1
    monkeypatch.delenv("REPRO_BENCH_PARALLEL")
    assert default_workers() >= 1


def test_sweep_cache_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    assert sweep_cache() is None
    monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
    assert sweep_cache() is None
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "sc"))
    cache = sweep_cache()
    assert cache is not None
    assert cache.root == tmp_path / "sc"


# ---------------------------------------------------------------------------
# get_run / prefetch_runs integration
# ---------------------------------------------------------------------------

@pytest.fixture
def disk_cached(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))
    clear_cache()
    yield tmp_path / "cache"
    clear_cache()


def test_get_run_populates_and_reads_disk_cache(disk_cached):
    a = get_run("rbio_ng", 256, seed=5)
    entries = list(disk_cached.iterdir())
    assert len(entries) == 1
    # A cold in-memory cache must be served from disk: same values, no rerun.
    clear_cache()
    b = get_run("rbio_ng", 256, seed=5)
    assert b.result.overall_time == a.result.overall_time
    assert b.fs_stats == a.fs_stats
    assert list(disk_cached.iterdir()) == entries


def test_disk_cached_summary_matches_fresh_run(disk_cached):
    warm = get_run("coio_64", 256, seed=5)
    clear_cache()
    cached = get_run("coio_64", 256, seed=5)
    clear_cache()
    os.environ["REPRO_BENCH_CACHE"] = "0"
    fresh = get_run("coio_64", 256, seed=5)
    assert cached.result.write_bandwidth == fresh.result.write_bandwidth
    assert cached.result.overall_time == warm.result.overall_time


def test_prefetch_runs_fills_cache(disk_cached):
    points = [("rbio_ng", 256), ("1pfpp", 256), ("rbio_ng", 256)]
    prefetch_runs(points, seed=5, n_workers=1)
    assert len(list(disk_cached.iterdir())) == 2  # deduplicated
    # get_run now hits memory cache (disk untouched -> same entry count).
    get_run("rbio_ng", 256, seed=5)
    get_run("1pfpp", 256, seed=5)
    assert len(list(disk_cached.iterdir())) == 2


def test_summaries_are_picklable():
    clear_cache()
    summary = get_run("rbio_ng", 256, seed=5)
    blob = pickle.dumps(summary)
    back = pickle.loads(blob)
    assert back.result.overall_time == summary.result.overall_time
    assert len(back.write_intervals) == len(summary.write_intervals)
    clear_cache()


def test_an_entry_pickled_with_another_shape_is_a_miss(disk_cached):
    """``CACHE_VERSION`` moves with what the pickled classes hold, but a
    cache written by a tree that forgot to move it must still be a miss,
    not a ``RunSummary`` that fails at figure time: an entry unpickles
    without calling ``__init__``, so it holds whatever attributes its
    writer's classes had."""
    from repro.ckpt import CheckpointResult
    from repro.experiments.figures import RunSummary, _disk_key

    good = get_run("rbio_ng", 256, seed=5)
    key = _disk_key("rbio_ng", 256, intrepid(), 5)
    cache = DiskCache(disk_cached)
    assert isinstance(cache.get(key), RunSummary)

    # The parent commit's CheckpointResult: a ``roles`` list, no role codes.
    stale = CheckpointResult.__new__(CheckpointResult)
    state = dict(vars(good.result))
    del state["_role"], state["role_names"]
    state["roles"] = good.result.roles
    vars(stale).update(state)
    with pytest.raises(AttributeError):
        stale.blocking_time  # what a figure would have hit
    for entry in (RunSummary(stale, good.write_intervals, good.fs_stats),
                  {"result": good.result}, good.result):
        cache.put(key, entry)
        clear_cache()
        again = get_run("rbio_ng", 256, seed=5)
        assert again.result.blocking_time == good.result.blocking_time
        assert again.result.roles == good.result.roles
        # ... and the recomputed summary replaced the entry.
        assert cache.get(key).result.roles == good.result.roles
    # prefetch_runs reads the cache through the same check.
    cache.put(key, RunSummary(stale, good.write_intervals, good.fs_stats))
    clear_cache()
    prefetch_runs([("rbio_ng", 256)], seed=5, n_workers=1)
    assert get_run("rbio_ng", 256, seed=5).result.roles == good.result.roles
