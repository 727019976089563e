"""Tests for the parallel cached sweep runner (repro.experiments.parallel)
and the JSON form of the figure runs it caches."""

import base64
import json
import os
import pickle

import numpy as np
import pytest

from repro.campaign import CampaignSpec, SweepService, expand, run_point
from repro.experiments import (
    DiskCache,
    RunSummary,
    cache_key,
    clear_cache,
    default_workers,
    get_run,
    get_runs,
    point_seed,
    run_sweep,
)
from repro.experiments import figures
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
    (cache.root / "k.json").write_bytes(b'{"torn": ')
    assert cache.get("k") is None
    # The corrupt entry was evicted; a fresh put works again.
    cache.put("k", 43)
    assert cache.get("k") == 43


def test_disk_cache_atomic_write_leaves_no_temp_files(tmp_path):
    cache = DiskCache(tmp_path / "c")
    cache.put("k", list(range(100)))
    assert [p.name for p in cache.root.iterdir()] == ["k.json"]


def test_disk_cache_put_rejects_what_is_not_json(tmp_path):
    cache = DiskCache(tmp_path / "c")
    for value in (b"bytes", {"x": {1, 2}}, object()):
        with pytest.raises(TypeError):
            cache.put("k", value)
    assert list(cache.root.iterdir()) == []  # no entry, no temp file


class _Planted:
    """Unpickling this creates ``marker``: what a pickle reader would run."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def test_a_planted_pickle_is_a_miss_and_never_runs(tmp_path, monkeypatch):
    marker = tmp_path / "ran"
    cache = DiskCache(tmp_path / "c")
    path = cache.root / "k.json"
    path.write_bytes(pickle.dumps(_Planted(marker)))
    assert cache.get("k") is None
    assert not path.exists()  # unlinked like any unparseable entry
    # The same through a figure run's entry: recomputed, never unpickled.
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(cache.root))
    clear_cache()
    point = ("rbio_ng", 128, 5, intrepid())
    path = cache.root / f"{cache_key('get_run', *point)}.json"
    path.write_bytes(pickle.dumps(_Planted(marker)))
    assert get_run("rbio_ng", 128, seed=5).result.n_ranks == 128
    assert json.loads(path.read_bytes())["n_ranks"] == 128  # replaced
    assert not marker.exists()
    pickle.loads(pickle.dumps(_Planted(marker)))  # what a pickle reader ran
    assert marker.exists()
    clear_cache()


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
    for spec in ("inf", "1e400", "nan", "-1K"):
        with pytest.raises(ValueError):
            parse_size(spec)


def test_sweep_cache_max_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "c"))
    monkeypatch.setenv("REPRO_BENCH_CACHE_MAX", "64K")
    cache = sweep_cache()
    assert cache.max_bytes == 64 * 1024
    monkeypatch.delenv("REPRO_BENCH_CACHE_MAX")
    assert sweep_cache().max_bytes is None
    for bad in ("inf", "lots"):
        monkeypatch.setenv("REPRO_BENCH_CACHE_MAX", bad)
        with pytest.raises(ValueError, match="REPRO_BENCH_CACHE_MAX"):
            sweep_cache()


def test_an_explicit_cache_path_is_bounded_too(monkeypatch, tmp_path):
    value = "x" * 400
    entry = len(json.dumps(value))
    monkeypatch.setenv("REPRO_BENCH_CACHE_MAX", str(entry))
    assert sweep_cache(str(tmp_path / "s")).max_bytes == entry
    with SweepService(n_workers=1, cache=str(tmp_path / "c")) as svc:
        svc.cache.put("a", value)
        os.utime(svc.cache.root / "a.json", (1, 1))  # unambiguously older
        svc.cache.put("b", value)
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["b.json"]


def _entry_bytes(cache) -> int:
    """Total size of the cache's entry files."""
    return sum(p.stat().st_size for p in cache.root.glob("*.json"))


def test_disk_cache_lru_eviction_bounds_size(tmp_path):
    import time

    cache = DiskCache(tmp_path / "c", max_bytes=2048)
    for i in range(12):
        cache.put(f"k{i:02d}", "x" * 400)
        time.sleep(0.01)  # distinct mtimes so LRU order is unambiguous
    assert _entry_bytes(cache) <= 2048
    # Newest entries survive, oldest are gone.
    assert cache.get("k11") is not None
    assert cache.get("k00") is None
    # No lock or temp litter after a quiescent put sequence.
    leftover = {p.suffix for p in cache.root.iterdir()}
    assert leftover == {".json"}


def test_disk_cache_lru_reads_protect_entries(tmp_path):
    import time

    cache = DiskCache(tmp_path / "c", max_bytes=1300)
    cache.put("hot", "x" * 400)
    for i in range(3):
        time.sleep(0.01)
        cache.put(f"cold{i}", "x" * 400)
        time.sleep(0.01)
        assert cache.get("hot") is not None  # touch refreshes recency
    # The repeatedly-read entry outlived colder, younger ones.
    assert cache.get("hot") is not None
    assert cache.get("cold0") is None


def test_disk_cache_oversized_single_entry_still_readable(tmp_path):
    cache = DiskCache(tmp_path / "c", max_bytes=64)
    cache.put("big", "x" * 1000)
    assert cache.get("big") is not None


def test_disk_cache_stale_evict_lock_is_broken(tmp_path):
    cache = DiskCache(tmp_path / "c", max_bytes=512)
    lock = cache.root / ".evict.lock"
    lock.touch()
    old = 1_000_000.0  # epoch 1970: far past the staleness threshold
    os.utime(lock, (old, old))
    for i in range(4):
        cache.put(f"k{i}", "x" * 400)
    assert _entry_bytes(cache) <= 512
    assert not lock.exists()


def _hammer(args):
    """One worker process: interleaved puts and gets on a shared cache."""
    root, max_bytes, worker, rounds = args
    cache = DiskCache(root, max_bytes=max_bytes)
    bad = 0
    for i in range(rounds):
        key = f"k{(worker + i) % 8}"
        cache.put(key, [key, "v" * 200])
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
    assert _entry_bytes(cache) <= 4096
    for path in cache.root.glob("*.json"):
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
    monkeypatch.setenv("REPRO_BENCH_PARALLEL", "abc")
    with pytest.raises(ValueError, match="REPRO_BENCH_PARALLEL"):
        default_workers()
    assert run_sweep(_square, [3]) == [9]  # one point never asks
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
# get_runs: memory -> disk (JSON) -> compute
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


def test_get_runs_fills_cache(disk_cached):
    points = [("rbio_ng", 256), ("1pfpp", 256), ("rbio_ng", 256)]
    runs = get_runs(points, seed=5, n_workers=1)
    assert len(list(disk_cached.iterdir())) == 2  # deduplicated
    assert runs[0] is runs[2]
    # get_run now hits memory cache (disk untouched -> same entry count).
    assert get_run("rbio_ng", 256, seed=5) is runs[0]
    assert get_run("1pfpp", 256, seed=5) is runs[1]
    assert len(list(disk_cached.iterdir())) == 2


def test_summaries_are_picklable():
    clear_cache()
    summary = get_run("rbio_ng", 256, seed=5)
    blob = pickle.dumps(summary)
    back = pickle.loads(blob)
    assert back.result.overall_time == summary.result.overall_time
    assert len(back.write_intervals) == len(summary.write_intervals)
    clear_cache()


def _column(values, dtype) -> dict:
    data = np.asarray(values, dtype).astype(np.dtype(dtype).newbyteorder("<"))
    return {"dtype": np.dtype(dtype).name, "shape": [len(values)],
            "data": base64.b64encode(data.tobytes()).decode()}


def test_a_json_entry_of_another_shape_is_a_miss(disk_cached):
    """``CACHE_VERSION`` moves with what an entry holds, but an entry
    written by a tree that forgot to move it — or edited by hand — must
    still be a miss, not a ``RunSummary`` that fails at figure time."""
    good = get_run("rbio_ng", 256, seed=5)
    key = cache_key("get_run", "rbio_ng", 256, 5, intrepid())
    cache = DiskCache(disk_cached)
    doc = cache.get(key)
    assert RunSummary.from_json(doc).result.roles == good.result.roles

    def edited(edit):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        return bad

    n = good.result.n_ranks
    cols = "columns"
    bad_docs = [
        None, [doc], "summary",
        edited(lambda d: d.pop("bytes_copied")),                 # missing
        edited(lambda d: d.update(extra=1)),                     # extra
        edited(lambda d: d[cols].pop("t_start")),
        edited(lambda d: d[cols]["t_start"].update(dtype="float32")),
        edited(lambda d: d[cols]["t_start"].update(dtype="object")),
        edited(lambda d: d[cols].update(                         # consistent
            t_start=_column(good.result.t_start, np.float32))),  # wrong dtype
        edited(lambda d: d[cols]["ranks"].update(shape=[n + 1])),
        edited(lambda d: d[cols].update(ranks=_column(range(n + 1),
                                                      np.int64))),
        edited(lambda d: d[cols].update(role=_column([7] * n, np.int8))),
        edited(lambda d: d[cols]["role"].update(data="not base64!")),
        edited(lambda d: d["write_intervals"]["end"].update(
            shape=[0], data="")),
        edited(lambda d: d.update(n_ranks="256")),
        edited(lambda d: d.update(role_names=[1, 2])),
        # n_ranks off its columns' length, however large: a miss, never an
        # allocation sized by the damaged number.
        edited(lambda d: d.update(n_ranks=-1)),
        edited(lambda d: d.update(n_ranks=10**11)),
        edited(lambda d: d.update(n_ranks=2**62)),
    ]
    for bad in bad_docs:
        with pytest.raises(ValueError):
            RunSummary.from_json(bad)
    for bad in bad_docs[3:5] + bad_docs[-3:]:
        cache.put(key, bad)
        clear_cache()
        again = get_run("rbio_ng", 256, seed=5)
        assert again.result.blocking_time == good.result.blocking_time
        assert again.result.roles == good.result.roles
        # ... and the recomputed summary replaced the entry.
        assert cache.get(key) == doc


def _figure_outputs(sizes, n):
    """Every figure function's output over the summaries ``get_run`` holds."""
    fig8 = dict(sizes=sizes, n_files=(4, 8))
    return {
        "fig5": figures.fig5_write_bandwidth(sizes),
        "fig6": figures.fig6_overall_time(sizes),
        "fig7": figures.fig7_checkpoint_ratio(sizes),
        "fig8": figures.fig8_file_sweep(**fig8),
        "fig9": figures.fig9_distribution_1pfpp(sizes[0]),
        "fig10": figures.fig10_distribution_coio(n),
        "fig11": figures.fig11_distribution_rbio(n),
        "fig12": figures.fig12_write_activity(n),
        "table1": figures.table1_perceived(sizes),
        "eq1": figures.eq1_production_improvement(n),
        "eq2_7": figures.eq2_7_speedup(n),
    }


def _assert_identical(a, b, path="out"):
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            _assert_identical(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    else:
        assert a == b, path


def test_figures_from_json_summaries_equal_the_live_ones(disk_cached,
                                                         monkeypatch):
    """Every figure fed from summaries decoded off disk (JSON, base64
    columns) is exactly the live one at np = 128 / 256."""
    live = _figure_outputs((128, 256), 256)
    entries = sorted(p.name for p in disk_cached.iterdir())
    assert len(entries) == 14
    clear_cache()

    def no_run(point):
        raise AssertionError(f"{point[:2]} was recomputed, not decoded")

    monkeypatch.setattr(figures, "_compute_summary", no_run)
    _assert_identical(_figure_outputs((128, 256), 256), live)
    assert sorted(p.name for p in disk_cached.iterdir()) == entries


def test_a_service_hit_equals_the_live_point_for_every_kind(tmp_path,
                                                          monkeypatch):
    """A point result that went through the service's JSON cache equals
    the dict ``run_point`` returns live, for every kind of point."""
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    grid = {"approaches": ["rbio_ng"], "np": [128]}
    steps = {"n_steps": 2, "gap": 1.0}
    specs = [
        {"name": "figure", "seed": 5, "grid": grid},
        {"name": "rate", "seed": 5, "steps": steps,
         "grid": {**grid, "fault_rates": [0.0, 2.0]},
         "faults": {"generate": {"horizon": 2.0}}},
        {"name": "resume", "steps": steps, "grid": grid,
         "faults": {"specs": [{"kind": "rank_crash", "time": 1.0,
                               "rank": 0}]},
         "resume": {"enabled": True}},
        {"name": "delta", "seed": 5, "steps": steps,
         "grid": {"approaches": ["rbio_nf2"], "np": [8],
                  "delta": ["require"]},
         "workload": {"points_per_rank": 2000, "mutated_fraction": 0.25}},
        {"name": "tam", "seed": 5, "grid": {**grid, "tam": ["require"]}},
        {"name": "trace", "seed": 5, "grid": {**grid, "trace": ["summary"]}},
    ]
    specs = [CampaignSpec.from_dict(d) for d in specs]
    cache = str(tmp_path / "c")
    with SweepService(n_workers=1, cache=cache) as svc:
        for spec in specs:
            assert svc.wait(svc.submit(spec), timeout=300)["state"] == "done"
    clear_cache()
    with SweepService(n_workers=1, cache=cache) as svc:
        for spec in specs:
            svc.submit(spec)
            live = [run_point(p) for p in expand(spec).points]
            assert svc.results(spec.campaign_id) == live, spec.name
        counters = svc.service_status()["counters"]
    assert counters["points_cached"] == 7
    assert counters["points_executed"] == 0
    clear_cache()
