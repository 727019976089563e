"""Smoke-run every benchmark module at the minimal scale tier.

The benchmarks under ``benchmarks/`` are the repository's figure/table
regeneration harness and normally run under pytest-benchmark at paper or
small scale.  This test imports each module with
``REPRO_BENCH_SCALE=smoke`` and executes its test functions with a stub
``benchmark`` fixture, so a plain tier-1 run catches import errors, API
drift, and assertion rot in every bench without paying benchmark
runtimes.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


class _BenchmarkStub:
    """Minimal stand-in for the pytest-benchmark fixture."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0, setup=None):
        return fn(*args, **(kwargs or {}))


def _purge_bench_modules() -> None:
    for name in [m for m in sys.modules
                 if m == "_common" or m.startswith("bench_")]:
        del sys.modules[name]


@pytest.fixture()
def smoke_bench_env(monkeypatch, tmp_path):
    """Import benches fresh under the smoke scale tier, clean up after.

    Runs from ``tmp_path``: ``bench_record`` writes ``BENCH_<name>.json``
    to the working directory, and a smoke run must not overwrite the
    checkout's own records.
    """
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    _purge_bench_modules()
    yield
    _purge_bench_modules()


def test_bench_modules_discovered():
    assert len(BENCH_MODULES) >= 16
    assert "bench_ext_staging" in BENCH_MODULES
    assert "bench_dataplane" in BENCH_MODULES


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_bench_smoke(module_name, smoke_bench_env):
    mod = importlib.import_module(module_name)
    fns = [getattr(mod, name) for name in sorted(dir(mod))
           if name.startswith("test_") and callable(getattr(mod, name))]
    assert fns, f"{module_name} defines no test functions"
    for fn in fns:
        fn(_BenchmarkStub())
