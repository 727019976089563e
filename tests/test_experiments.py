"""Tests for the experiment harness: configs, runner, figure series.

Figure functions are exercised at reduced scale (the benchmarks run them at
the paper's 16K-64K scales); shapes and invariants checked here are the
same ones the paper's full-scale plots rely on.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.experiments import (
    APPROACHES,
    PAPER_SIZES,
    TCOMP_PER_STEP,
    clear_cache,
    eq1_production_improvement,
    eq2_7_speedup,
    fig5_write_bandwidth,
    fig6_overall_time,
    fig7_checkpoint_ratio,
    fig8_file_sweep,
    fig9_distribution_1pfpp,
    fig10_distribution_coio,
    fig11_distribution_rbio,
    fig12_write_activity,
    get_run,
    paper_data,
    paper_problem,
    scaled_problem,
    table1_perceived,
)
from repro.topology import intrepid

SMALL = (1024, 2048)
QUIET = intrepid().quiet()
# Small-scale metadata-storm config: the production calibration only makes
# directory inserts pathological past ~8K entries (as on real GPFS); tests
# at 1-2K ranks lower the knee so the 1PFPP mechanism is exercised.
STORMY = QUIET.with_(meta_create_dir_knee=200.0)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def test_paper_sizes_match_table():
    p16 = paper_problem(16384)
    assert p16.elements == 68_000
    assert p16.points == 68_000 * 16**3
    # ~39 GB per I/O step.
    assert p16.file_bytes == pytest.approx(39e9, rel=0.05)
    p64 = paper_problem(65536)
    assert p64.file_bytes == pytest.approx(156e9, rel=0.05)
    assert p64.points == pytest.approx(1.1e9, rel=0.05)


def test_paper_weak_scaling_constant_per_rank():
    per_rank = [paper_problem(n).file_bytes / n for n in PAPER_SIZES]
    assert max(per_rank) - min(per_rank) < 0.02 * per_rank[0]


def test_paper_problem_unknown_size():
    with pytest.raises(ValueError):
        paper_problem(999)


def test_scaled_problem_any_size():
    p = scaled_problem(512)
    assert p.n_ranks == 512
    assert p.file_bytes / 512 == pytest.approx(
        paper_problem(16384).file_bytes / 16384, rel=0.05
    )


def test_paper_data_field_structure():
    d = paper_data(16384)
    assert d.n_fields == 7
    assert d.fields[0].name == "geometry"


def test_tcomp_constant():
    assert 0.2 < TCOMP_PER_STEP < 0.32


# ---------------------------------------------------------------------------
# get_run / cache
# ---------------------------------------------------------------------------

def test_get_run_cached():
    a = get_run("rbio_ng", 1024, QUIET)
    b = get_run("rbio_ng", 1024, QUIET)
    assert a is b


def test_get_run_distinct_keys():
    a = get_run("rbio_ng", 1024, QUIET)
    b = get_run("coio_64", 1024, QUIET)
    assert a is not b


def test_get_run_unknown_key():
    with pytest.raises(ValueError):
        get_run("bogus", 1024, QUIET)


def test_rbio_nf_sweep_key():
    run = get_run("rbio_nf128", 1024, QUIET)
    assert len(run.result.writer_ranks) == 128


# ---------------------------------------------------------------------------
# Figure series at reduced scale
# ---------------------------------------------------------------------------

def test_fig5_series_structure_and_ordering():
    out = fig5_write_bandwidth(sizes=SMALL, config=STORMY)
    assert set(out) == set(APPROACHES)
    for key in out:
        assert set(out[key]) == set(SMALL)
    for n in SMALL:
        # 1PFPP loses to everything once the metadata storm bites.
        assert out["1pfpp"][n] < out["coio_nf1"][n]
        # rbIO nf=ng is at least competitive at this (tiny) scale; the
        # strict paper-scale ordering is asserted by the benchmarks.
        assert out["rbio_ng"][n] > 0.7 * out["coio_nf1"][n]
        # nf=1 variants are similar (two-phase layers don't interfere).
        ratio = out["rbio_nf1"][n] / out["coio_nf1"][n]
        assert 0.5 < ratio < 2.0


def test_fig6_times_consistent_with_fig5():
    bw = fig5_write_bandwidth(sizes=(1024,), config=QUIET)
    times = fig6_overall_time(sizes=(1024,), config=QUIET)
    s = scaled_problem(1024).file_bytes
    for key in bw:
        assert times[key][1024] == pytest.approx(
            s / (bw[key][1024] * 1e9), rel=0.01
        )


def test_fig7_rbio_ratio_far_below_others():
    out = fig7_checkpoint_ratio(sizes=(1024,), config=STORMY)
    assert out["rbio_ng"][1024] < 0.1
    assert out["1pfpp"][1024] > 10
    assert out["coio_64"][1024] > out["rbio_ng"][1024] * 100


def test_fig8_sweep_skips_degenerate_ratios():
    out = fig8_file_sweep(sizes=(1024,), n_files=(128, 256, 1024), config=QUIET)
    assert 128 in out[1024]
    assert 256 in out[1024]
    assert 1024 not in out[1024]  # would need 1 rank per writer


def test_fig9_distribution_shape():
    ranks, times = fig9_distribution_1pfpp(n_ranks=1024, config=STORMY)
    assert len(ranks) == 1024
    assert times.min() >= 0
    # Metadata serialization: wide spread relative to the minimum.
    assert times.max() > 5 * np.median(times[times > 0])


def test_fig10_distribution_synchronized_groups():
    ranks, times = fig10_distribution_coio(n_ranks=1024, config=QUIET)
    # Split-collective: 64-rank groups share completion times.
    assert len(np.unique(np.round(times, 9))) <= 1024 // 64 + 1


@pytest.mark.parametrize("key", ["coio_64", "coio_nf1"])
def test_coio_figure_runs_equal_the_uncoalesced_reference(key):
    """``get_run`` takes coIO's coalesce plan; every figure value it feeds
    (result arrays, Darshan write intervals, fs counters) must be the
    uncoalesced run's, at the default noisy calibration."""
    from repro.experiments import run_checkpoint_steps
    from repro.experiments.figures import problem_for, strategy_for

    n = 1024
    strategy = strategy_for(key, n)
    assert strategy.coalesce_plan(n) is not None
    ref = run_checkpoint_steps(strategy, n, problem_for(n).data(),
                               run_config=RunConfig(coalesce="off"))
    got = get_run(key, n)
    for attr in ("ranks", "t_start", "t_blocked_end", "t_complete",
                 "bytes_local", "isend_seconds"):
        assert np.array_equal(getattr(got.result, attr),
                              getattr(ref.result, attr)), attr
    assert got.result.roles == ref.result.roles
    assert got.write_intervals.intervals == \
        ref.profiler.write_intervals().intervals
    assert got.fs_stats == ref.fs.stats()
    if key == "coio_64":
        ranks, times = fig10_distribution_coio(n_ranks=n)
        assert np.array_equal(ranks, ref.result.ranks)
        assert np.array_equal(times,
                              ref.result.t_complete - ref.result.t_start)


def test_1pfpp_default_run_takes_its_plan():
    """Canary: the default ``RunConfig`` must replay 1PFPP without a process
    per rank (six calendar events a rank: jitter, token grant, create,
    allocate, move, close) — a refactor that silently drops the plan fails
    here, not in a host-time benchmark."""
    from repro.experiments import run_checkpoint_steps
    from repro.experiments.figures import problem_for, strategy_for

    n = 4096
    run = run_checkpoint_steps(strategy_for("1pfpp", n), n,
                               problem_for(n).data())
    assert len(run.job._rank_procs) == 1
    assert run.job.metrics().get("sim.dispatched_events") <= 7 * n
    assert run.result.roles == ["independent"] * n


def test_fig11_two_lines():
    out = fig11_distribution_rbio(n_ranks=1024, config=QUIET)
    assert out["writer_mask"].sum() == 16
    assert out["worker_times"].max() < out["writer_times"].min() / 100


def test_fig12_activity_series():
    out = fig12_write_activity(n_ranks=1024, bin_width=0.1, config=QUIET)
    for key in ("rbio_ng", "coio_64"):
        assert out[key]["n_write_ops"] > 0
        assert out[key]["active_writers"].max() >= 1


def test_table1_rows():
    rows = table1_perceived(sizes=(1024,), config=QUIET)
    (row,) = rows
    assert row["np"] == 1024
    assert row["perceived_tbps"] > 1  # still TB/s even at small scale
    assert row["time_cycles"] == pytest.approx(
        row["time_us"] * 1e-6 * intrepid().cpu_hz
    )


def test_eq1_improvement_large():
    out = eq1_production_improvement(n_ranks=1024, nc=20, config=STORMY)
    # Commit-based improvement > 1, blocking-based much larger, and the
    # blocking reading always dominates the commit reading.
    assert out["improvement_commit"] > 1
    assert out["improvement_blocking"] > 5
    assert out["improvement_blocking"] >= out["improvement_commit"]
    assert out["ratio_1pfpp"] > out["ratio_rbio_commit"]


def test_eq2_7_model_vs_measured():
    out = eq2_7_speedup(n_ranks=1024, config=QUIET)
    assert out["speedup_eq5"] > 10
    # Model and measurement agree within a factor ~2 (the paper's own
    # approximation level).
    ratio = out["speedup_measured"] / out["speedup_eq5"]
    assert 0.4 < ratio < 2.5
    # Eq. 7 is within ~25% of Eq. 5 when lambda ~ 0.
    assert out["speedup_eq7"] == pytest.approx(out["speedup_eq5"], rel=0.3)


def test_fs_stats_is_computed_once_per_run(monkeypatch):
    """``fs.stats()`` sums over every file (65 536 of them at 1PFPP @64K)
    and its answer is the end-of-run state whichever step asks: a run
    computes it once, every step's result carries that dict, and a figure
    summary reads it from the result."""
    from repro.experiments import run_checkpoint_steps
    from repro.experiments.figures import (clear_cache, problem_for,
                                           strategy_for)
    from repro.storage import GPFS

    calls = []
    inner = GPFS.stats
    monkeypatch.setattr(GPFS, "stats",
                        lambda self: calls.append(1) or inner(self))
    run = run_checkpoint_steps(strategy_for("1pfpp", 64), 64,
                               problem_for(64).data(), n_steps=3)
    assert len(calls) == 1
    assert all(res.fs_stats == run.results[0].fs_stats
               for res in run.results)
    assert run.results[0].fs_stats == inner(run.fs)
    del calls[:]
    clear_cache()
    summary = get_run("1pfpp", 64)
    clear_cache()
    assert len(calls) == 1 and summary.fs_stats == summary.result.fs_stats
