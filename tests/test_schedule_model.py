"""Tests for the checkpoint schedule (Eq. 1) and speedup model (Eqs. 2-7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    CheckpointResult,
    CheckpointSchedule,
    RankReport,
    checkpoint_ratio,
    production_improvement,
)
from repro.model import (
    SpeedupModel,
    blocked_processor_seconds,
    chain_reduction,
    delta_checkpoint_seconds,
    effective_delta_fraction,
    incremental_production_improvement,
)


# ---------------------------------------------------------------------------
# Eq. 1 / schedule
# ---------------------------------------------------------------------------

def test_checkpoint_ratio():
    assert checkpoint_ratio(260.0, 0.26) == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        checkpoint_ratio(1.0, 0.0)


def test_production_improvement_paper_case():
    """Ratio_1pfpp > 1000, Ratio_rbio < 20, nc = 20 -> ~25x (paper §V-B)."""
    t_comp = 0.26
    imp = production_improvement(
        t_ckpt_old=1000 * t_comp, t_ckpt_new=20 * t_comp,
        t_computation_step=t_comp, nc=20,
    )
    assert imp == pytest.approx((1000 + 20) / (20 + 20))
    assert 20 < imp < 30


def test_production_improvement_identity():
    assert production_improvement(5.0, 5.0, 0.5, 10) == pytest.approx(1.0)


def test_production_improvement_validation():
    with pytest.raises(ValueError):
        production_improvement(1.0, 1.0, 1.0, 0)


def test_schedule_steps_and_time():
    s = CheckpointSchedule(nc=5, t_computation_step=1.0, t_checkpoint=10.0)
    assert s.production_time(20) == pytest.approx(20 + 4 * 10)
    assert s.ratio == pytest.approx(10.0)
    assert s.overhead_fraction == pytest.approx(10 / 15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        CheckpointSchedule(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CheckpointSchedule(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        CheckpointSchedule(1, 1.0, -1.0)
    s = CheckpointSchedule(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        s.production_time(-1)


def test_young_interval():
    # sqrt(2 * 10 * 2000) = 200
    assert CheckpointSchedule.young_interval(10.0, 2000.0) == pytest.approx(200.0)
    s = CheckpointSchedule.young(10.0, 1.0, 2000.0)
    assert s.nc == 200
    with pytest.raises(ValueError):
        CheckpointSchedule.young_interval(0.0, 1.0)


@given(st.floats(min_value=0.1, max_value=1e4),
       st.floats(min_value=0.1, max_value=1e4),
       st.floats(min_value=0.01, max_value=10),
       st.integers(min_value=1, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_improvement_monotone_property(tc_old, tc_new, t_comp, nc):
    """Improvement is on the faster side of 1 when the new approach is faster.

    Equality is allowed: when the checkpoint terms are negligible next to
    the compute term, ``(X + a) / (X + b)`` rounds to exactly 1.0 in
    float64 even though a != b.
    """
    imp = production_improvement(tc_old, tc_new, t_comp, nc)
    if tc_old > tc_new:
        assert imp >= 1
    elif tc_old < tc_new:
        assert imp <= 1


# ---------------------------------------------------------------------------
# Delta-sized checkpoints: the incremental interval model
# ---------------------------------------------------------------------------

def test_young_interval_incremental_shortens_with_delta():
    """Cheaper delta writes -> shorter optimal interval -> smaller nc."""
    full = CheckpointSchedule.young_interval(40.0, 1000.0)
    delta = CheckpointSchedule.young_interval_incremental(
        40.0, 0.25, 1000.0)
    # sqrt scaling: a quarter-cost checkpoint halves the interval.
    assert delta == pytest.approx(full / 2.0)
    # The fixed manifest overhead pushes the interval back up.
    assert CheckpointSchedule.young_interval_incremental(
        40.0, 0.25, 1000.0, manifest_overhead=30.0) > delta

    s_full = CheckpointSchedule.young(40.0, 1.0, 1000.0)
    s_delta = CheckpointSchedule.young_incremental(40.0, 0.25, 1.0, 1000.0)
    assert s_delta.nc < s_full.nc
    assert s_delta.t_checkpoint == pytest.approx(10.0)
    # Checkpointing more often with cheaper writes costs less overhead.
    assert s_delta.overhead_fraction < s_full.overhead_fraction


def test_young_incremental_validation():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            CheckpointSchedule.young_interval_incremental(10.0, bad, 100.0)
    with pytest.raises(ValueError):
        CheckpointSchedule.young_interval_incremental(
            10.0, 0.5, 100.0, manifest_overhead=-1.0)


def test_effective_delta_fraction_model():
    # 25% churn + one region's two boundary chunks + no fixed overhead.
    f = effective_delta_fraction(0.25, 1 << 20, 8192)
    assert f == pytest.approx(0.25 + 2 * 8192 / (1 << 20))
    # Overhead adds linearly; the churn term clamps at a full write.
    assert effective_delta_fraction(1.0, 1 << 20, 8192,
                                    overhead_bytes=1 << 18) \
        == pytest.approx(1.25)
    with pytest.raises(ValueError):
        effective_delta_fraction(1.5, 1 << 20, 8192)
    with pytest.raises(ValueError):
        effective_delta_fraction(0.5, 0, 8192)


def test_chain_reduction_model():
    # Generation 0 is full, so a 1-generation chain saves nothing.
    assert chain_reduction(1, 0.25) == pytest.approx(1.0)
    assert chain_reduction(20, 0.25) == pytest.approx(20 / (1 + 19 * 0.25))
    # Long chains approach the 1/f_eff asymptote from below.
    assert chain_reduction(10_000, 0.25) < 4.0
    with pytest.raises(ValueError):
        chain_reduction(0, 0.25)
    with pytest.raises(ValueError):
        chain_reduction(5, 0.0)


def test_incremental_production_improvement_consistency():
    """The model's Eq. 1 wrapper equals Eq. 1 on the scaled delta cost."""
    t_full, f_eff, t_comp, nc = 26.0, 0.3, 0.26, 20
    assert delta_checkpoint_seconds(t_full, f_eff) == pytest.approx(7.8)
    imp = incremental_production_improvement(t_full, f_eff, t_comp, nc)
    assert imp == pytest.approx(
        production_improvement(t_full, t_full * f_eff, t_comp, nc))
    assert imp > 1.0
    # A delta as large as the full image gives no improvement.
    assert incremental_production_improvement(t_full, 1.0, t_comp, nc) \
        == pytest.approx(1.0)
    with pytest.raises(ValueError):
        delta_checkpoint_seconds(-1.0, 0.5)
    with pytest.raises(ValueError):
        delta_checkpoint_seconds(1.0, 0.0)


# ---------------------------------------------------------------------------
# Eqs. 2-7
# ---------------------------------------------------------------------------

def model_fixture():
    return SpeedupModel(
        np_ranks=65536, ng_writers=1024,
        bw_coio=8e9, bw_rbio=14e9, bw_perceived=800e12, lam=0.0,
    )


def test_speedup_limit_eq7():
    m = model_fixture()
    # Eq. 7: (np/ng) * BW_rbio / BW_coio = 64 * 1.75 = 112.
    assert m.speedup_limit() == pytest.approx(64 * 14 / 8)


def test_speedup_approx_matches_limit_at_lambda_zero():
    m = model_fixture()
    assert m.speedup_approx() == pytest.approx(m.speedup_limit())


def test_speedup_exact_close_to_approx():
    """Eq. 5 vs Eq. 6: the dropped BW_p term is ~1e-6, so they agree."""
    m = model_fixture()
    assert m.speedup_exact() == pytest.approx(m.speedup_approx(), rel=5e-3)


def test_speedup_worst_case_half_ratio():
    """Paper: even if BW_rbio = BW_coio/2, speedup ~ half of np/ng (=30x+)."""
    m = SpeedupModel(65536, 1024, bw_coio=14e9, bw_rbio=7e9,
                     bw_perceived=800e12)
    assert m.speedup_limit() == pytest.approx(32.0)
    assert m.speedup_exact() > 25


def test_lambda_one_removes_overlap_benefit():
    m = SpeedupModel(1024, 16, bw_coio=1e9, bw_rbio=1e9,
                     bw_perceived=1e12, lam=1.0)
    # Workers blocked the whole writer write: speedup ~ 1.
    assert m.speedup_approx() == pytest.approx(1.0)


def test_blocked_times_eq3_eq4():
    m = model_fixture()
    s = 156e9
    assert m.t_coio(s) == pytest.approx(65536 * 156e9 / 8e9)
    expected_rbio = (65536 - 1024) * (s / 800e12) + 1024 * s / 14e9
    assert m.t_rbio(s) == pytest.approx(expected_rbio)


def test_model_validation():
    with pytest.raises(ValueError):
        SpeedupModel(10, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        SpeedupModel(10, 11, 1, 1, 1)
    with pytest.raises(ValueError):
        SpeedupModel(10, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        SpeedupModel(10, 2, 1, 1, 1, lam=2.0)


def test_model_describe_keys():
    d = model_fixture().describe()
    for key in ("np", "ng", "speedup_eq5", "speedup_eq6", "speedup_eq7"):
        assert key in d


def test_blocked_processor_seconds_roles():
    reports = {
        0: RankReport(0, "writer", 0.0, 0.0, 10.0, 1),   # writer: 10s commit
        1: RankReport(1, "worker", 0.0, 0.5, 0.5, 1),    # worker: 0.5s send
        2: RankReport(2, "collective", 0.0, 4.0, 4.0, 1),
    }
    res = CheckpointResult("x", reports)
    assert blocked_processor_seconds(res) == pytest.approx(0.0 + 10.0 + 0.5 + 4.0)


def test_from_results_extracts_parameters():
    coio = CheckpointResult("coio", {
        r: RankReport(r, "collective", 0.0, 2.0, 2.0, 500) for r in range(8)
    })
    rbio_reports = {}
    for r in range(8):
        if r % 4 == 0:
            rbio_reports[r] = RankReport(r, "writer", 0.0, 1.0, 1.0, 500)
        else:
            rbio_reports[r] = RankReport(r, "worker", 0.0, 0.01, 0.01, 500,
                                         isend_seconds=0.01)
    rbio = CheckpointResult("rbio", rbio_reports)
    m = SpeedupModel.from_results(coio, rbio)
    assert m.np_ranks == 8
    assert m.ng_writers == 2
    assert m.bw_coio == pytest.approx(coio.write_bandwidth)
