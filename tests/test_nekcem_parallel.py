"""Integration tests: parallel SEDG solver + checkpointing on the simulated
machine, including restart faults."""

import numpy as np
import pytest

from repro import RunConfig
from repro.ckpt import CollectiveIO, OneFilePerProcess, ReducedBlockingIO
from repro.faults import FaultSchedule, FaultSpec, faults_of
from repro.nekcem import (
    MaxwellSolver,
    box_mesh,
    compute_seconds_per_step,
    run_parallel_solver,
)
from repro.topology import intrepid

QUIET = intrepid().quiet()


def restart_at(step):
    """A run configuration whose schedule restarts before checkpoint
    ``step``."""
    return RunConfig(faults=FaultSchedule((FaultSpec("restart", step=step),)))


def serial_reference(mesh, order, n_steps, dt):
    s = MaxwellSolver(mesh, order)
    state = s.cavity_mode(0.0)
    state, t = s.run(state, 0.0, dt, n_steps)
    return s, state, t


def test_parallel_matches_serial_bitwise():
    mesh = box_mesh((4, 2, 2))
    order = 3
    dt = MaxwellSolver(mesh, order).max_dt()
    _, ref, _ = serial_reference(mesh, order, 8, dt)
    res = run_parallel_solver(4, mesh, order, 8, dt=dt, config=QUIET)
    glob = res.global_state()
    for a, b in zip(ref, glob):
        assert np.array_equal(a, b)


def test_parallel_unbalanced_slabs():
    mesh = box_mesh((5, 2, 2), ((0, 5), (0, 1), (0, 1)))
    order = 2
    dt = MaxwellSolver(mesh, order).max_dt()
    _, ref, _ = serial_reference(mesh, order, 5, dt)
    res = run_parallel_solver(3, mesh, order, 5, dt=dt, config=QUIET)
    glob = res.global_state()
    for a, b in zip(ref, glob):
        assert np.array_equal(a, b)


def test_parallel_periodic_axis():
    mesh = box_mesh(
        (4, 1, 1), ((0, 2), (0, 1), (0, 1)),
        ("periodic", "periodic", "PEC", "PEC", "PEC", "PEC"),
    )
    order = 3
    dt = MaxwellSolver(mesh, order).max_dt()
    s = MaxwellSolver(mesh, order)
    state = s.cavity_mode(0.0)
    state, _ = s.run(state, 0.0, dt, 6)
    res = run_parallel_solver(2, mesh, order, 6, dt=dt, config=QUIET)
    glob = res.global_state()
    for a, b in zip(state, glob):
        assert np.array_equal(a, b)


def test_single_rank_parallel_run():
    mesh = box_mesh((2, 2, 2))
    res = run_parallel_solver(1, mesh, 2, 3, config=QUIET)
    assert res.n_ranks == 1
    assert len(res.global_state()) == 6


@pytest.mark.parametrize("strategy_factory", [
    lambda: OneFilePerProcess(arrival_jitter=0.0),
    lambda: CollectiveIO(ranks_per_file=2),
    lambda: ReducedBlockingIO(workers_per_writer=2),
])
def test_checkpointed_run_produces_results(strategy_factory):
    mesh = box_mesh((4, 1, 1))
    res = run_parallel_solver(
        4, mesh, 2, 4, strategy=strategy_factory(), checkpoint_every=2,
        config=QUIET,
    )
    assert len(res.checkpoint_results) == 2
    for cr in res.checkpoint_results:
        assert cr.total_bytes > 0
        assert cr.overall_time > 0


def test_failure_injection_recovers_bitwise():
    """Restart before the step-6 checkpoint, from the step-4 one: the final
    state must equal the uninterrupted run's."""
    mesh = box_mesh((4, 1, 1))
    order = 3
    strategy = ReducedBlockingIO(workers_per_writer=2)
    clean = run_parallel_solver(
        4, mesh, order, 6, strategy=ReducedBlockingIO(workers_per_writer=2),
        checkpoint_every=2, config=QUIET,
    )
    crashed = run_parallel_solver(
        4, mesh, order, 6, strategy=strategy, checkpoint_every=2,
        run_config=restart_at(2), config=QUIET,
    )
    assert crashed.restored_at_step == 4
    assert faults_of(crashed.job).report()["by_kind"] == {"restart": 1}
    assert clean.restored_at_step is None
    for a, b in zip(clean.global_state(), crashed.global_state()):
        assert np.array_equal(a, b)


def test_failure_mid_interval_reexecutes_lost_steps():
    mesh = box_mesh((4, 1, 1))
    order = 2
    clean = run_parallel_solver(
        2, mesh, order, 7, strategy=CollectiveIO(), checkpoint_every=3,
        config=QUIET,
    )
    crashed = run_parallel_solver(
        2, mesh, order, 7, strategy=CollectiveIO(), checkpoint_every=3,
        run_config=restart_at(1), config=QUIET,
    )
    assert crashed.restored_at_step == 3
    for a, b in zip(clean.global_state(), crashed.global_state()):
        assert np.array_equal(a, b)


def test_failure_validation():
    mesh = box_mesh((2, 1, 1))
    with pytest.raises(ValueError, match="requires checkpointing"):
        run_parallel_solver(2, mesh, 2, 4, run_config=restart_at(1),
                            config=QUIET)
    crash = RunConfig(faults=FaultSchedule((
        FaultSpec("rank_crash", time=0.0, rank=1),)))
    with pytest.raises(ValueError, match="rank_crash"):
        run_parallel_solver(2, mesh, 2, 4, strategy=CollectiveIO(),
                            checkpoint_every=2, run_config=crash,
                            config=QUIET)
    with pytest.raises(ValueError, match="requires a strategy"):
        run_parallel_solver(2, mesh, 2, 4, checkpoint_every=2, config=QUIET)


def test_traced_run_records_each_checkpoint_and_keeps_the_state():
    """A traced solver run records one ``checkpoint`` span per rank per
    checkpoint and ends bit-identical to the untraced run."""
    mesh = box_mesh((4, 1, 1))

    def run(**kw):
        return run_parallel_solver(4, mesh, 2, 5,
                                   strategy=OneFilePerProcess(),
                                   checkpoint_every=2, config=QUIET, **kw)

    plain, traced = run(), run(run_config=RunConfig(trace="full"))
    spans = [s for s in traced.job.tracer.spans if s.name == "checkpoint"]
    assert sorted(s.rank for s in spans) == sorted(list(range(4)) * 2)
    for a, b in zip(plain.global_state(), traced.global_state()):
        assert np.array_equal(a, b)


def test_virtual_compute_time_matches_model():
    mesh = box_mesh((4, 1, 1))
    order = 3
    n_steps = 3
    res = run_parallel_solver(2, mesh, order, n_steps, config=QUIET)
    per_step = compute_seconds_per_step(2 * 4**3, QUIET)
    assert res.compute_seconds_per_step == pytest.approx(per_step)
    # Virtual clock advanced by at least the compute charge.
    assert res.job.now >= n_steps * per_step * 0.99


def test_compute_seconds_paper_scale():
    """~16.8K points per rank costs ~0.26 s/step on 850 MHz cores."""
    t = compute_seconds_per_step(16785, intrepid())
    assert 0.2 < t < 0.32


def test_too_many_ranks_rejected():
    mesh = box_mesh((2, 2, 2))
    with pytest.raises(ValueError, match="more ranks"):
        run_parallel_solver(3, mesh, 2, 1, config=QUIET)
