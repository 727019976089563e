"""Strategy × fault test matrix for the resilience layer.

Every cell runs a two-generation checkpoint campaign under one injected
fault class, then a coordinated resilient restore.  The invariant is the
resilience contract: each run either restores **bit-identical** field data
for every rank, or raises a typed
:class:`~repro.faults.UnrecoverableCheckpointError` — never a silently
corrupt restore.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    CollectiveIO,
    OneFilePerProcess,
    ReducedBlockingIO,
    UnrecoverableCheckpointError,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec, faults_of
from repro.staging import StagingConfig
from repro.topology import intrepid

QUIET = intrepid().quiet()
NP = 32          # 4 groups of 8 for the grouped strategies
GROUP = 8
N_STEPS = 2
GAP = 2.0        # step 1 starts ~2 s in, after any time<=1 fault lands


def matrix_data(rank: int, per_field: int = 1024, n_fields: int = 2):
    """Per-rank payload, identical across steps (so any complete
    generation restores the same bytes)."""
    from repro.ckpt import CheckpointData, Field

    rng = np.random.default_rng(4000 + rank)
    fields = [
        Field(f"f{i}",
              per_field,
              rng.integers(0, 256, size=per_field, dtype=np.uint8).tobytes())
        for i in range(n_fields)
    ]
    return CheckpointData(fields, header_bytes=256)


def expected_fields(rank: int):
    return [f.payload for f in matrix_data(rank).fields]


def make_strategy(name: str):
    if name == "1pfpp":
        return OneFilePerProcess(arrival_jitter=0.0)
    if name == "coio":
        return CollectiveIO(ranks_per_file=GROUP)
    if name == "rbio":
        return ReducedBlockingIO(workers_per_writer=GROUP)
    if name == "bbio":
        return BurstBufferIO(workers_per_writer=GROUP,
                             staging=StagingConfig(replicate=True))
    raise AssertionError(name)


FAULT_CELLS = {
    # Two transient write errors: absorbed by bounded retry everywhere.
    "transient_fs": FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
                  transient=True),
    )),
    # Two transient close errors: a writable handle's close retries too.
    "transient_close": FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="close", count=2,
                  transient=True),
    )),
    # Writer of group 1 (rank 8) dies between the generations.
    "writer_crash": FaultSchedule((
        FaultSpec(kind="rank_crash", time=1.0, rank=8),
    )),
    # Worker rank 11 (group 1) dies between the generations: generation 1
    # of its group, staged copies included, holds only 7 of 8 members.
    "worker_crash": FaultSchedule((
        FaultSpec(kind="rank_crash", time=1.0, rank=11),
    )),
    # Group 0's burst buffer device is lost mid-campaign.
    "buffer_loss": FaultSchedule((
        FaultSpec(kind="buffer_loss", time=1.0, rank=0),
    )),
    # Group 1's partner replica of the newest generation is corrupted
    # after the campaign settles, before the restart.
    "replica_corrupt": FaultSchedule((
        FaultSpec(kind="replica_corrupt", time=50.0, group=1, step=1),
    )),
}


def run_cell(strategy_name: str, fault_name: str):
    run = run_checkpoint_steps(
        make_strategy(strategy_name), NP, matrix_data,
        n_steps=N_STEPS,
        run_config=RunConfig(faults=FAULT_CELLS[fault_name]),
        config=QUIET, gap_seconds=GAP,
    )
    run.restore()
    return run


def assert_contract(campaign):
    """The two-outcome contract: bit-identical restore on every rank."""
    assert campaign.restored is not None
    steps = {s for s, _ in campaign.restored.values()}
    assert len(steps) == 1, "ranks disagreed on the restored generation"
    for rank in range(NP):
        _step, fields = campaign.restored[rank]
        assert fields == expected_fields(rank), (
            f"rank {rank} restored different bytes"
        )


@pytest.mark.parametrize("fault_name", sorted(FAULT_CELLS))
@pytest.mark.parametrize("strategy_name", ["1pfpp", "coio", "rbio", "bbio"])
def test_matrix_cell(strategy_name, fault_name):
    try:
        campaign = run_cell(strategy_name, fault_name)
    except UnrecoverableCheckpointError:
        # The allowed failure mode: typed, loud, never silent.
        return
    assert_contract(campaign)


# -- targeted semantics on top of the blanket invariant ---------------------

@pytest.mark.parametrize("strategy_name", ["1pfpp", "coio", "rbio", "bbio"])
def test_transient_errors_are_absorbed_and_logged(strategy_name):
    campaign = run_cell(strategy_name, "transient_fs")
    assert_contract(campaign)
    report = faults_of(campaign.job).report()
    assert report["by_kind"].get("fs_error", 0) == 2
    # Retries absorbed them: newest generation restores fine.
    assert campaign.restored_step == N_STEPS - 1


@pytest.mark.parametrize("strategy_name", ["1pfpp", "coio", "rbio", "bbio"])
def test_writer_crash_falls_back_to_complete_generation(strategy_name):
    campaign = run_cell(strategy_name, "writer_crash")
    assert_contract(campaign)
    # Generation 1 is partial (rank 8 contributed nothing), so the
    # coordinated restore must agree on generation 0.
    assert campaign.restored_step == 0
    roles = campaign.results[-1].roles
    assert roles[8] == "crashed"


def test_rbio_failover_keeps_survivor_data_durable():
    """The adopter writer commits the orphaned group's survivors."""
    campaign = run_cell("rbio", "writer_crash")
    kinds = [e["kind"] for e in faults_of(campaign.job).report()["log"]]
    assert "writer_failover" in kinds
    # Generation 1 holds a failover file for group 1 written by the
    # adopter — smaller than a full group file, hence rejected at restore.
    assert campaign.restored_step == 0


def test_bbio_buffer_loss_degrades_to_pfs():
    campaign = run_cell("bbio", "buffer_loss")
    assert_contract(campaign)
    log = faults_of(campaign.job).report()["log"]
    assert any(e["kind"] == "buffer_loss" for e in log)
    # The generation checkpointed after the loss bypassed the dead buffer.
    assert any(e["kind"] == "bbio_degraded" for e in log)


def test_bbio_corrupt_replica_never_served():
    campaign = run_cell("bbio", "replica_corrupt")
    assert_contract(campaign)
    log = faults_of(campaign.job).report()["log"]
    assert any(e["kind"] == "replica_corrupt" for e in log)


def test_bbio_bit_rot_falls_back_to_partner_replica():
    """Checksum catches in-buffer rot; the partner replica serves.

    Single-wave (restore in the same processes, drain still trickling) so
    the rotted package is still buffer-resident when the restore looks.
    """
    from repro.faults import attach_faults
    from repro.mpi import Job
    from repro.storage import attach_storage

    slow = StagingConfig(replicate=True, drain_bandwidth=1e3,
                         drain_chunk=1 << 20, high_watermark=None)
    strategy = BurstBufferIO(workers_per_writer=GROUP, staging=slow)
    job = Job(NP, QUIET)
    attach_storage(job)
    attach_faults(job, FaultSchedule((
        FaultSpec(kind="bit_rot", time=0.9, group=1, step=0),
    )))

    def main(ctx):
        data = matrix_data(ctx.rank)
        yield from ctx.comm.barrier()
        yield from strategy.checkpoint(ctx, data, 0, "/ckpt")
        yield ctx.engine.timeout(1.0)  # let the bit-rot land
        yield from ctx.comm.barrier()
        fields = yield from strategy.restore(ctx, data, 0, "/ckpt")
        return fields == [f.payload for f in data.fields]

    job.spawn(main)
    results = job.run()
    assert all(results.values()), "restored bytes differ"
    log = faults_of(job).injected
    assert any(e["kind"] == "bit_rot" for e in log)
    assert any(e["kind"] == "corruption_detected" and e["tier"] == "buffer"
               for e in log)


def test_no_fault_cells_restore_newest_generation():
    for name in ["1pfpp", "coio", "rbio", "bbio"]:
        campaign = run_checkpoint_steps(
            make_strategy(name), NP, matrix_data, n_steps=N_STEPS,
            config=QUIET, gap_seconds=GAP,
        )
        campaign.restore()
        assert_contract(campaign)
        assert campaign.restored_step == N_STEPS - 1
