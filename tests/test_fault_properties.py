"""Property-based resilience round-trips under randomized fault schedules.

Draws >= 200 seeded cases — random partition size, strategy, field
shapes, and a fault schedule generated from the registry's
``"faults.schedule"`` stream — and checks the single resilience property
on every one:

    the campaign either restores bit-identical field data on every rank,
    or raises a typed UnrecoverableCheckpointError.  Nothing in between.

Everything derives from the case index, so any failing case replays
exactly from its seed.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
    UnrecoverableCheckpointError,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultConfig, FaultSchedule
from repro.sim import StreamRegistry
from repro.topology import intrepid

QUIET = intrepid().quiet()
N_CASES = 200
ROOT_SEED = 20110926  # CLUSTER 2011

STRATEGY_NAMES = ("1pfpp", "coio", "rbio", "bbio")


def case_streams(i: int) -> StreamRegistry:
    return StreamRegistry(ROOT_SEED + 101 * i)


def build_case(i: int):
    """Deterministically derive one case's (strategy, np, data_fn, faults)."""
    rng = case_streams(i).stream("case")
    n_ranks = int(rng.choice([8, 16]))
    group = 4
    name = STRATEGY_NAMES[i % len(STRATEGY_NAMES)]
    if name == "1pfpp":
        strategy = OneFilePerProcess(arrival_jitter=0.0)
    elif name == "coio":
        strategy = CollectiveIO(ranks_per_file=group)
    elif name == "rbio":
        strategy = ReducedBlockingIO(workers_per_writer=group)
    else:
        strategy = BurstBufferIO(workers_per_writer=group)

    n_fields = int(rng.integers(1, 3))
    sizes = [int(rng.integers(64, 513)) for _ in range(n_fields)]

    def data_fn(rank: int) -> CheckpointData:
        drng = np.random.default_rng(ROOT_SEED + 7 * i + rank)
        fields = [
            Field(f"f{k}", sizes[k],
                  drng.integers(0, 256, size=sizes[k],
                                dtype=np.uint8).tobytes())
            for k in range(n_fields)
        ]
        return CheckpointData(fields, header_bytes=64)

    # All FS errors transient (fatal ones abort the checkpoint wave, which
    # is a different property than the restore contract probed here).
    cfg = FaultConfig(
        fs_errors=float(rng.integers(0, 3)),
        fs_stalls=float(rng.integers(0, 2)),
        stall_seconds=0.2,
        fs_fatal_fraction=0.0,
        writer_crash_prob=0.4,
        buffer_loss_prob=0.3,
        replica_corrupt_prob=0.2,
        net_degrade_prob=0.2,
        horizon=4.0,
    )
    writer_ranks = None
    if hasattr(strategy, "writer_ranks"):
        writer_ranks = strategy.writer_ranks(n_ranks)
    faults = FaultSchedule.generate(case_streams(i), n_ranks, cfg,
                                    writer_ranks=writer_ranks)
    return strategy, n_ranks, data_fn, faults


def check_case(i: int):
    strategy, n_ranks, data_fn, faults = build_case(i)
    try:
        campaign = run_checkpoint_steps(
            strategy, n_ranks, data_fn, n_steps=2,
            run_config=RunConfig(faults=faults),
            config=QUIET, gap_seconds=1.5,
        )
        campaign.restore()
    except UnrecoverableCheckpointError:
        return "unrecoverable"
    restored = campaign.restored
    steps = {s for s, _ in restored.values()}
    assert len(steps) == 1, f"case {i}: ranks disagreed on the generation"
    for rank in range(n_ranks):
        _step, fields = restored[rank]
        expected = [f.payload for f in data_fn(rank).fields]
        assert fields == expected, f"case {i}: rank {rank} bytes differ"
    return "restored"


@pytest.mark.parametrize("batch", range(20))
def test_fault_property_roundtrips(batch):
    """10 cases per batch x 20 batches = 200 seeded property cases."""
    for i in range(batch * 10, batch * 10 + 10):
        check_case(i)


def test_case_generation_is_deterministic():
    a = build_case(3)[3]
    b = build_case(3)[3]
    assert a == b


def test_case_mix_covers_fault_kinds():
    """The 200 generated schedules actually exercise the fault surface."""
    kinds = set()
    outcomes = set()
    for i in range(N_CASES):
        _, _, _, faults = build_case(i)
        kinds.update(s.kind for s in faults)
    assert {"fs_error", "fs_stall", "rank_crash", "buffer_loss",
            "net_degrade"} <= kinds
    # Both contract outcomes occur across the mix.
    for i in range(0, N_CASES, 7):
        outcomes.add(check_case(i))
    assert "restored" in outcomes
