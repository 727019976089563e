"""Property suite: the rope data plane commits bit-identical FS bytes.

The zero-copy refactor's hard invariant is that moving segment references
instead of flat buffers changes *nothing* observable on the simulated file
system: for every strategy, with and without fault injection, a run in
``zerocopy`` mode and a run in ``eager`` mode (the pre-rope copy-per-hop
baseline) must commit byte-identical file images with identical CRCs.

The suite sweeps 13 payload seeds x 4 strategies x {clean, transient FS
errors} = 104 cases; each case runs twice (once per copy mode) and compares
every committed file byte for byte.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.buffers import as_bytes, crc32_of
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec
from repro.topology import intrepid

N_RANKS = 16
GROUP = 4
SEEDS = tuple(range(13))

STRATEGIES = {
    "1pfpp": lambda: OneFilePerProcess(arrival_jitter=0.0),
    "coio": lambda: CollectiveIO(ranks_per_file=GROUP),
    # Small writer buffer forces multi-burst commits (the sliciest path).
    "rbio": lambda: ReducedBlockingIO(workers_per_writer=GROUP,
                                      writer_buffer=4096),
    "bbio": lambda: BurstBufferIO(workers_per_writer=GROUP),
}

FAULT_MODES = {
    "clean": lambda: None,
    "fs_error": lambda: FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
                  transient=True),
    )),
}


def _data_builder(seed: int):
    """Per-rank random payloads with seed-varied odd field sizes."""
    sizes = [64 + 37 * seed + 11 * i for i in range(3)]

    def build(rank: int) -> CheckpointData:
        rng = np.random.default_rng(10_000 * seed + rank)
        fields = [
            Field(f"f{i}", n,
                  rng.integers(0, 256, size=n, dtype=np.uint8).tobytes())
            for i, n in enumerate(sizes)
        ]
        return CheckpointData(fields, header_bytes=96 + 8 * seed)

    return build


def _committed_image(make_strategy, seed: int, faults, mode: str) -> dict:
    """Run one checkpoint step in ``mode``; return {path: (size, bytes, crc)}."""
    run = run_checkpoint_steps(make_strategy(), N_RANKS,
                               _data_builder(seed), 1,
                               config=intrepid().quiet(),
                               run_config=RunConfig(copy=mode, faults=faults))
    fs = run.job.services["fs"]
    out = {}
    for path, fobj in sorted(fs.files.items()):
        content = fobj.read_extents(0, fobj.size)
        out[path] = (fobj.size, as_bytes(content), crc32_of(content))
    return out


@pytest.mark.parametrize("fault_name", sorted(FAULT_MODES))
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_rope_vs_bytes_images_bit_identical(strategy_name, fault_name):
    make = STRATEGIES[strategy_name]
    make_faults = FAULT_MODES[fault_name]
    for seed in SEEDS:
        zc = _committed_image(make, seed, make_faults(), "zerocopy")
        eager = _committed_image(make, seed, make_faults(), "eager")
        assert zc.keys() == eager.keys(), (strategy_name, fault_name, seed)
        assert zc, (strategy_name, fault_name, seed)  # something was written
        for path in zc:
            z_size, z_bytes, z_crc = zc[path]
            e_size, e_bytes, e_crc = eager[path]
            assert z_size == e_size, (strategy_name, fault_name, seed, path)
            assert z_crc == e_crc, (strategy_name, fault_name, seed, path)
            assert z_bytes == e_bytes, (strategy_name, fault_name, seed, path)


def test_case_count_meets_floor():
    """The sweep above covers >= 100 seeded cases."""
    assert len(SEEDS) * len(STRATEGIES) * len(FAULT_MODES) >= 100
