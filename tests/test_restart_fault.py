"""A ``restart`` fault on figure data (one shared ``CheckpointData``).

Before checkpointing step 2 every rank rolls back to generation 1 — the
restore wave's newest-first vote, run inside the step loop — and the run
goes on at step 2, so the file set it leaves is the unfaulted run's.
"""

import zlib

import numpy as np
import pytest

from repro import RunConfig
from repro.buffers import as_bytes
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    UnrecoverableCheckpointError,
    faults_of,
)
from repro.topology import intrepid

QUIET = intrepid().quiet()
NP = 32
N_STEPS = 4
RESTART = FaultSchedule((FaultSpec("restart", step=2),))

_rng = np.random.default_rng(7)
DATA = CheckpointData(
    [Field(f"f{i}", 1500, _rng.integers(0, 256, 1500, np.uint8).tobytes())
     for i in range(2)],
    header_bytes=256)

STRATEGIES = {
    "1pfpp": lambda: OneFilePerProcess(arrival_jitter=0.0),
    "coio": lambda: CollectiveIO(ranks_per_file=8),
    "rbio": lambda: ReducedBlockingIO(workers_per_writer=8),
    "bbio": lambda: BurstBufferIO(workers_per_writer=8),
}


def run(name, faults=None, **kw):
    return run_checkpoint_steps(STRATEGIES[name](), NP, DATA, N_STEPS,
                                config=QUIET,
                                run_config=RunConfig(faults=faults, **kw))


def file_set(run_):
    return sorted(
        (path, f.size, zlib.crc32(as_bytes(f.read_extents(0, f.size))))
        for path, f in run_.fs.files.items())


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_restart_rolls_back_to_the_previous_generation(name):
    clean, restarted = run(name), run(name, RESTART)
    report = faults_of(restarted.job).report()
    assert report["by_kind"] == {"restart": 1}
    (entry,) = report["log"]
    assert (entry["step"], entry["restored"]) == (2, 1)
    # Steps 2 and 3 ran after the restart's reads (bbIO's from its
    # buffers), so they start later.
    assert (restarted.results[2].t_start.min()
            > clean.results[2].t_start.min())
    assert len(restarted.results) == N_STEPS
    assert file_set(restarted) == file_set(clean)


def test_restart_before_the_first_generation_is_unrecoverable():
    with pytest.raises(UnrecoverableCheckpointError):
        run("1pfpp", FaultSchedule((FaultSpec("restart", step=0),)))


def test_restart_past_the_run_is_rejected():
    with pytest.raises(ValueError, match="past the run"):
        run("1pfpp", FaultSchedule((FaultSpec("restart", step=N_STEPS),)))


def test_restart_schedule_takes_no_coalesce_plan():
    with pytest.raises(ValueError, match="offers no plan.*'restart'"):
        run("rbio", RESTART, coalesce="require")
