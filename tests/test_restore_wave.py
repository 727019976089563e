"""The restore wave: ``run_checkpoint_steps(...).restore()``.

One restart path for every caller.  The window it measures is pinned
exactly: ``restore_seconds`` runs from the restart barrier to the moment
the slowest rank's kept read returned — before that generation's
agreement vote — and the values below were recorded through the retired
single-wave restart driver, whose restart read began before the
checkpoint's tail had drained.  A ±25 % perf band would not see the
window move; these do.
"""

import math

import pytest

from repro.buffers import as_bytes
from repro.ckpt import (
    BurstBufferIO,
    CollectiveIO,
    EvolvingData,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps, scaled_problem
from repro.staging import StagingConfig

NP = 256

#: ``restore_seconds.hex()`` at np 256 on ``scaled_problem(256).data()``.
PINNED = {
    "1pfpp": "0x1.c4543c4e4d37bp+0",
    "coio_64": "0x1.c44dede3fff43p+0",
    "rbio_ng": "0x1.c44b52260a43ap+0",
    # The wave starts once the staging drain has settled, about 2 s later
    # on the clock than the retired driver's restart: the same duration,
    # rounded at another magnitude.
    "bbio_partner": "0x1.fffc2c75e9d86p-1",
}


def make_strategy(name):
    return {
        "1pfpp": OneFilePerProcess,
        "coio_64": lambda: CollectiveIO(ranks_per_file=64),
        "rbio_ng": lambda: ReducedBlockingIO(workers_per_writer=64),
        "bbio_partner": lambda: BurstBufferIO(
            workers_per_writer=64, staging=StagingConfig(replicate=True),
            restore_from="partner"),
    }[name]()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_restart_window_is_pinned(name):
    run = run_checkpoint_steps(make_strategy(name), NP,
                               scaled_problem(NP).data())
    restored = run.restore()
    assert run.restored_step == 0 and len(restored) == NP
    want = float.fromhex(PINNED[name])
    if name == "bbio_partner":
        assert math.isclose(run.restore_seconds, want, rel_tol=1e-12)
        # Read after the wave: the results' fs_stats were taken before it.
        assert run.fs.stats()["reads"] == 0
    else:
        assert run.restore_seconds.hex() == PINNED[name]
        assert run.fs.stats()["reads"] > run.result.fs_stats["reads"]


def test_restart_measures_evolving_data():
    """A restart of an evolving workload reads the newest generation back
    (the retired driver raised ``AttributeError`` on this data)."""
    data = EvolvingData.mutating(1000, mutated_fraction=0.25, seed=0)
    run = run_checkpoint_steps(OneFilePerProcess(), 8, data, n_steps=2)
    restored = run.restore()
    assert sorted(restored) == list(range(8))
    for rank, (step, fields) in restored.items():
        assert step == 1
        want = data.bind(rank).at_step(1).fields
        assert [as_bytes(f) for f in fields] == [as_bytes(f.payload)
                                                 for f in want]
    assert run.restore_seconds > 0


def test_restore_properties_before_the_wave():
    run = run_checkpoint_steps(OneFilePerProcess(), 8,
                               scaled_problem(8).data())
    assert run.restored is None and run.restored_step is None
