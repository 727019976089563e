"""Coalesced runs under faults must equal their uncoalesced twins.

An rbIO/bbIO worker only Isends its package and resumes; its writer alone
touches the file system and the burst buffer.  A 1PFPP rank and a coIO
rank make their own file-system calls, each a staged op that retries its
own transient errors, and a coIO rank's messages cross the faulted fabric
in the order its process would send them.  So file-system, network and
staging faults move nothing a cohort or a lock-step replay cannot follow,
and the coalesced run must reproduce the full SPMD run under every one of
them: reports, file images, fabric statistics, the final clock, the
Darshan records, the injector's report and the restored bytes (a fatal
error: its type).  ``rank_crash`` and ``restart`` kill or roll back ranks,
so those plans are refused, and a ``coalesce="auto"`` run under them is
the uncoalesced run.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    CollectiveIO,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec, faults_of
from repro.staging import StagingConfig
from repro.storage import FSError

from .test_coalesce import (
    assert_file_images_identical,
    assert_identical,
    records_of,
    shared_data,
)

NP, GROUP, GAP = 32, 8, 0.5

#: Fault kinds that reach only writers, the file system, the buffers or the
#: fabric; each spec fires inside a one-step run (group 1's step 0 is
#: staged by 0.001 s and drained by 0.006 s).
WRITER_SIDE = {
    "fs_error": FaultSpec("fs_error", op="write", count=2),
    "fs_error_fatal": FaultSpec("fs_error", rank=GROUP, op="create",
                                transient=False),
    "fs_stall": FaultSpec("fs_stall", op="create", count=3, delay=0.01),
    "fs_slow": FaultSpec("fs_slow", factor=4.0, duration=0.3),
    "net_degrade": FaultSpec("net_degrade", duration=0.6, factor=3.0),
    "net_drop": FaultSpec("net_drop", rank=GROUP, duration=0.6, delay=1e-4),
}
STAGING = {
    "buffer_loss": FaultSpec("buffer_loss", time=0.2, rank=0),
    "bit_rot": FaultSpec("bit_rot", time=0.003, group=1, step=0),
    "replica_corrupt": FaultSpec("replica_corrupt", time=0.2, group=2,
                                 step=0),
}


#: What only a rank's own file-system calls meet: a coIO member's open.
MEMBER_SIDE = {
    "fs_error_open": FaultSpec("fs_error", op="open", count=3),
}


def make(name: str, tam: str):
    if name == "1pfpp":
        return OneFilePerProcess()
    if name == "coio":
        strategy = CollectiveIO(ranks_per_file=GROUP)
    elif name == "rbio":
        strategy = ReducedBlockingIO(workers_per_writer=GROUP)
    else:
        strategy = BurstBufferIO(workers_per_writer=GROUP,
                                 staging=StagingConfig(replicate=True))
    return strategy.configure_tam(tam)


def run_mode(name, tam, spec, n_steps, payload, mode):
    """One run and its restore: ``(run, None)``, or the run (``None`` if
    the run itself raised) and the type of what raised."""
    run = None
    try:
        run = run_checkpoint_steps(
            make(name, tam), NP, shared_data(payload=payload),
            n_steps=n_steps, seed=11, gap_seconds=GAP,
            run_config=RunConfig(coalesce=mode,
                                 faults=FaultSchedule((spec,))))
        run.restore()
    except (RuntimeError, ValueError) as exc:  # FSError is a RuntimeError
        return run, type(exc)
    return run, None


def assert_runs_equal(off, on):
    assert_identical(off, on)
    assert_file_images_identical(off, on)
    assert off.job.engine.now == on.job.engine.now
    assert off.job.fabric.stats() == on.job.fabric.stats()
    # The replay records its workers' phases group by group: the same
    # records, in another order.
    assert sorted(records_of(off)) == sorted(records_of(on))
    assert faults_of(off.job).report() == faults_of(on.job).report()
    assert (off.restored or {}).keys() == (on.restored or {}).keys()
    for rank, (step, fields) in (off.restored or {}).items():
        assert on.restored[rank][0] == step
        assert ([f and bytes(f) for f in on.restored[rank][1]]
                == [f and bytes(f) for f in fields])


CELLS = ([("rbio", kind) for kind in WRITER_SIDE]
         + [("bbio", kind) for kind in {**WRITER_SIDE, **STAGING}])
#: 1PFPP sends no message (the network kinds have nothing to inject
#: there) and has no collective exchange to aggregate in two levels.
RANK_CELLS = ([("1pfpp", kind, "off") for kind in WRITER_SIDE
               if not kind.startswith("net_")]
              + [("coio", kind, tam) for kind in {**WRITER_SIDE, **MEMBER_SIDE}
                 for tam in ("off", "auto")])


@pytest.mark.parametrize("payload", [True, False], ids=["bytes", "sizes"])
@pytest.mark.parametrize("n_steps", [1, 2])
@pytest.mark.parametrize("tam", ["off", "auto"])
@pytest.mark.parametrize("name,kind", CELLS, ids=[f"{n}-{k}" for n, k in CELLS])
def test_coalesced_run_equals_the_uncoalesced_run_under(name, kind, tam,
                                                        n_steps, payload):
    spec = {**WRITER_SIDE, **STAGING}[kind]
    off, off_error = run_mode(name, tam, spec, n_steps, payload, "off")
    on, on_error = run_mode(name, tam, spec, n_steps, payload, "require")
    assert off_error is on_error
    if off_error is not None:
        assert off_error is FSError and kind == "fs_error_fatal"
        return
    assert faults_of(off.job).report()["injected"] > 0
    assert_runs_equal(off, on)


@pytest.mark.parametrize("payload", [True, False], ids=["bytes", "sizes"])
@pytest.mark.parametrize("n_steps", [1, 2])
@pytest.mark.parametrize("name,kind,tam", RANK_CELLS,
                         ids=[f"{n}-{k}-tam_{t}" for n, k, t in RANK_CELLS])
def test_a_cohort_equals_the_uncoalesced_run_under(name, kind, tam, n_steps,
                                                   payload):
    """1PFPP's ranks and coIO's non-aggregator ranks run as the runner's
    cohort; each of their file-system calls retries in its own staged op."""
    spec = {**WRITER_SIDE, **MEMBER_SIDE}[kind]
    off, off_error = run_mode(name, tam, spec, n_steps, payload, "off")
    on, on_error = run_mode(name, tam, spec, n_steps, payload, "require")
    assert off_error is on_error
    if off_error is not None:
        assert off_error is FSError and kind == "fs_error_fatal"
        return
    assert faults_of(off.job).report()["injected"] > 0
    assert len(on.job._rank_procs) < len(off.job._rank_procs)
    assert_runs_equal(off, on)


@pytest.mark.parametrize("spec", [
    FaultSpec("rank_crash", time=0.2, rank=GROUP + 3),
    FaultSpec("restart", step=1),
], ids=["worker_crash", "restart"])
@pytest.mark.parametrize("name", ["rbio", "bbio", "1pfpp", "coio"])
def test_a_schedule_that_moves_workers_takes_no_plan(name, spec):
    """``require`` names the refused schedule, and ``auto`` runs the
    uncoalesced program: the same run as ``off``."""
    with pytest.raises(ValueError, match=f"no plan.*{spec.kind}"):
        run_checkpoint_steps(make(name, "off"), NP, shared_data(), n_steps=2,
                             run_config=RunConfig(
                                 coalesce="require",
                                 faults=FaultSchedule((spec,))))
    off, off_error = run_mode(name, "off", spec, 2, True, "off")
    auto, auto_error = run_mode(name, "off", spec, 2, True, "auto")
    assert off_error is auto_error
    if spec.kind == "rank_crash":
        assert off.results[1].roles[spec.rank] == "crashed"
    else:
        assert faults_of(off.job).report()["by_kind"] == {"restart": 1}
    assert_runs_equal(off, auto)
    assert len(auto.job._rank_procs) == len(off.job._rank_procs)


def test_a_plan_is_taken_under_file_system_faults_at_scale():
    """At np 256, rbIO under a file-system-only schedule that injects, and
    bbIO with one step under its default flow control, spawn one process
    per group (the writer's and its workers' representative), not one
    per rank."""
    n_ranks, width = 256, 64
    for strategy, faults in (
            (ReducedBlockingIO(workers_per_writer=width),
             FaultSchedule((FaultSpec("fs_error", op="write", count=3),))),
            (BurstBufferIO(workers_per_writer=width), None)):
        run = run_checkpoint_steps(strategy, n_ranks, shared_data(),
                                   run_config=RunConfig(faults=faults))
        assert len(run.job._rank_procs) == 2 * (n_ranks // width)
        if faults is not None:
            assert faults_of(run.job).report()["injected"] == 3
        assert np.all(run.result.t_complete > 0)
