"""A write-side file-system call absorbs its own transient faults.

The oracle is the earlier design, kept here verbatim: ``retry_fs``, the
generator loop every call site wrapped around its create, open for
writing and write.  Each cell runs twice — through the tree's own calls,
whose staged ops retry in their fault hook, and through the same calls
with that retry off and the oracle wrapped around them — and the clock,
the event count, the Darshan rows, spans and instants, the fault report,
the file-system counters and the restored bytes (or the raised error)
must agree exactly.
"""

import json
from contextlib import contextmanager

import pytest

import repro.experiments.runner as runner_module
from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    ChunkingParams,
    CollectiveIO,
    EvolvingData,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec, attach_faults, faults_of
from repro.mpi import Job
from repro.sim import StagedOp
from repro.staging import StagingConfig
from repro.storage import FSClient, attach_storage, gpfs
from repro.topology import intrepid

# -- the oracle: the earlier retry loop, verbatim ----------------------------

DEFAULT_RETRIES = 4
DEFAULT_BACKOFF = 0.05


def retry_fs(engine, attempt, retries: int = DEFAULT_RETRIES,
             backoff: float = DEFAULT_BACKOFF, tracer=None):
    """Run ``attempt()`` (a generator factory), retrying transient errors.

    Re-invokes ``attempt`` up to ``retries`` extra times, sleeping
    ``backoff * 2**n`` simulated seconds before retry ``n``.  An error
    without a truthy ``transient`` attribute — or one past the retry
    budget — propagates unchanged.  Returns the attempt's return value.
    Each retry is recorded as an instant event on ``tracer`` (the job's,
    when the run is traced).
    """
    tries = 0
    while True:
        try:
            return (yield from attempt())
        except RuntimeError as exc:
            if not getattr(exc, "transient", False) or tries >= retries:
                raise
            if tracer is not None:
                tracer.instant("retry", "fault", engine.now,
                               rank=getattr(exc, "rank", -1),
                               args={"error": type(exc).__name__,
                                     "detail": str(exc),
                                     "attempt": tries + 1,
                                     "backoff": backoff * (2 ** tries)})
            yield engine.timeout(backoff * (2 ** tries))
            tries += 1


def _wrapped(client, attempt):
    """``attempt`` in the oracle loop, traced on the client's job."""
    inj = client.fs.injector
    return retry_fs(client.fs.engine, attempt,
                    tracer=None if inj is None else inj.job.tracer)


class _HandOff(StagedOp):
    """A staged call as the earlier 1PFPP checkpoint made it under faults:
    the retry-wrapped generator, handed to the rank's process.  ``make()``
    builds the tree's op; the open a create calls runs it bare."""

    def __init__(self, client, make) -> None:
        super().__init__(_HandOff._go)
        self.client, self.make = client, make

    def _go(self):
        self.then = StagedOp.done
        if self.up.__class__ is gpfs._Create:  # ``call`` set it already
            return self.call(self.make())
        return _wrapped(self.client, lambda: self.make().run())


@contextmanager
def oracle():
    """The tree's calls with their own retry off and the oracle around
    every write-side one (the nested open of a create stays bare)."""
    create_op, open_op, write_op = (FSClient.create_op, FSClient.open_op,
                                    FSClient.write_op)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gpfs, "RETRIES", 0)
        m.setattr(FSClient, "create", lambda self, path, exclusive=False:
                  _wrapped(self, lambda: create_op(self, path,
                                                   exclusive).run()))
        m.setattr(FSClient, "open", lambda self, path, write=False: (
            _wrapped(self, lambda: open_op(self, path, True).run())
            if write else open_op(self, path).run()))
        m.setattr(FSClient, "write", lambda self, h, o, n, payload=None:
                  _wrapped(self, lambda: write_op(self, h, o, n,
                                                  payload).run()))
        m.setattr(FSClient, "create_op", lambda self, path, exclusive=False:
                  _HandOff(self, lambda: create_op(self, path, exclusive)))
        m.setattr(FSClient, "open_op", lambda self, path, write=False: (
            _HandOff(self, lambda: open_op(self, path, True))
            if write else open_op(self, path)))
        m.setattr(FSClient, "write_op", lambda self, h, o, n, payload=None:
                  _HandOff(self, lambda: write_op(self, h, o, n, payload)))
        yield


# -- what a run leaves behind -------------------------------------------------

def _exact(value) -> str:
    """JSON with floats in their round-trip repr."""
    return json.dumps(value, sort_keys=True, default=repr)


def fingerprint(job, outcome) -> dict:
    """Everything observable of a finished (or aborted) faulted run."""
    tracer = job.tracer
    return {
        "now": job.engine.now.hex(),
        "events": job.engine.events_processed,
        "darshan": [tuple(r) for r in job.profiler.records],
        "spans": [(s.rank, s.name, s.cat, s.start.hex(), s.end.hex(),
                   s.nbytes, s.members, s.args) for s in tracer.spans],
        "instants": _exact(tracer.events),
        "faults": _exact(faults_of(job).report()),
        "fs": job.services["fs"].stats(),
        "outcome": outcome,
    }


def _restored(restored) -> dict:
    return {rank: (step, [bytes(f) for f in fields])
            for rank, (step, fields) in restored.items()}


# -- the campaign cells -------------------------------------------------------

QUIET = intrepid().quiet()
NP, GROUP, STEPS, GAP = 32, 8, 2, 2.0
CHUNKING = ChunkingParams(min_size=256, avg_size=1024, max_size=4096)
DATA = EvolvingData.mutating(30, mutated_fraction=0.25, seed=5,
                             header_bytes=256)


def _errors(op, count, **kw):
    return FaultSpec(kind="fs_error", time=0.0, op=op, count=count,
                     transient=True, **kw)


#: No close fault in any cell: closes were never wrapped.
SCHEDULES = {
    "write_errors": (_errors("write", 5),),
    "create_errors": (_errors("create", 6),),
    "open_errors": (_errors("open", 3),),
    "stall_mix": (FaultSpec(kind="fs_stall", time=0.0, op="create", count=4,
                            delay=0.2),
                  FaultSpec(kind="fs_stall", time=0.0, op="write", count=2,
                            delay=0.1),
                  _errors("write", 3), _errors("read", 2)),
    "rank_targeted": (_errors("write", 5, rank=8), _errors("create", 3,
                                                             rank=0),
                      _errors("open", 2, rank=9)),
    "crash_writes": (FaultSpec(kind="rank_crash", time=1.0, rank=8),
                     _errors("write", 5)),
}


def make_strategy(name: str, delta: str):
    strategy = {
        "1pfpp": lambda: OneFilePerProcess(arrival_jitter=0.0),
        "coio": lambda: CollectiveIO(ranks_per_file=GROUP),
        "rbio_nf1": lambda: ReducedBlockingIO(workers_per_writer=GROUP,
                                              single_file=True),
        "bbio": lambda: BurstBufferIO(workers_per_writer=GROUP,
                                      staging=StagingConfig(replicate=True)),
    }[name]()
    if delta != "off":
        strategy.configure_delta(delta, chunking=CHUNKING)
    return strategy


def run_campaign(strategy_name, delta, schedule) -> dict:
    jobs = []

    def keeping(job, faults):
        jobs.append(job)
        return attach_faults(job, faults)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(runner_module, "attach_faults", keeping)
        try:
            campaign = run_checkpoint_steps(
                make_strategy(strategy_name, delta), NP, DATA,
                n_steps=STEPS, config=QUIET, gap_seconds=GAP,
                run_config=RunConfig(
                    trace="full", faults=FaultSchedule(SCHEDULES[schedule])))
            outcome = _restored(campaign.restore())
        except RuntimeError as exc:
            outcome = (type(exc).__name__, str(exc))
    return fingerprint(jobs[0], outcome)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("delta", ["off", "auto"])
@pytest.mark.parametrize("strategy_name", ["1pfpp", "coio", "rbio_nf1",
                                           "bbio"])
def test_own_retry_equals_the_oracle(strategy_name, delta, schedule):
    own = run_campaign(strategy_name, delta, schedule)
    with oracle():
        want = run_campaign(strategy_name, delta, schedule)
    assert own == want


# -- create on an existing path -----------------------------------------------

NESTED = {
    # The create's open fails twice; the create retries whole, twice.
    "open_errors": (_errors("open", 2, rank=0),),
    # Five attempts fail: the budget is spent and the error propagates.
    "budget_spent": (_errors("open", 6, rank=0),),
    # Each attempt stalls at the create's hook, then its open fails.
    "stall_then_open": (FaultSpec(kind="fs_stall", time=0.0, op="create",
                                  rank=0, count=3, delay=0.1),
                        _errors("open", 2, rank=0)),
}


def _nested_main(ctx, staged, strategy, data):
    # Onto a file that already exists: a generator call, as MPI-IO and the
    # drain make it, or the 1PFPP checkpoint's staged one.
    if staged:
        yield from strategy.checkpoint(ctx, data.bind(ctx.rank).at_step(0), 0)
    else:
        handle = yield from ctx.fs.create(strategy.rank_path("/ckpt", 0,
                                                             ctx.rank))
        yield from ctx.fs.write(handle, 0, 64)
        yield from ctx.fs.close(handle)
    return ctx.engine.now.hex()


def run_nested(case, staged) -> dict:
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    job = Job(4, QUIET, run_config=RunConfig(trace="full"))
    fs = attach_storage(job)
    for r in range(4):
        fs.preload_file(strategy.rank_path("/ckpt", 0, r), 8)
    attach_faults(job, FaultSchedule(NESTED[case]))
    job.spawn(_nested_main, staged, strategy, DATA)
    try:
        outcome = job.run()
    except RuntimeError as exc:
        outcome = (type(exc).__name__, str(exc))
    return fingerprint(job, outcome)


@pytest.mark.parametrize("staged", [False, True], ids=["generator", "staged"])
@pytest.mark.parametrize("case", sorted(NESTED))
def test_create_on_existing_path_retries_whole(case, staged):
    own = run_nested(case, staged)
    with oracle():
        want = run_nested(case, staged)
    assert own == want
    retries = own["instants"].count('"retry"')
    if case == "budget_spent":
        assert own["outcome"][0] == "FSError" and retries == 4
    else:
        assert isinstance(own["outcome"], dict) and retries == 2
