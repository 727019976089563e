"""Every file one rank owns is written by one rule, read off the Darshan log.

A writer's data file (rbIO ``nf = ng``, a failover adoption, bbIO's
degraded path) is flushed in bursts of ``writer_buffer`` bytes; 1PFPP
writes each planned piece in one call; a delta manifest is always one
write of its whole length, even when it is longer than the buffer.
"""

from collections import defaultdict

import pytest

from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    ChunkingParams,
    EvolvingData,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec, faults_of
from repro.topology import intrepid

QUIET = intrepid().quiet()
NP, GROUP, GAP = 16, 8, 2.0
BUFFER = 8192
CHUNKING = ChunkingParams(min_size=256, avg_size=1024, max_size=4096)
EVOLVING = EvolvingData.mutating(200, mutated_fraction=0.25, seed=5,
                                 header_bytes=256)
SIZES_ONLY = CheckpointData.synthetic([6000] * 3)


def _run(strategy, data, faults=None):
    return run_checkpoint_steps(
        strategy, NP, data, n_steps=2, config=QUIET, gap_seconds=GAP,
        run_config=RunConfig(faults=None if faults is None
                             else FaultSchedule(faults)))


def rbio_ng_delta():
    strategy = ReducedBlockingIO(workers_per_writer=GROUP,
                                 writer_buffer=BUFFER)
    run = _run(strategy.configure_delta("require", chunking=CHUNKING),
               EVOLVING)
    return run, None, BUFFER


def onefile(delta):
    strategy = OneFilePerProcess(arrival_jitter=0.0)
    if delta:
        strategy.configure_delta("require", chunking=CHUNKING)
    return _run(strategy, EVOLVING if delta else SIZES_ONLY), None, None


def rbio_failover():
    strategy = ReducedBlockingIO(workers_per_writer=GROUP,
                                 writer_buffer=BUFFER)
    run = _run(strategy, SIZES_ONLY,
               (FaultSpec(kind="rank_crash", time=1.0, rank=GROUP),))
    log = faults_of(run.job).report()["log"]
    adopted = [strategy.file_path("/ckpt", e["step"], e["group"])
               for e in log if e["kind"] == "writer_failover"]
    assert adopted
    return run, adopted, BUFFER


def bbio_degraded():
    strategy = BurstBufferIO(workers_per_writer=GROUP)
    strategy.writer_buffer = BUFFER
    run = _run(strategy, SIZES_ONLY,
               (FaultSpec(kind="buffer_loss", time=1.0, rank=0),))
    log = faults_of(run.job).report()["log"]
    degraded = [strategy.file_path("/ckpt", e["step"], e["group"])
                for e in log if e["kind"] == "bbio_degraded"]
    assert degraded
    return run, degraded, BUFFER


CASES = {
    "rbio_ng_delta": rbio_ng_delta,
    "1pfpp_full": lambda: onefile(False),
    "1pfpp_delta": lambda: onefile(True),
    "rbio_failover": rbio_failover,
    "bbio_degraded": bbio_degraded,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_private_file_write_calls(case):
    run, data_paths, burst = CASES[case]()
    writes = defaultdict(list)
    for rec in run.job.profiler.records:
        if rec.op == "write":
            writes[rec.path].append(rec.nbytes)
    files = run.fs.files
    manifests = [p for p in writes if p.endswith(".manifest")]
    if data_paths is None:
        data_paths = [p for p in writes if not p.endswith(".manifest")]
    for path in manifests:
        assert writes[path] == [files[path].size], path
    for path in data_paths:
        size = files[path].size
        if burst is None:  # one write per piece: 1PFPP's plan is one
            assert writes[path] == [size], path
        else:
            assert size > burst, path
            assert writes[path] == ([burst] * (size // burst)
                                    + [size % burst] * (size % burst > 0)), path
    if case.endswith("delta"):
        assert len(manifests) == len(data_paths) == (
            2 * NP if case.startswith("1pfpp") else 2 * (NP // GROUP))
    if case == "rbio_ng_delta":
        # The buffer is smaller than every fresh region and every manifest.
        assert min(files[p].size for p in manifests) > BUFFER
