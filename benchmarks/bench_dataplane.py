"""Data-plane microbenchmark: host bytes copied per byte checkpointed.

Payload-carrying runs exercise the zero-copy scatter-gather data plane
(:mod:`repro.buffers`): worker packages, writer reassembly, two-phase
exchange, staging CRC/replication, and FS extent commits all move segment
references, materializing exactly once at the file-system boundary.  This
bench runs every strategy over a payload-size sweep twice — once in
``zerocopy`` mode and once in ``eager`` mode (which materializes at every
hop, reproducing the pre-rope behavior) — and records MB copied per MB
checkpointed plus wall time for both, asserting the headline reduction.

Both modes commit bit-identical file images (the property suite proves
it); only host copy volume and wall time differ.
"""

import time

import numpy as np
from _common import SMOKE, bench_record, print_series

from repro import RunConfig
from repro.ckpt import (
    BurstBufferIO,
    CheckpointData,
    CollectiveIO,
    Field,
    OneFilePerProcess,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.topology import intrepid

N_RANKS = 32 if SMOKE else 64
N_FIELDS = 3
GROUP = 8 if SMOKE else 16
#: Per-field payload sizes (bytes per rank).
PAYLOAD_SIZES = (2048, 16384) if SMOKE else (65536, 524288)
#: Writer aggregation buffer, sized below every swept group image so every
#: commit happens in several bursts (the multi-burst flush is one of the
#: copies eager mode pays and zerocopy does not).
WRITER_BUFFER = 32 * 1024 if SMOKE else 1024 * 1024


def _strategies():
    return (
        ("1pfpp", lambda: OneFilePerProcess(arrival_jitter=0.0)),
        ("coio", lambda: CollectiveIO(ranks_per_file=GROUP)),
        ("rbio_ng", lambda: ReducedBlockingIO(workers_per_writer=GROUP,
                                              writer_buffer=WRITER_BUFFER)),
        ("bbio", lambda: BurstBufferIO(workers_per_writer=GROUP)),
    )


def _data_builder(per_field: int):
    """Per-rank distinct payloads (seeded), so file bytes are meaningful."""

    def build(rank: int) -> CheckpointData:
        rng = np.random.default_rng(9000 + rank)
        fields = [
            Field(f"f{i}", per_field,
                  rng.integers(0, 256, size=per_field, dtype=np.uint8).tobytes())
            for i in range(N_FIELDS)
        ]
        return CheckpointData(fields, header_bytes=512)

    return build


def _measure(make_strategy, per_field: int, mode: str) -> dict:
    """One run in one copy mode: copies/byte + wall seconds."""
    t0 = time.perf_counter()
    run = run_checkpoint_steps(make_strategy(), N_RANKS,
                               _data_builder(per_field), 1,
                               config=intrepid().quiet(),
                               run_config=RunConfig(copy=mode))
    wall = time.perf_counter() - t0
    checkpointed = N_RANKS * N_FIELDS * per_field
    metrics = run.job.metrics()
    return {
        "bytes_checkpointed": checkpointed,
        "bytes_copied": metrics.get("copy.bytes_copied"),
        "buffer_allocs": metrics.get("copy.buffer_allocs"),
        "copies_per_byte": metrics.get("copy.bytes_copied") / checkpointed,
        "wall_seconds": wall,
    }


def test_dataplane_copies(benchmark):
    def run():
        out = {}
        for name, make in _strategies():
            for per in PAYLOAD_SIZES:
                zc = _measure(make, per, "zerocopy")
                eager = _measure(make, per, "eager")
                out[f"{name}@{per}"] = {
                    "strategy": name,
                    "per_field_bytes": per,
                    "zerocopy": zc,
                    "eager": eager,
                    "reduction": (eager["copies_per_byte"]
                                  / zc["copies_per_byte"]),
                }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Data plane: MB copied per MB checkpointed",
        ["case", "zerocopy", "eager", "reduction", "zc wall"],
        [[case,
          f"{r['zerocopy']['copies_per_byte']:.3f}",
          f"{r['eager']['copies_per_byte']:.3f}",
          f"{r['reduction']:.2f}x",
          f"{r['zerocopy']['wall_seconds']:.2f} s"]
         for case, r in out.items()],
    )
    bench_record("dataplane", cases=out)

    for case, r in out.items():
        # Zero-copy pays ~1 copy/byte: the single FS-commit materialization
        # (plus per-file header zeros, a sliver).
        assert r["zerocopy"]["copies_per_byte"] < 1.5, case
        # Eager never beats zerocopy.
        assert r["reduction"] >= 1.0, case
    # Headline: rbIO nf=ng with payloads copies >= 3x less per checkpointed
    # byte (worker concat + field-major reassembly + burst slicing all
    # collapse into segment gathers).
    for per in PAYLOAD_SIZES:
        r = out[f"rbio_ng@{per}"]
        assert r["reduction"] >= 3.0, (per, r["reduction"])
