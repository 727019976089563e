"""Ablations of the design choices behind the paper's results.

Four studies (DESIGN.md section 8):

1. **Noise/storms off** — rerunning coIO 64:1 at 64K on an unloaded file
   system removes the outlier storms: the drop of Fig. 5 disappears,
   confirming the paper's attribution to "noise ... under normal user load".
2. **File-domain alignment off** — ROMIO's block alignment avoids
   read-modify-write and token ping-pong on shared files (Liao & Choudhary);
   disabling it costs bandwidth and generates RMW traffic.
3. **rbIO aggregation ratio** — 64:1 / 32:1 / 16:1 at 64K (ng = 1024 /
   2048 / 4096): past the GPFS concurrency optimum more writers hurt.
4. **Writer flush granularity** — rbIO writers flushing small buffers vs
   large: sole-owner files make rbIO robust to this tunable (its nf=1
   variant, which shares one file, is the configuration that pays).
"""

import pytest
from _common import PAPER_SCALE, SMOKE, bench_np, bench_record, print_series

from repro.ckpt import CollectiveIO, ReducedBlockingIO
from repro.experiments import get_run, paper_data, run_checkpoint_steps, scaled_problem
from repro.mpiio import Hints
from repro.topology import intrepid

NP_BIG = bench_np(65536, 4096)
NP_MID = bench_np(16384, 2048)


def _data(n):
    return paper_data(n) if PAPER_SCALE else scaled_problem(n).data()


def test_ablation_noise_storms(benchmark):
    """Without shared-load noise the coIO 64:1 collapse at 64K vanishes."""
    def run():
        noisy = get_run("coio_64", NP_BIG).result
        quiet = run_checkpoint_steps(
            CollectiveIO(ranks_per_file=64), NP_BIG, _data(NP_BIG),
            config=intrepid().quiet(),
        ).result
        return noisy, quiet

    noisy, quiet = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"Ablation 1: coIO 64:1 at np={NP_BIG}, shared-load noise",
        ["configuration", "bandwidth", "overall time"],
        [
            ["normal load (paper)", f"{noisy.write_bandwidth/1e9:.2f} GB/s",
             f"{noisy.overall_time:.2f} s"],
            ["unloaded (no storms)", f"{quiet.write_bandwidth/1e9:.2f} GB/s",
             f"{quiet.overall_time:.2f} s"],
        ],
    )
    assert quiet.write_bandwidth >= noisy.write_bandwidth
    if PAPER_SCALE:
        # The drop is noise-driven: unloaded coIO recovers substantially.
        assert quiet.write_bandwidth > 1.4 * noisy.write_bandwidth


def test_ablation_alignment(benchmark):
    """Unaligned file domains cost bandwidth and cause RMW traffic.

    Uses coIO nf=1 (a single shared file with many aggregators): every
    interior domain boundary that misses a block multiple forces a
    read-modify-write and token ping-pong between neighbouring aggregators.
    Field-section boundaries are inherently unaligned in the NekCEM layout,
    so a small RMW count remains even with the optimization on.
    """
    def run():
        out = {}
        for aligned in (True, False):
            run_ = run_checkpoint_steps(
                CollectiveIO(ranks_per_file=None,
                             hints=Hints(align_file_domains=aligned)),
                NP_MID, _data(NP_MID), config=intrepid().quiet(),
            )
            out[aligned] = (run_.result, run_.fs.stats())
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for aligned in (True, False):
        res, stats = out[aligned]
        rows.append([
            "aligned (BG/P ROMIO)" if aligned else "unaligned",
            f"{res.write_bandwidth/1e9:.2f} GB/s",
            stats["rmw_reads"],
            stats["revocations"],
        ])
    print_series(
        f"Ablation 2: file-domain alignment, coIO nf=1, np={NP_MID}",
        ["configuration", "bandwidth", "RMW reads", "revocations"],
        rows,
    )
    res_al, stats_al = out[True]
    res_un, stats_un = out[False]
    assert stats_un["rmw_reads"] > 5 * max(stats_al["rmw_reads"], 1)
    # At smoke scale the bandwidth cost is within run-to-run noise; only
    # the RMW/token evidence above is scale-independent.
    slack = 1.05 if SMOKE else 1.0
    assert res_un.write_bandwidth <= slack * res_al.write_bandwidth


def test_ablation_rbio_ratio(benchmark):
    """Worker:writer ratios 64:1 / 32:1 / 16:1 (paper Section V-B)."""
    ratios = (64, 32, 16)

    def run():
        out = {}
        for wpw in ratios:
            nf = NP_BIG // wpw
            out[wpw] = get_run(f"rbio_nf{nf}", NP_BIG).result
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"Ablation 3: rbIO np:ng ratio at np={NP_BIG}",
        ["np:ng", "writers", "bandwidth", "blocked (app)"],
        [[f"{w}:1", len(out[w].writer_ranks),
          f"{out[w].write_bandwidth/1e9:.2f} GB/s",
          f"{out[w].blocking_time*1e6:.0f} us"] for w in ratios],
    )
    bench_record("ablations_rbio_ratio", n_ranks=NP_BIG, gbps={
        f"{w}:1": out[w].write_bandwidth / 1e9 for w in ratios
    })
    # Worker blocking stays in microseconds at every ratio.
    for w in ratios:
        assert out[w].blocking_time < 1e-2
    if PAPER_SCALE:
        # 16:1 (4096 writers) sits past the concurrency optimum.
        assert out[16].write_bandwidth < out[64].write_bandwidth


def test_ablation_writer_buffer(benchmark):
    """Flush granularity has no cliff for sole-owner writer files.

    Unlike the nf=1 shared file (whose extent allocation serializes
    regardless of how writers flush), per-writer files stay within the
    same performance regime across a 32x buffer range — the rbIO design
    is robust to this tunable.  Moderate flushes interleave best with the
    backend's queue-depth behaviour.
    """
    buffers = (8 << 20, 64 << 20, 256 << 20)

    def run():
        out = {}
        for buf in buffers:
            out[buf] = run_checkpoint_steps(
                ReducedBlockingIO(workers_per_writer=64, writer_buffer=buf),
                NP_MID, _data(NP_MID), config=intrepid().quiet(),
            ).result
        out["nf1"] = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=64, single_file=True),
            NP_MID, _data(NP_MID), config=intrepid().quiet(),
        ).result
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"Ablation 4: rbIO writer buffer size, np={NP_MID}",
        ["configuration", "bandwidth"],
        [[f"nf=ng, {b >> 20} MB buffer", f"{out[b].write_bandwidth/1e9:.2f} GB/s"]
         for b in buffers]
        + [["nf=1 (shared file)", f"{out['nf1'].write_bandwidth/1e9:.2f} GB/s"]],
    )
    bws = [out[b].write_bandwidth for b in buffers]
    # No cliff across the sweep.
    assert max(bws) < 2.0 * min(bws)
    if PAPER_SCALE:
        # At production volume every buffer size beats the shared-file
        # configuration (whose extent allocation serializes).
        assert min(bws) > out["nf1"].write_bandwidth
