"""Figure 5: write bandwidth of the five I/O configurations vs processors.

Paper series (GPFS on Intrepid, weak scaling 39/78/156 GB per step):
1PFPP collapses to ~0.1 GB/s on metadata; coIO/rbIO with nf=1 plateau at a
few GB/s on single-file extent allocation; coIO 64:1 rises then drops at
64K; rbIO nf=ng scales flat-rising past 13 GB/s at 65,536 processors.
"""

from _common import PAPER_SCALE, SIZES, bench_record, print_series

from repro.experiments import (
    APPROACHES,
    APPROACH_LABELS,
    fig5_write_bandwidth,
    get_runs,
)

#: The figure's (approach, np) grid; ``get_runs`` computes what no cache
#: holds (in parallel with ``REPRO_BENCH_PARALLEL``) before the figure
#: reads it.
GRID = [(key, n) for key in APPROACHES for n in SIZES]


def test_fig5_write_bandwidth(benchmark):
    runs = get_runs(GRID)
    out = benchmark.pedantic(
        lambda: fig5_write_bandwidth(sizes=SIZES), rounds=1, iterations=1
    )
    rows = [
        [APPROACH_LABELS[key]] + [f"{out[key][n]:.2f} GB/s" for n in SIZES]
        for key in out
    ]
    print_series("Fig 5: write bandwidth", ["approach"] + [f"np={n}" for n in SIZES], rows)
    bench_record("fig5_write_bandwidth", gbps={
        key: {str(n): out[key][n] for n in SIZES} for key in out
    }, bytes_copied=sum(run.bytes_copied for run in runs))

    for n in SIZES:
        # rbIO nf=ng is never meaningfully behind its nf=1 variant; the two
        # nf=1 variants are comparable (two-phase layers do not interfere).
        # Tolerance, and why it is not a strict ">" below paper scale: the
        # single file costs its writers through extent-allocation
        # serialization, which grows with the number of writers contending
        # for the one file; with 16-32 of them (np = 1K-2K) it costs less
        # than nf=ng's unsynchronised private-file streams cost each other
        # (writers busy 15-22 % longer), so nf=ng reads 0.88-0.96x of nf=1.
        # The curves cross at np ~ 4K (64 writers: 1.004x) and nf=ng wins
        # by 2-3x at 16K-64K (EXPERIMENTS.md, "Fig 5 below paper scale").
        assert out["rbio_ng"][n] > 0.85 * out["rbio_nf1"][n]
        assert 0.5 < out["rbio_nf1"][n] / out["coio_nf1"][n] < 2.0
    if PAPER_SCALE:
        # Mechanisms that need paper-scale volume/directories to bite:
        # the metadata storm and the ~2x single-file allocation gap.
        for n in SIZES:
            assert out["1pfpp"][n] < out["coio_nf1"][n] / 5
            assert out["rbio_ng"][n] > out["rbio_nf1"][n]
            assert out["rbio_ng"][n] > 1.5 * out["rbio_nf1"][n]
        n16, n32, n64 = SIZES
        # >13 GB/s on 65,536 processors; ~100x over 1PFPP.
        assert out["rbio_ng"][n64] > 13.0
        assert out["rbio_ng"][n64] > 50 * out["1pfpp"][n64]
        # coIO 64:1 drops at 64K; rbIO performs no worse at larger scale.
        assert out["coio_64"][n64] < out["coio_64"][n32]
        assert out["rbio_ng"][n64] >= out["coio_64"][n64]
        # rbIO nf=ng scales (monotone non-decreasing).
        assert out["rbio_ng"][n16] <= out["rbio_ng"][n32] <= out["rbio_ng"][n64]
