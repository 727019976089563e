"""Figure 6: overall time per checkpointing step (log scale in the paper).

rbIO and coIO cut the step time by orders of magnitude versus 1PFPP; the
rbIO bars stay nearly flat up to 65,536 processors.
"""

from _common import PAPER_SCALE, SIZES, bench_record, print_series

from repro.experiments import (
    APPROACHES,
    APPROACH_LABELS,
    fig6_overall_time,
    get_runs,
)


def test_fig6_overall_time(benchmark):
    runs = get_runs([(key, n) for key in APPROACHES for n in SIZES])
    out = benchmark.pedantic(
        lambda: fig6_overall_time(sizes=SIZES), rounds=1, iterations=1
    )
    rows = [
        [APPROACH_LABELS[key]] + [f"{out[key][n]:.2f} s" for n in SIZES]
        for key in out
    ]
    print_series("Fig 6: overall time per checkpoint step",
                  ["approach"] + [f"np={n}" for n in SIZES], rows)
    bench_record("fig6_overall_time", seconds={
        key: {str(n): out[key][n] for n in SIZES} for key in out
    }, bytes_copied=sum(run.bytes_copied for run in runs))

    if PAPER_SCALE:
        for n in SIZES:
            assert out["1pfpp"][n] > 5 * out["coio_nf1"][n]
        n16, _n32, n64 = SIZES
        # 1PFPP in the hundreds-to-thousands of seconds.
        assert out["1pfpp"][n16] > 100
        assert out["1pfpp"][n64] > 1000
        # rbIO nf=ng stays ~flat: 64K within 4x of 16K despite 4x the data.
        assert out["rbio_ng"][n64] < 4 * out["rbio_ng"][n16]
        # And absolute magnitude ~10 s (156 GB at >13 GB/s).
        assert out["rbio_ng"][n64] < 15
