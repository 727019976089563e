"""Figure 7: ratio of checkpoint time over computation time per step.

The paper: Ratio_1PFPP generally above 1000 while Ratio_rbIO stays flat and
small — rbIO is the only approach whose checkpoint cost does not grow into
the computation.  (Our rbIO numerator is the application-blocking time:
workers resume after the Isend window while dedicated writers drain in the
background; see DESIGN.md §5 and EXPERIMENTS.md for the discrepancy note.)
"""

from _common import PAPER_SCALE, SIZES, bench_record, print_series

from repro.experiments import (
    APPROACHES,
    APPROACH_LABELS,
    TCOMP_PER_STEP,
    fig7_checkpoint_ratio,
    get_runs,
)


def test_fig7_checkpoint_ratio(benchmark):
    get_runs([(key, n) for key in APPROACHES for n in SIZES])
    out = benchmark.pedantic(
        lambda: fig7_checkpoint_ratio(sizes=SIZES), rounds=1, iterations=1
    )
    rows = [
        [APPROACH_LABELS[key]] + [f"{out[key][n]:.3g}" for n in SIZES]
        for key in out
    ]
    print_series(
        f"Fig 7: T(checkpoint)/T(computation)  [Tcomp={TCOMP_PER_STEP}s/step]",
        ["approach"] + [f"np={n}" for n in SIZES], rows,
    )
    bench_record("fig7_ckpt_ratio", ratio={
        key: {str(n): out[key][n] for n in SIZES} for key in out
    }, t_comp=TCOMP_PER_STEP)

    for n in SIZES:
        assert out["rbio_ng"][n] < out["coio_64"][n]
    if PAPER_SCALE:
        for n in SIZES:
            assert out["coio_64"][n] < out["1pfpp"][n]
        n16, _n32, n64 = SIZES
        # Ratio_1pfpp above 1000 (paper: "generally above 1000").
        assert out["1pfpp"][n16] > 1000
        # Ratio_rbio under 20 and flat across the sweep.
        assert out["rbio_ng"][n64] < 20
        assert out["rbio_ng"][n64] < 3 * max(out["rbio_ng"][n16], 1e-9)
