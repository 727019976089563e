"""Figure 12: Darshan-style write-activity analysis, rbIO vs coIO at 32K.

The paper compares the write activity of rbIO (nf = ng) and coIO 64:1 from
Darshan logs: comparable aggregate performance, but coIO's write windows
are less synchronized (lock contention on the shared files) while rbIO's
writers form one tight band.
"""

import numpy as np
from _common import FIG12_NP, PAPER_SCALE, bench_record, print_series

from repro.experiments import fig12_write_activity


def test_fig12_write_activity(benchmark):
    out = benchmark.pedantic(
        lambda: fig12_write_activity(n_ranks=FIG12_NP), rounds=1, iterations=1
    )
    rows = []
    for key, label in (("rbio_ng", "rbIO nf=ng"), ("coio_64", "coIO 64:1")):
        counts = out[key]["active_writers"]
        starts = out[key]["bin_starts"]
        active_bins = counts > 0
        span = float(starts[active_bins][-1] - starts[active_bins][0]) if active_bins.any() else 0.0
        rows.append([
            label,
            out[key]["n_write_ops"],
            f"{counts.max()}",
            f"{span:.1f} s",
        ])
    print_series(
        f"Fig 12: write activity, np={FIG12_NP}",
        ["approach", "write ops", "peak active write ops/bin", "activity span"],
        rows,
    )

    rb = out["rbio_ng"]["active_writers"]
    co = out["coio_64"]["active_writers"]
    bench_record("fig12_darshan_activity", n_ranks=FIG12_NP,
                 rbio_peak_active=int(rb.max()), coio_peak_active=int(co.max()),
                 rbio_write_ops=out["rbio_ng"]["n_write_ops"],
                 coio_write_ops=out["coio_64"]["n_write_ops"])
    assert rb.max() >= 1 and co.max() >= 1
    if PAPER_SCALE:
        # rbIO: one tight band of ng=512 writers at 32K.
        assert rb.max() > 256
        # coIO 64:1 runs 2 aggregators per file at 32:1 ROMIO default:
        # about twice the file-system access concurrency of rbIO — the
        # paper's "concurrency is only 50% of the coIO case".
        assert co.max() > 1.5 * rb.max()


def test_fig12_activity_parity_from_span_store(benchmark):
    """The span tracer regenerates Fig. 12 row-identically to Darshan.

    Same run, two views of one record: the DarshanProfiler op log (the
    figure path) and the trace plane's ``fs:write`` spans read off it.
    Both must rasterise to the exact same activity arrays.  Runs at a
    fixed tiny np on every scale tier; the figure itself covers the
    paper scale.
    """
    from repro import RunConfig
    from repro.experiments.figures import problem_for, strategy_for
    from repro.experiments.runner import run_checkpoint_steps
    from repro.sim import IntervalRecorder

    n = 128
    for key in ("rbio_ng", "coio_64"):
        run = run_checkpoint_steps(strategy_for(key, n), n,
                                   problem_for(n).data(), 1,
                                   run_config=RunConfig(trace="full"))
        tr = run.job.tracer
        legacy = run.profiler.write_intervals()
        rebuilt = IntervalRecorder()
        rebuilt.intervals = [(s.start, s.end, s.rank) for s in tr.spans
                             if (s.cat, s.name) == ("fs", "write")]
        assert rebuilt.intervals == legacy.intervals, key
        l_starts, l_counts = legacy.activity(0.25)
        s_starts, s_counts = rebuilt.activity(0.25)
        assert np.array_equal(s_starts, l_starts), key
        assert np.array_equal(s_counts, l_counts), key
        assert tr.phase_totals()["fs:write"]["count"] == len(legacy)
