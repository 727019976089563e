"""Table I: perceived rbIO write performance (worker-side Isend speed).

Paper rows (np, bandwidth): 16K -> 251 TB/s, 32K -> 442 TB/s,
64K -> 1091 TB/s — the perceived bandwidth doubles with the weak-scaled
data volume because the worker Isend window stays roughly constant
(one ~2.4 MB package buffered at node memory bandwidth).
"""

import pytest
from _common import PAPER_SCALE, SIZES, bench_record, print_series

from repro.experiments import get_runs, table1_perceived


def test_table1_perceived(benchmark):
    get_runs([("rbio_ng", n) for n in SIZES])
    rows = benchmark.pedantic(
        lambda: table1_perceived(sizes=SIZES), rounds=1, iterations=1
    )
    print_series(
        "Table I: perceived write performance (rbIO)",
        ["np", "max Isend time", "time (CPU cycles)", "perceived BW"],
        [[r["np"], f"{r['time_us']:.1f} us", f"{r['time_cycles']:.0f}",
          f"{r['perceived_tbps']:.0f} TB/s"] for r in rows],
    )
    bench_record("table1_perceived_bw", rows={
        str(r["np"]): {"time_us": r["time_us"],
                       "perceived_tbps": r["perceived_tbps"]} for r in rows
    })

    # Perceived time ~constant under weak scaling => TB/s doubles with S.
    times = [r["time_us"] for r in rows]
    assert max(times) < 2 * min(times)
    bws = [r["perceived_tbps"] for r in rows]
    assert bws[1] / bws[0] == pytest.approx(2.0, rel=0.3)
    assert bws[2] / bws[1] == pytest.approx(2.0, rel=0.3)
    if PAPER_SCALE:
        # Hundreds of TB/s, approaching 1 PB/s at 64K (paper: 251/442/1091).
        assert 100 < bws[0] < 500
        assert 500 < bws[2] < 2000
