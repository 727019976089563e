"""Figure 8: rbIO (nf = ng) bandwidth as a function of the number of files.

The paper: performance peaks near nf = 1024 concurrently written files on
Intrepid's GPFS at 16K, 32K, and 64K processors — too few files can't
drive the backend, too many thrash it (and flood the step directory).
"""

from _common import FIG8_FILES, PAPER_SCALE, SIZES, bench_record, print_series

from repro.campaign import CampaignSpec, expand
from repro.experiments import fig8_file_sweep, get_runs

#: One campaign over every (nf, np) sweep point; infeasible combinations
#: (fewer than two ranks per writer group) are skipped by the expansion,
#: mirroring the guard fig8_file_sweep itself applies.
CAMPAIGN = CampaignSpec.from_dict({"name": "fig8_nfiles_sweep", "grid": {
    "approaches": [f"rbio_nf{nf}" for nf in FIG8_FILES], "np": list(SIZES)}})


def test_fig8_file_sweep(benchmark):
    get_runs([(p.approach, p.n_ranks) for p in expand(CAMPAIGN).points])
    out = benchmark.pedantic(
        lambda: fig8_file_sweep(sizes=SIZES, n_files=FIG8_FILES),
        rounds=1, iterations=1,
    )
    rows = []
    for n in SIZES:
        rows.append([f"np={n}"] + [
            f"{out[n][nf]:.2f}" if nf in out[n] else "-" for nf in FIG8_FILES
        ])
    print_series("Fig 8: rbIO (nf=ng) bandwidth (GB/s) vs number of files",
                  ["series"] + [f"nf={nf}" for nf in FIG8_FILES], rows)
    bench_record("fig8_nfiles_sweep", gbps={
        str(n): {str(nf): bw for nf, bw in out[n].items()} for n in SIZES
    })

    if PAPER_SCALE:
        for n in SIZES:
            present = {nf: bw for nf, bw in out[n].items()}
            best = max(present, key=present.get)
            # The optimum sits at 1024 files at every scale.
            assert best == 1024, (n, present)
            # And the curve falls away on both sides.
            if 256 in present:
                assert present[256] < present[1024]
            if 4096 in present:
                assert present[4096] < present[1024]
