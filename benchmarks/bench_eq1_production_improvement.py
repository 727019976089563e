"""Equation 1: end-to-end production improvement of rbIO over 1PFPP.

Paper: with checkpoint frequency nc = 20, Ratio_1PFPP generally above 1000
and Ratio_rbIO under 20 give ~25x production-time improvement for NekCEM.

Two readings of rbIO's checkpoint cost are reported: the *commit* time (the
slowest-processor wall clock of Fig. 6 — the paper-comparable number) and
the application-*blocking* time (microsecond worker Isends — the effective
cost once writer drain overlaps computation).
"""

from _common import PAPER_SCALE, SMOKE, bench_np, bench_record, print_series

from repro.experiments import eq1_production_improvement, get_runs

NP = bench_np(16384, 4096)


def test_eq1_production_improvement(benchmark):
    get_runs([("1pfpp", NP), ("rbio_ng", NP)])
    out = benchmark.pedantic(
        lambda: eq1_production_improvement(n_ranks=NP, nc=20),
        rounds=1, iterations=1,
    )
    print_series(
        f"Eq 1: production improvement, np={NP}, nc=20",
        ["quantity", "value"],
        [
            ["Ratio 1PFPP (Tc/Tcomp)", f"{out['ratio_1pfpp']:.0f}"],
            ["Ratio rbIO, commit time", f"{out['ratio_rbio_commit']:.1f}"],
            ["Ratio rbIO, app blocking", f"{out['ratio_rbio_blocking']:.4f}"],
            ["improvement (commit)", f"{out['improvement_commit']:.1f}x  (paper: ~25x)"],
            ["improvement (blocking)", f"{out['improvement_blocking']:.1f}x"],
        ],
    )
    bench_record("eq1_production_improvement", n_ranks=NP,
                 ratio_1pfpp=out["ratio_1pfpp"],
                 ratio_rbio_commit=out["ratio_rbio_commit"],
                 improvement_commit=out["improvement_commit"],
                 improvement_blocking=out["improvement_blocking"])

    if not SMOKE:
        # The 1PFPP metadata/file-count pathology needs real scale; at
        # the smoke tier's few hundred files the ratios cross over.
        assert out["ratio_1pfpp"] > out["ratio_rbio_commit"]
    assert out["improvement_blocking"] >= out["improvement_commit"]
    if PAPER_SCALE:
        # The paper's §V-B numbers: Ratio_1PFPP above 1000, Ratio_rbIO
        # under 20, improvement ~25x at nc=20.
        assert out["ratio_1pfpp"] > 1000
        assert out["ratio_rbio_commit"] < 20
        assert 15 < out["improvement_commit"] < 60
