"""Equations 2-7: blocked-processor-time speedup of rbIO over coIO.

The paper derives Speedup ~ (np/ng) * BW_rbIO / BW_coIO for lambda -> 0
(Eq. 7) and argues even the worst case (BW_rbIO = BW_coIO/2) keeps ~30x.
This bench evaluates the model from measured bandwidths and cross-checks
it against blocked processor-seconds measured directly in the simulator.
"""

from _common import PAPER_SCALE, bench_np, bench_record, print_series

from repro.experiments import eq2_7_speedup, get_runs

NP = bench_np(65536, 4096)


def test_eq2_7_speedup_model(benchmark):
    get_runs([("coio_64", NP), ("rbio_ng", NP)])
    out = benchmark.pedantic(
        lambda: eq2_7_speedup(n_ranks=NP), rounds=1, iterations=1
    )
    print_series(
        f"Eqs 2-7: rbIO-over-coIO blocked-time speedup, np={NP}",
        ["quantity", "value"],
        [
            ["np / ng", f"{out['np']} / {out['ng']}"],
            ["BW_coIO", f"{out['bw_coio_gbps']:.2f} GB/s"],
            ["BW_rbIO", f"{out['bw_rbio_gbps']:.2f} GB/s"],
            ["BW_perceived", f"{out['bw_perceived_tbps']:.0f} TB/s"],
            ["T_coIO model / measured",
             f"{out['t_coio_model']:.3e} / {out['t_coio_measured']:.3e} proc-s"],
            ["T_rbIO model / measured",
             f"{out['t_rbio_model']:.3e} / {out['t_rbio_measured']:.3e} proc-s"],
            ["speedup Eq.5 (exact)", f"{out['speedup_eq5']:.1f}x"],
            ["speedup Eq.6 (approx)", f"{out['speedup_eq6']:.1f}x"],
            ["speedup Eq.7 (limit)", f"{out['speedup_eq7']:.1f}x"],
            ["speedup measured (sim)", f"{out['speedup_measured']:.1f}x"],
        ],
    )
    bench_record("eq2_7_speedup_model", n_ranks=NP,
                 speedup_eq5=out["speedup_eq5"],
                 speedup_eq7=out["speedup_eq7"],
                 speedup_measured=out["speedup_measured"])

    # Eq. 7 approximates Eq. 5 well at lambda = 0.
    assert abs(out["speedup_eq7"] - out["speedup_eq5"]) / out["speedup_eq5"] < 0.35
    # Model agrees with direct simulator measurement within ~2x.
    ratio = out["speedup_measured"] / out["speedup_eq5"]
    assert 0.4 < ratio < 2.5
    if PAPER_SCALE:
        # Far beyond the paper's conservative 30x floor.
        assert out["speedup_measured"] > 30
        assert out["speedup_eq7"] > 30
