"""Extension: measuring the paper's lambda (worker blocking fraction).

The speedup model (Eqs. 4-6) contains lambda — the fraction of the
writers' write time that workers remain blocked.  The paper argues that
for NekCEM "the writers can flush their I/O requests roughly in the time
between writes", so lambda ~ 0; this bench *measures* that claim with the
flow-controlled rbIO variant (``max_outstanding=1``): checkpoints are
issued back-to-back with varying computation gaps, and worker blocking is
read off directly.

- gap >= writer commit time: writers drain between checkpoints,
  lambda ~ 0 (the paper's operating point, microsecond blocking);
- gap -> 0: workers wait a full commit per step, lambda -> 1, and the
  Eq. 6 speedup degrades toward 1/(BW_coIO/BW_rbIO) as the model predicts.
"""

from _common import PAPER_SCALE, bench_np, bench_record, print_series

from repro.ckpt import ReducedBlockingIO
from repro.experiments import paper_data, run_checkpoint_steps, scaled_problem
from repro.model import SpeedupModel

NP = bench_np(16384, 2048)


def test_ext_backpressure_lambda(benchmark):
    data = paper_data(NP) if PAPER_SCALE else scaled_problem(NP).data()

    def measure():
        # Writer commit time from an unconstrained single step.
        probe = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=64), NP, data
        ).result
        commit = probe.overall_time
        out = {"commit": commit, "rows": []}
        for gap_factor in (0.0, 0.5, 1.5):
            strategy = ReducedBlockingIO(workers_per_writer=64,
                                         max_outstanding=1)
            run_ = run_checkpoint_steps(
                strategy, NP, data, n_steps=3,
                gap_seconds=gap_factor * commit, barrier_each_step=False,
            )
            blocked = run_.results[-1].blocking_time
            lam = min(blocked / commit, 1.0)
            out["rows"].append((gap_factor, blocked, lam))
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    commit = out["commit"]
    model = SpeedupModel(NP, NP // 64, bw_coio=8e9, bw_rbio=12e9,
                         bw_perceived=500e12)
    rows = []
    for gap_factor, blocked, lam in out["rows"]:
        m = SpeedupModel(NP, NP // 64, bw_coio=8e9, bw_rbio=12e9,
                         bw_perceived=500e12, lam=lam)
        rows.append([
            f"{gap_factor:.1f}x commit",
            f"{blocked:.3f} s",
            f"{lam:.3f}",
            f"{m.speedup_approx():.1f}x",
        ])
    print_series(
        f"Extension: measured lambda vs compute gap, np={NP} "
        f"(writer commit ~{commit:.1f} s)",
        ["gap between ckpts", "worker blocked", "lambda", "Eq.6 speedup"],
        rows,
    )

    bench_record("ext_backpressure", n_ranks=NP, commit_s=commit, lambda_by_gap={
        f"{g:.1f}x": lam for g, _b, lam in out["rows"]
    })
    lams = [lam for _g, _b, lam in out["rows"]]
    # Back-to-back checkpoints saturate the writers (lambda large)...
    assert lams[0] > 0.5
    # ...more compute between checkpoints monotonically frees the workers...
    assert lams[0] >= lams[1] >= lams[2]
    # ...and a gap exceeding the commit time restores lambda ~ 0 — the
    # paper's "writers flush roughly in the time between writes".
    assert lams[2] < 0.05