"""Supplementary: restart-read performance of the checkpoint layouts.

The paper motivates application-level checkpoints as restart *and*
postprocessing inputs.  This bench measures the coordinated restart path
(every rank reading its blocks back) for the three layouts.  Restart is
read-dominated — no allocation or lock-token costs — so even the nf=1
single-file layout restores far faster than it wrote.
"""

from _common import PAPER_SCALE, bench_np, bench_record, print_series

from repro.ckpt import CollectiveIO, OneFilePerProcess, ReducedBlockingIO
from repro.experiments import paper_data, run_checkpoint_steps, scaled_problem

NP = bench_np(16384, 2048)


def test_restart_read(benchmark):
    data = paper_data(NP) if PAPER_SCALE else scaled_problem(NP).data()

    def run():
        out = {}
        for label, strategy in [
            ("1PFPP", OneFilePerProcess()),
            ("coIO 64:1", CollectiveIO(ranks_per_file=64)),
            ("rbIO nf=ng", ReducedBlockingIO(workers_per_writer=64)),
        ]:
            out[label] = run = run_checkpoint_steps(strategy, NP, data)
            run.restore()
            run.job.close()
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, r in out.items():
        rows.append([
            label,
            f"{r.result.overall_time:.2f} s",
            f"{r.restore_seconds:.2f} s",
            f"{NP * data.total_bytes / r.restore_seconds / 1e9:.2f} GB/s",
        ])
    print_series(
        f"Restart read, np={NP}",
        ["layout", "checkpoint (write)", "restart (read)", "read bandwidth"],
        rows,
    )

    bench_record("restart_read", n_ranks=NP, restore_s={
        label: r.restore_seconds for label, r in out.items()
    })
    for label, r in out.items():
        assert r.restore_seconds > 0
        assert max(b - a for a, b in r.restore_windows.values()) \
            <= r.restore_seconds * 1.01
    if PAPER_SCALE:
        # Restart avoids the write-side pathologies: far faster than the
        # 1PFPP write path once the metadata storm exists.
        assert out["1PFPP"].restore_seconds < out["1PFPP"].result.overall_time / 3
