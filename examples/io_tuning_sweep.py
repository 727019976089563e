#!/usr/bin/env python
"""I/O parameter tuning study: finding the sweet spots (paper Figs. 5 & 8).

The paper's practical guidance is that checkpoint performance on a given
machine depends on two tunables — the number of output files nf and the
worker:writer ratio np:ng — and that both have machine-specific optima
(nf ~ 1024 on Intrepid's GPFS).  This example sweeps both on a simulated
16,384-processor partition and prints tuning tables like the ones a
performance engineer would build before a production campaign.

Run:  python examples/io_tuning_sweep.py [n_ranks]
"""

import sys

from repro.ckpt import CollectiveIO, ReducedBlockingIO
from repro.experiments import PAPER_SIZES, paper_data, run_checkpoint_steps, scaled_problem


def main() -> None:
    n_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 16384
    data = (paper_data(n_ranks) if n_ranks in PAPER_SIZES
            else scaled_problem(n_ranks).data())
    total_gb = data.total_bytes * n_ranks / 1e9
    print(f"Tuning sweep at np={n_ranks}, S={total_gb:.1f} GB per step\n")

    # --- sweep 1: number of files for rbIO (nf = ng) — Fig. 8 -----------
    print("rbIO: number of files (nf = ng)")
    print(f"{'nf':>8} {'np:ng':>8} {'bandwidth':>12} {'step time':>10}")
    best_nf, best_bw = None, 0.0
    nf = 64
    while nf <= n_ranks // 4:
        wpw = n_ranks // nf
        res = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=wpw), n_ranks, data
        ).result
        bw = res.write_bandwidth / 1e9
        print(f"{nf:>8} {wpw:>6}:1 {bw:>9.2f} GB/s {res.overall_time:>8.2f} s")
        if bw > best_bw:
            best_nf, best_bw = nf, bw
        nf *= 2
    print(f"-> best: nf={best_nf} at {best_bw:.2f} GB/s "
          "(the paper finds ~1024 on Intrepid GPFS)\n")

    # --- sweep 2: coIO group size (np:nf ratio) ---------------------------
    print("coIO: ranks per file (np:nf ratio)")
    print(f"{'ranks/file':>12} {'nf':>8} {'bandwidth':>12} {'step time':>10}")
    for ranks_per_file in (None, 256, 64, 16):
        strategy = CollectiveIO(ranks_per_file=ranks_per_file)
        res = run_checkpoint_steps(strategy, n_ranks, data).result
        nf = 1 if ranks_per_file is None else n_ranks // ranks_per_file
        label = "all (nf=1)" if ranks_per_file is None else str(ranks_per_file)
        print(f"{label:>12} {nf:>8} {res.write_bandwidth/1e9:>9.2f} GB/s "
              f"{res.overall_time:>8.2f} s")
    print("-> nf=1 pays single-file extent allocation; moderate groups win.\n")

    # --- sweep 3: rbIO aggregation ratio at fixed nf behaviour ------------
    print("rbIO: worker:writer ratio (paper compares 64:1, 32:1, 16:1)")
    print(f"{'np:ng':>8} {'writers':>8} {'bandwidth':>12} {'perceived':>12} "
          f"{'blocked':>10}")
    for wpw in (64, 32, 16):
        res = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=wpw), n_ranks, data
        ).result
        print(f"{wpw:>6}:1 {len(res.writer_ranks):>8} "
              f"{res.write_bandwidth/1e9:>9.2f} GB/s "
              f"{res.perceived_bandwidth/1e12:>9.0f} TB/s "
              f"{res.blocking_time*1e6:>7.0f} us")
    print("\nMore writers raise raw bandwidth until the file system's")
    print("concurrency optimum; worker blocking stays microseconds throughout.")


if __name__ == "__main__":
    main()
