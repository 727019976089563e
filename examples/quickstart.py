#!/usr/bin/env python
"""Quickstart: compare the paper's three checkpointing approaches.

Runs one coordinated checkpoint step for 1PFPP, coIO, and rbIO on a
simulated 16,384-processor Blue Gene/P partition with the paper's 39 GB
NekCEM checkpoint, restarts from it, and prints the Fig. 5-style
comparison with each layout's restart time plus rbIO's perceived
(worker-side) bandwidth.

Run:  python examples/quickstart.py [n_ranks]

This is a simulation in virtual time: the 16K-rank experiment itself takes
well under a minute of wall clock.
"""

import sys

from repro.ckpt import CollectiveIO, OneFilePerProcess, ReducedBlockingIO
from repro.experiments import paper_data, PAPER_SIZES, run_checkpoint_steps, scaled_problem


def main() -> None:
    n_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 16384
    if n_ranks in PAPER_SIZES:
        data = paper_data(n_ranks)
    else:
        data = scaled_problem(n_ranks).data()
    total_gb = data.total_bytes * n_ranks / 1e9
    print(f"Checkpointing {total_gb:.1f} GB from {n_ranks} ranks "
          f"({data.total_bytes / 1e6:.2f} MB per rank, "
          f"{data.n_fields} fields)\n")

    approaches = [
        ("1PFPP (1 POSIX file per processor)", OneFilePerProcess()),
        ("coIO  (MPI-IO collective, np:nf=64:1)", CollectiveIO(ranks_per_file=64)),
        ("rbIO  (reduced-blocking, np:ng=64:1, nf=ng)",
         ReducedBlockingIO(workers_per_writer=64)),
    ]
    print(f"{'approach':<46} {'bandwidth':>12} {'step time':>10} {'app blocked':>12}"
          f" {'restart':>9}")
    print("-" * 94)
    rbio_result = None
    for label, strategy in approaches:
        run = run_checkpoint_steps(strategy, n_ranks, data)
        run.restore()  # every rank reads its state back, on the same job
        res = run.result
        print(f"{label:<46} {res.write_bandwidth/1e9:>9.2f} GB/s "
              f"{res.overall_time:>8.1f} s {res.blocking_time:>10.4f} s "
              f"{run.restore_seconds:>7.2f} s")
        if strategy.name == "rbio":
            rbio_result = res

    print()
    print("rbIO perceived (worker-side Isend) performance:")
    print(f"  max Isend window : {rbio_result.perceived_time*1e6:.0f} us")
    print(f"  perceived BW     : {rbio_result.perceived_bandwidth/1e12:.0f} TB/s")
    print()
    print("The application blocks for microseconds under rbIO while the")
    print("dedicated writers commit in the background -- the paper's")
    print("reduced-blocking contribution.")


if __name__ == "__main__":
    main()
