#!/usr/bin/env python
"""Production planning: checkpoint frequency and end-to-end cost (Eq. 1).

Given measured checkpoint costs on the simulated Intrepid, this example
answers the questions a production campaign asks:

- how much production time does each I/O approach cost over a long run
  (the paper's Eq. 1, ~25x improvement for rbIO over 1PFPP at nc = 20)?
- how should the checkpoint interval be chosen against a failure rate
  (Young's optimal interval — an extension beyond the paper)?

Run:  python examples/production_planning.py
"""

from repro.ckpt import (
    CheckpointSchedule,
    CollectiveIO,
    OneFilePerProcess,
    ReducedBlockingIO,
    production_improvement,
)
from repro.experiments import TCOMP_PER_STEP, paper_data, run_checkpoint_steps

N_RANKS = 16384
N_STEPS = 10_000  # a production campaign's step count
NC = 20           # paper's checkpoint frequency example


def main() -> None:
    data = paper_data(N_RANKS)
    print(f"np={N_RANKS}, Tcomp={TCOMP_PER_STEP}s/step, "
          f"campaign={N_STEPS} steps, checkpoint every {NC} steps\n")

    blocked = {}
    for label, strategy in [
        ("1PFPP", OneFilePerProcess()),
        ("coIO 64:1", CollectiveIO(ranks_per_file=64)),
        ("rbIO nf=ng", ReducedBlockingIO(workers_per_writer=64)),
    ]:
        res = run_checkpoint_steps(strategy, N_RANKS, data).result
        blocked[label] = res.blocking_time

    print(f"{'approach':<12} {'Tc (blocked)':>14} {'ratio Tc/Tcomp':>16} "
          f"{'campaign time':>16} {'ckpt overhead':>14}")
    print("-" * 78)
    for label, tc in blocked.items():
        sched = CheckpointSchedule(NC, TCOMP_PER_STEP, tc)
        total = sched.production_time(N_STEPS)
        print(f"{label:<12} {tc:>12.4f} s {sched.ratio:>16.2f} "
              f"{total/3600:>13.2f} h {sched.overhead_fraction*100:>12.2f} %")

    print()
    imp_rbio = production_improvement(
        blocked["1PFPP"], blocked["rbIO nf=ng"], TCOMP_PER_STEP, NC
    )
    imp_coio = production_improvement(
        blocked["1PFPP"], blocked["coIO 64:1"], TCOMP_PER_STEP, NC
    )
    print(f"Eq. 1 production improvement over 1PFPP at nc={NC}:")
    print(f"  coIO 64:1 : {imp_coio:5.1f}x")
    print(f"  rbIO nf=ng: {imp_rbio:5.1f}x   (paper: ~25x)")

    # --- Young's interval (extension) -------------------------------------
    print("\nYoung-optimal checkpoint interval vs system MTBF (rbIO cost):")
    tc = blocked["rbIO nf=ng"]
    # rbIO blocks the app for microseconds, but the *writers* must finish
    # before data is durable; size the interval with the writer commit time.
    tc_durable = 12.0  # ~writer commit seconds at this scale
    print(f"{'MTBF':>10} {'interval':>12} {'nc (steps)':>12}")
    for mtbf_h in (24, 12, 4, 1):
        sched = CheckpointSchedule.young(tc_durable, TCOMP_PER_STEP,
                                         mtbf_h * 3600.0)
        print(f"{mtbf_h:>8} h {sched.nc * TCOMP_PER_STEP:>10.0f} s "
              f"{sched.nc:>12}")
    print("\nShorter MTBF -> checkpoint more often; rbIO makes that cheap.")


if __name__ == "__main__":
    main()
