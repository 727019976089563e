#!/usr/bin/env python
"""Waveguide simulation with checkpoint/restart on the simulated machine.

The paper's production workload is a 3-D waveguide simulation in NekCEM
(we substitute a rectangular guide for the cylindrical one; see DESIGN.md).
This example runs the full pipeline end to end:

1. *presetup* — generate the waveguide mesh, write/read the ``.rea`` input
   and the ``genmap`` partition (``.map``), exactly as production runs do;
2. *solver* — the slab-parallel SEDG Maxwell solver on a simulated
   8-rank partition, exchanging ghost faces over simulated MPI;
3. *checkpointing* — coordinated rbIO checkpoints every 4 steps, the
   solver being the checkpoint step loop's application;
4. *failure + restart* — a ``restart`` fault fires before the step-12
   checkpoint: every rank rolls back to the step-8 checkpoint (the restore
   wave's vote), re-executes the lost steps, and the run finishes
   **bit-exactly** equal to an uninterrupted one.

Run:  python examples/waveguide_checkpoint.py
"""

import os
import tempfile

import numpy as np

from repro import RunConfig
from repro.ckpt import ReducedBlockingIO
from repro.faults import FaultSchedule, FaultSpec, faults_of
from repro.nekcem import (
    MaxwellSolver,
    partition_linear,
    read_map,
    read_rea,
    run_parallel_solver,
    waveguide_mesh,
    write_map,
    write_rea,
)
from repro.nekcem.maxwell import waveguide_te10_fields, waveguide_te10_omega
from repro.topology import intrepid


def main() -> None:
    n_ranks = 8
    order = 4
    n_steps = 12

    # --- presetup: input files, global format (Fig. 1 of the paper) -----
    # Rectangular waveguide carrying the TE10 guided mode (the paper's
    # production workload is the cylindrical analogue).
    mesh = waveguide_mesh(cross_elements=2, axial_elements=8,
                          width=1.0, height=0.5, length=4.0, order=order)
    workdir = tempfile.mkdtemp(prefix="nekcem-wg-")
    rea = os.path.join(workdir, "waveguide.rea")
    map_path = os.path.join(workdir, "waveguide.map")
    write_rea(mesh, rea)
    write_map(partition_linear(mesh, n_ranks), n_ranks, map_path)
    mesh = read_rea(rea)
    owners, _ = read_map(map_path)
    print(f"presetup: E={mesh.n_elements} elements, N={order}, "
          f"n={mesh.n_gridpoints(order)} grid points, "
          f"{n_ranks} ranks ({np.bincount(owners).tolist()} elements each)")
    print(f"inputs  : {rea}")

    # --- clean run (reference) --------------------------------------------
    strategy = ReducedBlockingIO(workers_per_writer=4)
    clean = run_parallel_solver(
        n_ranks, mesh, order, n_steps,
        strategy=ReducedBlockingIO(workers_per_writer=4),
        checkpoint_every=4, config=intrepid(), init="te10",
    )
    print(f"\nclean run   : {n_steps} steps, dt={clean.dt:.5f}, "
          f"{len(clean.checkpoint_results)} checkpoints")
    for i, cr in enumerate(clean.checkpoint_results):
        print(f"  checkpoint {i}: {cr.total_bytes/1e6:.1f} MB in "
              f"{cr.overall_time*1e3:.1f} ms (virtual), app blocked "
              f"{cr.blocking_time*1e6:.0f} us")

    # --- restart before the step-12 checkpoint, from step 8 -----------------
    # Checkpoint 2 is the one at step 12: the fault fires before it.
    restart = FaultSchedule((FaultSpec("restart", step=2),))
    crashed = run_parallel_solver(
        n_ranks, mesh, order, n_steps,
        strategy=strategy, checkpoint_every=4,
        run_config=RunConfig(faults=restart), config=intrepid(), init="te10",
    )
    print(f"\nfailure run : {faults_of(crashed.job).report()['by_kind']}, "
          f"restored from the step {crashed.restored_at_step} checkpoint, "
          f"steps {crashed.restored_at_step + 1}-{n_steps} re-executed")

    diffs = [np.abs(a - b).max()
             for a, b in zip(clean.global_state(), crashed.global_state())]
    print(f"max |clean - restarted| over all 6 components: {max(diffs):.3e}")
    assert max(diffs) == 0.0, "restart must be bit-exact"

    # --- physics sanity -------------------------------------------------------
    solver = MaxwellSolver(mesh, order)
    X, Y, Z = solver.coordinates()
    t_final = clean.n_steps * clean.dt
    exact = waveguide_te10_fields(mesh.bounds, X, Y, Z, t_final)
    err = solver.l2_error(clean.global_state(), exact)
    omega = waveguide_te10_omega(1.0, 4.0)
    print(f"TE10 mode (omega={omega:.3f}): L2 error vs exact after "
          f"{n_steps} steps: {err:.3e}")
    print("\nOK: checkpoint/restart round-trip is bit-exact.")


if __name__ == "__main__":
    main()
