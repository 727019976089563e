"""NekCEM application drivers: presetup, solver, checkpointing.

Mirrors the run-time structure the paper describes (Section III-A): a
*presetup* phase reads the global ``.rea``/``.map`` inputs and distributes
mesh data, the *solver* phase runs SEDG time stepping, and the
*checkpointing* phase dumps the global field data for restart and
visualization.

Two drivers are provided:

- :class:`NekCEMApp` — a serial driver writing real vtk files to the local
  file system (the examples use it);
- :func:`run_parallel_solver` — the full pipeline on the simulated Blue
  Gene/P: slab-decomposed SEDG ranks exchanging ghost faces over simulated
  MPI each RK stage, checkpointing coordinately through any
  :class:`~repro.ckpt.CheckpointStrategy`, with optional failure injection
  and restart.  Field payloads are real numpy data end-to-end, so a
  post-restart state is bit-exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ckpt import CheckpointData, CheckpointResult, CheckpointStrategy, Field
from ..mpi import Job, RankContext
from ..profiling import DarshanProfiler
from ..storage import attach_storage
from ..topology import MachineConfig, intrepid
from .maxwell import (GhostFaces, MaxwellSolver, cavity_fields,
                      waveguide_te10_fields)
from .mesh import HexMesh
from .rk4 import RK4A, RK4B, RK4C
from .vtk import write_vtk

__all__ = [
    "NekCEMApp",
    "SOLVER_FLOPS_PER_POINT_STEP",
    "compute_seconds_per_step",
    "fields_to_checkpoint_data",
    "checkpoint_data_to_fields",
    "run_parallel_solver",
    "ParallelRunResult",
    "gather_slab_states",
]

#: Effective floating-point work per grid point per time step (all five RK
#: stages, all six components, flux and curl terms).  Calibrated so the
#: paper's weak-scaling point (~16.8K points/rank on 850 MHz cores) costs
#: ~0.26 s per step, consistent with the reported 0.13 s at n/P = 8,530.
SOLVER_FLOPS_PER_POINT_STEP = 13400.0


def compute_seconds_per_step(points_per_rank: int, config: MachineConfig) -> float:
    """Virtual computation time per SEDG step on one BG/P core."""
    return points_per_rank * SOLVER_FLOPS_PER_POINT_STEP / config.cpu_hz


# ---------------------------------------------------------------------------
# Field <-> checkpoint conversion
# ---------------------------------------------------------------------------

def fields_to_checkpoint_data(solver: MaxwellSolver, state: list[np.ndarray],
                              header_bytes: int = 4096,
                              include_geometry: bool = True) -> CheckpointData:
    """Package a solver state as checkpoint fields with real payloads.

    Layout matches the paper's output file: an optional geometry block
    (nodal coordinates) followed by the six field components.
    """
    fields = []
    if include_geometry:
        X, Y, Z = solver.coordinates()
        geom = np.stack([X, Y, Z]).tobytes()
        fields.append(Field("geometry", len(geom), geom))
    for name, comp in zip(MaxwellSolver.COMPONENTS, state):
        body = np.ascontiguousarray(comp).tobytes()
        fields.append(Field(name, len(body), body))
    return CheckpointData(fields, header_bytes=header_bytes)


def checkpoint_data_to_fields(solver: MaxwellSolver,
                              payloads: list,
                              template: CheckpointData) -> list[np.ndarray]:
    """Rebuild the six solver component arrays from restored payloads.

    Restored payloads arrive as zero-copy ropes over the PFS extents; this
    is the reader boundary where they materialize into contiguous memory
    for ``np.frombuffer`` (see :func:`repro.buffers.as_bytes`).
    """
    from ..buffers import as_bytes

    shape = (*solver.mesh.shape, solver.p, solver.p, solver.p)
    by_name = {f.name: p for f, p in zip(template.fields, payloads)}
    out = []
    for name in MaxwellSolver.COMPONENTS:
        buf = as_bytes(by_name[name])
        out.append(np.frombuffer(buf, dtype=np.float64).reshape(shape).copy())
    return out


# ---------------------------------------------------------------------------
# Serial driver
# ---------------------------------------------------------------------------

class NekCEMApp:
    """Serial NekCEM driver writing real vtk checkpoints to local disk."""

    def __init__(self, mesh: HexMesh, order: int, alpha: float = 1.0,
                 init: Optional[Callable] = None) -> None:
        self.mesh = mesh
        self.order = order
        self.solver = MaxwellSolver(mesh, order, alpha=alpha)
        self._init = init

    def initial_state(self) -> list[np.ndarray]:
        """Initial fields: custom initializer or the TM110 cavity mode."""
        if self._init is not None:
            X, Y, Z = self.solver.coordinates()
            return self._init(X, Y, Z, 0.0)
        return self.solver.cavity_mode(0.0)

    def checkpoint_path(self, outdir: str, step: int) -> str:
        """vtk dump path for one step."""
        return os.path.join(outdir, f"nekcem{step:06d}.vtk")

    def write_checkpoint(self, state: list[np.ndarray], path: str,
                         binary: bool = True) -> None:
        """Dump the state as a vtk legacy file (header, grid, field blocks)."""
        X, Y, Z = self.solver.coordinates()
        p3 = self.solver.p**3
        pts = np.column_stack([
            c.reshape(self.mesh.n_elements, p3).ravel() for c in (X, Y, Z)
        ]).reshape(-1, 3)
        fields = {
            name: comp.reshape(self.mesh.n_elements, p3).ravel()
            for name, comp in zip(MaxwellSolver.COMPONENTS, state)
        }
        write_vtk(path, pts, self.order, fields, binary=binary)

    def run(self, n_steps: int, dt: Optional[float] = None,
            checkpoint_every: int = 0, outdir: Optional[str] = None,
            binary: bool = True) -> dict:
        """Presetup + solve + checkpoint; returns a run summary."""
        solver = self.solver
        dt = solver.max_dt() if dt is None else dt
        state = self.initial_state()
        written: list[str] = []
        if outdir:
            os.makedirs(outdir, exist_ok=True)

        def callback(st, t, step):
            if checkpoint_every and outdir and step % checkpoint_every == 0:
                path = self.checkpoint_path(outdir, step)
                self.write_checkpoint(st, path, binary=binary)
                written.append(path)

        state, t = solver.run(state, 0.0, dt, n_steps, callback)
        return {
            "state": state,
            "t_final": t,
            "dt": dt,
            "energy": solver.energy(state),
            "checkpoints": written,
            "gridpoints": solver.n_dof,
        }


# ---------------------------------------------------------------------------
# Parallel (simulated-machine) driver
# ---------------------------------------------------------------------------

def _slab_ranges(nex: int, n_ranks: int) -> list[tuple[int, int]]:
    """Contiguous x-layer ranges per rank (balanced to within one layer)."""
    if n_ranks > nex:
        raise ValueError(f"more ranks ({n_ranks}) than x element layers ({nex})")
    base, extra = divmod(nex, n_ranks)
    out = []
    pos = 0
    for r in range(n_ranks):
        count = base + (1 if r < extra else 0)
        out.append((pos, pos + count))
        pos += count
    return out


def _local_mesh(mesh: HexMesh, lo: int, hi: int) -> HexMesh:
    """The slab sub-mesh of x layers [lo, hi)."""
    hx = mesh.element_sizes[0]
    (x0, _x1), by, bz = mesh.bounds
    return HexMesh(
        (hi - lo, mesh.shape[1], mesh.shape[2]),
        ((x0 + lo * hx, x0 + hi * hx), by, bz),
        mesh.boundary,
        dict(mesh.params or {}),
    )


@dataclass
class ParallelRunResult:
    """Outcome of a parallel NekCEM run on the simulated machine."""

    mesh: HexMesh
    order: int
    n_ranks: int
    states: dict[int, list[np.ndarray]]
    t_final: float
    dt: float
    n_steps: int
    checkpoint_results: list[CheckpointResult] = field(default_factory=list)
    job: Optional[Job] = None
    profiler: Optional[DarshanProfiler] = None
    compute_seconds_per_step: float = 0.0
    restored_at_step: Optional[int] = None

    def global_state(self) -> list[np.ndarray]:
        """Reassemble the global component arrays from the rank slabs."""
        return gather_slab_states(self.states, self.mesh, self.order,
                                  self.n_ranks)


def gather_slab_states(states: dict[int, list[np.ndarray]], mesh: HexMesh,
                       order: int, n_ranks: int) -> list[np.ndarray]:
    """Concatenate per-rank slab fields back into global arrays."""
    ranges = _slab_ranges(mesh.shape[0], n_ranks)
    out = []
    for c in range(6):
        out.append(np.concatenate([states[r][c] for r in range(n_ranks)], axis=0))
    # Sanity: total x layers must match.
    assert out[0].shape[0] == mesh.shape[0], (out[0].shape, mesh.shape, ranges)
    return out


def _exchange_ghosts(ctx: RankContext, state: list[np.ndarray], tag: int,
                     left: Optional[int], right: Optional[int]):
    """Generator: swap x-face data with slab neighbours.

    Sends my boundary-layer face values and returns a
    :class:`~repro.nekcem.maxwell.GhostFaces` with the neighbours' data.
    All six components travel in one message per direction, matching the
    paper's description of NekCEM's single-array face exchange.
    """
    comm = ctx.comm
    reqs = []
    if left is not None:
        # My low-x minus-faces (layer 0, node index 0).
        face = np.ascontiguousarray(
            np.stack([c[0, :, :, 0, :, :] for c in state])
        )
        reqs.append(comm.isend(left, face.nbytes, tag=tag * 2,
                               payload=face, buffered=True))
    if right is not None:
        face = np.ascontiguousarray(
            np.stack([c[-1, :, :, -1, :, :] for c in state])
        )
        reqs.append(comm.isend(right, face.nbytes, tag=tag * 2 + 1,
                               payload=face, buffered=True))
    lo = hi = None
    if left is not None:
        msg = yield from comm.recv(source=left, tag=tag * 2 + 1)
        lo = msg.payload
    if right is not None:
        msg = yield from comm.recv(source=right, tag=tag * 2)
        hi = msg.payload
    if reqs:
        yield from comm.waitall(reqs)
    return GhostFaces(lo, hi)


def run_parallel_solver(
    n_ranks: int,
    mesh: HexMesh,
    order: int,
    n_steps: int,
    *,
    alpha: float = 1.0,
    dt: Optional[float] = None,
    strategy: Optional[CheckpointStrategy] = None,
    checkpoint_every: int = 0,
    simulate_failure_at: Optional[int] = None,
    config: Optional[MachineConfig] = None,
    seed: Optional[int] = None,
    basedir: str = "/ckpt",
    init: str = "cavity",
) -> ParallelRunResult:
    """Run the slab-decomposed SEDG solver on the simulated machine.

    Each rank owns a contiguous block of x element layers, exchanges ghost
    faces with its neighbours every RK stage, and (optionally) checkpoints
    every ``checkpoint_every`` steps through ``strategy``.  With
    ``simulate_failure_at = k`` the in-memory state is destroyed right
    after step ``k`` and restored from the most recent checkpoint — the
    restart path the checkpoints exist for.
    """
    if checkpoint_every and strategy is None:
        raise ValueError("checkpoint_every requires a strategy")
    if simulate_failure_at is not None:
        if not checkpoint_every:
            raise ValueError("failure injection requires checkpointing")
        if simulate_failure_at < checkpoint_every:
            raise ValueError("failure before the first checkpoint loses work")
    config = config if config is not None else intrepid()
    ranges = _slab_ranges(mesh.shape[0], n_ranks)
    periodic_x = mesh.boundary[0] == "periodic"
    probe = MaxwellSolver(_local_mesh(mesh, *ranges[0]), order, alpha=alpha)
    dt = probe.max_dt() if dt is None else dt
    points_per_rank = max(
        MaxwellSolver(_local_mesh(mesh, lo, hi), order, alpha).n_dof
        for lo, hi in ranges
    )
    t_compute = compute_seconds_per_step(points_per_rank, config)

    job = Job(n_ranks, config, seed=seed)
    attach_storage(job)
    restored_at: dict[int, Optional[int]] = {}

    def rank_main(ctx: RankContext):
        rank = ctx.rank
        lo, hi = ranges[rank]
        solver = MaxwellSolver(_local_mesh(mesh, lo, hi), order, alpha=alpha)
        if init == "cavity":
            # Initialize from the *global* cavity mode evaluated on the
            # local slab's coordinates.
            state = cavity_fields(mesh.bounds, *solver.coordinates(), 0.0)
        elif init == "te10":
            # The guided TE10 mode (the waveguide production workload).
            state = waveguide_te10_fields(mesh.bounds, *solver.coordinates(), 0.0)
        elif init == "zero":
            state = solver.zero_fields()
        else:
            raise ValueError(f"unknown init {init!r}")
        if n_ranks > 1:
            left = rank - 1 if rank > 0 or periodic_x else None
            right = rank + 1 if rank < n_ranks - 1 or periodic_x else None
            if left is not None:
                left %= n_ranks
            if right is not None:
                right %= n_ranks
        else:
            left = right = None
        res = [np.zeros_like(c) for c in state]
        tag_counter = 0
        ckpt_results = []
        last_ckpt_step = None
        last_template = None
        restored_at[rank] = None
        stage_time = t_compute / len(RK4A)

        failure_pending = simulate_failure_at is not None
        step = 1
        while step <= n_steps:
            t = (step - 1) * dt
            for stage in range(len(RK4A)):
                if left is not None or right is not None:
                    ghosts = yield from _exchange_ghosts(
                        ctx, state, tag_counter, left, right
                    )
                    solver.set_ghosts(ghosts)
                    tag_counter += 1
                k = solver.rhs(state, t + RK4C[stage] * dt)
                # Charge the virtual cost of the stage's floating-point work.
                yield ctx.engine.timeout(stage_time)
                a, b = RK4A[stage], RK4B[stage]
                for r_acc, s_arr, k_arr in zip(res, state, k):
                    r_acc *= a
                    r_acc += dt * k_arr
                    s_arr += b * r_acc

            if checkpoint_every and step % checkpoint_every == 0:
                data = fields_to_checkpoint_data(solver, state)
                yield from ctx.comm.barrier()
                report = yield from strategy.checkpoint(ctx, data, step, basedir)
                ckpt_results.append((step, report))
                last_ckpt_step = step
                last_template = data

            if failure_pending and step == simulate_failure_at:
                # Node failure: volatile state is lost; roll back to the
                # most recent checkpoint and re-execute the lost steps
                # (coordinated restart).
                failure_pending = False
                state = None
                yield from ctx.comm.barrier()
                payloads = yield from strategy.restore(
                    ctx, last_template, last_ckpt_step, basedir
                )
                state = checkpoint_data_to_fields(solver, payloads, last_template)
                res = [np.zeros_like(c) for c in state]
                restored_at[rank] = last_ckpt_step
                step = last_ckpt_step + 1
                continue
            step += 1

        return {"state": state, "reports": ckpt_results}

    job.spawn(rank_main)
    per_rank = job.run()
    states = {r: out["state"] for r, out in per_rank.items()}
    # Assemble per-step CheckpointResults across ranks.
    ckpt_results = []
    if checkpoint_every and strategy is not None:
        n_ckpts = len(per_rank[0]["reports"])
        for i in range(n_ckpts):
            reports = {r: out["reports"][i][1] for r, out in per_rank.items()}
            ckpt_results.append(
                CheckpointResult(strategy.name, reports,
                                 params=strategy.describe())
            )
    return ParallelRunResult(
        mesh=mesh,
        order=order,
        n_ranks=n_ranks,
        states=states,
        t_final=n_steps * dt,
        dt=dt,
        n_steps=n_steps,
        checkpoint_results=ckpt_results,
        job=job,
        profiler=job.profiler,
        compute_seconds_per_step=t_compute,
        restored_at_step=restored_at.get(0),
    )
