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
  MPI each RK stage, the application of the checkpoint step loop through
  any :class:`~repro.ckpt.CheckpointStrategy`, with ``restart`` faults.
  Field payloads are real numpy data end-to-end, so a post-restart state
  is bit-exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ckpt import CheckpointData, CheckpointResult, CheckpointStrategy, Field
from ..experiments.runner import run_checkpoint_steps
from ..faults import attach_faults
from ..mpi import Job, RankContext, RunConfig
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

def fields_to_checkpoint_data(solver: MaxwellSolver,
                              state: list[np.ndarray]) -> CheckpointData:
    """Package a solver state as checkpoint fields with real payloads.

    Layout matches the paper's output file: a 4 KiB header, the geometry
    block (nodal coordinates), then the six field components.
    """
    X, Y, Z = solver.coordinates()
    geom = np.stack([X, Y, Z]).tobytes()
    fields = [Field("geometry", len(geom), geom)]
    for name, comp in zip(MaxwellSolver.COMPONENTS, state):
        body = np.ascontiguousarray(comp).tobytes()
        fields.append(Field(name, len(body), body))
    return CheckpointData(fields, header_bytes=4096)


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
    bounds = [r * base + min(r, extra) for r in range(n_ranks + 1)]
    return list(zip(bounds, bounds[1:]))


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
    compute_seconds_per_step: float = 0.0
    restored_at_step: Optional[int] = None

    def global_state(self) -> list[np.ndarray]:
        """Reassemble the global component arrays from the rank slabs."""
        return gather_slab_states(self.states, self.mesh, self.order,
                                  self.n_ranks)


def gather_slab_states(states: dict[int, list[np.ndarray]], mesh: HexMesh,
                       order: int, n_ranks: int) -> list[np.ndarray]:
    """Concatenate per-rank slab fields back into global arrays."""
    out = [np.concatenate([states[r][c] for r in range(n_ranks)], axis=0)
           for c in range(6)]
    # Sanity: total x layers must match.
    assert out[0].shape[0] == mesh.shape[0], (out[0].shape, mesh.shape)
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
    # My low-x minus-faces (layer 0, node index 0) go left, my high-x
    # plus-faces right.
    for dest, i, dest_tag in ((left, 0, tag * 2), (right, -1, tag * 2 + 1)):
        if dest is not None:
            face = np.stack([c[i, :, :, i, :, :] for c in state])
            reqs.append(comm.isend(dest, face.nbytes, tag=dest_tag,
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


@dataclass(eq=False)
class _Slab:
    """One rank's solver — its slab, state and neighbours — as the step
    loop's application (DESIGN.md §6.1) and its checkpoint data."""

    solver: MaxwellSolver
    state: list[np.ndarray]
    left: Optional[int]
    right: Optional[int]
    every: int  # RK steps per checkpoint interval
    n_steps: int
    dt: float
    stage_time: float
    restored: Optional[int] = None  # the solver step restarted from

    def advance(self, ctx: RankContext, step: int):
        """Generator: the RK steps of interval ``step``, those up to
        checkpoint ``step``; the interval after the last checkpoint is the
        run's tail."""
        solver, state, dt = self.solver, self.state, self.dt
        # RK4A[0] = 0: a step's first stage discards the accumulator, so a
        # fresh one per interval is exact.
        res = [np.zeros_like(c) for c in state]
        for n in range(step * self.every,
                       min((step + 1) * self.every, self.n_steps)):
            for stage in range(len(RK4A)):
                # Tagged by RK step and stage: a re-executed step reuses
                # its tags, every earlier exchange having completed.
                solver.set_ghosts((yield from _exchange_ghosts(
                    ctx, state, n * len(RK4A) + stage, self.left, self.right)))
                k = solver.rhs(state, n * dt + RK4C[stage] * dt)
                # Charge the virtual cost of the stage's floating-point work.
                yield ctx.engine.timeout(self.stage_time)
                a, b = RK4A[stage], RK4B[stage]
                for r_acc, s_arr, k_arr in zip(res, state, k):
                    r_acc *= a
                    r_acc += dt * k_arr
                    s_arr += b * r_acc

    def at_step(self, step: int = 0) -> CheckpointData:
        """The current state as checkpoint fields (a copy: the solver goes
        on): the step's checkpoint, and the layout a restore reads."""
        return fields_to_checkpoint_data(self.solver, self.state)

    template = at_step

    def restore(self, step: int, fields: list) -> None:
        """Take checkpoint ``step``'s state after a restart."""
        self.state = checkpoint_data_to_fields(self.solver, fields,
                                               self.template())
        self.restored = (step + 1) * self.every


#: Initial fields: the *global* cavity mode or guided TE10 mode (the
#: waveguide production workload) on the slab's coordinates, or zeros.
_INITS = {"cavity": cavity_fields, "te10": waveguide_te10_fields,
          "zero": lambda _bounds, X, *_: [np.zeros_like(X) for _ in range(6)]}


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
    run_config: Optional[RunConfig] = None,
    config: Optional[MachineConfig] = None,
    seed: Optional[int] = None,
    basedir: str = "/ckpt",
    init: str = "cavity",
) -> ParallelRunResult:
    """Run the slab-decomposed SEDG solver on the simulated machine.

    Each rank owns a contiguous block of x element layers and exchanges
    ghost faces with its neighbours every RK stage.  With a ``strategy``
    the run is :func:`~repro.experiments.run_checkpoint_steps` over one
    checkpoint per ``checkpoint_every`` steps, the solver its application;
    the steps after the last checkpoint run on the same job.  ``run_config``
    configures it as every other run: tracing, and faults — a ``restart``
    at checkpoint ``s`` rolls the solver back to the newest earlier one.
    """
    if checkpoint_every and strategy is None:
        raise ValueError("checkpoint_every requires a strategy")
    if init not in _INITS:
        raise ValueError(f"unknown init {init!r}")
    kinds = {spec.kind for spec in getattr(run_config, "faults", None) or ()}
    if "rank_crash" in kinds:
        raise ValueError("a crashed slab cannot exchange ghost faces: the "
                         "solver takes no rank_crash fault")
    n_ckpts = n_steps // checkpoint_every if checkpoint_every else 0
    if "restart" in kinds and not n_ckpts:
        raise ValueError("a restart fault requires checkpointing")
    config = config if config is not None else intrepid()
    solvers = [MaxwellSolver(_local_mesh(mesh, lo, hi), order, alpha=alpha)
               for lo, hi in _slab_ranges(mesh.shape[0], n_ranks)]
    dt = solvers[0].max_dt() if dt is None else dt
    t_compute = compute_seconds_per_step(max(s.n_dof for s in solvers), config)
    # Neighbours: none past a wall, nor for a lone rank on a periodic axis.
    ring = mesh.boundary[0] == "periodic" and n_ranks > 1
    slabs = [_Slab(solver, _INITS[init](mesh.bounds, *solver.coordinates(), 0.0),
                   (rank - 1) % n_ranks if rank > 0 or ring else None,
                   (rank + 1) % n_ranks if rank < n_ranks - 1 or ring else None,
                   checkpoint_every or n_steps, n_steps, dt,
                   t_compute / len(RK4A))
             for rank, solver in enumerate(solvers)]
    results = []
    if n_ckpts:
        run = run_checkpoint_steps(strategy, n_ranks, slabs.__getitem__,
                                   n_ckpts, config=config, seed=seed,
                                   basedir=basedir, run_config=run_config)
        job, results = run.job, run.results
    else:
        job = Job(n_ranks, config, seed=seed, run_config=run_config)
        attach_storage(job)
        attach_faults(job, job.run_config.faults)
    if n_ckpts * checkpoint_every < n_steps:
        job.spawn(lambda ctx: slabs[ctx.rank].advance(ctx, n_ckpts))
        job.run()
    return ParallelRunResult(
        mesh=mesh, order=order, n_ranks=n_ranks,
        states={r: slab.state for r, slab in enumerate(slabs)},
        t_final=n_steps * dt, dt=dt, n_steps=n_steps,
        checkpoint_results=results, job=job,
        compute_seconds_per_step=t_compute,
        restored_at_step=slabs[0].restored,
    )
