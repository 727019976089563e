"""SEDG Maxwell solver: the NekCEM computation this paper checkpoints.

Solves the three-dimensional Maxwell curl equations in the time domain,

    dE/dt =  curl H,        dH/dt = -curl E        (vacuum units),

with a spectral-element discontinuous Galerkin discretization on
rectilinear hexahedral meshes: tensor-product Gauss-Lobatto-Legendre
Lagrange bases (diagonal mass matrix), per-element stiffness as tensor
products of the 1-D differentiation matrix, and upwind (or central)
numerical fluxes coupling neighbouring elements only through face values —
the communication structure the paper describes (one exchange per
neighbour per evaluation, all six components batched).

Field storage is ``(nex, ney, nez, p, p, p)`` per component with
``p = order + 1``, vectorized over all elements.  Domain decomposition for
the parallel driver slices the first (x) element axis; :meth:`rhs` accepts
ghost faces for that axis so a rank can compute with neighbour data
received over (simulated) MPI.

Verification: the closed-form TM110 cavity mode (:meth:`cavity_mode`)
drives convergence and energy-conservation tests.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .basis import differentiation_matrix, gll_points_weights
from .mesh import HexMesh
from .rk4 import LSRK4

__all__ = ["MaxwellSolver", "GhostFaces", "cavity_fields", "waveguide_te10_fields",
           "waveguide_te10_omega"]


def waveguide_te10_omega(width: float, length: float, n_periods: int = 1) -> float:
    """Angular frequency of the TE10-like guided mode.

    Dispersion relation ``w^2 = beta^2 + (pi/width)^2`` with propagation
    wavenumber ``beta = 2 pi n / length`` (periodic guide axis).
    """
    if width <= 0 or length <= 0 or n_periods < 1:
        raise ValueError("width/length must be positive, n_periods >= 1")
    beta = 2.0 * math.pi * n_periods / length
    return math.sqrt(beta**2 + (math.pi / width) ** 2)


def waveguide_te10_fields(bounds, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                          t: float, n_periods: int = 1) -> list[np.ndarray]:
    """Exact TE10-like travelling mode of the rectangular waveguide.

    The guide propagates along the (periodic) x axis with PEC side walls;
    with mode wavenumber ``ky = pi / width`` and ``beta = 2 pi n / L``:

        Ez =  sin(ky y) cos(beta x - w t)
        Hx =  (ky/w)  cos(ky y) sin(beta x - w t)
        Hy = -(beta/w) sin(ky y) cos(beta x - w t)

    which satisfies the curl equations with ``w^2 = beta^2 + ky^2`` and the
    PEC conditions on the y and z walls.  This is the guided-wave physics
    of the paper's 3-D waveguide production runs (cylindrical there,
    rectangular here — see DESIGN.md's substitution table).
    """
    (ax0, ax1), (ay0, ay1), _ = bounds
    length = ax1 - ax0
    width = ay1 - ay0
    ky = math.pi / width
    beta = 2.0 * math.pi * n_periods / length
    w = waveguide_te10_omega(width, length, n_periods)
    phase = beta * (X - ax0) - w * t
    sy = np.sin(ky * (Y - ay0))
    cy = np.cos(ky * (Y - ay0))
    zero = np.zeros_like(X)
    Ez = sy * np.cos(phase)
    Hx = (ky / w) * cy * np.sin(phase)
    Hy = -(beta / w) * sy * np.cos(phase)
    return [zero.copy(), zero.copy(), Ez, Hx, Hy, zero.copy()]


def cavity_fields(bounds, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                  t: float) -> list[np.ndarray]:
    """Exact TM110 standing mode of the PEC box ``bounds`` at time ``t``.

    ``bounds`` are the *global* domain bounds — pass the full mesh's bounds
    when evaluating on a rank-local slab, or the initial condition (and its
    frequency) would wrongly be that of the slab.
    """
    (ax0, ax1), (ay0, ay1), _ = bounds
    a = ax1 - ax0
    b = ay1 - ay0
    w = math.pi * math.sqrt(1.0 / a**2 + 1.0 / b**2)
    sx = np.sin(math.pi * (X - ax0) / a)
    cx = np.cos(math.pi * (X - ax0) / a)
    sy = np.sin(math.pi * (Y - ay0) / b)
    cy = np.cos(math.pi * (Y - ay0) / b)
    zero = np.zeros_like(X)
    Ez = sx * sy * math.cos(w * t)
    Hx = -(math.pi / (b * w)) * sx * cy * math.sin(w * t)
    Hy = (math.pi / (a * w)) * cx * sy * math.sin(w * t)
    return [zero.copy(), zero.copy(), Ez, Hx, Hy, zero.copy()]


def _cross_unit(axis: int, sign: int, v: list[np.ndarray]) -> list[np.ndarray]:
    """Cross product (sign * e_axis) x v for axis-aligned unit normals."""
    vx, vy, vz = v
    if axis == 0:
        out = [np.zeros_like(vx), -vz, vy]
    elif axis == 1:
        out = [vz, np.zeros_like(vy), -vx]
    else:
        out = [-vy, vx, np.zeros_like(vz)]
    if sign < 0:
        out = [-c for c in out]
    return out


def _normal_part(axis: int, v: list[np.ndarray]) -> list[np.ndarray]:
    """n (n . v) for n = +-e_axis (sign squared drops out)."""
    out = [np.zeros_like(c) for c in v]
    out[axis] = v[axis]
    return out


class GhostFaces:
    """Neighbour face data for the decomposed x-axis.

    ``lo``/``hi`` are ``(6, ney, nez, p, p)`` arrays holding all six field
    components on the exterior side of this rank's low/high x faces.
    ``None`` means "use the mesh's physical boundary condition".
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[np.ndarray] = None,
                 hi: Optional[np.ndarray] = None) -> None:
        self.lo = lo
        self.hi = hi


class MaxwellSolver:
    """SEDG Maxwell solver on one (possibly rank-local) hex mesh block.

    Parameters
    ----------
    mesh:
        Rectilinear hex mesh (the rank-local block for parallel runs).
    order:
        Polynomial order N (paper uses N=15 in production, smaller in
        tests).
    alpha:
        Flux upwinding parameter: 1 = upwind (dissipative, robust),
        0 = central (energy conserving).
    """

    #: Field component order (matches the checkpoint file layout).
    COMPONENTS = ("Ex", "Ey", "Ez", "Hx", "Hy", "Hz")

    def __init__(self, mesh: HexMesh, order: int, alpha: float = 1.0) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.mesh = mesh
        self.order = order
        self.alpha = alpha
        self.p = order + 1
        self.D = differentiation_matrix(order)
        self.xi, self.w = gll_points_weights(order)
        self.h = mesh.element_sizes
        # Metric factors: d/dx_phys = (2/h) d/dxi; LIFT = 2 / (w_end * h).
        self.scale = tuple(2.0 / h for h in self.h)
        self.lift = tuple(2.0 / (self.w[0] * h) for h in self.h)
        self._integrator = LSRK4(self.rhs)
        self._ghosts: GhostFaces = GhostFaces()

    # ------------------------------------------------------------------
    # Fields and geometry
    # ------------------------------------------------------------------
    def zero_fields(self) -> list[np.ndarray]:
        """Six zero-initialized component arrays [Ex, Ey, Ez, Hx, Hy, Hz]."""
        shape = (*self.mesh.shape, self.p, self.p, self.p)
        return [np.zeros(shape) for _ in range(6)]

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical (X, Y, Z) coordinates of every nodal point."""
        nx, ny, nz = self.mesh.shape
        hx, hy, hz = self.h
        (x0, _), (y0, _), (z0, _) = self.mesh.bounds
        node = (self.xi + 1.0) / 2.0  # [0, 1] within an element
        ex = x0 + (np.arange(nx)[:, None] + node[None, :]) * hx
        ey = y0 + (np.arange(ny)[:, None] + node[None, :]) * hy
        ez = z0 + (np.arange(nz)[:, None] + node[None, :]) * hz
        X = ex[:, None, None, :, None, None]
        Y = ey[None, :, None, None, :, None]
        Z = ez[None, None, :, None, None, :]
        shape = (nx, ny, nz, self.p, self.p, self.p)
        return (
            np.broadcast_to(X, shape).copy(),
            np.broadcast_to(Y, shape).copy(),
            np.broadcast_to(Z, shape).copy(),
        )

    @property
    def n_dof(self) -> int:
        """Degrees of freedom per component."""
        return self.mesh.n_elements * self.p**3

    # ------------------------------------------------------------------
    # Spatial operator
    # ------------------------------------------------------------------
    def _deriv(self, u: np.ndarray, axis: int) -> np.ndarray:
        """Physical derivative of a field along axis (0=x, 1=y, 2=z)."""
        D = self.D
        if axis == 0:
            out = np.einsum("il,abcljk->abcijk", D, u)
        elif axis == 1:
            out = np.einsum("jl,abcilk->abcijk", D, u)
        else:
            out = np.einsum("kl,abcijl->abcijk", D, u)
        return out * self.scale[axis]

    def _curl(self, fx: np.ndarray, fy: np.ndarray, fz: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Curl of a vector field (volume term)."""
        return (
            self._deriv(fz, 1) - self._deriv(fy, 2),
            self._deriv(fx, 2) - self._deriv(fz, 0),
            self._deriv(fy, 0) - self._deriv(fx, 1),
        )

    def set_ghosts(self, ghosts: GhostFaces) -> None:
        """Install neighbour x-face data for the next RHS evaluations."""
        self._ghosts = ghosts

    def _face(self, u: np.ndarray, axis: int, side: int) -> np.ndarray:
        """Interior face values of one component on all elements."""
        idx = 0 if side < 0 else self.p - 1
        if axis == 0:
            return u[:, :, :, idx, :, :]
        if axis == 1:
            return u[:, :, :, :, idx, :]
        return u[:, :, :, :, :, idx]

    def _exterior(self, minus_faces: list[np.ndarray],
                  plus_faces: list[np.ndarray], axis: int, side: int,
                  comp_base: int, ghost: Optional[np.ndarray]
                  ) -> list[np.ndarray]:
        """Exterior (neighbour) values seen across ``(axis, side)`` faces.

        For interior element interfaces this is a roll of the neighbouring
        elements' opposite faces; the boundary layer is then overwritten
        with ghost data (decomposed axis) or left to the caller's
        boundary-condition treatment (physical boundaries handled in
        :meth:`rhs`).
        """
        if side < 0:
            # Exterior of my -axis face = neighbour's +axis face.
            ext = [np.roll(f, 1, axis=axis) for f in plus_faces]
        else:
            ext = [np.roll(f, -1, axis=axis) for f in minus_faces]
        if ghost is not None and axis == 0:
            layer = 0 if side < 0 else -1
            for c in range(3):
                ext[c] = ext[c].copy()
                ext[c][layer, :, :] = ghost[comp_base + c]
        return ext

    def rhs(self, state: list[np.ndarray], t: float = 0.0) -> list[np.ndarray]:
        """Right-hand side dE/dt, dH/dt including flux terms."""
        E = state[0:3]
        H = state[3:6]
        cHx, cHy, cHz = self._curl(*H)
        cEx, cEy, cEz = self._curl(*E)
        out = [cHx, cHy, cHz, -cEx, -cEy, -cEz]

        alpha = self.alpha
        mesh = self.mesh
        for axis in range(3):
            if mesh.shape[axis] == 0:
                continue
            E_minus = [self._face(c, axis, -1) for c in E]
            E_plus = [self._face(c, axis, +1) for c in E]
            H_minus = [self._face(c, axis, -1) for c in H]
            H_plus = [self._face(c, axis, +1) for c in H]
            for side in (-1, +1):
                my_E = E_minus if side < 0 else E_plus
                my_H = H_minus if side < 0 else H_plus
                ghost = None
                if axis == 0:
                    ghost = self._ghosts.lo if side < 0 else self._ghosts.hi
                ext_E = self._exterior(E_minus, E_plus, axis, side, 0, ghost)
                ext_H = self._exterior(H_minus, H_plus, axis, side, 3, ghost)
                # Physical boundary treatment on the outer layer (unless a
                # ghost covered it).
                face = (axis * 2) if side < 0 else (axis * 2 + 1)
                bc = mesh.boundary[face]
                needs_bc = ghost is None and bc != "periodic"
                if needs_bc:
                    layer = 0 if side < 0 else -1
                    sl = [slice(None)] * 3
                    sl[axis] = layer
                    sl = tuple(sl)
                    # PEC: E+ = 2n(n.E-) - E-;  H+ = H- - 2n(n.H-).
                    for c in range(3):
                        ext_E[c] = ext_E[c].copy()
                        ext_H[c] = ext_H[c].copy()
                        if c == axis:
                            ext_E[c][sl] = my_E[c][sl]
                            ext_H[c][sl] = -my_H[c][sl]
                        else:
                            ext_E[c][sl] = -my_E[c][sl]
                            ext_H[c][sl] = my_H[c][sl]
                dE = [m - e for m, e in zip(my_E, ext_E)]
                dH = [m - e for m, e in zip(my_H, ext_H)]
                n_cross_dH = _cross_unit(axis, side, dH)
                n_cross_dE = _cross_unit(axis, side, dE)
                nn_dE = _normal_part(axis, dE)
                nn_dH = _normal_part(axis, dH)
                lift = self.lift[axis]
                idx = 0 if side < 0 else self.p - 1
                for c in range(3):
                    # Upwind fluxes from the Maxwell Riemann problem
                    # (Z = Y = 1), strong-form DG:
                    #   fluxE = n x (H* - H-) = -(n x dH + alpha dE_tan)/2
                    #   fluxH = -n x (E* - E-) = (n x dE - alpha dH_tan)/2
                    # where dU = U- - U+ and dU_tan = dU - n(n.dU).
                    flux_E = -0.5 * (n_cross_dH[c] + alpha * (dE[c] - nn_dE[c]))
                    flux_H = 0.5 * (n_cross_dE[c] - alpha * (dH[c] - nn_dH[c]))
                    tgt_E = out[c]
                    tgt_H = out[3 + c]
                    if axis == 0:
                        tgt_E[:, :, :, idx, :, :] += lift * flux_E
                        tgt_H[:, :, :, idx, :, :] += lift * flux_H
                    elif axis == 1:
                        tgt_E[:, :, :, :, idx, :] += lift * flux_E
                        tgt_H[:, :, :, :, idx, :] += lift * flux_H
                    else:
                        tgt_E[:, :, :, :, :, idx] += lift * flux_E
                        tgt_H[:, :, :, :, :, idx] += lift * flux_H
        return out

    # ------------------------------------------------------------------
    # Time integration
    # ------------------------------------------------------------------
    def max_dt(self, cfl: float = 0.7) -> float:
        """Stable time step for the five-stage RK4.

        The DG spatial operator's spectral radius scales like
        ``C / dmin`` with ``dmin`` the minimum physical GLL node spacing
        and ``C ~ 10`` for the upwind flux (measured by power iteration);
        against the RK4 stability limit (~2.5 on the negative real /
        imaginary axes) that gives ``dt <= 0.25 * dmin``.  ``cfl`` scales
        within that bound.
        """
        dxi_min = float(np.min(np.diff(self.xi)))
        dmin = min(h * dxi_min / 2.0 for h in self.h)
        return cfl * 0.25 * dmin

    def run(self, state: list[np.ndarray], t0: float, dt: float, n_steps: int,
            callback: Optional[Callable] = None) -> tuple[list[np.ndarray], float]:
        """Advance ``n_steps`` with the five-stage low-storage RK4."""
        return self._integrator.integrate(state, t0, dt, n_steps, callback)

    # ------------------------------------------------------------------
    # Diagnostics and exact solutions
    # ------------------------------------------------------------------
    def _quad_weights(self) -> np.ndarray:
        hx, hy, hz = self.h
        w = self.w
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :])
        return W * (hx * hy * hz / 8.0)

    def energy(self, state: list[np.ndarray]) -> float:
        """Electromagnetic energy 0.5 * integral(|E|^2 + |H|^2)."""
        W = self._quad_weights()
        total = 0.0
        for comp in state:
            total += float(np.einsum("abcijk,ijk->", comp**2, W))
        return 0.5 * total

    def l2_error(self, state: list[np.ndarray],
                 exact: list[np.ndarray]) -> float:
        """Combined L2 error over all six components."""
        W = self._quad_weights()
        total = 0.0
        for num, ref in zip(state, exact):
            total += float(np.einsum("abcijk,ijk->", (num - ref) ** 2, W))
        return math.sqrt(total)

    def cavity_mode(self, t: float) -> list[np.ndarray]:
        """Exact TM110 standing mode of this solver's PEC box at time ``t``.

        ``Ez = sin(pi x/a) sin(pi y/b) cos(w t)`` with
        ``w = pi sqrt(1/a^2 + 1/b^2)``; requires PEC walls.  For rank-local
        slabs use :func:`cavity_fields` with the *global* bounds instead.
        """
        X, Y, Z = self.coordinates()
        return cavity_fields(self.mesh.bounds, X, Y, Z, t)
