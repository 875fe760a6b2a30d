"""Neumann problems as directional problems with the inner normal field.

On the unit disk the inner normal at exp(i*theta) is -exp(i*theta)
exactly, a winding-one field with nu0 = -1, and grad u . n -> phi is the
(possibly nonclassical) Neumann problem.  The index reduction gives
f = (m * H_cut - S[phi]) / z, m the mean of phi: m = 0 is the classical
solution, and otherwise the pole at the cut carries the flux while the
boundary derivative still attains phi a.e.; a note records it.  The
normal is reduced once per N (disk_inner_normal), so solve_neumann runs
only the phi stage.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boundary_data import TWO_PI, BoundaryFunction, DirectionField, grid_nodes
from .direction_solver import HarmonicSolution
from .rh_solver import ReducedField, SolverParams, reduce_field


@lru_cache(maxsize=None)
def disk_inner_normal(N: int) -> ReducedField:
    """Reduced inner normal of the unit disk, exactly -exp(i*theta_j) at
    the nodes (its .field); one read-only reduction per N."""
    nu = DirectionField.from_samples(-np.exp(1j * grid_nodes(N)))
    nu.samples.flags.writeable = False
    return reduce_field(nu)


def compatibility_integral(phi: BoundaryFunction) -> float:
    """integral phi ds over the unit circle (trapezoid = exact node mean)."""
    return float(2.0 * np.pi * np.mean(np.asarray(phi.samples, dtype=float)))


def compatibility_note(phi: BoundaryFunction, cmap=None) -> str | None:
    """The nonclassical-solution note, or None when |integral phi ds| is at
    most 1e-10 * (1 + max |phi|); ds = speed dt, with speed |omega'| on a
    ConformalMap and 1 on the disk, where phi is read in place."""
    phi_speed = np.asarray(phi.samples, float)
    if cmap is not None:
        phi_speed = phi_speed * np.abs(
            cmap.omega_prime.eval_on_circle(1.0, cmap.N))
    flux = float(np.mean(phi_speed) * TWO_PI)
    scale = 1.0 + float(np.max(np.abs(phi.samples)))
    if abs(flux) <= 1e-10 * scale:
        return None
    return (f"compatibility integral of the data is {flux:.6g}, not 0: the "
            f"classical Neumann problem is insolvable; returning the "
            f"nonclassical solution (boundary derivative holds a.e. "
            f"nontangentially)")


def solve_neumann(phi: BoundaryFunction,
                  params: SolverParams | None = None) -> HarmonicSolution:
    """Neumann problem grad u . n -> phi on the unit disk."""
    params = params or SolverParams()
    sol = disk_inner_normal(phi.N).solve(phi, params)
    note = compatibility_note(phi)
    return HarmonicSolution(f_source=sol, d0=params.d0,
                            notes=sol.notes + ([note] if note else []))
