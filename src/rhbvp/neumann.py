"""Neumann problems as directional problems with the inner normal field.

On the unit disk the inner normal at exp(i*theta) is -exp(i*theta)
exactly, a winding-one field with nu0 = -1, and grad u . n -> phi is the
(possibly nonclassical) Neumann problem.  The index reduction gives
f = (m * H_cut - S[phi]) / z, m the mean of phi: m = 0 is the classical
solution, and otherwise the pole at the cut carries the flux while the
boundary derivative still attains phi a.e.; a note records it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_data import TWO_PI, BoundaryFunction, DirectionField, grid_nodes
from .direction_solver import HarmonicSolution, solve_directional
from .disk_harmonic import _boundary_values_of_series
from .rh_solver import SolverParams


@dataclass(frozen=True)
class NormalField:
    """Inner normal direction field along a boundary, with provenance."""

    field: DirectionField
    provenance: str = "disk"

    @property
    def N(self) -> int:
        return self.field.N


def disk_inner_normal(N: int) -> NormalField:
    """Inner normal of the unit disk: exactly -exp(i*theta_j) at the nodes."""
    return NormalField(DirectionField.from_samples(-np.exp(1j * grid_nodes(N))),
                       provenance="disk")


def compatibility_integral(phi: BoundaryFunction) -> float:
    """integral phi ds over the unit circle (trapezoid = exact node mean)."""
    return float(2.0 * np.pi * np.mean(np.asarray(phi.samples, dtype=float)))


def compatibility_note(phi: BoundaryFunction, cmap=None) -> str | None:
    """The nonclassical-solution note, or None when |integral phi ds| is at
    most 1e-10 * (1 + max |phi|); on a ConformalMap ds = |omega'| dt."""
    if cmap is None:
        flux = compatibility_integral(phi)
    else:
        speed = np.abs(_boundary_values_of_series(
            cmap.omega_prime.coefficients, cmap.N))
        flux = float(np.mean(np.asarray(phi.samples, float) * speed) * TWO_PI)
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
    params = params or SolverParams(N=phi.N)
    normal = disk_inner_normal(phi.N)
    hs = solve_directional(normal.field, phi, params)
    note = compatibility_note(phi)
    if note:
        hs.notes.append(note)
    return hs
