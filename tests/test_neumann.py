"""Neumann dispatch, the disk inner normal, radial certificates."""

import numpy as np
import pytest

import rhbvp as R
from rhbvp.boundary_data import grid_nodes
from rhbvp.neumann import compatibility_integral, disk_inner_normal
from rhbvp.verify import radial_u_table


# ----------------------------------------------------------------------
# normal fields
# ----------------------------------------------------------------------

def test_disk_inner_normal_exact():
    nf = disk_inner_normal(64)
    theta = grid_nodes(64)
    assert np.array_equal(nf.field.samples, -np.exp(1j * theta))
    assert nf.index == 1 and nf.field.N == 64
    assert disk_inner_normal(64) is nf  # one reduction per N


def test_disk_inner_normal_is_read_only():
    phi = R.build_boundary_function([(0.0, 1.0, "1"), (1.0, 2 * np.pi, "0")], 64)
    before = R.solve_neumann(phi)
    nf = disk_inner_normal(64)
    with pytest.raises(ValueError, match="read-only"):
        nf.field.samples[0] = 1.0
    for arr in (nf.alpha.samples, nf.A.coefficients, nf.H):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    after = R.solve_neumann(phi)
    assert np.array_equal(after.F.coefficients, before.F.coefficients)
    assert np.array_equal(after.f_source.g.coefficients,
                          before.f_source.g.coefficients)


def test_compatibility_integral_values():
    assert abs(compatibility_integral(
        R.build_boundary_function(1.0, 64)) - 2 * np.pi) < 1e-14
    assert abs(compatibility_integral(
        R.build_boundary_function("cos(theta)", 64))) < 1e-13


# ----------------------------------------------------------------------
# solve_neumann
# ----------------------------------------------------------------------

def test_neumann_cos_has_no_compat_note(neumann_cos):
    assert not any("compatibility" in n for n in neumann_cos.notes)


def test_neumann_one_notes_incompatibility(neumann_one):
    msgs = [n for n in neumann_one.notes if "compatibility" in n]
    assert len(msgs) == 1
    assert "not 0" in msgs[0]
    assert "6.28" in msgs[0]


def test_neumann_step_notes_incompatibility(neumann_step):
    assert any("compatibility integral of the data is" in n and "not 0" in n
               for n in neumann_step.notes)


def test_default_params_solve_on_the_datas_grid():
    # the grid size is the data's: SolverParams has no N to disagree with it
    phi = R.build_boundary_function("cos(theta)", 256)
    assert R.solve_neumann(phi).f_source.N == phi.N
    assert R.solve_neumann(phi, R.SolverParams(d0=1.0)).f_source.N == phi.N
    with pytest.raises(TypeError):
        R.SolverParams(N=64)


def test_neumann_solution_carries_sources(neumann_cos):
    assert neumann_cos.phi is not None
    assert neumann_cos.nu is not None
    assert neumann_cos.f_source is not None
    np.testing.assert_allclose(
        neumann_cos.nu.samples, -np.exp(1j * grid_nodes(1024)), atol=0)


# ----------------------------------------------------------------------
# radial certificates
# ----------------------------------------------------------------------

def test_radial_u_table_flags_cos(neumann_cos):
    table = radial_u_table(neumann_cos, V=200, tol=1e-3)
    frac = float(np.mean(table.flags))
    assert frac > 0.99


def test_radial_u_table_quotients_cos(neumann_cos):
    # u = -Re z: (u(r) - u(1-))/(1 - r) = cos(theta) exactly
    table = radial_u_table(neumann_cos, V=200, tol=1e-2)
    err = np.abs(table.quotient_est[table.valid]
                 - np.cos(table.angles[table.valid]))
    assert float(np.mean(err < 1e-2)) > 0.99


def test_radial_u_table_quotients_step(neumann_step):
    # jump data: quotients still attain the data away from the jumps
    table = radial_u_table(neumann_step, V=200, tol=1e-2)
    target = neumann_step.phi.evaluate(table.angles)
    ok = table.valid
    err = np.abs(table.quotient_est[ok] - target[ok])
    assert float(np.mean(err < 1e-2)) > 0.9
