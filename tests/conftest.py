"""Shared fixtures: the expensive solutions are built once per session."""

import numpy as np
import pytest

import rhbvp as R


@pytest.fixture(scope="session")
def phi_cos_1024():
    return R.build_boundary_function("cos(theta)", 1024)


@pytest.fixture(scope="session")
def neumann_cos(phi_cos_1024):
    return R.solve_neumann(phi_cos_1024)


@pytest.fixture(scope="session")
def step_1024():
    return R.build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": 1.0},
         {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], 1024)


@pytest.fixture(scope="session")
def neumann_step(step_1024):
    return R.solve_neumann(step_1024)


@pytest.fixture(scope="session")
def neumann_one():
    return R.solve_neumann(R.build_boundary_function(1.0, 1024))


@pytest.fixture(scope="session")
def ellipse_map():
    return R.theodorsen_map("0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)", N=1024)


@pytest.fixture(scope="session")
def hom_family_cos(neumann_cos):
    return R.homogeneous_family(neumann_cos.nu, 10)
