"""Neumann problem on an ellipse by conformal transplantation.

Builds the boundary correspondence for the ellipse with semi-axes
(1, 0.8) via the contractive fixed-point iteration, then solves the
Neumann problem whose exact solution is u = Re w (data n_x along the
inner normal) and reports the recovered gradient.
"""

import sys

import numpy as np

sys.path.insert(0, "src")

import rhbvp as R
from rhbvp.jordan_domain import image_inner_normal


def main():
    rho = "0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)"
    cmap = R.theodorsen_map(rho, N=1024)
    print(f"map: {cmap.iterations} iterations, "
          f"residual {cmap.residual:.3e}, slope {cmap.slope:.3f}")
    wb = cmap.boundary_nodes()
    print(f"image semi-axes: {np.max(np.abs(wb.real)):.6f}, "
          f"{np.max(np.abs(wb.imag)):.6f}")

    nf = image_inner_normal(cmap)
    phi = R.BoundaryFunction(samples=nf.samples.real, kind="real")
    hs = R.transplant_solve(cmap, phi)

    w = np.array([0.0 + 0j, 0.5 + 0.2j, -0.7 + 0.1j, 0.6j])
    gx, gy = hs.grad(w)
    print("query point        grad u (want 1, 0)")
    for k in range(len(w)):
        print(f"{w[k]:>12.2f}   ({gx[k]:+.9f}, {gy[k]:+.9f})")
    u = hs.u(w)
    print(f"gauge check: u - Re w constant to "
          f"{np.max(np.abs((u - w.real) - (u[0] - w[0].real))):.3e}")


if __name__ == "__main__":
    main()
