"""Solution-space dimension sweep.

For k distinguished boundary points the homogeneous family spans k+1
directions; together with a particular solution and the constant shift
the certified dimension is k+3 rows.  sigma_min of the row-normalized
value matrix stays positive as k grows, certifying independence at the
sampled resolution (it decays since deeper members crowd the same
low-order behavior on interior points).
"""

import sys
import time

import numpy as np

sys.path.insert(0, "src")

import rhbvp as R
from rhbvp.direction_solver import HarmonicSolution
from rhbvp.verify import dimension_certificate


def main():
    N = 1024
    base = R.solve_neumann(R.build_boundary_function("cos(theta)", N))
    print(f"{'k':>3} {'rows':>5} {'sigma_min':>12} {'time':>7}")
    for k in (2, 3, 5, 8, 10, 12):
        t0 = time.time()
        members = R.homogeneous_family(base.nu, k)
        rows = [base.u]
        rows += [HarmonicSolution(f_source=m, nu=base.nu).u for m in members]
        rows.append(lambda z: np.ones(np.shape(z)))
        cert = dimension_certificate(rows)
        print(f"{k:>3} {cert.n_rows:>5} {cert.sigma_min:>12.4e} "
              f"{time.time() - t0:>6.2f}s")


if __name__ == "__main__":
    main()
