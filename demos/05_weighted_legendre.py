"""Density-ratio weighting: uniform-measure approximation without uniform
sampling.

Goal: approximate f in the uniform-measure L2 norm with an orthonormal
Legendre basis.  Sampling uniform random points directly makes the Gram
matrix blow up as the order grows (the uniform measure underweights the
boundary, exactly where high-order polynomials live).  Keeping the
arcsine-distributed deterministic grid and re-weighting each row by

    w_i = rho_uniform(y_i) / rho_arcsine(y_i)
        = (pi/2)^d * prod_k sqrt(1 - (y_i^k)^2)

emulates the uniform inner product while inheriting the grid's stability.
"""

import numpy as np

from weilfit import (LEGENDRE_ORTHONORMAL, UNIT_WEIGHTS, SingularSystemError,
                     StudyConfig, WeightScheme, condition, l2_error,
                     realize_cell, solve, weil_grid)
from weilfit.study import cell_points
from weilfit.targets import coefficients, make

WEIGHTED = WeightScheme("density_ratio", "uniform")
REPS = 20


def cond_A(pts, index_set, scheme):
    return condition(pts, index_set, LEGENDRE_ORTHONORMAL, scheme).cond_A


f = make("expsum", coefficients("expsum", 2))
cfg = StudyConfig(d=2, scaling="linear", c=2.0, grid="mc_uniform", seed=0)

print("d=2, total-degree Legendre, linear point budget m ~ 2N")
print(f"{'q':>3} {'N':>5} {'m':>6} {'direct mc cond':>16} {'weighted cond':>15} "
      f"{'direct rms':>12} {'weighted rms':>13}")
for q in (3, 6, 9, 12, 15):
    index_set, N, m, M = realize_cell(cfg, q)
    grid = weil_grid(M, 2)

    conds, errs = [], []
    for rep in range(REPS):
        pts = cell_points(cfg, q, m, M, rep)
        conds.append(cond_A(pts.points, index_set, UNIT_WEIGHTS))
        try:
            fit = solve(pts, f(pts.points), index_set, LEGENDRE_ORTHONORMAL,
                        UNIT_WEIGHTS)
            errs.append(l2_error(fit, f).l2_error)
        except SingularSystemError:
            errs.append(float("inf"))

    wcond = cond_A(grid.points, index_set, WEIGHTED)
    wfit = solve(grid, f(grid.points), index_set, LEGENDRE_ORTHONORMAL, WEIGHTED)
    werr = l2_error(wfit, f).l2_error
    print(f"{q:>3} {N:>5} {m:>6} {np.mean(conds):>16.1f} {wcond:>15.2f} "
          f"{np.mean(errs):>12.3e} {werr:>13.3e}")

print("\nDirect uniform sampling: conditioning explodes by q=15 at this")
print("budget.  The weighted deterministic grid keeps cond(A) within a small")
print("factor of its q=3 value and the error at or below the random-sampling")
print("average -- with zero sampling variance.")
