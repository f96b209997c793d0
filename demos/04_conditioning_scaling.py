# How the point-count scaling rule decides stability.
#
# The Gram condition number cond(A) controls both noise amplification and
# solvability of the discrete least-squares problem.  Scaling the number of
# collocation points m quadratically in the space dimension N keeps cond(A)
# bounded on the deterministic grid; linear scaling with a small constant
# does not.  Random sampling needs its own (larger) oversampling to match.

import numpy as np

from weilfit import (CHEBYSHEV_ORTHONORMAL, StudyConfig, condition,
                     realize_cell, weil_grid)
from weilfit.study import cell_points


def cond_A(pts, index_set):
    return condition(pts, index_set, CHEBYSHEV_ORTHONORMAL).cond_A


RULES = [("quadratic", 0.5), ("linear", 2.0), ("linear", 12.0)]
QS = list(range(1, 16))

print("deterministic grid, d=2, total-degree spaces")
header = f"{'q':>3} {'N':>5}" + "".join(f"{f'{s} c={c:g}':>18}" for s, c in RULES)
print(header)
for q in QS:
    row = None
    cells = []
    for scaling, c in RULES:
        cfg = StudyConfig(d=2, scaling=scaling, c=c)
        index_set, N, m, M = realize_cell(cfg, q)
        if row is None:
            row = f"{q:>3} {N:>5}"
        cells.append(f"{cond_A(weil_grid(M, 2).points, index_set):>18.2f}")
    print(row + "".join(cells))

print("\nlinear c=2 drifts upward without bound; quadratic c=0.5 and the")
print("larger linear constant stay flat.\n")

# Same budget, random points: the average condition number over 10 draws.
print("same m as quadratic c=0.5, but uniform random points (10 draws):")
print(f"{'q':>3} {'m':>7} {'weil':>12} {'mc mean':>12} {'mc worst':>12}")
cfg = StudyConfig(d=2, scaling="quadratic", c=0.5, grid="mc_uniform", seed=1234)
for q in (2, 4, 6, 8):
    index_set, N, m, M = realize_cell(cfg, q)
    weil_val = cond_A(weil_grid(M, 2).points, index_set)
    draws = [cond_A(cell_points(cfg, q, m, M, rep).points, index_set)
             for rep in range(10)]
    print(f"{q:>3} {m:>7} {weil_val:>12.2f} {np.mean(draws):>12.2f} "
          f"{max(draws):>12.2f}")

print("\nThe deterministic grid needs no luck: its conditioning is a theorem,")
print("not an average.")
