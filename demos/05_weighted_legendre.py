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

from weilfit.study import StudyConfig, cond_study, conv_study

BUDGET = dict(d=2, scaling="linear", c=2.0, family="legendre")
DIRECT = dict(BUDGET, grid="mc_uniform", repetitions=20)
WEIGHTED = dict(BUDGET, weights="density_ratio")


def row(study, settings, q):
    """The (q, N, m, M, mean over repetitions) row of order q alone."""
    (cell,), _ = study(StudyConfig(q_min=q, q_max=q, **settings))
    return cell


print("d=2, total-degree Legendre, linear point budget m ~ 2N")
print(f"{'q':>3} {'N':>5} {'m':>6} {'direct mc cond':>16} {'weighted cond':>15} "
      f"{'direct rms':>12} {'weighted rms':>13}")
for q in (3, 6, 9, 12, 15):
    _, N, m, _, cond = row(cond_study, DIRECT, q)
    wcond = row(cond_study, WEIGHTED, q)[-1]
    err, werr = (row(conv_study, settings, q)[-1] for settings in (DIRECT, WEIGHTED))
    print(f"{q:>3} {N:>5} {m:>6} {cond:>16.1f} {wcond:>15.2f} "
          f"{err:>12.3e} {werr:>13.3e}")

print("\nDirect uniform sampling: conditioning explodes by q=15 at this")
print("budget.  The weighted deterministic grid keeps cond(A) within a small")
print("factor of its q=3 value and the error at or below the random-sampling")
print("average -- with zero sampling variance.")
