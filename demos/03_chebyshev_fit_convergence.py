"""Spectral convergence of least-squares fits on the deterministic grid.

Fit f(y) = exp(-(c1*y1 + c2*y2)) in total-degree Chebyshev spaces of growing
order.  The collocation grid is deterministic (no sampling luck involved),
its size scales quadratically in the space dimension N, and the error is
measured as an RMS over 2000 seeded uniform test points.
"""

from weilfit.study import StudyConfig, cond_study, conv_study

cfg = StudyConfig(d=2, q_min=2, q_max=10, scaling="quadratic", c=0.5)
# the published coefficients: a frozen draw, reproducible run to run
print(f"target: exp(-(c . y)) with c = {cfg.target_coeffs()}\n")

print(f"{'q':>3} {'N':>5} {'m':>7} {'M':>7} {'cond(A)':>12} {'rms error':>12}")
prev = None
for (q, N, m, M, cond), (*_, err) in zip(cond_study(cfg)[0], conv_study(cfg)[0]):
    ratio = "" if prev is None else f"  (x {err / prev:.3f})"
    print(f"{q:>3} {N:>5} {m:>7} {M:>7} {cond:>12.4f} {err:>12.4e}{ratio}")
    prev = err

print("\nEach extra order multiplies the error by roughly a constant factor")
print("below one -- geometric (spectral) convergence, while cond(A) stays")
print("flat because the quadratically-scaled grid keeps the normal equations")
print("close to a multiple of the identity.")
