"""A tour of the deterministic collocation grids.

The grid with modulus M (an odd prime) and dimension d places points at

    y_j = (cos(2*pi*j/M), cos(2*pi*j^2/M), ..., cos(2*pi*j^d/M)),
    j = 0, 1, ..., floor(M/2).

Everything downstream rests on two facts demonstrated here: the residues
(j, j^2, ..., j^d) mod M behave like independent uniform draws as M grows
(box counts converge to the product arcsine measure), and exponential sums
over them are provably small.
"""

import math

import numpy as np

from weilfit import (arcsine_box_measure, equidist_box_fraction,
                     nearest_prime, weil_exponential_sum, weil_grid)

# ---------------------------------------------------------------------------
# 1. The grid itself

M = nearest_prime(23)
grid = weil_grid(M, d=3)
print(f"modulus M = {M}, dimension d = 3, points = {len(grid.points)} "
      f"(= floor(M/2) + 1)")
print("\nfirst rows (j, residues, point):")
for j in range(5):
    res = tuple(pow(j, k, M) for k in range(1, 4))
    pt = np.array2string(grid.points[j], precision=4)
    print(f"  j={j}:  {res}  ->  {pt}")

print("\nThe j=0 row is always the corner (1, 1, ..., 1); the residues are")
print("computed in exact integer arithmetic, so no point ever drifts off the")
print("circle cos(2*pi*k/M).")

# ---------------------------------------------------------------------------
# 2. Exponential sums are small

print("\nFull-period exponential sums  S = sum_j exp(2*pi*i*f(j)/M)  for a")
print("degree-d polynomial f stay below (d-1)*sqrt(M):")
M = 10007
for coeffs in ([1, 1], [3, 0, 5], [2, -7, 0, 1], [1, 2, 3, 4, 5]):
    d = len(coeffs)
    s = weil_exponential_sum(coeffs, M)
    bound = (d - 1) * math.sqrt(M)
    print(f"  f coeffs {coeffs}: |S| = {abs(s):10.4f}   bound = {bound:8.2f}")

# A quadratic sum has magnitude exactly sqrt(M) -- the bound is sharp.
s = weil_exponential_sum([0, 1], M)
print(f"  quadratic f = j^2:  |S| = {abs(s):.6f}  vs sqrt(M) = {math.sqrt(M):.6f}")

# ---------------------------------------------------------------------------
# 3. Equidistribution under the arcsine law

print("\nFraction of grid points in a box vs the product arcsine measure")
print("(the measure the coordinates cos(uniform angle) actually follow):")
boxes = {
    "[0,1/2]^2": [(0.0, 0.5), (0.0, 0.5)],
    "[-1,0]x[-1,1]": [(-1.0, 0.0), (-1.0, 1.0)],
    "[-1/2,1/2]^2": [(-0.5, 0.5), (-0.5, 0.5)],
}
print(f"  {'box':<16}{'measure':>10}" + "".join(f"{M:>12}" for M in (101, 1009, 10007)))
for name, box in boxes.items():
    meas = arcsine_box_measure(box)
    row = f"  {name:<16}{meas:>10.5f}"
    for M in (101, 1009, 10007):
        frac = equidist_box_fraction(weil_grid(M, 2), box)
        row += f"{frac:>12.5f}"
    print(row)

print("\nDeviations shrink roughly like 1/sqrt(M): the grid is a deterministic")
print("stand-in for arcsine-distributed random sampling.")
