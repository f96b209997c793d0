"""Quantitative checks for least squares on the deterministic grids.

The checks quantify three facts that make the grids work:

* Gram entry bounds.  With the classical Chebyshev basis and unit weights on
  a grid with prime modulus M > 2q+1, every off-diagonal Gram entry obeys
  |A[n,k]| <= ((d-1)*sqrt(M) + 1)/2, a direct consequence of Weil's
  exponential-sum bound.  Diagonal entries concentrate near M/2^{z+1} where z
  counts the nonzero components of the index; the printed two-sided target
  M/2^{d+1} +- (d-1)*sqrt(M)/2 applies to indices with all components
  nonzero.  (Halving the full-period sum contributes an exact +1/2 from the
  j=0 row, so for d=1, where the slack is zero, each diagonal entry equals
  M/4 + 1/2 and the two-sided target fails by exactly 1/2; reports say so
  honestly.)

* Spectral gap.  For index sets whose components are all nonzero,
  ||(2^{d+1}/M) A - I||_2 stays below 1/2 once M is large enough, which makes
  the discrete problem uniquely solvable and well conditioned.

* Reference projections and error metrics for convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexsets import as_indices
from .lstsq import UNIT_WEIGHTS, FitResult, evaluate_fit, gram
from .pointgen import mc_sample, weil_grid
from .polybasis import CHEBYSHEV_CLASSICAL, BasisSpec, basis_matrix

# Floating-point slack on the analytic bounds.
FP_TOL = 1e-9


@dataclass(frozen=True)
class GramBoundReport:
    """Observed Gram extremes against the analytic bounds for one (M, set)."""

    M: int
    d: int
    q: int
    max_offdiag_abs: float
    offdiag_bound: float
    diag_min: float                 # over the checked index subset; nan if empty
    diag_max: float
    diag_bounds: tuple              # printed all-nonzero target (lo, hi)
    offdiag_pass: bool
    diag_pass: bool
    passed: bool
    restricted_to_nonzero_indices: bool
    n_diag_checked: int


def check_gram_bounds(M: int, index_set, restrict_nonzero: bool = True) -> GramBoundReport:
    """Build the unit-weight classical-Chebyshev Gram matrix on the grid with
    modulus M and compare its entries against the analytic bounds.

    Requires prime M > 2q+1 where q is the largest index component.  With
    restrict_nonzero=True the diagonal check covers only indices whose
    components are all nonzero, against the printed target
    [M/2^{d+1} - (d-1)sqrt(M)/2, M/2^{d+1} + (d-1)sqrt(M)/2] (vacuous pass if
    no such index exists).  With restrict_nonzero=False every index is
    checked against its own generalized target M/2^{z+1} +- (d-1)sqrt(M)/2,
    z = number of nonzero components.
    """
    idx = as_indices(index_set)
    N, d = idx.shape
    q = int(idx.max())
    M = int(M)
    if M <= 2 * q + 1:
        raise ValueError(
            f"modulus M={M} violates the bound hypothesis M > 2q+1 = {2 * q + 1}"
        )
    grid = weil_grid(M, d)
    A = gram(grid, idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)

    off_bound = ((d - 1) * math.sqrt(M) + 1.0) / 2.0
    if N > 1:
        off = A[~np.eye(N, dtype=bool)]
        max_off = float(np.max(np.abs(off)))
    else:
        max_off = 0.0
    offdiag_pass = max_off <= off_bound + FP_TOL

    radius = (d - 1) * math.sqrt(M) / 2.0
    center = M / 2.0 ** (d + 1)
    diag_bounds = (center - radius, center + radius)

    # One rule for every index: the diagonal entry lies within radius of
    # M/2^{z+1}; the restricted mode checks only the indices with z = d.
    z = np.count_nonzero(idx, axis=1)
    checked = z == d if restrict_nonzero else np.ones(N, dtype=bool)
    vals, c_z = np.diag(A)[checked], M / 2.0 ** (z[checked] + 1)
    diag_pass = bool(np.all((c_z - radius - FP_TOL <= vals)
                            & (vals <= c_z + radius + FP_TOL)))
    if vals.size:
        diag_min, diag_max = float(vals.min()), float(vals.max())
    else:
        diag_min = diag_max = float("nan")
    n_checked = int(np.count_nonzero(checked))

    return GramBoundReport(
        M=M, d=d, q=q,
        max_offdiag_abs=max_off,
        offdiag_bound=off_bound,
        diag_min=diag_min, diag_max=diag_max,
        diag_bounds=diag_bounds,
        offdiag_pass=offdiag_pass,
        diag_pass=diag_pass,
        passed=offdiag_pass and diag_pass,
        restricted_to_nonzero_indices=restrict_nonzero,
        n_diag_checked=n_checked,
    )


def spectral_gap(M: int, index_set) -> float:
    """||(2^{d+1}/M) A - I||_2 for the unit-weight classical-Chebyshev Gram
    matrix on the grid with prime modulus M.

    Every index must have all components nonzero (the normalization 2^{d+1}
    is only consistent there); otherwise ValueError.
    """
    idx = as_indices(index_set)
    N, d = idx.shape
    has_zero = ~idx.all(axis=1)
    if has_zero.any():
        n = tuple(idx[has_zero.argmax()].tolist())
        raise ValueError(
            f"index {n} has a zero component; the 2^(d+1)/M normalization "
            f"requires all components nonzero"
        )
    grid = weil_grid(M, d)
    A = gram(grid, idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    G = (2.0 ** (d + 1) / M) * A - np.eye(N)
    return float(np.linalg.norm(G, 2))


def _quad_rule_1d(family: str, level: int):
    """Level-point Gauss rule for the family's natural probability density."""
    if family == "chebyshev":
        # Gauss-Chebyshev: exact for degree <= 2*level-1 against the arcsine
        # probability density; all weights equal 1/level.
        k = np.arange(1, level + 1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * level))
        weights = np.full(level, 1.0 / level)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(level)
        weights = weights / 2.0  # uniform probability density on [-1,1]
    return nodes, weights


def reference_projection(target, index_set, basis: BasisSpec, level: int) -> np.ndarray:
    """Coefficients of the continuous orthogonal projection of `target` onto
    span{Phi_n : n in the index set}, via tensor Gauss quadrature under the
    basis family's natural density (arcsine for Chebyshev, uniform for
    Legendre).

    `level` is the number of 1-d quadrature nodes per coordinate and must be
    at least q+1 (q = largest index component) so products of two basis
    polynomials are integrated exactly.
    """
    idx = as_indices(index_set)
    d = idx.shape[1]
    q = int(idx.max())
    if level < q + 1:
        raise ValueError(
            f"quadrature level {level} too small for order {q}; need >= {q + 1}"
        )
    nodes, weights = _quad_rule_1d(basis.family, level)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    fvals = np.asarray(target(pts), dtype=float).reshape(-1)
    B = basis_matrix(basis, idx, pts)
    inner = B.T @ (w * fvals)
    if basis.normalization == "orthonormal":
        return inner
    return inner / 2.0 ** -np.count_nonzero(idx, axis=1)


@dataclass(frozen=True)
class ErrorReport:
    """Discrete L2 error of a fit on a seeded uniform test sample."""

    l2_error: float
    n_test: int


def l2_error(fit: FitResult, target, n_test: int = 2000, seed: int = 0) -> ErrorReport:
    """Root-mean-square error sqrt(sum_i (f - fit)^2 / n_test) on n_test
    uniform test points in [-1,1]^d drawn with the given seed.

    The fit is evaluated by evaluate_fit, which streams the test points in
    row blocks: memory is O(256*N + d*(q+1)*n_test) floats, with q the
    largest index component, not the n_test*N of the test design matrix.
    """
    d = as_indices(fit.index_set).shape[1]
    test = mc_sample("uniform", n_test, d, seed)
    resid = np.asarray(target(test.points), dtype=float) - evaluate_fit(fit, test)
    return ErrorReport(float(np.sqrt(np.mean(resid * resid))), n_test)
