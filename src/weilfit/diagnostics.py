"""Quantitative checks for least squares on the deterministic grids.

The checks quantify three facts that make the grids work (`check_bounds`
runs the first two, and Weil's bound itself, as `weilfit check-bounds`):

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indexsets import as_indices, build_index_set
from .lstsq import UNIT_WEIGHTS, FitResult, gram
from .pointgen import (_integer, _values, check_memory, is_prime, mc_sample,
                       weil_exponential_sum, weil_grid)
from .polybasis import (CHEBYSHEV_CLASSICAL, BasisSpec, basis_matrix,
                        evaluate_expansions)

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
    n_diag_checked: int


def check_gram_bounds(M: int, index_set, restrict_nonzero: bool = True) -> GramBoundReport:
    """Build the unit-weight classical-Chebyshev Gram matrix on the grid with
    modulus M and compare its entries against the analytic bounds.

    Requires an int prime M > 2q+1, q the largest index component.  With
    restrict_nonzero=True the diagonal check covers only indices whose
    components are all nonzero, against the printed target
    [M/2^{d+1} - (d-1)sqrt(M)/2, M/2^{d+1} + (d-1)sqrt(M)/2] (vacuous pass if
    no such index exists).  With restrict_nonzero=False every index is
    checked against its own generalized target M/2^{z+1} +- (d-1)sqrt(M)/2,
    z = number of nonzero components.  The off-diagonal maximum is read in
    A itself, so the peak memory is gram's B and A, within gram's check.
    """
    idx = as_indices(index_set)
    N, d = idx.shape
    q = int(idx.max())
    M = _integer("M", M)
    if M <= 2 * q + 1:
        raise ValueError(
            f"modulus M={M} violates the bound hypothesis M > 2q+1 = {2 * q + 1}"
        )
    grid = weil_grid(M, d)
    A = gram(grid, idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    diag = A.diagonal().copy()
    A.flat[::N + 1] = 0.0  # the off-diagonal maximum, read in place
    max_off = float(np.abs(A, out=A).max())

    off_bound = ((d - 1) * math.sqrt(M) + 1.0) / 2.0
    offdiag_pass = max_off <= off_bound + FP_TOL

    radius = (d - 1) * math.sqrt(M) / 2.0
    center = M / 2.0 ** (d + 1)
    diag_bounds = (center - radius, center + radius)

    # One rule for every index: the diagonal entry lies within radius of
    # M/2^{z+1}; the restricted mode checks only the indices with z = d.
    z = np.count_nonzero(idx, axis=1)
    checked = z == d if restrict_nonzero else np.ones(N, dtype=bool)
    vals, c_z = diag[checked], M / 2.0 ** (z[checked] + 1)
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
        n_diag_checked=n_checked,
    )


def spectral_gap(M: int, index_set) -> float:
    """||(2^{d+1}/M) A - I||_2 for the unit-weight classical-Chebyshev Gram
    matrix on the grid with prime modulus M.

    Every index must have all components nonzero (the normalization 2^{d+1}
    is only consistent there); otherwise ValueError.  The Gram matrix is
    scaled and shifted in place, and the 2-norm's SVD holds it and LAPACK's
    copy, the two N x N of gram's check: ValueError before the product when
    its 8*(m*N + 2*N*N) bytes exceed physical memory.
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
    G = gram(grid, idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    G *= 2.0 ** (d + 1) / M
    G.flat[::N + 1] -= 1.0  # minus the identity
    return float(np.linalg.norm(G, 2))


def check_bounds(dims, orders, seed: int = 0):
    """The suites of `weilfit check-bounds`, (grams, gaps, sums), each check
    with its pass flag.  grams: check_gram_bounds of TD(q) in dimension d for
    each d in dims and q in orders, at each modulus M > 2q+1 of the first
    prime above 2q+1, 97 and 997.  gaps: (d, M, gap, gap <= 1/2) for two
    fixed spectral_gap cases.  sums: |S| <= (degree-1) sqrt(M) for the Weil
    sums S of 48 random polynomials drawn with `seed`.  ValueError unless
    seed is an int >= 0, before the (possibly lazy) dims and orders are read."""
    seed = _integer("seed", seed, 0)
    dims, orders = list(dims), list(orders)
    grams = []
    for d in dims:
        for q in orders:
            index_set = build_index_set("TD", q, d)
            first = 2 * q + 2  # smallest prime beyond the bound hypothesis
            while not is_prime(first):
                first += 1
            for M in sorted({first} | {p for p in (97, 997) if p > 2 * q + 1}):
                grams.append(check_gram_bounds(M, index_set))
    gaps = [(d, M, gap, gap <= 0.5) for d, M, index_set in
            ((1, 67, [(1,), (2,)]), (2, 4099, [(1, 1), (1, 2), (2, 1), (2, 2)]))
            for gap in [spectral_gap(M, index_set)]]
    rng = np.random.Generator(np.random.PCG64(seed))
    sums = []
    for _ in range(48):
        M = int(rng.choice([101, 499, 997, 2309, 10007]))
        deg = int(rng.integers(1, 7))
        coeffs = rng.integers(-10, 11, deg)
        while all(int(c) % M == 0 for c in coeffs):
            coeffs = rng.integers(-10, 11, deg)
        s = weil_exponential_sum([int(c) for c in coeffs], M)
        sums.append(abs(s) <= (deg - 1) * math.sqrt(M) + FP_TOL)
    return grams, gaps, sums


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
    Legendre).  target(nodes) must follow the vector rule (pointgen._values).

    `level`, the number of 1-d quadrature nodes per coordinate, is an int
    of at least q+1 (q = largest index component; else ValueError), so
    products of two basis polynomials are integrated exactly.  ValueError
    before the nodes are built when their 2*8*d*level^d bytes (the grids
    and their columns) exceed the machine's physical memory.
    """
    idx = as_indices(index_set)
    d = idx.shape[1]
    q = int(idx.max())
    level = _integer("level", level)
    if level < q + 1:
        raise ValueError(
            f"quadrature level {level} too small for order {q}; need >= {q + 1}"
        )
    check_memory(f"the {level}^{d} quadrature nodes", 2 * 8 * d * level ** d)
    nodes, weights = _quad_rule_1d(basis.family, level)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = functools.reduce(np.multiply.outer, [weights] * d).reshape(-1)
    fvals = _values(target(pts), len(pts))
    B = basis_matrix(basis, idx, pts)
    inner = B.T @ (w * fvals)
    if basis.normalization == "orthonormal":
        return inner
    return inner / 2.0 ** -np.count_nonzero(idx, axis=1)


@dataclass(frozen=True)
class ErrorReport:
    """Discrete L2 error of one fit (a float) or of a sequence of fits (a
    tuple of floats) on a seeded uniform test sample of n_test points."""

    l2_error: float | tuple
    n_test: int


def l2_error(fit, target, n_test: int = 2000, seed: int = 0) -> ErrorReport:
    """Root-mean-square error sqrt(sum_i (f - fit)^2 / n_test) on n_test
    uniform test points in [-1,1]^d drawn with the given seed, where the
    target's values must follow the vector rule (pointgen._values).

    `fit` is one FitResult, whose error is a float, or a sequence of them,
    whose errors are a tuple of floats in order; a None entry (a singular
    fit) scores inf.  The test sample is drawn and the target evaluated once
    for the whole sequence, and polybasis.evaluate_expansions scores every
    fit in one streamed pass: the fits must share one basis, and the largest
    index set must contain every other (ValueError otherwise).  Each error
    has the bits a call with that fit alone gives.

    Memory is the test points, the target values, the d*(q+1)*n_test floats
    of the 1-d tables (q the largest index component) and at most
    d*(q+1) value vectors of n_test floats, plus a few block temporaries of
    about 32768 floats each, never an n_test*N test design matrix.  When
    that exceeds the machine's physical memory, ValueError is raised before
    the sample is drawn; also unless n_test >= 1 and seed >= 0 are ints.
    """
    n_test, seed = _integer("n_test", n_test, 1), _integer("seed", seed, 0)
    if isinstance(fit, FitResult):
        return ErrorReport(_errors([fit], target, n_test, seed)[0], n_test)
    fits = list(fit)
    errors = iter(_errors([f for f in fits if f is not None], target, n_test, seed))
    return ErrorReport(tuple(math.inf if f is None else next(errors) for f in fits),
                       n_test)


def _errors(fits, target, n_test, seed):
    """The error of each fit, from one test sample and one pass."""
    if not fits:
        return []
    basis = fits[0].basis
    if any(f.basis != basis for f in fits):
        raise ValueError("the fits must share one basis")
    union = max((as_indices(f.index_set) for f in fits), key=len)
    d, q = union.shape[1], int(union.max())
    # the points, the 1-d tables, the held value vectors and the target
    # values; tracemalloc puts the pass's peak a few 256 KiB blocks above
    held = min(len(fits), d * (q + 1))
    check_memory(f"the error pass over {n_test} test points",
                 8 * n_test * (d * (q + 2) + held + 1))
    test = mc_sample("uniform", n_test, d, seed)
    fvals = _values(target(test.points), n_test)
    errors = []
    for values in evaluate_expansions(basis, [f.index_set for f in fits], test,
                                      [f.coefficients for f in fits]):
        np.subtract(fvals, values, out=values)  # the residual, in place
        values *= values
        errors.append(float(np.sqrt(np.mean(values))))
        del values  # so a new pass never meets the last vector of the old one
    return errors
