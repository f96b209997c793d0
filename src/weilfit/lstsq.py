"""Weighted discrete least squares in tensor polynomial bases.

The solver factors the row-scaled design matrix sqrt(w_i) * Phi_{n_j}(y_i)
with an SVD and never forms the normal equations; the Gram matrix
A = D^T diag(w) D is built only as a diagnostic object.  Conditioning is
reported both for the scaled design matrix (cond_D) and for the Gram matrix
(cond_A = cond_D**2), the latter being the quantity usually plotted in
stability studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexsets import as_indices
from .pointgen import point_array
from .polybasis import BasisSpec, basis_matrix, check_domain, evaluate_expansion

WEIGHT_KINDS = ("unit", "density_ratio")
TARGET_DENSITIES = ("uniform", "chebyshev")

# Relative singular-value cutoff below which the system is reported singular.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class WeightScheme:
    """Row weights for the discrete least-squares functional.

    kind = "unit" uses w_i = 1.  kind = "density_ratio" uses
    w_i = rho(y_i) / rho_c(y_i), the target sampling density over the product
    arcsine density the deterministic grids equidistribute to:

        uniform:   w_i = (pi/2)^d * prod_k sqrt(1 - (y_i^k)^2)
        chebyshev: w_i = 1  (the ratio of the arcsine density to itself)

    Points on the boundary |y^k| = 1 receive weight 0 under the uniform
    target (the ratio's limit), which is permitted.
    """

    kind: str = "unit"
    target_density: str | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        if self.kind == "unit":
            if self.target_density is not None:
                raise ValueError("target_density is only meaningful for kind='density_ratio'")
        else:
            if self.target_density is None:
                object.__setattr__(self, "target_density", "uniform")
            if self.target_density not in TARGET_DENSITIES:
                raise ValueError(
                    f"unknown target density {self.target_density!r}; "
                    f"expected one of {TARGET_DENSITIES}"
                )


UNIT_WEIGHTS = WeightScheme("unit")


class SingularSystemError(RuntimeError):
    """Raised when the scaled design matrix is numerically rank deficient.

    Carries the condition report of the offending system (cond_D, cond_A).
    """

    def __init__(self, message, condition_report):
        super().__init__(message)
        self.condition_report = condition_report


@dataclass(frozen=True)
class ConditionReport:
    cond_D: float
    cond_A: float


@dataclass(frozen=True)
class FitResult:
    """Least-squares coefficients, the basis that evaluates them, and the
    health of the solve."""

    coefficients: np.ndarray
    index_set: object          # as passed: IndexSet, tuples or (N, d) int array
    basis: BasisSpec
    residual_norm: float       # sqrt(sum_i w_i (f_i - fit_i)^2)
    condition_report: ConditionReport


def compute_weights(scheme: WeightScheme, pts) -> np.ndarray:
    """Evaluate the weight vector on a point set (all |y| <= 1 required)."""
    arr = point_array(pts)
    check_domain(arr)
    n, d = arr.shape
    if scheme.kind == "unit" or scheme.target_density == "chebyshev":
        return np.ones(n)
    return (math.pi / 2.0) ** d * np.prod(np.sqrt(1.0 - arr * arr), axis=1)


def _scaled_design(pts, index_set, basis, weights):
    """(w, diag(sqrt(w)) D), scaled in place so D is never held twice."""
    Dw = basis_matrix(basis, index_set, pts)
    w = compute_weights(weights, pts)
    Dw *= np.sqrt(w)[:, None]
    return w, Dw


def _condition_report(s, N) -> ConditionReport:
    """cond_D = s_max/s_min from the singular values s of an m x N scaled
    design; inf when m < N or s_min = 0."""
    cond_D = float(s[0] / s[-1]) if s.size == N and s[-1] > 0.0 else float("inf")
    return ConditionReport(cond_D, cond_D * cond_D)


def condition(pts, index_set, basis: BasisSpec,
              weights: WeightScheme = UNIT_WEIGHTS) -> ConditionReport:
    """cond_D and cond_A of the scaled design matrix from its singular
    values alone (U and V are never formed).

    LAPACK reaches these singular values by another route than the full SVD
    in `solve`, so the two reports agree to a few ulps (about 1e-15
    relative), not bit for bit."""
    _, Dw = _scaled_design(pts, index_set, basis, weights)
    return _condition_report(np.linalg.svd(Dw, compute_uv=False), Dw.shape[1])


def solve(pts, fvals, index_set, basis: BasisSpec,
          weights: WeightScheme = UNIT_WEIGHTS) -> FitResult:
    """Solve the weighted discrete least-squares problem

        min_c sum_i w_i (f(y_i) - sum_j c_j Phi_{n_j}(y_i))^2 .

    Parameters
    ----------
    pts : WeilGrid, SampleSet, or (npts, d) array
    fvals : length-npts values of the target at the points
    index_set : IndexSet, sequence of multi-index tuples, or (N, d) int
        array (column order)
    basis, weights : basis convention and row-weight scheme

    Returns
    -------
    FitResult.  Raises ValueError if npts < N (under-determined) or a point
    or value is not finite, and SingularSystemError if the scaled design
    matrix has relative singular values below 1e-12.
    """
    arr = point_array(pts)
    N = as_indices(index_set).shape[0]
    f = np.asarray(fvals, dtype=float).reshape(-1)
    if f.shape[0] != arr.shape[0]:
        raise ValueError(
            f"got {arr.shape[0]} points but {f.shape[0]} function values"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError("function values must be finite")
    if arr.shape[0] < N:
        raise ValueError(
            f"under-determined system: {arr.shape[0]} points for {N} basis functions"
        )
    w, Dw = _scaled_design(arr, index_set, basis, weights)
    bw = f * np.sqrt(w)
    U, s, Vt = np.linalg.svd(Dw, full_matrices=False)
    report = _condition_report(s, N)
    if not np.isfinite(report.cond_D) or s[-1] <= RANK_TOL * s[0]:
        raise SingularSystemError(
            f"rank-deficient least-squares system (cond_D = {report.cond_D:.3e})",
            report,
        )
    coeffs = Vt.T @ ((U.T @ bw) / s)
    residual = float(np.linalg.norm(bw - Dw @ coeffs))
    return FitResult(coeffs, index_set, basis, residual, report)


def evaluate_fit(fit: FitResult, pts) -> np.ndarray:
    """Evaluate the fitted polynomial at new points.

    Streams the points through `evaluate_expansion` in row blocks of about
    32768 entries of the design matrix, which is never held whole; at one
    BLAS thread the values equal basis_matrix(...) @ fit.coefficients bit for
    bit.  Non-finite coefficients raise ValueError.  To score several fits
    on one test sample, diagnostics.l2_error takes a sequence of fits and
    evaluates them all in one pass (polybasis.evaluate_expansions).
    """
    return evaluate_expansion(fit.basis, fit.index_set, pts, fit.coefficients)


def gram(pts, index_set, basis: BasisSpec,
         weights: WeightScheme = UNIT_WEIGHTS) -> np.ndarray:
    """Weighted Gram matrix A[n,k] = sum_i w_i Phi_n(y_i) Phi_k(y_i).

    Built from the scaled design matrix as B^T B with B = diag(sqrt(w)) D and
    symmetrized exactly; positive semidefinite by construction.
    """
    _, Dw = _scaled_design(pts, index_set, basis, weights)
    A = Dw.T @ Dw
    return (A + A.T) / 2.0
