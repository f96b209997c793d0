"""Weighted discrete least squares in tensor polynomial bases.

The solver factors the row-scaled design matrix sqrt(w_i) * Phi_{n_j}(y_i)
with an SVD and never forms the normal equations; the Gram matrix
A = D^T diag(w) D is built only as a diagnostic object.  Conditioning is
reported both for the scaled design matrix (cond_D) and for the Gram matrix
(cond_A = cond_D**2), the latter being the quantity usually plotted in
stability studies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .indexsets import as_indices
from .pointgen import _choice, _values, check_memory, point_array
from .polybasis import BasisSpec, basis_matrix, evaluate_expansions

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
        _choice("weight kind", self.kind, WEIGHT_KINDS)
        if self.kind == "unit":
            if self.target_density is not None:
                raise ValueError("target_density is only meaningful for kind='density_ratio'")
        else:
            if self.target_density is None:
                object.__setattr__(self, "target_density", "uniform")
            _choice("target density", self.target_density, TARGET_DENSITIES)


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
    """Evaluate the weight vector on a point set (point_array's rule)."""
    arr = point_array(pts)
    w = _weights(scheme, arr)
    return np.ones(len(arr)) if w is None else w


def _weights(scheme, arr):
    """The weights on the checked points arr, or None where every one is 1."""
    if scheme.kind == "unit" or scheme.target_density == "chebyshev":
        return None
    return (math.pi / 2.0) ** arr.shape[1] * np.prod(np.sqrt(1.0 - arr * arr), axis=1)


def _scaled_design(arr, index_set, basis, weights, order="C"):
    """(sqrt(w), diag(sqrt(w)) D) on the checked points arr, with D built by
    basis_matrix in the memory `order` ("C" or "F") and scaled in place, so
    D is never held twice; (None, D) where every weight is 1."""
    Dw = basis_matrix(basis, index_set, arr, order)
    sw = _weights(weights, arr)
    if sw is not None:
        Dw *= np.sqrt(sw, out=sw)[:, None]
    return sw, Dw


def _condition_report(s, N) -> ConditionReport:
    """cond_D = s_max/s_min from the singular values s of an m x N scaled
    design; inf when m < N or s_min = 0."""
    cond_D = float(s[0] / s[-1]) if s.size == N and s[-1] > 0.0 else float("inf")
    return ConditionReport(cond_D, cond_D * cond_D)


@functools.lru_cache(maxsize=32)
def _strict_lower(N):
    """Read-only mask of the strict lower triangle of an N x N matrix.

    Cached because building it costs about as much as zeroing through it,
    and a Monte Carlo study factors hundreds of designs of each N."""
    mask = np.tri(N, N, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr_first(m, N):
    """Whether dgesdd QR-factors an m x N matrix before its SVD: m >= MNTHR
    = floor(11 N / 6).  The crossover is LAPACK's rule, fixed by the shape;
    it is not a tuning knob."""
    return m >= N * 11 // 6


def _lapack(routine, *args):
    """lapack_lite.routine(*args, work, lwork, info) with the optimal
    workspace from its query (the size dgesdd hands it, which fixes the
    block size and so the bits); LinAlgError when info != 0."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(int(work[0]))
    info = routine(*args, work, work.size, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info = {info}")


def condition(pts, index_set, basis: BasisSpec,
              weights: WeightScheme = UNIT_WEIGHTS) -> ConditionReport:
    """cond_D and cond_A of the scaled design matrix from its singular
    values alone (U and V are never formed).

    The scaled design is built column-major, so that _svd factors it in
    place from dgesdd's crossover on, and the singular values equal those
    of np.linalg.svd(D * sqrt(w)[:, None], compute_uv=False) bit for bit.
    ValueError before the design is built if 2*8*npts*N bytes exceed
    physical memory (below the crossover, D and the copy LAPACK factors).

    LAPACK reaches these singular values by another route than the full SVD
    in `solve`, so the two reports agree to a few ulps (about 1e-15
    relative), not bit for bit."""
    arr = point_array(pts)
    m, N = len(arr), as_indices(index_set).shape[0]
    check_memory(f"the condition number of the {m} x {N} design", 2 * 8 * m * N)
    _, Dw = _scaled_design(arr, index_set, basis, weights, order="F")
    return _condition_report(_svd(Dw, compute_uv=False), N)


def _svd(Dw, compute_uv=True):
    """U, s, Vt of the m x N matrix Dw, or s alone without compute_uv, bit
    for bit as np.linalg.svd(Dw, full_matrices=False, compute_uv=compute_uv)
    gives them, U row-major.

    Dw is column-major.  np.linalg.svd copies it into a column-major LAPACK
    buffer for dgesdd, with the same bits from either layout.  Below the
    crossover (see _qr_first) dgesdd bidiagonalizes that copy directly, a
    QR first would change the last bits, and Dw goes to np.linalg.svd
    untouched.  From the crossover on, Dw is overwritten and, with U,
    ends up holding U.  There dgesdd (path 3) factors Dw = QR, forms Q with
    dorgqr, takes the SVD R = Ur diag(s) Vt of the N x N triangular factor
    and multiplies Q by Ur with one dgemm.  These steps run here on Dw's own
    buffer; with Ur column-major, (Ur.T @ Q.T).T is that same dgemm, and
    other spellings of Q @ Ur differ in the last bits.  numpy then copies U
    row-major, which fixes the bits of U.T @ b; that copy goes into Q's
    buffer, as Q is spent.  So the m x N matrix is held once without U and
    twice with it (Q and dgemm's U), not four times (D, LAPACK's copy of it,
    LAPACK's U and numpy's)."""
    m, N = Dw.shape
    if not _qr_first(m, N):
        return np.linalg.svd(Dw, full_matrices=False, compute_uv=compute_uv)
    tau = np.empty(N)
    _lapack(lapack_lite.dgeqrf, m, N, Dw.T, m, tau)  # Dw.T: (N, m), C-contiguous
    R = Dw[:N].copy()
    np.copyto(R, 0.0, where=_strict_lower(N))
    if not compute_uv:
        return np.linalg.svd(R, compute_uv=False)
    Ur, s, Vt = np.linalg.svd(R)
    del R
    Ur = np.asfortranarray(Ur)
    _lapack(lapack_lite.dorgqr, m, N, N, Dw.T, m, tau)
    U = Dw.T.reshape(-1).reshape(m, N)  # Q's buffer, row-major
    U[...] = (Ur.T @ Dw.T).T
    return U, s, Vt


def solve(pts, fvals, index_set, basis: BasisSpec,
          weights: WeightScheme = UNIT_WEIGHTS) -> FitResult:
    """Solve the weighted discrete least-squares problem

        min_c sum_i w_i (f(y_i) - sum_j c_j Phi_{n_j}(y_i))^2 .

    Parameters
    ----------
    pts : SampleSet or (npts, d) array
    fvals : (npts,) values of the target at the points (the vector rule)
    index_set : IndexSet, sequence of multi-index tuples, or (N, d) int
        array (column order)
    basis, weights : basis convention and row-weight scheme

    Returns
    -------
    FitResult.  With Dw the scaled design and b = sqrt(w) f, the
    coefficients, residual and condition report are, bit for bit, those of
    U, s, Vt = np.linalg.svd(Dw, full_matrices=False), coeffs = Vt.T @
    ((U.T @ b) / s) and |b - Dw @ coeffs|.

    Dw is built column-major and _svd factors it; from dgesdd's crossover
    npts >= floor(11 N / 6) on, in place, leaving U in its buffer.  After
    the coefficients, U is freed and Dw rebuilt row-major for the residual.
    From the crossover on, the npts x N matrix is held twice at the peak,
    and the memory check is 8*(2*npts*N + 3*npts + 3*N*N) bytes: the design
    and U, the weights, values and scaled values (an upper bound where every
    weight is 1, as nothing is scaled then), and three N x N factors; that
    is tracemalloc's peak up to the design assembly's 256 KiB temporaries.
    Below the crossover it is 4*8*npts*N bytes: D, the copy LAPACK factors,
    and U twice (LAPACK's column-major U and numpy's row-major copy).

    Raises ValueError if npts < N (under-determined), if the points or
    values break their rule (point_array's, of the index set's dimension, or
    the vector rule), if the values overflow the solve (a coefficient or the
    residual is not finite), or, before D is built, if that check exceeds
    physical memory.  Raises SingularSystemError if the scaled design matrix
    has relative singular values below 1e-12 or its SVD does not converge.
    """
    arr = point_array(pts)
    m, N = len(arr), as_indices(index_set).shape[0]
    f = _values(fvals, m)
    if m < N:
        raise ValueError(f"under-determined system: {m} points for {N} basis functions")
    need = 8 * (2 * m * N + 3 * m + 3 * N * N) if _qr_first(m, N) else 4 * 8 * m * N
    check_memory(f"the {m} x {N} least-squares solve", need)
    sw, Dw = _scaled_design(arr, index_set, basis, weights, "F")
    try:
        U, s, Vt = _svd(Dw)
    except np.linalg.LinAlgError as err:
        if "did not converge" not in str(err):  # _lapack's: an illegal argument
            raise
        raise SingularSystemError(f"rank-deficient least-squares system ({err})",
                                  ConditionReport(math.inf, math.inf)) from err
    report = _condition_report(s, N)
    if not np.isfinite(report.cond_D) or s[-1] <= RANK_TOL * s[0]:
        raise SingularSystemError(
            f"rank-deficient least-squares system (cond_D = {report.cond_D:.3e})",
            report,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        bw = f if sw is None else f * sw
        coeffs = Vt.T @ ((U.T @ bw) / s)
        del U, Dw  # Dw may hold U; the residual's bits need Dw row-major
        Dw = basis_matrix(basis, index_set, arr)
        if sw is not None:
            Dw *= sw[:, None]
        r = bw - Dw @ coeffs
        residual = float(np.linalg.norm(r))
        if residual == math.inf and np.isfinite(r).all():  # |r|^2 past float range
            a = np.abs(r).max()
            residual = float(a * np.linalg.norm(r / a))
    if not (np.isfinite(coeffs).all() and math.isfinite(residual)):
        raise ValueError("the function values overflow the least-squares solve")
    return FitResult(coeffs, index_set, basis, residual, report)


def evaluate_fit(fit: FitResult, pts) -> np.ndarray:
    """Evaluate the fitted polynomial at new points, as an (npts,) array.

    The one-fit case of polybasis.evaluate_expansions: the points stream
    through row blocks of about 32768 entries of the design matrix, which is
    never held whole, and at one BLAS thread the values equal
    basis_matrix(...) @ fit.coefficients bit for bit.  Coefficients that
    break the vector rule raise ValueError.  To score several fits on one
    test sample, diagnostics.l2_error takes a sequence of fits and evaluates
    them all in one pass.
    """
    (values,) = evaluate_expansions(fit.basis, [fit.index_set], pts, [fit.coefficients])
    return values


def gram(pts, index_set, basis: BasisSpec,
         weights: WeightScheme = UNIT_WEIGHTS) -> np.ndarray:
    """Weighted Gram matrix A[n,k] = sum_i w_i Phi_n(y_i) Phi_k(y_i).

    B^T B with B = diag(sqrt(w)) D the scaled design: numpy's syrk mirrors
    one triangle, so A is exactly symmetric.  ValueError before B is built
    if 8*(m*N + 2*N*N) bytes exceed physical memory: B and A (tracemalloc's
    peak), and the copy of A that LAPACK takes in spectral_gap."""
    arr = point_array(pts)
    m, N = len(arr), as_indices(index_set).shape[0]
    check_memory(f"the {N} x {N} Gram matrix", 8 * (m * N + 2 * N * N))
    _, Dw = _scaled_design(arr, index_set, basis, weights)
    return Dw.T @ Dw
