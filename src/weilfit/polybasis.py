"""Tensor-product Chebyshev and Legendre polynomial bases.

Two normalizations are supported:

* "classical"   -- Chebyshev only: T_n(y) = cos(n*arccos(y)), so T_n(1) = 1.
* "orthonormal" -- unit norm under the family's natural probability density
                   (arcsine for Chebyshev, uniform on [-1,1] for Legendre):
                   Chebyshev: 1 for n=0, sqrt(2)*cos(n*arccos(y)) for n>=1;
                   Legendre:  sqrt(2n+1)*P_n(y).

One table routine computes every 1-d value.  Chebyshev values come from the
cosine representation, not a recurrence, so the classical values are exact
cosines of exact multiples of arccos(y); Legendre values come from a single
pass of the three-term recurrence.  basis_matrix gathers the rows of D from
these tables block by block, multiplying the 1-d factors in coordinate order,
so D equals eval_tensor column by column to the last bit.  evaluate_expansion
runs the same block loop but multiplies each block by the coefficients at
once, so D @ c comes out without D ever being held whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexsets import as_indices
from .pointgen import point_array

FAMILIES = ("chebyshev", "legendre")
NORMALIZATIONS = ("classical", "orthonormal")


@dataclass(frozen=True)
class BasisSpec:
    """A (family, normalization) pair; legendre+classical is rejected because
    the classical convention here is specific to the cosine form of Chebyshev."""

    family: str
    normalization: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}; "
                f"expected one of {NORMALIZATIONS}"
            )
        if self.family == "legendre" and self.normalization == "classical":
            raise ValueError(
                "legendre supports only the 'orthonormal' normalization"
            )


CHEBYSHEV_CLASSICAL = BasisSpec("chebyshev", "classical")
CHEBYSHEV_ORTHONORMAL = BasisSpec("chebyshev", "orthonormal")
LEGENDRE_ORTHONORMAL = BasisSpec("legendre", "orthonormal")


def check_domain(y) -> None:
    """Raise ValueError unless every coordinate is finite and in [-1, 1]."""
    if not np.all(np.abs(y) <= 1.0):  # also false for NaN
        bad = float(np.max(np.abs(y)))
        raise ValueError(f"evaluation points must lie in [-1,1]; max |y| = {bad}")


def _tables(spec, y, qmax):
    """(qmax+1, npts) table of 1-d values: row n holds phi_n(y).

    Chebyshev rows are cos(n*arccos(y)); Legendre rows come from one pass of
    the recurrence (k+1) P_{k+1} = (2k+1) y P_k - k P_{k-1}, scaled after it.
    """
    n = np.arange(qmax + 1)
    if spec.family == "chebyshev":
        table = n[:, None] * np.arccos(y)
        np.cos(table, out=table)
        if spec.normalization == "orthonormal":
            table[1:] *= np.sqrt(2.0)
        return table
    table = np.empty((qmax + 1, y.shape[0]))
    table[0] = 1.0
    if qmax >= 1:
        table[1] = y
    for k in range(1, qmax):
        table[k + 1] = ((2 * k + 1) * y * table[k] - k * table[k - 1]) / (k + 1)
    table *= np.sqrt(2.0 * n + 1.0)[:, None]
    return table


def eval_1d(family: str, normalization: str, n: int, y):
    """Evaluate the 1-d basis function of order n at y (scalar or array).

    Raises ValueError for |y| > 1 or NaN y, an order n that is not a
    nonnegative int (bools included), or an invalid (family, normalization)
    pair.  The value is row n of the table of orders 0..n, so
    time and memory grow as n * len(y); it is the pointwise reference, meant
    for small orders.
    """
    spec = BasisSpec(family, normalization)  # validates the pair
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"order n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"order n must be >= 0, got {n}")
    arr = np.asarray(y, dtype=float)
    check_domain(arr)
    scalar = arr.ndim == 0
    vals = _tables(spec, np.atleast_1d(arr), n)[n]
    return float(vals[0]) if scalar else vals


def eval_tensor(spec: BasisSpec, n, y):
    """Evaluate the tensor basis function prod_i phi_{n_i}(y^i).

    n is one multi-index of nonnegative ints, validated like a row of
    as_indices.  y is a single point (length-d) or an (npts, d) array.  The
    result is the coordinatewise product of eval_1d values, multiplied left to
    right.
    """
    n = as_indices([n])[0].tolist()
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == 1
    pts = arr[None, :] if single else point_array(arr)
    if pts.shape[1] != len(n):
        raise ValueError(f"point dimension {pts.shape[1]} != index dimension {len(n)}")
    acc = eval_1d(spec.family, spec.normalization, n[0], pts[:, 0])
    for i in range(1, len(n)):
        acc = acc * eval_1d(spec.family, spec.normalization, n[i], pts[:, i])
    return float(acc[0]) if single else acc


# Rows of D per gather; small, so the gather temporaries stay far below D.
# A multiple of 4, so every block starts at one (see _row_blocks).
_BLOCK = 256


def _prepare(spec, index_set, pts):
    """Validated (N, d) index array and the transposed 1-d tables: tables[i]
    is (m, qmax+1) with tables[i][r, n] = phi_n(y_r^i)."""
    idx = as_indices(index_set)
    arr = point_array(pts)
    if arr.shape[0] == 0:
        raise ValueError("empty point set")
    d = idx.shape[1]
    if arr.shape[1] != d:
        raise ValueError(f"point dimension {arr.shape[1]} != index dimension {d}")
    check_domain(arr)
    qmax = int(idx.max())
    return idx, [_tables(spec, arr[:, i], qmax).T for i in range(d)]


def _row_blocks(m):
    """Row slices of at most _BLOCK + 1 rows covering range(m).

    At one thread, OpenBLAS gives the matrix-vector product of a block of D
    the same bits as the rows of the full D @ c when the block starts at a
    multiple of 4 and has at least 2 rows.  So every slice starts at a
    multiple of _BLOCK, and a lone last row is merged into the slice before
    it: numpy multiplies a 1-row matrix on another path, which changes the
    last bits.
    """
    starts = list(range(0, m, _BLOCK))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _gather(idx, tables, rows, out):
    """Fill out[r, j] = prod_i tables[i][rows][r, idx[j, i]], multiplying the
    1-d factors in coordinate order."""
    np.take(tables[0][rows], idx[:, 0], axis=1, out=out)
    for i in range(1, idx.shape[1]):
        out *= np.take(tables[i][rows], idx[:, i], axis=1)


def basis_matrix(spec: BasisSpec, index_set, pts) -> np.ndarray:
    """Design matrix D with D[i, j] = Phi_{n_j}(y_i).

    Columns follow the rows of `as_indices(index_set)` (an IndexSet, a
    sequence of multi-index tuples, or an (N, d) int array).  Each entry
    equals eval_tensor(spec, n_j, y_i) to the last bit: the same 1-d values
    are multiplied in the same coordinate order.
    """
    idx, tables = _prepare(spec, index_set, pts)
    D = np.empty((tables[0].shape[0], idx.shape[0]))
    for rows in _row_blocks(D.shape[0]):
        _gather(idx, tables, rows, D[rows])
    return D


def evaluate_expansion(spec: BasisSpec, index_set, pts, coeffs) -> np.ndarray:
    """Values sum_j coeffs[j] Phi_{n_j}(y_i) at every point, as an (m,) array.

    Equal to basis_matrix(spec, index_set, pts) @ coeffs bit for bit at one
    BLAS thread (see _row_blocks), but D is never formed: each block of rows is gathered into one reusable buffer of
    _BLOCK + 1 rows and multiplied by coeffs straight into the output.  Memory
    is O(_BLOCK * N + d * (qmax+1) * m) instead of the m * N of D.  coeffs
    must hold one value per index.
    """
    idx, tables = _prepare(spec, index_set, pts)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (idx.shape[0],):
        raise ValueError(f"coeffs has shape {c.shape}; expected ({idx.shape[0]},)")
    out = np.empty(tables[0].shape[0])
    buf = np.empty((_BLOCK + 1, idx.shape[0]))
    for rows in _row_blocks(out.shape[0]):
        block = buf[:rows.stop - rows.start]
        _gather(idx, tables, rows, block)
        np.matmul(block, c, out=out[rows])
    return out
