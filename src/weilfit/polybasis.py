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
pass of the three-term recurrence.  One kernel builds D from these tables,
one block of about _BLOCK_ENTRIES entries at a time: it gathers whole table
rows and shares the products of index prefixes between the columns that
have them, multiplying the 1-d factors in coordinate order, so D equals
eval_tensor column by column to the last bit.  basis_matrix writes the blocks
into D; evaluate_expansions multiplies each block by the coefficients of
every expansion it is given at once, so each D @ c comes out without D ever
being held whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexsets import as_indices
from .pointgen import _choice, _integer, _values, check_memory, point_array

FAMILIES = ("chebyshev", "legendre")
NORMALIZATIONS = ("classical", "orthonormal")


@dataclass(frozen=True)
class BasisSpec:
    """A (family, normalization) pair; legendre+classical is rejected because
    the classical convention here is specific to the cosine form of Chebyshev."""

    family: str
    normalization: str

    def __post_init__(self):
        _choice("family", self.family, FAMILIES)
        _choice("normalization", self.normalization, NORMALIZATIONS)
        if self.family == "legendre" and self.normalization == "classical":
            raise ValueError(
                "legendre supports only the 'orthonormal' normalization"
            )


CHEBYSHEV_CLASSICAL = BasisSpec("chebyshev", "classical")
CHEBYSHEV_ORTHONORMAL = BasisSpec("chebyshev", "orthonormal")
LEGENDRE_ORTHONORMAL = BasisSpec("legendre", "orthonormal")


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
    term = np.empty(y.shape[0]) if qmax >= 2 else None
    for k in range(1, qmax):
        row = table[k + 1]  # ((2k+1) * y * P_k - k * P_{k-1}) / (k+1), in place
        np.multiply(y, 2 * k + 1, out=row)
        row *= table[k]
        row -= np.multiply(table[k - 1], k, out=term)
        row /= k + 1
    table *= np.sqrt(2.0 * n + 1.0)[:, None]
    return table


def eval_1d(family: str, normalization: str, n: int, y):
    """Evaluate the 1-d basis function of order n at y (scalar or array).

    Raises ValueError for y that break point_array's rule (none, complex,
    NaN or |y| > 1), an order n that is not a nonnegative int (bools
    included), or an invalid (family, normalization) pair.  The value is row
    n of the table of orders 0..n, so time and memory grow as n * len(y); it
    is the pointwise reference, meant for small orders.
    """
    spec = BasisSpec(family, normalization)  # validates the pair
    n = _integer("order n", n, 0)
    arr = np.asarray(y)
    vals = _tables(spec, point_array(arr.reshape(-1))[:, 0], n)[n]
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def eval_tensor(spec: BasisSpec, n, y):
    """Evaluate the tensor basis function prod_i phi_{n_i}(y^i).

    n is one multi-index of nonnegative ints, validated like a row of
    as_indices.  y is a single point (length-d) or an (npts, d) array, by
    point_array's rule with d = len(n).  The result is the coordinatewise
    product of eval_1d values, multiplied left to right.
    """
    n = as_indices([n])[0].tolist()
    arr = np.asarray(y)
    single = arr.ndim == 1
    pts = point_array(arr[None, :] if single else arr, len(n))
    acc = eval_1d(spec.family, spec.normalization, n[0], pts[:, 0])
    for i in range(1, len(n)):
        acc = acc * eval_1d(spec.family, spec.normalization, n[i], pts[:, i])
    return float(acc[0]) if single else acc


# Entries of D per block: 256 KiB of float64, so each block's temporaries
# stay in cache and far below D.  On the 50000 x 455 conv-eval test design,
# half and twice this size were slower.
_BLOCK_ENTRIES = 32768


def _levels(spec, idx, arr):
    """One (parent, value, table) triple per coordinate i.  table is the
    C-order (qmax+1, m) array with table[n, r] = phi_n(y_r^i); row k of
    level i is the product of level i-1's row parent[k] and table[value[k]].

    Level 0 has no parent: it is table[value] itself, every order 0..qmax
    (every index when d = 1).  Each middle level holds the distinct prefixes
    idx[:, :i+1] (np.unique, so only when d >= 3); the last level holds
    every index in column order.
    """
    d = idx.shape[1]
    qmax = int(idx.max())
    if d == 1:
        plan = [(None, idx[:, 0])]
    else:
        plan = [(None, np.arange(qmax + 1))]
        parent = idx[:, 0]  # row of each index's prefix in the latest level
        for i in range(1, d - 1):
            prefixes, first, inverse = np.unique(
                idx[:, :i + 1], axis=0, return_index=True, return_inverse=True)
            plan.append((parent[first], prefixes[:, i]))
            parent = inverse.reshape(-1)
        plan.append((parent, idx[:, -1]))
    return [level + (_tables(spec, arr[:, i], qmax),) for i, level in enumerate(plan)]


def _row_blocks(m, N):
    """Row slices covering range(m), of about _BLOCK_ENTRIES // N rows.

    At one thread, OpenBLAS gives the matrix-vector product of a block of D
    the same bits as the rows of the full D @ c when the block starts at a
    multiple of 4 and has at least 2 rows.  So the block length is a
    multiple of 4 (at least 4), and a lone last row is merged into the
    slice before it: numpy multiplies a 1-row matrix on another path, which
    changes the last bits.
    """
    size = max(4, _BLOCK_ENTRIES // N // 4 * 4)
    starts = list(range(0, m, size))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _fill(levels, rows, out):
    """Fill the block out = D[rows] with prefix products: level 0 gathers
    whole table rows over the block, and each later level gathers its own
    and multiplies them onto the rows of its parents.  The 1-d factors meet
    in coordinate order, as in eval_tensor, so every entry keeps its bits."""
    (_, value, table), *rest = levels
    P = np.take(table[:, rows], value, axis=0)
    for parent, value, table in rest:
        P = np.take(P, parent, axis=0)
        P *= np.take(table[:, rows], value, axis=0)
    out[...] = P.T


def basis_matrix(spec: BasisSpec, index_set, pts, order: str = "C") -> np.ndarray:
    """Design matrix D with D[i, j] = Phi_{n_j}(y_i).

    Columns follow the rows of `as_indices(index_set)` (an IndexSet, a
    sequence of multi-index tuples, or an (N, d) int array).  Each entry
    equals eval_tensor(spec, n_j, y_i) to the last bit: the same 1-d values
    are multiplied in the same coordinate order.  `order` is the memory
    layout of D: "C" (row-major, the default) or "F" (column-major, the
    layout LAPACK factors in place; lstsq.condition asks for it).  The
    entries are the same in both.  Raises ValueError for another order, for
    points that break point_array's rule or whose dimension is not the index
    set's, and, before anything large is built, when the 8*m*N bytes of D
    exceed the machine's physical memory.
    """
    if order not in ("C", "F"):
        raise ValueError(f"order must be 'C' or 'F', got {order!r}")
    idx = as_indices(index_set)
    arr = point_array(pts, idx.shape[1])
    m, N = arr.shape[0], idx.shape[0]
    check_memory(f"the {m} x {N} design matrix", 8 * m * N)
    levels = _levels(spec, idx, arr)
    D = np.empty((m, N), order=order)
    for rows in _row_blocks(m, N):
        _fill(levels, rows, D[rows])
    return D


def _columns(union, idx):
    """Where the basis functions of idx sit among the union's: a slice when
    idx is the union's leading rows (a TD set inside a larger TD set), else
    an int array.  ValueError when the union lacks an index of idx."""
    n = idx.shape[0]
    if np.array_equal(union[:n], idx):
        return slice(0, n)
    if idx.shape[1] != union.shape[1]:
        raise ValueError(f"index dimension {idx.shape[1]} != {union.shape[1]}")
    keys, inverse = np.unique(np.concatenate([union, idx]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    column = np.full(keys.shape[0], -1)
    column[inverse[:union.shape[0]]] = np.arange(union.shape[0])
    cols = column[inverse[union.shape[0]:]]
    if np.any(cols < 0):
        missing = tuple(idx[np.argmax(cols < 0)].tolist())
        raise ValueError(f"index {missing} is not in the largest index set, "
                         f"which must contain every other")
    return cols


def evaluate_expansions(spec: BasisSpec, index_sets, pts, coeffs):
    """Iterator over the values sum_j c_j Phi_{n_j}(y_i) of several
    expansions at the same points, one (m,) array per (index set, coeffs)
    pair, in order.

    The largest index set (the first of the most rows) is the union, and
    must contain every other; otherwise ValueError.  One pass builds the 1-d
    tables at the union's largest order once, fills each row block of the
    union's design once (see _row_blocks) and multiplies it by every
    expansion's coefficients: through a view of the leading columns when the
    expansion's indices are the union's leading rows (nested TD sets), else
    through a gathered copy of its columns.  So each array equals
    basis_matrix(spec, index_set, pts) @ coeffs bit for bit at one BLAS
    thread, and no design matrix is ever held whole.

    A pass holds at most d*(qmax+1) value arrays, as many as the tables
    have rows, so more expansions take more passes over the points and
    memory stays a small multiple of the tables: ValueError before the
    tables are built when their 8*m*d*(qmax+1) bytes and those of the value
    arrays one pass holds exceed the machine's physical memory.  Each array
    is handed over as it is yielded; the iterator keeps no reference to it.
    Every input is validated before the iterator is returned: the points by
    point_array's rule, of the union's dimension, and each coeffs by the
    vector rule (pointgen._values), a real, finite array of shape exactly
    (N,), N its set's size.
    """
    idxs = [as_indices(index_set) for index_set in index_sets]
    coeffs = list(coeffs)
    if not idxs or len(coeffs) != len(idxs):
        raise ValueError(f"{len(idxs)} index sets and {len(coeffs)} coefficient "
                         f"vectors; expected the same positive number")
    union = max(idxs, key=len)
    arr = point_array(pts, union.shape[1])
    columns = [_columns(union, idx) for idx in idxs]
    cs = [_values(c, idx.shape[0], "coeffs") for c, idx in zip(coeffs, idxs)]
    m, held = arr.shape[0], union.shape[1] * (int(union.max()) + 1)
    check_memory(f"the evaluation pass over {m} points",
                 8 * m * (held + min(len(cs), held)))
    return _passes(_levels(spec, union, arr), m, union.shape[0],
                   list(zip(columns, cs)), held)


def _passes(levels, m, N, expansions, held):
    """Yield the values of `expansions` ((cols, c) pairs), `held` per pass.
    np.take gathers columns into a C-order copy, matmul's layout for the bits
    of D @ c (block[:, cols] would be column-major); a slice stays a view."""
    blocks = _row_blocks(m, N)
    buf = np.empty((max(b.stop - b.start for b in blocks), N))
    for first in range(0, len(expansions), held):
        group = expansions[first:first + held]
        outs = [np.empty(m) for _ in group]
        for rows in blocks:
            block = buf[:rows.stop - rows.start]
            _fill(levels, rows, block)
            for (cols, c), out in zip(group, outs):
                part = block[:, cols] if isinstance(cols, slice) else np.take(block, cols, axis=1)
                np.matmul(part, c, out=out[rows])
        outs.reverse()
        while outs:
            yield outs.pop()

