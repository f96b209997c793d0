"""Multi-index sets for tensor-product and total-degree polynomial spaces.

An index set has one numeric format: a read-only (N, d) int64 array whose row
j is the multi-index of column j of the design matrix.  An IndexSet is only
that array, built and so validated by `build_index_set`.  `as_indices` is the
one place that turns a caller's index set (an IndexSet, a sequence of
equal-length integer tuples, or an (N, d) integer array) into it and rejects
malformed input.  Every other module works on that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointgen import _choice, _integer, check_memory

KINDS = ("TP", "TD")


@dataclass(frozen=True, eq=False)
class IndexSet:
    """An ordered multi-index set: `array`, the multi-indices as a
    read-only (N, d) int64 array, rows in canonical order (total order
    first, then lexicographic).

    The type records that build_index_set made, and so validated, the
    array: as_indices returns it without checking it again.  Iterating
    yields the rows as tuples of ints.
    """

    array: np.ndarray

    @property
    def N(self) -> int:
        return self.array.shape[0]

    def __len__(self) -> int:
        return self.array.shape[0]

    def __iter__(self):
        return map(tuple, self.array.tolist())


def tp_cardinality(q: int, d: int) -> int:
    """(q+1)^d; ValueError unless q >= 0 and d >= 1 are ints (_integer)."""
    q, d = _integer("q", q, 0), _integer("d", d, 1)
    return (q + 1) ** d

def td_cardinality(q: int, d: int) -> int:
    """binom(q+d, d); ValueError unless q >= 0 and d >= 1 are ints (_integer)."""
    q, d = _integer("q", q, 0), _integer("d", d, 1)
    return math.comb(q + d, d)


def build_index_set(kind: str, q: int, d: int) -> IndexSet:
    """Build the TP or TD multi-index set of order q in d coordinates, in
    canonical order (total order first, then lexicographic).

    The rows grow one coordinate at a time: each row is repeated once per
    admissible value of the next coordinate, in increasing order, which keeps
    the rows lexicographically sorted; one stable sort by row sum then gives
    the canonical order.  ValueError unless d >= 1 and q >= 0 are ints
    (_integer's rule: 2.0 and True are refused) and kind is one of KINDS;
    refuses a set whose build (about 3*8*N*d bytes) exceeds physical memory
    before anything is allocated.
    """
    d, q = _integer("d", d, 1), _integer("q", q, 0)
    _choice("index set kind", kind, KINDS)
    N = tp_cardinality(q, d) if kind == "TP" else td_cardinality(q, d)
    check_memory(f"the index set {kind}(q={q}, d={d})", 3 * 8 * N * d)
    rows = np.arange(q + 1, dtype=np.int64)[:, None]
    for _ in range(1, d):
        counts = np.full(len(rows), q + 1) if kind == "TP" else q + 1 - rows.sum(axis=1)
        last = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), last])
    array = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    array.flags.writeable = False
    return IndexSet(array)


def as_indices(index_set) -> np.ndarray:
    """The index set as a read-only (N, d) int64 array, row j = the j-th
    multi-index.

    An IndexSet returns its `array` (no copy, no check: build_index_set
    made it).  A plain sequence of equal-length integer tuples, or an (N, d)
    integer array, is validated and copied.  Raises ValueError on empty
    input, ragged lengths, negative entries, or entries of a non-integer
    type (1.5 and 1.0 alike).
    """
    if isinstance(index_set, IndexSet):
        return index_set.array
    try:
        arr = np.asarray(index_set)
    except ValueError:  # numpy refuses nested sequences of unequal lengths
        raise ValueError("ragged multi-index lengths") from None
    if arr.size == 0:
        raise ValueError("empty index set")
    if arr.ndim != 2:
        raise ValueError(f"expected a sequence of multi-indices, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"multi-index entries must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    if arr.min() < 0:
        n = tuple(arr[(arr < 0).any(axis=1)][0].tolist())
        raise ValueError(f"negative entry in multi-index {n}")
    arr.flags.writeable = False
    return arr
