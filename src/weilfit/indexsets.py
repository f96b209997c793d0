"""Multi-index sets for tensor-product and total-degree polynomial spaces.

An index set has one numeric format: a read-only (N, d) int64 array whose row
j is the multi-index of column j of the design matrix.  `IndexSet.array`
builds it once; `as_indices` is the one place that turns a caller's index set
(an IndexSet, a sequence of equal-length integer tuples, or an (N, d) integer
array) into it and rejects malformed input.  Every other module works on that
array.  `IndexSet.indices` keeps the tuples for printing and ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

KINDS = ("TP", "TD")

# Cardinalities beyond this are rejected outright: row/column counts must stay
# exactly representable as doubles and within any sane desk-scale budget.
MAX_CARDINALITY = 2**53


def total_order(n) -> int:
    """Sum of the entries of a multi-index."""
    return sum(n)


def order_less(a, b) -> bool:
    """Strict order on multi-indices: total order first, ties broken by the
    first differing coordinate.

    Raises ValueError if the two indices have different lengths.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: len {len(a)} vs {len(b)}")
    sa, sb = sum(a), sum(b)
    if sa != sb:
        return sa < sb
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _order_key(n):
    # Consistent with order_less: (total order, tuple lexicographic).
    return (sum(n), n)


@dataclass(frozen=True)
class IndexSet:
    """An ordered multi-index set.

    kind    -- "TP" (max_i n_i <= q) or "TD" (sum_i n_i <= q)
    q       -- order parameter
    d       -- number of coordinates
    indices -- tuple of d-tuples, sorted by order_less
    array   -- the indices as a read-only (N, d) int64 array, built once
    """

    kind: str
    q: int
    d: int
    indices: tuple

    @property
    def N(self) -> int:
        return len(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @cached_property
    def array(self) -> np.ndarray:
        return _to_array(self.indices)


def tp_cardinality(q: int, d: int) -> int:
    return (q + 1) ** d

def td_cardinality(q: int, d: int) -> int:
    return math.comb(q + d, d)


def _tp_indices(q, d):
    if d == 1:
        for n in range(q + 1):
            yield (n,)
    else:
        for head in range(q + 1):
            for tail in _tp_indices(q, d - 1):
                yield (head,) + tail


def _td_indices(q, d):
    if d == 1:
        for n in range(q + 1):
            yield (n,)
    else:
        for head in range(q + 1):
            for tail in _td_indices(q - head, d - 1):
                yield (head,) + tail


def build_index_set(kind: str, q: int, d: int) -> IndexSet:
    """Build the TP or TD multi-index set of order q in d coordinates,
    sorted by order_less.

    Rejects d < 1, q < 0, unknown kinds, and cardinalities above 2**53.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if kind not in KINDS:
        raise ValueError(f"unknown index set kind {kind!r}; expected one of {KINDS}")
    n_expected = tp_cardinality(q, d) if kind == "TP" else td_cardinality(q, d)
    if n_expected > MAX_CARDINALITY:
        raise ValueError(
            f"index set {kind}(q={q}, d={d}) has {n_expected} elements, "
            f"beyond the supported limit 2**53"
        )
    gen = _tp_indices(q, d) if kind == "TP" else _td_indices(q, d)
    indices = tuple(sorted(gen, key=_order_key))
    assert len(indices) == n_expected
    return IndexSet(kind, q, d, indices)


def _to_array(raw) -> np.ndarray:
    """Validate a sequence of multi-indices and return it as a read-only
    (N, d) int64 array."""
    try:
        arr = np.asarray(raw)
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


def as_indices(index_set) -> np.ndarray:
    """The index set as a read-only (N, d) int64 array, row j = the j-th
    multi-index.

    An IndexSet returns its cached `array` (no copy).  A plain sequence of
    equal-length integer tuples, or an (N, d) integer array, is validated and
    copied.  Raises ValueError on empty input, ragged lengths, negative
    entries, or entries of a non-integer type (1.5 and 1.0 alike).
    """
    if isinstance(index_set, IndexSet):
        return index_set.array
    return _to_array(index_set)
