import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilfit.diagnostics import l2_error, reference_projection
from weilfit.indexsets import (KINDS, IndexSet, as_indices, build_index_set,
                               td_cardinality, tp_cardinality)
from weilfit.lstsq import solve
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, basis_matrix,
                               eval_tensor)

SPECS = (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL)


def brute_force_set(kind, q, d):
    raw = itertools.product(range(q + 1), repeat=d)
    if kind == "TD":
        raw = (n for n in raw if sum(n) <= q)
    return sorted(raw, key=lambda n: (sum(n), n))


def test_worked_cardinalities():
    assert build_index_set("TD", 2, 2).N == 6
    assert build_index_set("TP", 3, 2).N == 16
    s = build_index_set("TD", 0, 5)
    assert s.N == 1 and list(s) == [(0, 0, 0, 0, 0)]


def test_cardinality_formulas_exhaustive():
    for q in range(7):
        for d in range(1, 5):
            tp = build_index_set("TP", q, d)
            td = build_index_set("TD", q, d)
            assert tp.N == (q + 1) ** d == tp_cardinality(q, d)
            assert td.N == math.comb(q + d, d) == td_cardinality(q, d)
            assert list(tp) == brute_force_set("TP", q, d)
            assert list(td) == brute_force_set("TD", q, d)


def test_td_subset_of_tp():
    for q in range(5):
        for d in range(1, 4):
            td = set(build_index_set("TD", q, d))
            tp = set(build_index_set("TP", q, d))
            assert td <= tp


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), q=st.integers(0, 12), d=st.integers(1, 6))
def test_array_matches_brute_force_in_canonical_order(kind, q, d):
    N = tp_cardinality(q, d) if kind == "TP" else td_cardinality(q, d)
    assume(N <= 2 * 10**5)
    arr = build_index_set(kind, q, d).array
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert np.array_equal(arr, np.array(brute_force_set(kind, q, d)).reshape(N, d))
    # consecutive rows strictly increase in (row sum, then lexicographic)
    steps = np.diff(np.column_stack([arr.sum(axis=1), arr]), axis=0)
    first = steps[np.arange(len(steps)), np.argmax(steps != 0, axis=1)]
    assert np.all(first > 0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_index_set("TD", 2, 0)
    with pytest.raises(ValueError):
        build_index_set("TD", -1, 2)
    with pytest.raises(ValueError):
        build_index_set("XX", 2, 2)


def test_index_set_larger_than_physical_memory_raises_before_allocating(monkeypatch):
    # 3*8*N*d bytes: 288 for TD(2, 2), 4608 for TP(3, 3) against a stand-in
    # memory size of 1000 bytes
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 1000)
    assert build_index_set("TD", 2, 2).N == 6
    with pytest.raises(ValueError, match=r"TP\(q=3, d=3\) needs .* physical memory"):
        build_index_set("TP", 3, 3)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**33)
    tracemalloc.start()
    try:
        for kind, q, d in (("TP", 20, 10), ("TD", 2**30, 3)):  # 1.7e13 and 1.9e26 rows
            with pytest.raises(ValueError, match="physical memory"):
                build_index_set(kind, q, d)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: None)
    assert build_index_set("TP", 3, 3).N == 64  # size unknown: no check


def test_as_indices_accepts_plain_sequences():
    got = as_indices([(1, 2), (0, 1)])
    assert got.tolist() == [[1, 2], [0, 1]]
    assert got.dtype == np.int64 and got.shape == (2, 2)
    s = build_index_set("TD", 1, 2)
    got = as_indices(s)
    assert got.tolist() == [list(n) for n in s]
    assert got.dtype == np.int64 and got.shape == (s.N, 2)
    with pytest.raises(ValueError):
        as_indices([])
    with pytest.raises(ValueError):
        as_indices([(1, 2), (1,)])
    with pytest.raises(ValueError):
        as_indices([(1, -2)])
    with pytest.raises(ValueError):
        as_indices([(1.5, 2)])


@pytest.mark.parametrize("raw, shape", [(np.array([1, 2]), "(2,)"),
                                        (np.zeros((2, 2, 2), dtype=int), "(2, 2, 2)")])
def test_as_indices_rejects_an_array_that_is_not_one_row_per_index(raw, shape):
    with pytest.raises(ValueError) as err:
        as_indices(raw)
    assert str(err.value) == f"expected a sequence of multi-indices, got shape {shape}"


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), q=st.integers(0, 4), d=st.integers(1, 3),
       spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1))
def test_index_set_forms_give_identical_results(kind, q, d, spec, seed):
    # An IndexSet, its tuples and its int array are one index set to every layer.
    s = build_index_set(kind, q, d)
    arr = as_indices(s)
    assert np.array_equal(arr, np.array(list(s))) and arr.dtype == np.int64
    assert not arr.flags.writeable and as_indices(s) is arr

    def target(y):
        return np.cos(y @ np.arange(1.0, d + 1))

    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4 * s.N + 8, d))
    f = target(pts)

    def outputs(form):
        fit = solve(pts, f, form, spec)
        return (basis_matrix(spec, form, pts), fit.coefficients,
                reference_projection(target, form, spec, q + 1),
                l2_error(fit, target, n_test=64, seed=seed).l2_error)

    want = outputs(s)
    for form in (list(s), np.array(list(s))):
        got = outputs(form)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), d=st.integers(1, 3), data=st.data())
def test_malformed_index_sets_raise(q, d, data):
    rows = [list(n) for n in build_index_set("TP", q, d)]
    j = data.draw(st.integers(0, len(rows) - 1))
    i = data.draw(st.integers(0, d - 1))
    flaw = data.draw(st.sampled_from(["empty", "ragged", "negative", "fraction"]))
    if flaw == "empty":
        rows = []
    elif flaw == "ragged":
        rows[j] = rows[j] + [0]
    elif flaw == "negative":
        rows[j][i] = -data.draw(st.integers(1, 2**62))
    else:
        rows[j][i] += 0.5
    forms = [[tuple(n) for n in rows]]
    if flaw != "ragged":
        forms.append(np.array(rows))
    pts = np.zeros((3, d))
    for form in forms:
        with pytest.raises(ValueError):
            as_indices(form)
        with pytest.raises(ValueError):
            basis_matrix(CHEBYSHEV_CLASSICAL, form, pts)
    if rows:
        with pytest.raises(ValueError):
            eval_tensor(CHEBYSHEV_CLASSICAL, rows[j], pts)


def test_index_set_container_protocol():
    s = build_index_set("TD", 2, 2)
    assert len(s) == 6
    # canonical order: total order first, then lexicographic; plain int tuples
    assert list(s) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert all(type(c) is int for n in s for c in n)
    assert isinstance(s, IndexSet)
