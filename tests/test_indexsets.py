import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilfit.diagnostics import l2_error, reference_projection
from weilfit.indexsets import (KINDS, IndexSet, as_indices, build_index_set,
                               order_less, td_cardinality, total_order,
                               tp_cardinality)
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
    assert s.N == 1 and s.indices == ((0, 0, 0, 0, 0),)


def test_cardinality_formulas_exhaustive():
    for q in range(7):
        for d in range(1, 5):
            tp = build_index_set("TP", q, d)
            td = build_index_set("TD", q, d)
            assert tp.N == (q + 1) ** d == tp_cardinality(q, d)
            assert td.N == math.comb(q + d, d) == td_cardinality(q, d)
            assert list(tp.indices) == brute_force_set("TP", q, d)
            assert list(td.indices) == brute_force_set("TD", q, d)


def test_td_subset_of_tp():
    for q in range(5):
        for d in range(1, 4):
            td = set(build_index_set("TD", q, d).indices)
            tp = set(build_index_set("TP", q, d).indices)
            assert td <= tp


def test_order_less_examples():
    assert order_less((0, 1), (2, 0))
    assert not order_less((1, 1), (1, 1))
    # equal total order, tie broken by the first differing coordinate
    assert order_less((0, 2), (1, 1))
    assert not order_less((1, 1), (0, 2))


def test_order_less_brute_force_sort():
    raw = [n for n in itertools.product(range(3), repeat=2) if sum(n) == 2]
    import functools
    got = sorted(raw, key=functools.cmp_to_key(
        lambda a, b: -1 if order_less(a, b) else (1 if order_less(b, a) else 0)))
    assert got == [(0, 2), (1, 1), (2, 0)]


def test_order_less_is_strict_total_order():
    idx = build_index_set("TD", 2, 3).indices  # N = 10
    for a in idx:
        assert not order_less(a, a)
    for a, b in itertools.permutations(idx, 2):
        assert order_less(a, b) != order_less(b, a)  # antisymmetric and total
    for a, b, c in itertools.permutations(idx, 3):
        if order_less(a, b) and order_less(b, c):
            assert order_less(a, c)


def test_indices_sorted_under_order_less():
    for kind in ("TP", "TD"):
        s = build_index_set(kind, 3, 3)
        for a, b in zip(s.indices, s.indices[1:]):
            assert order_less(a, b)


def test_total_order():
    assert total_order((0, 0)) == 0
    assert total_order((3, 1, 2)) == 6


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_index_set("TD", 2, 0)
    with pytest.raises(ValueError):
        build_index_set("TD", -1, 2)
    with pytest.raises(ValueError):
        build_index_set("XX", 2, 2)
    with pytest.raises(ValueError):
        order_less((0, 1), (0, 1, 2))


def test_overflow_rejection():
    # 11**16 ~ 4.6e16 > 2**53
    with pytest.raises(ValueError):
        build_index_set("TP", 10, 16)
    # TD overflow: C(q+d, d) huge
    with pytest.raises(ValueError):
        build_index_set("TD", 2**30, 3)


def test_as_indices_accepts_plain_sequences():
    got = as_indices([(1, 2), (0, 1)])
    assert got.tolist() == [[1, 2], [0, 1]]
    assert got.dtype == np.int64 and got.shape == (2, 2)
    s = build_index_set("TD", 1, 2)
    got = as_indices(s)
    assert got.tolist() == [list(n) for n in s.indices]
    assert got.dtype == np.int64 and got.shape == (s.N, 2)
    with pytest.raises(ValueError):
        as_indices([])
    with pytest.raises(ValueError):
        as_indices([(1, 2), (1,)])
    with pytest.raises(ValueError):
        as_indices([(1, -2)])
    with pytest.raises(ValueError):
        as_indices([(1.5, 2)])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), q=st.integers(0, 4), d=st.integers(1, 3),
       spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1))
def test_index_set_forms_give_identical_results(kind, q, d, spec, seed):
    # An IndexSet, its tuples and its int array are one index set to every layer.
    s = build_index_set(kind, q, d)
    arr = as_indices(s)
    assert np.array_equal(arr, np.array(s.indices)) and arr.dtype == np.int64
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
    for form in (list(s.indices), np.array(s.indices)):
        got = outputs(form)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), d=st.integers(1, 3), data=st.data())
def test_malformed_index_sets_raise(q, d, data):
    rows = [list(n) for n in build_index_set("TP", q, d).indices]
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
    assert list(iter(s)) == list(s.indices)
    assert isinstance(s, IndexSet)
