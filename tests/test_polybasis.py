import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from blas_thread import run_python
from weilfit.indexsets import build_index_set
from weilfit.lstsq import ConditionReport, FitResult, evaluate_fit, solve
from weilfit.pointgen import weil_grid
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, _BLOCK_ENTRIES, BasisSpec,
                               basis_matrix, eval_1d, eval_tensor,
                               evaluate_expansions)


def test_basis_spec_validation():
    assert BasisSpec("chebyshev", "classical").family == "chebyshev"
    with pytest.raises(ValueError):
        BasisSpec("hermite", "classical")
    with pytest.raises(ValueError):
        BasisSpec("chebyshev", "monic")
    with pytest.raises(ValueError):
        BasisSpec("legendre", "classical")  # not offered: unnormalized P_n


# ---------------------------------------------------------------------------
# univariate values

def test_eval_1d_chebyshev_closed_forms():
    y = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
    assert np.array_equal(eval_1d("chebyshev", "classical", 0, y), np.ones(5))
    np.testing.assert_allclose(eval_1d("chebyshev", "classical", 1, y), y,
                               rtol=0, atol=1e-15)
    # T_2 = 2y^2 - 1, T_3 = 4y^3 - 3y
    np.testing.assert_allclose(eval_1d("chebyshev", "classical", 2, y),
                               2 * y**2 - 1, rtol=0, atol=1e-14)
    np.testing.assert_allclose(eval_1d("chebyshev", "classical", 3, y),
                               4 * y**3 - 3 * y, rtol=0, atol=1e-14)
    assert abs(eval_1d("chebyshev", "classical", 3, np.array([0.5]))[0] - (-1.0)) < 1e-15


def test_eval_1d_chebyshev_orthonormal_scaling():
    y = np.linspace(-1, 1, 11)
    t0 = eval_1d("chebyshev", "orthonormal", 0, y)
    assert np.array_equal(t0, np.ones(11))
    for n in (1, 2, 5):
        np.testing.assert_allclose(
            eval_1d("chebyshev", "orthonormal", n, y),
            np.sqrt(2) * eval_1d("chebyshev", "classical", n, y),
            rtol=0, atol=1e-14)


def test_eval_1d_chebyshev_against_numpy():
    y = np.linspace(-1, 1, 33)
    for n in range(9):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        np.testing.assert_allclose(eval_1d("chebyshev", "classical", n, y),
                                   npcheb.chebval(y, coef), rtol=0, atol=1e-13)


def test_eval_1d_legendre_against_numpy():
    y = np.linspace(-1, 1, 33)
    for n in range(9):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        np.testing.assert_allclose(
            eval_1d("legendre", "orthonormal", n, y),
            np.sqrt(2 * n + 1) * npleg.legval(y, coef),
            rtol=0, atol=1e-13)


def test_eval_1d_legendre_spot_value():
    # P_2(1/2) = (3/4 - 1)/2 = -1/8, orthonormal scale sqrt(5)
    v = eval_1d("legendre", "orthonormal", 2, np.array([0.5]))[0]
    assert abs(v - np.sqrt(5) * (-0.125)) < 1e-15


def test_eval_1d_domain_check():
    with pytest.raises(ValueError):
        eval_1d("chebyshev", "classical", 2, np.array([1.0000001]))
    with pytest.raises(ValueError):
        eval_1d("legendre", "orthonormal", 2, np.array([-2.0]))
    with pytest.raises(ValueError):
        eval_1d("chebyshev", "classical", -1, np.array([0.0]))


@pytest.mark.parametrize("n", [1.9, 2.0, True, np.bool_(True), "2", None])
def test_eval_1d_rejects_an_order_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="order n must be an int"):
        eval_1d("chebyshev", "classical", n, 0.3)


def test_eval_1d_accepts_numpy_int_orders():
    assert eval_1d("legendre", "orthonormal", np.int64(2), 0.3) == \
        eval_1d("legendre", "orthonormal", 2, 0.3)


# ---------------------------------------------------------------------------
# tensor products

def test_eval_tensor_is_product_of_factors():
    pts = np.array([[0.3, -0.7], [0.0, 1.0], [-1.0, 0.25]])
    n = (2, 3)
    for spec in (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL):
        got = eval_tensor(spec, n, pts)
        want = (eval_1d(spec.family, spec.normalization, 2, pts[:, 0])
                * eval_1d(spec.family, spec.normalization, 3, pts[:, 1]))
        assert np.array_equal(got, want)


def test_eval_tensor_single_point():
    # a single length-d tuple is one point, not d points
    v = eval_tensor(CHEBYSHEV_CLASSICAL, (1, 1), (0.5, 0.25))
    assert isinstance(v, float)
    assert abs(v - 0.5 * 0.25) < 1e-15


def test_eval_tensor_zero_index_is_one():
    pts = np.array([[0.1, 0.2, 0.3]])
    for spec in (CHEBYSHEV_CLASSICAL, LEGENDRE_ORTHONORMAL):
        assert eval_tensor(spec, (0, 0, 0), pts)[0] == 1.0


def test_eval_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_tensor(CHEBYSHEV_CLASSICAL, (1, 2), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# design matrices

def test_basis_matrix_columns_match_eval_tensor():
    idx = build_index_set("TD", 3, 2)
    pts = weil_grid(31, 2).points
    for spec in (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL):
        D = basis_matrix(spec, idx, pts)
        assert D.shape == (16, len(idx))
        for k, n in enumerate(idx):
            assert np.array_equal(D[:, k], eval_tensor(spec, n, pts))


SPECS = (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL)


def _points(seed, m, d):
    """m points in [-1,1]^d with about a fifth of the coordinates set to
    -1, 0 or 1."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (m, d))
    special = rng.random((m, d)) < 0.2
    pts[special] = rng.choice([-1.0, 0.0, 1.0], int(special.sum()))
    return pts


def _block_rows(N):
    # the documented block rule: about _BLOCK_ENTRIES // N rows, a multiple
    # of 4 and at least 4
    return max(4, _BLOCK_ENTRIES // N // 4 * 4)


@st.composite
def index_arrays(draw):
    """(N, d) index arrays: TD and TP sets as built, the same with rows
    shuffled or repeated or one coordinate spread out with gaps, and
    arbitrary entries.  d = 1 and q = 0 are included."""
    d, q = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    form = draw(st.sampled_from(["TD", "TP", "shuffled", "repeated", "gaps",
                                 "arbitrary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if form == "arbitrary":
        return rng.integers(0, q + 1, (draw(st.integers(1, 40)), d))
    idx = build_index_set("TP" if form == "TP" else "TD", q, d).array.copy()
    if form == "shuffled":
        rng.shuffle(idx)
    elif form == "repeated":
        idx = idx[rng.integers(0, len(idx), 2 * len(idx))]
    elif form == "gaps":
        idx[:, rng.integers(d)] *= 3
    return idx


def _rows_at_block_edges(data, N, small):
    """m = k * size(N) + r for r = 0, 1 (the lone last row merged into the
    block before it) and 2, or a small m."""
    size = _block_rows(N)
    return data.draw(st.one_of(
        st.integers(1, small),
        st.builds(lambda k, r: k * size + r, st.integers(1, 3), st.integers(0, 2))))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), idx=index_arrays(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_basis_matrix_is_bit_identical_to_eval_tensor(spec, idx, data, seed):
    m = _rows_at_block_edges(data, len(idx), 9)
    pts = _points(seed, m, idx.shape[1])
    D = basis_matrix(spec, idx, pts)
    assert D.flags.c_contiguous
    assert np.array_equal(D, np.column_stack([eval_tensor(spec, n, pts) for n in idx]))
    F = basis_matrix(spec, idx, pts, order="F")
    assert F.flags.f_contiguous
    assert np.array_equal(F, D)


def test_basis_matrix_rejects_an_unknown_order():
    with pytest.raises(ValueError, match="order must be 'C' or 'F'"):
        basis_matrix(CHEBYSHEV_CLASSICAL, [(0,), (1,)], np.zeros((3, 1)), order="X")


# Products stay at or below 2**18 entries: OpenBLAS runs such a
# matrix-vector product on one thread whatever its thread count, while a
# larger one may be split across threads and get other bits.
@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), idx=index_arrays(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_evaluation_is_bit_identical_to_full_product(spec, idx, data, seed):
    m = _rows_at_block_edges(data, len(idx), 3)
    assume(m * len(idx) <= 2**18)
    pts = _points(seed, m, idx.shape[1])
    c = np.random.default_rng(seed).standard_normal(len(idx))
    fit = FitResult(c, idx, spec, 0.0, ConditionReport(1.0, 1.0))
    assert np.array_equal(evaluate_fit(fit, pts), basis_matrix(spec, idx, pts) @ c)


def test_streamed_evaluation_matches_full_product_at_one_blas_thread():
    # a product big enough to be split across threads when more are allowed,
    # ending in a lone row; at one BLAS thread the study CSVs are
    # reproducible and so must the bits be
    m = 30 * _block_rows(455) + 1
    script = (
        "import numpy as np\n"
        "from weilfit import LEGENDRE_ORTHONORMAL as S, basis_matrix, build_index_set\n"
        "from weilfit.polybasis import evaluate_expansions\n"
        "idx = build_index_set('TD', 12, 3)\n"
        "assert len(idx) == 455\n"
        f"pts = np.random.default_rng(5).uniform(-1, 1, ({m}, 3))\n"
        "c = np.random.default_rng(6).standard_normal(len(idx))\n"
        "(values,) = evaluate_expansions(S, [idx], pts, [c])\n"
        "assert np.array_equal(values, basis_matrix(S, idx, pts) @ c)\n"
    )
    run_python("-c", script)


def test_streamed_evaluation_never_holds_the_design_matrix():
    # the conv-eval test side: 50000 points, TD q=12 in d=3 (N = 455).  The
    # bound is the 1-d tables, the output and a few block-sized temporaries;
    # one prefix level built over all m points at once would exceed it.
    m, d, q = 50000, 3, 12
    idx = build_index_set("TD", q, d)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (m, d))
    c = np.ones(len(idx))
    tracemalloc.start()
    try:
        list(evaluate_expansions(LEGENDRE_ORTHONORMAL, [idx], pts, [c]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx) == 455
    assert peak < 8 * (d * (q + 1) * m + m + 6 * _BLOCK_ENTRIES)


@st.composite
def nested_sets(draw):
    """Index sets inside one largest set: TD sets in TD(qmax) (the leading
    columns of it), or TP and TD sets in TP(qmax) (gathered columns), in
    random order and with repeated orders, as in a Monte Carlo study."""
    d, qmax = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["TD", "TP"]))
    members = draw(st.lists(st.tuples(st.sampled_from(["TD", kind]),
                                      st.integers(0, qmax)), max_size=8))
    sets = [build_index_set(k, q, d) for k, q in members]
    sets.insert(draw(st.integers(0, len(sets))), build_index_set(kind, qmax, d))
    return sets


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), sets=nested_sets(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_shared_pass_is_bit_identical_to_each_full_product(spec, sets, data, seed):
    N = max(len(s) for s in sets)
    m = _rows_at_block_edges(data, N, 3)
    assume(m * N <= 2**18)  # see the guard above
    pts = _points(seed, m, sets[0].array.shape[1])
    rng = np.random.default_rng(seed)
    cs = [rng.standard_normal(len(s)) for s in sets]
    got = list(evaluate_expansions(spec, sets, pts, cs))
    assert len(got) == len(sets)
    for values, s, c in zip(got, sets, cs):
        assert np.array_equal(values, basis_matrix(spec, s, pts) @ c)


def test_shared_pass_matches_full_products_at_one_blas_thread():
    # the conv-eval test side above the threading size: TD q = 1..12 in d = 3
    # (leading columns of TD(12)) and TP q = 1..4 (gathered), ending in a
    # lone row
    m = 30 * _block_rows(455) + 1
    script = (
        "import numpy as np\n"
        "from weilfit import LEGENDRE_ORTHONORMAL as S, basis_matrix, build_index_set\n"
        "from weilfit.polybasis import evaluate_expansions\n"
        "sets = [build_index_set('TD', q, 3) for q in range(1, 13)]\n"
        "sets += [build_index_set('TP', q, 3) for q in range(1, 5)]\n"
        f"pts = np.random.default_rng(5).uniform(-1, 1, ({m}, 3))\n"
        "cs = [np.random.default_rng(q).standard_normal(len(s)) for q, s in enumerate(sets)]\n"
        "got = list(evaluate_expansions(S, sets, pts, cs))\n"
        "assert len(got) == len(sets)\n"
        "for values, s, c in zip(got, sets, cs):\n"
        "    assert np.array_equal(values, basis_matrix(S, s, pts) @ c)\n"
    )
    run_python("-c", script)


def test_shared_pass_holds_at_most_one_vector_per_table_row():
    # 40 expansions at qmax = 6 in d = 2: 14 table rows, so at most 14 value
    # vectors at once and three passes.  The bound is the tables plus 14
    # vectors plus a few block-sized temporaries.
    m, d, q = 50000, 2, 6
    sets = [build_index_set("TD", k % (q + 1), d) for k in range(40)]
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (m, d))
    cs = [np.ones(len(s)) for s in sets]
    tracemalloc.start()
    try:
        for values in evaluate_expansions(LEGENDRE_ORTHONORMAL, sets, pts, cs):
            del values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = d * (q + 1)
    assert peak < 8 * (rows * m + rows * m + 6 * _BLOCK_ENTRIES)
    assert peak > 8 * (rows * m + (rows - 1) * m)  # the vectors are held


def test_shared_pass_rejects_sets_outside_the_largest_one():
    pts = np.zeros((5, 2))
    big, other = build_index_set("TD", 3, 2), build_index_set("TP", 2, 2)
    assert len(other) < len(big)  # but (2, 2) is not in TD(3)
    with pytest.raises(ValueError, match=r"index \(2, 2\) is not in the largest"):
        evaluate_expansions(CHEBYSHEV_CLASSICAL, [other, big], pts,
                            [np.ones(len(other)), np.ones(len(big))])
    with pytest.raises(ValueError, match="index dimension"):
        evaluate_expansions(CHEBYSHEV_CLASSICAL, [big, build_index_set("TD", 1, 3)],
                            pts, [np.ones(len(big)), np.ones(4)])
    with pytest.raises(ValueError, match="2 index sets and 1 coefficient"):
        evaluate_expansions(CHEBYSHEV_CLASSICAL, [big, big], pts, [np.ones(len(big))])


def test_evaluate_expansions_checks_coefficient_shape():
    idx = build_index_set("TD", 2, 2)
    pts = np.zeros((3, 2))
    for c in (np.ones(len(idx) + 1), np.ones((len(idx), 1))):
        with pytest.raises(ValueError, match="coeffs has shape"):
            evaluate_expansions(CHEBYSHEV_CLASSICAL, [idx], pts, [c])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_expansions_rejects_non_finite_coefficients(bad):
    idx = build_index_set("TD", 2, 2)
    c = np.ones(len(idx))
    c[3] = bad
    with pytest.raises(ValueError, match="coeffs must be finite"):
        evaluate_expansions(CHEBYSHEV_CLASSICAL, [idx], np.zeros((3, 2)), [c])


def test_design_and_expansions_reject_an_empty_point_set():
    idx = build_index_set("TD", 2, 2)
    with pytest.raises(ValueError, match="^empty point set$"):
        basis_matrix(CHEBYSHEV_CLASSICAL, idx, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^empty point set$"):
        evaluate_expansions(CHEBYSHEV_CLASSICAL, [idx], np.zeros((0, 2)), [np.ones(len(idx))])


def test_design_and_expansions_reject_points_of_another_dimension():
    idx = build_index_set("TD", 2, 2)
    with pytest.raises(ValueError, match=r"^points have dimension 3, expected 2$"):
        basis_matrix(CHEBYSHEV_CLASSICAL, idx, np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"^points have dimension 1, expected 2$"):
        evaluate_expansions(LEGENDRE_ORTHONORMAL, [idx], np.zeros(4), [np.ones(len(idx))])


def test_basis_matrix_larger_than_physical_memory_raises(monkeypatch):
    # 8*m*N bytes: 4800 for 100 points and TD(2, 2), N = 6, against stand-in
    # memory sizes just above and just below
    idx, pts = build_index_set("TD", 2, 2), np.zeros((100, 2))
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 4800)
    assert basis_matrix(CHEBYSHEV_CLASSICAL, idx, pts).shape == (100, 6)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 4799)
    with pytest.raises(ValueError, match="100 x 6 design matrix needs .* physical memory"):
        basis_matrix(CHEBYSHEV_CLASSICAL, idx, pts)
    with pytest.raises(ValueError, match="physical memory"):
        solve(pts, np.zeros(100), idx, CHEBYSHEV_CLASSICAL)


def test_evaluation_pass_checks_its_memory_before_building_the_tables(monkeypatch):
    # 8*m*(rows + min(k, rows)) bytes for k expansions, rows = d*(qmax+1):
    # the 1-d tables and the value vectors one pass holds.  One TD q = 12 fit
    # in d = 3 (39 table rows) on 40000 points peaks at the check plus a few
    # block-sized temporaries
    m, d, q = 40000, 3, 12
    idx = build_index_set("TD", q, d)
    rng = np.random.default_rng(0)
    fit = solve(rng.uniform(-1.0, 1.0, (2000, d)), rng.standard_normal(2000), idx,
                LEGENDRE_ORTHONORMAL)
    pts = rng.uniform(-1.0, 1.0, (m, d))
    need = 8 * m * (d * (q + 1) + 1)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need)
    tracemalloc.start()
    try:
        evaluate_fit(fit, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert need <= peak <= need + 6 * 8 * _BLOCK_ENTRIES
    # 40 expansions at qmax = 6 in d = 2 hold 14 value vectors, one per row
    sets = [build_index_set("TD", k % 7, 2) for k in range(40)]
    cs = [np.ones(len(s)) for s in sets]
    small = np.zeros((100, 2))
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 8 * 100 * (14 + 14))
    assert len(list(evaluate_expansions(LEGENDRE_ORTHONORMAL, sets, small, cs))) == 40

    def no_tables(*args):
        raise AssertionError("the 1-d tables were built")

    monkeypatch.setattr("weilfit.polybasis._tables", no_tables)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"^the evaluation pass over 40000 points needs "):
        evaluate_fit(fit, pts)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 8 * 100 * 28 - 1)
    with pytest.raises(ValueError, match=r"^the evaluation pass over 100 points needs "):
        evaluate_expansions(LEGENDRE_ORTHONORMAL, sets, small, cs)


def _legendre_restarted(y, n):
    # P_n alone: the recurrence (k+1) P_{k+1} = (2k+1) y P_k - k P_{k-1}
    # run from P_0 up to order n, as a reference for the one-pass table
    p_prev = np.ones_like(y)
    if n == 0:
        return p_prev
    p = y.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * y * p - k * p_prev) / (k + 1), p
    return p


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 20),
       y=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                            st.floats(-1.0, 1.0)), min_size=1, max_size=40))
def test_legendre_rows_match_restarted_recurrence(n, y):
    y = np.array(y)
    assert np.array_equal(eval_1d("legendre", "orthonormal", n, y),
                          np.sqrt(2.0 * n + 1.0) * _legendre_restarted(y, n))


def test_basis_matrix_first_column_constant():
    idx = build_index_set("TP", 2, 3)
    pts = weil_grid(53, 3).points
    D = basis_matrix(CHEBYSHEV_ORTHONORMAL, idx, pts)
    assert np.all(D[:, 0] == 1.0)


def test_basis_matrix_accepts_plain_index_list():
    pts = np.array([[0.5], [-0.25]])
    D = basis_matrix(CHEBYSHEV_CLASSICAL, [(0,), (1,), (2,)], pts)
    np.testing.assert_allclose(D, [[1, 0.5, -0.5], [1, -0.25, -0.875]],
                               rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# orthonormality oracles (quadrature, independent of the fitting code)

def test_chebyshev_orthonormal_under_arcsine_measure():
    L = 64
    nodes = np.cos((2 * np.arange(1, L + 1) - 1) * np.pi / (2 * L))
    idx = build_index_set("TD", 4, 1)
    D = basis_matrix(CHEBYSHEV_ORTHONORMAL, idx, nodes[:, None])
    G = D.T @ D / L
    np.testing.assert_allclose(G, np.eye(len(idx)), rtol=0, atol=1e-13)


def test_legendre_orthonormal_under_uniform_measure():
    nodes, wts = np.polynomial.legendre.leggauss(32)
    idx = build_index_set("TD", 4, 1)
    D = basis_matrix(LEGENDRE_ORTHONORMAL, idx, nodes[:, None])
    G = (D * wts[:, None]).T @ D / 2.0  # uniform density on [-1,1] is 1/2
    np.testing.assert_allclose(G, np.eye(len(idx)), rtol=0, atol=1e-13)


def test_tensor_orthonormality_2d():
    L = 24
    nodes = np.cos((2 * np.arange(1, L + 1) - 1) * np.pi / (2 * L))
    xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    idx = build_index_set("TD", 3, 2)
    D = basis_matrix(CHEBYSHEV_ORTHONORMAL, idx, pts)
    G = D.T @ D / pts.shape[0]
    np.testing.assert_allclose(G, np.eye(len(idx)), rtol=0, atol=1e-12)
