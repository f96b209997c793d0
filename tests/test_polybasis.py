import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from weilfit.indexsets import build_index_set
from weilfit.lstsq import ConditionReport, FitResult, evaluate_fit
from weilfit.pointgen import weil_grid
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, BasisSpec, basis_matrix,
                               eval_1d, eval_tensor, evaluate_expansion)


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


# basis_matrix fills D in blocks of 256 rows; m runs to three blocks plus
# one so that block edges are crossed.
@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), kind=st.sampled_from(["TD", "TP"]),
       d=st.integers(1, 4), q=st.integers(0, 8),
       m=st.one_of(st.integers(1, 3 * 256 + 1),
                   st.sampled_from([255, 256, 257, 512, 513, 768, 769])),
       seed=st.integers(0, 2**32 - 1))
def test_basis_matrix_is_bit_identical_to_eval_tensor(spec, kind, d, q, m, seed):
    idx = build_index_set(kind, q, d)
    pts = _points(seed, m, d)
    D = basis_matrix(spec, idx, pts)
    assert D.flags.c_contiguous
    assert np.array_equal(D, np.column_stack([eval_tensor(spec, n, pts) for n in idx]))


# m at block edges: evaluate_expansion merges a lone last row (m = 257, 513,
# 769) into the block before it.  Products stay at or below 2**18 entries:
# OpenBLAS runs such a matrix-vector product on one thread whatever its thread
# count, while a larger one may be split across threads and get other bits.
@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), kind=st.sampled_from(["TD", "TP"]),
       d=st.integers(1, 4), q=st.integers(0, 6),
       m=st.sampled_from([1, 2, 3, 255, 256, 257, 511, 512, 513, 769]),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_evaluation_is_bit_identical_to_full_product(spec, kind, d, q, m, seed):
    idx = build_index_set(kind, q, d)
    assume(m * len(idx) <= 2**18)
    pts = _points(seed, m, d)
    c = np.random.default_rng(seed).standard_normal(len(idx))
    want = basis_matrix(spec, idx, pts) @ c
    assert np.array_equal(evaluate_expansion(spec, idx, pts, c), want)
    fit = FitResult(c, idx, spec, 0.0, ConditionReport(1.0, 1.0))
    assert np.array_equal(evaluate_fit(fit, pts), want)


def test_streamed_evaluation_matches_full_product_at_one_blas_thread():
    # a product big enough to be split across threads when more are allowed;
    # at one BLAS thread the study CSVs are reproducible and so must the bits be
    script = (
        "import numpy as np\n"
        "from weilfit import LEGENDRE_ORTHONORMAL as S, basis_matrix, build_index_set\n"
        "from weilfit.polybasis import evaluate_expansion\n"
        "idx = build_index_set('TD', 12, 3)\n"
        "pts = np.random.default_rng(5).uniform(-1, 1, (8 * 256 + 1, 3))\n"
        "c = np.random.default_rng(6).standard_normal(len(idx))\n"
        "assert np.array_equal(evaluate_expansion(S, idx, pts, c),\n"
        "                      basis_matrix(S, idx, pts) @ c)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_streamed_evaluation_never_holds_the_design_matrix():
    # the conv-eval test side: 50000 points, TD q=12 in d=3 (N = 455)
    idx = build_index_set("TD", 12, 3)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (50000, 3))
    c = np.ones(len(idx))
    tracemalloc.start()
    try:
        evaluate_expansion(LEGENDRE_ORTHONORMAL, idx, pts, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx) == 455
    assert peak < 50000 * 455 * 8 / 4


def test_evaluate_expansion_checks_coefficient_shape():
    idx = build_index_set("TD", 2, 2)
    pts = np.zeros((3, 2))
    for c in (np.ones(len(idx) + 1), np.ones((len(idx), 1))):
        with pytest.raises(ValueError, match="coeffs has shape"):
            evaluate_expansion(CHEBYSHEV_CLASSICAL, idx, pts, c)


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
