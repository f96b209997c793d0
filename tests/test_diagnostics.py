import math

import numpy as np
import pytest

from weilfit.diagnostics import (ErrorReport, GramBoundReport,
                                 check_gram_bounds, l2_error,
                                 reference_projection, spectral_gap)
from weilfit.indexsets import build_index_set
from weilfit.lstsq import UNIT_WEIGHTS, WeightScheme, gram, solve
from weilfit.pointgen import weil_grid, weil_exponential_sum
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL)
from weilfit.targets import make


# ---------------------------------------------------------------------------
# Gram entry bounds

def brute_gram_entry(M, n, k):
    """Direct O(M d) evaluation of one Gram entry from the grid points."""
    g = weil_grid(M, len(n))
    cols = np.cos(np.asarray(n) * np.arccos(g.points)).prod(axis=1)
    colk = np.cos(np.asarray(k) * np.arccos(g.points)).prod(axis=1)
    return float(np.dot(cols, colk))


def test_check_gram_bounds_d2_report():
    idx = build_index_set("TP", 2, 2)
    r = check_gram_bounds(97, idx)
    assert isinstance(r, GramBoundReport)
    assert (r.M, r.d, r.q) == (97, 2, 2)
    assert r.offdiag_bound == (math.sqrt(97) + 1) / 2
    assert r.offdiag_pass and r.diag_pass and r.passed
    assert r.restricted_to_nonzero_indices
    assert r.n_diag_checked == 4  # (1,1),(1,2),(2,1),(2,2)
    lo, hi = r.diag_bounds
    assert lo == 97 / 8 - math.sqrt(97) / 2
    assert hi == 97 / 8 + math.sqrt(97) / 2
    assert lo - 1e-9 <= r.diag_min <= r.diag_max <= hi + 1e-9


def test_check_gram_bounds_offdiag_sharp_case():
    # at (d=2, M=97) the largest off-diagonal entry hits the bound to within
    # machine precision (a quadratic Gauss sum of exact magnitude sqrt(M))
    r = check_gram_bounds(97, build_index_set("TP", 2, 2))
    assert r.max_offdiag_abs <= r.offdiag_bound + 1e-9
    assert r.max_offdiag_abs > r.offdiag_bound - 1e-6


def test_check_gram_bounds_d1_diagonal_is_m_quarter_plus_half():
    # With d = 1 the slack (d-1)sqrt(M)/2 is zero while each diagonal entry
    # equals M/4 + 1/2 exactly, so the printed two-sided target fails; the
    # report must say so rather than paper over it.
    for M in (7, 11, 67, 97):
        r = check_gram_bounds(M, build_index_set("TD", 2, 1))
        assert abs(r.diag_min - (M / 4 + 0.5)) < 1e-12
        assert abs(r.diag_max - (M / 4 + 0.5)) < 1e-12
        assert not r.diag_pass
        assert r.offdiag_pass
        assert not r.passed


def test_check_gram_bounds_generalized_per_index():
    idx = build_index_set("TD", 2, 2)  # includes zero-component indices
    r = check_gram_bounds(97, idx, restrict_nonzero=False)
    assert not r.restricted_to_nonzero_indices
    assert r.n_diag_checked == len(idx)
    assert r.diag_pass and r.passed
    # the (0,0) diagonal entry is exactly the point count m = M//2 + 1
    A = gram(weil_grid(97, 2), idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    assert A[0, 0] == 49.0


def test_check_gram_bounds_vacuous_restricted_pass():
    # no index with all components nonzero -> the restricted check is vacuous
    r = check_gram_bounds(31, [(0, 0), (1, 0), (0, 2)])
    assert r.diag_pass
    assert r.n_diag_checked == 0
    assert math.isnan(r.diag_min) and math.isnan(r.diag_max)


def test_check_gram_bounds_requires_large_modulus():
    with pytest.raises(ValueError):
        check_gram_bounds(5, build_index_set("TD", 2, 1))  # needs M > 5


def test_gram_entry_matches_exponential_sum_identity():
    # The entry A[(1,0),(0,1)] sums cos(2*pi*j/M) cos(2*pi*j^2/M) over the
    # half period.  Expanding the product and folding j -> M-j reassembles
    # the full-period sum over e^{2*pi*i*(j+j^2)/M}, giving exactly
    # (Re S + 1)/2 with S the quadratic exponential sum for j + j^2.
    M = 31
    entry = brute_gram_entry(M, (1, 0), (0, 1))
    s = weil_exponential_sum([1, 1], M)
    assert abs(entry - (s.real + 1) / 2) < 1e-9
    # and Weil's bound caps it: |entry| <= (sqrt(M) + 1)/2
    assert abs(entry) <= (math.sqrt(M) + 1) / 2 + 1e-9


def test_d1_gram_is_identity_plus_rank_one():
    # In d = 1 every off-diagonal entry is exactly 1/2 (half-sum of a
    # vanishing linear character) and every diagonal is M/4 + 1/2, so
    # A = (M/4) I + (1/2) ones.
    M = 67
    idx = [(1,), (2,), (3,), (4,)]
    A = gram(weil_grid(M, 1), idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    want = (M / 4) * np.eye(4) + 0.5 * np.ones((4, 4))
    np.testing.assert_allclose(A, want, rtol=0, atol=1e-11)


def test_check_gram_bounds_sweep_d2_d3():
    for d, Ms in ((2, (31, 97, 499)), (3, (67, 499))):
        idx = build_index_set("TP", 2, d)
        for M in Ms:
            r = check_gram_bounds(M, idx)
            assert r.passed, (d, M)


# ---------------------------------------------------------------------------
# spectral gap

def test_spectral_gap_goldens():
    assert spectral_gap(67, [(1,), (2,)]) == 0.05970149253731342  # = 4/67
    got = spectral_gap(4099, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert got == 0.07242820039661467


def test_spectral_gap_d1_closed_form():
    # d = 1: A = (M/4) I + (1/2) ones exactly, so (4/M) A - I = (2/M) ones,
    # whose spectral norm is 2N/M.
    for M in (11, 67, 101):
        assert abs(spectral_gap(M, [(1,), (2,), (3,)]) - 6.0 / M) < 1e-12


def test_spectral_gap_below_half_under_modulus_rule():
    # M >= 4^{d+1} d^2 N^2 guarantees a gap below 1/2
    idx = [(1, 1), (1, 2), (2, 1), (2, 2)]
    M_min = 4 ** 3 * 2 ** 2 * len(idx) ** 2  # 4096
    assert spectral_gap(4099, idx) < 0.5


def test_spectral_gap_rejects_zero_components():
    with pytest.raises(ValueError):
        spectral_gap(67, [(1, 0), (1, 1)])


# ---------------------------------------------------------------------------
# reference projections

def test_reference_projection_recovers_polynomial():
    idx = build_index_set("TD", 3, 2)
    truth = np.zeros(len(idx))
    truth[1], truth[4] = -0.75, 1.5

    def poly(pts):
        from weilfit.polybasis import eval_tensor
        return sum(c * eval_tensor(CHEBYSHEV_ORTHONORMAL, n, pts)
                   for c, n in zip(truth, idx))

    got = reference_projection(poly, idx, CHEBYSHEV_ORTHONORMAL, level=8)
    np.testing.assert_allclose(got, truth, rtol=0, atol=1e-13)


def test_reference_projection_classical_norms():
    # project T_2(y1) itself: classical norm 2^{-1} must be divided out
    idx = [(0, 0), (2, 0)]

    def f(pts):
        return 2 * pts[:, 0] ** 2 - 1

    got = reference_projection(f, idx, CHEBYSHEV_CLASSICAL, level=6)
    np.testing.assert_allclose(got, [0.0, 1.0], rtol=0, atol=1e-14)


def test_reference_projection_legendre():
    idx = [(0,), (1,), (2,)]

    def f(pts):
        return pts[:, 0] ** 2

    # y^2 = 1/3 + (2/3) P_2; orthonormal scale sqrt(5) divides the P_2 part
    got = reference_projection(f, idx, LEGENDRE_ORTHONORMAL, level=5)
    np.testing.assert_allclose(got, [1 / 3, 0.0, 2 / (3 * math.sqrt(5))],
                               rtol=0, atol=1e-14)


def test_reference_projection_level_check():
    with pytest.raises(ValueError):
        reference_projection(lambda p: p[:, 0], [(0,), (3,)],
                             CHEBYSHEV_ORTHONORMAL, level=3)


def test_reference_projection_is_best_l2_approximation():
    # the projection error never exceeds the error of the discrete fit in the
    # same norm (here evaluated by fine quadrature)
    idx = build_index_set("TD", 8, 1)
    f = make("expsum", (-0.945,))
    proj = reference_projection(f, idx, CHEBYSHEV_ORTHONORMAL, level=60)
    fit = solve(weil_grid(1009, 1), f(weil_grid(1009, 1).points), idx,
                CHEBYSHEV_ORTHONORMAL, WeightScheme("density_ratio", "chebyshev"))
    L = 200
    nodes = np.cos((2 * np.arange(1, L + 1) - 1) * np.pi / (2 * L))[:, None]
    from weilfit.polybasis import basis_matrix
    B = basis_matrix(CHEBYSHEV_ORTHONORMAL, idx, nodes)
    err_proj = np.sqrt(np.mean((f(nodes) - B @ proj) ** 2))
    err_fit = np.sqrt(np.mean((f(nodes) - B @ fit.coefficients) ** 2))
    assert err_proj <= err_fit + 1e-15
    assert err_fit < 1.1 * err_proj  # the discrete fit is near-optimal here


def test_projection_coefficient_decay_for_analytic_target():
    # geometric decay of Chebyshev coefficients for an entire function
    idx = build_index_set("TD", 10, 1)
    f = make("expsum", (-0.945,))
    proj = reference_projection(f, idx, CHEBYSHEV_ORTHONORMAL, level=60)
    mags = np.abs(proj)
    ratios = mags[2:] / mags[1:-1]
    assert np.max(ratios) < 0.35


# ---------------------------------------------------------------------------
# error metric

def test_l2_error_report_fields_and_reproducibility():
    idx = build_index_set("TD", 6, 2)
    f = make("expsum", (-0.2779, 0.9986))
    g = weil_grid(499, 2)
    fit = solve(g, f(g.points), idx, CHEBYSHEV_ORTHONORMAL,
                WeightScheme("density_ratio", "chebyshev"))
    r1 = l2_error(fit, f)
    r2 = l2_error(fit, f, n_test=2000, seed=0)
    assert isinstance(r1, ErrorReport)
    assert r1 == r2  # the defaults: 2000 test points, seed 0
    assert r1.n_test == 2000 and l2_error(fit, f, n_test=7).n_test == 7
    assert 0 < r1.l2_error < 1e-4  # smooth target, q=6
    # a different test seed changes the estimate but not its order
    r3 = l2_error(fit, f, seed=1)
    assert r3.l2_error != r1.l2_error
    assert 0.2 < r3.l2_error / r1.l2_error < 5


def test_l2_error_zero_for_in_span_target():
    idx = build_index_set("TD", 2, 1)

    def f(pts):
        return 2 * pts[:, 0] ** 2 - 1

    g = weil_grid(67, 1)
    fit = solve(g, f(g.points), idx, CHEBYSHEV_CLASSICAL)
    assert l2_error(fit, f).l2_error < 1e-13
