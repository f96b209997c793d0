import math

import numpy as np
import pytest

from weilfit.indexsets import build_index_set
from weilfit.lstsq import (UNIT_WEIGHTS, ConditionReport, SingularSystemError,
                           WeightScheme, compute_weights, condition,
                           evaluate_fit, gram, solve)
from weilfit.pointgen import mc_sample, weil_grid
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, eval_tensor)
from weilfit.targets import make


def test_weight_scheme_validation():
    assert WeightScheme("unit").target_density is None
    assert WeightScheme("density_ratio").target_density == "uniform"
    assert WeightScheme("density_ratio", "chebyshev").target_density == "chebyshev"
    with pytest.raises(ValueError):
        WeightScheme("reciprocal")
    with pytest.raises(ValueError):
        WeightScheme("unit", "uniform")
    with pytest.raises(ValueError):
        WeightScheme("density_ratio", "gauss")


def test_compute_weights_values():
    pts = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 0.0]])
    w = compute_weights(WeightScheme("density_ratio", "uniform"), pts)
    # (pi/2)^2 * prod sqrt(1-y^2)
    np.testing.assert_allclose(
        w,
        [(math.pi / 2) ** 2,
         (math.pi / 2) ** 2 * 0.75,
         0.0],
        rtol=0, atol=1e-15)
    assert np.array_equal(compute_weights(UNIT_WEIGHTS, pts), np.ones(3))
    assert np.array_equal(
        compute_weights(WeightScheme("density_ratio", "chebyshev"), pts),
        np.ones(3))
    with pytest.raises(ValueError):
        compute_weights(UNIT_WEIGHTS, np.array([[1.5]]))
    with pytest.raises(ValueError):
        compute_weights(WeightScheme("density_ratio", "uniform"), np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# exact recovery of in-span targets

def test_solve_recovers_polynomial_exactly_weil():
    idx = build_index_set("TD", 3, 2)
    truth = np.zeros(len(idx))
    truth[0], truth[2], truth[5] = 1.25, -0.5, 2.0
    g = weil_grid(101, 2)
    fvals = sum(c * eval_tensor(CHEBYSHEV_ORTHONORMAL, n, g.points)
                for c, n in zip(truth, idx))
    fit = solve(g, fvals, idx, CHEBYSHEV_ORTHONORMAL)
    np.testing.assert_allclose(fit.coefficients, truth, rtol=0, atol=1e-12)
    assert fit.residual_norm < 1e-12
    assert isinstance(fit.condition_report, ConditionReport)
    assert fit.condition_report.cond_A == fit.condition_report.cond_D ** 2


def test_solve_recovers_polynomial_all_bases_weighted():
    idx = build_index_set("TP", 2, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    truth = rng.standard_normal(len(idx))
    pts = mc_sample("uniform", 400, 2, seed=11)
    schemes = [UNIT_WEIGHTS, WeightScheme("density_ratio", "uniform"),
               WeightScheme("density_ratio", "chebyshev")]
    for basis in (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL):
        D = np.column_stack([eval_tensor(basis, n, pts.points) for n in idx])
        fvals = D @ truth
        for scheme in schemes:
            fit = solve(pts, fvals, idx, basis, scheme)
            np.testing.assert_allclose(fit.coefficients, truth, rtol=0, atol=1e-10)


def test_solve_then_evaluate_round_trip():
    idx = build_index_set("TD", 4, 1)
    g = weil_grid(67, 1)
    f = make("cossum", (0.9,))
    fit = solve(g, f(g.points), idx, CHEBYSHEV_ORTHONORMAL,
                WeightScheme("density_ratio", "chebyshev"))
    test = np.linspace(-1, 1, 50)[:, None]
    resid = evaluate_fit(fit, test) - f(test)
    # smooth 1-d target, degree 4: uniform error well under 1e-3
    assert np.max(np.abs(resid)) < 1e-3


def test_solve_least_squares_optimality():
    # perturb the optimum in random directions; the weighted residual must rise
    idx = build_index_set("TD", 2, 2)
    g = weil_grid(67, 2)
    f = make("expsum", (0.3, -0.8))
    scheme = WeightScheme("density_ratio", "uniform")
    fit = solve(g, f(g.points), idx, LEGENDRE_ORTHONORMAL, scheme)
    D = np.column_stack([eval_tensor(LEGENDRE_ORTHONORMAL, n, g.points) for n in idx])
    w = compute_weights(scheme, g.points)

    def wres(c):
        r = f(g.points) - D @ c
        return float(np.sum(w * r * r))

    base = wres(fit.coefficients)
    assert abs(base - fit.residual_norm ** 2) < 1e-12 * max(1.0, base)
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(12):
        step = rng.standard_normal(len(idx)) * 1e-4
        assert wres(fit.coefficients + step) >= base


def test_solve_errors():
    idx = build_index_set("TD", 2, 1)  # N = 3
    pts = np.array([[0.1], [0.2]])
    with pytest.raises(ValueError, match="under-determined"):
        solve(pts, [1.0, 2.0], idx, CHEBYSHEV_CLASSICAL)
    pts = np.array([[0.1], [0.2], [0.3], [0.4]])
    with pytest.raises(ValueError, match="4 points but 3"):
        solve(pts, [1.0, 2.0, 3.0], idx, CHEBYSHEV_CLASSICAL)
    with pytest.raises(ValueError, match="finite"):
        solve(pts, [1.0, np.nan, 3.0, 4.0], idx, CHEBYSHEV_CLASSICAL)
    with pytest.raises(ValueError, match=r"\[-1,1\]"):
        solve(np.array([[0.1], [np.nan], [0.3], [0.4]]), [1.0, 2.0, 3.0, 4.0],
              idx, CHEBYSHEV_CLASSICAL)


def test_condition_matches_solve_and_is_inf_when_underdetermined():
    idx = build_index_set("TD", 4, 2)
    g = weil_grid(211, 2)
    scheme = WeightScheme("density_ratio", "uniform")
    got = condition(g, idx, LEGENDRE_ORTHONORMAL, scheme)
    want = solve(g, np.ones(g.n_points), idx, LEGENDRE_ORTHONORMAL, scheme).condition_report
    assert math.isclose(got.cond_D, want.cond_D, rel_tol=1e-12)
    assert math.isclose(got.cond_A, want.cond_A, rel_tol=1e-12)
    few = condition(weil_grid(11, 2), idx, LEGENDRE_ORTHONORMAL)  # m = 6 < N = 15
    assert few == ConditionReport(math.inf, math.inf)


def test_solve_singular_system():
    idx = build_index_set("TD", 2, 1)
    pts = np.array([[0.5], [0.5], [0.5], [0.5]])  # rank-1 design
    with pytest.raises(SingularSystemError) as err:
        solve(pts, [1.0, 1.0, 1.0, 1.0], idx, CHEBYSHEV_CLASSICAL)
    assert err.value.condition_report.cond_A >= 1e24 or not math.isfinite(
        err.value.condition_report.cond_A)


def test_boundary_point_zero_weight_is_dropped_gracefully():
    # y = 1 gets weight 0 under the uniform ratio; the fit must still succeed
    idx = build_index_set("TD", 1, 1)
    pts = np.array([[1.0], [0.0], [-0.5], [0.5]])
    fvals = 2.0 + 0.0 * pts[:, 0]
    fit = solve(pts, fvals, idx, CHEBYSHEV_CLASSICAL,
                WeightScheme("density_ratio", "uniform"))
    np.testing.assert_allclose(fit.coefficients, [2.0, 0.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gram matrices

def test_gram_matches_definition():
    idx = build_index_set("TD", 2, 2)
    g = weil_grid(31, 2)
    scheme = WeightScheme("density_ratio", "uniform")
    A = gram(g, idx, CHEBYSHEV_ORTHONORMAL, scheme)
    D = np.column_stack([eval_tensor(CHEBYSHEV_ORTHONORMAL, n, g.points) for n in idx])
    w = compute_weights(scheme, g.points)
    want = D.T @ (w[:, None] * D)
    np.testing.assert_allclose(A, want, rtol=0, atol=1e-12)
    assert np.array_equal(A, A.T)  # symmetrized exactly
    assert np.all(np.linalg.eigvalsh(A) >= -1e-12)


def test_gram_near_scaled_identity_on_fine_weil_grid():
    # With the orthonormal basis each diagonal entry is close to m = M//2 + 1,
    # so (2/M) * A approaches the identity as M grows.
    idx = build_index_set("TD", 2, 2)
    norms = []
    for M in (1009, 4099):
        A = gram(weil_grid(M, 2), idx, CHEBYSHEV_ORTHONORMAL)
        norms.append(np.linalg.norm((2.0 / M) * A - np.eye(len(idx)), 2))
    assert norms[0] < 0.2
    assert norms[1] < 0.07
    assert norms[1] < norms[0]
