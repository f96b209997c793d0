import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blas_thread import run_python
from weilfit.indexsets import KINDS, build_index_set
from weilfit.lstsq import (UNIT_WEIGHTS, ConditionReport, SingularSystemError,
                           WeightScheme, compute_weights, condition,
                           evaluate_fit, gram, solve)
from weilfit.pointgen import mc_sample, nearest_prime, point_array, weil_grid
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, basis_matrix, eval_tensor)
from weilfit.study import GRIDS, StudyConfig, cell_points, realize_cell
from weilfit.targets import coefficients, make

SPECS = (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL)


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


@pytest.mark.parametrize("weights", [UNIT_WEIGHTS, WeightScheme("density_ratio")])
def test_lstsq_checks_its_points_once_and_basis_matrix_once_per_build(monkeypatch, weights):
    """condition and gram apply point_array once and build one design (2
    checks); solve builds two (3).  The weights reuse the checked points."""
    calls = []

    def counted(pts, d=None):
        calls.append(1)
        return point_array(pts, d)

    monkeypatch.setattr("weilfit.lstsq.point_array", counted)
    monkeypatch.setattr("weilfit.polybasis.point_array", counted)
    g, idx = weil_grid(101, 2), build_index_set("TD", 3, 2)
    for call, checks in ((lambda: condition(g, idx, LEGENDRE_ORTHONORMAL, weights), 2),
                         (lambda: gram(g, idx, LEGENDRE_ORTHONORMAL, weights), 2),
                         (lambda: solve(g, np.ones(51), idx, LEGENDRE_ORTHONORMAL,
                                        weights), 3)):
        calls.clear()
        call()
        assert len(calls) == checks


@pytest.mark.parametrize("call", [
    lambda pts, idx: condition(pts, idx, CHEBYSHEV_CLASSICAL),
    lambda pts, idx: solve(pts, np.zeros(len(pts)), idx, CHEBYSHEV_CLASSICAL),
    lambda pts, idx: gram(pts, idx, CHEBYSHEV_CLASSICAL)], ids=["condition", "solve", "gram"])
def test_points_of_another_dimension_are_refused_before_the_memory_check(monkeypatch, call):
    # 1000 bytes of stand-in memory would refuse the 100 x 6 design itself
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 1000)
    with pytest.raises(ValueError, match=r"^points have dimension 3, expected 2$"):
        call(np.zeros((100, 3)), build_index_set("TD", 2, 2))


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
    with pytest.raises(ValueError, match=r"^function values has shape \(3,\); expected \(4,\)$"):
        solve(pts, [1.0, 2.0, 3.0], idx, CHEBYSHEV_CLASSICAL)
    with pytest.raises(ValueError, match="finite"):
        solve(pts, [1.0, np.nan, 3.0, 4.0], idx, CHEBYSHEV_CLASSICAL)
    with pytest.raises(ValueError, match=r"\[-1,1\]"):
        solve(np.array([[0.1], [np.nan], [0.3], [0.4]]), [1.0, 2.0, 3.0, 4.0],
              idx, CHEBYSHEV_CLASSICAL)



@pytest.mark.parametrize("weights", [UNIT_WEIGHTS, WeightScheme("density_ratio")])
@pytest.mark.parametrize("q", [0, 3, 29])  # N = 1 and 4 above the crossover, 30 below
def test_solve_refuses_values_that_overflow(q, weights):
    # 1.7e308 at each of the 51 points of M = 101 overflows U.T @ b (and
    # sqrt(w) * f under the uniform density ratio): solve returned NaN or inf
    # coefficients with RuntimeWarnings, which this suite turns into errors
    grid, idx = weil_grid(101, 1), build_index_set("TD", q, 1)
    message = r"^the function values overflow the least-squares solve$"
    with pytest.raises(ValueError, match=message):
        solve(grid, np.full(51, 1.7e308), idx, CHEBYSHEV_CLASSICAL, weights)
    # finite coefficients and a residual whose square is past float range:
    # the norm rescales and the fit is the scaled fit's, scaled
    wild = 1e160 * (-1.0) ** np.arange(51)
    fit = solve(grid, wild, idx, CHEBYSHEV_CLASSICAL, weights)
    scaled = solve(grid, wild / 1e20, idx, CHEBYSHEV_CLASSICAL, weights)
    assert np.isfinite(fit.coefficients).all()
    assert math.isclose(fit.residual_norm, 1e20 * scaled.residual_norm, rel_tol=1e-12)

def test_condition_matches_solve_and_is_inf_when_underdetermined():
    idx = build_index_set("TD", 4, 2)
    g = weil_grid(211, 2)
    scheme = WeightScheme("density_ratio", "uniform")
    got = condition(g, idx, LEGENDRE_ORTHONORMAL, scheme)
    want = solve(g, np.ones(len(g.points)), idx, LEGENDRE_ORTHONORMAL, scheme).condition_report
    assert math.isclose(got.cond_D, want.cond_D, rel_tol=1e-12)
    assert math.isclose(got.cond_A, want.cond_A, rel_tol=1e-12)
    few = condition(weil_grid(11, 2), idx, LEGENDRE_ORTHONORMAL)  # m = 6 < N = 15
    assert few == ConditionReport(math.inf, math.inf)


# Largest order per (kind, d), so N stays at or below 330 (TD q=7, d=4, the
# largest cond-quad cell) and reaches past 128, where dgeqrf works in blocks.
_MAX_Q = {"TD": {1: 239, 2: 20, 3: 10, 4: 7}, "TP": {1: 239, 2: 14, 3: 5, 4: 3}}
# unit weights, weights of 1 by the density ratio (neither scales the design),
# and weights that do
_WEIGHTS = (UNIT_WEIGHTS, WeightScheme("density_ratio", "chebyshev"),
            WeightScheme("density_ratio", "uniform"))


@settings(max_examples=60, deadline=None, database=None)
@given(spec=st.sampled_from(SPECS), weights=st.sampled_from(_WEIGHTS),
       kind=st.sampled_from(KINDS), d=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def condition_equals_the_full_svd(spec, weights, kind, d, data, seed):
    """condition gives the cond_D and cond_A of np.linalg.svd of the scaled
    design, float for float, on both sides of dgesdd's QR crossover
    m = floor(11 N / 6).  Run at one BLAS thread (see the test below)."""
    idx = build_index_set(kind, data.draw(st.integers(0, _MAX_Q[kind][d])), d)
    N = len(idx)
    m = data.draw(st.sampled_from([N * 11 // 6 - 1, N * 11 // 6, N * 11 // 6 + 1,
                                   2 * N, 8 * N + 3]))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (max(m, 1), d))
    pts[rng.random(pts.shape) < 0.05] = 1.0  # zero weight under density_ratio
    B = basis_matrix(spec, idx, pts) * np.sqrt(compute_weights(weights, pts))[:, None]
    s = np.linalg.svd(B, compute_uv=False)
    cond_D = float(s[0] / s[-1]) if s.size == N and s[-1] > 0.0 else math.inf
    assert condition(pts, idx, spec, weights) == ConditionReport(cond_D, cond_D * cond_D)


def _run_at_one_blas_thread(script):
    return run_python("-c", script, path=("src", "tests")).stdout


def test_condition_equals_the_full_svd_at_one_blas_thread():
    _run_at_one_blas_thread("import test_lstsq\ntest_lstsq.condition_equals_the_full_svd()\n")


def _solve_by_the_full_svd(pts, f, idx, spec, weights):
    """(coefficients, residual_norm, report) by the SVD of the whole scaled
    design, or (None, None, report) when it is singular: solve's formula
    before it factored the design in place."""
    sw = np.sqrt(compute_weights(weights, pts))
    Dw = basis_matrix(spec, idx, pts)
    Dw *= sw[:, None]
    bw = f * sw
    try:
        U, s, Vt = np.linalg.svd(Dw, full_matrices=False)
    except np.linalg.LinAlgError:  # did not converge: singular, as in solve
        return None, None, ConditionReport(math.inf, math.inf)
    cond_D = float(s[0] / s[-1]) if s[-1] > 0.0 else math.inf
    report = ConditionReport(cond_D, cond_D * cond_D)
    if not math.isfinite(cond_D) or s[-1] <= 1e-12 * s[0]:
        return None, None, report
    coeffs = Vt.T @ ((U.T @ bw) / s)
    return coeffs, float(np.linalg.norm(bw - Dw @ coeffs)), report


@settings(max_examples=60, deadline=None, database=None)
@given(spec=st.sampled_from(SPECS), weights=st.sampled_from(_WEIGHTS),
       kind=st.sampled_from(KINDS), d=st.integers(1, 4),
       points=st.sampled_from(["weil", "mc", "repeated"]), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def solve_equals_the_full_svd(spec, weights, kind, d, points, data, seed):
    """solve gives the coefficients, residual_norm, cond_D and cond_A of the
    SVD of the whole scaled design, float for float, on both sides of
    dgesdd's QR crossover m = floor(11 N / 6), and raises
    SingularSystemError with the same report where that SVD is singular
    ("repeated": N - 1 distinct points, so rank below N).  Run at one BLAS
    thread (see the test below)."""
    idx = build_index_set(kind, data.draw(st.integers(0, _MAX_Q[kind][d])), d)
    N = len(idx)
    m = data.draw(st.sampled_from([max(N, N * 11 // 6 - 1), N * 11 // 6,
                                   N * 11 // 6 + 1, 2 * N, 8 * N + 3]))
    rng = np.random.default_rng(seed)
    if points == "weil":  # the first m rows of a grid with at least m
        M = nearest_prime(4 * m + 3)
        pts = weil_grid(M, d).points[:m]
    elif points == "mc":
        pts = rng.uniform(-1.0, 1.0, (m, d))
        pts[rng.random(pts.shape) < 0.05] = 1.0  # zero weight under density_ratio
    else:
        pts = rng.uniform(-1.0, 1.0, (max(N - 1, 1), d))[rng.integers(0, max(N - 1, 1), m)]
    f = np.cos(pts @ rng.standard_normal(d)) + 0.5
    coeffs, residual, report = _solve_by_the_full_svd(pts, f, idx, spec, weights)
    if coeffs is None:
        with pytest.raises(SingularSystemError) as err:
            solve(pts, f, idx, spec, weights)
        assert err.value.condition_report == report
        return
    fit = solve(pts, f, idx, spec, weights)
    assert np.array_equal(fit.coefficients, coeffs)
    assert fit.residual_norm == residual
    assert fit.condition_report == report


def test_solve_equals_the_full_svd_at_one_blas_thread():
    _run_at_one_blas_thread("import test_lstsq\ntest_lstsq.solve_equals_the_full_svd()\n")


def _svd_does_not_converge():
    """(pts, f, idx) whose design's SVD does not converge at one BLAS thread:
    TD q = 10, d = 3 (N = 286) at the crossover m = 524, rows drawn from 285
    distinct points as in the "repeated" case above, seed 9306."""
    idx = build_index_set("TD", 10, 3)
    rng = np.random.default_rng(9306)
    pts = rng.uniform(-1.0, 1.0, (285, 3))[rng.integers(0, 285, 524)]
    return pts, np.cos(pts @ rng.standard_normal(3)) + 0.5, idx


def solve_where_the_svd_does_not_converge():
    pts, f, idx = _svd_does_not_converge()
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        np.linalg.svd(basis_matrix(CHEBYSHEV_ORTHONORMAL, idx, pts), full_matrices=False)
    with pytest.raises(SingularSystemError) as err:
        solve(pts, f, idx, CHEBYSHEV_ORTHONORMAL)
    assert err.value.condition_report == ConditionReport(math.inf, math.inf)


def test_solve_where_the_svd_does_not_converge_is_singular():
    # numpy's LinAlgError left solve, a ValueError where the system is singular
    _run_at_one_blas_thread(
        "import test_lstsq\ntest_lstsq.solve_where_the_svd_does_not_converge()\n")


def test_fit_where_the_svd_does_not_converge_exits_3_without_output(tmp_path):
    # fit printed `error: SVD did not converge` and exited 2, as for bad input
    pts, f, _ = _svd_does_not_converge()
    points, values, out = tmp_path / "pts.csv", tmp_path / "vals.csv", tmp_path / "fit.csv"
    np.savetxt(points, np.column_stack([np.arange(len(pts)), pts]), fmt="%.17g",
               delimiter=",", header="j,y1,y2,y3", comments="")
    np.savetxt(values, f, fmt="%.17g")
    proc = run_python("-m", "weilfit.cli", "fit", "--points", str(points), "--values",
                      str(values), "--q", "10", "--out", str(out), returncode=3)
    assert proc.stderr == ("error: rank-deficient least-squares system "
                           "(SVD did not converge)\n")
    assert not out.exists()


@pytest.mark.parametrize("factor", [
    lambda pts, idx: condition(pts, idx, CHEBYSHEV_ORTHONORMAL),
    lambda pts, idx: solve(pts, np.ones(len(pts)), idx, CHEBYSHEV_ORTHONORMAL),
], ids=["condition", "solve"])
def test_svd_factors_in_place_from_the_crossover_on(monkeypatch, factor):
    # TD q=3, d=2: N = 10, crossover at m = 18.  From there np.linalg.svd
    # sees only the N x N triangular factor; below it, the whole design.
    idx = build_index_set("TD", 3, 2)
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    for m in (17, 18, 19, 200):
        factor(np.random.default_rng(m).uniform(-1.0, 1.0, (m, 2)), idx)
    assert shapes == [(17, 10), (10, 10), (10, 10), (10, 10)]


# The child's peak RSS in KiB.  VmHWM starts afresh at exec; ru_maxrss,
# the fallback where /proc is missing, keeps the high-water mark of the
# test process that spawned the child, which can hide the growth measured.
_PEAK_RSS = (
    "import resource\n"
    "def peak_rss():\n"
    "    try:\n"
    "        with open('/proc/self/status') as fh:\n"
    "            return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
    "    except OSError:\n"
    "        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
)


def test_condition_holds_the_design_once():
    # a 24000 x 330 design (63 MB): the peak grows by D and the 6 MB of 1-d
    # tables, not by a second copy of D
    ratio = float(_run_at_one_blas_thread(_PEAK_RSS + (
        "import numpy as np\n"
        "from weilfit import CHEBYSHEV_ORTHONORMAL as S, build_index_set\n"
        "from weilfit.lstsq import condition\n"
        "idx = build_index_set('TD', 7, 4)\n"
        "pts = np.random.default_rng(0).uniform(-1, 1, (24000, 4))\n"
        "condition(pts[:1000], idx, S)\n"
        "before = peak_rss()\n"
        "condition(pts, idx, S)\n"
        "print((peak_rss() - before) * 1024 / (8 * 24000 * len(idx)))\n")))
    assert ratio < 1.5


def test_solve_checks_the_memory_of_four_designs(monkeypatch):
    # below the crossover (m = 17 < floor(11 * 10 / 6) = 18): D, the copy
    # LAPACK factors and U twice; condition holds D once
    idx = build_index_set("TD", 3, 2)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (17, 2))
    design = 8 * 17 * len(idx)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 3 * design)
    condition(pts, idx, CHEBYSHEV_ORTHONORMAL)
    with pytest.raises(ValueError, match=r"^the 17 x 10 least-squares solve needs "):
        solve(pts, np.ones(17), idx, CHEBYSHEV_ORTHONORMAL)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 4 * design)
    solve(pts, np.ones(17), idx, CHEBYSHEV_ORTHONORMAL)


@pytest.mark.parametrize("m", [17, 200])  # TD q=3, d=2: N = 10, crossover at m = 18
def test_condition_checks_two_designs_before_building_one(m, monkeypatch):
    # below the crossover D and the copy LAPACK factors; basis_matrix checks
    # only D
    idx = build_index_set("TD", 3, 2)
    pts = np.random.default_rng(m).uniform(-1.0, 1.0, (m, 2))
    need = 2 * 8 * m * len(idx)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need)
    condition(pts, idx, CHEBYSHEV_ORTHONORMAL)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)

    def no_design(*args):
        raise AssertionError("the design was built")

    monkeypatch.setattr("weilfit.lstsq.basis_matrix", no_design)
    with pytest.raises(ValueError, match=rf"^the condition number of the {m} x 10 design "
                                         "needs .* physical memory$"):
        condition(pts, idx, CHEBYSHEV_ORTHONORMAL)


def _solve_check(m, N):
    """The bytes solve checks: from the crossover on, the design twice, 3
    vectors of m and 3 N x N matrices; below it, the design four times."""
    if m >= N * 11 // 6:
        return 8 * (2 * m * N + 3 * m + 3 * N * N)
    return 4 * 8 * m * N


# TD q=7, d=4: N = 330, the crossover is m = 605
@pytest.mark.parametrize("m", [604, 605, 4000])
def test_solve_peak_is_within_its_memory_check(m, monkeypatch):
    idx = build_index_set("TD", 7, 4)
    N = len(idx)
    pts = np.random.default_rng(m).uniform(-1.0, 1.0, (m, 4))
    f = np.cos(pts.sum(axis=1))
    need = _solve_check(m, N)
    tracemalloc.start()
    try:
        solve(pts, f, idx, LEGENDRE_ORTHONORMAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    if m >= 605:  # the design and U, formed next to it
        assert 2 * 8 * m * N < peak
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=rf"^the {m} x {N} least-squares solve needs "):
        solve(pts, f, idx, LEGENDRE_ORTHONORMAL)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need)
    solve(pts, f, idx, LEGENDRE_ORTHONORMAL)


def test_solve_holds_the_design_twice_from_the_crossover_on():
    # a 12000 x 330 design (32 MB): the peak grows by D and U, not by
    # LAPACK's copy of D and two copies of U as well
    ratio = float(_run_at_one_blas_thread(_PEAK_RSS + (
        "import numpy as np\n"
        "from weilfit import CHEBYSHEV_ORTHONORMAL as S, build_index_set\n"
        "from weilfit.lstsq import solve\n"
        "idx = build_index_set('TD', 7, 4)\n"
        "pts = np.random.default_rng(0).uniform(-1, 1, (12000, 4))\n"
        "f = np.cos(pts.sum(axis=1))\n"
        "solve(pts[:1000], f[:1000], idx, S)\n"
        "before = peak_rss()\n"
        "solve(pts, f, idx, S)\n"
        "print((peak_rss() - before) * 1024 / (8 * 12000 * len(idx)))\n")))
    assert ratio < 2.5


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
# invariances of the solve

CELLS = dict(spec=st.sampled_from(SPECS), kind=st.sampled_from(KINDS),
             d=st.integers(1, 3), q=st.integers(0, 6),
             grid=st.sampled_from(["weil", "mc_uniform"]), seed=st.integers(0, 2**32 - 1))


def _cell_fit(spec, kind, d, q, grid, seed):
    """Points, target values, index set and fit of one linear-scaling study cell."""
    cfg = StudyConfig(space=kind, d=d, scaling="linear", c=2.0, grid=grid, seed=seed)
    idx, _, m, M = realize_cell(cfg, q)
    pts = cell_points(cfg, q, m, M, 0).points
    f = make("expsum", coefficients("expsum", d))(pts)
    return pts, f, idx, solve(pts, f, idx, spec)


def _rounding_unit(fit):
    """64 cond_D eps ||coeffs||: the room a backward-stable solve has to move
    the coefficients under a change that leaves the problem the same."""
    eps = np.finfo(float).eps
    return 64 * fit.condition_report.cond_D * eps * np.linalg.norm(fit.coefficients)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), **CELLS)
def test_power_of_two_scaling_scales_coefficients_exactly(k, spec, kind, d, q, grid, seed):
    # the design matrix does not see the values, and a power of two scales
    # every later product and sum without rounding
    pts, f, idx, fit = _cell_fit(spec, kind, d, q, grid, seed)
    scaled = solve(pts, 2.0 ** k * f, idx, spec)
    assert np.array_equal(scaled.coefficients, 2.0 ** k * fit.coefficients)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.01, 100.0), **CELLS)
def test_scaling_and_row_permutation_leave_coefficients_within_rounding(
        a, spec, kind, d, q, grid, seed):
    pts, f, idx, fit = _cell_fit(spec, kind, d, q, grid, seed)
    unit = _rounding_unit(fit)
    scaled = solve(pts, a * f, idx, spec).coefficients
    assert np.linalg.norm(scaled - a * fit.coefficients) <= a * unit
    perm = np.random.default_rng(seed).permutation(len(pts))
    permuted = solve(pts[perm], f[perm], idx, spec).coefficients
    assert np.linalg.norm(permuted - fit.coefficients) <= unit


RECOVERY_TOL = 1e-10  # the acceptance gate's exact-recovery tolerance


@settings(max_examples=60, deadline=None, database=None)
@given(grid=st.sampled_from(GRIDS), kind=st.sampled_from(KINDS), spec=st.sampled_from(SPECS),
       weights=st.sampled_from([UNIT_WEIGHTS, WeightScheme("density_ratio", "uniform")]),
       d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_solve_recovers_every_basis_element_of_a_study_cell(grid, kind, spec, weights, d,
                                                            data, seed):
    # the values of basis function k on a cell (m >= N, the paper's quadratic
    # scaling) are fitted by basis function k alone.  A cell with fewer than N
    # rows of positive weight is singular and skipped: m = N with a boundary
    # row
    q = data.draw(st.integers(0, 4 if d < 3 else 3))
    cfg = StudyConfig(space=kind, d=d, grid=grid, seed=seed)
    idx, N, m, M = realize_cell(cfg, q)
    pts = cell_points(cfg, q, m, M, 0).points
    D = basis_matrix(spec, idx, pts)
    for k in range(N):
        try:
            fit = solve(pts, D[:, k], idx, spec, weights)
        except SingularSystemError:
            assert k == 0 and np.count_nonzero(compute_weights(weights, pts)) < N
            return
        assert np.max(np.abs(fit.coefficients - np.eye(N)[k])) <= RECOVERY_TOL


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
    assert np.array_equal(A, A.T)  # numpy's syrk mirrors one triangle
    assert np.all(np.linalg.eigvalsh(A) >= -1e-12)


def test_gram_checks_the_memory_of_its_design_and_two_gram_matrices(monkeypatch):
    # B and A are tracemalloc's peak, within the design's few 256 KiB block
    # temporaries; the check adds the N x N copy spectral_gap's LAPACK takes
    idx = build_index_set("TD", 30, 2)
    g = weil_grid(211, 2)
    held = 8 * (len(g.points) * len(idx) + len(idx) ** 2)
    need = held + 8 * len(idx) ** 2
    tracemalloc.start()
    try:
        gram(g, idx, CHEBYSHEV_ORTHONORMAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= peak < held + 2**18
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"^the 496 x 496 Gram matrix needs "):
        gram(g, idx, CHEBYSHEV_ORTHONORMAL)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need)
    gram(g, idx, CHEBYSHEV_ORTHONORMAL)


def test_gram_checks_its_memory_before_it_builds_the_design(monkeypatch):
    # one byte short of 8*(m*N + 2*N*N) is refused before basis_matrix runs
    idx = build_index_set("TD", 30, 2)
    g = weil_grid(211, 2)
    need = 8 * (len(g.points) * len(idx) + 2 * len(idx) ** 2)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)

    def no_design(*args):
        raise AssertionError("the design was built")

    monkeypatch.setattr("weilfit.lstsq.basis_matrix", no_design)
    with pytest.raises(ValueError, match=r"^the 496 x 496 Gram matrix needs "):
        gram(g, idx, CHEBYSHEV_ORTHONORMAL)


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
