import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from weilfit.diagnostics import (ErrorReport, GramBoundReport, check_bounds,
                                 check_gram_bounds, l2_error,
                                 reference_projection, spectral_gap)
from weilfit.indexsets import as_indices, build_index_set
from weilfit.lstsq import UNIT_WEIGHTS, WeightScheme, condition, gram, solve
from weilfit.pointgen import is_prime, weil_grid, weil_exponential_sum
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, _BLOCK_ENTRIES, evaluate_expansions)
from weilfit.study import StudyConfig, realize_cell
from weilfit.targets import TARGET_NAMES, coefficients, make


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



_ODD_PRIMES = [p for p in range(3, 1100) if is_prime(p)]


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), space=st.sampled_from(["TD", "TP"]), data=st.data())
def test_gram_bounds_hold_on_random_pairs(d, space, data):
    # any odd prime M > 2q+1, the smallest ones included; M = 2 is below
    q = data.draw(st.integers(0, {1: 12, 2: 7, 3: 4}[d]), label="q")
    admissible = [p for p in _ODD_PRIMES if p > 2 * q + 1]
    M = data.draw(st.one_of(st.sampled_from(admissible[:3]), st.sampled_from(admissible)),
                  label="M")
    idx = build_index_set(space, q, d)
    restricted, every = check_gram_bounds(M, idx), check_gram_bounds(M, idx, False)
    if d >= 2:
        assert restricted.passed and every.passed
        return
    # d = 1: the radius is 0 and each diagonal entry is its target + 1/2
    assert restricted.offdiag_pass and every.offdiag_pass and not every.diag_pass
    A = gram(weil_grid(M, 1), idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    target = M / 2.0 ** (np.count_nonzero(as_indices(idx), axis=1) + 1)
    np.testing.assert_allclose(np.diag(A), target + 0.5, rtol=0, atol=1e-9)


def test_gram_bounds_at_the_even_prime():
    # M = 2 (admissible at q = 0 only) has m = 2 = M/2 + 1 rows, so the
    # (0,...,0) entry is 2, and the generalized target 1 +- (d-1)sqrt(2)/2
    # misses it at d = 2; the restricted check has no index to test
    for d, passes in ((1, False), (2, False), (3, True)):
        r = check_gram_bounds(2, build_index_set("TD", 0, d), restrict_nonzero=False)
        assert (r.diag_min, r.diag_pass) == (2.0, passes)
        assert check_gram_bounds(2, build_index_set("TD", 0, d)).passed


def _stability_bound(M, N, d):
    """The paper's a-priori bound on cond_A for orthonormal Chebyshev with
    unit weights on weil_grid(M, d), odd prime M > 2q+1: inf unless M/2 > R.

    Scaled to the orthonormal basis (by a factor of at most 2^d), the Gram
    entry bounds put every off-diagonal entry, and every diagonal entry's
    distance from M/2, below 2^(d-1) ((d-1) sqrt(M) + 1); so by Gershgorin
    every eigenvalue of A lies within R = N 2^(d-1) ((d-1) sqrt(M) + 1) of
    M/2."""
    R = N * 2 ** (d - 1) * ((d - 1) * math.sqrt(M) + 1)
    return (M / 2 + R) / (M / 2 - R) if M / 2 > R else math.inf


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), space=st.sampled_from(["TD", "TP"]), data=st.data())
def test_cond_a_meets_the_paper_stability_bound(d, space, data):
    q = data.draw(st.integers(0, {1: 12, 2: 4, 3: {"TD": 2, "TP": 1}[space]}[d]), label="q")
    idx = build_index_set(space, q, d)
    N = len(idx)
    # M/2 > R is sqrt(M) > (a + sqrt(a^2 + 4b)) / 2 with R = (a sqrt(M) + b) / 2:
    # draw M from there on, so that no bound is inf
    a, b = N * 2 ** d * (d - 1), N * 2 ** d
    M_min = int(((a + math.sqrt(a * a + 4 * b)) / 2) ** 2)
    M = data.draw(st.integers(M_min, {1: 10**5, 2: 4 * M_min, 3: 2 * M_min}[d]), label="M")
    while not (is_prime(M) and math.isfinite(_stability_bound(M, N, d))):
        M += 1
    assert M > 2 * q + 1
    cond_A = condition(weil_grid(M, d), idx, CHEBYSHEV_ORTHONORMAL).cond_A
    assert cond_A <= _stability_bound(M, N, d), (M, cond_A)


# ---------------------------------------------------------------------------
# the check-bounds suites

def test_check_bounds_records():
    grams, gaps, sums = check_bounds([1, 2], [0, 48])
    # the first prime above 2q+1, then 97 and 997 where they exceed 2q+1
    assert [(r.d, r.q, r.M) for r in grams] == [
        (1, 0, 2), (1, 0, 97), (1, 0, 997), (1, 48, 101), (1, 48, 997),
        (2, 0, 2), (2, 0, 97), (2, 0, 997), (2, 48, 101), (2, 48, 997)]
    assert grams[4] == check_gram_bounds(997, build_index_set("TD", 48, 1))
    assert [r.passed for r in grams] == [True] * 3 + [False] * 2 + [True] * 5
    assert gaps == [(1, 67, 0.05970149253731342, True),
                    (2, 4099, 0.07242820039661467, True)]
    assert len(sums) == 48 and all(sums)
    assert check_bounds([2], [1], seed=7)[2] == [True] * 48


def test_check_bounds_refuses_a_negative_seed_before_reading_its_lists():
    def unread():
        raise AssertionError("read before the seed check")
        yield

    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        check_bounds(unread(), unread(), seed=-3)


def test_check_bounds_flags_the_exponential_sums_it_draws(monkeypatch):
    # a sum just above (deg-1) sqrt(M) + FP_TOL fails; one at it passes
    drawn = []

    def at_the_bound(coeffs, M, slack):
        drawn.append((len(coeffs), M))
        return (len(coeffs) - 1) * math.sqrt(M) + slack

    for slack, want in ((1e-9, True), (2e-9, False)):
        monkeypatch.setattr("weilfit.diagnostics.weil_exponential_sum",
                            lambda coeffs, M: at_the_bound(coeffs, M, slack))
        drawn.clear()
        assert check_bounds([2], [1], seed=3)[2] == [want] * 48
        assert {M for _, M in drawn} <= {101, 499, 997, 2309, 10007}
        assert {deg for deg, _ in drawn} <= set(range(1, 7)) and len(drawn) == 48


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


def test_spectral_gap_holds_no_more_than_gram_checks(monkeypatch):
    # N = 900 > m = 106, so the four N x N arrays that (2^{d+1}/M) A - I
    # held out of place came to twice gram's check; in place it is B and A
    # while gram builds A, then A and LAPACK's copy of it, within gram's few
    # 256 KiB block temporaries
    idx = [(i, j) for i in range(1, 31) for j in range(1, 31)]
    M, N = 211, len(idx)
    need = 8 * ((M // 2 + 1) * N + 2 * N * N)
    tracemalloc.start()
    try:
        gap = spectral_gap(M, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need + 2**18
    A = gram(weil_grid(M, 2), idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
    assert gap == float(np.linalg.norm((2.0 ** 3 / M) * A - np.eye(N), 2))
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"^the 900 x 900 Gram matrix needs "):
        spectral_gap(M, idx)


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


@pytest.mark.parametrize("d, space", [(1, "TD"), (2, "TD"), (2, "TP"), (3, "TD"), (3, "TP")])
def test_weil_fit_meets_the_paper_convergence_estimate(d, space):
    # ||f - Pi f||_rho <= ||f - p||_rho + lam_min^(-1/2) ||f - p||_grid for
    # any p in the space: Pi p = p, Pi contracts the grid seminorm, and
    # ||g||_rho^2 = |c|^2 <= ||g||_grid^2 / lam_min on the space.  Pi is the
    # unit-weight fit on the cell's weil grid, lam_min the smallest
    # eigenvalue of A/m, and ||g||_grid^2 the mean of g^2 over the m rows;
    # the rho-norms take the Gauss-Chebyshev product rule of L^d nodes
    spec = CHEBYSHEV_ORTHONORMAL
    qmax, L = (5, 64) if d < 3 else (3, 24)
    nodes1 = np.cos((2 * np.arange(1, L + 1) - 1) * np.pi / (2 * L))
    nodes = np.stack(np.meshgrid(*[nodes1] * d, indexing="ij"), -1).reshape(-1, d)

    def rms(values):
        return math.sqrt(np.mean(values ** 2))

    for target in TARGET_NAMES:
        f = make(target, coefficients(target, d))
        f_nodes = f(nodes)
        for scaling, c in (("quadratic", 0.5), ("linear", 2.0), ("linear", 4.0)):
            cfg = StudyConfig(space=space, d=d, scaling=scaling, c=c)
            for q in range(qmax + 1):
                idx, N, m, M = realize_cell(cfg, q)
                grid = weil_grid(M, d)
                f_grid = f(grid.points)
                fit = solve(grid, f_grid, idx, spec)
                p = reference_projection(f, idx, spec, L)
                lam_min = np.linalg.eigvalsh(gram(grid, idx, spec) / m)[0]
                fit_nodes, p_nodes = evaluate_expansions(spec, [idx, idx], nodes,
                                                         [fit.coefficients, p])
                (p_grid,) = evaluate_expansions(spec, [idx], grid.points, [p])
                lhs = rms(f_nodes - fit_nodes)
                rhs = rms(f_nodes - p_nodes) + rms(f_grid - p_grid) / math.sqrt(lam_min)
                assert lhs <= rhs, (target, scaling, c, q, lhs, rhs)


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


def _study_fits(space, spec, grid_M=0):
    """Fits of orders 1-5 on a weil grid or Monte Carlo points, in d = 2,
    with a repeated order as in a Monte Carlo study."""
    f = make("cossum", (0.6773, 0.6969))
    fits = []
    for q in (3, 1, 5, 2, 2, 4):
        idx = build_index_set(space, q, 2)
        pts = weil_grid(grid_M, 2).points if grid_M else \
            np.random.default_rng(q).uniform(-1, 1, (4 * len(idx), 2))
        fits.append(solve(pts, f(pts), idx, spec))
    return fits, f


@pytest.mark.parametrize("space, spec, M", [("TD", CHEBYSHEV_ORTHONORMAL, 499),
                                            ("TP", LEGENDRE_ORTHONORMAL, 0),
                                            ("TD", CHEBYSHEV_CLASSICAL, 0)])
def test_l2_error_of_a_sequence_equals_one_call_per_fit(space, spec, M):
    fits, f = _study_fits(space, spec, M)
    fits.insert(2, None)  # a singular fit
    report = l2_error(fits, f, n_test=3001, seed=4)
    assert isinstance(report.l2_error, tuple) and report.n_test == 3001
    want = tuple(math.inf if fit is None else l2_error(fit, f, 3001, 4).l2_error
                 for fit in fits)
    assert report.l2_error == want  # float for float
    assert all(type(e) is float for e in report.l2_error)
    assert l2_error([None, None], f, 10).l2_error == (math.inf, math.inf)
    assert l2_error([], f, 10) == ErrorReport((), 10)


def test_l2_error_rejects_fits_that_do_not_nest_or_share_a_basis():
    f = make("cossum", (0.6773, 0.6969))
    pts = weil_grid(499, 2).points
    td = solve(pts, f(pts), build_index_set("TD", 3, 2), CHEBYSHEV_ORTHONORMAL)
    tp = solve(pts, f(pts), build_index_set("TP", 2, 2), CHEBYSHEV_ORTHONORMAL)
    with pytest.raises(ValueError, match=r"index \(2, 2\) is not in the largest"):
        l2_error([td, tp], f)
    other = solve(pts, f(pts), build_index_set("TD", 2, 2), LEGENDRE_ORTHONORMAL)
    with pytest.raises(ValueError, match="share one basis"):
        l2_error([td, other], f)


def _error_pass_bytes(n_test, d, q, held):
    # the documented size: points, 1-d tables, held value vectors and the
    # target values
    return 8 * n_test * (d * (q + 2) + held + 1)


def test_l2_error_checks_memory_before_drawing_the_test_sample(monkeypatch):
    fits, f = _study_fits("TD", CHEBYSHEV_ORTHONORMAL, 499)  # d = 2, q <= 5
    need = _error_pass_bytes(1000, 2, 5, len(fits))
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need)
    assert len(l2_error(fits, f, 1000).l2_error) == len(fits)
    assert l2_error(fits[0], f, 1000).l2_error == l2_error(fits, f, 1000).l2_error[0]
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: need - 1)

    def no_draw(*args):
        raise AssertionError("the test sample was drawn")

    monkeypatch.setattr("weilfit.diagnostics.mc_sample", no_draw)
    with pytest.raises(ValueError, match="error pass over 1000 test points needs .* "
                                         "physical memory"):
        l2_error(fits, f, 1000)


def test_error_pass_memory_check_matches_its_traced_peak():
    # twelve fits of orders up to 5 in d = 2: twelve tables rows, so all
    # twelve value vectors are held; the check's bytes are the traced peak
    # up to a few 256 KiB block temporaries
    fits, f = _study_fits("TD", LEGENDRE_ORTHONORMAL, 499)
    fits = fits + fits
    n_test = 40000
    tracemalloc.start()
    try:
        l2_error(fits, f, n_test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    need = _error_pass_bytes(n_test, 2, 5, 12)
    assert need <= peak <= need + 6 * 8 * _BLOCK_ENTRIES


def test_reference_projection_checks_memory_of_its_nodes(monkeypatch):
    # 2*8*d*level^d bytes: 3 200 for level 10 in d = 2, more than the 2 400
    # of the 100 x 3 design that basis_matrix checks next
    f = make("expsum", (-0.2779, 0.9986))
    idx = build_index_set("TD", 1, 2)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 3200)
    assert reference_projection(f, idx, CHEBYSHEV_ORTHONORMAL, 10).shape == (len(idx),)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 3199)

    def no_nodes(*args):
        raise AssertionError("the nodes were built")

    monkeypatch.setattr("weilfit.diagnostics._quad_rule_1d", no_nodes)
    with pytest.raises(ValueError, match="the 10\\^2 quadrature nodes needs .* physical memory"):
        reference_projection(f, idx, CHEBYSHEV_ORTHONORMAL, 10)
