"""Acceptance gate for the library.

Ten checks, each printing one `acceptance k/10 <label>: pass|FAIL` line
(run with `pytest tests/test_acceptance.py -v -s` to see them).  Tolerances
are pinned here and nowhere else:

* analytic bound comparisons carry a 1e-9 floating-point slack (quadratic
  Gauss sums make some bounds exactly sharp, so rounding can cross them);
* coefficient recovery is exact to 1e-10;
* oracle equivalence is 1e-12 relative to the matrix magnitude.
"""

import math
import time

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from weilfit.diagnostics import check_gram_bounds, l2_error, spectral_gap
from weilfit.indexsets import build_index_set
from weilfit.lstsq import (UNIT_WEIGHTS, SingularSystemError, WeightScheme,
                           compute_weights, condition, gram, solve)
from weilfit.pointgen import (arcsine_box_measure, equidist_box_fraction,
                              is_prime, mc_sample, nearest_prime,
                              weil_exponential_sum, weil_grid)
from weilfit.polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                               LEGENDRE_ORTHONORMAL, basis_matrix)
from weilfit.study import StudyConfig, cell_points, realize_cell
from weilfit.targets import coefficients, make

FP_TOL = 1e-9        # slack on analytic bound comparisons
RECOVERY_TOL = 1e-10  # exact-recovery coefficient error
ORACLE_RTOL = 1e-12   # oracle equivalence, relative to matrix magnitude


def _verdict(num, label, conditions):
    ok = all(conditions.values())
    if ok:
        status = "pass"
    else:
        status = "FAIL(" + ",".join(k for k, v in conditions.items() if not v) + ")"
    print(f"acceptance {num:2d}/10 {label}: {status}")
    return ok


def test_01_offdiagonal_gram_bound_exhaustive():
    t0 = time.perf_counter()
    checks = {}
    for d, M in ((2, 97), (3, 997)):
        idx = build_index_set("TD", 2, d)
        A = gram(weil_grid(M, d), idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
        off = np.abs(A[~np.eye(len(idx), dtype=bool)])
        bound = ((d - 1) * math.sqrt(M) + 1.0) / 2.0
        checks[f"d{d}_all_entries"] = bool(np.all(off <= bound + FP_TOL))
    assert abs(((math.sqrt(97) + 1) / 2) - 5.4244) < 5e-4
    assert abs(((2 * math.sqrt(997) + 1) / 2) - 32.08) < 5e-3
    checks["under_1s"] = (time.perf_counter() - t0) < 1.0
    assert _verdict(1, "off-diagonal Gram bound, exhaustive sweep", checks)


def test_02_diagonal_gram_concentration_restricted():
    checks = {}
    r2 = check_gram_bounds(97, build_index_set("TD", 2, 2), restrict_nonzero=True)
    lo, hi = 97 / 8 - math.sqrt(97) / 2, 97 / 8 + math.sqrt(97) / 2
    checks["d2_interval"] = (r2.diag_bounds == (lo, hi))
    checks["d2_diag_in_interval"] = r2.diag_pass and r2.n_diag_checked == 1
    # the d=3 total-order set at q=2 has no index with all components nonzero,
    # so its restricted diagonal check is vacuously true
    r3 = check_gram_bounds(997, build_index_set("TD", 2, 3), restrict_nonzero=True)
    checks["d3_vacuous_pass"] = r3.diag_pass and r3.n_diag_checked == 0
    assert _verdict(2, "diagonal Gram concentration, all-nonzero indices", checks)


def test_03_spectral_gap():
    t0 = time.perf_counter()
    g1 = spectral_gap(67, [(1,), (2,)])
    g2 = spectral_gap(4099, [(1, 1), (1, 2), (2, 1), (2, 2)])
    checks = {
        "d1_M67": 0.0 < g1 <= 0.5,
        "d2_M4099": 0.0 < g2 <= 0.5,
        "under_5s": (time.perf_counter() - t0) < 5.0,
    }
    assert _verdict(3, "spectral gap of the normalized Gram matrix", checks)


def test_04_exact_recovery_of_basis_elements():
    t0 = time.perf_counter()
    idx = build_index_set("TD", 2, 2)
    N = len(idx)
    M = 9221 if is_prime(9221) else nearest_prime(9216)
    assert M >= 4 ** 3 * 2 ** 2 * N ** 2  # modulus large enough for uniqueness
    g = weil_grid(M, 2)
    D = basis_matrix(CHEBYSHEV_CLASSICAL, idx, g.points)
    checks = {}
    worst = 0.0
    for k in range(N):
        fit = solve(g, D[:, k], idx, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS)
        e = np.zeros(N)
        e[k] = 1.0
        worst = max(worst, float(np.max(np.abs(fit.coefficients - e))))
    checks["unit_vectors_recovered"] = worst <= RECOVERY_TOL
    checks["under_10s"] = (time.perf_counter() - t0) < 10.0
    assert _verdict(4, "exact recovery of basis elements", checks)


def test_05_exponential_sum_bound_random_sweep():
    t0 = time.perf_counter()
    primes = [101, 211, 499, 997, 1009, 2003, 2309, 4099, 5003, 10007]
    assert all(is_prime(p) for p in primes)
    rng = np.random.Generator(np.random.PCG64(0))
    n_viol = 0
    for _ in range(200):
        M = int(rng.choice(primes))
        deg = int(rng.integers(2, 7))  # polynomial degree 2..6
        coeffs = rng.integers(-50, 51, deg)
        while all(int(c) % M == 0 for c in coeffs):
            coeffs = rng.integers(-50, 51, deg)
        s = weil_exponential_sum([int(c) for c in coeffs], M)
        if abs(s) > (deg - 1) * math.sqrt(M) + FP_TOL:
            n_viol += 1
    checks = {
        "no_violations_in_200": n_viol == 0,
        "under_30s": (time.perf_counter() - t0) < 30.0,
    }
    assert _verdict(5, "exponential-sum magnitude bound", checks)


def test_06_arcsine_equidistribution_by_boxes():
    boxes = [
        [(0.0, 0.5), (0.0, 0.5)],
        [(-1.0, 0.0), (-1.0, 1.0)],
        [(-0.5, 0.5), (-0.5, 0.5)],
    ]
    grids = {M: weil_grid(M, 2) for M in (101, 1009, 10007)}
    checks = {}
    for i, box in enumerate(boxes):
        meas = arcsine_box_measure(box)
        dev = {M: abs(equidist_box_fraction(g, box) - meas)
               for M, g in grids.items()}
        checks[f"box{i}_fine_dev_le_0.01"] = dev[10007] <= 0.01
        checks[f"box{i}_fine_below_coarse"] = dev[10007] < dev[101]
    assert _verdict(6, "arcsine equidistribution by box counts", checks)


def test_07_conditioning_growth_trends():
    def cond_curve(scaling, c, qs):
        cfg = StudyConfig(d=2, scaling=scaling, c=c)
        out = {}
        for q in qs:
            idx, _, m, M = realize_cell(cfg, q)
            pts = cell_points(cfg, q, m, M, 0)
            out[q] = condition(pts, idx, CHEBYSHEV_ORTHONORMAL, UNIT_WEIGHTS).cond_A
        return out

    quad = cond_curve("quadratic", 0.5, [3, 10])
    lin2 = cond_curve("linear", 2.0, [3, 20])
    lin12 = cond_curve("linear", 12.0, range(1, 21))
    checks = {
        "quadratic_c0.5_shrinks": quad[10] < quad[3],
        "linear_c2_grows": lin2[20] > lin2[3],
        "linear_c12_capped_10x": max(lin12.values()) < 10.0 * lin12[3],
    }
    assert _verdict(7, "conditioning growth trends", checks)


def test_08_spectral_convergence_smooth_target():
    t0 = time.perf_counter()
    cfg = StudyConfig(d=2, scaling="quadratic", c=0.5)
    f = make("expsum", coefficients("expsum", 2))
    errs = []
    for q in range(2, 11):
        idx, _, m, M = realize_cell(cfg, q)
        g = cell_points(cfg, q, m, M, 0)
        fit = solve(g, f(g.points), idx, CHEBYSHEV_ORTHONORMAL, UNIT_WEIGHTS)
        errs.append(l2_error(fit, f).l2_error)
    ups = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    checks = {
        "at_most_one_nonmonotone_step": ups <= 1,
        "below_1e-8_at_q10": errs[-1] < 1e-8,
        "under_60s": (time.perf_counter() - t0) < 60.0,
    }
    assert _verdict(8, "spectral convergence on a smooth target", checks)


def test_09_density_ratio_weighting_vs_direct_random():
    reps = 20
    f = make("expsum", coefficients("expsum", 2))
    weighted = WeightScheme("density_ratio", "uniform")

    def mc_cond_mean(q):
        cfg = StudyConfig(d=2, scaling="linear", c=2.0, grid="mc_uniform",
                          repetitions=reps)
        idx, _, m, M = realize_cell(cfg, q)
        vals = [condition(cell_points(cfg, q, m, M, r), idx,
                          LEGENDRE_ORTHONORMAL, UNIT_WEIGHTS).cond_A
                for r in range(reps)]
        return float(np.mean(vals))

    def weil_cond(q):
        cfg = StudyConfig(d=2, scaling="linear", c=2.0)
        idx, _, m, M = realize_cell(cfg, q)
        return condition(cell_points(cfg, q, m, M, 0), idx,
                         LEGENDRE_ORTHONORMAL, weighted).cond_A

    checks = {
        "direct_cond_blows_up_1000x": mc_cond_mean(15) > 1e3 * mc_cond_mean(3),
        "weighted_cond_under_10x": weil_cond(15) < 10.0 * weil_cond(3),
    }

    # error comparison at q = 12, direct averaged over the repetitions
    cfgw = StudyConfig(d=2, scaling="linear", c=2.0)
    idx, _, m, M = realize_cell(cfgw, 12)
    g = cell_points(cfgw, 12, m, M, 0)
    fitw = solve(g, f(g.points), idx, LEGENDRE_ORTHONORMAL, weighted)
    err_weighted = l2_error(fitw, f).l2_error
    cfgm = StudyConfig(d=2, scaling="linear", c=2.0, grid="mc_uniform",
                       repetitions=reps)
    errs = []
    for r in range(reps):
        pts = cell_points(cfgm, 12, m, M, r)
        try:
            fitm = solve(pts, f(pts.points), idx, LEGENDRE_ORTHONORMAL,
                         UNIT_WEIGHTS)
            errs.append(l2_error(fitm, f).l2_error)
        except SingularSystemError:
            errs.append(float("inf"))
    checks["weighted_error_below_direct_at_q12"] = err_weighted < float(np.mean(errs))
    assert _verdict(9, "density-ratio weighting vs direct random sampling", checks)


def _eval_basis_independent(spec, n, pts):
    """From-scratch tensor basis evaluation via numpy.polynomial."""
    out = np.ones(pts.shape[0])
    for i, ni in enumerate(n):
        coef = np.zeros(ni + 1)
        coef[ni] = 1.0
        if spec.family == "chebyshev":
            col = npcheb.chebval(pts[:, i], coef)
            if spec.normalization == "orthonormal" and ni >= 1:
                col = col * math.sqrt(2.0)
        else:
            col = npleg.legval(pts[:, i], coef) * math.sqrt(2 * ni + 1)
        out = out * col
    return out


def test_10_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(314159))
    specs = (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL, LEGENDRE_ORTHONORMAL)
    schemes = (UNIT_WEIGHTS, WeightScheme("density_ratio", "uniform"),
               WeightScheme("density_ratio", "chebyshev"))
    worst_gram = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        space = "TP" if rng.integers(2) else "TD"
        idx = build_index_set(space, q, d)
        N = len(idx)
        spec = specs[int(rng.integers(3))]
        scheme = schemes[int(rng.integers(3))]
        if rng.integers(2):
            M = nearest_prime(int(rng.integers(2 * N + 3, 2 * N + 203)))
            pts = weil_grid(M, d).points
        else:
            pts = mc_sample("chebyshev", N + int(rng.integers(5, 41)), d,
                            seed=int(rng.integers(1 << 31))).points
        A = gram(pts, idx, spec, scheme)
        w = compute_weights(scheme, pts)
        # brute-force double sum with independent basis evaluation
        cols = [_eval_basis_independent(spec, n, pts) for n in idx]
        O = np.empty((N, N))
        for a in range(N):
            for b in range(N):
                O[a, b] = float(np.sum(w * cols[a] * cols[b]))
        scale = max(1.0, float(np.max(np.abs(O))))
        worst_gram = max(worst_gram, float(np.max(np.abs(A - O))) / scale)

    pts = rng.uniform(-1.0, 1.0, (64, 2))
    idx = build_index_set("TD", 3, 2)
    worst_design = 0.0
    for spec in specs:
        D = basis_matrix(spec, idx, pts)
        O = np.column_stack([_eval_basis_independent(spec, n, pts) for n in idx])
        worst_design = max(worst_design, float(np.max(np.abs(D - O))))
    checks = {
        "gram_matches_double_sum_1e-12": worst_gram <= ORACLE_RTOL,
        "design_matches_independent_eval_1e-12": worst_design <= ORACLE_RTOL,
    }
    assert _verdict(10, "Gram and design-matrix oracle equivalence", checks)
