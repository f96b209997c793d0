import dataclasses
import functools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilfit.pointgen import (MAX_MODULUS, _polynomial_residues, _powers,
                              arcsine_box_measure, check_memory,
                              equidist_box_fraction, is_prime, mc_sample,
                              nearest_prime, point_array, weil_exponential_sum,
                              weil_grid)
from weilfit import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                     LEGENDRE_ORTHONORMAL, UNIT_WEIGHTS, BasisSpec,
                     StudyConfig, WeightScheme, basis_matrix, build_index_set,
                     check_bounds, check_gram_bounds, compute_weights,
                     condition, eval_1d, eval_tensor, evaluate_expansions,
                     evaluate_fit,
                     gram, l2_error, reference_projection, solve, targets,
                     td_cardinality, tp_cardinality)


def trial_division_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# ---------------------------------------------------------------------------
# primality

def test_is_prime_examples():
    assert is_prime(997)
    assert not is_prime(1)
    assert is_prime(2309)
    assert is_prime(2)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(9221 * 9221)


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)          # Mersenne prime
    assert not is_prime(2**61 + 1)      # 3 * 715827883 * ...
    assert is_prime(1_000_000_007)


def test_nearest_prime_examples():
    assert nearest_prime(100) == 101
    assert nearest_prime(7) == 7
    assert nearest_prime(2304) == 2309
    assert nearest_prime(2) == 2


def test_nearest_prime_tie_resolves_upward():
    # 61 and 67 are both 3 away from 64; 4093 and 4099 both 3 from 4096
    assert nearest_prime(64) == 67
    assert nearest_prime(4096) == 4099
    assert nearest_prime(9216) == 9221


def test_nearest_prime_oracle_scan():
    for target in range(2, 500):
        got = nearest_prime(target)
        assert trial_division_prime(got)
        dist = abs(got - target)
        for p in range(2, target + dist):
            if trial_division_prime(p):
                assert abs(p - target) > dist or (abs(p - target) == dist and p <= got)


def test_nearest_prime_rejects_below_two():
    with pytest.raises(ValueError):
        nearest_prime(1)
    with pytest.raises(ValueError):
        nearest_prime(0)


# ---------------------------------------------------------------------------
# deterministic grids

def test_weil_grid_residue_example():
    g = weil_grid(7, 3)
    assert len(g.points) == 4
    R = np.array([pow(3, k + 1, 7) for k in range(3)])
    assert R.tolist() == [3, 2, 6]  # 3^2=9=2, 3^3=27=6 (mod 7)
    assert np.array_equal(g.points[3], np.cos(2.0 * np.pi * R / 7))


def test_weil_grid_golden_rows_m7_d2():
    # By definition the j=1 residues are (1, 1^2 mod 7) = (1, 1), so both
    # coordinates equal cos(2*pi/7); row j=3 has residues (3, 2).
    g = weil_grid(7, 2)
    assert g.points[0].tolist() == [1.0, 1.0]
    c1 = 0.6234898018587336          # cos(2*pi/7)
    assert g.points[1].tolist() == [c1, c1]
    assert g.points[3].tolist() == [-0.900968867902419, -0.22252093395631434]


def test_weil_grid_row_zero_exactly_ones():
    for M in (2, 3, 97, 997):
        g = weil_grid(M, 3)
        assert np.all(g.points[0] == 1.0)


def test_weil_grid_row_count_and_range():
    for M in (2, 3, 5, 101, 997):
        g = weil_grid(M, 2)
        assert len(g.points) == M // 2 + 1
        assert np.all(np.abs(g.points) <= 1.0)


def test_weil_grid_residues_match_modular_pow_oracle():
    primes = [M for M in range(2, 102) if trial_division_prime(M)]
    for M in primes:
        g = weil_grid(M, 5)
        R = np.array([[pow(j, k + 1, M) for k in range(5)] for j in range(len(g.points))])
        assert np.array_equal(g.points, np.cos(2.0 * np.pi * R / M))


def test_weil_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        weil_grid(9, 2)       # composite
    with pytest.raises(ValueError):
        weil_grid(1, 2)
    with pytest.raises(ValueError):
        weil_grid(7, 0)
    with pytest.raises(ValueError, match="exceeds"):
        weil_grid(3037000507, 1)  # first prime above the int64-safe limit


def test_weil_grid_refuses_a_grid_larger_than_physical_memory(monkeypatch):
    # 8*(d+2)*(M//2+1) bytes: 512 for (31, 2), against stand-in memory
    # sizes just above and just below
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 512)
    assert len(weil_grid(31, 2).points) == 16
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 511)
    with pytest.raises(ValueError, match=r"^the grid for M=31, d=2 needs .* physical memory"):
        weil_grid(31, 2)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: None)
    assert len(weil_grid(101, 2).points) == 51  # size unknown: no guard


@pytest.mark.parametrize("d", [1, 2, 4])
def test_weil_grid_peak_memory_is_its_checked_size(d):
    # the points, the j's and one residue column, 8*(d+2)*(M//2+1) bytes,
    # are tracemalloc's peak, up to a few hundred bytes of small objects
    M = 100003
    need = 8 * (d + 2) * (M // 2 + 1)
    tracemalloc.start()
    try:
        weil_grid(M, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak <= need + 4096


def test_check_memory_passes_where_the_os_reports_no_memory_size(monkeypatch):
    # os.sysconf raises ValueError for a name the platform does not define
    def sysconf(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", sysconf)
    check_memory("x", 2**80)


# ---------------------------------------------------------------------------
# Monte Carlo samplers

def test_mc_sample_reproducible():
    a = mc_sample("chebyshev", 100, 3, seed=42)
    b = mc_sample("chebyshev", 100, 3, seed=42)
    assert np.array_equal(a.points, b.points)
    c = mc_sample("uniform", 100, 3, seed=42)
    d = mc_sample("uniform", 100, 3, seed=42)
    assert np.array_equal(c.points, d.points)
    assert not np.array_equal(a.points, mc_sample("chebyshev", 100, 3, seed=43).points)


def test_mc_sample_shape_and_range():
    s = mc_sample("uniform", 50, 2, seed=0)
    assert s.points.shape == (50, 2)
    s = mc_sample("chebyshev", 50, 2, seed=0)
    assert s.points.shape == (50, 2)
    assert np.all(np.abs(s.points) <= 1.0)


def test_mc_sample_distributions():
    u = mc_sample("uniform", 100_000, 1, seed=7).points[:, 0]
    assert abs(u.mean()) < 0.02
    assert np.all((u >= -1) & (u <= 1))
    ch = mc_sample("chebyshev", 100_000, 1, seed=7).points[:, 0]
    # P(0 <= y <= 1/2) under the arcsine law is asin(1/2)/pi = 1/6
    frac = np.mean((ch >= 0) & (ch <= 0.5))
    assert abs(frac - 1 / 6) < 0.01


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("measure", ["uniform", "chebyshev"])
def test_mc_sample_peak_memory_is_its_checked_size(measure, d):
    # the points, 8*n*d bytes, are tracemalloc's peak: the cosine of the
    # chebyshev draw is taken in place, up to a few small objects
    n = 100003
    need = 8 * n * d
    tracemalloc.start()
    try:
        mc_sample(measure, n, d, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak <= need + 4096


def test_mc_sample_refuses_a_sample_larger_than_physical_memory(monkeypatch):
    # 8*n*d bytes: 160 for (10, 2), against stand-in memory sizes just above
    # and just below; 10**12 points are refused, not handed to the allocator
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 160)
    assert mc_sample("chebyshev", 10, 2, 0).points.shape == (10, 2)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 159)
    with pytest.raises(ValueError, match=r"^the 10 x 2 chebyshev sample needs .* physical memory"):
        mc_sample("chebyshev", 10, 2, 0)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**33)
    with pytest.raises(ValueError, match=r"^the 1000000000000 x 2 uniform sample needs 14901\.2 GiB"):
        mc_sample("uniform", 10**12, 2, 0)


def test_mc_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        mc_sample("gauss", 10, 2, seed=0)
    with pytest.raises(ValueError):
        mc_sample("uniform", 0, 2, seed=0)
    with pytest.raises(ValueError):
        mc_sample("uniform", 10, 0, seed=0)


# ---------------------------------------------------------------------------
# exponential sums

def brute_force_sum(coeffs, M):
    total = 0j
    for j in range(M):
        f = sum(c * j ** (k + 1) for k, c in enumerate(coeffs))
        total += complex(math.cos(2 * math.pi * (f % M) / M),
                         math.sin(2 * math.pi * (f % M) / M))
    return total


def test_weil_sum_linear_is_zero():
    assert abs(weil_exponential_sum([1], 5)) < 1e-12


def test_weil_sum_matches_brute_force():
    for coeffs, M in [([0, 1], 7), ([3, 5], 11), ([1, 2, 3], 13), ([-4, 0, 9], 29)]:
        got = weil_exponential_sum(coeffs, M)
        want = brute_force_sum(coeffs, M)
        assert abs(got - want) < 1e-10 * M


def test_weil_sum_quadratic_gauss_magnitude():
    # |sum_j e^{2 pi i a j^2 / M}| = sqrt(M) exactly for prime M not dividing 2a
    s = weil_exponential_sum([0, 1], 7)
    assert abs(abs(s) - math.sqrt(7)) < 1e-12


def test_weil_sum_bound_random_vectors():
    rng = np.random.Generator(np.random.PCG64(2024))
    primes = [101, 499, 997, 2309, 10007]
    for _ in range(60):
        M = int(rng.choice(primes))
        deg = int(rng.integers(1, 7))
        coeffs = [int(c) for c in rng.integers(-10, 11, deg)]
        if all(c % M == 0 for c in coeffs):
            coeffs[0] = 1
        s = weil_exponential_sum(coeffs, M)
        assert abs(s) <= (deg - 1) * math.sqrt(M) + 1e-9


def test_weil_sum_refuses_arrays_larger_than_physical_memory(monkeypatch):
    # 48*M bytes, the traced peak: 4848 for M = 101, against stand-in memory
    # sizes just above and just below
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 48 * 101)
    assert abs(weil_exponential_sum([1, 1], 101)) <= math.sqrt(101) + 1e-9
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 48 * 101 - 1)
    with pytest.raises(ValueError, match="M=101 needs .* physical memory"):
        weil_exponential_sum([1, 1], 101)


def test_weil_sum_peak_memory_is_48_bytes_per_term():
    M = 100003
    tracemalloc.start()
    try:
        weil_exponential_sum([1, 2, 3], M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 40 * M < peak <= 48 * M + 4096


def test_weil_sum_rejects_degenerate_input():
    with pytest.raises(ValueError):
        weil_exponential_sum([0, 0], 7)
    with pytest.raises(ValueError):
        weil_exponential_sum([7, 14], 7)  # all divisible by M
    with pytest.raises(ValueError):
        weil_exponential_sum([1, 2], 8)   # composite modulus
    with pytest.raises(ValueError):
        weil_exponential_sum([], 7)
    with pytest.raises(ValueError, match="exceeds"):
        weil_exponential_sum([1], 3037000507)


# ---------------------------------------------------------------------------
# exact residues at the modulus limit

LARGEST_PRIME = 3037000493  # the largest prime <= MAX_MODULUS


@st.composite
def limit_windows(draw):
    """(M, js): a prime M, often near LARGEST_PRIME, and a window of up to
    64 consecutive j's ending near M//2 (the grid's last row) or at M-1."""
    M = nearest_prime(draw(st.one_of(st.integers(3, LARGEST_PRIME),
                                      st.integers(LARGEST_PRIME - 10**6, LARGEST_PRIME))))
    stop = draw(st.sampled_from([M // 2 + 1 - draw(st.integers(0, min(32, M // 2))), M]))
    start = max(0, stop - draw(st.integers(1, 64)))
    return M, list(range(start, stop))


def exact_horner(cmod, j, M):
    acc = 0
    for c in reversed(cmod):
        acc = (acc * j + c) % M
    return acc * j % M


# acc*j + c reaches M(M-1), the bound on every Horner step, at j = M-1 with
# two top coefficients M-1 (acc = M-1, then (M-1)^2 + (M-1))
@settings(max_examples=200, deadline=None)
@given(window=limit_windows(), d=st.integers(1, 8),
       coeffs=st.lists(st.one_of(st.just(-1), st.integers(0, 2**63)), min_size=1, max_size=8))
@example(window=(LARGEST_PRIME, [LARGEST_PRIME - 1]), d=8, coeffs=[-1] * 8)
@example(window=(LARGEST_PRIME, list(range(LARGEST_PRIME // 2 - 7, LARGEST_PRIME // 2 + 1))),
         d=8, coeffs=[-1, 0, -1])
def test_residues_are_exact_at_the_modulus_limit(window, d, coeffs):
    M, js = window
    assert is_prime(M) and M <= MAX_MODULUS
    window_js = np.array(js, dtype=np.int64)
    powers = [r.tolist() for r in _powers(window_js, M, d)]
    assert powers == [[pow(j, k, M) for j in js] for k in range(1, d + 1)]
    cmod = [c % M for c in coeffs]
    got = _polynomial_residues(cmod, window_js, M)
    assert got.tolist() == [exact_horner(cmod, j, M) for j in js]


# ---------------------------------------------------------------------------
# equidistribution

def test_box_fraction_full_cube():
    g = weil_grid(101, 2)
    assert equidist_box_fraction(g, [(-1, 1), (-1, 1)]) == 1.0


def test_box_fraction_golden_values():
    g = weil_grid(10007, 2)
    frac = equidist_box_fraction(g, [(0, 0.5), (0, 0.5)])
    assert frac == 0.02697841726618705
    assert abs(frac - 1 / 36) <= 0.01
    assert equidist_box_fraction(g, [(-1, 0), (-1, 1)]) == 0.5


def test_arcsine_box_measure():
    assert abs(arcsine_box_measure([(-1, 1), (-1, 1)]) - 1.0) < 1e-15
    # asin(1/2)/pi = 1/6 per coordinate
    assert abs(arcsine_box_measure([(0, 0.5), (0, 0.5)]) - 1 / 36) < 1e-15
    assert abs(arcsine_box_measure([(-0.5, 0.5)]) - 1 / 3) < 1e-15
    assert arcsine_box_measure([(0.3, 0.3)]) == 0.0  # degenerate box allowed


def test_equidist_deviation_shrinks_with_m():
    boxes = [
        [(0, 0.5), (0, 0.5)],
        [(-1, 0), (-1, 1)],
        [(-0.5, 0.5), (-0.5, 0.5)],
    ]
    for box in boxes:
        meas = arcsine_box_measure(box)
        devs = []
        for M in (101, 1009, 10007):
            devs.append(abs(equidist_box_fraction(weil_grid(M, 2), box) - meas))
        # non-increasing within a factor of 2 along the refinement chain
        assert devs[1] <= 2 * devs[0]
        assert devs[2] <= 2 * devs[1]


def test_box_validation():
    g = weil_grid(11, 2)
    with pytest.raises(ValueError):
        equidist_box_fraction(g, [(0, 0.5)])             # wrong length
    with pytest.raises(ValueError):
        equidist_box_fraction(g, [(0.5, 0), (0, 0.5)])   # a > b
    with pytest.raises(ValueError):
        equidist_box_fraction(g, [(0, 2), (0, 0.5)])     # outside [-1,1]


# ---------------------------------------------------------------------------
# the integer rule

NOT_INTEGERS = {
    "is_prime(7.5)": lambda: is_prime(7.5),
    "is_prime(7.0)": lambda: is_prime(7.0),
    "is_prime(True)": lambda: is_prime(True),
    "nearest_prime(2.7)": lambda: nearest_prime(2.7),
    "weil_grid(7.9,2)": lambda: weil_grid(7.9, 2),
    "weil_grid(7,2.5)": lambda: weil_grid(7, 2.5),
    "mc_sample(n=2.5)": lambda: mc_sample("uniform", 2.5, 2, 0),
    "mc_sample(d=2.0)": lambda: mc_sample("uniform", 10, 2.0, 0),
    "weil_exponential_sum(M=7.0)": lambda: weil_exponential_sum([1], 7.0),
    "weil_exponential_sum(c=2.5)": lambda: weil_exponential_sum([1, 2.5], 7),
    "check_gram_bounds(M=97.0)": lambda: check_gram_bounds(97.0, [(1, 1)]),
    "eval_1d(n=2.0)": lambda: eval_1d("chebyshev", "classical", 2.0, 0.5),
    "build_index_set(q=2.5)": lambda: build_index_set("TD", 2.5, 2),
    "build_index_set(q=True)": lambda: build_index_set("TD", True, 2),
    "build_index_set(d=2.0)": lambda: build_index_set("TP", 2, 2.0),
    "build_index_set(d=True)": lambda: build_index_set("TP", 2, True),
    "tp_cardinality(q=2.5)": lambda: tp_cardinality(2.5, 2),
    "tp_cardinality(d=True)": lambda: tp_cardinality(2, True),
    "td_cardinality(q=2.0)": lambda: td_cardinality(2.0, 2),
    "td_cardinality(q=True)": lambda: td_cardinality(True, 2),
    **{f"StudyConfig({name}={value!r})": functools.partial(StudyConfig, **{name: value})
       for name in ("d", "q_min", "q_max", "repetitions", "seed", "coeff_seed", "n_test")
       for value in (2.0, True)},
    "reference_projection(level=3.5)":
        lambda: reference_projection(np.cos, [(1,)], CHEBYSHEV_ORTHONORMAL, 3.5),
    "reference_projection(level=True)":
        lambda: reference_projection(np.cos, [(0,)], CHEBYSHEV_ORTHONORMAL, True),
    "mc_sample(seed=1.5)": lambda: mc_sample("uniform", 10, 2, 1.5),
    "mc_sample(seed=True)": lambda: mc_sample("uniform", 10, 2, True),
    "check_bounds(seed=1.5)": lambda: check_bounds([1], [1], seed=1.5),
    "check_bounds(seed=True)": lambda: check_bounds([1], [1], seed=True),
    "targets.coefficients(d=2.0)": lambda: targets.coefficients("expsum", 2.0),
    "targets.coefficients(d=True)": lambda: targets.coefficients("expsum", True),
    "targets.coefficients(seed=True)": lambda: targets.coefficients("expsum", 2, True),
    "l2_error(n_test=2.5)": lambda: l2_error([None], np.cos, n_test=2.5),
    "l2_error(n_test=True)": lambda: l2_error([None], np.cos, n_test=True),
}


@pytest.mark.parametrize("call", NOT_INTEGERS)
def test_integer_arguments_refuse_floats_and_bools(call):
    with pytest.raises(ValueError, match=r" must be an int, got "):
        NOT_INTEGERS[call]()


# (call, the name and minimum its message states, the value it got)
BELOW_MINIMUM = {
    "weil_grid(d=0)": (lambda: weil_grid(7, 0), "d", 1, 0),
    "mc_sample(n=0)": (lambda: mc_sample("uniform", 0, 2, 0), "n", 1, 0),
    "mc_sample(d=0)": (lambda: mc_sample("uniform", 10, 0, 0), "d", 1, 0),
    "mc_sample(seed=-1)": (lambda: mc_sample("uniform", 10, 2, -1), "seed", 0, -1),
    "build_index_set(d=0)": (lambda: build_index_set("TD", 2, 0), "d", 1, 0),
    "build_index_set(q=-1)": (lambda: build_index_set("TD", -1, 2), "q", 0, -1),
    "tp_cardinality(q=-1)": (lambda: tp_cardinality(-1, 2), "q", 0, -1),
    "td_cardinality(d=0)": (lambda: td_cardinality(2, 0), "d", 1, 0),
    "eval_1d(n=-1)": (lambda: eval_1d("chebyshev", "classical", -1, 0.5), "order n", 0, -1),
    "check_bounds(seed=-3)": (lambda: check_bounds([1], [1], seed=-3), "seed", 0, -3),
    "StudyConfig(d=0)": (lambda: StudyConfig(d=0), "d", 1, 0),
    "StudyConfig(repetitions=0)": (lambda: StudyConfig(repetitions=0), "repetitions", 1, 0),
    "StudyConfig(seed=-1)": (lambda: StudyConfig(seed=-1), "seed", 0, -1),
    "StudyConfig(n_test=0)": (lambda: StudyConfig(n_test=0), "n_test", 1, 0),
    "targets.coefficients(d=0)": (lambda: targets.coefficients("expsum", 0, 1), "d", 1, 0),
    "targets.coefficients(seed=-1)": (lambda: targets.coefficients("expsum", 2, -1),
                                      "seed", 0, -1),
    "l2_error(n_test=0)": (lambda: l2_error([None], np.cos, n_test=0), "n_test", 1, 0),
}


@pytest.mark.parametrize("call", BELOW_MINIMUM)
def test_integer_arguments_refuse_values_below_their_minimum(call):
    f, name, minimum, value = BELOW_MINIMUM[call]
    with pytest.raises(ValueError, match=rf"^{name} must be >= {minimum}, got {value}$"):
        f()


# (call, the setting its message names, the unknown value, the allowed values)
UNKNOWN_CHOICES = {
    "mc_sample(measure)": (lambda: mc_sample("gauss", 10, 2, 0), "measure", "gauss",
                           ("chebyshev", "uniform")),
    "build_index_set(kind)": (lambda: build_index_set("XX", 2, 2), "index set kind", "XX",
                              ("TP", "TD")),
    "BasisSpec(family)": (lambda: BasisSpec("hermite", "orthonormal"), "family", "hermite",
                          ("chebyshev", "legendre")),
    "BasisSpec(normalization)": (lambda: BasisSpec("chebyshev", "x"), "normalization", "x",
                                 ("classical", "orthonormal")),
    "WeightScheme(kind)": (lambda: WeightScheme("x"), "weight kind", "x",
                           ("unit", "density_ratio")),
    "WeightScheme(target_density)": (lambda: WeightScheme("density_ratio", "x"),
                                     "target density", "x", ("uniform", "chebyshev")),
    "targets.coefficients": (lambda: targets.coefficients("sinsum", 2), "target", "sinsum",
                             ("expsum", "cossum", "abscube")),
    "targets.make": (lambda: targets.make("sinsum", (1.0,)), "target", "sinsum",
                     ("expsum", "cossum", "abscube")),
    "StudyConfig(grid)": (lambda: StudyConfig(grid="qmc"), "grid", "qmc",
                          ("weil", "mc_chebyshev", "mc_uniform")),
    "StudyConfig(target_density)": (lambda: StudyConfig(target_density="x"),
                                    "target density", "x", ("uniform", "chebyshev")),
}


@pytest.mark.parametrize("call", UNKNOWN_CHOICES)
def test_choice_arguments_refuse_unknown_values(call):
    f, name, value, allowed = UNKNOWN_CHOICES[call]
    with pytest.raises(ValueError) as err:
        f()
    assert str(err.value) == f"unknown {name} {value!r}; expected one of {allowed}"


def test_integer_arguments_take_numpy_integers():
    i = np.int64
    assert is_prime(i(97)) and is_prime(np.uint32(97)) and nearest_prime(np.int16(100)) == 101
    assert np.array_equal(weil_grid(i(101), np.int32(3)).points, weil_grid(101, 3).points)
    for measure in ("uniform", "chebyshev"):
        assert np.array_equal(mc_sample(measure, i(50), i(3), 4).points,
                              mc_sample(measure, 50, 3, 4).points)
    assert weil_exponential_sum([i(3), i(5)], i(101)) == weil_exponential_sum([3, 5], 101)
    assert check_gram_bounds(i(97), [(1, 1)]) == check_gram_bounds(97, [(1, 1)])
    assert np.array_equal(build_index_set("TD", i(3), np.int32(2)).array,
                          build_index_set("TD", 3, 2).array)
    cfg = StudyConfig(d=i(3), q_min=np.int32(2), q_max=i(4), repetitions=np.uint8(5),
                      seed=i(7), coeff_seed=i(1), n_test=np.int16(300), grid="mc_uniform")
    assert cfg == StudyConfig(d=3, q_min=2, q_max=4, repetitions=5, seed=7, coeff_seed=1,
                              n_test=300, grid="mc_uniform")
    assert all(type(getattr(cfg, f)) is int for f in ("d", "q_min", "repetitions", "n_test"))


# ---------------------------------------------------------------------------
# point_array

def test_point_array_forms():
    g = weil_grid(11, 2)
    assert point_array(g).shape == (6, 2)
    s = mc_sample("uniform", 6, 2, seed=0)
    assert point_array(s).shape == (6, 2) and np.array_equal(point_array(s), s.points)
    arr = np.zeros((4, 3))
    assert point_array(arr) is not None
    assert point_array(np.zeros(5)).shape == (5, 1)  # 1-d promotes to d=1
    with pytest.raises(ValueError):
        point_array(np.zeros((2, 2, 2)))


_IDX = build_index_set("TD", 2, 2)
# every public function that takes points, called on the points p (d = 2)
POINT_CONSUMERS = {
    "point_array": lambda p: point_array(p),
    "basis_matrix": lambda p: basis_matrix(CHEBYSHEV_CLASSICAL, _IDX, p),
    "evaluate_expansions": lambda p: evaluate_expansions(
        LEGENDRE_ORTHONORMAL, [_IDX], p, [np.ones(len(_IDX))]),
    "condition": lambda p: condition(p, _IDX, CHEBYSHEV_CLASSICAL),
    "solve": lambda p: solve(p, np.ones(len(p)), _IDX, CHEBYSHEV_CLASSICAL),
    "gram": lambda p: gram(p, _IDX, CHEBYSHEV_CLASSICAL, UNIT_WEIGHTS),
    "compute_weights": lambda p: compute_weights(WeightScheme("density_ratio"), p),
    "eval_1d": lambda p: eval_1d("legendre", "orthonormal", 2, p.reshape(-1)),
    "eval_tensor": lambda p: eval_tensor(CHEBYSHEV_CLASSICAL, (1, 2), p),
    "target": lambda p: targets.make("expsum", (0.5, -0.25))(p),
    "equidist_box_fraction": lambda p: equidist_box_fraction(p, [(-1, 0), (0, 1)]),
}
_GOOD = mc_sample("uniform", 12, 2, 1).points
BAD_POINTS = {
    "empty": (np.zeros((0, 2)), "empty point set"),
    "nan": (np.where(np.arange(24).reshape(12, 2) == 7, np.nan, _GOOD),
            "evaluation points must lie in [-1,1]; max |y| = nan"),
    "1.5": (np.where(np.arange(24).reshape(12, 2) == 7, 1.5, _GOOD),
            "evaluation points must lie in [-1,1]; max |y| = 1.5"),
    # numpy's float conversion would keep only the real parts
    "complex": (np.where(np.arange(24).reshape(12, 2) == 7, 0.1 + 3j, _GOOD),
                "points must be real"),
}


@pytest.mark.parametrize("bad", BAD_POINTS)
@pytest.mark.parametrize("consumer", POINT_CONSUMERS)
def test_every_point_consumer_applies_the_one_point_rule(consumer, bad):
    pts, message = BAD_POINTS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        POINT_CONSUMERS[consumer](pts)
    POINT_CONSUMERS[consumer](_GOOD)  # the same call on valid points passes


# every public function that takes points of a given dimension, here 2
DIMENSION_CONSUMERS = {
    "point_array": lambda p: point_array(p, 2),
    **{name: POINT_CONSUMERS[name] for name in (
        "basis_matrix", "evaluate_expansions", "eval_tensor", "condition", "solve",
        "gram", "target")},
}


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("consumer", DIMENSION_CONSUMERS)
def test_every_point_consumer_refuses_points_of_another_dimension(consumer, d):
    with pytest.raises(ValueError, match=f"^points have dimension {d}, expected 2$"):
        DIMENSION_CONSUMERS[consumer](mc_sample("uniform", 12, d, 1).points)


def _good_values(p):
    return np.cos(p).sum(axis=1)


_FIT = solve(_GOOD, np.ones(len(_GOOD)), _IDX, CHEBYSHEV_CLASSICAL)
# every public function that takes a vector by the vector rule: the vector's
# name and length n, and the call, given a function s that makes the vector
# from its good value (for function values, the target's values at the
# call's points)
VECTOR_CONSUMERS = {
    "solve": ("function values", len(_GOOD), lambda s: solve(
        _GOOD, s(_good_values(_GOOD)), _IDX, CHEBYSHEV_CLASSICAL)),
    "reference_projection": ("function values", 4 ** 2, lambda s: reference_projection(
        lambda p: s(_good_values(p)), _IDX, CHEBYSHEV_ORTHONORMAL, 4)),
    "l2_error": ("function values", 10, lambda s: l2_error(
        _FIT, lambda p: s(_good_values(p)), n_test=10)),
    "evaluate_expansions": ("coeffs", len(_IDX), lambda s: evaluate_expansions(
        LEGENDRE_ORTHONORMAL, [_IDX], _GOOD, [s(_FIT.coefficients)])),
    "evaluate_fit": ("coeffs", len(_IDX), lambda s: evaluate_fit(
        dataclasses.replace(_FIT, coefficients=s(_FIT.coefficients)), _GOOD)),
    "targets.make": ("coefficients", 2, lambda s: targets.make(
        "expsum", s(np.array([0.5, -0.25])))(_GOOD)),
}
# how each spoils the good vector v, and its message for a vector of length n
BAD_VALUES = {
    "nan": (lambda v: np.where(np.arange(len(v)) == len(v) // 2, np.nan, v),
            "{name} must be finite"),
    "inf": (lambda v: np.where(np.arange(len(v)) == len(v) // 2, np.inf, v),
            "{name} must be finite"),
    "one too few": (lambda v: v[:-1], "{name} has shape ({k},); expected ({n},)"),
    "scalar": (lambda v: v[0], "{name} has shape (); expected ({n},)"),
    "column": (lambda v: v[:, None], "{name} has shape ({n}, 1); expected ({n},)"),
    # the right size in another shape: read in C order, a wrong answer
    "transposed": (lambda v: v.reshape(-1, 2).T, "{name} has shape (2, {h}); expected ({n},)"),
    "complex": (lambda v: v + 1j, "{name} must be real"),
}
# targets.make takes d from the vector's own length: a shorter vector makes a
# target of lower dimension, which refuses the points, and a scalar has length 1
MAKE_MESSAGES = {"one too few": "points have dimension 2, expected 1",
                 "scalar": "coefficients has shape (); expected (1,)"}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("consumer", VECTOR_CONSUMERS)
def test_every_value_consumer_applies_the_one_value_rule(consumer, bad):
    """The one vector rule, for function values and coefficients alike."""
    name, n, consume = VECTOR_CONSUMERS[consumer]
    spoil, message = BAD_VALUES[bad]
    if consumer == "targets.make":
        message = MAKE_MESSAGES.get(bad, message)
    message = message.format(name=name, n=n, k=n - 1, h=n // 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        consume(spoil)
    consume(lambda v: v)  # the same call with the good vector passes
