import math

import numpy as np
import pytest

from weilfit.pointgen import (arcsine_box_measure, equidist_box_fraction,
                              is_prime, mc_sample, nearest_prime, point_array,
                              weil_exponential_sum, weil_grid)


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
    assert g.n_points == 4
    assert tuple(g.residues[3]) == (3, 2, 6)  # 3^2=9=2, 3^3=27=6 (mod 7)
    expected = np.cos(2 * np.pi * np.array([3.0, 2.0, 6.0]) / 7)
    np.testing.assert_allclose(g.points[3], expected, rtol=0, atol=0)


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
        assert np.all(g.residues[0] == 0)


def test_weil_grid_row_count_and_range():
    for M in (2, 3, 5, 101, 997):
        g = weil_grid(M, 2)
        assert g.n_points == M // 2 + 1
        assert np.all(np.abs(g.points) <= 1.0)


def test_weil_grid_residues_match_modular_pow_oracle():
    primes = [M for M in range(2, 102) if trial_division_prime(M)]
    for M in primes:
        g = weil_grid(M, 5)
        for j in range(g.n_points):
            for k in range(5):
                assert g.residues[j, k] == pow(j, k + 1, M)


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
    # 16*d*(M//2+1) bytes: 512 for (31, 2), 1632 for (101, 2); the stand-in
    # memory size keeps the refused grid tiny
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 1000)
    assert weil_grid(31, 2).n_points == 16
    with pytest.raises(ValueError, match="physical memory"):
        weil_grid(101, 2)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: None)
    assert weil_grid(101, 2).n_points == 51  # size unknown: no guard


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
