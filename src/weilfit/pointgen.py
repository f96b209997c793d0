"""Deterministic collocation grids from prime power residues, plus Monte
Carlo comparison samplers and equidistribution statistics.

The deterministic grid for a prime M and dimension d is

    y_j = ( cos(2*pi*j/M), cos(2*pi*j^2/M), ..., cos(2*pi*j^d/M) ),
    j = 0, 1, ..., floor(M/2).

Rows j and M-j coincide coordinatewise (cos is even), so only the first
floor(M/2)+1 rows are ever generated.  The residue table (j^k mod M) is
computed with exact integer arithmetic; the cosine is applied once per entry.
Cancellation in the associated exponential sums is governed by Weil's
classical bound |sum_j e^{2*pi*i*f(j)/M}| <= (d-1)*sqrt(M) for polynomials f
of degree d with some coefficient not divisible by the prime M, which is what
makes these grids usable for least squares.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Deterministic Miller-Rabin witness set: exact for every n < 3.3e24, which
# comfortably covers 64-bit moduli.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus for which (M-1)^2 still fits in int64, i.e. isqrt(2**63 - 1).
MAX_MODULUS = 3_037_000_499


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2**64)."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nearest_prime(target: int) -> int:
    """Prime closest to target; equidistant ties resolve upward.

    Requires target >= 2.
    """
    target = int(target)
    if target < 2:
        raise ValueError(f"nearest_prime requires target >= 2, got {target}")
    delta = 0
    while True:
        if is_prime(target + delta):
            return target + delta
        if target - delta >= 2 and is_prime(target - delta):
            return target - delta
        delta += 1


def _check_modulus(M: int) -> None:
    if not is_prime(M):
        raise ValueError(f"modulus M={M} is not prime")
    if M > MAX_MODULUS:
        raise ValueError(f"modulus M={M} exceeds {MAX_MODULUS}, the largest "
                         f"with exact int64 residues")


def _physical_memory():
    """Bytes of physical memory of the machine, or None where the operating
    system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


@dataclass(frozen=True)
class SampleSet:
    """A batch of Monte Carlo points in [-1,1]^d."""

    points: np.ndarray


@dataclass(frozen=True)
class WeilGrid:
    """Deterministic grid y_j = cos(2*pi*(j, j^2, ..., j^d)/M), j = 0..floor(M/2)."""

    M: int
    d: int
    residues: np.ndarray  # (floor(M/2)+1, d) int64, exact j^k mod M
    points: np.ndarray    # (floor(M/2)+1, d) float64

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def weil_grid(M: int, d: int) -> WeilGrid:
    """Build the deterministic grid for prime modulus M in dimension d.

    Parameters
    ----------
    M : prime modulus, at most 3 037 000 499 (validated; else ValueError)
    d : dimension, >= 1

    Returns
    -------
    WeilGrid with floor(M/2)+1 rows.  Row j=0 is exactly (1, ..., 1).

    A grid whose residue and point arrays, 16*d*(floor(M/2)+1) bytes, exceed
    the machine's physical memory is refused with ValueError before anything
    is allocated.
    """
    M, d = int(M), int(d)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_modulus(M)
    m = M // 2
    size, memory = 16 * d * (m + 1), _physical_memory()
    if memory is not None and size > memory:
        raise ValueError(f"the grid for M={M}, d={d} needs {size / 2**30:.1f} GiB, "
                         f"more than the {memory / 2**30:.1f} GiB of physical memory")
    js = np.arange(m + 1, dtype=np.int64)
    residues = np.empty((m + 1, d), dtype=np.int64)
    r = js % M
    residues[:, 0] = r
    for k in range(1, d):
        r = (r * js) % M
        residues[:, k] = r
    points = np.cos(2.0 * np.pi * residues / M)
    return WeilGrid(M, d, residues, points)


def mc_sample(measure: str, n: int, d: int, seed: int) -> SampleSet:
    """Draw n i.i.d. points in [-1,1]^d.

    measure = "chebyshev": arcsine (Chebyshev) product measure via y = cos(pi*U),
    U uniform on [0,1).  measure = "uniform": uniform on [-1,1]^d.

    The generator is numpy's PCG64 seeded with `seed`; identical
    (measure, n, d, seed) inputs reproduce bit-identical points.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if measure == "chebyshev":
        pts = np.cos(np.pi * rng.random((n, d)))
    elif measure == "uniform":
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
    else:
        raise ValueError(f"unknown measure {measure!r}; expected 'chebyshev' or 'uniform'")
    return SampleSet(pts)


def point_array(pts) -> np.ndarray:
    """Normalize a WeilGrid, SampleSet, or array-like into an (n, d) float array."""
    arr = getattr(pts, "points", pts)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must form a 2-d array, got shape {arr.shape}")
    return arr


def weil_exponential_sum(coeffs, M: int) -> complex:
    """Exact exponential sum sum_{j=0}^{M-1} e^{2*pi*i*f(j)/M} for
    f(x) = c_1 x + c_2 x^2 + ... + c_d x^d (no constant term).

    Requires prime M and at least one coefficient not divisible by M, the
    hypotheses of Weil's bound |sum| <= (d-1)*sqrt(M).  The residues f(j) mod M
    are computed by exact int64 Horner evaluation, so M <= 3 037 000 499; each
    term contributes one complex exponential.
    """
    M = int(M)
    _check_modulus(M)
    cmod = [int(c) % M for c in coeffs]
    if not cmod:
        raise ValueError("empty coefficient list")
    if all(c == 0 for c in cmod):
        raise ValueError(
            "all coefficients are divisible by M; the exponential-sum bound "
            "hypothesis fails"
        )
    js = np.arange(M, dtype=np.int64)
    acc = np.zeros(M, dtype=np.int64)
    for c in reversed(cmod):  # Horner: f(x) = x*(c_1 + x*(c_2 + ...))
        acc = (acc * js + c) % M
    acc = (acc * js) % M
    return complex(np.exp((2j * np.pi / M) * acc).sum())


def _validate_box(box, d):
    box = [(float(a), float(b)) for a, b in box]
    if len(box) != d:
        raise ValueError(f"box has {len(box)} intervals for {d}-dimensional points")
    for a, b in box:
        if not (-1.0 <= a <= b <= 1.0):
            raise ValueError(f"invalid interval [{a}, {b}]; need -1 <= a <= b <= 1")
    return box


def equidist_box_fraction(pts, box) -> float:
    """Fraction of points lying in the closed box prod_i [a_i, b_i]."""
    arr = point_array(pts)
    box = _validate_box(box, arr.shape[1])
    inside = np.ones(arr.shape[0], dtype=bool)
    for i, (a, b) in enumerate(box):
        inside &= (arr[:, i] >= a) & (arr[:, i] <= b)
    return float(inside.mean())


def arcsine_box_measure(box) -> float:
    """Product arcsine (Chebyshev) measure of a box:
    prod_i (asin(b_i) - asin(a_i)) / pi."""
    box = _validate_box(box, len(box))
    meas = 1.0
    for a, b in box:
        meas *= (math.asin(b) - math.asin(a)) / math.pi
    return meas
