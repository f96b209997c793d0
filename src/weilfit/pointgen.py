"""Deterministic collocation grids from prime power residues, plus Monte
Carlo comparison samplers and equidistribution statistics.

The deterministic grid for a prime M and dimension d is

    y_j = ( cos(2*pi*j/M), cos(2*pi*j^2/M), ..., cos(2*pi*j^d/M) ),
    j = 0, 1, ..., floor(M/2).

Rows j and M-j coincide coordinatewise (cos is even), so only the first
floor(M/2)+1 rows are ever generated.  The residues j^k mod M are computed
with exact integer arithmetic; the cosine is applied once per entry.
Cancellation in the associated exponential sums is governed by Weil's
classical bound |sum_j e^{2*pi*i*f(j)/M}| <= (d-1)*sqrt(M) for polynomials f
of degree d with some coefficient not divisible by the prime M, which is what
makes these grids usable for least squares.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

# Deterministic Miller-Rabin witness set: exact for every n < 3.3e24, which
# comfortably covers 64-bit moduli.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus for which M^2, and so every int64 residue product up to
# M(M-1), fits in int64, i.e. isqrt(2**63 - 1).
MAX_MODULUS = 3_037_000_499


def _integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int: the one integer rule.  ValueError unless it is an
    int or a numpy integer (bools excluded), so 7.5 or 7.0 is refused, never
    truncated, and unless it is at least `minimum` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _choice(name: str, value, allowed) -> None:
    """The one choice rule: ValueError unless value is one of `allowed`."""
    if value not in allowed:
        raise ValueError(f"unknown {name} {value!r}; expected one of {allowed}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2**64)."""
    n = _integer("n", n)
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

    Requires an int target >= 2.
    """
    target = _integer("target", target)
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


def check_memory(what: str, size: int) -> None:
    """Raise ValueError when `what` needs more than the machine's physical
    memory (`size` bytes); no check where that memory size is unknown."""
    memory = _physical_memory()
    if memory is not None and size > memory:
        try:
            need = f"{size / 2**30:.1f} GiB"
        except OverflowError:
            need = f"more than {sys.float_info.max:.1e} GiB"
        raise ValueError(f"{what} needs {need}, more than the "
                         f"{memory / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class SampleSet:
    """A point set in [-1,1]^d: a Weil grid or a Monte Carlo sample."""

    points: np.ndarray    # (n, d) float64


def _powers(js, M: int, d: int):
    """Yield j^k mod M for k = 1..d over a window js of int64 values in
    [0, M), exactly in int64: each product r*j <= (M-1)^2 < 2^63 for
    M <= MAX_MODULUS.  Every yield is the same array, overwritten in place
    by the next power."""
    r = js % M
    yield r
    for _ in range(1, d):
        np.multiply(r, js, out=r)
        np.remainder(r, M, out=r)
        yield r


def weil_grid(M: int, d: int) -> SampleSet:
    """Build the deterministic grid for prime modulus M in dimension d.

    Parameters
    ----------
    M : prime modulus, at most 3 037 000 499
    d : dimension, >= 1
    (both ints by _integer's rule; else ValueError)

    Returns
    -------
    SampleSet with floor(M/2)+1 rows.  Row j=0 is exactly (1, ..., 1).

    Each residue column j^k mod M is computed exactly in int64 and written
    straight into the point array, which the cosine then overwrites.  The
    points, the j's and one residue column take 8*(d+2)*(floor(M/2)+1)
    bytes, tracemalloc's peak; a grid for which that exceeds the machine's
    physical memory is refused with ValueError before anything is allocated.
    """
    M, d = _integer("M", M), _integer("d", d, 1)
    _check_modulus(M)
    m = M // 2
    check_memory(f"the grid for M={M}, d={d}", 8 * (d + 2) * (m + 1))
    js = np.arange(m + 1, dtype=np.int64)
    points = np.empty((m + 1, d))
    for k, r in enumerate(_powers(js, M, d)):
        points[:, k] = r
    points *= 2.0 * np.pi
    points /= M
    np.cos(points, out=points)
    return SampleSet(points)


def mc_sample(measure: str, n: int, d: int, seed: int) -> SampleSet:
    """Draw n i.i.d. points in [-1,1]^d.

    measure = "chebyshev": arcsine (Chebyshev) product measure via y = cos(pi*U),
    U uniform on [0,1).  measure = "uniform": uniform on [-1,1]^d.

    The generator is numpy's PCG64 seeded with `seed`; identical
    (measure, n, d, seed) inputs reproduce bit-identical points.  n, d and
    seed follow _integer's rule, n and d >= 1 and seed >= 0, and measure is
    one of the two (else ValueError).  The cosine is taken in place, so the
    8*n*d bytes of the points are tracemalloc's peak; a sample for which
    they exceed the machine's physical memory is refused with ValueError
    before anything is drawn.
    """
    n, d = _integer("n", n, 1), _integer("d", d, 1)
    _choice("measure", measure, ("chebyshev", "uniform"))
    seed = _integer("seed", seed, 0)
    check_memory(f"the {n} x {d} {measure} sample", 8 * n * d)
    rng = np.random.Generator(np.random.PCG64(seed))
    if measure == "uniform":
        return SampleSet(rng.uniform(-1.0, 1.0, size=(n, d)))
    pts = rng.random((n, d))
    pts *= np.pi
    np.cos(pts, out=pts)
    return SampleSet(pts)


def point_array(pts, d: int | None = None) -> np.ndarray:
    """A SampleSet or array-like as an (n, d) float array (a 1-d input is
    one column): the one point-set rule, which every function that takes
    points applies.  ValueError unless the array is real, 2-d, nonempty and
    of dimension d (when given), and every coordinate finite and in [-1, 1]."""
    arr = np.asarray(getattr(pts, "points", pts))
    if np.iscomplexobj(arr):
        raise ValueError("points must be real")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must form a 2-d array, got shape {arr.shape}")
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"points have dimension {arr.shape[1]}, expected {d}")
    if arr.shape[0] == 0:
        raise ValueError("empty point set")
    if not np.all(np.abs(arr) <= 1.0):  # also false for NaN
        bad = float(np.max(np.abs(arr)))
        raise ValueError(f"evaluation points must lie in [-1,1]; max |y| = {bad}")
    return arr


def _values(values, n: int, name: str = "function values") -> np.ndarray:
    """values as a float (n,) array: the one vector rule, for function values
    and coefficients.  ValueError unless it is real, of shape (n,), finite."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real")
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}; expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _polynomial_residues(cmod, js, M: int) -> np.ndarray:
    """f(j) mod M for f(x) = c_1 x + ... + c_d x^d over a window js of int64
    values in [0, M), with cmod the c_k mod M, by int64 Horner evaluation:
    each step's acc*j + c <= (M-1)^2 + (M-1) = M(M-1) < 2^63 for
    M <= MAX_MODULUS, so every residue is exact."""
    acc = np.zeros(js.shape[0], dtype=np.int64)
    for c in reversed(cmod):  # Horner: f(x) = x*(c_1 + x*(c_2 + ...))
        acc = (acc * js + c) % M
    return (acc * js) % M


def weil_exponential_sum(coeffs, M: int) -> complex:
    """Exact exponential sum sum_{j=0}^{M-1} e^{2*pi*i*f(j)/M} for
    f(x) = c_1 x + c_2 x^2 + ... + c_d x^d (no constant term).

    Requires prime M and at least one coefficient not divisible by M, the
    hypotheses of Weil's bound |sum| <= (d-1)*sqrt(M); M and the
    coefficients are ints (else ValueError).  The residues f(j) mod M
    are computed by exact int64 Horner evaluation, so M <= 3 037 000 499; each
    term contributes one complex exponential.  The arrays of M entries take
    48*M bytes at their peak; a sum whose arrays exceed the machine's physical
    memory is refused with ValueError before anything is allocated.
    """
    M = _integer("M", M)
    _check_modulus(M)
    cmod = [_integer("coefficient", c) % M for c in coeffs]
    if not cmod:
        raise ValueError("empty coefficient list")
    if all(c == 0 for c in cmod):
        raise ValueError(
            "all coefficients are divisible by M; the exponential-sum bound "
            "hypothesis fails"
        )
    check_memory(f"the exponential sum for M={M}", 48 * M)
    acc = _polynomial_residues(cmod, np.arange(M, dtype=np.int64), M)
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
    """Fraction of points lying in the closed box prod_i [a_i, b_i].  The
    points follow point_array's rule: an empty set, a NaN or a coordinate
    outside [-1, 1] raises ValueError, never gives NaN or counts as outside."""
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
