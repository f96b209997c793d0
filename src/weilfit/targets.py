"""Benchmark target functions for convergence studies.

Each target is a smooth (or kink-bearing) function of the linear form
s = c_1 y^1 + ... + c_d y^d:

    expsum   f(y) = exp(-s)
    cossum   f(y) = cos(s)
    abscube  f(y) = |s|^3

The coefficient vectors shipped in FIXED_COEFFS are frozen constants so that
study results are reproducible run to run; a seeded generator is provided for
fresh draws.
"""

from __future__ import annotations

import numpy as np

from .pointgen import _choice, _integer, point_array

TARGET_NAMES = ("expsum", "cossum", "abscube")

# Frozen uniform(-1,1) draws, rounded to 4 decimals.
FIXED_COEFFS = {
    ("expsum", 1): (-0.945,),
    ("expsum", 2): (-0.2779, 0.9986),
    ("expsum", 3): (-0.4214, 0.823, -0.1782),
    ("expsum", 4): (0.7255, 0.1035, 0.6426, 0.7891),
    ("expsum", 5): (0.0786, -0.7619, -0.5447, -0.874, -0.3579),
    ("expsum", 6): (-0.7587, 0.958, -0.8593, 0.5645, -0.014, 0.7251),
    ("cossum", 1): (0.1243,),
    ("cossum", 2): (0.6773, 0.6969),
    ("cossum", 3): (0.7364, -0.0525, 0.0558),
    ("cossum", 4): (-0.0191, -0.5679, 0.9006, 0.7295),
    ("cossum", 5): (-0.0869, -0.288, -0.1227, 0.1859, 0.0522),
    ("cossum", 6): (-0.8263, 0.6986, 0.5655, -0.7798, -0.8129, -0.5706),
    ("abscube", 1): (0.336,),
    ("abscube", 2): (0.6331, -0.7256),
    ("abscube", 3): (-0.0334, -0.5229, -0.9017),
    ("abscube", 4): (0.446, -0.8217, 0.3103, 0.0867),
    ("abscube", 5): (0.443, 0.0727, -0.7142, -0.2174, -0.3814),
    ("abscube", 6): (-0.7515, -0.4092, 0.4559, 0.2158, 0.3002, 0.2146),
}


def coefficients(target: str, d: int, seed: int | None = None) -> tuple:
    """Coefficient vector for a target in dimension d.

    With seed=None the frozen published set is returned; otherwise a fresh
    uniform(-1,1) draw from PCG64(seed).  ValueError unless target is one of
    TARGET_NAMES and d >= 1 and any seed >= 0 are ints (_integer's rule).
    """
    _choice("target", target, TARGET_NAMES)
    d = _integer("d", d, 1)
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(_integer("seed", seed, 0)))
        return tuple(float(v) for v in rng.uniform(-1.0, 1.0, d))
    try:
        return FIXED_COEFFS[(target, d)]
    except KeyError:
        raise ValueError(
            f"no published coefficient set for {target!r} in d={d}; "
            f"pass explicit coefficients or a seed"
        ) from None


def make(target: str, coeffs) -> "callable":
    """Build the target as a vectorized callable on (npts, d) point arrays,
    d = len(coeffs), which it validates by point_array's rule.  ValueError
    unless target is one of TARGET_NAMES."""
    _choice("target", target, TARGET_NAMES)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a nonempty 1-d vector")

    def f(pts):
        arr = point_array(pts)
        if arr.shape[1] != c.size:
            raise ValueError(f"target expects d={c.size} points, got d={arr.shape[1]}")
        s = arr @ c
        if target == "expsum":
            return np.exp(-s)
        if target == "cossum":
            return np.cos(s)
        return np.abs(s) ** 3

    f.__name__ = target
    return f
