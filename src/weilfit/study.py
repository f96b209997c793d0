"""The conditioning and convergence study protocol.

A study sweeps the order q from q_min to q_max.  Each q is one cell: its
index set fixes N, the scaling rule fixes the point count m and the prime
modulus M (`realize_cell`), and the cell's points come from the Weil grid or
a Monte Carlo sampler (`cell_points`).  `run` evaluates one per-cell value
(a condition number, an error) in deterministic (q, repetition) order and
averages the repetitions.  Monte Carlo cells draw their points from PCG64
seeded with SeedSequence([seed, q, rep]); weil grids force repetitions=1.  A
cell with fewer points than basis functions (m < N) records inf without
being evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import targets
from .indexsets import KINDS, build_index_set
from .lstsq import UNIT_WEIGHTS, WeightScheme
from .pointgen import MAX_MODULUS, mc_sample, nearest_prime, weil_grid
from .polybasis import BasisSpec

GRIDS = ("weil", "mc_chebyshev", "mc_uniform")
SCALINGS = ("linear", "quadratic")


def weight_scheme(weights: str, target_density: str) -> WeightScheme:
    """The row weights a (weights, target_density) setting selects; the
    target density only matters for density-ratio weights."""
    if weights == "unit":
        return UNIT_WEIGHTS
    return WeightScheme(weights, target_density)


@dataclass
class StudyConfig:
    space: str = "TD"
    d: int = 2
    q_min: int = 1
    q_max: int = 10
    scaling: str = "quadratic"
    c: float = 0.5
    family: str = "chebyshev"
    normalization: str = "orthonormal"
    weights: str = "unit"
    target_density: str = "uniform"
    grid: str = "weil"
    repetitions: int = 100
    seed: int = 0
    target: str = "expsum"
    coeffs: str = ""        # comma-separated floats; empty = published set
    coeff_seed: int = -1    # -1 = unset
    n_test: int = 2000

    def __post_init__(self):
        if self.space not in KINDS:
            raise ValueError(f"unknown space {self.space!r}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.grid not in GRIDS:
            raise ValueError(f"unknown grid {self.grid!r}")
        if self.q_min < 0 or self.q_max < self.q_min:
            raise ValueError(f"bad q range [{self.q_min}, {self.q_max}]")
        if not 0 < self.c < math.inf:  # also rejects NaN
            raise ValueError(f"scaling constant c must be positive and finite, got {self.c}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        if self.grid == "weil":
            self.repetitions = 1  # deterministic grid: averaging is a no-op

    def basis_spec(self) -> BasisSpec:
        return BasisSpec(self.family, self.normalization)

    def weight_scheme(self) -> WeightScheme:
        return weight_scheme(self.weights, self.target_density)

    def target_coeffs(self):
        if self.coeffs:
            return tuple(float(t) for t in self.coeffs.split(","))
        seed = None if self.coeff_seed < 0 else self.coeff_seed
        return targets.coefficients(self.target, self.d, seed)

    def echo_lines(self):
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            out.append(f"{f.name}={v}")
        return out


def load_config(path) -> dict:
    """Parse a flat key=value config file ('#' starts a comment)."""
    known = {f.name: f.type for f in fields(StudyConfig)}
    typemap = {"int": int, "float": float}  # field annotations are strings
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = typemap.get(known[key], str)(val)
    return values


def resolve_config(args) -> StudyConfig:
    """Config file first, then explicit command-line overrides."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for f in fields(StudyConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    return StudyConfig(**values)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def realize_cell(cfg: StudyConfig, q: int):
    """(index_set, N, m, M) for one study cell.

    m_target = round(c*N) or round(c*N^2); M = nearest_prime(2*m_target - 1);
    m = floor(M/2)+1.  The same prime rule fixes the point count for Monte
    Carlo cells so weil and MC rows are comparable at equal m.  Raises
    ValueError when M would exceed the modulus limit of the Weil grids,
    3 037 000 499, for every grid kind.
    """
    index_set = build_index_set(cfg.space, q, cfg.d)
    N = index_set.N
    size = N * N if cfg.scaling == "quadratic" else N
    # Capped before rounding so a huge c*size never reaches int(); any capped
    # target is past the limit anyway.
    m_target = max(1, _round_half_up(min(cfg.c * size, MAX_MODULUS)))
    M = nearest_prime(max(2, 2 * m_target - 1))
    if M > MAX_MODULUS:
        raise ValueError(f"cell q={q} targets {cfg.c * size:.4g} points, which needs a "
                         f"modulus above {MAX_MODULUS}, the largest with exact int64 "
                         f"residues")
    m = M // 2 + 1
    return index_set, N, m, M


def cell_points(cfg: StudyConfig, q: int, m: int, M: int, rep: int):
    """The points of repetition `rep` of cell q: the weil grid of modulus M,
    or m Monte Carlo draws seeded with SeedSequence([seed, q, rep])."""
    if cfg.grid == "weil":
        return weil_grid(M, cfg.d)
    seed = int(np.random.SeedSequence([cfg.seed, q, rep]).generate_state(1)[0])
    measure = "chebyshev" if cfg.grid == "mc_chebyshev" else "uniform"
    return mc_sample(measure, m, cfg.d, seed)


def run(cfg: StudyConfig, value):
    """Evaluate value(points, index_set) -> float on every (q, rep) cell.

    Returns (rows, reps): one (q, N, m, M, mean over repetitions) row per
    order and one (q, rep, value) entry per repetition, both in (q, rep)
    order.
    """
    rows, reps = [], []
    for q in range(cfg.q_min, cfg.q_max + 1):
        index_set, N, m, M = realize_cell(cfg, q)
        vals = []
        for rep in range(cfg.repetitions):
            if m < N:
                vals.append(math.inf)
            else:
                vals.append(value(cell_points(cfg, q, m, M, rep), index_set))
            reps.append((q, rep, vals[-1]))
        rows.append((q, N, m, M, float(np.mean(vals))))
    return rows, reps
