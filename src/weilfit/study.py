"""The conditioning and convergence study protocols.

A study sweeps the order q from q_min to q_max.  Each q is one cell: its
index set fixes N, the scaling rule fixes the point count m and the prime
modulus M (`realize_cell`), and the cell's points come from the Weil grid or
a Monte Carlo sampler (`cell_points`).  `run` hands the points of every
(q, repetition) cell to one `values` callable, the Gram cond_A in `cond_study`
and the fit's L2 error in `conv_study`, and averages the repetitions.
Monte Carlo cells draw their points from PCG64 seeded with
SeedSequence([seed, q, rep]); weil grids force repetitions=1.  A cell with
fewer points than basis functions (m < N) records inf without being
evaluated.  `StudyConfig` is the one table of study settings.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, fields
from itertools import starmap

import numpy as np

from . import targets
from .diagnostics import l2_error
from .indexsets import KINDS, build_index_set
from .lstsq import (TARGET_DENSITIES, UNIT_WEIGHTS, WEIGHT_KINDS, SingularSystemError,
                    WeightScheme, condition, solve)
from .pointgen import (MAX_MODULUS, _choice, _integer, is_prime, mc_sample,
                       nearest_prime, weil_grid)
from .polybasis import FAMILIES, NORMALIZATIONS, BasisSpec

GRIDS = ("weil", "mc_chebyshev", "mc_uniform")
SCALINGS = ("linear", "quadratic")

# The allowed values of each StudyConfig setting that takes one of a few.
CHOICES = {"space": KINDS, "family": FAMILIES, "normalization": NORMALIZATIONS,
           "weights": WEIGHT_KINDS, "target_density": TARGET_DENSITIES,
           "scaling": SCALINGS, "grid": GRIDS, "target": targets.TARGET_NAMES}


@dataclass
class StudyConfig:
    """Every study setting.  Each field is a config key (`load_config`) and a
    flag (`--q-min` for q_min, help text from its `help` metadata), parsed as
    the field's type; every field is checked, also those a study kind does
    not read: choices against CHOICES by _choice, int fields by _integer
    and c as a positive finite real number."""

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
    coeffs: str = field(  # empty = the published set
        default="", metadata={"help": "comma-separated target coefficients; join a "
                                      "value that starts with - by =, as in "
                                      "--coeffs=-0.5,1.0"})
    coeff_seed: int = -1    # -1 = unset
    n_test: int = 2000

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            _choice(name.replace("_", " "), getattr(self, name), allowed)
        # q_min, q_max and coeff_seed keep their own range messages, below
        minimum = {"d": 1, "repetitions": 1, "seed": 0, "n_test": 1}
        for f in fields(self):
            if f.type == "int":
                setattr(self, f.name, _integer(f.name, getattr(self, f.name),
                                               minimum.get(f.name)))
        if self.q_min < 0 or self.q_max < self.q_min:
            raise ValueError(f"bad q range [{self.q_min}, {self.q_max}]")
        if isinstance(self.c, bool) or not isinstance(self.c, numbers.Real):
            raise ValueError(f"scaling constant c must be a real number, got {self.c!r}")
        if not 0 < self.c < math.inf:  # also rejects NaN
            raise ValueError(f"scaling constant c must be positive and finite, got {self.c}")
        if self.coeff_seed < -1:
            raise ValueError(f"coeff_seed must be >= 0 (or -1, unset), got {self.coeff_seed}")
        self.basis_spec()  # legendre has no classical normalization
        if self.coeffs:
            try:
                c = self.target_coeffs()
            except ValueError:
                c = ()
            if len(c) != self.d or not all(map(math.isfinite, c)):
                raise ValueError(f"coeffs must be d = {self.d} finite comma-separated "
                                 f"floats, got {self.coeffs!r}")
        if self.grid == "weil":
            self.repetitions = 1  # deterministic grid: averaging is a no-op

    def basis_spec(self) -> BasisSpec:
        return BasisSpec(self.family, self.normalization)

    def weight_scheme(self) -> WeightScheme:
        """The row weights; the target density only matters for
        density-ratio weights."""
        if self.weights == "unit":
            return UNIT_WEIGHTS
        return WeightScheme(self.weights, self.target_density)

    def target_coeffs(self):
        if self.coeffs:
            return tuple(float(t) for t in self.coeffs.split(","))
        seed = None if self.coeff_seed < 0 else self.coeff_seed
        return targets.coefficients(self.target, self.d, seed)

    def echo_lines(self):
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


def load_config(path) -> dict:
    """Parse a flat key=value config file ('#' starts a comment) into a dict
    of StudyConfig fields, each value parsed as its field's type.

    A malformed line, an unknown or repeated key or an unparsable value
    raises ValueError naming the file and line; StudyConfig checks them."""
    known = typing.get_type_hints(StudyConfig)
    values, first = {}, {}
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
            if first.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r} "
                                 f"(first on line {first[key]})")
            kind = known[key]
            try:
                values[key] = kind(val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {kind.__name__}, "
                                 f"got {val!r}") from None
    return values


def resolve_config(args) -> StudyConfig:
    """Config file first, then explicit command-line overrides."""
    values = load_config(args.config) if getattr(args, "config", None) else {}
    for f in fields(StudyConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return StudyConfig(**values)


def realize_cell(cfg: StudyConfig, q: int):
    """(index_set, N, m, M) for one study cell.

    M = nearest_prime(max(3, 2*m_target - 1)) for m_target = round(c*N) or
    round(c*N^2), at least 1: an odd prime, as the paper's grids assume (M = 2
    is two corners), and m = floor(M/2)+1.  The rule fixes the point count of
    Monte Carlo cells too, so weil and MC rows are comparable at equal m.
    ValueError when M would pass 3 037 000 499, the Weil grids' modulus limit.
    """
    index_set = build_index_set(cfg.space, q, cfg.d)
    N = index_set.N
    size = N * N if cfg.scaling == "quadratic" else N
    # Rounded half up, and capped first so a huge c*size never reaches
    # math.floor; any capped target is past the limit anyway.
    m_target = max(1, math.floor(min(cfg.c * size, MAX_MODULUS) + 0.5))
    M = nearest_prime(max(3, 2 * m_target - 1))
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


def run(cfg: StudyConfig, values):
    """Realize every cell, then call values(cells) once.

    `cells` iterates over (points, index_set) for each repetition of each
    cell with m >= N, in (q, rep) order, and `values` returns one float per
    item.  Returns (rows, reps): one (q, N, m, M, mean over repetitions) row
    per order and one (q, rep, value) per repetition, in (q, rep) order; a
    cell with m < N reads inf.  A cell past the modulus limit raises
    ValueError before any cell is evaluated; a cell too large for physical
    memory is refused by the memory check of lstsq's condition or solve.
    """
    cells = [(q,) + realize_cell(cfg, q) for q in range(cfg.q_min, cfg.q_max + 1)]

    def evaluated():
        for q, index_set, N, m, M in cells:
            if m < N:
                continue
            for rep in range(cfg.repetitions):
                yield cell_points(cfg, q, m, M, rep), index_set

    scores = iter(values(evaluated()))
    R = cfg.repetitions
    vals = [next(scores) if m >= N else math.inf
            for q, index_set, N, m, M in cells for rep in range(R)]
    rows = [(q, N, m, M, float(np.mean(vals[k * R:(k + 1) * R])))
            for k, (q, index_set, N, m, M) in enumerate(cells)]
    assert all(is_prime(M) and m == M // 2 + 1 for _, _, m, M, _ in rows)  # bookkeeping
    reps = [(cell[0], rep, vals[k * R + rep])
            for k, cell in enumerate(cells) for rep in range(R)]
    return rows, reps


def cond_study(cfg: StudyConfig):
    """run's (rows, reps) with each cell's cond_A (lstsq.condition)."""
    spec, scheme = cfg.basis_spec(), cfg.weight_scheme()

    def cond_A(pts, index_set):
        return condition(pts, index_set, spec, scheme).cond_A

    # starmap drops each cell's points before the next cell's are made (a
    # comprehension's loop variable would hold them meanwhile)
    return run(cfg, lambda cells: list(starmap(cond_A, cells)))


def conv_study(cfg: StudyConfig):
    """run's (rows, reps) with the discrete L2 error of each cell's fit (inf
    if singular), all scored on one sample of n_test points drawn with seed."""
    spec, scheme = cfg.basis_spec(), cfg.weight_scheme()
    f = targets.make(cfg.target, cfg.target_coeffs())

    def fit(pts, index_set):
        try:
            return solve(pts, f(pts), index_set, spec, scheme)
        except SingularSystemError:
            return None  # scores inf

    def l2_errors(cells):
        fits = list(starmap(fit, cells))  # as in cond_study
        return l2_error(fits, f, cfg.n_test, seed=cfg.seed).l2_error

    return run(cfg, l2_errors)
