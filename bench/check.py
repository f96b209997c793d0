"""Output checks for the study CSVs the benchmark workloads write.

Nothing here imports weilfit: the expected header, the cell protocol and the
recomputed cell are derived from the study's argv alone, with numpy.

* Exact: the `# key=value` config echo, the target-coefficient line, the
  per-repetition comment lines, the column header, the `q,N,m,M` columns
  against the realize_cell protocol (m_target = round-half-up(c*N) or
  round-half-up(c*N^2), M = prime nearest 2*m_target - 1 with ties upward,
  m = floor(M/2) + 1) and the primality of M.
* Within a tolerance (relative plus an absolute floor, per value column):
  each row's value against the mean of its repetitions, every value against
  a committed reference CSV when one exists for the seed, and one cell
  recomputed independently (numpy.polynomial Vandermonde matrices plus
  numpy.linalg.svd / numpy.linalg.lstsq).
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

# Every study CSV echoes these keys, in this order, with the resolved values.
ECHO_DEFAULTS = (
    ("space", "TD"), ("d", 2), ("q_min", 1), ("q_max", 10),
    ("scaling", "quadratic"), ("c", 0.5), ("family", "chebyshev"),
    ("normalization", "orthonormal"), ("weights", "unit"),
    ("target_density", "uniform"), ("grid", "weil"), ("repetitions", 100),
    ("seed", 0), ("target", "expsum"), ("coeffs", ""), ("coeff_seed", -1),
    ("n_test", 2000),
)
COLUMNS = {"cond-study": "cond_A", "conv-study": "l2_error"}

# Largest cell the independent recomputation takes on: (m + n_test) * N
# design entries, about 32 MB of float64.
RECOMPUTE_ENTRIES = 4_000_000

_REP_LINE = re.compile(r"rep q=(\d+) rep=(\d+) (\w+)=(\S+)")


class Study:
    """A study invocation: the weilfit argv (without --seed and --out), the
    seed, and the target coefficients a conv-study must echo."""

    def __init__(self, argv, seed: int, target_coeffs=()):
        self.command = argv[0]
        self.column = COLUMNS[self.command]
        cfg = dict(ECHO_DEFAULTS)
        flags = iter(argv[1:])
        for flag in flags:
            key = flag[2:].replace("-", "_")
            cfg[key] = type(cfg[key])(next(flags))
        cfg["seed"] = seed
        if cfg["grid"] == "weil":
            cfg["repetitions"] = 1  # a deterministic grid is realized once
        self.argv = list(argv) + ["--seed", str(seed)]
        self.cfg = cfg
        self.target_coeffs = tuple(float(v) for v in target_coeffs)

    @property
    def qs(self):
        return range(self.cfg["q_min"], self.cfg["q_max"] + 1)

    @property
    def reps(self) -> int:
        return self.cfg["repetitions"]

    @property
    def cells(self) -> int:
        return len(self.qs) * self.reps

    @property
    def seed_free(self) -> bool:
        """Only the `# seed=` echo line depends on the seed."""
        return self.command == "cond-study" and self.cfg["grid"] == "weil"

    def header(self) -> list:
        lines = [f"{key}={value}" for key, value in self.cfg.items()]
        if self.command == "conv-study":
            lines.append("target_coeffs=" + ",".join(repr(v) for v in self.target_coeffs))
        return lines


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def nearest_prime(target: int) -> int:
    for delta in itertools.count():
        if is_prime(target + delta):
            return target + delta
        if target - delta >= 2 and is_prime(target - delta):
            return target - delta


def realize(cfg: dict, q: int):
    """(N, m, M) of the cell of order q."""
    d = cfg["d"]
    N = (q + 1) ** d if cfg["space"] == "TP" else math.comb(q + d, d)
    size = N * N if cfg["scaling"] == "quadratic" else N
    m_target = max(1, math.floor(cfg["c"] * size + 0.5))
    M = nearest_prime(max(2, 2 * m_target - 1))
    return N, M // 2 + 1, M


def close(a: float, b: float, tol: dict) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol["rtol"] * abs(b) + tol["atol"]


def parse(text: str):
    """(comment lines without '# ', column header, data rows as string lists)."""
    lines = text.splitlines()
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    comments = [line[2:] for line in lines[:n]]
    header = lines[n] if n < len(lines) else ""
    rows = [line.split(",") for line in lines[n + 1:]]
    return comments, header, rows


def _value(text: str) -> float:
    v = float(text)
    if math.isnan(v):
        raise ValueError("nan")
    return v


def structure(study: Study, text: str):
    """Check the structure of one CSV exactly.

    Returns (errors, values): errors as (cell, message) with cell None for
    the whole file, (q, None) for a row and (q, rep) for one repetition;
    values maps (q, None) and, with repetitions, (q, rep) to floats.
    """
    comments, header, rows = parse(text)
    errors, vals = [], {}
    expected = study.header()
    if comments[:len(expected)] != expected:
        got = comments[:len(expected)]
        bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), len(got))
        errors.append((None, f"config echo line {bad + 1} differs from "
                             f"{expected[bad] if bad < len(expected) else 'end'!r}"))
    rep_lines = comments[len(expected):]
    want_reps = [(q, r) for q in study.qs for r in range(study.reps)] if study.reps > 1 else []
    if len(rep_lines) != len(want_reps):
        errors.append((None, f"{len(rep_lines)} repetition lines, expected {len(want_reps)}"))
    for line, cell in zip(rep_lines, want_reps):
        match = _REP_LINE.fullmatch(line)
        if not match or (int(match[1]), int(match[2])) != cell or match[3] != study.column:
            errors.append((cell, f"bad repetition line {line!r}"))
            continue
        try:
            vals[cell] = _value(match[4])
        except ValueError:
            errors.append((cell, f"bad value in {line!r}"))
    if header != f"q,N,m,M,{study.column}":
        errors.append((None, f"column header {header!r}"))
    if len(rows) != len(study.qs):
        errors.append((None, f"{len(rows)} rows, expected {len(study.qs)}"))
    for row, q in zip(rows, study.qs):
        cell = (q, None)
        N, m, M = realize(study.cfg, q)
        if len(row) != 5 or row[:4] != [str(q), str(N), str(m), str(M)]:
            errors.append((cell, f"row {','.join(row)!r}: expected q,N,m,M = {q},{N},{m},{M}"))
            continue
        if not is_prime(int(row[3])):
            errors.append((cell, f"M={row[3]} is not prime"))
        try:
            vals[cell] = _value(row[4])
        except ValueError:
            errors.append((cell, f"bad value {row[4]!r}"))
    return errors, vals


def check(study: Study, text: str, tol: dict, reference: str | None = None) -> list:
    """Every check on one CSV: structure, the mean over repetitions, the
    reference (when given) and one independently recomputed cell.  Returns
    the errors as (cell, message)."""
    tol = tol[study.column]
    errors, vals = structure(study, text)
    if study.reps > 1:
        for q in study.qs:
            reps = [vals.get((q, r)) for r in range(study.reps)]
            if None not in reps and (q, None) in vals and not close(
                    vals[(q, None)], float(np.mean(reps)), tol):
                errors.append(((q, None), f"q={q}: row value is not the mean of its repetitions"))
    if reference is not None and reference != text:
        _, ref_vals = structure(study, reference)
        for cell, ref in ref_vals.items():
            if cell in vals and not close(vals[cell], ref, tol):
                errors.append((cell, f"{cell}: {vals[cell]!r} differs from reference {ref!r}"))
    q, rep = recompute_cell(study)
    key = (q, rep if study.reps > 1 else None)
    if key in vals:
        want = recompute(study, q, rep)
        if not close(vals[key], want, tol):
            errors.append((key, f"{key}: {vals[key]!r} differs from the "
                                f"independent recomputation {want!r}"))
    return errors


def failed_cells(study: Study, errors) -> int:
    """Cells an error list touches: a file error fails every cell, a row
    error every repetition of that row."""
    if any(cell is None for cell, _ in errors):
        return study.cells
    bad = set()
    for (q, rep), _ in errors:
        bad.update([(q, rep)] if rep is not None else [(q, r) for r in range(study.reps)])
    return len(bad)


# ---------------------------------------------------------------------------
# independent recomputation of one cell

def recompute_cell(study: Study):
    """(q, rep) of the cell to recompute: picked by the seed among the cells
    small enough to recompute quickly."""
    cfg = study.cfg
    n_test = cfg["n_test"] if study.command == "conv-study" else 0
    small = []
    for q in study.qs:
        N, m, _ = realize(cfg, q)
        if (m + n_test) * N <= RECOMPUTE_ENTRIES:
            small.append(q)
    small = small or [study.qs[0]]
    seed = cfg["seed"]
    return small[seed % len(small)], seed % study.reps


def _points(cfg, q, m, M, rep):
    d = cfg["d"]
    if cfg["grid"] == "weil":
        residues = np.array([[pow(j, k, M) for k in range(1, d + 1)] for j in range(m)],
                            dtype=float)
        return np.cos(2.0 * np.pi * residues / M)
    state = int(np.random.SeedSequence([cfg["seed"], q, rep]).generate_state(1)[0])
    rng = np.random.Generator(np.random.PCG64(state))
    if cfg["grid"] == "mc_uniform":
        return rng.uniform(-1.0, 1.0, size=(m, d))
    return np.cos(np.pi * rng.random((m, d)))


def _design(cfg, q, pts):
    d = cfg["d"]
    orders = np.arange(q + 1)
    if cfg["family"] == "chebyshev":
        scale = np.where(orders > 0, math.sqrt(2.0), 1.0)
        if cfg["normalization"] == "classical":
            scale = np.ones(q + 1)
        tables = [npcheb.chebvander(pts[:, i], q) * scale for i in range(d)]
    else:
        tables = [npleg.legvander(pts[:, i], q) * np.sqrt(2.0 * orders + 1.0)
                  for i in range(d)]
    index = [n for n in itertools.product(range(q + 1), repeat=d)
             if cfg["space"] == "TP" or sum(n) <= q]
    D = np.ones((pts.shape[0], len(index)))
    for i in range(d):
        D *= tables[i][:, [n[i] for n in index]]
    return D


def _weights(cfg, pts):
    if cfg["weights"] == "unit" or cfg["target_density"] == "chebyshev":
        return np.ones(pts.shape[0])
    return (math.pi / 2.0) ** cfg["d"] * np.prod(np.sqrt(1.0 - pts * pts), axis=1)


def _target(name, coeffs, pts):
    s = pts @ np.asarray(coeffs)
    return {"expsum": lambda: np.exp(-s), "cossum": lambda: np.cos(s),
            "abscube": lambda: np.abs(s) ** 3}[name]()


def recompute(study: Study, q: int, rep: int) -> float:
    """The study value of cell (q, rep), without weilfit."""
    cfg = study.cfg
    N, m, M = realize(cfg, q)
    pts = _points(cfg, q, m, M, rep)
    sw = np.sqrt(_weights(cfg, pts))
    A = _design(cfg, q, pts) * sw[:, None]
    if study.command == "cond-study":
        s = np.linalg.svd(A, compute_uv=False)
        return float(s[0] / s[-1]) ** 2 if s[-1] > 0.0 else math.inf
    coeffs = study.target_coeffs
    fit = np.linalg.lstsq(A, _target(cfg["target"], coeffs, pts) * sw, rcond=None)[0]
    test = np.random.Generator(np.random.PCG64(cfg["seed"])).uniform(
        -1.0, 1.0, size=(cfg["n_test"], cfg["d"]))
    resid = _target(cfg["target"], coeffs, test) - _design(cfg, q, test) @ fit
    return float(np.sqrt(np.mean(resid * resid)))
