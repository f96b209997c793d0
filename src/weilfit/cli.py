"""Command-line interface: argparse and CSV formatting.

Subcommands
-----------
points       write a deterministic grid as CSV (j,y1,...,yd)
fit          least-squares fit of tabulated values on tabulated points
cond-study   Gram condition number vs order q (CSV: q,N,m,M,cond_A)
conv-study   discrete L2 error vs order q    (CSV: q,N,m,M,l2_error)
equidist     box-counting vs the product arcsine measure
check-bounds run the Gram-bound / spectral-gap / exponential-sum suites

Exit codes: 0 success, 2 invalid arguments or malformed input, or a request
too large for memory (MemoryError), 3 numerical failure (singular system),
4 I/O error.

Every output CSV starts with `# key=value` comment lines echoing the full
resolved configuration, enough to re-run the command.  Floats are written as
shortest round-trip decimals.  The study protocol lives in `weilfit.study`.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import diagnostics, study, targets
from .indexsets import KINDS, build_index_set
from .lstsq import (SingularSystemError, TARGET_DENSITIES, WEIGHT_KINDS,
                    condition, solve)
from .pointgen import (arcsine_box_measure, equidist_box_fraction, is_prime,
                       nearest_prime, weil_exponential_sum, weil_grid)
from .polybasis import FAMILIES, NORMALIZATIONS, BasisSpec


def _write_csv(path, comments, header, rows) -> None:
    """Write one `# line` per comment, then the header row, then the rows."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _study_row(q, N, m, M, val):
    assert is_prime(M) and m == M // 2 + 1  # emit-time bookkeeping check
    return [q, N, m, M, repr(float(val)) if np.isfinite(val) else "inf"]


def _write_study(args, cfg, colname, value, comments=()):
    """Run the study, then write its CSV: the config echo, `comments`, one
    `# rep` line per repetition when there are several, and the rows."""
    rows, reps = study.run(cfg, value)
    lines = cfg.echo_lines() + list(comments)
    if cfg.repetitions > 1:
        lines += [f"rep q={q} rep={rep} {colname}={val!r}" for q, rep, val in reps]
    _write_csv(args.out, lines, ["q", "N", "m", "M", colname],
               [_study_row(*row) for row in rows])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_points(args) -> int:
    M = nearest_prime(args.M)
    grid = weil_grid(M, args.d)
    _write_csv(args.out, [f"M={M}", f"M_target={args.M}", f"d={args.d}"],
               ["j"] + [f"y{i + 1}" for i in range(args.d)],
               ([j] + [repr(float(v)) for v in row] for j, row in enumerate(grid.points)))
    print(f"M={M}")
    print(f"wrote {grid.n_points} points to {args.out}")
    return 0


def _read_points_csv(path):
    rows = []
    d = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0] == "j":
                d = len(parts) - 1
                continue
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed point row {raw.strip()!r}")
            if d is not None and len(rows[-1]) != d:
                raise ValueError(f"{path}:{lineno}: expected {d} coordinates")
    if not rows:
        raise ValueError(f"{path}: no point rows found")
    return np.asarray(rows)


def _read_values_csv(path):
    vals = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("f", "value", "values"):
                continue
            try:
                vals.append(float(line.split(",")[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed value row {raw.strip()!r}")
    if not vals:
        raise ValueError(f"{path}: no value rows found")
    return np.asarray(vals)


def cmd_fit(args) -> int:
    pts = _read_points_csv(args.points)
    fvals = _read_values_csv(args.values)
    if len(fvals) != pts.shape[0]:
        raise ValueError(
            f"row count mismatch: {pts.shape[0]} points in {args.points} but "
            f"{len(fvals)} values in {args.values}"
        )
    index_set = build_index_set(args.space, args.q, pts.shape[1])
    spec = BasisSpec(args.family, args.normalization)
    scheme = study.weight_scheme(args.weights, args.target_density)
    fit = solve(pts, fvals, index_set, spec, scheme)
    rep = fit.condition_report
    _write_csv(args.out,
               [f"space={args.space}", f"q={args.q}", f"d={pts.shape[1]}",
                f"family={args.family}", f"normalization={args.normalization}",
                f"weights={args.weights}", f"target_density={args.target_density}",
                f"n_points={pts.shape[0]}", f"N={index_set.N}",
                f"cond_D={repr(rep.cond_D)}", f"cond_A={repr(rep.cond_A)}",
                f"residual_norm={repr(fit.residual_norm)}"],
               ["index", "coefficient"],
               [["(" + ",".join(str(c) for c in n) + ")", repr(float(coef))]
                for n, coef in zip(index_set.indices, fit.coefficients)])
    print(f"N={index_set.N} cond_D={rep.cond_D:.6e} cond_A={rep.cond_A:.6e} "
          f"residual={fit.residual_norm:.6e}")
    return 0


def cmd_cond_study(args) -> int:
    cfg = study.resolve_config(args)
    spec, scheme = cfg.basis_spec(), cfg.weight_scheme()

    def cond_A(pts, index_set):
        return condition(pts, index_set, spec, scheme).cond_A

    return _write_study(args, cfg, "cond_A", cond_A)


def cmd_conv_study(args) -> int:
    cfg = study.resolve_config(args)
    spec, scheme = cfg.basis_spec(), cfg.weight_scheme()
    coeffs = cfg.target_coeffs()
    f = targets.make(cfg.target, coeffs)

    def l2_error(pts, index_set):
        try:
            fit = solve(pts, f(pts), index_set, spec, scheme)
        except SingularSystemError:
            return float("inf")
        return diagnostics.l2_error(fit, f, cfg.n_test, seed=cfg.seed).l2_error

    return _write_study(args, cfg, "l2_error", l2_error,
                        ["target_coeffs=" + ",".join(repr(float(v)) for v in coeffs)])


def parse_boxes(text: str, d: int):
    """Boxes: ';' between boxes, 'x' between coordinates, 'a:b' per interval,
    e.g. '0:0.5x0:0.5;-1:0x-1:1'."""
    boxes = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        intervals = []
        for part in token.split("x"):
            pieces = part.split(":")
            if len(pieces) != 2:
                raise ValueError(f"malformed interval {part!r} in box {token!r}")
            intervals.append((float(pieces[0]), float(pieces[1])))
        if len(intervals) != d:
            raise ValueError(f"box {token!r} has {len(intervals)} intervals; expected {d}")
        boxes.append((token, intervals))
    if not boxes:
        raise ValueError("no boxes given")
    return boxes


def cmd_equidist(args) -> int:
    M = nearest_prime(args.M)
    grid = weil_grid(M, args.d)
    boxes = parse_boxes(args.boxes, args.d)
    rows = []
    for token, box in boxes:
        frac = equidist_box_fraction(grid, box)
        meas = arcsine_box_measure(box)
        rows.append([token, repr(frac), repr(meas), repr(abs(frac - meas))])
    _write_csv(args.out, [f"M={M}", f"M_target={args.M}", f"d={args.d}", f"boxes={args.boxes}"],
               ["box", "observed_fraction", "arcsine_measure", "abs_deviation"], rows)
    print(f"M={M}")
    print(f"wrote {len(boxes)} rows to {args.out}")
    return 0


def cmd_check_bounds(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    ds = [int(t) for t in args.dims.split(",")]
    qs = [int(t) for t in args.orders.split(",")]
    reports = []
    for d in ds:
        for q in qs:
            first = 2 * q + 2  # smallest prime beyond the bound hypothesis
            while not is_prime(first):
                first += 1
            index_set = build_index_set("TD", q, d)
            # 97 and 997 join only where they meet the hypothesis M > 2q+1
            moduli = {first} | {p for p in (97, 997) if p > 2 * q + 1}
            for M in sorted(moduli):
                reports.append(diagnostics.check_gram_bounds(M, index_set, restrict_nonzero=True))
    _write_csv(args.out,
               [f"dims={args.dims}", f"orders={args.orders}", "basis=chebyshev/classical",
                "weights=unit"],
               ["M", "d", "q", "max_offdiag", "offdiag_bound", "diag_min", "diag_max", "pass"],
               [[r.M, r.d, r.q, repr(r.max_offdiag_abs), repr(r.offdiag_bound),
                 repr(r.diag_min), repr(r.diag_max), "true" if r.passed else "false"]
                for r in reports])
    n_fail = sum(1 for r in reports if not r.passed)
    for r in reports:
        if r.passed:
            status = "pass"
        else:
            parts = [name for name, ok in
                     [("offdiag", r.offdiag_pass), ("diag", r.diag_pass)] if not ok]
            status = "FAIL(" + ",".join(parts) + ")"
        print(f"gram-bounds d={r.d} q={r.q} M={r.M}: {status} "
              f"(max_offdiag={r.max_offdiag_abs:.4f} bound={r.offdiag_bound:.4f} "
              f"diag=[{r.diag_min:.4f},{r.diag_max:.4f}] "
              f"target=[{r.diag_bounds[0]:.4f},{r.diag_bounds[1]:.4f}])")

    gap1 = diagnostics.spectral_gap(67, [(1,), (2,)])
    gap2 = diagnostics.spectral_gap(4099, [(1, 1), (1, 2), (2, 1), (2, 2)])
    ok1, ok2 = gap1 <= 0.5, gap2 <= 0.5
    print(f"spectral-gap d=1 M=67: {gap1:.6f} {'pass' if ok1 else 'FAIL'}")
    print(f"spectral-gap d=2 M=4099: {gap2:.6f} {'pass' if ok2 else 'FAIL'}")

    rng = np.random.Generator(np.random.PCG64(args.seed))
    n_sum_fail = 0
    for _ in range(48):
        M = int(rng.choice([101, 499, 997, 2309, 10007]))
        deg = int(rng.integers(1, 7))
        coeffs = rng.integers(-10, 11, deg)
        while all(int(c) % M == 0 for c in coeffs):
            coeffs = rng.integers(-10, 11, deg)
        s = weil_exponential_sum([int(c) for c in coeffs], M)
        if abs(s) > (deg - 1) * math.sqrt(M) + 1e-9:
            n_sum_fail += 1
    print(f"exponential-sum bound, 48 draws: {'pass' if n_sum_fail == 0 else 'FAIL'}")

    n_fail += (not ok1) + (not ok2) + n_sum_fail
    print(f"wrote {len(reports)} rows to {args.out}")
    if args.strict and n_fail:
        print(f"{n_fail} check(s) failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_basis_flags(p, defaults):
    """--space/--family/--normalization/--weights/--target-density, defaulting
    to the fields of `defaults` (None leaves them unset)."""
    for name, choices in (("space", KINDS), ("family", FAMILIES),
                          ("normalization", NORMALIZATIONS),
                          ("weights", WEIGHT_KINDS),
                          ("target_density", TARGET_DENSITIES)):
        p.add_argument("--" + name.replace("_", "-"), dest=name, choices=list(choices),
                       default=getattr(defaults, name, None))


def _add_study_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    _add_basis_flags(p, None)
    p.add_argument("--d", type=int, dest="d")
    p.add_argument("--q-min", type=int, dest="q_min")
    p.add_argument("--q-max", type=int, dest="q_max")
    p.add_argument("--scaling", choices=list(study.SCALINGS))
    p.add_argument("--c", type=float, dest="c")
    p.add_argument("--grid", choices=list(study.GRIDS))
    p.add_argument("--repetitions", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--target", choices=list(targets.TARGET_NAMES))
    p.add_argument("--coeffs", help="comma-separated target coefficients")
    p.add_argument("--coeff-seed", type=int, dest="coeff_seed")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weilfit",
        description="Least-squares polynomial approximation on deterministic "
                    "prime-residue (Weil-type) collocation grids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="write a deterministic grid as CSV")
    p.add_argument("--M", type=int, required=True, help="target modulus (nearest prime is used)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("fit", help="least-squares fit of tabulated values")
    p.add_argument("--points", required=True, help="CSV from the points subcommand")
    p.add_argument("--values", required=True, help="CSV/text with one value per point row")
    p.add_argument("--q", type=int, required=True)
    _add_basis_flags(p, study.StudyConfig())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cond-study", help="condition number vs order")
    _add_study_flags(p)
    p.set_defaults(func=cmd_cond_study)

    p = sub.add_parser("conv-study", help="discrete L2 error vs order")
    _add_study_flags(p)
    p.set_defaults(func=cmd_conv_study)

    p = sub.add_parser("equidist", help="box counts vs the arcsine measure")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--boxes", required=True,
                   help="';'-separated boxes, 'x'-separated 'a:b' intervals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("check-bounds", help="run the diagnostic bound suites")
    p.add_argument("--dims", default="1,2,3", help="comma-separated dimensions")
    p.add_argument("--orders", default="1,2,3", help="comma-separated orders q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any check fails")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
