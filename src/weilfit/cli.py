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
too large for memory (MemoryError), 3 numerical failure (singular system) or
a failed check under `check-bounds --strict`, 4 I/O error.

Every output CSV starts with `# key=value` comment lines echoing the full
resolved configuration, enough to re-run the command.  Floats are written as
shortest round-trip decimals.  A command makes one library call, such as
`weilfit.study.cond_study`/`conv_study`, and only formats what it returns.
"""

from __future__ import annotations

import argparse
import csv
import sys
import typing
from dataclasses import fields

import numpy as np

from . import diagnostics, study
from .indexsets import build_index_set
from .lstsq import SingularSystemError, solve
from .pointgen import (MAX_MODULUS, arcsine_box_measure, equidist_box_fraction,
                       nearest_prime, weil_grid)

# The StudyConfig settings `fit` takes: the basis and the row weights.
_BASIS_SETTINGS = ("space", "family", "normalization", "weights", "target_density")


def _write_csv(path, comments, header, rows) -> None:
    """Write one `# line` per comment, then the header row, then the rows."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_study(args, cfg, colname, rows, reps, comments=()):
    """Write a study's CSV: the config echo, `comments`, one `# rep` line
    per repetition when there are several, and the rows."""
    lines = cfg.echo_lines() + list(comments)
    if cfg.repetitions > 1:
        lines += [f"rep q={q} rep={rep} {colname}={val!r}" for q, rep, val in reps]
    _write_csv(args.out, lines, ["q", "N", "m", "M", colname],
               [[q, N, m, M, repr(float(v)) if np.isfinite(v) else "inf"]
                for q, N, m, M, v in rows])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _grid(args):
    """(M, Weil grid) for the prime M nearest to args.M; a target above the
    limit is refused before the search, as every one snaps past it."""
    if args.M > MAX_MODULUS:
        raise ValueError(f"--M exceeds {MAX_MODULUS}, the largest modulus with exact "
                         f"int64 residues")
    M = nearest_prime(args.M)
    return M, weil_grid(M, args.d)


def cmd_points(args) -> int:
    M, grid = _grid(args)
    _write_csv(args.out, [f"M={M}", f"M_target={args.M}", f"d={args.d}"],
               ["j"] + [f"y{i + 1}" for i in range(args.d)],
               ([j] + [repr(float(v)) for v in row] for j, row in enumerate(grid.points)))
    print(f"M={M}")
    print(f"wrote {len(grid.points)} points to {args.out}")
    return 0


def _read_csv(path, kind, fields):
    """The float rows of a CSV of `kind` rows, as an array.  Blank and `#`
    lines are skipped; fields(lineno, line) gives a row's float texts, or
    None for a header.  ValueError names a malformed row, or no rows."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or (texts := fields(lineno, line)) is None:
                continue
            try:
                rows.append([float(v) for v in texts])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed {kind} row {line!r}")
    if not rows:
        raise ValueError(f"{path}: no {kind} rows found")
    return np.asarray(rows)


def _read_points_csv(path):
    """Rows j,y1,...,yd; the `j,...` header or else the first row fixes d."""
    d = None

    def fields(lineno, line):
        nonlocal d
        parts = line.split(",")
        d = len(parts) - 1 if d is None else d
        if len(parts) - 1 != d:
            raise ValueError(f"{path}:{lineno}: expected {d} coordinates")
        return None if parts[0] == "j" else parts[1:]

    return _read_csv(path, "point", fields)


def _read_values_csv(path):
    """The first field of each row; a header `f`, `value` or `values` is skipped."""
    return _read_csv(path, "value", lambda lineno, line: None if line in (
        "f", "value", "values") else line.split(",")[:1])[:, 0]


def cmd_fit(args) -> int:
    pts = _read_points_csv(args.points)
    fvals = _read_values_csv(args.values)
    if len(fvals) != pts.shape[0]:
        raise ValueError(
            f"row count mismatch: {pts.shape[0]} points in {args.points} but "
            f"{len(fvals)} values in {args.values}"
        )
    cfg = study.StudyConfig(**{name: getattr(args, name) for name in _BASIS_SETTINGS})
    index_set = build_index_set(cfg.space, args.q, pts.shape[1])
    fit = solve(pts, fvals, index_set, cfg.basis_spec(), cfg.weight_scheme())
    rep = fit.condition_report
    _write_csv(args.out,
               [f"space={cfg.space}", f"q={args.q}", f"d={pts.shape[1]}",
                f"family={cfg.family}", f"normalization={cfg.normalization}",
                f"weights={cfg.weights}", f"target_density={cfg.target_density}",
                f"n_points={pts.shape[0]}", f"N={index_set.N}",
                f"cond_D={repr(rep.cond_D)}", f"cond_A={repr(rep.cond_A)}",
                f"residual_norm={repr(fit.residual_norm)}"],
               ["index", "coefficient"],
               [["(" + ",".join(str(c) for c in n) + ")", repr(float(coef))]
                for n, coef in zip(index_set, fit.coefficients)])
    print(f"N={index_set.N} cond_D={rep.cond_D:.6e} cond_A={rep.cond_A:.6e} "
          f"residual={fit.residual_norm:.6e}")
    return 0


def cmd_cond_study(args) -> int:
    cfg = study.resolve_config(args)
    return _write_study(args, cfg, "cond_A", *study.cond_study(cfg))


def cmd_conv_study(args) -> int:
    cfg = study.resolve_config(args)
    coeffs = ",".join(repr(float(v)) for v in cfg.target_coeffs())
    return _write_study(args, cfg, "l2_error", *study.conv_study(cfg),
                        [f"target_coeffs={coeffs}"])


def parse_boxes(text: str, d: int):
    """Boxes: ';' between boxes, 'x' between coordinates, 'a:b' per interval,
    e.g. '0:1x-1:0;-1:0x-1:1'."""
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
    M, grid = _grid(args)
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
    # lazy maps: check_bounds refuses a negative seed before a malformed list
    grams, gaps, sums = diagnostics.check_bounds(map(int, args.dims.split(",")),
                                                 map(int, args.orders.split(",")),
                                                 args.seed)
    _write_csv(args.out,
               [f"dims={args.dims}", f"orders={args.orders}", "basis=chebyshev/classical",
                "weights=unit"],
               ["M", "d", "q", "max_offdiag", "offdiag_bound", "diag_min", "diag_max", "pass"],
               [[r.M, r.d, r.q, repr(r.max_offdiag_abs), repr(r.offdiag_bound),
                 repr(r.diag_min), repr(r.diag_max), "true" if r.passed else "false"]
                for r in grams])
    for r in grams:
        failed = [name for name, ok in (("offdiag", r.offdiag_pass), ("diag", r.diag_pass))
                  if not ok]
        print(f"gram-bounds d={r.d} q={r.q} M={r.M}: "
              f"{'FAIL(' + ','.join(failed) + ')' if failed else 'pass'} "
              f"(max_offdiag={r.max_offdiag_abs:.4f} bound={r.offdiag_bound:.4f} "
              f"diag=[{r.diag_min:.4f},{r.diag_max:.4f}] "
              f"target=[{r.diag_bounds[0]:.4f},{r.diag_bounds[1]:.4f}])")
    for d, M, gap, ok in gaps:
        print(f"spectral-gap d={d} M={M}: {gap:.6f} {'pass' if ok else 'FAIL'}")
    print(f"exponential-sum bound, {len(sums)} draws: {'pass' if all(sums) else 'FAIL'}")
    print(f"wrote {len(grams)} rows to {args.out}")
    n_fail = sum(not ok for ok in [r.passed for r in grams] + [g[-1] for g in gaps] + sums)
    if args.strict and n_fail:
        print(f"{n_fail} check(s) failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_settings(p, names, defaults=None):
    """One --<name> flag (with - for _) per StudyConfig field in `names`,
    parsed as the field's type and limited to its CHOICES, defaulting to the
    field of `defaults` (None leaves it unset, so a config file applies)."""
    types = typing.get_type_hints(study.StudyConfig)
    for f in fields(study.StudyConfig):
        if f.name in names:
            choices = study.CHOICES.get(f.name)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=None if types[f.name] is str else types[f.name],
                           choices=None if choices is None else list(choices),
                           default=getattr(defaults, f.name, None),
                           help=f.metadata.get("help"))


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
    _add_settings(p, _BASIS_SETTINGS, study.StudyConfig())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    for name, func, text in (("cond-study", cmd_cond_study, "condition number vs order"),
                             ("conv-study", cmd_conv_study, "discrete L2 error vs order")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key=value config file")
        _add_settings(p, [f.name for f in fields(study.StudyConfig)])
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("equidist", help="box counts vs the arcsine measure")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--boxes", required=True,
                   help="';'-separated boxes, 'x'-separated 'a:b' intervals; join "
                        "a value that starts with - by =, as in --boxes=-1:0x0:1")
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
