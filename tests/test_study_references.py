"""The study CSVs of the benchmark workloads and check-bounds' output, byte
for byte.

Runs the argv of each workload of bench/spec.json (`conv-eval`, `conv-quad`,
`cond-quad`, `mc-reps`) at --seed 0 in a subprocess pinned to one BLAS
thread and compares the output with the committed
bench/reference/<workload>/seed-0.csv, so a change of one bit in a study CSV
fails here and not only in the benchmark.  Only reads bench/.  Likewise two
check-bounds runs are compared, CSV and stdout, with
tests/reference/check-bounds/<name>.csv and .stdout, and three studies that no
workload runs with tests/reference/studies/<name>.csv: singular weil cells
that read inf, a TP Monte Carlo conv-study with `# rep` lines and an m < N
cell, and a TP Monte Carlo cond-study with repetitions.  Three `fit` CSVs of
exp(-sum y) on Weil grids written by `points` are compared with
tests/reference/fit/<name>.csv: coefficients, cond_D, cond_A and the
residual on both sides of the crossover where solve factors in place.  Two
`points` runs and one `equidist` run are compared, CSV and stdout, with
tests/reference/<command>/<name>.csv and .stdout.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from blas_thread import run_python

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "bench" / "spec.json").read_text())


def _run_cli(argv):
    """stdout of weilfit.cli with argv in a subprocess at one BLAS thread; exit 0."""
    return run_python("-m", "weilfit.cli", *argv).stdout


def _check_against_the_reference(workload, tmp_path):
    out = tmp_path / "study.csv"
    _run_cli(SPEC["workloads"][workload]["argv"] + ["--seed", "0", "--out", str(out)])
    reference = ROOT / "bench" / "reference" / workload / "seed-0.csv"
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("workload", ["conv-eval", "conv-quad"])
def test_conv_study_csv_is_byte_identical_to_the_reference(workload, tmp_path):
    _check_against_the_reference(workload, tmp_path)


@pytest.mark.parametrize("workload", ["cond-quad", "mc-reps"])
def test_cond_study_csv_is_byte_identical_to_the_reference(workload, tmp_path):
    _check_against_the_reference(workload, tmp_path)


STUDIES = {
    # m = N with a zero-weight row (j = 0 lies on the boundary) is singular at
    # q = 1, 2, 3, 5, 6, 8; q = 4 and 7 are finite
    "conv-singular-cells": [
        "conv-study", "--d", "1", "--q-max", "8", "--scaling", "linear", "--c", "1",
        "--family", "legendre", "--weights", "density_ratio", "--target", "cossum"],
    # TP's gathered-column pass, the `# rep` lines, and q = 4 with m = 24 < N = 25
    "conv-mc-uniform-tp-reps": [
        "conv-study", "--grid", "mc_uniform", "--space", "TP", "--d", "2", "--q-max", "4",
        "--scaling", "linear", "--c", "1", "--repetitions", "3",
        "--weights", "density_ratio", "--family", "legendre", "--seed", "3"],
    "cond-mc-chebyshev-tp-reps": [
        "cond-study", "--grid", "mc_chebyshev", "--space", "TP", "--d", "2",
        "--q-max", "5", "--scaling", "linear", "--c", "2", "--family", "legendre",
        "--weights", "density_ratio", "--repetitions", "2", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_csv_is_byte_identical_to_the_reference(name, tmp_path):
    out = tmp_path / "study.csv"
    _run_cli(STUDIES[name] + ["--out", str(out)])
    reference = ROOT / "tests" / "reference" / "studies" / f"{name}.csv"
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("default", ["--dims", "1,2,3", "--orders", "1,2,3"]),
    ("seed-7-strict", ["--dims", "2,3", "--orders", "0,1", "--seed", "7", "--strict"]),
])
def test_check_bounds_output_is_byte_identical_to_the_reference(name, argv, tmp_path):
    out = tmp_path / "bounds.csv"
    stdout = _run_cli(["check-bounds"] + argv + ["--out", str(out)])
    reference = ROOT / "tests" / "reference" / "check-bounds" / name
    assert out.read_bytes() == reference.with_suffix(".csv").read_bytes()
    assert stdout.replace(f" to {out}\n", " to <out>\n") == \
        reference.with_suffix(".stdout").read_text()


FITS = {
    # m = 505 >= floor(11 * 28 / 6) = 51: solve's in-place QR path
    "weil-1009-d2-q6": (["--M", "1009", "--d", "2"], ["--q", "6"]),
    # m = 16 < floor(11 * 11 / 6) = 20: numpy's SVD of the whole design
    "weil-31-d1-q10": (["--M", "31", "--d", "1"], ["--q", "10"]),
    "weil-1009-d2-q6-legendre-density-ratio": (
        ["--M", "1009", "--d", "2"],
        ["--q", "6", "--family", "legendre", "--weights", "density_ratio"]),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_csv_is_byte_identical_to_the_reference(name, tmp_path):
    grid, options = FITS[name]
    pts, vals, out = tmp_path / "pts.csv", tmp_path / "vals.csv", tmp_path / "fit.csv"
    _run_cli(["points"] + grid + ["--out", str(pts)])
    y = np.loadtxt(pts, delimiter=",", comments="#", skiprows=4)[:, 1:]
    vals.write_text("".join(f"{v!r}\n" for v in np.exp(-y.sum(axis=1)).tolist()))
    _run_cli(["fit", "--points", str(pts), "--values", str(vals), "--out", str(out)] + options)
    reference = ROOT / "tests" / "reference" / "fit" / f"{name}.csv"
    assert out.read_bytes() == reference.read_bytes()


GRIDS = {
    # the README's run: --M 1000 snaps to 997
    "points/m1000-d2": ["points", "--M", "1000", "--d", "2"],
    "points/m31-d1": ["points", "--M", "31", "--d", "1"],
    "equidist/m10007-d2": ["equidist", "--M", "10007", "--d", "2",
                           "--boxes", "0:0.5x0:0.5;-1:0x-1:1"],
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_output_is_byte_identical_to_the_reference(name, tmp_path):
    out = tmp_path / "grid.csv"
    stdout = _run_cli(GRIDS[name] + ["--out", str(out)])
    reference = ROOT / "tests" / "reference" / name
    assert out.read_bytes() == reference.with_suffix(".csv").read_bytes()
    assert stdout.replace(f" to {out}\n", " to <out>\n") == \
        reference.with_suffix(".stdout").read_text()
