import argparse
import contextlib
import io
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blas_thread import run_python
from weilfit.cli import build_parser, main, parse_boxes
from weilfit.diagnostics import check_gram_bounds, l2_error
from weilfit.indexsets import KINDS, build_index_set
from weilfit.lstsq import TARGET_DENSITIES, WEIGHT_KINDS, solve
from weilfit.pointgen import is_prime, weil_grid
from weilfit.polybasis import FAMILIES, NORMALIZATIONS
from weilfit.study import (CHOICES, GRIDS, SCALINGS, StudyConfig, cell_points, load_config,
                           realize_cell, resolve_config, run)
from weilfit.targets import TARGET_NAMES, make


# field annotations are strings
_STUDY_FIELDS = {f.name: f.type for f in fields(StudyConfig)}
_CHOICES = {"space": KINDS, "scaling": SCALINGS, "grid": GRIDS, "family": FAMILIES,
            "normalization": NORMALIZATIONS, "weights": WEIGHT_KINDS,
            "target_density": TARGET_DENSITIES, "target": TARGET_NAMES}


# ---------------------------------------------------------------------------
# configuration plumbing

def test_study_config_defaults_and_weil_forces_single_rep():
    cfg = StudyConfig()
    assert (cfg.space, cfg.d, cfg.scaling, cfg.c) == ("TD", 2, "quadratic", 0.5)
    assert cfg.grid == "weil"
    assert cfg.repetitions == 1  # requested default 100 collapses for weil
    cfg = StudyConfig(grid="mc_uniform", repetitions=100)
    assert cfg.repetitions == 100


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(space="HC")
    with pytest.raises(ValueError):
        StudyConfig(q_min=5, q_max=2)
    with pytest.raises(ValueError):
        StudyConfig(c=0.0)
    with pytest.raises(ValueError):
        StudyConfig(c=math.inf)
    with pytest.raises(ValueError):
        StudyConfig(c=math.nan)
    for c in ("0.5", True):  # a real number, not a string or a bool
        with pytest.raises(ValueError, match=r"^scaling constant c must be a real number"):
            StudyConfig(c=c)
    with pytest.raises(ValueError):
        StudyConfig(grid="qmc")
    with pytest.raises(ValueError):
        StudyConfig(grid="mc_uniform", repetitions=0)
    with pytest.raises(ValueError):
        StudyConfig(seed=-1)
    with pytest.raises(ValueError):
        StudyConfig(n_test=0)
    with pytest.raises(ValueError):
        StudyConfig(coeff_seed=-7)
    # also the fields a study kind does not read
    for bad in (dict(family="hermite"), dict(family="legendre", normalization="classical"),
                dict(weights="reciprocal"), dict(target_density="normal"),
                dict(target="sinsum"), dict(coeffs="abc"), dict(coeffs="0.5"),
                dict(coeffs="0.5,nan")):
        with pytest.raises(ValueError):
            StudyConfig(**bad)
    assert StudyConfig(coeffs="0.5,-1e-3").target_coeffs() == (0.5, -1e-3)


def test_load_config_and_precedence(tmp_path):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "space = TP\n"
        "q_min=2   # trailing comment\n"
        "q_max=3\n"
        "c=1.5\n"
        "grid=mc_uniform\n"
        "repetitions=4\n"
    )
    values = load_config(cfgfile)
    assert values == {"space": "TP", "q_min": 2, "q_max": 3, "c": 1.5,
                      "grid": "mc_uniform", "repetitions": 4}

    class Args:
        config = str(cfgfile)
        c = 2.0  # command line wins over the file
        space = None

    cfg = resolve_config(Args())
    assert cfg.space == "TP" and cfg.c == 2.0 and cfg.repetitions == 4


def _subparser(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flag_type(name):
    return {"int": int, "float": float, "str": None}[_STUDY_FIELDS[name]]


@pytest.mark.parametrize("command", ["cond-study", "conv-study"])
def test_study_flags_are_the_study_config_fields(command):
    assert CHOICES == _CHOICES
    actions = {a.dest: a for a in _subparser(command)._actions if a.option_strings}
    assert set(actions) == {"help", "config", "out"} | set(_STUDY_FIELDS)
    for name in _STUDY_FIELDS:
        a = actions[name]
        assert a.option_strings == ["--" + name.replace("_", "-")]
        assert a.type is _flag_type(name)
        assert a.choices == (list(CHOICES[name]) if name in CHOICES else None)
        assert a.default is None  # unset, so a config file applies
    assert actions["coeffs"].help == ("comma-separated target coefficients; join a value "
                                      "that starts with - by =, as in --coeffs=-0.5,1.0")


def test_a_flag_value_that_starts_with_a_dash_needs_the_equals_form(tmp_path, capsys):
    # argparse reads -0.5,1.0 as an option, as it is not a plain number
    out = tmp_path / "conv.csv"
    argv = ["conv-study", "--d", "2", "--q-max", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--coeffs", "-0.5,1.0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "weilfit conv-study: error: argument --coeffs: expected one argument"]
    assert not out.exists()
    assert main(argv + ["--coeffs=-0.5,1.0"]) == 0
    lines = out.read_text().splitlines()
    assert "# coeffs=-0.5,1.0" in lines and "# target_coeffs=-0.5,1.0" in lines
    boxes = next(a for a in _subparser("equidist")._actions if a.dest == "boxes")
    assert "--boxes=-1:0x0:1" in boxes.help
    assert main(["equidist", "--M", "101", "--d", "2", "--boxes=-1:0x0:1",
                 "--out", str(tmp_path / "eq.csv")]) == 0


def test_fit_takes_the_five_basis_settings_with_study_config_defaults():
    actions = {a.dest: a for a in _subparser("fit")._actions if a.option_strings}
    basis = ("space", "family", "normalization", "weights", "target_density")
    assert set(actions) == {"help", "points", "values", "q", "out"} | set(basis)
    for name in basis:
        a = actions[name]
        assert a.option_strings == ["--" + name.replace("_", "-")]
        assert a.choices == list(CHOICES[name])
        assert a.default == getattr(StudyConfig(), name)


# one valid value per setting, written as text
_SETTING_TEXT = {
    **{name: st.sampled_from(allowed) for name, allowed in _CHOICES.items()},
    "d": st.integers(1, 6).map(str),
    "q_min": st.integers(0, 10).map(str),
    "q_max": st.integers(1, 30).map(str),
    "c": st.floats(1e-300, 1e300).map(repr),
    "repetitions": st.integers(1, 10**6).map(str),
    "seed": st.integers(0, 2**64).map(str),
    "coeffs": st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2).map(
        lambda c: ",".join(map(repr, c))),
    "coeff_seed": st.integers(-1, 2**32).map(str),
    "n_test": st.integers(1, 10**7).map(str),
}


@pytest.mark.parametrize("name", list(_SETTING_TEXT))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_key_and_flag_resolve_to_the_same_study_config(name, data):
    assert set(_SETTING_TEXT) == set(_STUDY_FIELDS)
    text = data.draw(_SETTING_TEXT[name])
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "study.cfg"
        cfgfile.write_text(f"{name}={text}\n")
        parser = build_parser()
        from_file = resolve_config(parser.parse_args(
            ["conv-study", "--config", str(cfgfile), "--out", "o.csv"]))
    flag = "--" + name.replace("_", "-")
    from_flag = resolve_config(parser.parse_args(["conv-study", f"{flag}={text}",
                                                  "--out", "o.csv"]))
    assert from_file == from_flag
    assert getattr(from_flag, name) == (_flag_type(name) or str)(text) or \
        name == "repetitions"  # weil grids force 1


def test_unknown_choice_in_a_config_file_names_the_allowed_values(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("grid=qmc\n")
    rc = main(["cond-study", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: unknown grid 'qmc'; expected one of "
                                       "('weil', 'mc_chebyshev', 'mc_uniform')\n")


def test_run_hands_values_the_evaluated_cells_in_q_rep_order():
    # quadratic c = 0.2: q = 1 has m = 2 < N = 3 and reads inf
    cfg = StudyConfig(d=2, q_min=1, q_max=4, c=0.2, grid="mc_uniform", repetitions=3, seed=7)
    seen = []

    def values(cells):
        seen.extend(cells)
        return [10.0 * index_set.array.max() + k for k, (_, index_set) in enumerate(seen)]

    rows, reps = run(cfg, values)
    cells = [(q, rep) for q in (2, 3, 4) for rep in range(3)]
    assert [index_set.array.max() for _, index_set in seen] == [q for q, _ in cells]
    for (q, rep), (pts, index_set) in zip(cells, seen):
        want_set, N, m, M = realize_cell(cfg, q)
        assert np.array_equal(index_set.array, want_set.array)
        assert np.array_equal(pts.points, cell_points(cfg, q, m, M, rep).points)
    assert reps == [(1, rep, math.inf) for rep in range(3)] + \
        [(q, rep, 10.0 * q + k) for k, (q, rep) in enumerate(cells)]
    assert [row[:4] for row in rows] == [(q,) + realize_cell(cfg, q)[1:] for q in (1, 2, 3, 4)]
    assert [row[4] for row in rows] == [math.inf] + [
        float(np.mean([10.0 * q + k for k, (p, _) in enumerate(cells) if p == q]))
        for q in (2, 3, 4)]
    # d=1, linear c=1: m = N = q + 1 is evaluated
    cfg = StudyConfig(d=1, q_min=1, q_max=2, scaling="linear", c=1.0)
    rows, _ = run(cfg, lambda cells: [float(len(pts.points)) for pts, _ in cells])
    assert rows == [(1, 2, 2, 3, 2.0), (2, 3, 3, 5, 3.0)]


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("q_min 2\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(bad)
    bad.write_text("qmin=2\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(bad)


def test_a_config_key_set_twice_is_refused_with_both_lines(tmp_path, capsys):
    # refused, not overwritten by the last value
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d=2\nq_max=2\n# again\nd=3\n")
    message = f"{cfgfile}:4: duplicate config key 'd' (first on line 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(cfgfile)
    out = tmp_path / "o.csv"
    rc = main(["cond-study", "--config", str(cfgfile), "--d", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    cfgfile.write_text("d=3\nq_max=2\n")  # one key once: the flag still wins
    assert main(["cond-study", "--config", str(cfgfile), "--d", "2", "--out", str(out)]) == 0
    assert "# d=2\n" in out.read_text()


def test_round_half_up():
    # d=1, q=0 has N=1, so linear scaling targets round(c) points and M is
    # the prime nearest to 2*round(c) - 1 (at least 3, an odd prime); the
    # worked example below covers 1012.5 -> 1013
    for c, M in ((0.5, 3), (1.5, 3), (2.4, 3), (2.5, 5)):
        _, N, m, got = realize_cell(StudyConfig(d=1, q_min=0, scaling="linear", c=c), 0)
        assert (N, got, m) == (1, M, M // 2 + 1)


def test_realize_cell_worked_example():
    # TD d=2 q=8: N=45; quadratic c=0.5 -> m_target=1013 -> M=nearest
    # prime(2025)=2027 -> m=1014
    cfg = StudyConfig()
    index_set, N, m, M = realize_cell(cfg, 8)
    assert (N, m, M) == (45, 1014, 2027)
    assert is_prime(M) and m == M // 2 + 1
    # linear scaling c=2: m_target=90 -> M=nearest prime(179)=179 -> m=90
    cfg = StudyConfig(scaling="linear", c=2.0)
    _, N, m, M = realize_cell(cfg, 8)
    assert (N, m, M) == (45, 90, 179)
    # N=1: the target 2c-1 = 3037000499 snaps to 3037000493, the largest
    # prime within the modulus limit; one point more snaps past it
    _, N, m, M = realize_cell(StudyConfig(scaling="linear", c=1518500250.0, d=1), 0)
    assert (N, m, M) == (1, 1518500247, 3037000493)
    for grid in ("weil", "mc_uniform"):
        for c in (1518500251.0, 1e308):
            with pytest.raises(ValueError, match="3037000499"):
                realize_cell(StudyConfig(scaling="linear", c=c, d=1, grid=grid), 0)


def test_parse_boxes():
    boxes = parse_boxes("0:0.5x0:0.5;-1:0x-1:1", 2)
    assert boxes[0] == ("0:0.5x0:0.5", [(0.0, 0.5), (0.0, 0.5)])
    assert boxes[1][1] == [(-1.0, 0.0), (-1.0, 1.0)]
    with pytest.raises(ValueError):
        parse_boxes("0:0.5", 2)          # wrong dimension
    with pytest.raises(ValueError):
        parse_boxes("0-0.5x0:1", 2)      # malformed interval
    with pytest.raises(ValueError):
        parse_boxes(";", 2)


# ---------------------------------------------------------------------------
# subcommands, driven in process through main()

def test_points_subcommand(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    rc = main(["points", "--M", "1000", "--d", "2", "--out", str(out)])
    assert rc == 0
    assert "M=997" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "# M=997"
    assert lines[1] == "# M_target=1000"
    assert lines[3] == "j,y1,y2"
    assert lines[4] == "0,1.0,1.0"
    assert len(lines) == 4 + 499  # 3 comments + header + rows
    # shortest round-trip decimals parse back to the exact doubles
    data = [l.split(",") for l in lines[4:]]
    assert [int(row[0]) for row in data] == list(range(499))
    parsed = np.array([[float(v) for v in row[1:]] for row in data])
    assert np.array_equal(parsed, weil_grid(997, 2).points)


def test_fit_subcommand_recovers_coefficient(tmp_path):
    pts = tmp_path / "pts.csv"
    vals = tmp_path / "vals.csv"
    out = tmp_path / "fit.csv"
    assert main(["points", "--M", "101", "--d", "2", "--out", str(pts)]) == 0
    # target is the basis function for index (1,0) itself
    rows = [l for l in pts.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("j")]
    ys = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    vals.write_text("f\n" + "\n".join(repr(float(math.sqrt(2) * y)) for y in ys[:, 0]) + "\n")
    rc = main(["fit", "--points", str(pts), "--values", str(vals),
               "--space", "TD", "--q", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "# space=TD" in lines and "# q=2" in lines
    header_at = lines.index("index,coefficient")
    table = dict()
    for row in lines[header_at + 1:]:
        name, coef = row.rsplit(",", 1)
        table[name.strip('"')] = float(coef)
    assert set(table) == {"(0,0)", "(0,1)", "(1,0)", "(0,2)", "(1,1)", "(2,0)"}
    assert abs(table["(1,0)"] - 1.0) < 1e-10
    others = [v for k, v in table.items() if k != "(1,0)"]
    assert max(abs(v) for v in others) < 1e-10


def test_fit_row_count_mismatch_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    vals = tmp_path / "vals.csv"
    main(["points", "--M", "31", "--d", "1", "--out", str(pts)])
    vals.write_text("1.0\n2.0\n")
    rc = main(["fit", "--points", str(pts), "--values", str(vals),
               "--q", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


def test_fit_singular_system_exits_3(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    vals = tmp_path / "vals.csv"
    pts.write_text("j,y1\n0,0.5\n1,0.5\n2,0.5\n3,0.5\n")
    vals.write_text("1.0\n1.0\n1.0\n1.0\n")
    rc = main(["fit", "--points", str(pts), "--values", str(vals),
               "--q", "2", "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "rank-deficient" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["points", "values"])
def test_fit_non_finite_input_exits_2_without_output(tmp_path, capsys, bad):
    pts = tmp_path / "pts.csv"
    vals = tmp_path / "vals.csv"
    out = tmp_path / "o.csv"
    pts.write_text("j,y1\n0,0.5\n1," + ("nan" if bad == "points" else "0.1") + "\n2,-0.3\n")
    vals.write_text("1.0\n" + ("nan" if bad == "values" else "2.0") + "\n3.0\n")
    rc = main(["fit", "--points", str(pts), "--values", str(vals),
               "--q", "1", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()



def test_fit_whose_values_overflow_exits_2_without_output(tmp_path, capsys):
    # every value 1.7e308 on the 51-point M = 101 grid: fit printed two
    # RuntimeWarnings, exited 0 and wrote `(0),nan` rows
    pts, vals, out = tmp_path / "pts.csv", tmp_path / "vals.csv", tmp_path / "fit.csv"
    assert main(["points", "--M", "101", "--d", "1", "--out", str(pts)]) == 0
    vals.write_text("f\n" + "1.7e308\n" * 51)
    capsys.readouterr()
    rc = main(["fit", "--points", str(pts), "--values", str(vals), "--q", "3",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: the function values overflow the "
                                       "least-squares solve\n")
    assert not out.exists()


@pytest.mark.parametrize("points, values, error", [
    ("j,y1\n0,0.5\n1,x\n", "1\n2\n", "{pts}:3: malformed point row '1,x'"),
    ("# d=1\n\nj,y1\n", "1\n", "{pts}: no point rows found"),
    ("j,y1\n0,0.5,0.5\n", "1\n", "{pts}:2: expected 1 coordinates"),
    ("j,y1\n0,0.5\n1,0.25\n", "value\n1\n 2x \n", "{vals}:3: malformed value row '2x'"),
    ("j,y1\n0,0.5\n", "# none\nvalues\n\n", "{vals}: no value rows found"),
])
def test_fit_input_errors_name_the_file_and_line(tmp_path, capsys, points, values, error):
    pts, vals, out = tmp_path / "pts.csv", tmp_path / "vals.csv", tmp_path / "fit.csv"
    pts.write_text(points)
    vals.write_text(values)
    rc = main(["fit", "--points", str(pts), "--values", str(vals), "--q", "0",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: " + error.format(pts=pts, vals=vals) + "\n"
    assert not out.exists()


def test_check_bounds_strict_counts_every_failed_check(tmp_path, capsys, monkeypatch):
    # the six TD rows of d=2, q=1,2 pass; failing both spectral gaps and all
    # 48 exponential sums makes 50 failed checks, each one line or one count
    monkeypatch.setattr("weilfit.diagnostics.spectral_gap", lambda M, idx: 0.75)
    monkeypatch.setattr("weilfit.diagnostics.weil_exponential_sum", lambda c, M: 1e9)
    argv = ["check-bounds", "--dims", "2", "--orders", "1,2", "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "spectral-gap d=1 M=67: 0.750000 FAIL" in out and err == ""
    assert "spectral-gap d=2 M=4099: 0.750000 FAIL" in out
    assert "exponential-sum bound, 48 draws: FAIL" in out
    assert out.count(": pass (") == 6
    assert main(argv + ["--strict"]) == 3
    assert capsys.readouterr().err == "50 check(s) failed\n"

def test_io_error_exits_4(tmp_path, capsys):
    rc = main(["points", "--M", "31", "--d", "1",
               "--out", str(tmp_path / "nosuchdir" / "pts.csv")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_memory_error_exits_2_without_output(tmp_path, capsys, monkeypatch):
    # a modulus that passes validation but whose grid cannot be allocated;
    # the stand-in raises instead of allocating.  An exception without text
    # is named by its type.
    for exc, message in ((MemoryError("Unable to allocate 44.7 GiB for an array"),
                          "error: Unable to allocate 44.7 GiB for an array\n"),
                         (MemoryError(), "error: MemoryError\n")):
        def too_large(M, d):
            raise exc

        monkeypatch.setattr("weilfit.cli.weil_grid", too_large)
        out = tmp_path / "pts.csv"
        rc = main(["points", "--M", "3000000000", "--d", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_grid_larger_than_physical_memory_exits_2_without_output(tmp_path, capsys,
                                                                 monkeypatch):
    # the grid needs 816 bytes
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 500)
    out = tmp_path / "pts.csv"
    rc = main(["points", "--M", "101", "--d", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    # 21**10 = 1.7e13 multi-indices
    (["--space", "TP", "--d", "10", "--q-min", "20", "--q-max", "20"],
     "the index set TP(q=20, d=10) needs "),
    # D is 828184 x 1287 doubles (7.9 GiB); condition asks room for two
    (["--space", "TD", "--d", "5", "--q-min", "8", "--q-max", "8", "--scaling", "quadratic",
      "--c", "0.5"], "the condition number of the 828184 x 1287 design needs 15.9 GiB, "),
], ids=["index-set", "design"])
def test_study_larger_than_physical_memory_exits_2_without_output(tmp_path, capsys,
                                                                  monkeypatch, argv, what):
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**33)
    out = tmp_path / "study.csv"
    rc = main(["cond-study"] + argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + what) and err.count("\n") == 1
    assert err.endswith("more than the 8.0 GiB of physical memory\n")
    assert not out.exists()


def test_conv_study_cell_whose_solve_exceeds_physical_memory_exits_2(tmp_path, capsys,
                                                                     monkeypatch):
    # memory for three designs of the largest cell (30 x 15): the solve's
    # check (two, plus 3 vectors of m and 3 N x N matrices: 13320 bytes
    # against 10800) refuses before the design is built
    argv = ["conv-study", "--d", "2", "--q-max", "4", "--scaling", "linear", "--c", "2",
            "--n-test", "100"]
    _, N, m, _ = realize_cell(StudyConfig(d=2, q_max=4, scaling="linear", c=2.0), 4)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 3 * 8 * m * N)
    out = tmp_path / "conv.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {m} x {N} least-squares solve needs ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cond-study", "--d", "1", "--q-min", str(10**400), "--q-max", str(10**400)],
    ["check-bounds", "--dims", "1", "--orders", str(10**400)],
    ["points", "--M", str(10**1000), "--d", "1"],
], ids=["cond-study", "check-bounds", "points"])
def test_huge_integers_exit_2_without_output(tmp_path, capsys, argv):
    # sizes past float range failed to format (OverflowError, a traceback);
    # --M was searched for its nearest prime (19 s) before the limit check
    out = tmp_path / "o.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "points":
        assert err == "error: --M exceeds 3037000499, the largest modulus with exact int64 residues\n"
    else:
        assert "needs more than 1.8e+308 GiB, more than the " in err
    assert not out.exists()


def test_points_and_equidist_refuse_a_target_modulus_past_the_limit(tmp_path, capsys,
                                                                   monkeypatch):
    # the largest target that snaps to a prime within the limit, and the
    # smallest above it (which snaps to 3037000507)
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**30)
    rc = main(["equidist", "--M", "3037000499", "--d", "1", "--boxes", "0:1",
               "--out", str(tmp_path / "eq.csv")])
    assert rc == 2 and "physical memory" in capsys.readouterr().err  # M = 3037000493
    for cmd in (["points"], ["equidist", "--boxes", "0:1"]):
        out = tmp_path / "o.csv"
        rc = main(cmd + ["--M", "3037000500", "--d", "1", "--out", str(out)])
        assert rc == 2
        assert "--M exceeds 3037000499" in capsys.readouterr().err
        assert not out.exists()


def test_check_bounds_gram_larger_than_physical_memory_exits_2(tmp_path, capsys,
                                                               monkeypatch):
    # N = 21945 at d=2, q=208: the Gram matrix and LAPACK's copy of it are
    # 3.6 GiB each
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**32)
    out = tmp_path / "cb.csv"
    rc = main(["check-bounds", "--dims", "2", "--orders", "208", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: the 21945 x 21945 Gram matrix needs 7.2 GiB, "
                                       "more than the 4.0 GiB of physical memory\n")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["weil", "mc_uniform"])
def test_study_past_modulus_limit_exits_2_without_output(tmp_path, capsys, grid):
    # c*N^2 overflows to inf: no cell can be built, so nothing is allocated
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("c=1e308\n")
    out = tmp_path / "study.csv"
    for argv in (["cond-study", "--c", "1e308"], ["conv-study", "--config", str(cfgfile)]):
        rc = main(argv + ["--d", "2", "--q-max", "2", "--grid", grid, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "3037000499" in err
        assert not out.exists()


def test_cond_study_deterministic_and_echoes_config(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["cond-study", "--d", "1", "--q-min", "1", "--q-max", "4",
            "--scaling", "linear", "--c", "4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert "# grid=weil" in lines
    assert "# repetitions=1" in lines
    header_at = lines.index("q,N,m,M,cond_A")
    rows = [l.split(",") for l in lines[header_at + 1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert is_prime(int(r[3]))
        assert int(r[2]) == int(r[3]) // 2 + 1
        assert float(r[4]) >= 1.0


def test_cond_study_mc_repetition_lines(tmp_path):
    out = tmp_path / "mc.csv"
    rc = main(["cond-study", "--d", "1", "--q-min", "2", "--q-max", "3",
               "--scaling", "linear", "--c", "6", "--grid", "mc_uniform",
               "--repetitions", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    rep_lines = [l for l in lines if l.startswith("# rep ")]
    assert len(rep_lines) == 6  # 2 orders x 3 repetitions
    # the written mean must equal the arithmetic mean of the echoed draws
    per_q = {}
    for l in rep_lines:
        fields = dict(tok.split("=") for tok in l[2:].split()[1:])
        per_q.setdefault(fields["q"], []).append(float(fields["cond_A"]))
    header_at = lines.index("q,N,m,M,cond_A")
    for row in lines[header_at + 1:]:
        q, _, _, _, val = row.split(",")
        assert math.isclose(float(val), float(np.mean(per_q[q])), rel_tol=1e-15)


def test_conv_study_weil_error_decreases(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["conv-study", "--d", "2", "--q-min", "2", "--q-max", "6",
               "--target", "expsum", "--weights", "density_ratio",
               "--target-density", "chebyshev", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert any(l.startswith("# target_coeffs=-0.2779,0.9986") for l in lines)
    assert not any(l.startswith("# rep ") for l in lines)  # weil: 1 rep
    header_at = lines.index("q,N,m,M,l2_error")
    errs = [float(r.split(",")[4]) for r in lines[header_at + 1:]]
    assert len(errs) == 5
    assert all(b < a for a, b in zip(errs, errs[1:]))  # strictly decreasing
    assert errs[-1] < 1e-4


def test_conv_study_negative_coeff_seed_exits_2_without_output(tmp_path, capsys):
    # only -1 means "unset"; any other negative seed is a typo, not the
    # published coefficients
    out = tmp_path / "conv.csv"
    rc = main(["conv-study", "--q-max", "2", "--coeff-seed", "-7", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coeff_seed") and err.count("\n") == 1
    assert not out.exists()


def test_conv_study_respects_config_file(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d=1\nq_min=1\nq_max=3\ntarget=cossum\nscaling=linear\nc=8\n")
    out = tmp_path / "conv.csv"
    assert main(["conv-study", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# d=1" in lines and "# target=cossum" in lines and "# c=8.0" in lines
    header_at = lines.index("q,N,m,M,l2_error")
    assert len(lines[header_at + 1:]) == 3


def test_underdetermined_cells_record_inf_in_both_studies(tmp_path):
    # linear c=0.5 gives m < N in every cell
    argv = ["--d", "2", "--q-min", "1", "--q-max", "3", "--scaling", "linear", "--c", "0.5"]
    for cmd, col in (("conv-study", "l2_error"), ("cond-study", "cond_A")):
        out = tmp_path / f"{cmd}.csv"
        assert main([cmd] + argv + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [r.split(",") for r in lines[lines.index(f"q,N,m,M,{col}") + 1:]]
        assert len(rows) == 3
        assert all(int(r[2]) < int(r[1]) and r[4] == "inf" for r in rows)


def test_module_entry_point_runs_without_runtime_warning():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "weilfit.cli", "--help",
                      pinned=False)
    assert "cond-study" in proc.stdout


def test_equidist_subcommand_goldens(tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["equidist", "--M", "10007", "--d", "2",
               "--boxes", "0:0.5x0:0.5;-1:0x-1:1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[-3] == "box,observed_fraction,arcsine_measure,abs_deviation"
    first = lines[-2].split(",")
    assert first[0] == "0:0.5x0:0.5"
    assert float(first[1]) == 0.02697841726618705
    assert math.isclose(float(first[2]), 1 / 36, rel_tol=1e-15)
    second = lines[-1].split(",")
    assert float(second[1]) == 0.5 and float(second[2]) == 0.5


def test_check_bounds_exit_codes(tmp_path, capsys):
    out = tmp_path / "cb.csv"
    # d = 1 rows report the known diagonal failure but the default run is a
    # report generator: exit 0
    assert main(["check-bounds", "--dims", "1,2", "--orders", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "FAIL(diag)" in text and "pass" in text
    lines = out.read_text().splitlines()
    header_at = lines.index("M,d,q,max_offdiag,offdiag_bound,diag_min,diag_max,pass")
    rows = [l.split(",") for l in lines[header_at + 1:]]
    assert {r[1] for r in rows} == {"1", "2"}
    assert all(r[-1] == "false" for r in rows if r[1] == "1")
    assert all(r[-1] == "true" for r in rows if r[1] == "2")
    # shortest round-trip decimals: the CSV holds the report's exact double
    M, d, q = (int(v) for v in rows[0][:3])
    report = check_gram_bounds(M, build_index_set("TD", q, d))
    assert float(rows[0][3]) == report.max_offdiag_abs
    # a negative seed is refused before any work: exit 2, no file
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    assert main(["check-bounds", "--seed", "-3", "--out", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be >= 0" in captured.err
    assert not bad.exists()
    # strict mode: d=1 failures become exit code 3, clean dims exit 0
    assert main(["check-bounds", "--dims", "1", "--orders", "2", "--strict",
                 "--out", str(out)]) == 3
    capsys.readouterr()
    assert main(["check-bounds", "--dims", "2,3", "--orders", "1,2,3",
                 "--strict", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "spectral-gap d=1 M=67: 0.059701 pass" in text
    assert "spectral-gap d=2 M=4099: 0.072428 pass" in text
    assert "exponential-sum bound, 48 draws: pass" in text


def test_check_bounds_large_order_skips_fixed_moduli_below_hypothesis(tmp_path, capsys):
    # q = 48 needs M > 97: the fixed modulus 97 is left out, 997 stays
    out = tmp_path / "cb.csv"
    assert main(["check-bounds", "--dims", "1", "--orders", "48",
                 "--out", str(out)]) == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    header_at = lines.index("M,d,q,max_offdiag,offdiag_bound,diag_min,diag_max,pass")
    rows = [l.split(",") for l in lines[header_at + 1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [("101", "1", "48"), ("997", "1", "48")]


def test_unknown_config_key_through_main_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("qq=3\n")
    rc = main(["cond-study", "--config", str(cfgfile),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_value_that_does_not_parse_names_file_and_line(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("# a study\nd=2\nrepetitions=abc\n")
    with pytest.raises(ValueError, match=r"c\.cfg:3: repetitions must be int, got 'abc'"):
        load_config(cfgfile)
    out = tmp_path / "o.csv"
    rc = main(["conv-study", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{cfgfile}:3: " in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--space", "TD", "--d", "2", "--q-max", "5", "--family", "legendre",
     "--weights", "density_ratio"],
    ["--space", "TP", "--d", "2", "--q-max", "4", "--c", "0.5"],
    # q = 1 has m < N; three repetitions of the others
    ["--space", "TD", "--d", "2", "--q-max", "4", "--c", "0.2", "--grid", "mc_uniform",
     "--repetitions", "3", "--seed", "7"],
], ids=["weil-TD", "weil-TP", "mc-reps"])
def test_conv_study_values_equal_one_l2_error_call_per_cell(tmp_path, argv):
    out = tmp_path / "conv.csv"
    assert main(["conv-study", "--n-test", "3000"] + argv + ["--out", str(out)]) == 0
    cfg = resolve_config(build_parser().parse_args(
        ["conv-study", "--n-test", "3000"] + argv + ["--out", str(out)]))
    f = make(cfg.target, cfg.target_coeffs())
    lines = out.read_text().splitlines()
    rows = [r.split(",") for r in lines[lines.index("q,N,m,M,l2_error") + 1:]]
    reps = {tuple(int(t.split("=")[1]) for t in l.split()[2:4]): l.split("=")[-1]
            for l in lines if l.startswith("# rep ")}
    skipped = 0
    for row, q in zip(rows, range(cfg.q_min, cfg.q_max + 1)):
        index_set, N, m, M = realize_cell(cfg, q)
        errs = []
        for rep in range(cfg.repetitions):
            if m < N:
                errs.append(math.inf)
                continue
            pts = cell_points(cfg, q, m, M, rep)
            fit = solve(pts, f(pts), index_set, cfg.basis_spec(), cfg.weight_scheme())
            errs.append(l2_error(fit, f, cfg.n_test, cfg.seed).l2_error)
        skipped += m < N
        assert row[4] == (repr(float(np.mean(errs))) if m >= N else "inf")
        if cfg.repetitions > 1:
            assert [reps[(q, rep)] for rep in range(cfg.repetitions)] == \
                [repr(e) for e in errs]
    assert len(rows) == cfg.q_max - cfg.q_min + 1
    if cfg.grid != "weil":
        assert skipped == 1 and len(reps) == 12


def test_error_pass_larger_than_physical_memory_exits_2_without_output(tmp_path, capsys,
                                                                       monkeypatch):
    # the fits of d = 2, q <= 3 need a few KiB; the test pass over 10**7
    # points needs 8e7 * (2*5 + 3 + 1) bytes = 1.0 GiB, refused before the
    # sample is drawn
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 2**29)
    out = tmp_path / "conv.csv"
    rc = main(["conv-study", "--q-max", "3", "--scaling", "linear", "--c", "2",
               "--n-test", "10000000", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: the error pass over 10000000 test points needs 1.0 GiB, "
                   "more than the 0.5 GiB of physical memory\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed input files

def _parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


# Tokens without the characters that split a line into fields, lines or a
# comment; the filters below keep those that the field's parser rejects.
_TOKENS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r,#="),
                  max_size=6)
# readers strip values (config) or lines (CSV), so "0\x1f" can read as 0
_NOT_FINITE = st.one_of(_TOKENS.filter(lambda t: not _parses(float, t.strip())),
                        st.sampled_from(["nan", "inf", "-inf", "1e400"]))
_NOT_IN_DOMAIN = st.one_of(_NOT_FINITE, st.sampled_from(["1.5", "-2", "1.0000001"]))
_BAD_BYTES = st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3", b"\x80abc"])

_POINTS = [(0.5, -0.25), (-0.75, 0.125), (0.0, 0.875), (0.3, 0.3), (-0.6, -0.9),
           (0.95, 0.1), (-0.2, 0.65), (0.8, -0.55)]
_GOOD_STUDY = ["d=1", "q_min=0", "q_max=2", "scaling=linear", "c=2", "n_test=50"]
_OUT_OF_RANGE = ["d=0", "d=-1", "q_min=-1", "q_min=3", "repetitions=0", "seed=-1",
                 "coeff_seed=-2", "n_test=0", "c=0", "c=-1", "c=nan", "c=inf",
                 "normalization=classical\nfamily=legendre", "coeffs=1,2", "coeffs=nan",
                 "coeffs=-inf"]


@st.composite
def _bad_points(draw):
    """(points CSV bytes, values CSV bytes) of a fit where one file is bad."""
    rows = [f"{j},{y1!r},{y2!r}" for j, (y1, y2) in enumerate(_POINTS)]
    values = [repr(0.5 * j) for j in range(len(rows))]
    header, kind = "j,y1,y2", draw(st.sampled_from(
        ["coordinate", "width", "header", "no header", "no rows", "value", "no values",
         "count", "bytes"]))
    k = draw(st.integers(0, len(rows) - 1))
    if kind == "coordinate":
        parts = rows[k].split(",")
        parts[draw(st.integers(1, 2))] = draw(_NOT_IN_DOMAIN)
        rows[k] = ",".join(parts)
    elif kind == "width":
        rows[k] = draw(st.sampled_from([f"{k}", f"{k},0.5", f"{k},0.5,0.5,0.5"]))
    elif kind == "header":
        header = draw(st.sampled_from(["j", "j,y1", "j,y1,y2,y3"]))
    elif kind == "no header":  # the first row fixes the width
        header = "# no header"
        rows[k] = draw(st.sampled_from([f"{k}", f"{k},0.5", f"{k},0.5,0.5,0.5"]))
    elif kind == "no rows":
        rows, values = [], []
    elif kind == "value":
        values[k] = draw(_NOT_FINITE.filter(lambda t: t.strip() not in ("", "f", "value",
                                                                          "values")))
    elif kind == "no values":
        values = []
    elif kind == "count":
        values = values[:k] if draw(st.booleans()) else values + ["1.0"]
    pts = ("\n".join(["# d=2", header] + rows) + "\n").encode()
    vals = ("\n".join(["value"] + values) + "\n").encode()
    if kind == "bytes":
        bad = draw(_BAD_BYTES)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(pts)))
            pts = pts[:i] + bad + pts[i:]
        else:
            vals = vals + bad
    return pts, vals


@st.composite
def _bad_configs(draw):
    """Config file bytes of a small study with one bad line."""
    kind = draw(st.sampled_from(["no equals", "unknown key", "type", "choice",
                                 "range", "coeffs", "bytes"]))
    lines = list(_GOOD_STUDY)
    if kind == "no equals":
        bad = draw(_TOKENS.filter(lambda t: t.strip() != ""))
    elif kind == "unknown key":
        key = draw(_TOKENS.filter(lambda t: t.strip() not in _STUDY_FIELDS))
        bad = f"{key}=1"
    elif kind == "type":
        key = draw(st.sampled_from([k for k, t in _STUDY_FIELDS.items() if t != "str"]))
        parse = int if _STUDY_FIELDS[key] == "int" else float
        bad = f"{key}=" + draw(_TOKENS.filter(lambda t: not _parses(parse, t.strip())))
    elif kind == "choice":
        key = draw(st.sampled_from(sorted(_CHOICES)))
        bad = f"{key}=" + draw(_TOKENS.filter(lambda t: t.strip() not in _CHOICES[key]))
    elif kind == "range":
        bad = draw(st.sampled_from(_OUT_OF_RANGE))
    elif kind == "coeffs":
        bad = "coeffs=" + draw(_TOKENS.filter(
            lambda t: t.strip() != "" and not _parses(float, t.strip())))
    else:
        bad = ""
    # a later line overrides an earlier one of the same key
    keys = {line.split("=", 1)[0] for line in bad.splitlines()}
    lines = [line for line in lines if line.split("=", 1)[0] not in keys]
    lines.insert(draw(st.integers(0, len(lines))), bad)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "bytes":
        data += draw(_BAD_BYTES)
    return data


def _exits_2_with_one_error_line(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", str(out)])
    text = err.getvalue()
    assert rc == 2, text
    assert text.startswith("error: ") and text.count("\n") == 1, text
    assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(files=_bad_points())
def test_malformed_fit_input_exits_2_with_one_error_line(files):
    with tempfile.TemporaryDirectory() as tmp:
        pts, vals = Path(tmp) / "pts.csv", Path(tmp) / "vals.csv"
        pts.write_bytes(files[0])
        vals.write_bytes(files[1])
        _exits_2_with_one_error_line(["fit", "--points", str(pts), "--values", str(vals),
                                      "--q", "1"], Path(tmp) / "fit.csv")


@settings(max_examples=150, deadline=None)
@given(config=_bad_configs(), command=st.sampled_from(["cond-study", "conv-study"]))
# fields cond-study does not read were not checked: it exited 0 and echoed them
@example(config=b"target=\nd=1\nq_max=2\n", command="cond-study")
@example(config=b"target_density=normal\nd=1\nq_max=2\n", command="cond-study")
@example(config=b"coeffs=abc\nd=1\nq_max=2\n", command="cond-study")
def test_malformed_config_exits_2_with_one_error_line(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "study.cfg"
        cfgfile.write_bytes(config)
        _exits_2_with_one_error_line([command, "--config", str(cfgfile)],
                                     Path(tmp) / "study.csv")


def test_ragged_points_file_without_header_names_file_and_line(tmp_path, capsys):
    # the first row fixes the width; this exited 2 with numpy's ragged-array
    # message, which named neither file nor line
    pts, vals, out = tmp_path / "pts.csv", tmp_path / "vals.csv", tmp_path / "fit.csv"
    pts.write_text("0,0.5,0.5\n1,0.5\n2,0.1,0.2\n3,0.3,0.3\n")
    vals.write_text("1\n2\n3\n4\n")
    rc = main(["fit", "--points", str(pts), "--values", str(vals), "--q", "1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {pts}:2: expected 2 coordinates\n"
    assert not out.exists()
