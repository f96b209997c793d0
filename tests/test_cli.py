import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weilfit.cli import main, parse_boxes
from weilfit.diagnostics import check_gram_bounds
from weilfit.indexsets import build_index_set
from weilfit.pointgen import is_prime, weil_grid
from weilfit.study import (StudyConfig, _round_half_up, load_config,
                           realize_cell, resolve_config)


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
    with pytest.raises(ValueError):
        StudyConfig(grid="qmc")
    with pytest.raises(ValueError):
        StudyConfig(grid="mc_uniform", repetitions=0)
    with pytest.raises(ValueError):
        StudyConfig(seed=-1)
    with pytest.raises(ValueError):
        StudyConfig(n_test=0)


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


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("q_min 2\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(bad)
    bad.write_text("qmin=2\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(bad)


def test_round_half_up():
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.4) == 2
    assert _round_half_up(1012.5) == 1013


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


def test_io_error_exits_4(tmp_path, capsys):
    rc = main(["points", "--M", "31", "--d", "1",
               "--out", str(tmp_path / "nosuchdir" / "pts.csv")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_memory_error_exits_2_without_output(tmp_path, capsys, monkeypatch):
    # a modulus that passes validation but whose grid cannot be allocated;
    # the stand-in raises instead of allocating
    def too_large(M, d):
        raise MemoryError("Unable to allocate 44.7 GiB for an array")

    monkeypatch.setattr("weilfit.cli.weil_grid", too_large)
    out = tmp_path / "pts.csv"
    rc = main(["points", "--M", "3000000000", "--d", "2", "--out", str(out)])
    assert rc == 2
    assert "error: Unable to allocate 44.7 GiB" in capsys.readouterr().err
    assert not out.exists()


def test_grid_larger_than_physical_memory_exits_2_without_output(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr("weilfit.pointgen._physical_memory", lambda: 1000)
    out = tmp_path / "pts.csv"
    rc = main(["points", "--M", "101", "--d", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "weilfit.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
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
