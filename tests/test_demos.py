"""Every demo, the README's python quickstart and every line of its CLI block
run to the end with exit code 0 and nothing on stderr.  At one BLAS thread
the stdout of each demo and of the quickstart is byte-identical to
tests/reference/demos/<name>.stdout (at two threads 05_weighted_legendre.py
prints other last digits in its q = 15 row, so the comparison pins the
thread count)."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from blas_thread import run_python
from weilfit.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REFERENCE = ROOT / "tests" / "reference" / "demos"


def _run(args, cwd, pinned=False):
    """stdout of python with args, after checking exit 0 and no stderr."""
    proc = run_python(*args, cwd=cwd, pinned=pinned)
    assert proc.stderr == ""
    assert proc.stdout
    return proc.stdout


def _quickstart():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    _run([str(demo)], tmp_path)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_stdout_is_byte_identical_to_the_reference(demo, tmp_path):
    out = _run([str(demo)], tmp_path, pinned=True)
    assert out == (REFERENCE / f"{demo.stem}.stdout").read_text()


def test_readme_quickstart_runs_cleanly(tmp_path):
    # the README's one python block; an API change that breaks it fails here
    _run(["-c", _quickstart()], tmp_path)


def test_readme_quickstart_stdout_is_byte_identical_to_the_reference(tmp_path):
    out = _run(["-c", _quickstart()], tmp_path, pinned=True)
    assert out == (REFERENCE / "readme-quickstart.stdout").read_text()


def test_readme_cli_block_runs_cleanly(tmp_path, monkeypatch, capsys):
    # every `weilfit ...` line of the README's CLI block, in order, through
    # cli.main; `fit` reads the points the `points` line wrote
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command-line interface\n\n```\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 6 and all(line.startswith("weilfit ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv[0] == "fit":
            pts = np.loadtxt("pts.csv", delimiter=",", comments="#", skiprows=4)[:, 1:]
            vals = np.exp(-pts.sum(axis=1)).tolist()
            Path("vals.csv").write_text("".join(f"{v!r}\n" for v in vals))
        assert main(argv) == 0, line
        captured = capsys.readouterr()
        assert captured.err == "", line
        assert captured.out, line
