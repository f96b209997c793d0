"""Every demo, the README's python quickstart and every line of its CLI block
run to the end with exit code 0 and nothing on stderr."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weilfit.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_quickstart_runs_cleanly(tmp_path):
    # the README's one python block; an API change that breaks it fails here
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    _run(["-c", blocks[0]], tmp_path)


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
