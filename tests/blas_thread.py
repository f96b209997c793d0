"""The one runner for tests that start python in a subprocess.

The last bits of a factorization, and so of a study CSV or a fit, depend on
the BLAS thread count, so the byte-for-byte tests pin it to one through the
variables that OpenBLAS, OpenMP and MKL builds of numpy read.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_python(*args, cwd=None, pinned=True, path=("src",), returncode=0):
    """The finished `python *args`, run at one BLAS thread unless not
    `pinned`, with the repo's `path` directories ahead of PYTHONPATH, after
    checking its exit code."""
    env = dict(os.environ, **(ONE_THREAD if pinned else {}),
               PYTHONPATH=os.pathsep.join([str(ROOT / p) for p in path]
                                          + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == returncode, proc.stderr
    return proc
