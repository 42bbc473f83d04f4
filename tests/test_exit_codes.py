"""The exit-code contract, run as ``python -m formc`` child processes.

Every input ends with exit 0, 2 (refused) or 3 (cross-check failed): never
a traceback, and never a kill by a signal (a negative return code).  Each
child runs single-threaded under a 1.5 GB address-space limit and a wall
timeout, so an input that allocates without bound fails the test instead of
the machine.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from formc import forms

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
FORMS_DIR = SRC_DIR.parent / "forms"
ADDRESS_SPACE = 3 << 29  # 1.5 GB
WALL_SECONDS = 60


def _limit_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _formc(*argv: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + path if path else "")
    return subprocess.run(
        [sys.executable, "-m", "formc", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=WALL_SECONDS,
    )


def test_python_dash_m_runs_the_cli():
    proc = _formc("compile", str(FORMS_DIR / "mass_2d_q2.form"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("mass_2d_q2: representation=quadrature degree=4 flops=")


_P1 = forms.mass(2, 1)
_NESTED = _P1.replace("dot(v, u)", "(" * 3000 + "dot(v, u)" + ")" * 3000)
# (argv with FORM for the file, the file's bytes, the exit code)
CORPUS = {
    "check-p6-tetrahedron": (["check", "FORM"], forms.mass(3, 6, 6, 6).encode(), 2),
    "bench-p6-tetrahedron": (["bench", "FORM", "-N", "100"], forms.mass(3, 6, 6, 6).encode(), 2),
    "bench-count": (
        ["bench", "FORM", "-N", "1000000000"], (FORMS_DIR / "mass_2d_q2.form").read_bytes(), 2
    ),
    "check-cells": (["check", "FORM", "--cells", "100001"], _P1.encode(), 2),
    "assemble-mesh-n": (["assemble", "FORM", "--mesh-n", "100000"], _P1.encode(), 2),
    "compile-points": (["compile", "FORM", "--points", "33"], _P1.encode(), 2),
    "nested-parentheses": (["compile", "FORM"], _NESTED.encode(), 2),
    "not-utf8": (["check", "FORM"], _P1.encode() + b"# \xff\xfe\n", 2),
    "trends-bench-n": (["trends", "--quick", "--bench-n", "1000000000"], b"", 2),
    # hashing its quadrature kernel's 733-level BinOp chain overflows the
    # recursion limit; ROADMAP item 1 turns this into exit 0, in the change
    # that re-baselines the benchmark
    "compile-deep-chain": (["compile", "FORM"], forms.vector_poisson_div(1, 3, 1, 3).encode(), 2),
}


@pytest.mark.parametrize("case", list(CORPUS))
def test_exit_code_contract(case, tmp_path):
    argv, content, code = CORPUS[case]
    path = tmp_path / "form.form"
    path.write_bytes(content)
    proc = _formc(*[str(path) if a == "FORM" else a for a in argv])
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code and len(proc.stderr.splitlines()) == 1, proc.stderr
