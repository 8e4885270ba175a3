"""Every demo script, and every python block of the README, runs to
completion in a fresh process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
    encoding="utf-8"), flags=re.M | re.S)


def test_demos_found():
    assert len(DEMOS) >= 5


def _run_python(args: list, cwd) -> None:
    # BLAS pinned to one thread, warnings are errors as in the suite, and
    # the working directory takes any file the script writes
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_zero(block, tmp_path):
    _run_python(["-c", block], tmp_path)
