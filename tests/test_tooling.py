import shutil
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"

# what building, testing and running leave behind; BENCH_*.json rows are
# measurements kept on purpose, so they are not listed
OUTPUT_FILES = ("*.svg", "*.csv")
OUTPUT_DIRS = {"out", "__pycache__", ".hypothesis", ".pytest_cache"}

# one property test that fails and one plain test after it
PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failing example through code that warns; the
    # project's filterwarnings must not turn that warning into an INTERNALERROR
    # that stops the run before the tests after it
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def is_output(path: str) -> bool:
    *dirs, name = path.split("/")
    return any(fnmatch(name, p) for p in OUTPUT_FILES) or not OUTPUT_DIRS.isdisjoint(dirs)


def test_output_patterns():
    assert is_output("demos/blend.svg") and is_output("out/summary.json")
    assert is_output("src/herdsim/__pycache__/sim.cpython-311.pyc")
    assert is_output(".hypothesis/examples/x") and is_output("a/.pytest_cache/v")
    assert not is_output("BENCH_19.json") and not is_output("src/herdsim/out.py")


def test_git_tracks_no_build_or_run_output():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        pytest.skip(f"git ls-files failed: {proc.stderr.strip()}")
    assert [p for p in proc.stdout.split("\0") if p and is_output(p)] == []
