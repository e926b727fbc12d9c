"""Every demo runs to completion and uses only herdsim's public names."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def private_herdsim_imports(source: str) -> list[str]:
    """Every `from herdsim... import _name` in source."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("herdsim")
            for alias in node.names if alias.name.startswith("_")]


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    assert private_herdsim_imports(demo.read_text()) == []
    # each demo writes its SVG next to itself, so run a copy
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "05_full_herding_run":
        # 8,287 trace rows: the one at t = 0 and one per step
        assert "(8286 steps)" in proc.stdout
