"""Each offline demo runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_demo_leaves_no_temp_dir(tmp_path):
    demo = ROOT / "demos" / "03_concern_and_augmentation.py"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, check=True,
        capture_output=True, timeout=120,
    )
    assert list(tmp_path.iterdir()) == []
