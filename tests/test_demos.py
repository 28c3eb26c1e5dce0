"""Every script in demos/ runs to completion against this checkout and
leaves nothing behind in its temporary directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prymcheck

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = str(Path(prymcheck.__file__).parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmpdir)}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmpdir.iterdir()) == [], "the demo left temporary files behind"
