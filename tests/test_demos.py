"""Every script in demos/ runs to completion against this checkout and
leaves nothing behind in its temporary directory, and the README's
library snippet prints the output the README shows under it."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import prymcheck

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(prymcheck.__file__).parent.parent)
PYTHONPATH = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "PYTHONPATH": PYTHONPATH, "TMPDIR": str(tmpdir)}
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


def test_readme_library_snippet_prints_what_the_readme_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    snippet, expected = re.search(
        r"```python\n(.*?)```.*?```text\n(.*?)```", section, re.DOTALL
    ).groups()
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": PYTHONPATH},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected
