"""The README's library quick start runs as printed.

The code block under "Library quick start" runs in a fresh interpreter,
so that it sees only what it imports itself, and its printed lines are
checked against the comments beside them.
"""

import re
import subprocess
import sys
from pathlib import Path

from lsm2d import SLENDER_MESHES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_what_its_comments_say():
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + quick_start()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    rotation, *rows = proc.stdout.splitlines()
    # the modified cell's rotation eigenvalue, over E t, is roundoff
    assert abs(float(rotation)) < 1e-15
    # then one error row per mesh of the cantilever's default ladder
    assert len(rows) == len(SLENDER_MESHES)
    for row, size in zip(rows, SLENDER_MESHES):
        assert row.startswith(f"{size} ")
