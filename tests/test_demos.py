"""Each demo runs to completion as a script and prints its committed output.

The demos are callers of the library in their own right, so a name that only
a demo uses is kept alive by a script that must keep working. Each demo's
stdout must match tests/demo_output/<demo>.txt byte for byte; the figures
that are pure rounding error are printed as bounds, so an exact refactor
keeps every line. After a deliberate change of a demo's output, rewrite its
file with `python3 demos/<demo>.py > tests/demo_output/<demo>.txt` (with
src on PYTHONPATH).
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    expected_path = ROOT / "tests" / "demo_output" / f"{path.stem}.txt"
    expected = expected_path.read_text()
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), done.stdout.splitlines(keepends=True),
        fromfile=str(expected_path.relative_to(ROOT)), tofile=f"{path.name} stdout"))
    assert done.stdout == expected, f"{path.name} printed a different output:\n{diff}"
