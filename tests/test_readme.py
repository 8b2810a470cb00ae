"""The README's Quick tour must run and print what its comments say, and
the caps the README states must be the code's.

Each `print(...)` line of the tour's python block ends in a comment whose
value (the text after its last `=`, if any) is the line it prints.  The
block runs in a fresh interpreter with `src/` on the path, so moving or
renaming a name the README uses fails here instead of going stale.
"""

import os
import re
import subprocess
import sys

from slval.triangulate import MAX_CELLS
from slval.valuation import MAX_UNION_TERMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_tour() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        section = f.read().split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _expected(code: str) -> list[str]:
    values = []
    for line in code.splitlines():
        if line.startswith("print("):
            assert "#" in line, f"print without its value comment: {line}"
            values.append(line.split("#", 1)[1].rsplit("=", 1)[-1].strip())
    return values


def test_quick_tour_prints_its_comments():
    code = _quick_tour()
    expected = _expected(code)
    assert expected
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_the_caps_are_the_figures_the_readme_states():
    """The cell cap and the union cap are stated by value: moving either
    moves what the README promises."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = " ".join(f.read().split())
    assert f"`slval.triangulate.MAX_CELLS` ({MAX_CELLS:,})" in text
    assert f"up to {MAX_UNION_TERMS:,} nonempty intersections" in text
