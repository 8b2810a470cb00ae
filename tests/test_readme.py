"""The README's Quick tour and its command blocks must print what the
README shows, the caps the README states must be the code's, and the test
extra it installs must pin the versions CI installs.

Each `print(...)` line of the tour's python block ends in a comment whose
value (the text after its last `=`, if any) is the line it prints.  The
block runs in a fresh interpreter with `src/` on the path, so moving or
renaming a name the README uses fails here instead of going stale.  The
`slval valuate`, `slval fit` and `slval demo-usc` lines of its sh blocks
run through `cli.main` on the square of its polytope file block and the
tour's valuation, and print the lines below them.
"""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from slval.cli import main
from slval.exactnum import Linear, Scalar
from slval.triangulate import MAX_CELLS
from slval.valuation import MAX_UNION_TERMS, ClassifiedValuation, to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        return f.read()


def _quick_tour() -> str:
    section = _readme().split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _shown_commands() -> dict[str, list[str]]:
    """Each `slval` line of the README's sh blocks, with the lines shown below it."""
    shown: dict[str, list[str]] = {}
    for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("slval "):
                command = line
                shown[command] = []
            elif command is not None:
                shown[command].append(line)
    return shown


#: the README's command lines whose whole output it shows
COMMANDS = (
    "slval valuate --in square.json --valuation val.json",
    "slval valuate --in square.json --valuation val.json --format json",
    "slval fit --n 2 --valuation val.json --format text",
    "slval demo-usc --c0p 1 --d0 0 --steps 3",
)


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
    text = " ".join(_readme().split())
    assert f"`slval.triangulate.MAX_CELLS` ({MAX_CELLS:,})" in text
    assert f"up to {MAX_UNION_TERMS:,} nonempty intersections" in text


@pytest.mark.parametrize("command", COMMANDS)
def test_command_blocks_print_what_the_readme_shows(command, tmp_path, monkeypatch, capsys):
    """square.json is the README's polytope file, the square of the tour,
    and val.json the tour's valuation, psi = Linear(3) and phi = Linear(0)."""
    shown = _shown_commands()[command]
    square = re.search(r"A polytope file holds one JSON object:\n\n```json\n(.*?)```",
                       _readme(), re.S).group(1)
    val = ClassifiedValuation(c0=Scalar(1), c0p=Scalar(2), d0=Scalar(0),
                              psi=Linear(Scalar(3)), phi=Linear(Scalar(0)))
    (tmp_path / "square.json").write_text(square)
    (tmp_path / "val.json").write_text(json.dumps(to_json(val)))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_the_test_extra_pins_the_versions_ci_installs():
    """The `test` extra that the README installs and both `pip install`
    lines of the CI workflow name the same pytest and hypothesis versions:
    derandomized hypothesis examples, and the count guards and catalogue
    kills behind them, depend on the version.  Both files are read by
    regex, since Python 3.10 has no tomllib."""
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        extra = re.search(r"^test = \[(.*)\]$", f.read(), re.M).group(1)
    pins = sorted(re.findall(r'"([\w-]+==[\w.]+)"', extra))
    assert [p.split("==")[0] for p in pins] == ["hypothesis", "pytest"]
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as f:
        installs = re.findall(r"^\s*run: python -m pip install (.*)$", f.read(), re.M)
    assert len(installs) == 2
    assert all(sorted(line.split()) == pins for line in installs)
