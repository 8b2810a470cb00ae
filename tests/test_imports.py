"""Every name a module of slval imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slval"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read as a name; the
    __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_the_check_finds_an_unused_import():
    source = "import os.path\nfrom math import gcd, lcm as l\nprint(gcd(2, 4))\n"
    assert unused_imports(source) == ["l", "os"]
    assert unused_imports("import os.path\nprint(os.sep)\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []
