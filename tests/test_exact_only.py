"""The package computes exactly: no module under src/slval holds a float
literal, calls float, or reads anything of math beyond its integer
functions gcd, lcm and factorial."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "slval").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "factorial"}


def inexact_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: call to float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name not in INTEGER_MATH]
    return found


def test_the_sources_are_found():
    assert {"exactnum.py", "linalg.py", "polytope.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_is_exact(path):
    assert inexact_uses(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e3",
    "y = float(x)",
    "import math\ny = math.sqrt(2)",
    "from math import isclose",
])
def test_the_check_can_fail(snippet):
    assert inexact_uses(ast.parse(snippet)) != []


def test_integer_math_passes():
    snippet = "import math\nfrom math import gcd, lcm\ny = math.factorial(3)"
    assert inexact_uses(ast.parse(snippet)) == []
