"""The package computes exactly: no module under src/slval holds a float
literal, calls float, or reads anything of math beyond its integer
functions gcd, lcm and factorial.  Nor does it add a module-level cache:
derived data lives on the polytope that owns it, and the one
`functools.lru_cache` left, on `triangulate.volume`, stays only because
perfbench/tracing.py reads its `cache_info()`."""

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


CACHES = {"lru_cache", "cache"}
#: the module-level caches allowed, by file: the functions they decorate
ALLOWED_CACHES = {"triangulate.py": ["volume"]}


def cache_uses(tree: ast.AST) -> list[str]:
    """Each use of functools.lru_cache or functools.cache: the name of the
    function it decorates, or else its line."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    decorating = {id(sub): node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for decorator in node.decorator_list for sub in ast.walk(decorator)}
    found = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in CACHES
                    and isinstance(node.value, ast.Name) and node.value.id in modules)):
            found.append(decorating.get(id(node), f"line {node.lineno}"))
    return sorted(found)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_adds_no_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert cache_uses(tree) == ALLOWED_CACHES.get(path.name, [])


@pytest.mark.parametrize("snippet, found", [
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x):\n    return x", ["f"]),
    ("import functools\n@functools.cache\ndef g(x):\n    return x", ["g"]),
    ("import functools as ft\nh = ft.lru_cache(maxsize=8)(len)", ["line 2"]),
    ("from functools import cache as memo\nh = memo(len)", ["line 2"]),
])
def test_the_cache_check_can_fail(snippet, found):
    assert cache_uses(ast.parse(snippet)) == found


def test_other_functools_passes():
    snippet = "import functools\nfrom functools import partial\nf = functools.reduce\ng = partial(len)"
    assert cache_uses(ast.parse(snippet)) == []
