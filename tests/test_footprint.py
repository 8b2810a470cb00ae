"""Memory and import footprint: a process keeps nothing of the polytopes an
op built once the op returns, and `import slval.cli` loads only the standard
modules every command uses.

`triangulate.volume` keeps its `lru_cache` wrapper at size 0, so it stores
(and hashes) nothing; each polytope holds its own volume in its `_volume`
slot, which goes with it.  The oracle subprocess modules load only when
`fit --oracle-cmd` runs one."""

import gc
import os
import subprocess
import sys
from pathlib import Path

from slval import cli
from slval.harness import run_suite
from slval.linalg import Vector
from slval.polytope import Polytope, from_points
from slval.triangulate import volume
from slval.valuation import evaluate, evaluate_union

from splits import SLAB_VALUATION, surd_slabs

SRC = Path(__file__).resolve().parent.parent / "src"


def live_polytopes():
    """The number of Polytope objects alive after a full collection."""
    gc.collect()
    return sum(isinstance(obj, Polytope) for obj in gc.get_objects())


def test_the_count_sees_a_kept_polytope():
    before = live_polytopes()
    kept = from_points([Vector([0, 0]), Vector([1, 0]), Vector([0, 1])])
    assert live_polytopes() == before + 1
    del kept
    assert live_polytopes() == before


def test_slab_unions_keep_no_polytope():
    """20 slab unions in R^2 and R^3 leave as many live polytopes as before
    (a volume cache that kept its keys left 120 more)."""
    before = live_polytopes()
    for seed in range(10):
        for n in (2, 3):
            P, slabs = surd_slabs(n, seed)
            assert evaluate_union(SLAB_VALUATION, slabs) == evaluate(SLAB_VALUATION, P)
    del P, slabs
    assert live_polytopes() == before


def test_the_suite_keeps_no_polytope():
    """A 5-case suite leaves as many live polytopes as before (92 more with
    the keeping cache)."""
    before = live_polytopes()
    assert all(line["pass"] for line in run_suite(2, seed=0, cases=5))
    assert live_polytopes() == before


def test_verify_leaves_the_volume_cache_empty(capsys):
    assert cli.main(["verify", "--n", "2", "--cases", "5"]) == 0
    assert capsys.readouterr().out
    assert volume.cache_info().currsize == 0


def test_importing_the_cli_loads_no_oracle_or_introspection_module():
    """`import slval.cli` in a fresh interpreter (without site, whose start
    may load any of these) loads none of the modules that only the oracle
    runner or dataclasses need."""
    heavy = ["dataclasses", "inspect", "shlex", "subprocess"]
    probe = ("import sys; before = set(sys.modules); import slval.cli; "
             "print(sorted(before & set(sys.argv[1:]))); "
             "print(sorted((set(sys.modules) - before) & set(sys.argv[1:])))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe, *heavy], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]
