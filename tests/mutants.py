"""Mutant catalogue: each entry breaks `src/` on purpose in one place and
names the tests that must catch it.

    python tests/mutants.py [NAME ...]

For each entry, or each one named, the runner copies `src/`, `tests/`,
`perfbench/`, `pyproject.toml`, `README.md` and `BENCHMARK.json` to a
temporary directory, applies the entry's `old -> new` replacement to its
file, which must match exactly once, and runs the entry's test node ids
there, so that they import the mutated copy.  An entry passes only when
pytest exits 1, meaning that tests failed.  Exit 0 means that the mutant
survived; 2 to 5 mean an interrupted run, an internal or usage error, or no
tests collected, none of which is a kill.  The runner prints one line per
entry and exits 1 if any entry did not pass.

Before any entry runs, the union of the selected entries' node ids runs
once on an unmutated copy.  If that run does not exit 0, a failure in the
copy would pass for a kill, so the runner names the failing node ids and
exits 1 without running the entries.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/slval
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, relative to the repo root


CATALOGUE = (
    Mutant(
        "origin-first-equality-only", "polytope.py",
        "    if any(row[-1] != (0, 0) for row in equalities):\n",
        "    if any(row[-1] != (0, 0) for row in equalities[:1]):\n",
        ("tests/test_polytope.py::test_origin_signs_agree_with_membership",),
    ),
    Mutant(
        "main-drops-leftovers", "cli.py",
        "    args = _PARSER.parse_args(argv)\n",
        "    args, _ = _PARSER.parse_known_args(argv)\n",
        ("tests/test_cli.py::TestParser::test_main_parses_as_the_full_parser"
         "[demo-usc --steps 3 -- --format]",),
    ),
    Mutant(
        "fit-reraises-oracle-field-mismatch", "cli.py",
        '            raise OracleError(f"oracle values and {mismatch}")\n',
        "            raise\n",
        ("tests/test_cli.py::TestFit::test_oracle_in_another_field_exits_3",),
    ),
    Mutant(
        "eliminate-drops-swap-sign", "linalg.py",
        "            sign = -sign\n",
        "            sign = sign\n",
        # only determinants beyond 4 x 4, which have no closed form, read it
        ("tests/test_linalg.py::test_pair_determinant_beyond_4x4_keeps_the_swap_sign",),
    ),
    Mutant(
        "eliminate-never-divides", "linalg.py",
        "                rows[i] = [(a // n, b // n) for a, b in x] if n != 1 else x\n",
        "                rows[i] = x\n",
        ("tests/test_linalg.py::test_solve_unique",
         "tests/test_linalg.py::test_pair_determinant_beyond_4x4_keeps_the_swap_sign"),
    ),
    Mutant(
        "intersect-one-side-of-each-equality", "polytope.py",
        "for side in (e, tuple((-a, -b) for a, b in e))]",
        "for side in (e,)]",
        ("tests/test_polytope.py::test_intersect_crossing_segments_in_the_plane",
         "tests/test_polytope.py::test_intersect_crossing_triangles_in_space"),
    ),
    Mutant(
        "clip-keeps-unreduced-denominator", "polytope.py",
        "    Q = Polytope._of(n, tuple(rows[t] for t in order), M, d)\n",
        "    Q = object.__new__(Polytope)\n"
        "    Q._fill(n, tuple(rows[t] for t in order), M, d)\n",
        ("tests/test_hull.py::test_flat_and_low_dimensional_derivations_run_no_hull_pass",
         "tests/test_polytope.py::test_every_constructor_stores_canonical_rows"),
    ),
    Mutant(
        "random-sl-matrix-adds-j-into-i", "linalg.py",
        "            row[j] += lam * row[i]\n",
        "            row[i] += lam * row[j]\n",
        ("tests/test_linalg.py::test_random_sl_matrix_is_the_product_of_its_shears",),
    ),
    Mutant(
        "canonical-drops-the-conjugate-sign", "polytope.py",
        "        s = _surd_sign(A, B, d) * (1 if A * A > d * B * B else -1)\n",
        "        s = _surd_sign(A, B, d)\n",
        ("tests/test_hull.py::test_surd_clouds_keep_incidence",),
    ),
    Mutant(
        "relint-admits-the-boundary", "valuation.py",
        "    relint = on_hull and all(s > 0 for s, _ in signs)\n",
        "    relint = on_hull and all(s >= 0 for s, _ in signs)\n",
        ("tests/test_valuation.py::test_relint_sign",),
    ),
    Mutant(
        "apply-reads-the-volume-as-cone", "valuation.py",
        "        + cauchy_eval(V.phi, cone)\n",
        "        + cauchy_eval(V.phi, vol)\n",
        ("tests/test_valuation.py::test_evaluate_union_of_crossing_segments",),
    ),
    Mutant(
        "union-flips-the-sign", "valuation.py",
        "t + x if odd else t - x",
        "t - x if odd else t + x",
        ("tests/test_valuation.py::test_evaluate_union_single",),
    ),
    Mutant(
        "union-stops-at-pairs", "valuation.py",
        "            meets = [intersect(Q, piece) for Q in pieces[:k]]\n",
        "            meets = [intersect(Q, piece) for Q in pieces[:k] if odd]\n",
        ("tests/test_valuation.py::test_evaluate_union_rejects_too_many_parts",),
    ),
    Mutant(
        "union-stops-at-the-first-empty-meet", "valuation.py",
        "add([M for M in meets if not M.is_empty], not odd)",
        "add(meets[:next((i for i, M in enumerate(meets) if M.is_empty), k)], not odd)",
        ("tests/test_valuation.py::test_evaluate_union_accepts_a_long_chain",),
    ),
    Mutant(
        "union-keeps-the-level-sign", "valuation.py",
        "if not M.is_empty], not odd)",
        "if not M.is_empty], odd)",
        ("tests/test_valuation.py::test_evaluate_union_euler_over_diagonal",),
    ),
    Mutant(
        "pulling-cones-through-the-apex", "triangulate.py",
        "for g in _ridges(face, masks, k) if not g & apex\n",
        "for g in _ridges(face, masks, k)\n",
        ("tests/test_triangulate.py::test_volume_of_unit_square_and_cube",),
    ),
    Mutant(
        # equivalent below dimension 5, where the vertex count alone decides
        "pulling-keeps-non-maximal-meets", "polytope.py",
        " if not any(r & s == r != s for s in meets)}",
        "}",
        ("tests/test_triangulate.py::test_volume_routes_agree_in_r5",),
    ),
    Mutant(
        "facet-handover-skips-the-clearing", "polytope.py",
        "rows = {col: e if e[c] == (0, 0) else tuple(_primitive(_cross(e, h[c], h, e[c], P._d)))\n",
        "rows = {col: e if True else tuple(_primitive(_cross(e, h[c], h, e[c], P._d)))\n",
        ("tests/test_hull.py::test_facet_handover_clears_the_later_equalities",),
    ),
    Mutant(
        "facet-handover-keeps-the-parent-numbering", "polytope.py",
        "sum(1 << new for new, i in enumerate(kept) if r >> i & 1))\n",
        "r)\n",
        ("tests/test_hull.py::test_facet_handover_over_q_sqrt2",
         "tests/test_hull.py::test_facet_handovers_equal_fresh_passes"),
    ),
    Mutant(
        "supporting-skips-the-third-ray-test", "polytope.py",
        "                if any(z & common == common for z in masks if z != zv and z != zs):\n",
        "                if False:\n",
        ("tests/test_hull.py::test_five_cube_combines_only_adjacent_rays",
         "tests/test_hull.py::test_boundary_points_in_r4_combine_only_adjacent_rays"),
    ),
    Mutant(
        "frame-keeps-the-coordinate-rows-in-forward-order", "polytope.py",
        "zip(form[:k:-1], free)",
        "zip(form[k + 1:], free)",
        ("tests/test_hull.py::test_frame_matches_the_reference",),
    ),
    Mutant(
        "split-slab-falls-back-to-generic", "harness.py",
        '_FALLBACK = {"degenerate": "generic", "slab": "inclusion"}',
        '_FALLBACK = {"degenerate": "generic", "slab": "generic"}',
        ("tests/test_harness.py::TestGenSplit::test_split_grid_digest",),
    ),
    Mutant(
        "oracle-answers-read-in-reverse", "cli.py",
        "    for line in lines:\n",
        "    for line in reversed(lines):\n",
        ("tests/test_cli.py::TestFit::test_oracle_answers_are_read_in_order",),
    ),
    Mutant(
        "fit-residual-off-by-one", "harness.py",
        "zip(validation, values[5:])",
        "zip(validation, values[4:])",
        ("tests/test_harness.py::TestFit::test_round_trip_full",),
    ),
    Mutant(
        # a repeated zero row makes `_extreme` drop the vertex 0
        "cone-hull-keeps-a-second-origin-row", "polytope.py",
        "    rows = tuple(sorted({*P._rows, ((0, 0),) * n}))\n",
        "    rows = tuple(sorted(P._rows + (((0, 0),) * n,)))\n",
        ("tests/test_polytope.py::test_cone_hull_cases",
         "tests/test_polytope.py::test_origin_signs_agree_with_membership",
         "tests/test_triangulate.py::test_volume_routes_agree"),
    ),
    Mutant(
        "cone-check-reads-positive-offsets", "harness.py",
        "if h.offset < 0", "if h.offset > 0",
        ("tests/test_harness.py::TestConeDecomposition::test_square_worked_example",),
    ),
    Mutant(
        "suite-reads-the-usc-reports-in-reverse", "harness.py",
        "    usc_bad, usc_good = usc_sequences(",
        "    usc_good, usc_bad = usc_sequences(",
        ("tests/test_harness.py::TestSuite::test_default_suite_passes",),
    ),
    Mutant(
        "suite-keeps-no-identity-witness", "harness.py",
        "for name, outcome in outcomes if outcome is not True}",
        "for name, outcome in outcomes if False}",
        ("tests/test_harness.py::TestSuite::test_identity_line_names_the_broken_column",),
    ),
    Mutant(
        "suite-seeds-cases-past-100-on-other-families", "harness.py",
        "(tag + case if case < 100 else tag * 1000 + case)",
        "(tag + case)",
        ("tests/test_harness.py::TestSuite::test_no_two_cases_draw_one_polytope",),
    ),
    Mutant(
        "volume-cache-keeps-polytopes", "triangulate.py",
        "@lru_cache(maxsize=0)\n",
        "@lru_cache(maxsize=None)\n",
        ("tests/test_footprint.py::test_slab_unions_keep_no_polytope",
         "tests/test_footprint.py::test_verify_leaves_the_volume_cache_empty",
         "tests/test_exact_only.py::test_source_adds_no_cache[triangulate.py]"),
    ),
    Mutant(
        "cli-imports-subprocess-at-load", "cli.py",
        "import json\nimport sys\n",
        "import json\nimport subprocess\nimport sys\n",
        ("tests/test_footprint.py::test_importing_the_cli_loads_no_oracle_or_introspection_module",),
    ),
    Mutant(
        "identity-always-holds", "harness.py",
        "    if left + right == whole + meet:\n",
        "    if True:\n",
        ("tests/test_harness.py::TestIdentityCheck::test_broken_functional_yields_witness",
         "tests/test_harness.py::TestSuite::test_broken_plugin_reports_witness"),
    ),
    Mutant(
        "usc-scales-start-at-one-half", "harness.py",
        "for k in range(steps))\n",
        "for k in range(1, steps + 1))\n",
        ("tests/test_cli.py::TestDemoUsc::test_json_report",),
    ),
)


def _copy(tmp: str) -> None:
    """The parts of the repo the tests read, copied into tmp."""
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md", "BENCHMARK.json"):
        shutil.copy(os.path.join(ROOT, name), tmp)


def _pytest(tmp: str, ids, *flags: str) -> subprocess.CompletedProcess:
    """Pytest on the node ids in the copy at tmp, importing that copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *ids],
        cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def baseline(ids) -> list[str]:
    """The node ids that do not pass on an unmutated copy: the FAILED and
    ERROR lines of pytest's summary, or its whole output if it names none."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        result = _pytest(tmp, ids, "-rfE")
    if result.returncode == 0:
        return []
    named = [line.split()[1] for line in result.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return named or [result.stdout.strip()]


def run(mutant: Mutant) -> tuple[int, float]:
    """Pytest's exit code on the entry's node ids against a mutated copy,
    and the seconds it took."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        target = os.path.join(tmp, "src", "slval", mutant.path)
        with open(target) as fh:
            text = fh.read()
        found = text.count(mutant.old)
        if found != 1:
            raise SystemExit(f"{mutant.name}: the old text matches {found} times in {mutant.path}")
        with open(target, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        start = time.perf_counter()
        code = _pytest(tmp, mutant.kills, "-x").returncode
        return code, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    selected = [m for m in CATALOGUE if not names or m.name in names]
    failing = baseline(sorted({i for m in selected for i in m.kills}))
    if failing:
        print("the unmutated copy does not pass:", *failing, sep="\n  ", flush=True)
        return 1
    failed = 0
    for mutant in selected:
        code, seconds = run(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"not a kill (pytest exit {code})")
        failed += code != 1
        print(f"{mutant.name}: {verdict} in {seconds:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
