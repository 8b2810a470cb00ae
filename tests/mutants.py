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
        ("tests/test_polytope.py::test_origin_signs_agree_with_membership",
         "tests/test_boxes.py::test_every_hull_has_the_plane_oracle_basis",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cross]"),
    ),
    Mutant(
        "main-drops-leftovers", "cli.py",
        "    args = _PARSER.parse_args(argv)\n",
        "    args, _ = _PARSER.parse_known_args(argv)\n",
        ("tests/test_cli.py::TestParser::test_main_parses_as_the_full_parser"
         "[demo-usc --steps 3 -- --format]",),
    ),
    Mutant(
        # c0 over Q(sqrt 3) then goes unseen on a polytope over Q(sqrt 2) whose
        # basis is rational, and its surd is read as sqrt 2
        "apply-leaves-c0-out-of-the-field-fold", "valuation.py",
        "    for c in (c0, c0p, d0, psi.rational, psi.surd, phi.rational, phi.surd):\n",
        "    for c in (c0p, d0, psi.rational, psi.surd, phi.rational, phi.surd):\n",
        ("tests/test_cli.py::test_a_coefficient_in_another_field_is_refused_whatever_the_basis"
         "[surd-triangle]",),
    ),
    Mutant(
        # the message then names the polytope's field first; valuate checks the
        # file's declared field first, so fit's surd simplices find it
        "apply-merges-the-basis-field-first", "valuation.py",
        "*phi._terms(*cone, d)), _merge_discriminants(e, d))",
        "*phi._terms(*cone, d)), _merge_discriminants(d, e))",
        ("tests/test_cli.py::test_valuation_in_another_field_exits_2[fit]",),
    ),
    Mutant(
        # answers over Q(sqrt 3) against a model of 0 then give a residual
        "oracle-answers-skip-the-field-fold", "cli.py",
        "        _merge_discriminants(value.d, field_d)\n",
        "",
        ("tests/test_cli.py::TestFit::test_oracle_in_another_field_under_a_rational_model_exits_3",),
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
        # the rational steps are fused; a surd pivot or entry takes this one
        "eliminate-never-divides-over-a-surd-field", "linalg.py",
        "                rows[i] = [(a // n, b // n) for a, b in x]\n",
        "                rows[i] = x\n",
        ("tests/test_linalg.py::test_pair_determinant_beyond_4x4_keeps_the_swap_sign",),
    ),
    Mutant(
        "eliminate-fused-step-never-divides", "linalg.py",
        "rows[i] = [((xa * pa - ya * fa) // qa, (xb * pa - yb * fa) // qa)",
        "rows[i] = [((xa * pa - ya * fa), (xb * pa - yb * fa))",
        ("tests/test_linalg.py::test_solve_unique",
         "tests/test_boxes.py::test_every_space_hull_has_the_oracle_vertices_frame_and_facets[cross]"),
    ),
    Mutant(
        "intersect-one-side-of-each-equality", "polytope.py",
        "for side in (e, tuple((-a, -b) for a, b in e))]",
        "for side in (e,)]",
        ("tests/test_polytope.py::test_intersect_crossing_segments_in_the_plane",
         "tests/test_polytope.py::test_intersect_crossing_triangles_in_space",
         "tests/test_valuation.py::test_evaluate_union_of_crossing_flat_pieces_matches_all_subsets[3-0]"),
    ),
    Mutant(
        # the meet of two flat pieces then keeps the half of the cut operand
        # on the far side of each equality of the other's affine hull
        "intersect-keeps-only-the-negated-side", "polytope.py",
        "for side in (e, tuple((-a, -b) for a, b in e))]",
        "for side in (tuple((-a, -b) for a, b in e),)]",
        ("tests/test_valuation.py::test_evaluate_union_of_crossing_flat_pieces_matches_all_subsets[2-0]",
         "tests/test_valuation.py::test_evaluate_union_of_crossing_flat_pieces_matches_all_subsets[3-0]"),
    ),
    Mutant(
        "clip-keeps-unreduced-denominator", "polytope.py",
        "    Q = Polytope._of(n, tuple(rows[t] for t in order), M, d)\n",
        "    Q = object.__new__(Polytope)\n"
        "    for slot, value in zip(Polytope.__slots__, (n, tuple(rows[t] for t in order), M, d, None, None)):\n"
        "        object.__setattr__(Q, slot, value)\n",
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
        "relint-admits-the-boundary", "triangulate.py",
        "all(s > 0 for s, _ in signs)",
        "all(s >= 0 for s, _ in signs)",
        ("tests/test_valuation.py::test_relint_sign",
         "tests/test_boxes.py::test_every_hull_has_the_plane_oracle_basis",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cross]"),
    ),
    Mutant(
        "apply-reads-the-volume-as-cone", "valuation.py",
        "*phi._terms(*cone, d)",
        "*phi._terms(*vol, d)",
        ("tests/test_valuation.py::test_evaluate_union_of_crossing_segments",),
    ),
    Mutant(
        "union-flips-the-sign", "valuation.py",
        "s = 1 if odd else -1",
        "s = -1 if odd else 1",
        ("tests/test_valuation.py::test_evaluate_union_single",),
    ),
    Mutant(
        "union-skips-a-rescale-to-the-common-denominator", "valuation.py",
        "+ s * a * (m // r),",
        "+ s * a,",
        ("tests/test_valuation.py::test_evaluate_union_builds_scalars_only_for_its_value",),
    ),
    Mutant(
        "translate-hands-on-the-kept-basis", "polytope.py",
        "    return Q\n\n\n# -- serialization",
        "    object.__setattr__(Q, \"_basis\", P._basis)\n    return Q\n\n\n# -- serialization",
        ("tests/test_integer_fit.py::test_kept_basis_is_the_scalar_route_basis[2]",),
    ),
    Mutant(
        "interior-clip-hands-on-the-kept-basis", "polytope.py",
        "    _fill_hull(Q, frame, items)\n",
        "    _fill_hull(Q, frame, items)\n    object.__setattr__(Q, \"_basis\", P._basis)\n",
        ("tests/test_integer_fit.py::test_kept_basis_is_the_scalar_route_basis[2]",),
    ),
    Mutant(
        "interior-point-drops-a-vertex-weight", "harness.py",
        "weights = [(rng.randint(1, 5), 0) for _ in P._rows]",
        "weights = [(rng.randint(1, 5), 0) for _ in P._rows][:-1] + [(0, 0)]",
        ("tests/test_integer_fit.py::test_integer_interior_point_is_the_scalar_one[2]",
         "tests/test_integer_fit.py::test_integer_draws_give_the_scalar_route_polytopes[2]"),
    ),
    Mutant(
        # `_solve` then reads the last unknown's column, not the right-hand side;
        # an inconsistent system is still told by its pivots
        "fit-reads-the-wrong-column", "linalg.py",
        "[row[-1] for row in form]",
        "[row[-2] for row in form]",
        ("tests/test_integer_fit.py::test_fit_reports_the_scalar_route_report[2-linear-0]",
         "tests/test_harness.py::TestFit::test_round_trip_full",
         "tests/test_linalg.py::test_solve_any_underdetermined"),
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
        "for g in _ridges(face, masks, apex)\n",
        "for g in _ridges(face, masks)\n",
        ("tests/test_triangulate.py::test_volume_of_unit_square_and_cube",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cube]"),
    ),
    Mutant(
        # every lower face of a face is then a facet of it, down to its vertices
        # and the empty meet, in every dimension
        "pulling-keeps-non-maximal-meets", "polytope.py",
        " if not any(r & s == r != s for s in meets)}",
        "}",
        ("tests/test_triangulate.py::test_volume_routes_agree_in_r5",),
    ),
    Mutant(
        # a meet of 3 or more vertices that is no facet is a face of dimension
        # >= 2 inside a facet, so it first occurs at k = 4, from dimension 5 on
        "ridges-keep-non-maximal-meets-at-k-4", "polytope.py",
        "    return {r: g for r, g in meets.items() if not any(",
        "    return {r: g for r, g in meets.items() if r.bit_count() > 2 or not any(",
        ("tests/test_triangulate.py::test_volume_routes_agree_in_r5",),
    ),
    Mutant(
        # equal values: a facet through vertex 0 gives cells with a zero row
        # of differences, so only the determinant count sees the extra cells
        "walk-sends-every-facet-to-the-volume", "triangulate.py",
        "to_volume, seen = not face & 1, s < 0\n",
        "to_volume, seen = True, s < 0\n",
        ("tests/test_triangulate.py::test_one_facet_walk_matches_the_two_walk_reference[2]",),
    ),
    Mutant(
        # equal values: the cones from 0 over a facet through 0 are flat
        "walk-sees-facets-through-the-origin", "triangulate.py",
        "to_volume, seen = not face & 1, s < 0\n",
        "to_volume, seen = not face & 1, s <= 0\n",
        ("tests/test_triangulate.py::test_one_facet_walk_matches_the_two_walk_reference[3]",),
    ),
    Mutant(
        # the pyramids from 0 over the facets it sees then come off the volume;
        # only a polytope that misses 0 has any
        "walk-subtracts-the-seen-cells", "triangulate.py",
        "cone = (A + a_seen, B + b_seen, q) if faces else vol\n",
        "cone = (A - a_seen, B - b_seen, q) if faces else vol\n",
        ("tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[shifted4]",),
    ),
    Mutant(
        "cone-omits-the-volume", "triangulate.py",
        "cone = (A + a_seen, B + b_seen, q) if faces else vol\n",
        "cone = (a_seen, b_seen, q) if faces else vol\n",
        ("tests/test_valuation.py::test_cone_volume_of_triangle",
         "tests/test_triangulate.py::test_one_facet_walk_matches_the_two_walk_reference[4]",
         "tests/test_boxes.py::test_every_hull_has_the_plane_oracle_basis",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cross]"),
    ),
    Mutant(
        "facet-handover-skips-the-clearing", "polytope.py",
        "rows = {col: tuple(_primitive(_cross(e, h[c], h, e[c], P._d)))\n",
        "rows = {col: e\n",
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
        "                if any(z & common == common for _, z in rays if z != zv and z != zs):\n",
        "                if False:\n",
        ("tests/test_hull.py::test_five_cube_combines_only_adjacent_rays",
         "tests/test_hull.py::test_boundary_points_in_r4_combine_only_adjacent_rays"),
    ),
    Mutant(
        # at k = 4 three common tight points may be collinear: no ridge
        "supporting-scans-for-a-third-ray-only-from-k-5", "polytope.py",
        "                if any(z & common == common for _, z in rays",
        "                if k > 4 and any(z & common == common for _, z in rays",
        ("tests/test_hull.py::test_boundary_points_in_r4_combine_only_adjacent_rays",),
    ),
    Mutant(
        # a point strictly inside the seed simplex may be skipped, as it
        # violates no ray; one tight on a seed ray may not
        "supporting-drops-candidates-tight-on-a-seed-ray", "polytope.py",
        "        if c in simplex:\n",
        "        if c in simplex or all(flip * _surd_sign(*row[c], d) <= 0 for row in form):\n",
        ("tests/test_hull.py::test_unit_grids_with_non_simplicial_facets",
         "tests/test_read_path.py::test_pass_matches_the_dot_product_pass[2-False]"),
    ),
    Mutant(
        "supporting-skips-rays-tight-at-the-point", "polytope.py",
        "            elif s < 0:\n                kept.append((r, z))\n",
        "            elif s <= 0:\n                kept.append((r, z))\n",
        ("tests/test_hull.py::test_unit_grids_with_non_simplicial_facets",
         "tests/test_read_path.py::test_pass_matches_the_dot_product_pass[2-False]",
         "tests/test_boxes.py::test_every_space_hull_has_the_oracle_vertices_frame_and_facets[cross]"),
    ),
    Mutant(
        # each point is then classified by the excesses of the point inserted
        # before it, in far-first order
        "supporting-reads-the-excess-at-the-point-before", "polytope.py",
        "            e = _pair_dot(r, x, d)\n",
        "            e = _pair_dot(r, pts[c - 1], d)\n",
        ("tests/test_read_path.py::test_pass_matches_the_dot_product_pass[2-False]",
         "tests/test_read_path.py::test_pass_matches_the_dot_product_pass[3-True]"),
    ),
    Mutant(
        # sums and == stay right; differences and the order < > <= >= go wrong
        "plus-difference-adds", "exactnum.py",
        "return self._qa * q2 + s * other._qa * q1, self._qb * q2 + s * other._qb * q1,",
        "return self._qa * q2 + other._qa * q1, self._qb * q2 + other._qb * q1,",
        ("tests/test_exactnum.py::test_comparisons",
         "tests/test_exactnum.py::test_int_operands_keep_the_surd_part",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cross]"),
    ),
    Mutant(
        # `\d` then matches any Unicode decimal digit, and `int` reads them
        "literal-reads-non-ascii-digits", "exactnum.py",
        '(?:/(\\d+))?\\*sqrt\\((\\d+)\\))?\\Z", re.ASCII)',
        '(?:/(\\d+))?\\*sqrt\\((\\d+)\\))?\\Z")',
        ("tests/test_cli.py::TestValuate::test_non_ascii_digits_exit_2[polytope]",
         "tests/test_cli.py::TestFit::test_oracle_answers_end_as_the_exit_table_says[arabic-indic-3]",
         "tests/test_exactnum.py::test_parse_matches_the_fraction_reference"),
    ),
    Mutant(
        # `$` also matches before a final newline, so "3\\n" then reads as 3
        "scalar-literal-allows-a-trailing-newline", "exactnum.py",
        '(?:/(\\d+))?\\*sqrt\\((\\d+)\\))?\\Z", re.ASCII)',
        '(?:/(\\d+))?\\*sqrt\\((\\d+)\\))?$", re.ASCII)',
        ("tests/test_exactnum.py::test_parse_rejects_garbage",
         "tests/test_cli.py::TestValuate::test_a_literal_with_a_trailing_newline_exits_2"),
    ),
    Mutant(
        "literal-shortcut-skips-the-round-trip", "exactnum.py",
        "        if str(a := int(text)) == text:\n",
        "        if (a := int(text)) is not None:\n",
        ("tests/test_exactnum.py::test_parse_matches_the_fraction_reference",
         "tests/test_read_path.py::test_json_reads_as_the_scalar_route"),
    ),
    Mutant(
        "json-reads-every-row-before-the-field-check", "polytope.py",
        "        rows.append([_literal(text, d) for text in row])\n",
        "        rows.append([_literal(text, d) for text in row])\n    for row in rows:\n",
        ("tests/test_read_path.py::test_json_reads_as_the_scalar_route",),
    ),
    Mutant(
        "frame-keeps-the-coordinate-rows-in-forward-order", "polytope.py",
        "zip(form[:k:-1], free)",
        "zip(form[k + 1:], free)",
        ("tests/test_hull.py::test_frame_matches_the_reference",
         "tests/test_boxes.py::test_every_space_hull_has_the_oracle_vertices_frame_and_facets[cross]"),
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
        # a repeated row, such as cone_hull's zero row at a vertex 0, makes
        # `_extreme` drop that vertex
        "hull-keeps-a-repeated-row", "polytope.py",
        "Polytope._of(n, tuple(sorted(set(rows))), L, d)",
        "Polytope._of(n, tuple(sorted(rows)), L, d)",
        ("tests/test_polytope.py::test_cone_hull_cases",
         "tests/test_polytope.py::test_origin_signs_agree_with_membership",
         "tests/test_triangulate.py::test_volume_routes_agree",
         "tests/test_boxes.py::test_every_space_hull_has_the_space_oracle_basis[cross]"),
    ),
    Mutant(
        "fit-line-passes-whatever-the-coefficients", "harness.py",
        'yield _line("fit_roundtrip", 0, report.coefficients == expected or {',
        'yield _line("fit_roundtrip", 0, True or {',
        ("tests/test_harness.py::TestSuite::test_fit_line_fails_on_a_shifted_probe_value",),
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
        "import json\nimport os\n",
        "import json\nimport os\nimport subprocess\n",
        ("tests/test_footprint.py::test_importing_the_cli_loads_no_oracle_or_introspection_module",),
    ),
    Mutant(
        "cli-imports-the-check-suite-at-load", "cli.py",
        "from .polytope import Polytope\n",
        "from .harness import _scalarize, fit_classification, run_suite, usc_sequences\n"
        "from .polytope import Polytope\n",
        ("tests/test_footprint.py::test_the_check_suite_loads_with_verify_and_not_with_valuate",),
    ),
    Mutant(
        # a failed oracle's traceback then ends fit as five stderr lines
        "oracle-error-relays-all-of-stderr", "cli.py",
        '        detail = proc.stderr.strip().rpartition("\\n")[2].strip() or f"exit code {proc.returncode}"\n',
        '        detail = proc.stderr.strip() or f"exit code {proc.returncode}"\n',
        ("tests/test_cli.py::TestFit::test_oracle_answers_end_as_the_exit_table_says[raises]",),
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
    Mutant(
        # a float passes the gate uncoerced; the body fails on it with
        # AttributeError instead of Python's TypeError
        "gate-hands-a-float-to-the-operator", "exactnum.py",
        "        if (other := Scalar._coerce(other)) is NotImplemented:\n",
        "        if type(other) is not float and (other := Scalar._coerce(other)) is NotImplemented:\n",
        ("tests/test_exactnum.py::"
         "test_the_gate_refuses_every_operand_that_is_not_an_exact_rational[0.5-__lt__]",
         "tests/test_exactnum.py::test_a_float_operand_raises_type_error_on_either_side[x0-add]",
         "tests/test_exactnum.py::test_a_float_is_never_equal"),
    ),
    Mutant(
        "immutable-stores-the-value", "exactnum.py",
        "    def __setattr__(self, name, value):\n"
        '        raise AttributeError(f"{type(self).__name__} is immutable")\n',
        "    def __setattr__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_exactnum.py::test_value_types_refuse_assignment[Scalar]",
         "tests/test_exactnum.py::test_value_types_refuse_assignment[Linear]"),
    ),
    Mutant(
        "immutable-allows-deletion", "exactnum.py",
        "    def __delattr__(self, name):\n"
        '        raise AttributeError(f"{type(self).__name__} is immutable")\n',
        "    def __delattr__(self, name):\n"
        "        object.__delattr__(self, name)\n",
        ("tests/test_exactnum.py::test_value_types_refuse_assignment[Scalar]",
         "tests/test_exactnum.py::test_value_types_refuse_assignment[Polytope]"),
    ),
    Mutant(
        # an int psi then fails in `psi._terms` with AttributeError
        "apply-skips-the-slot-kind-check", "valuation.py",
        "    if not (isinstance(psi, CauchySolution) and isinstance(phi, CauchySolution)):\n",
        "    if False:\n",
        ("tests/test_valuation.py::test_a_slot_of_the_wrong_kind_is_refused_on_every_polytope"
         "[plain-psi-phi]",),
    ),
    Mutant(
        # a Linear c0 or a float c0p then fails in `_apply`'s field fold with
        # AttributeError, not with the slot's TypeError
        "apply-reads-the-scalar-slots-unchecked", "valuation.py",
        "    c0, c0p, d0 = as_scalar(c0), as_scalar(c0p), as_scalar(d0)\n",
        "",
        ("tests/test_valuation.py::test_a_slot_of_the_wrong_kind_is_refused_on_every_polytope"
         "[plugin-c0]",
         "tests/test_valuation.py::test_a_float_coefficient_is_refused_by_evaluate[1]"),
    ),
    Mutant(
        "plugin-reads-rational-and-surd-swapped", "exactnum.py",
        "        return (self.rational, A, 0, q), (self.surd, 0, B, q)\n",
        "        return (self.surd, A, 0, q), (self.rational, 0, B, q)\n",
        ("tests/test_exactnum.py::test_rational_part_examples",
         "tests/test_exactnum.py::test_cauchy_eval_is_the_oracle_formula"),
    ),
    Mutant(
        "plugin-skips-the-domain-check", "exactnum.py",
        "        if _surd_sign(A, B, d) < 0:\n            x = Scalar._make(A, B, q, d)\n",
        "        if False:\n            x = Scalar._make(A, B, q, d)\n",
        ("tests/test_exactnum.py::test_the_read_and_the_oracle_raise_alike[linear-negative]",
         "tests/test_exactnum.py::test_cauchy_eval_rejects_negative_argument"),
    ),
    Mutant(
        "rational-part-is-the-pair-1-1", "exactnum.py",
        "        super().__init__(ONE, ZERO)\n",
        "        super().__init__(ONE, ONE)\n",
        ("tests/test_exactnum.py::test_rational_part_examples",
         "tests/test_valuation.py::test_rational_part_valuation_on_surd_box"),
    ),
    Mutant(
        "surd-simplices-built-up-front", "harness.py",
        "enumerate(surd_simplices(n, field_d, min(cases, 5)))",
        "enumerate(list(surd_simplices(n, field_d, min(cases, 5))))",
        ("tests/test_harness.py::TestSuite::test_each_surd_simplex_is_built_by_its_own_line[2]",),
    ),
    Mutant(
        "cell-cap-counts-only-volume-cells", "triangulate.py",
        "                count += len(cells)\n",
        "                count += to_volume and len(cells)\n",
        ("tests/test_triangulate.py::test_the_cell_cap_counts_the_cells_of_both_walks",
         "tests/test_cli.py::TestValuate::test_more_cells_than_the_cap_exits_2"),
    ),
    Mutant(
        # the 9-cube test is left out: with no check it would run for hours
        "cell-cap-never-checked", "triangulate.py",
        "                if count > MAX_CELLS:\n",
        "                if False:\n",
        ("tests/test_triangulate.py::test_the_cell_cap_counts_the_cells_of_both_walks",
         "tests/test_cli.py::TestValuate::test_more_cells_than_the_cap_exits_2"),
    ),
    Mutant(
        "cell-cap-one-higher", "triangulate.py",
        "MAX_CELLS = 50_000\n",
        "MAX_CELLS = 50_001\n",
        ("tests/test_readme.py::test_the_caps_are_the_figures_the_readme_states",),
    ),
    Mutant(
        "union-cap-refuses-its-own-count", "valuation.py",
        "            if terms > MAX_UNION_TERMS:\n",
        "            if terms >= MAX_UNION_TERMS:\n",
        ("tests/test_valuation.py::test_evaluate_union_cap_admits_exactly_its_count",),
    ),
    Mutant(
        "sl-check-always-passes", "harness.py",
        "    if before == after:\n",
        "    if True:\n",
        ("tests/test_harness.py::TestSlInvariance"
         "::test_a_valuation_that_is_not_invariant_gets_its_witness",),
    ),
    Mutant(
        # the decoder's RecursionError then ends `valuate` with a traceback, exit 1
        "load-json-lets-deep-nesting-through", "cli.py",
        "    except RecursionError:\n"
        '        raise UsageError(f"{path} nests its JSON too deeply to read")\n',
        "",
        ("tests/test_cli.py::TestValuate::test_deeply_nested_json_exits_2[polytope]",
         "tests/test_cli.py::TestValuate::test_deeply_nested_json_exits_2[valuation]"),
    ),
    Mutant(
        # the polytope file is then hulled before the bad valuation is refused
        "valuate-hulls-before-it-reads-the-valuation", "cli.py",
        "    val, e = _load_valuation(args.valuation)\n"
        "    try:\n"
        "        poly, field_d = _load_polytope(args.polytope_path)\n",
        "    poly, field_d = _load_polytope(args.polytope_path)\n"
        "    val, e = _load_valuation(args.valuation)\n"
        "    try:\n",
        ("tests/test_cli.py::TestValuate::test_a_bad_valuation_is_refused_before_any_hull[bare-psi]",),
    ),
    Mutant(
        # a clash of fields inside the valuation file then surfaces in evaluate,
        # where valuate blames the polytope file too and fit blames --field-d
        "load-valuation-leaves-its-field-unchecked", "cli.py",
        "        return val, _field(*val)\n",
        "        return val, 0\n",
        ("tests/test_cli.py::TestValuate::test_a_bad_valuation_is_refused_before_any_hull[two-fields]",
         "tests/test_cli.py::TestFit::test_a_clash_of_fields_inside_the_valuation_blames_the_file[0]"),
    ),
    Mutant(
        "integer-option-skips-its-bound", "cli.py",
        "    if not ok(value):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_integer_options_exit_2_with_their_message[verify-n-5]",),
    ),
    Mutant(
        # a facet row is an inequality: its last entry may be negative, and the
        # handed-over equality must then be negated to be canonical
        "clip-keeps-the-facet-row-sign", "polytope.py",
        "            h = h if h[c][0] > 0 else tuple((-a, -b) for a, b in h)\n",
        "",
        ("tests/test_acceptance.py::test_split_identity_bulk",
         "tests/test_hull.py::test_facet_handover_of_a_segment_is_a_point",
         "tests/test_hull.py::test_facet_handovers_equal_fresh_passes[2]"),
    ),
    Mutant(
        "fill-keeps-a-negative-denominator", "exactnum.py",
        "        g = gcd(qa, qb, q) if q > 0 else -gcd(qa, qb, q)\n",
        "        g = gcd(qa, qb, q)\n",
        ("tests/test_exactnum.py::test_division_round_trip",
         "tests/test_exactnum.py::test_int_operands_keep_the_surd_part"),
    ),
    Mutant(
        "fill-keeps-the-field-of-a-rational", "exactnum.py",
        '        object.__setattr__(self, "d", d if qb else 0)\n',
        '        object.__setattr__(self, "d", d)\n',
        ("tests/test_exactnum.py::test_vanishing_surd_collapses_to_rational",
         "tests/test_exactnum.py::test_conjugate_product_is_rational"),
    ),
    Mutant(
        # a JSON int past Python's digit limit in the polytope file is then
        # blamed on the valuate step, with the message of the cell cap
        "load-json-leaves-the-digit-limit-to-the-caller", "cli.py",
        "    except (OSError, ValueError) as exc:",
        "    except OSError as exc:",
        ("tests/test_cli.py::TestValuate::test_an_int_past_the_digit_limit_exits_2[polytope]",),
    ),
    Mutant(
        # `1+0*sqrt(3)` in a Q(sqrt 2) file is then refused as outside the field
        "literal-keeps-the-field-of-a-rational", "exactnum.py",
        "    return a * bq, B, aq * bq, d if B else 0\n",
        "    return a * bq, B, aq * bq, d\n",
        ("tests/test_read_path.py::test_json_reads_as_the_scalar_route",),
    ),
    Mutant(
        # an empty or blank command then reaches subprocess, whose IndexError
        # ends fit in a traceback once every polytope is built
        "oracle-command-skips-the-empty-check", "cli.py",
        "        if argv := shlex.split(text):\n            return text, argv\n",
        "        return text, shlex.split(text)\n",
        ("tests/test_cli.py::test_an_oracle_command_with_no_program_exits_2[empty]",),
    ),
    Mutant(
        # the cut's values are equal, since its first use runs its own hull
        # pass; only a count of the passes sees the lost hand-over
        "clip-hands-over-no-record", "polytope.py",
        "    _fill_hull(Q, frame, items)\n    return Q\n",
        "    return Q\n",
        ("tests/test_golden.py::test_surd_union[2-40]",),
    ),
    Mutant(
        # the sign test's one rule then compares A^2 with B^2
        "surd-sign-drops-the-discriminant", "exactnum.py",
        "if A * A > d * B * B else (1 if B > 0 else -1)",
        "if A * A > B * B else (1 if B > 0 else -1)",
        ("tests/test_exactnum.py::test_sign_matches_the_isqrt_oracle[2]",),
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
