import hashlib
import json
from fractions import Fraction

import pytest

import slval.harness
import slval.polytope
import slval.valuation
from slval.exactnum import Scalar
from slval.linalg import Matrix, Vector, det, random_sl_matrix
from slval.polytope import (
    Halfspace,
    Polytope,
    clip,
    cone_hull,
    contains,
    dim,
    facets,
    from_points,
    relint_contains_origin,
    to_json,
)
from slval.harness import (
    FAMILIES,
    SplitCase,
    _sub_seed,
    check_cone_decomposition,
    check_sl_invariance,
    check_valuation_identity,
    classify_split,
    fit_classification,
    gen_polytope,
    gen_split,
    probe_polytopes,
    run_suite,
    usc_sequences,
)
from slval.triangulate import volume
from slval.valuation import ClassifiedValuation, basis_vector, evaluate

from oracles import shoelace_area
from splits import is_classic, through_origin


def P(*tuples):
    return from_points([Vector(t) for t in tuples])


SQUARE_AROUND_0 = P((-2, -1), (2, -1), (-2, 1), (2, 1))


class TestGenPolytope:
    def test_deterministic(self):
        for family in FAMILIES:
            assert gen_polytope(5, 2, family=family) == gen_polytope(5, 2, family=family)
        assert gen_polytope(5, 2) != gen_polytope(6, 2)

    def test_family_contracts(self):
        for seed in range(12):
            zero2 = Vector.zero(2)
            assert contains(gen_polytope(seed, 2, family="contains_origin"), zero2)
            assert relint_contains_origin(gen_polytope(seed, 2, family="origin_in_relint"))
            assert not contains(gen_polytope(seed, 2, family="avoids_origin"), zero2)
            assert dim(gen_polytope(seed, 2, family="lower_dim")) < 2
            assert dim(gen_polytope(seed, 3, family="generic")) == 3

    def test_vertex_budget(self):
        """max_vertices 1 and 12 and coord_bound 1 are drawn, both edges
        included; max_vertices 0 and 13, coord_bound 0 and an unknown
        family are refused."""
        poly = gen_polytope(3, 2, max_vertices=5)
        assert len(poly.vertices) <= 5
        assert len(gen_polytope(0, 2, max_vertices=1, family="lower_dim").vertices) == 1
        assert len(gen_polytope(0, 2, max_vertices=12).vertices) <= 12
        assert dim(gen_polytope(0, 2, coord_bound=1)) == 2
        for bad, message in (({"max_vertices": 0}, "max_vertices"), ({"max_vertices": 13}, "max_vertices"),
                             ({"coord_bound": 0}, "coord_bound"), ({"family": "weird"}, "family")):
            with pytest.raises(ValueError, match=message):
                gen_polytope(0, 2, **bad)

    def test_sub_seeds_of_the_suite_families_never_collide(self):
        """The suite's families sit 100 tags apart, and case 100 on moves
        to tag * 1000 + case: the first 150 cases of tags 100 to 800 draw
        1,200 distinct sub-seeds."""
        seeds = {_sub_seed(0, tag, case) for tag in range(100, 900, 100) for case in range(150)}
        assert len(seeds) == 8 * 150


class TestGenSplit:
    def test_deterministic(self):
        a = gen_split(7, SQUARE_AROUND_0)
        b = gen_split(7, SQUARE_AROUND_0)
        assert a == b

    def test_rejects_points(self):
        with pytest.raises(ValueError):
            gen_split(0, P((0, 0)))

    def test_cover_certificate(self):
        # offsets of the opposite halfspaces never leave a gap
        for seed in range(40):
            case = gen_split(seed, SQUARE_AROUND_0)
            assert (case.hyperplane.offset + case.opposite.offset).sign() >= 0
            assert case.left == clip(case.whole, case.hyperplane)
            assert case.right == clip(case.whole, case.opposite)
            assert not case.left.is_empty and not case.right.is_empty
            assert dim(case.left) == dim(case.whole) == dim(case.right)

    def test_volume_never_double_counted(self):
        for seed in range(30):
            case = gen_split(seed, SQUARE_AROUND_0)
            assert volume(case.left) + volume(case.right) == volume(case.whole) + volume(
                case.meet
            )

    def test_degenerate_residues_pass_through_origin(self):
        for seed in (0, 20, 40, 61, 82, 3):
            if seed % 20 < 5:
                case = gen_split(seed, SQUARE_AROUND_0)
                assert through_origin(case)
                assert is_classic(case)

    def test_segment_split_through_origin(self):
        seg = P((-1, 0), (1, 0))
        case = gen_split(0, seg)
        assert through_origin(case)
        assert case.meet == P((0, 0))
        assert {case.left, case.right} == {P((-1, 0), (0, 0)), P((0, 0), (1, 0))}

    def test_all_five_labels_reachable(self):
        # a polytope with the origin deep inside can never produce
        # origin-in-neither, so sweep a shifted copy as well
        shifted = P((1, 1), (3, 1), (1, 2), (3, 2))
        labels = set()
        for seed in range(60):
            labels.add(classify_split(gen_split(seed, SQUARE_AROUND_0)))
            labels.add(classify_split(gen_split(seed, shifted)))
        assert labels == {
            "inclusion",
            "origin-in-both",
            "origin-in-one",
            "origin-in-neither",
            "dimension-drop",
        }

    def test_dimension_drop_label_is_honest(self):
        seg = P((-1, 0), (1, 0))
        case = gen_split(0, seg)
        assert classify_split(case) == "dimension-drop"
        assert dim(case.whole) == dim(case.meet) + 1

    def test_split_grid_digest(self):
        """Seeds 0-39, two of each residue, on every family at n = 1..4 and
        on three polytopes that force the fallbacks or carry surds: a segment
        from 0 that no line through 0 cuts, a square that avoids 0 and a
        triangle over Q(sqrt 2).  The digest of the four polytopes and both
        halfspaces was recorded when each mode drew and tested its normals
        in its own loop, so it pins every rng draw and offset."""
        root2 = Scalar.sqrt_of(2)
        polys = [gen_polytope(n, n, family=f) for n in range(1, 5) for f in FAMILIES] + [
            P((0, 0), (1, 2)),
            P((1, 1), (3, 1), (1, 2), (3, 2)),
            from_points([Vector((-1, 0)), Vector((root2, 0)), Vector((0, 1 + root2))]),
        ]
        digest = hashlib.sha256()
        for R in polys:
            if dim(R) < 1:
                continue
            for seed in range(40):
                case = gen_split(seed, R)
                four = [to_json(Q) for Q in (case.whole, case.left, case.right, case.meet)]
                halves = [repr(case.hyperplane), repr(case.opposite)]
                digest.update(json.dumps(four + halves).encode())
        assert digest.hexdigest() == (
            "b26083ad239a188b4d44966646f156334b397d71f4fab9e1c6e2aa85a6e6c807")


class TestIdentityCheck:
    def test_relint_sign_on_degenerate_segment_split(self):
        case = gen_split(0, P((-1, 0), (1, 0)))
        assert check_valuation_identity(lambda Q: basis_vector(Q)[1], case) is True
        # the four values realize 0 + 0 = -1 + 1
        assert basis_vector(case.left)[1] == Scalar(0)
        assert basis_vector(case.whole)[1] == Scalar(-1)
        assert basis_vector(case.meet)[1] == Scalar(1)

    def test_volume_on_half_square(self):
        sq = P((0, 0), (1, 0), (0, 1), (1, 1))
        h = Halfspace(Vector((1, 0)), Fraction(1, 2))
        g = Halfspace(-h.normal, -h.offset)
        case = SplitCase(whole=sq, left=clip(sq, h), right=clip(sq, g),
                         meet=clip(clip(sq, h), g), hyperplane=h, opposite=g)
        assert check_valuation_identity(volume, case) is True

    def test_broken_functional_yields_witness(self):
        sq = P((0, 0), (1, 0), (0, 1), (1, 1))
        h = Halfspace(Vector((1, 0)), Fraction(1, 2))
        g = Halfspace(-h.normal, -h.offset)
        case = SplitCase(whole=sq, left=clip(sq, h), right=clip(sq, g),
                         meet=clip(clip(sq, h), g), hyperplane=h, opposite=g)
        witness = check_valuation_identity(lambda p: Scalar(dim(p)), case)
        assert witness is not True
        assert witness["left"] + witness["right"] != witness["whole"] + witness["meet"]

    def test_witness_holds_the_values_compared(self):
        """val is called once per polytope, and the witness holds the answers
        of those four calls, even from a functional that answers each call
        differently."""
        calls = []

        def drifting(Q):
            calls.append(Q)
            return Scalar(len(calls))

        case = gen_split(0, SQUARE_AROUND_0)
        witness = check_valuation_identity(drifting, case)
        assert calls == [case.left, case.right, case.whole, case.meet]
        assert witness == {"left": Scalar(1), "right": Scalar(2),
                           "whole": Scalar(3), "meet": Scalar(4)}


class TestSlInvariance:
    def test_basis_valuations_invariant(self):
        for seed in range(10):
            poly = gen_polytope(seed, 2, family="generic")
            a = random_sl_matrix(seed, 2, 8)
            assert check_sl_invariance(volume, poly, a) is True
            assert check_sl_invariance(lambda Q: basis_vector(Q)[1], poly, a) is True

    def test_a_valuation_that_is_not_invariant_gets_its_witness(self):
        """The Euler characteristic of P and {x_1 >= 0} is a valuation but
        not SL-invariant: the shear (x_1, x_2) -> (x_1 + 3 x_2, x_2) moves
        the triangle's top vertex (-1, 1) across x_1 = 0, to (2, 1)."""
        right = Halfspace(Vector([-1, 0]), 0)
        triangle = P((-2, 0), (-1, 0), (-1, 1))
        witness = check_sl_invariance(lambda Q: basis_vector(clip(Q, right))[0], triangle,
                                      Matrix([[1, 3], [0, 1]]))
        assert witness == {"original": Scalar(0), "transformed": Scalar(1)}

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            check_sl_invariance(volume, SQUARE_AROUND_0, Matrix([[2, 0], [0, 1]]))


def probe_matrix(n):
    return Matrix([basis_vector(P) for P in probe_polytopes(n)])


def values_of(val):
    return lambda polys: [val(P) for P in polys]


class TestFit:
    def test_probe_matrix_n2_values(self):
        rows = probe_matrix(2).rows
        expected = [
            [1, 1, 0, 1, 0],
            [1, 0, 0, 0, 0],
            [1, -1, 0, 1, 0],
            [1, 0, Fraction(1, 2), 1, Fraction(1, 2)],
            [1, 0, Fraction(1, 2), 0, 1],
        ]
        assert [[c.a for c in row] for row in rows] == expected

    def test_probe_cone_volume_against_area_oracle(self):
        p5 = probe_polytopes(2)[4]
        pts = [(v[0].a, v[1].a) for v in cone_hull(p5).vertices]
        assert shoelace_area(pts) == Fraction(1)

    def test_probe_matrix_invertible(self):
        for n in (2, 3):
            assert det(probe_matrix(n)) != Scalar(0)

    def test_round_trip_simple(self):
        blackbox = ClassifiedValuation.linear(2, 0, 3, 0, 0)
        report = fit_classification(values_of(lambda p: evaluate(blackbox, p)), 2, validation_count=30)
        assert report.coefficients == tuple(Scalar(c) for c in (2, 0, 3, 0, 0))
        assert report.residual_max == Scalar(0)

    def test_round_trip_full(self):
        blackbox = ClassifiedValuation.linear(1, 2, 3, 4, 5)
        report = fit_classification(values_of(lambda p: evaluate(blackbox, p)), 2, validation_count=30)
        assert report.coefficients == tuple(Scalar(c) for c in (1, 2, 3, 4, 5))
        assert report.residual_max == Scalar(0)

    def test_residual_detects_non_valuation(self):
        report = fit_classification(values_of(lambda p: Scalar(dim(p))), 2, validation_count=30)
        assert report.residual_max != Scalar(0)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_fit_refuses_n_below_2_before_building_a_polytope(self, monkeypatch, n):
        """SL(1) is trivial, and at n = 1 the probes' basis rows are
        dependent: the fit names n >= 2 and runs no hull pass."""
        passes = []
        monkeypatch.setattr(slval.polytope, "_supporting", lambda *args: passes.append(args))
        with pytest.raises(ValueError, match="n >= 2"):
            fit_classification(values_of(lambda p: Scalar(0)), n)
        assert passes == []


class TestConeDecomposition:
    def test_triangle_worked_example(self):
        tri = P((1, 0), (2, 0), (1, 1))
        assert shoelace_area([(0, 0), (1, 0), (2, 0), (1, 1)]) == Fraction(1)
        assert volume(cone_hull(tri)) == Scalar(1)
        assert check_cone_decomposition(tri) is True

    def test_square_worked_example(self):
        sq = P((1, 1), (2, 1), (1, 2), (2, 2))
        assert shoelace_area([(0, 0), (2, 1), (1, 2), (2, 2)]) == Fraction(2)
        assert volume(cone_hull(sq)) == Scalar(2)
        assert check_cone_decomposition(sq) is True

    def test_origin_inside_rejected(self):
        with pytest.raises(ValueError):
            check_cone_decomposition(P((0, 0), (1, 0), (0, 1)))

    def test_flat_branch(self):
        seg = P((1, 0), (0, 1))
        assert check_cone_decomposition(seg) is True

    def test_flat_branch_can_fail(self, monkeypatch):
        # a hull route that forgets the origin must be caught, not excused
        seg = P((1, 0), (0, 1))
        monkeypatch.setattr("slval.harness.cone_hull", lambda Q: Q)
        outcome = check_cone_decomposition(seg)
        assert outcome == {"hull_volume": Scalar(0), "cone_volume": Scalar(Fraction(1, 2))}

    def test_full_branch_can_fail_on_the_hull_route(self, monkeypatch):
        # a hull route that forgets the origin gives vol(P) on both oracle
        # routes, and the cone term must disagree with them
        sq = P((1, 1), (2, 1), (1, 2), (2, 2))
        monkeypatch.setattr("slval.harness.cone_hull", lambda Q: Q)
        outcome = check_cone_decomposition(sq)
        assert outcome == {"hull_volume": Scalar(1), "decomposed": Scalar(1), "cone_volume": Scalar(2)}

    def test_full_branch_can_fail_on_the_decomposed_route(self, monkeypatch):
        # a decomposition that misses one visible facet must be caught
        sq = P((1, 1), (2, 1), (1, 2), (2, 2))

        def one_visible_facet_fewer(Q):
            found = list(facets(Q))
            found.remove(next(item for item in found if item[0].offset < 0))
            return tuple(found)

        monkeypatch.setattr("slval.harness.facets", one_visible_facet_fewer)
        outcome = check_cone_decomposition(sq)
        assert set(outcome) == {"hull_volume", "decomposed", "cone_volume"}
        assert outcome["decomposed"] == Scalar(Fraction(3, 2))
        assert outcome["hull_volume"] == outcome["cone_volume"] == Scalar(2)

    @pytest.mark.parametrize("n, seed", [(2, 3), (3, 1), (4, 2)])
    def test_one_hull_pass_per_cone(self, monkeypatch, n, seed):
        """On a P whose record is filled, the check runs one hull pass for
        cone_hull(P) and one for each of the v visible facets' cones, and
        none to place the origin in a facet."""
        Q = gen_polytope(seed, n, family="avoids_origin")
        assert dim(Q) == n
        v = sum(h.offset < 0 for h, _ in facets(Q))
        assert 0 < v < len(facets(Q))
        passes = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting",
                            lambda *args: passes.append(args) or real(*args))
        assert check_cone_decomposition(Q) is True
        assert len(passes) == 1 + v

    def test_oracle_reads_no_origin_sign(self, monkeypatch):
        """Neither oracle route reads the origin signs that basis_vector's
        cone term reads through its own binding in slval.valuation."""
        def refuse(Q):
            raise AssertionError("the oracle read the origin signs")

        monkeypatch.setattr(slval.polytope, "_origin_signs", refuse)
        for Q in (P((1, 1), (2, 1), (1, 2), (2, 2)), P((1, 0), (0, 1)),
                  gen_polytope(1, 3, family="avoids_origin")):
            assert check_cone_decomposition(Q) is True

    def test_flat_branch_needs_origin_off_hull(self):
        with pytest.raises(ValueError):
            check_cone_decomposition(P((1, 0), (2, 0)))  # aff contains 0


class TestUscSequences:
    @staticmethod
    def report(c0p, d0, steps=4):
        (report,) = usc_sequences([(Scalar(c0p), Scalar(d0))], steps)
        return report

    def test_nonzero_c0p_violates(self):
        report = self.report(1, 0)
        assert report["scales"] == tuple(Scalar(Fraction(1, 2**k)) for k in range(4))
        assert [v == Scalar(-1) for v in report["sequence1"]["values"]] == [True] * 4
        assert report["sequence1"]["limit_value"] == Scalar(1)
        assert not report["sequence1"]["violation"]
        assert [v == Scalar(1) for v in report["sequence2"]["values"]] == [True] * 4
        assert report["sequence2"]["limit_value"] == Scalar(-1)
        assert report["sequence2"]["violation"]
        assert report["violation"]

    def test_negative_c0p_violates_on_first_sequence(self):
        report = self.report(-1, 0)
        assert report["sequence1"]["violation"]
        assert not report["sequence2"]["violation"]

    def test_origin_indicator_alone_is_fine(self):
        report = self.report(0, 1)
        assert not report["violation"]
        assert report["sequence1"]["values"] == [Scalar(1)] * 4

    def test_zero_functional(self):
        assert not self.report(0, 0)["violation"]

    def test_one_report_per_pair_from_one_build(self, monkeypatch):
        """The ten polytopes of four steps are built once and read for
        every pair, in the order given."""
        pairs = ((1, 0), (0, 1), (-1, 0), (0, 0))
        passes = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting",
                            lambda *args: passes.append(args) or real(*args))
        reports = usc_sequences([(Scalar(c0p), Scalar(d0)) for c0p, d0 in pairs], 4)
        assert len(passes) == 10
        assert reports == [self.report(c0p, d0) for c0p, d0 in pairs]

    def test_one_basis_read_per_polytope(self, monkeypatch):
        """Two pairs at four steps read the integer basis of each of the ten
        polytopes once."""
        reads = []
        real = slval.harness._basis
        counted = lambda Q: reads.append(Q) or real(Q)
        monkeypatch.setattr(slval.harness, "_basis", counted)
        monkeypatch.setattr(slval.valuation, "_basis", counted)
        usc_sequences([(Scalar(1), Scalar(0)), (Scalar(0), Scalar(1))], 4)
        assert len(reads) == 10

    def test_step_count_below_one_is_a_value_error(self):
        for steps in (0, -1):
            with pytest.raises(ValueError):
                usc_sequences([(Scalar(1), Scalar(0))], steps)

    def test_float_step_count_is_a_type_error(self):
        with pytest.raises(TypeError):
            usc_sequences([(Scalar(1), Scalar(1))], 2.0)


class TestSuite:
    def test_default_suite_passes(self):
        lines = list(run_suite(2, seed=1, cases=8))
        assert lines and all(line["pass"] for line in lines)

    def test_semicontinuity_lines_build_the_sequences_once(self, monkeypatch):
        """Between the fit line and the last semicontinuity line the suite
        runs one hull pass per sequence polytope: four segments, four
        rhombi and two limits, read for both functionals."""
        passes = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting",
                            lambda *args: passes.append(args) or real(*args))
        at = {}
        for line in run_suite(2, seed=0, cases=1):
            at[line["check"]] = len(passes)
        assert at["usc_origin_indicator"] - at["fit_roundtrip"] == 10

    @pytest.mark.parametrize("n, total", [(2, 57), (3, 58), (4, 57)])
    def test_hull_pass_budget(self, monkeypatch, n, total):
        """The fit line runs four hull passes, one per probe but the
        translated simplex, which is handed its record, and the whole
        5-case suite at seed 1 runs the recorded number."""
        passes = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting",
                            lambda *args: passes.append(args) or real(*args))
        at = {}
        for line in run_suite(n, seed=1, cases=5):
            at[line["check"]] = len(passes)
        assert at["fit_roundtrip"] - at["cone_decomposition"] == 4
        assert len(passes) == total

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_surd_simplex_is_built_by_its_own_line(self, monkeypatch, n):
        """The first sl_invariance_rational_part line follows two hull
        passes, its simplex's and that simplex's image's, not six: the five
        simplices are drawn one per line, as every other check family draws
        its case."""
        passes = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting",
                            lambda *args: passes.append(args) or real(*args))
        first, last = {}, {}
        for line in run_suite(n, seed=1, cases=5):
            first.setdefault(line["check"], len(passes))
            last[line["check"]] = len(passes)
        assert first["sl_invariance_rational_part"] - last["sl_invariance"] == 2

    def test_fit_line_fails_on_a_shifted_probe_value(self, monkeypatch):
        """One probe value raised by 1, on the point {e1}, gives other
        coefficients, which fail the fit line on their own; the witness
        holds them and the five probe values they were solved from."""
        point = from_points([(1, 0)], 2)
        real = slval.harness.evaluate
        monkeypatch.setattr(slval.harness, "evaluate",
                            lambda V, Q: real(V, Q) + (1 if Q == point else 0))
        (line,) = [line for line in run_suite(2, seed=0, cases=1) if line["check"] == "fit_roundtrip"]
        assert not line["pass"]
        assert line["witness"] == {"coefficients": ["2", "2", "5", "3", "3"],
                                   "probe_values": ["7", "2", "3", "9", "15/2"]}

    def test_identity_line_names_the_broken_column(self, monkeypatch):
        """A volume entry raised by dim Q breaks the identity on case 0, a
        classic split whose meet has one dimension less than the other three
        polytopes; the witness names the volume column alone, with the four
        values compared."""
        reads = []

        def raised(Q):
            b = basis_vector(Q)
            reads.append(b[:2] + (b[2] + Scalar(dim(Q)),) + b[3:])
            return reads[-1]

        monkeypatch.setattr(slval.harness, "basis_vector", raised)
        line = next(run_suite(2, seed=0, cases=1))
        assert line["check"] == "valuation_identity"
        assert not line["pass"]
        left, right, whole, meet = (str(b[2]) for b in reads)
        assert line["witness"] == {
            "volume": {"left": left, "right": right, "whole": whole, "meet": meet}}

    def test_no_two_cases_draw_one_polytope(self, monkeypatch):
        """Every polytope a 300-case suite draws has its own (seed,
        family): from case 100 on, each check family seeds on a range of
        its own, where identity case 201 and sl case 1 once drew one
        polytope."""
        drawn = []
        real = slval.harness.gen_polytope

        def recording(seed, n, *args, family="generic", **kwargs):
            drawn.append((seed, family))
            return real(seed, n, *args, family=family, **kwargs)

        monkeypatch.setattr(slval.harness, "gen_polytope", recording)
        assert all(line["pass"] for line in run_suite(2, seed=0, cases=300))
        assert len(drawn) == 3 * 300
        assert len(set(drawn)) == len(drawn)

    def test_suite_is_deterministic(self):
        a = list(run_suite(2, seed=3, cases=6))
        b = list(run_suite(2, seed=3, cases=6))
        assert a == b

    def test_broken_plugin_reports_witness(self):
        lines = list(run_suite(2, seed=1, cases=4, include_broken=True))
        broken = [line for line in lines if line["check"] == "broken_plugin"]
        assert len(broken) == 1
        assert not broken[0]["pass"]
        assert "witness" in broken[0]
