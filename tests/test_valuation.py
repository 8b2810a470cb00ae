from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slval.polytope
from slval.exactnum import Linear, RationalPart, Scalar
from slval.harness import FAMILIES, gen_polytope
from slval.linalg import Vector, random_sl_matrix
from slval.polytope import (
    Polytope,
    cone_hull,
    contains,
    dim,
    from_points,
    in_affine_hull,
    relint_contains_origin,
    transform,
)
from slval.triangulate import volume
from slval.valuation import (
    BASIS_NAMES,
    ClassifiedValuation,
    basis_vector,
    evaluate,
    evaluate_union,
    from_json,
    to_json,
)

from oracles import shoelace_area
from pulling import triangulate


def P(*tuples):
    return from_points([Vector(t) for t in tuples])


ORIGIN_PT = P((0, 0))
SEGMENT_Y = P((0, -1), (0, 1))
HALF_SEG = P((0, 0), (1, 0))
UNIT_SQUARE = P((0, 0), (1, 0), (0, 1), (1, 1))
TRIANGLE = P((1, 0), (2, 0), (1, 1))


def test_euler_char():
    assert basis_vector(ORIGIN_PT)[0] == Scalar(1)
    assert basis_vector(Polytope.empty(2))[0] == Scalar(0)
    assert basis_vector(UNIT_SQUARE)[0] == Scalar(1)


def test_relint_sign():
    assert basis_vector(ORIGIN_PT)[1] == Scalar(1)
    assert basis_vector(SEGMENT_Y)[1] == Scalar(-1)
    assert basis_vector(HALF_SEG)[1] == Scalar(0)
    assert basis_vector(Polytope.empty(2))[1] == Scalar(0)


def test_origin_indicator():
    assert basis_vector(HALF_SEG)[3] == Scalar(1)
    assert basis_vector(P((1, 0)))[3] == Scalar(0)
    assert basis_vector(Polytope.empty(2))[3] == Scalar(0)


def test_cone_volume_of_triangle():
    oracle = shoelace_area([(0, 0), (1, 0), (2, 0), (1, 1)])
    assert oracle == Fraction(1)
    assert basis_vector(TRIANGLE)[4] == Scalar(oracle)


def test_cone_volume_when_origin_inside():
    assert basis_vector(UNIT_SQUARE)[4] == volume(UNIT_SQUARE)


def test_cone_volume_of_far_segment():
    assert basis_vector(P((1, 0), (0, 1)))[4] == Scalar(Fraction(1, 2))
    assert basis_vector(Polytope.empty(2))[4] == Scalar(0)


def _no_hull(*args, **kwargs):
    raise AssertionError("basis_vector built a polytope from points")


@pytest.mark.parametrize("n", [3, 4])
def test_cone_volume_matches_hull_route(n, monkeypatch):
    # flat n-1 simplices: 0 off the affine hull, and 0 on it
    corners = [Vector.basis(n, i) for i in range(n)]
    off_hull = from_points(corners, n)
    through_origin = from_points([Vector.zero(n)] + corners[1:], n)
    polys = [off_hull, through_origin]
    for family in FAMILIES:
        for seed in range(8):
            polys.append(gen_polytope(seed, n, max_vertices=6, coord_bound=3, family=family))
    flat = {(dim(Q), in_affine_hull(Q, Vector.zero(n))) for Q in polys[2:] if dim(Q) < n}
    assert {(n - 1, False), (1, False), (0, False)} <= flat
    expected = [volume(cone_hull(Q)) for Q in polys]
    assert expected[0] == Scalar(Fraction(1, factorial(n)))
    # the production route must reuse P's own facets, never rebuild a hull
    monkeypatch.setattr(slval.polytope, "from_points", _no_hull)
    assert [basis_vector(Q)[4] for Q in polys] == expected


def test_evaluate_single_terms():
    only_c0 = ClassifiedValuation.linear(1, 0, 0, 0, 0)
    assert evaluate(only_c0, ORIGIN_PT) == Scalar(1)
    only_c0p = ClassifiedValuation.linear(0, 1, 0, 0, 0)
    assert evaluate(only_c0p, SEGMENT_Y) == Scalar(-1)
    only_vol = ClassifiedValuation.linear(0, 0, 1, 0, 0)
    assert evaluate(only_vol, TRIANGLE) == Scalar(Fraction(1, 2))
    assert evaluate(only_vol, TRIANGLE) == Scalar(shoelace_area([(1, 0), (2, 0), (1, 1)]))


def test_evaluate_empty_is_zero():
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    assert evaluate(v, Polytope.empty(2)) == Scalar(0)


def test_evaluate_combines_all_terms():
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    # square contains 0 as a vertex: euler 1, relint 0, volume 1, origin 1, cone 1
    assert evaluate(v, UNIT_SQUARE) == Scalar(1 + 0 + 3 + 4 + 5)


def test_reduction_when_origin_inside():
    # with 0 in P the cone term collapses onto the volume term
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    for poly in (UNIT_SQUARE, SEGMENT_Y, ORIGIN_PT, HALF_SEG):
        expected = (
            (v.c0 + v.d0) * basis_vector(poly)[0]
            + v.c0p * basis_vector(poly)[1]
            + Scalar(3) * volume(poly)
            + Scalar(5) * volume(poly)
        )
        assert evaluate(v, poly) == expected


def test_evaluate_union_single():
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    assert evaluate_union(v, [TRIANGLE]) == evaluate(v, TRIANGLE)


def _square_halves():
    return [s.as_polytope() for s in triangulate(UNIT_SQUARE)]


def test_evaluate_union_volume_over_diagonal():
    v = ClassifiedValuation.linear(0, 0, 1, 0, 0)
    assert evaluate_union(v, _square_halves()) == Scalar(1)


def test_evaluate_union_euler_over_diagonal():
    v = ClassifiedValuation.linear(1, 0, 0, 0, 0)
    assert evaluate_union(v, _square_halves()) == Scalar(1)


def test_evaluate_union_matches_evaluate_on_whole():
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    assert evaluate_union(v, _square_halves()) == evaluate(v, UNIT_SQUARE)


def test_evaluate_union_rejects_too_many_parts():
    v = ClassifiedValuation.linear(1, 0, 0, 0, 0)
    parts = [P((i, 0), (i + 1, 0), (i, 1)) for i in range(13)]
    with pytest.raises(ValueError):
        evaluate_union(v, parts)


def test_evaluate_union_reports_offending_tuple():
    v = ClassifiedValuation.linear(1, 0, 0, 0, 0)
    crossing = [P((0, 0), (1, 1)), P((1, 0), (0, 1))]
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        evaluate_union(v, crossing)


def test_rational_part_valuation_on_surd_box():
    r2 = Scalar.sqrt_of(2)
    v = ClassifiedValuation(
        c0=Scalar(0), c0p=Scalar(0), d0=Scalar(0), psi=RationalPart(), phi=Linear(0)
    )
    box = from_points(
        [
            Vector([Scalar(0), Scalar(0)]),
            Vector([r2, Scalar(0)]),
            Vector([Scalar(0), Scalar(1)]),
            Vector([r2, Scalar(1)]),
        ]
    )
    assert volume(box) == r2
    assert evaluate(v, box) == Scalar(0)
    assert evaluate(v, UNIT_SQUARE) == Scalar(1)


def test_json_round_trip():
    v = ClassifiedValuation(
        c0=Scalar(1),
        c0p=Scalar(Fraction(-1, 2)),
        d0=Scalar(3),
        psi=RationalPart(),
        phi=Linear(Scalar(2, 1, 5)),
    )
    assert from_json(to_json(v)) == v
    assert to_json(v)["psi"] == {"kind": "rational_part"}


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_json(
            {
                "c0": "0",
                "c0p": "0",
                "d0": "0",
                "psi": {"kind": "quadratic"},
                "phi": {"kind": "linear", "lambda": "1"},
            }
        )


coords_st = st.integers(min_value=-3, max_value=3)
points_st = st.lists(st.tuples(coords_st, coords_st), min_size=2, max_size=6)


@given(points_st)
@settings(max_examples=30, deadline=None)
def test_union_over_triangulation_is_additive(raw):
    p = from_points([Vector(t) for t in raw] + [Vector((0, 0))])
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    parts = [s.as_polytope() for s in triangulate(p)]
    assert evaluate_union(v, parts) == evaluate(v, p)


@st.composite
def spatial_points(draw):
    """Up to n + 3 integer points in R^3 or R^4; one draw in four lies on
    the hyperplane x_n = 1, which misses the origin."""
    n = draw(st.sampled_from([3, 4]))
    coord = st.integers(-2, 2)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=n + 3, unique=True))
    if draw(st.integers(0, 3)) == 0:
        raw = [t[:-1] + (1,) for t in raw]
    return n, raw


@given(spatial_points(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_basis_valuations_are_sl_invariant_in_space(case, seed):
    n, raw = case
    p = from_points([Vector(t) for t in raw])
    image = transform(random_sl_matrix(seed, n, 2 * n), p)
    for name, after, before in zip(BASIS_NAMES, basis_vector(image), basis_vector(p)):
        assert after == before, name


@given(spatial_points())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_basis_vector_matches_predicates_and_hull_route(case):
    # independent oracle: the membership predicates of polytope and the
    # volume of the hull rebuilt with the origin
    n, raw = case
    p = from_points([Vector(t) for t in raw])
    zero = Vector.zero(n)
    sign = Scalar(1) if dim(p) % 2 == 0 else Scalar(-1)
    expected = (
        Scalar(1),
        sign if relint_contains_origin(p) else Scalar(0),
        volume(p),
        Scalar(1) if contains(p, zero) else Scalar(0),
        volume(cone_hull(p)),
    )
    assert basis_vector(p) == expected
