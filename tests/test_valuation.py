import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slval.polytope
import slval.valuation
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
    intersect,
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

from oracles import inclusion_exclusion, shoelace_area
from pulling import triangulate
from splits import SLAB_VALUATION, surd_slabs


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


@pytest.mark.parametrize("position", [0, 1, 3])
def test_linear_rejects_a_float_coefficient(position):
    """c0, c0p and d0 are coerced at the boundary, as cn and dn are."""
    coefficients = [0, 0, 0, 0, 0]
    coefficients[position] = 0.5
    with pytest.raises(TypeError):
        ClassifiedValuation.linear(*coefficients)


SIMPLEX_AT_ORIGIN = P((0, 0), (1, 0), (0, 1))
ORIGIN_IN_RELINT = P((-1, -1), (2, 0), (0, 2))
#: segment [e1, 2 e1] off 0: every basis value but euler_char is 0
FLAT_SEGMENT = P((1, 0), (2, 0))


@pytest.mark.parametrize("kind", [int, Fraction, Scalar])
def test_plain_coefficients_evaluate_as_scalars(kind):
    """A ClassifiedValuation built directly may carry int or Fraction
    coefficients; evaluate and evaluate_union read them as Scalars."""
    v = ClassifiedValuation(kind(1), kind(2), kind(3), Linear(4), Linear(5))
    # euler 1, relint 0, volume 1/2, origin 1, cone 1/2
    assert evaluate(v, SIMPLEX_AT_ORIGIN) == Scalar(Fraction(17, 2))
    halves = [P((0, 0), (1, 0), (1, 1)), P((0, 0), (1, 1), (0, 1))]
    assert evaluate_union(v, [SIMPLEX_AT_ORIGIN]) == Scalar(Fraction(17, 2))
    assert evaluate_union(v, halves) == evaluate(v, UNIT_SQUARE) == Scalar(1 + 4 + 3 + 5)
    # every term read: euler 1, relint 1, volume 4, origin 1, cone 4
    assert evaluate(v, ORIGIN_IN_RELINT) == Scalar(1 + 2 + 16 + 3 + 20)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_float_coefficient_is_refused_by_evaluate(position):
    """Also where the float's term is 0: relint_sign on the triangle and
    the origin indicator on the segment off 0."""
    coefficients = [1, 2, 3]
    coefficients[position] = 0.5
    v = ClassifiedValuation(*coefficients, Linear(4), Linear(5))
    for poly in (ORIGIN_IN_RELINT, SIMPLEX_AT_ORIGIN, FLAT_SEGMENT):
        with pytest.raises(TypeError):
            evaluate(v, poly)
        with pytest.raises(TypeError):
            evaluate_union(v, [poly])


@pytest.mark.parametrize("slots", [
    (1, 2, 3, 4, 5),
    (1, 2, 3, Linear(4), 5),
    (Linear(1), 2, 3, Linear(4), Linear(5)),
    (1, RationalPart(), 3, Linear(4), Linear(5)),
    (1, 2, Linear(3), Linear(4), Linear(5)),
    (1, 2, 3, "x", Linear(5)),
    (1, 2, 3, Linear(4), Scalar(5)),
], ids=["plain-psi-phi", "plain-phi", "plugin-c0", "plugin-c0p", "plugin-d0", "text-psi",
        "scalar-phi"])
def test_a_slot_of_the_wrong_kind_is_refused_on_every_polytope(slots):
    """psi and phi must be CauchySolutions and c0, c0p, d0 must not be;
    the slots are checked before any term is read, so the refusal does not
    hang on which basis values are zero."""
    v = ClassifiedValuation(*slots)
    for poly in (SIMPLEX_AT_ORIGIN, ORIGIN_IN_RELINT, FLAT_SEGMENT, Polytope.empty(2)):
        with pytest.raises(TypeError):
            evaluate(v, poly)
    for parts in ([SIMPLEX_AT_ORIGIN], [FLAT_SEGMENT, P((1, 0), (1, 1))], []):
        with pytest.raises(TypeError):
            evaluate_union(v, parts)


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


def test_evaluate_union_accepts_a_long_chain():
    """20 triangles, each meeting the next in one point: 39 nonempty terms,
    where the 2^20 - 1 index subsets were refused."""
    parts = [P((i, 0), (i + 1, 0), (i, 1)) for i in range(20)]
    assert evaluate_union(ClassifiedValuation.linear(0, 0, 1, 0, 0), parts) == Scalar(10)
    assert evaluate_union(ClassifiedValuation.linear(1, 0, 0, 0, 0), parts) == Scalar(1)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(slval.valuation, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slval.valuation, name, counted)
    return calls


def test_evaluate_union_rejects_too_many_parts(monkeypatch):
    """13 parts through one point have 2^13 - 1 = 8191 nonempty
    intersections; the cap stops the recursion before the 4096th is read."""
    calls = _counting(monkeypatch, "_basis")
    v = ClassifiedValuation.linear(1, 0, 0, 0, 0)
    parts = [P((0, 0), (i + 1, 0), (0, 1)) for i in range(13)]
    with pytest.raises(ValueError, match="4095"):
        evaluate_union(v, parts)
    assert len(calls) <= 4096


def test_evaluate_union_meets_only_nonempty_meets(monkeypatch):
    """Three consecutive slabs of a square: S1 & S3 is empty, so
    (S1 & S2) & S3 is never formed.  3 meets and 5 nonempty terms."""
    meets = _counting(monkeypatch, "intersect")
    reads = _counting(monkeypatch, "_basis")
    slabs = [P((i, 0), (i + 1, 0), (i, 3), (i + 1, 3)) for i in range(3)]
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    assert evaluate_union(v, slabs) == Scalar(77)
    assert (len(meets), len(reads)) == (3, 5)


def test_evaluate_union_cap_admits_exactly_its_count(monkeypatch):
    """The three slabs have 5 nonempty terms: a cap of 5 reads them all,
    a cap of 4 raises."""
    slabs = [P((i, 0), (i + 1, 0), (i, 3), (i + 1, 3)) for i in range(3)]
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    monkeypatch.setattr(slval.valuation, "MAX_UNION_TERMS", 5)
    assert evaluate_union(v, slabs) == Scalar(77)
    monkeypatch.setattr(slval.valuation, "MAX_UNION_TERMS", 4)
    with pytest.raises(ValueError, match="^more than 4 nonempty intersections$"):
        evaluate_union(v, slabs)


def test_evaluate_union_depth_does_not_grow_with_disjoint_parts(monkeypatch):
    """Pairwise disjoint parts nest no deeper for 30 parts than for 3:
    the recursion goes one level down per index set, not per part."""
    depths = []
    real = slval.valuation._basis

    def recorded(Q):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return real(Q)

    monkeypatch.setattr(slval.valuation, "_basis", recorded)
    v = ClassifiedValuation.linear(0, 0, 1, 0, 0)
    deepest = []
    for m in (3, 30):
        depths.clear()
        parts = [P((2 * i, 0), (2 * i + 1, 0), (2 * i, 1)) for i in range(m)]
        assert evaluate_union(v, parts) == Fraction(m, 2)
        assert len(depths) == m
        deepest.append(max(depths))
    assert deepest[0] == deepest[1]


def test_evaluate_union_of_crossing_segments():
    """[(0,0),(1,1)] and [(1,0),(0,1)] lie on different lines and meet in
    (1/2, 1/2).  By hand, as (euler, relint, volume, origin, cone): the
    first holds 0 at an end, (1, 0, 0, 1, 0); the second, off 0, cones it
    to the triangle conv(0, e1, e2), (1, 0, 0, 0, 1/2); the point is
    (1, 0, 0, 0, 0).  The union's basis sum is (1, 0, 0, 1, 1/2)."""
    crossing = [P((0, 0), (1, 1)), P((1, 0), (0, 1))]
    expected = (1, 0, 0, 1, Fraction(1, 2))
    for i, value in enumerate(expected):
        unit = ClassifiedValuation.linear(*(int(j == i) for j in range(5)))
        assert evaluate_union(unit, crossing) == value
    v = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    assert evaluate_union(v, crossing) == Fraction(15, 2)
    assert evaluate_union(v, crossing[::-1]) == Fraction(15, 2)


UNION_VALUATIONS = (
    ClassifiedValuation.linear(1, 2, 3, 4, 5),
    ClassifiedValuation(Scalar(1), Scalar(2), Scalar(4), RationalPart(), Linear(5)),
    ClassifiedValuation(Scalar(-1), Scalar(3), Scalar(1), Linear(Fraction(1, 2)), RationalPart()),
)


def union_family(seed, n, count, dense, d):
    """Seeded full-dimensional parts in R^n, with coordinates in Q(sqrt d) if
    d.  Dense parts all hold the cross-polytope conv(+-e_i), so every index
    subset meets.  Sparse part i is conv(3i e_1 +- 2 e_j) and one more point,
    which lies within 1/2 of that box, so only neighbours meet; the sparse
    parts come shuffled, so an empty meet does not make every meet with a
    later part empty."""
    rng = random.Random(seed)

    def coordinate(low, high):
        # x + b (sqrt d - 1), which is within 1/2 of x
        x, b = rng.randint(low, high), rng.randint(-1, 1) if d else 0
        return Scalar(x - b, b, d) if b else Scalar(x)

    parts = []
    for i in range(count):
        if dense:
            shift, radius, box = Vector.zero(n), 1, [(-3, 3)] * n
        else:
            shift, radius, box = Vector.basis(n, 0).scale(3 * i), 2, [(3 * i - 2, 3 * i + 2)]
            box += [(-2, 2)] * (n - 1)
        points = [Vector.basis(n, j).scale(s * radius) + shift for j in range(n) for s in (1, -1)]
        extra = 3 if dense else 1
        points += [Vector([coordinate(low, high) for low, high in box]) for _ in range(extra)]
        parts.append(from_points(points, n))
    if not dense:
        rng.shuffle(parts)
    return parts


@pytest.mark.parametrize("d", [0, 2])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_union_matches_all_subsets(n, dense, d):
    """The recursion against the plain 2^m inclusion-exclusion, which
    evaluates every index subset on its own."""
    count = (5 if n == 3 else 7) if dense else 10
    for seed in range(2):
        parts = union_family(seed, n, count, dense, d)
        # the oracle meets each subset from scratch; a memo keeps that cheap
        meet = lru_cache(maxsize=None)(intersect)
        for V in UNION_VALUATIONS:
            expected = inclusion_exclusion(parts, meet, lambda Q: evaluate(V, Q))
            assert evaluate_union(V, parts) == expected


def test_evaluate_union_builds_scalars_only_for_its_value(monkeypatch):
    """The slab unions over Q(sqrt 2) sum integer bases over a common
    denominator and build one Scalar per call, the value, however many
    terms they add: RationalPart's volume term is read on integers too.
    Summing Scalar basis vectors term by term built 45 to 48 per call on
    these slabs, and a RationalPart read through a Scalar 3."""
    made = []
    real = Scalar._make.__func__
    monkeypatch.setattr(Scalar, "_make", classmethod(lambda cls, *args: made.append(args)
                                                     or real(cls, *args)))
    for n in (2, 3):
        for seed in range(5):
            P, slabs = surd_slabs(n, seed)
            whole = evaluate(SLAB_VALUATION, P)
            made.clear()
            assert evaluate_union(SLAB_VALUATION, slabs) == whole
            assert len(made) == 1, (n, seed, len(made))


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
