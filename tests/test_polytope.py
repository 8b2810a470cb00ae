from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slval.exactnum import FieldMismatchError, Scalar
from slval.linalg import Matrix, Vector, random_sl_matrix
from slval.polytope import (
    EmptyPolytopeError,
    Halfspace,
    IncomparableHullsError,
    Polytope,
    clip,
    cone_hull,
    contains,
    dim,
    facets,
    from_json,
    from_points,
    in_affine_hull,
    intersect,
    relint_contains_origin,
    to_json,
    transform,
    translate,
    visible_facets,
)

from oracles import hull2d, in_hull2d


def P2(*pairs):
    return from_points([Vector(p) for p in pairs])


def V(*coords):
    return Vector(coords)


def test_from_points_drops_interior_point():
    p = P2((0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4)))
    assert p.vertices == (V(0, 0), V(0, 1), V(1, 0))


def test_from_points_dedups():
    p = P2((0, 0), (0, 0))
    assert p.vertices == (V(0, 0),)


def test_from_points_drops_collinear_midpoint():
    p = P2((0, 0), (2, 0), (1, 0))
    assert p.vertices == (V(0, 0), V(2, 0))


def test_from_points_idempotent():
    p = P2((0, 0), (3, 1), (1, 3), (2, 2), (0, 3))
    again = from_points(p.vertices)
    assert again == p


def test_empty_polytope():
    e = Polytope.empty(2)
    assert e.is_empty
    assert not contains(e, V(0, 0))
    with pytest.raises(EmptyPolytopeError):
        dim(e)


def test_dim_cases():
    assert dim(P2((0, 0))) == 0
    assert dim(P2((-1, 0), (1, 0))) == 1
    square3 = from_points([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)])
    assert dim(square3) == 2


def test_contains_segment():
    seg = P2((0, 0), (1, 0))
    assert contains(seg, V(Fraction(1, 2), 0))
    assert not contains(seg, V(2, 0))
    assert contains(P2((0, 0)), V(0, 0))


@pytest.mark.parametrize(
    "points",
    [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 1), (1, 0, 1), (0, 1, 1)]],
    ids=["full", "flat"],
)
def test_point_of_wrong_dimension_rejected(points):
    p = from_points([Vector(t) for t in points])
    for x in (V(0, 0), V(0, 0, 1, 0)):
        with pytest.raises(ValueError):
            in_affine_hull(p, x)
        with pytest.raises(ValueError):
            contains(p, x)


def test_relint_origin_cases():
    assert relint_contains_origin(P2((0, 0)))
    assert relint_contains_origin(P2((0, -1), (0, 1)))
    assert not relint_contains_origin(P2((0, 0), (1, 0)))
    assert not relint_contains_origin(P2((1, 0), (2, 0)))


def test_facets_of_segment():
    seg = P2((0, 0), (1, 0))
    fs = facets(seg)
    endpoints = sorted((f.vertices for _, f in fs), key=lambda vs: vs[0].sort_key())
    assert endpoints == [(V(0, 0),), (V(1, 0),)]


def test_facets_of_unit_square():
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    assert len(facets(sq)) == 4
    for halfspace, edge in facets(sq):
        assert len(edge.vertices) == 2
        assert all(halfspace.excess(v).sign() <= 0 for v in sq.vertices)
        assert all(halfspace.excess(v).is_zero() for v in edge.vertices)


def _matches(halfspace, normal, offset):
    # equality up to positive scaling
    u, c = halfspace.normal, halfspace.offset
    for i, x in enumerate(normal):
        if x != 0:
            factor = u[i] / Scalar(x)
            break
    else:
        return False
    if factor.sign() <= 0:
        return False
    return all(u[j] == factor * Scalar(normal[j]) for j in range(len(normal))) and (
        c == factor * Scalar(offset)
    )


def test_facet_inequalities_of_triangle():
    tri = P2((1, 0), (2, 0), (1, 1))
    halfspaces = [h for h, _ in facets(tri)]
    expected = [((0, -1), 0), ((-1, 0), -1), ((1, 1), 2)]
    for normal, offset in expected:
        assert any(_matches(h, normal, offset) for h in halfspaces)


def test_halfspace_rejects_a_float_offset():
    with pytest.raises(TypeError):
        Halfspace(V(1, 0), 0.5)


def test_clip_square_in_half():
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    left = clip(sq, Halfspace(V(1, 0), Fraction(1, 2)))
    assert left == P2((0, 0), (Fraction(1, 2), 0), (0, 1), (Fraction(1, 2), 1))


def test_clip_no_op_and_empty():
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    assert clip(sq, Halfspace(V(1, 0), 5)) is sq
    assert clip(sq, Halfspace(V(1, 0), -1)).is_empty


def test_clip_lower_dimensional():
    seg = P2((-1, 0), (1, 0))
    right = clip(seg, Halfspace(V(-1, 0), 0))
    assert right == P2((0, 0), (1, 0))


def test_straddling_clip_cuts_only_edges():
    # x + y + z = 3/2 also separates the ends of face and body diagonals,
    # whose crossings lie inside the hexagonal section
    cube = from_points([V(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    cut = clip(cube, Halfspace(V(1, 1, 1), Fraction(3, 2)))
    half = Fraction(1, 2)
    kept = [V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]
    section = [V(1, half, 0), V(1, 0, half), V(half, 1, 0),
               V(0, 1, half), V(half, 0, 1), V(0, half, 1)]
    assert len(cut.vertices) == 10
    assert cut == from_points(kept + section)


def test_cone_hull_cases():
    assert cone_hull(P2((1, 0), (0, 1))) == P2((0, 0), (1, 0), (0, 1))
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    assert cone_hull(sq) is sq
    assert cone_hull(P2((1, 0))) == P2((0, 0), (1, 0))


def test_visible_facets_of_triangle():
    tri = P2((1, 0), (2, 0), (1, 1))
    vis = visible_facets(tri)
    assert vis == (P2((1, 0), (1, 1)),)


def test_visible_facets_of_shifted_square():
    sq = P2((1, 1), (2, 1), (1, 2), (2, 2))
    vis = visible_facets(sq)
    assert set(vis) == {P2((1, 1), (1, 2)), P2((1, 1), (2, 1))}


def test_visible_facets_through_origin_edge_excluded():
    sq = P2((2, 0), (3, 0), (2, 1), (3, 1))
    vis = visible_facets(sq)
    assert vis == (P2((2, 0), (2, 1)),)


def test_visible_facets_errors():
    with pytest.raises(ValueError):
        visible_facets(P2((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        visible_facets(P2((1, 0), (2, 0)))


def test_intersect_overlapping_squares():
    a = P2((0, 0), (1, 0), (0, 1), (1, 1))
    b = P2((Fraction(1, 2), 0), (Fraction(3, 2), 0), (Fraction(1, 2), 1), (Fraction(3, 2), 1))
    assert intersect(a, b) == P2((Fraction(1, 2), 0), (1, 0), (Fraction(1, 2), 1), (1, 1))


def test_intersect_self_and_disjoint():
    a = P2((0, 0), (1, 0), (0, 1), (1, 1))
    assert intersect(a, a) == a
    far = P2((5, 5), (6, 5), (5, 6), (6, 6))
    assert intersect(a, far).is_empty


def test_intersect_segment_with_square():
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    seg = P2((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2)))
    assert intersect(sq, seg) == P2((Fraction(1, 2), Fraction(1, 2)), (1, 1))
    assert intersect(seg, sq) == intersect(sq, seg)


def test_intersect_incomparable_hulls():
    a = P2((0, 0), (1, 1))
    b = P2((1, 0), (0, 1))
    with pytest.raises(IncomparableHullsError):
        intersect(a, b)


def test_transform_by_shear():
    sq = P2((0, 0), (1, 0), (0, 1), (1, 1))
    shear = Matrix([[1, 1], [0, 1]])
    image = transform(shear, sq)
    assert image == P2((0, 0), (1, 0), (1, 1), (2, 1))
    with pytest.raises(ValueError):
        transform(Matrix([[1, 0], [2, 0]]), sq)


def test_json_round_trip():
    p = P2((0, 0), (1, 0), (Fraction(1, 2), Fraction(3, 2)))
    assert from_json(to_json(p)) == p
    obj = to_json(p)
    assert obj["field_d"] == 0
    assert obj["vertices"] == [["0", "0"], ["1/2", "3/2"], ["1", "0"]]


def test_json_with_surds():
    r2 = Scalar.sqrt_of(2)
    p = from_points([Vector([Scalar(0), Scalar(0)]), Vector([r2, Scalar(0)])])
    obj = to_json(p)
    assert obj["field_d"] == 2
    assert from_json(obj) == p


def test_mixed_fields_raise_field_mismatch():
    r2, r3 = Scalar.sqrt_of(2), Scalar.sqrt_of(3)
    with pytest.raises(FieldMismatchError):
        from_points([Vector([r2, Scalar(0)]), Vector([Scalar(0), r3])])


def test_json_rejects_bad_objects():
    with pytest.raises(ValueError):
        from_json({"ambient_dim": 2})
    with pytest.raises(ValueError):
        from_json({"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0+1*sqrt(2)"]]})


TRIANGLE_JSON = {"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0"], ["1", "0"], ["0", "5"]]}
SEGMENT_JSON = {"ambient_dim": 1, "field_d": 0, "vertices": [["0"], ["5"]]}


@pytest.mark.parametrize("obj, field, value", [
    (TRIANGLE_JSON, "ambient_dim", 2.7), (SEGMENT_JSON, "ambient_dim", True),
    (TRIANGLE_JSON, "ambient_dim", "2"), (TRIANGLE_JSON, "field_d", 2.9),
])
def test_json_accepts_only_integer_dimensions(obj, field, value):
    """A float, bool or string is never truncated into an ambient
    dimension or field, even where the truncated value would load."""
    with pytest.raises(ValueError, match="JSON integers"):
        from_json(dict(obj, **{field: value}))


coords_st = st.integers(min_value=-4, max_value=4)
points_st = st.lists(
    st.tuples(coords_st, coords_st), min_size=1, max_size=8
)


@given(points_st)
@settings(max_examples=50, deadline=None)
def test_vertices_match_plane_hull_oracle(raw):
    p = from_points([Vector(t) for t in raw])
    expected = {tuple(map(Fraction, t)) for t in hull2d(raw)}
    got = {(v[0].a, v[1].a) for v in p.vertices}
    assert got == expected


@given(points_st, st.tuples(coords_st, coords_st))
@settings(max_examples=50, deadline=None)
def test_contains_matches_plane_oracle(raw, query):
    p = from_points([Vector(t) for t in raw])
    expected = in_hull2d(raw, tuple(map(Fraction, query)))
    assert contains(p, Vector(query)) == expected


@given(points_st, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_dim_and_relint_are_sl_invariant(raw, seed):
    p = from_points([Vector(t) for t in raw])
    a = random_sl_matrix(seed, 2, 6)
    image = transform(a, p)
    assert dim(image) == dim(p)
    assert relint_contains_origin(image) == relint_contains_origin(p)


@st.composite
def nested_pairs(draw):
    """Two polytopes in R^3 or R^4 with nested affine hulls.

    R is full-dimensional and F one of its facets.  P is R, a translate of
    R, or a translate of F inside aff F; Q is F clipped by a random halfspace,
    or a facet of that clip, so it may be flat of any dimension, a point or
    empty.
    """
    n = draw(st.sampled_from([3, 4]))
    coord = st.integers(-3, 3)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4, unique=True))
    R = from_points([Vector(p) for p in raw])
    assume(dim(R) == n)
    F = draw(st.sampled_from([face for _, face in facets(R)]))
    kind = draw(st.sampled_from(["full", "shifted", "flat"]))
    if kind == "full":
        P = R
    elif kind == "shifted":
        shift = draw(st.tuples(*[st.sampled_from([0, Fraction(1, 2), -1])] * n))
        P = translate(R, Vector(shift))
    else:
        a, b = draw(st.permutations(F.vertices))[:2]
        P = translate(F, (a - b).scale(Fraction(1, 2)))
    normal = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    Q = clip(F, Halfspace(Vector(normal), draw(st.integers(-4, 4))))
    if not Q.is_empty and dim(Q) >= 1 and draw(st.booleans()):
        Q = draw(st.sampled_from([face for _, face in facets(Q)]))
    return P, Q


@given(nested_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_intersect_of_nested_hulls(pair):
    """Symmetric, canonical (a crossing off an edge is not extreme), inside
    both operands, and keeping every vertex of one that lies in the other."""
    P, Q = pair
    meet = intersect(P, Q)
    assert intersect(Q, P) == meet
    assert meet == from_points(meet.vertices, P.ambient_dim)
    assert all(contains(P, v) and contains(Q, v) for v in meet.vertices)
    for A, B in ((P, Q), (Q, P)):
        assert all(contains(meet, v) for v in A.vertices if contains(B, v))
