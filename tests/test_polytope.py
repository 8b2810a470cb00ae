import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slval.polytope
from slval import exactnum
from slval.exactnum import FieldMismatchError, Scalar
from slval.harness import FAMILIES, gen_polytope
from slval.linalg import Matrix, Vector, random_sl_matrix
from slval.polytope import (
    EmptyPolytopeError,
    Halfspace,
    Polytope,
    clip,
    cone_hull,
    contains,
    dim,
    facets,
    field_discriminant,
    from_json,
    from_points,
    in_affine_hull,
    intersect,
    relint_contains_origin,
    to_json,
    transform,
    translate,
)
from slval.triangulate import volume
from slval.valuation import basis_vector

from oracles import hull2d, in_hull2d, reference_intersect
from pulling import apex_volume
from records import bare, scalar_facet_data, visible_facets


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


def test_there_is_no_public_constructor():
    """A polytope comes from a hull pass, a hand-over or `Polytope._of`
    only, so it stores exactly its extreme points: the class takes no
    arguments, where a constructor that trusted its points kept all five of
    these and was unequal to the triangle from_points makes of them."""
    points = [V(0, 0), V(2, 0), V(0, 2), V(1, 1), V(1, 0)]
    with pytest.raises(TypeError):
        Polytope(2, points)
    assert from_points(points).vertices == (V(0, 0), V(0, 2), V(2, 0))
    with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
        Polytope.empty(0)


def test_empty_polytope():
    e = Polytope.empty(2)
    assert e.is_empty
    assert not contains(e, V(0, 0))
    assert translate(e, V(1, 2)) is e
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
    [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 1), (1, 0, 1), (0, 1, 1)], []],
    ids=["full", "flat", "empty"],
)
def test_point_of_wrong_dimension_rejected(points):
    """Checked before the empty shortcut, as clip checks its halfspace."""
    p = from_points([Vector(t) for t in points], 3)
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
        excess = lambda v: halfspace.normal.dot(v) - halfspace.offset
        assert all(excess(v).sign() <= 0 for v in sq.vertices)
        assert all(excess(v).is_zero() for v in edge.vertices)


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


def test_clip_rejects_a_halfspace_of_another_dimension():
    """Checked before the empty shortcut, as translate checks its vector."""
    H = Halfspace(V(1, 0, 0), 1)
    for P in (Polytope.empty(2), P2((0, 0), (1, 0), (0, 1))):
        with pytest.raises(ValueError, match="dimension"):
            clip(P, H)


SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("call, message", [
    (lambda: Halfspace(V(0, 0), 1), "halfspace normal must be nonzero"),
    (lambda: from_points([]), "empty point set needs an explicit ambient_dim"),
    (lambda: intersect(P2(*SQUARE), from_points([V(0, 0, 0)])), "ambient dimensions differ"),
    (lambda: transform(Matrix([[1, 0, 0], [0, 1, 0]]), P2(*SQUARE)), "needs a square matrix"),
    (lambda: translate(P2(*SQUARE), V(1, 0, 0)), "translation dimension"),
    (lambda: translate(Polytope.empty(2), V(1, 0, 0)), "translation dimension"),
], ids=["zero-normal", "no-points", "intersect", "transform", "translate", "translate-empty"])
def test_an_argument_of_the_wrong_shape_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_transform_rejects_a_matrix_of_another_dimension():
    A = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for P in (Polytope.empty(2), P2((0, 0), (1, 0), (0, 1))):
        with pytest.raises(ValueError, match="n x n"):
            transform(A, P)


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
    assert cone_hull(sq) == sq
    assert cone_hull(P2((1, 0))) == P2((0, 0), (1, 0))
    # 0 a vertex, on an edge and inside: one pass on P's rows and one zero
    # row keeps exactly P's vertices
    for P in (P2((0, 0), (1, 0), (0, 1)), P2((-1, 0), (1, 0), (0, 1)),
              P2((-1, -1), (1, -1), (0, 1))):
        hull = cone_hull(P)
        assert hull == P and hull.vertices == P.vertices
        assert scalar_facet_data(hull) == scalar_facet_data(P)


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


def test_intersect_crossing_segments_in_the_plane():
    """Neither line contains the other segment: the diagonals of the unit
    square meet in its centre, and the segment on x + y = 3 misses the
    first diagonal, whose line it crosses at (3/2, 3/2)."""
    a = P2((0, 0), (1, 1))
    b = P2((1, 0), (0, 1))
    centre = P2((Fraction(1, 2), Fraction(1, 2)))
    assert intersect(a, b) == centre and intersect(b, a) == centre
    far = P2((3, 0), (2, 1))
    assert intersect(a, far).is_empty and intersect(far, a).is_empty


def test_intersect_crossing_triangles_in_space():
    """conv(0, 2e1, 2e2) lies in z = 0 and conv(-e3, e3, (1, 1, 1)) in
    x = y, so neither plane contains the other triangle.  On x = y the
    first is the segment from 0 to (1, 1, 0); on z = 0 the second is the
    segment from 0 to (1/2, 1/2, 0), which its edge from -e3 to (1, 1, 1)
    ends.  The meet is the shorter one."""
    a = from_points([V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)])
    b = from_points([V(0, 0, -1), V(0, 0, 1), V(1, 1, 1)])
    half = Fraction(1, 2)
    expected = from_points([V(0, 0, 0), V(half, half, 0)])
    assert intersect(a, b) == expected and intersect(b, a) == expected


def vertex_set(P):
    return {tuple(x.a for x in v) for v in P.vertices}


def test_intersect_matches_the_reference_on_crossing_pieces():
    """The crossing segments and triangles above, against the meet of the
    two H-representations in Fractions."""
    pairs = [
        ([(0, 0), (1, 1)], [(1, 0), (0, 1)]),
        ([(0, 0), (1, 1)], [(3, 0), (2, 1)]),
        ([(0, 0, 0), (2, 0, 0), (0, 2, 0)], [(0, 0, -1), (0, 0, 1), (1, 1, 1)]),
    ]
    met = []
    for p, q in pairs:
        expected = reference_intersect(p, q)
        for a, b in ((p, q), (q, p)):
            meet = intersect(from_points(map(Vector, a)), from_points(map(Vector, b)))
            assert vertex_set(meet) == expected
        met.append(len(expected))
    assert met == [1, 0, 2]


@pytest.mark.parametrize("n", [2, 3])
def test_intersect_matches_the_reference_on_seeded_pairs(n):
    """Hulls of 1 to n + 2 points of the half-integer grid on [-1, 1]^n,
    so that both are often flat and their affine hulls often cross; the
    meets take every dimension."""
    rng = random.Random(800 + n)
    meets = []
    for _ in range(40):
        p, q = ([tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(n))
                 for _ in range(rng.randint(1, n + 2))] for _ in range(2))
        meet = intersect(from_points(map(Vector, p)), from_points(map(Vector, q)))
        assert vertex_set(meet) == reference_intersect(p, q)
        meets.append(dim(meet) if not meet.is_empty else -1)
    assert set(meets) == set(range(-1, n + 1))


@st.composite
def low_dimensional_pairs(draw):
    """Two hulls of 1 to n + 1 integer points in [-2, 2]^n, n = 2 or 3, so
    that both are often flat and their affine hulls often cross."""
    n = draw(st.sampled_from([2, 3]))
    coord = st.integers(-2, 2)
    parts = [draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=n + 1, unique=True))
             for _ in range(2)]
    return n, [from_points([Vector(p) for p in part]) for part in parts]


@given(low_dimensional_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_intersect_is_membership_in_both(case):
    """A grid point with coordinates in (1/2) Z lies in the intersection
    iff it lies in both operands, whatever their affine hulls."""
    n, (a, b) = case
    meet = intersect(a, b)
    assert meet == intersect(b, a)
    step = [Fraction(i, 2) for i in range(-4, 5)]
    for x in product(step, repeat=n):
        x = Vector(x)
        assert contains(meet, x) == (contains(a, x) and contains(b, x))


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


ROOT2 = Scalar.sqrt_of(2)


@st.composite
def built_polytopes(draw):
    """Polytopes in R^2 or R^3 from every constructor: from_points over Q or
    Q(sqrt 2); a chain of 20 clips by halfspaces over Q(sqrt 2), each at a
    vertex of the last nonempty result, through it or missing it, so that
    some leave faces, some nothing and some all, with denominators that
    compound along the chain; then that result's facets, a translate, an SL
    image and the meet of the first and the last clip."""
    n = draw(st.sampled_from([2, 3]))
    surd = draw(st.booleans())
    raw = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=n + 4,
                        unique=True))
    P = from_points([Vector(Scalar(x) + (ROOT2 * x * i if surd else 0) for i, x in enumerate(p))
                     for p in raw])
    built = [P]
    share = st.sampled_from([Fraction(-1, 4), Fraction(0), Fraction(1, 3), Fraction(1, 2),
                             Fraction(5, 7), Fraction(1)])
    Q = P
    for _ in range(20):
        u = Vector([Scalar(draw(st.integers(-2, 2))) + ROOT2 * draw(st.integers(-1, 1))
                    for _ in range(n)])
        if u.is_zero():
            continue
        values = [u.dot(v) for v in Q.vertices]
        low, high = min(values), max(values)
        built.append(clip(Q, Halfspace(u, low + (high - low) * draw(share))))
        # an empty cut ends no chain: the next cut is made on Q again
        Q = Q if built[-1].is_empty else built[-1]
    meet = intersect(built[1], built[-1]) if len(built) > 2 else P
    if dim(Q) >= 1:
        built += [F for _, F in facets(Q)]
    t = Vector(draw(st.tuples(*[st.fractions(-2, 2, max_denominator=4)] * n)))
    return built + [translate(Q, t), transform(random_sl_matrix(draw(st.integers(0, 99)), n, 4), Q),
                    meet]


def assert_stored_canonically(P):
    """P's rows are the integer pairs of its public vertices over their
    least common denominator, strictly increasing, and its d is their
    field."""
    ints, L, d = exactnum._integer_rows([v.coords for v in P.vertices])
    assert P._rows == tuple(map(tuple, ints))
    assert (P._L, P._d) == (L, d)
    assert all(a < b for a, b in zip(P._rows, P._rows[1:]))


@given(built_polytopes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_constructor_stores_canonical_rows(built):
    """The rows each constructor stores are canonical, so equality and
    hashing on the rows agree with comparing vertex tuples; a fresh
    polytope on the same vertices is equal and hashes alike."""
    for P in built:
        assert_stored_canonically(P)
        fresh = bare(P.ambient_dim, P.vertices)
        assert fresh == P and hash(fresh) == hash(P)
    for P in built:
        for Q in built:
            same = (P.ambient_dim, P.vertices) == (Q.ambient_dim, Q.vertices)
            assert (P == Q) == same
            assert not same or hash(P) == hash(Q)


def test_mixed_fields_raise_field_mismatch():
    r2, r3 = Scalar.sqrt_of(2), Scalar.sqrt_of(3)
    with pytest.raises(FieldMismatchError):
        from_points([Vector([r2, Scalar(0)]), Vector([Scalar(0), r3])])


def test_mixed_fields_are_found_before_mixed_lengths():
    """Points other than int tuples are made pair rows, which merges their
    fields, before the hull checks their lengths."""
    r2, r3 = Scalar.sqrt_of(2), Scalar.sqrt_of(3)
    with pytest.raises(FieldMismatchError):
        from_points([Vector([r2, Scalar(0)]), Vector([r3])])
    with pytest.raises(FieldMismatchError):
        from_points([(r2, 0), (r3, 1)], ambient_dim=3)
    with pytest.raises(ValueError, match="points of mixed dimension"):
        from_points([Vector([r2, Scalar(0)]), Vector([r2])])
    with pytest.raises(ValueError, match="points do not match"):
        from_points([(r2, 0), (1, r2)], ambient_dim=3)
    # a float is refused first, as each point becomes a Vector
    with pytest.raises(TypeError):
        from_points([(r2, 0), (r3,), (0.5, 1)])


def test_json_rejects_bad_objects():
    with pytest.raises(ValueError):
        from_json({"ambient_dim": 2})
    with pytest.raises(ValueError):
        from_json({"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0+1*sqrt(2)"]]})


def test_json_checks_its_field_once(monkeypatch):
    """The declared field is checked squarefree once (about 10 ms at this
    d), not once per surd literal; a literal in another field is still
    checked, and refused as before."""
    d = 9_999_999_967
    calls = []
    real = exactnum._is_squarefree
    monkeypatch.setattr(exactnum, "_is_squarefree", lambda x: calls.append(x) or real(x))
    vertices = [[f"{(i >> j & 1) * 3 + j}+{i % 5 + 1}/{j + 2}*sqrt({d})" for j in range(4)]
                for i in range(20)]
    P = from_json({"ambient_dim": 4, "field_d": d, "vertices": vertices})
    assert sum(map(len, vertices)) == 80
    assert calls == [d]
    assert field_discriminant(P) == d
    vertices[7][2] = "1+1*sqrt(12)"
    with pytest.raises(ValueError, match="squarefree in 2..10000000000, got 12"):
        from_json({"ambient_dim": 4, "field_d": d, "vertices": vertices})
    vertices[7][2] = "1+1*sqrt(3)"
    with pytest.raises(ValueError, match="outside declared field"):
        from_json({"ambient_dim": 4, "field_d": d, "vertices": vertices})
    assert calls == [d, d, 12, d, 3]


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


# -- the origin read off the hull record -----------------------------------


def flat_off_origin():
    """A segment and a point in R^3 whose first frame equality, x0 = 0,
    passes through the origin and whose last, x2 = 1, does not."""
    pieces = [from_points([V(0, 0, 1), V(0, 1, 1)]), from_points([V(0, 0, 1)])]
    for P in pieces:
        equalities = slval.polytope._frame(P)[1]
        assert equalities[0][-1] == (0, 0) and equalities[-1][-1] != (0, 0)
    return pieces


def origin_pieces(n):
    """Hulls of every generator family in R^n, over Q and sheared over
    Q(sqrt 2), moved so that 0 is a vertex or inside; their clips by
    hyperplanes through 0, through a vertex, through the middle and past
    them, which leave pieces, faces and nothing; and their facets."""
    rng = random.Random(700 + n)
    hulls = []
    for seed in range(2):
        for family in FAMILIES:
            P = gen_polytope(seed, n, max_vertices=n + 3, family=family)
            surd = from_points([Vector([c + ROOT2 * i * c for i, c in enumerate(v)])
                                for v in P.vertices])
            hulls += [P, surd, translate(surd, -surd.vertices[0]),
                      translate(P, -P.vertices[-1]), translate(P, -P.vertices[0] - P.vertices[-1])]
    pieces = list(hulls)
    for P in hulls:
        u = Vector([rng.randint(-2, 2) + ROOT2 * rng.randint(-1, 1) for _ in range(n)])
        if u.is_zero():
            continue
        values = sorted(u.dot(v) for v in P.vertices)
        for c in (Scalar(0), values[0], (values[0] + values[-1]) / 2, values[-1], values[0] - 1):
            pieces.append(clip(P, Halfspace(u, c)))
        if not P.is_empty and dim(P) >= 1:
            pieces += [F for _, F in facets(P)][:4]
    return pieces + (flat_off_origin() if n == 3 else [])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_origin_signs_agree_with_membership(n):
    """Where the record places the origin, and the three readers of it,
    against `in_affine_hull` and `contains` at 0 and the public facets;
    `cone_hull`, which reads no origin sign, against `contains` too."""
    zero = Vector.zero(n)
    seen = set()
    for P in origin_pieces(n):
        signs = slval.polytope._origin_signs(P)
        on_hull = in_affine_hull(P, zero)
        inside = contains(P, zero)
        assert (signs is not None) == on_hull
        assert (on_hull and all(s >= 0 for s, _ in signs)) == inside
        relint = on_hull and all(h.offset > 0 for h, _ in facets(P))
        assert relint_contains_origin(P) == relint
        b = basis_vector(P)
        assert (b[1] != 0, b[3] != 0) == (relint, inside)
        if on_hull:
            # each facet's sign is that of its public offset, in the same order
            assert [s for s, _ in signs] == [(h.offset > 0) - (h.offset < 0) for h, _ in facets(P)]
        if not P.is_empty:
            assert (cone_hull(P) == P) == inside
        if not P.is_empty and dim(P) == n - 1:
            if on_hull:
                with pytest.raises(ValueError):
                    apex_volume(P)
            else:
                assert apex_volume(P) == volume(cone_hull(P))
        if not P.is_empty:
            seen.add((dim(P) == n, on_hull, inside, relint))
    # 0 lies off aff P, in it outside P, on the relative boundary and in the
    # relative interior, of full-dimensional and of flat pieces
    assert seen >= {(True, True, False, False), (True, True, True, False), (True, True, True, True),
                    (False, False, False, False), (False, True, False, False),
                    (False, True, True, False), (False, True, True, True)}


def test_origin_readers_convert_no_point(monkeypatch):
    """Once P's record is filled, `basis_vector`, `relint_contains_origin`
    and the cone cells that `pulling.apex_volume` sums read the origin off
    it and convert no point to integer rows; testing it through
    `in_affine_hull` or `contains` built and converted a zero Vector in each.  `cone_hull` converts none either:
    it adds a zero row to P's rows."""
    zero = Vector.zero(3)
    pieces = [(P, dim(P), in_affine_hull(P, zero)) for P in origin_pieces(3) if not P.is_empty]
    calls = []
    real = slval.polytope._integer_rows
    monkeypatch.setattr(slval.polytope, "_integer_rows",
                        lambda rows: calls.append(rows) or real(rows))
    readers = set()
    for P, k, on_hull in pieces:
        basis_vector(P)
        relint_contains_origin(P)
        cone_hull(P)
        if k == 2 and not on_hull:
            apex_volume(P)
            readers.add("apex_volume")
    assert calls == []
    assert readers == {"apex_volume"}
