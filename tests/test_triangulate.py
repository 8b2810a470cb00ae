from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slval.exactnum import Scalar
from slval.linalg import Vector, random_sl_matrix
from slval.polytope import Halfspace, Polytope, clip, from_points, transform, visible_facets
from slval.triangulate import (
    Simplex,
    Triangulation,
    apex_volume,
    triangulate,
    verify_complex,
    volume,
)

from oracles import shoelace_area


def P(*tuples):
    return from_points([Vector(t) for t in tuples])


def unit_cube(n):
    pts = []
    for mask in range(2**n):
        pts.append(Vector([(mask >> i) & 1 for i in range(n)]))
    return from_points(pts)


def test_triangulate_simplex_is_itself():
    tri = P((0, 0), (1, 0), (0, 1))
    t = triangulate(tri)
    assert len(t) == 1
    assert t.simplices[0].vertices == tri.vertices


def test_triangulate_unit_square():
    t = triangulate(unit_cube(2))
    assert len(t) == 2
    diagonals = [set(s.vertices) & {Vector((0, 0)), Vector((1, 1))} for s in t]
    # both cells share the diagonal from the lexicographic minimum
    assert all(d == {Vector((0, 0)), Vector((1, 1))} for d in diagonals)


def test_triangulate_segment():
    seg = P((0, 0), (1, 0))
    t = triangulate(seg)
    assert len(t) == 1
    assert t.simplices[0].vertices == seg.vertices


def test_simplex_requires_independent_vertices():
    with pytest.raises(ValueError):
        Simplex(2, [Vector((0, 0)), Vector((1, 0)), Vector((2, 0))])


def test_volume_of_standard_simplices():
    for n in (2, 3, 4):
        pts = [Vector.zero(n)] + [Vector.basis(n, i) for i in range(n)]
        assert volume(from_points(pts)) == Scalar(Fraction(1, factorial(n)))


def test_volume_of_unit_square_and_cube():
    assert volume(unit_cube(2)) == Scalar(1)
    assert volume(unit_cube(3)) == Scalar(1)


def test_volume_lower_dimensional_is_zero():
    assert volume(P((-1, 0), (1, 0))) == Scalar(0)
    assert volume(Polytope.empty(2)) == Scalar(0)


def test_volume_with_surd_coordinates():
    r2 = Scalar.sqrt_of(2)
    box = from_points(
        [
            Vector([Scalar(0), Scalar(0)]),
            Vector([r2, Scalar(0)]),
            Vector([Scalar(0), Scalar(1)]),
            Vector([r2, Scalar(1)]),
        ]
    )
    assert volume(box) == r2


def test_clip_volume_additivity():
    sq = unit_cube(2)
    h = Halfspace(Vector((1, 2)), Fraction(3, 2))
    assert volume(clip(sq, h)) + volume(clip(sq, h.complement())) == volume(sq)


def test_verify_complex_on_square_triangulation():
    assert verify_complex(triangulate(unit_cube(2))) is True
    assert verify_complex(triangulate(unit_cube(3))) is True


def test_verify_complex_singleton():
    t = Triangulation([Simplex(2, [Vector((0, 0)), Vector((1, 0)), Vector((0, 1))])])
    assert verify_complex(t) is True


def test_verify_complex_catches_overlap():
    a = Simplex(2, [Vector((0, 0)), Vector((2, 0)), Vector((0, 2))])
    b = Simplex(2, [Vector((1, 1)), Vector((-1, 1)), Vector((1, -1))])
    bad = Triangulation([a, b])
    witness = verify_complex(bad)
    assert witness is not True
    assert set(witness) == {a, b}


def test_verify_complex_catches_vertex_in_edge():
    # cells meet along a segment that is a face of one but not the other
    a = Simplex(2, [Vector((0, 0)), Vector((2, 0)), Vector((1, 1))])
    b = Simplex(2, [Vector((0, 0)), Vector((1, 0)), Vector((1, -1))])
    witness = verify_complex(Triangulation([a, b]))
    assert witness is not True


def test_cone_over_single_edge():
    assert apex_volume(P((1, 0), (0, 1))) == Scalar(Fraction(1, 2))


def test_cone_over_visible_edges_of_shifted_square():
    sq = P((1, 1), (2, 1), (1, 2), (2, 2))
    edges = visible_facets(sq)
    assert len(edges) == 2
    total = sum((apex_volume(edge) for edge in edges), Scalar(0))
    assert total == Scalar(1)


def test_cone_over_rejects_origin_in_hull():
    with pytest.raises(ValueError):
        apex_volume(P((-1, 0), (1, 0)))


def test_apex_volume_needs_a_hyperplane_piece():
    with pytest.raises(ValueError):
        apex_volume(P((1, 1), (2, 1), (1, 2)))  # full-dimensional
    with pytest.raises(ValueError):
        apex_volume(from_points([Vector((1, 0, 1)), Vector((0, 1, 1))]))  # dim n - 2



def test_alternate_order_gives_other_diagonal():
    sq = unit_cube(2)
    rotated = sq.vertices[1:] + sq.vertices[:1]
    t = triangulate(sq, rotated)
    assert verify_complex(t) is True
    assert t != triangulate(sq)
    total = sum((s.volume() for s in t), Scalar(0))
    assert total == volume(sq)


def test_triangulate_rejects_foreign_order():
    sq = unit_cube(2)
    with pytest.raises(ValueError):
        triangulate(sq, (Vector((5, 5)),) + sq.vertices[1:])


coords_st = st.integers(min_value=-4, max_value=4)
points_st = st.lists(st.tuples(coords_st, coords_st), min_size=3, max_size=8)


@given(points_st)
@settings(max_examples=40, deadline=None)
def test_volume_matches_shoelace_oracle(raw):
    p = from_points([Vector(t) for t in raw])
    expected = shoelace_area(raw)
    assert volume(p) == Scalar(expected)


@given(points_st)
@settings(max_examples=40, deadline=None)
def test_triangulation_is_complex_and_additive(raw):
    p = from_points([Vector(t) for t in raw])
    if len(p.vertices) < 3:
        return
    t = triangulate(p)
    assert verify_complex(t) is True
    total = sum((s.volume() for s in t), Scalar(0))
    assert total == volume(p)


@given(points_st, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_volume_is_sl_invariant(raw, seed):
    p = from_points([Vector(t) for t in raw])
    a = random_sl_matrix(seed, 2, 8)
    assert volume(transform(a, p)) == volume(p)
