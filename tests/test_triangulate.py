from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slval.triangulate
from slval.exactnum import Scalar
from slval.harness import FAMILIES, gen_polytope
from slval.linalg import Vector, _det, random_sl_matrix
from slval.polytope import (
    Halfspace,
    Polytope,
    clip,
    cone_hull,
    dim,
    facets,
    _frame,
    _origin_signs,
    from_points,
    transform,
)
from slval.triangulate import _basis, volume
from slval.valuation import basis_vector

from oracles import pyramid_volume, shoelace_area
import pulling
from pulling import (Simplex, Triangulation, _cell_sum, apex_volume, triangulate, two_walk_basis,
                     verify_complex)
from records import bare, scalar_facet_data, visible_facets


def P(*tuples):
    return from_points([Vector(t) for t in tuples])


def _pivot_volume(P):
    """vol_k P in P's pivot coordinates, k = dim P: the cells of P summed on
    the pivot columns of its integer pair rows."""
    pivots = _frame(P)[0]
    rows = [[row[c] for c in pivots] for row in P._rows]
    return Scalar._make(*_cell_sum(P, rows, [(1 << len(rows)) - 1], len(pivots), False), P._d)


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
    assert volume(clip(sq, h)) + volume(clip(sq, Halfspace(-h.normal, -h.offset))) == volume(sq)


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


def _with_leaves(fn, P):
    """fn(P) and the number of pair determinants it took, one per pulling
    cell, counted where each route takes them: `_basis` in
    `slval.triangulate`, and the two-walk reference (`_pivot_volume`,
    `apex_volume`) in `pulling`.  A polytope keeps its basis, so P must not
    have had one taken."""
    calls = []

    def counting(rows, d):
        calls.append(rows)
        return _det(rows, d)

    with pytest.MonkeyPatch.context() as mp:
        for module in (slval.triangulate, pulling):
            mp.setattr(module, "_det", counting)
        value = fn(P)
    return value, len(calls)


def _lift(Q, normal, offset, free):
    """Q's points in R^{n-1} placed on <normal, x> = offset by solving for
    coordinate `free`."""
    rest = normal[:free] + normal[free + 1:]
    points = []
    for y in Q.vertices:
        x = (offset - Vector(rest).dot(y)) / normal[free]
        points.append(Vector(list(y)[:free] + [x] + list(y)[free:]))
    return from_points(points)


def _over_root2(p):
    """p under x_0 -> (1 + sqrt 2) x_0 + sqrt 2 x_{n-1}, hulled afresh: a
    polytope over Q(sqrt 2) whose volume is (1 + sqrt 2) vol p."""
    r2 = Scalar.sqrt_of(2)
    return from_points([Vector([v[0] * (r2 + 1) + v[-1] * r2, *v[1:]]) for v in p.vertices])


FULL_FAMILIES = [f for f in FAMILIES if f != "lower_dim"]
# every entry nonzero and none +-1: no hyperplane is axis-parallel and the
# frame equality divides by a non-unit entry; the factor 2 also makes the
# integer normals non-primitive
entries_st = st.sampled_from([-5, -3, -2, 2, 3, 5])


@st.composite
def volume_routes_case(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    seed = draw(st.integers(0, 10**6))
    factor = draw(st.sampled_from([1, 2]))
    normal = [Scalar(factor * draw(entries_st)) for _ in range(n)]
    offset = Scalar(draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1])))
    if draw(st.booleans()):
        # a Q(sqrt 2) piece
        r2 = Scalar.sqrt_of(2)
        normal[draw(st.integers(0, n - 1))] *= r2
        offset = offset + r2
    free = draw(st.integers(0, n - 1))
    family = draw(st.sampled_from(FULL_FAMILIES))
    return n, seed, normal, offset, free, family


@given(volume_routes_case())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_volume_routes_agree(case):
    # the pulling cells on facet bitmasks against the pyramid recursion on
    # every facet's own record (tests/oracles.py): equal volumes, and one
    # determinant per cell, the recursion's simplex leaves; the cone term
    # against the volume of the hull rebuilt with the origin
    n, seed, normal, offset, free, family = case
    for fam in FAMILIES:
        rational = gen_polytope(seed, n, max_vertices=6, coord_bound=3, family=fam)
        for p in (rational, _over_root2(rational)):
            assert _with_leaves(_pivot_volume, bare(n, p.vertices)) == pyramid_volume(p)
            cone = basis_vector(p)[4]
            assert cone == volume(cone_hull(p))
            visible = [(inc, F) for (h, inc), (_, F) in zip(scalar_facet_data(p), facets(p))
                       if h.offset.sign() < 0]
            if dim(p) == n and visible:
                masks = [sum(1 << i for i in inc) for inc, _ in visible]
                value, leaves = _with_leaves(lambda q: apex_volume(q, masks),
                                             bare(n, p.vertices))
                assert volume(p) + value == cone
                assert leaves == sum(pyramid_volume(F)[1] for _, F in visible)
    # a hyperplane piece missing the origin: the pyramid over it
    piece = _lift(gen_polytope(seed, n - 1, max_vertices=6, coord_bound=3, family=family),
                  normal, offset, free)
    assert dim(piece) == n - 1
    value, leaves = _with_leaves(apex_volume, piece)
    assert value == volume(cone_hull(piece))
    assert leaves == pyramid_volume(piece)[1]


@pytest.mark.parametrize("surd", [False, True])
def test_volume_routes_agree_in_r5(surd):
    # from dimension 5 on, a face F can meet another facet in a lower face
    # with as many vertices as a facet of F: on the bipyramid over a
    # 4-cube, two facets over adjacent cube facets from opposite apexes
    # meet in a square, so only maximality tells the facets of F apart
    cube = [[(mask >> i & 1) * 2 + 1 for i in range(4)] + [3] for mask in range(16)]
    bipyramid = from_points([Vector(v) for v in cube + [[2, 2, 2, 2, 2], [2, 2, 2, 2, 4]]])
    p = _over_root2(bipyramid) if surd else bipyramid
    assert _with_leaves(_pivot_volume, bare(5, p.vertices)) == pyramid_volume(p)
    assert basis_vector(p)[4] == volume(cone_hull(p))


def _box(*sides):
    """The product of the closed intervals `sides`, flat where a side is (a, a)."""
    return from_points([Vector(c) for c in product(*sides)])


def _placement(p):
    """Where 0 lies against p: 'off' its affine hull, 'outside', 'inside' its
    relative interior, in a facet's relative interior or at a vertex."""
    signs = _origin_signs(p)
    if signs is None:
        return "off"
    if any(s < 0 for s, _ in signs):
        return "outside"
    on = [z for s, z in signs if s == 0]
    if not on:
        return "inside"
    meet = (1 << len(p._rows)) - 1
    for z in on:
        meet &= z
    return "facet" if len(on) == 1 and meet.bit_count() > 1 else "vertex"


def _walk_cases(n):
    """Polytopes in R^n with 0 outside, inside, in a facet's relative
    interior, at vertex 0 and at another vertex, flat pieces off 0 and
    through it, a point, generated clouds and (at n = 5) the bipyramid over
    a 4-cube, each also as its Q(sqrt 2) image."""
    ones = [(0, 1)] * (n - 1)
    cases = [_box(*[(1, 2)] * n), _box(*[(-1, 2)] * n), _box(*[(-1, 1)] * (n - 1), (0, 2)),
             _box(*ones, (0, 1)), _box((-1, 0), *ones), _box(*ones, (1, 1)),
             from_points([Vector.basis(n, i) for i in range(n)], n), _box(*ones, (0, 0)),
             _box(*[(1, 1)] * n)]
    if 2 <= n <= 4:
        cases += [gen_polytope(seed, n, max_vertices=6, coord_bound=3, family=family)
                  for family in FAMILIES for seed in range(3)]
    if n == 5:
        cube = [[(mask >> i & 1) * 2 - 1 for i in range(4)] + [1] for mask in range(16)]
        for shift in (0, -1, -3):  # 0 at a vertex, inside, outside
            cases.append(from_points([Vector(v[:4] + [v[4] + shift]) for v in
                                      cube + [[0, 0, 0, 0, 0], [0, 0, 0, 0, 2]]]))
    return [q for p in cases for q in (p, _over_root2(p))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_facet_walk_matches_the_two_walk_reference(n):
    """`_basis` walks P's facet record once: the same integer basis as the
    two `_cell_sum` walks of `pulling.two_walk_basis`, from exactly its
    determinants, and no `_ridges` call on P's full vertex mask, whose facets
    the record already holds, where the two walks rebuilt them as maximal
    meets of it."""
    placements = set()
    walk_ridges = reference_ridges = 0
    for p in _walk_cases(n):
        placements.add(_placement(p))
        full = (1 << len(p._rows)) - 1
        ridged, counts = [], []
        with pytest.MonkeyPatch.context() as mp:
            real_ridges = slval.triangulate._ridges
            mp.setattr(slval.triangulate, "_ridges",
                       lambda face, *rest: ridged.append(face) or real_ridges(face, *rest))
            for module, route in ((slval.triangulate, _basis), (pulling, two_walk_basis)):
                dets = []
                mp.setattr(module, "_det", lambda rows, d, dets=dets: dets.append(rows) or _det(rows, d))
                value = route(bare(n, p.vertices))
                counts.append((value, len(dets), len(ridged)))
        (basis, walk_dets, walk), (expected, reference_dets, both) = counts
        assert basis == expected, p
        assert walk_dets == reference_dets, p
        if dim(p) == n:
            assert full not in ridged[:walk], p
        walk_ridges += walk
        reference_ridges += both - walk
    # at n = 1 a facet is a vertex
    assert {"outside", "inside", "vertex", "off"} | ({"facet"} if n > 1 else set()) <= placements
    assert walk_ridges <= reference_ridges
    if n >= 3:
        assert walk_ridges < reference_ridges


#: the square [1, 2]^2: its first vertex (1, 1) pulls two volume cells, and 0
#: sees the two edges through (1, 1), one cone cell each
OFF_ORIGIN_SQUARE = ((2, 2), (1, 2), (2, 1), (1, 1))


def test_the_cell_cap_counts_the_cells_of_both_walks(monkeypatch):
    """Four cells in all, two of them only in the cone walk: a cap of 4
    passes, a cap of 3 raises ValueError and keeps no basis on P."""
    monkeypatch.setattr(slval.triangulate, "MAX_CELLS", 4)
    assert _basis(from_points(OFF_ORIGIN_SQUARE, 2)) == (1, 0, (2, 0, 2), 0, (4, 0, 2))
    monkeypatch.setattr(slval.triangulate, "MAX_CELLS", 3)
    square = from_points(OFF_ORIGIN_SQUARE, 2)
    with pytest.raises(ValueError, match="^the polytope has more than 3 pulling cells$"):
        _basis(square)
    assert square._basis is None


def test_the_cell_cap_admits_the_8_cube_by_its_count():
    """The pulling triangulation of the n-cube has n! cells, so the cap
    admits the 8-cube (40,320) and refuses the 9-cube (362,880)."""
    assert factorial(8) <= slval.triangulate.MAX_CELLS < factorial(9)
