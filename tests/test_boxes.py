"""Every hull of a subset of a small box against the oracles: a sweep with
no seed, the same on every run.

The 511 nonempty subsets of the nine points of the planar box
{-1, 0, 1}^2 have 213 distinct hulls: points, segments and polygons, with
the origin at a vertex, on an edge, inside or outside.  Each hull's
vertices are checked against `oracles.hull2d`, and its five basis values
against `plane_basis`, which is built only from `hull2d`, `shoelace_area`
and `in_hull2d`.  A fixed stride of the pairs of these hulls meets as
`oracles.reference_intersect` says.

Space boxes follow.  In R^3: the 7 points 0, +-e1, +-e2 and +-e3, with 90
distinct hulls that have the origin inside, on a face, at a vertex or
outside, and the cube {0, 1}^3, with 255.  In R^4: the 8 points 0, -e1,
+-e2, +-e3 and +-e4, with 181 distinct hulls of dimension 0 to 4 and the
origin in each of those places, and the same 8 points translated by 2 e1,
whose 181 hulls all miss the origin, so that it sees facets in R^4.  Each
hull's vertices are checked against `oracles.extreme_indices`, its frame
and facets against `oracles.halfspaces`, and its five basis values against
`space_basis`, which reads the origin terms off `halfspaces` at 0 and the
volumes off `pyramid_volume`.

Over Q the hull pass runs on plain ints.  On every box hull, its subset of
points gives the same frame and facets when the pass is told d = 2 and so
runs on pairs.
"""

from itertools import combinations_with_replacement, product

import pytest

from slval.polytope import _supporting, dim, from_points, intersect
from slval.valuation import basis_vector

from oracles import (affine_frame, extreme_indices, halfspaces, hull2d, in_hull2d, pyramid_volume,
                     reference_frame, reference_intersect, shoelace_area)
from records import scalar_facet_data, scalar_frame

BOX = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
ORIGIN = (0, 0)


def box_hulls() -> dict:
    """One subset of BOX per distinct hull, keyed by the hull's sorted vertices."""
    hulls = {}
    for mask in range(1, 1 << len(BOX)):
        points = [p for i, p in enumerate(BOX) if mask >> i & 1]
        hulls.setdefault(tuple(sorted(hull2d(points))), points)
    return hulls


HULLS = box_hulls()


def plane_basis(ring: list) -> tuple:
    """(euler, relint_sign, area, origin, cone) of the hull of a `hull2d`
    ring.  The relint sign is (-1)^k, k the dimension, when the origin is
    in the hull but in none of its relative boundary faces: none for a
    point, the endpoints of a segment, the edges of a polygon.  The cone
    term is the area of the hull with the origin added."""
    k = min(len(ring), 3) - 1
    if k == 2:
        boundary = [[p, q] for p, q in zip(ring, ring[1:] + ring[:1])]
    elif k == 1:
        boundary = [[p] for p in ring]
    else:
        boundary = []
    inside = in_hull2d(ring, ORIGIN)
    relint = inside and not any(in_hull2d(face, ORIGIN) for face in boundary)
    return (1, (-1) ** k if relint else 0, shoelace_area(ring), int(inside),
            shoelace_area(ring + [ORIGIN]))


def test_the_box_has_213_distinct_hulls():
    assert len(HULLS) == 213
    # points, segments, and polygons of 3 to 6 vertices
    assert {len(ring) for ring in HULLS} == {1, 2, 3, 4, 5, 6}


def test_every_hull_has_the_oracle_vertices():
    bad = []
    for ring, points in HULLS.items():
        P = from_points(points, 2)
        vertices = tuple(sorted(tuple(c.a for c in v) for v in P.vertices))
        if vertices != ring:
            bad.append((points, vertices))
    assert not bad, f"{len(bad)} of {len(HULLS)} hulls differ, first: {bad[:3]}"


def test_every_hull_has_the_plane_oracle_basis():
    bad = []
    for ring, points in HULLS.items():
        got = tuple(basis_vector(from_points(points, 2)))
        want = plane_basis(hull2d(points))
        if got != want:
            bad.append((points, [str(x) for x in got], [str(x) for x in want]))
    assert not bad, f"{len(bad)} of {len(HULLS)} hulls differ, first: {bad[:3]}"


#: every STRIDE-th of the 22,791 unordered pairs of the 213 planar hulls,
#: each hull with itself among them, in the order of
#: `combinations_with_replacement`: all of them meet in about 2 s, but the
#: oracle takes about 78 s for all
STRIDE = 37


def test_a_stride_of_the_planar_pairs_meet_as_the_oracle_says():
    """`intersect` both ways round against `oracles.reference_intersect`,
    on 616 pairs whose meets are empty or of every dimension."""
    polytopes = {ring: from_points(points, 2) for ring, points in HULLS.items()}
    pairs = list(combinations_with_replacement(HULLS, 2))
    assert len(pairs) == 22_791
    bad, dims = [], set()
    for a, b in pairs[::STRIDE]:
        expected = reference_intersect(list(a), list(b))
        for p, q in ((a, b), (b, a)):
            meet = intersect(polytopes[p], polytopes[q])
            if {tuple(c.a for c in v) for v in meet.vertices} != expected:
                bad.append((p, q))
        dims.add(dim(meet) if not meet.is_empty else -1)
    assert not bad, f"{len(bad)} of {2 * len(pairs[::STRIDE])} meets differ, first: {bad[:3]}"
    assert dims == {-1, 0, 1, 2}


# -- the space boxes ------------------------------------------------------

def unit(n: int, i: int, s: int = 1) -> tuple:
    """s e_i in R^n, i counted from 0."""
    return tuple(s * (i == j) for j in range(n))


CROSS4 = [(0, 0, 0, 0), unit(4, 0, -1)] + [unit(4, i, s) for i in range(1, 4) for s in (1, -1)]

SPACE_BOXES = {
    "cross": [(0, 0, 0)] + [unit(3, i, s) for i in range(3) for s in (1, -1)],
    "cube": list(product((0, 1), repeat=3)),
    "cross4": CROSS4,
    "shifted4": [(x + 2, *rest) for x, *rest in CROSS4],
}


def space_hulls(box: list) -> dict:
    """One subset of box per distinct hull, keyed by the sorted vertices
    that `extreme_indices` picks."""
    hulls = {}
    for mask in range(1, 1 << len(box)):
        points = [p for i, p in enumerate(box) if mask >> i & 1]
        hulls.setdefault(tuple(sorted(points[i] for i in extreme_indices(points))), points)
    return hulls


SPACE_HULLS = {name: space_hulls(box) for name, box in SPACE_BOXES.items()}


def space_volume(points: list):
    """The volume of the hull in R^n by `pyramid_volume`; 0 below full dimension."""
    n = len(points[0])
    return pyramid_volume(from_points(points, n))[0] if affine_frame(points)[0] == n else 0


def space_basis(points: list) -> tuple:
    """(euler, relint_sign, volume, origin, cone) of the hull of points in
    R^n.  `halfspaces` lists the k-dimensional hull's n - k frame equalities
    both ways, then its facets: the origin is in the hull iff every row
    holds at 0, and in its relative interior iff every equality is tight at
    0 and every facet is strict.  The cone term is the volume of the hull
    with the origin added."""
    n, k = len(points[0]), affine_frame(points)[0]
    rows = halfspaces(points)
    equalities, facet_rows = rows[:2 * (n - k)], rows[2 * (n - k):]
    relint = all(c == 0 for _, c in equalities) and all(c > 0 for _, c in facet_rows)
    inside = all(c >= 0 for _, c in rows)
    return (1, (-1) ** k if relint else 0, space_volume(points), int(inside),
            space_volume(points + [(0,) * n]))


def record_halfspaces(P) -> list:
    """P's hull record as the rows `halfspaces` gives: each frame equality
    both ways, then each facet, which the pass makes zero off the pivot
    columns, +-1 on its last nonzero entry."""
    equalities = [(tuple(x.a for x in w), b.a) for w, b in scalar_frame(P)[1]]
    return ([h for w, b in equalities for h in ((w, b), (tuple(-x for x in w), -b))]
            + [(tuple(x.a for x in h.normal), h.offset.a) for h, _ in scalar_facet_data(P)])


#: where the origin lies among the hulls of each cross: every place, or outside all
ORIGIN_PLACES = {"cross": {"vertex", "relint", "boundary", "outside"},
                 "cross4": {"vertex", "relint", "boundary", "outside"},
                 "shifted4": {"outside"}}


@pytest.mark.parametrize("name, count", [("cross", 90), ("cube", 255), ("cross4", 181),
                                         ("shifted4", 181)])
def test_the_space_boxes_have_their_distinct_hulls(name, count):
    assert len(SPACE_HULLS[name]) == count
    # points up to full dimension, and for the crosses the places of the origin
    n = len(SPACE_BOXES[name][0])
    assert {affine_frame(points)[0] for points in SPACE_HULLS[name].values()} == set(range(n + 1))
    if name in ORIGIN_PLACES:
        places = set()
        for ring, points in SPACE_HULLS[name].items():
            _, relint, _, inside, _ = space_basis(points)
            places.add("vertex" if (0,) * n in ring else "relint" if relint else
                       "boundary" if inside else "outside")
        assert places == ORIGIN_PLACES[name]


@pytest.mark.parametrize("name", sorted(SPACE_BOXES))
def test_every_space_hull_has_the_oracle_vertices_frame_and_facets(name):
    bad = []
    for ring, points in SPACE_HULLS[name].items():
        P = from_points(points, len(points[0]))
        vertices = tuple(sorted(tuple(c.a for c in v) for v in P.vertices))
        pivots = scalar_frame(P)[0]
        if (vertices, pivots) != (ring, reference_frame(points)[0]) or \
                sorted(record_halfspaces(P)) != sorted(halfspaces(points)):
            bad.append(points)
    assert not bad, f"{len(bad)} of {len(SPACE_HULLS[name])} hulls differ, first: {bad[:3]}"


@pytest.mark.parametrize("name", sorted(SPACE_BOXES))
def test_every_space_hull_has_the_space_oracle_basis(name):
    bad = []
    for points in SPACE_HULLS[name].values():
        got = tuple(basis_vector(from_points(points, len(points[0]))))
        want = space_basis(points)
        if got != want:
            bad.append((points, [str(x) for x in got], [str(x) for x in want]))
    assert not bad, f"{len(bad)} of {len(SPACE_HULLS[name])} hulls differ, first: {bad[:3]}"


def same_pass_on_ints_and_pairs(points) -> bool:
    """One hull pass on the distinct integer points gives the same frame and
    facets over Q, where it runs on plain ints, as told d = 2, where it runs
    on pairs."""
    rows = sorted(tuple((x, 0) for x in p) for p in points)
    return _supporting(rows, 1, 0) == _supporting(rows, 1, 2)


@pytest.mark.parametrize("name", ["plane", *sorted(SPACE_BOXES)])
def test_every_box_hull_takes_the_same_pass_on_ints_and_on_pairs(name):
    hulls = HULLS if name == "plane" else SPACE_HULLS[name]
    bad = [points for points in hulls.values() if not same_pass_on_ints_and_pairs(points)]
    assert not bad, f"{len(bad)} of {len(hulls)} hulls differ, first: {bad[:3]}"
