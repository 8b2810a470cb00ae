"""Every hull of a subset of the planar box {-1, 0, 1}^2 against the plane
oracles: a sweep with no seed, the same on every run.

The 511 nonempty subsets of the nine box points have 213 distinct hulls:
points, segments and polygons, with the origin at a vertex, on an edge,
inside or outside.  Each hull's vertices are checked against
`oracles.hull2d`, and its five basis values against `plane_basis`, which
is built only from `hull2d`, `shoelace_area` and `in_hull2d`.
"""

from slval.polytope import from_points
from slval.valuation import basis_vector

from oracles import hull2d, in_hull2d, shoelace_area

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
