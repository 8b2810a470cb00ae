"""The integer clip against its Scalar reference, the trusted face
constructor, and the Scalar, leaf, constructor and hash counts of a cut,
an intersection and the volume and cone terms."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import slval.polytope
import slval.triangulate
from slval.exactnum import Scalar
from slval.linalg import Vector, _det
from slval.polytope import (
    Halfspace,
    Polytope,
    _facet_data,
    _frame,
    clip,
    dim,
    facets,
    field_discriminant,
    from_points,
    intersect,
)
from slval.triangulate import volume
from slval.valuation import basis_vector

from oracles import pyramid_volume, reference_clip
from records import bare, scalar_facet_data

ROOT2 = Scalar.sqrt_of(2)


def hull(raw, surd):
    """from_points of rational points, sheared over Q(sqrt 2) if surd."""
    points = [[Scalar(x) for x in p] for p in raw]
    if surd:
        points = [[x + ROOT2 * y for x, y in zip(p, p[1:] + [Scalar(0)])] for p in points]
    return from_points([Vector(p) for p in points])


@st.composite
def clip_case(draw):
    """A polytope in R^2, R^3 or R^4 over Q or Q(sqrt 2), with coordinates
    of denominator up to 3, and a cut: generic, through a vertex, leaving
    the face where a normal is smallest, leaving a drawn facet, or missing
    P on either side."""
    n = draw(st.sampled_from([2, 3, 4]))
    surd = draw(st.booleans())
    coord = st.fractions(-2, 2, max_denominator=3)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3, unique=True))
    P = hull(raw, surd)
    kind = draw(st.sampled_from(["generic", "vertex", "face", "facet", "miss"]))
    if kind == "facet" and dim(P) >= 1 and _facet_data(P):
        h, _ = draw(st.sampled_from(scalar_facet_data(P)))
        return P, Halfspace(-h.normal, -h.offset)
    normal = [Scalar(draw(st.integers(-2, 2))) for _ in range(n)]
    if surd and draw(st.booleans()):
        normal[draw(st.integers(0, n - 1))] += ROOT2
    if all(x.is_zero() for x in normal):
        normal[0] = Scalar(1)
    u = Vector(normal)
    values = sorted({u.dot(v) for v in P.vertices})
    if kind == "vertex":
        c = draw(st.sampled_from(values))
    elif kind in ("face", "facet"):
        c = values[0]
    elif kind == "miss":
        c = draw(st.sampled_from([values[0] - 1, values[-1]]))
    else:
        a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        c = a + (b - a) * draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]))
    return P, Halfspace(u, c)


@given(clip_case())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_clip_matches_the_scalar_reference(case):
    P, H = case
    Q, R = clip(P, H), reference_clip(P, H)
    assert Q.vertices == R.vertices
    if not Q.is_empty:
        assert _frame(Q) == _frame(R)
        assert _facet_data(Q) == _facet_data(R)


def assert_canonical(F):
    """F stores what its own vertices give as a bare polytope."""
    fresh = bare(F.ambient_dim, F.vertices)
    assert F.vertices == fresh.vertices
    assert hash(F) == hash(fresh)
    assert field_discriminant(F) == field_discriminant(fresh)


def assert_faces_canonical(P):
    assert_canonical(P)
    if dim(P) >= 1:
        for _, F in facets(P):
            assert_faces_canonical(F)


@st.composite
def face_case(draw):
    """Points in R^2, R^3 or R^4 over Q or Q(sqrt 2) with a midpoint and a
    centroid added, so that from_points keeps a proper subset."""
    n = draw(st.sampled_from([2, 3, 4]))
    surd = draw(st.booleans())
    coord = st.integers(-2, 2)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3, unique=True))
    raw += [tuple(Fraction(x + y, 2) for x, y in zip(raw[0], raw[1])),
            tuple(Fraction(sum(col), len(raw)) for col in zip(*raw))]
    return draw(st.permutations(raw)), surd


@given(face_case())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_faces_built_by_index_are_canonical(case):
    P = hull(*case)
    assert_faces_canonical(P)
    if dim(P) == 0:
        return
    data = scalar_facet_data(P)
    for (h, _), (_, F) in zip(data, facets(P)):
        face = clip(P, Halfspace(-h.normal, -h.offset))
        assert face == F
        assert_canonical(face)
    # <w + w', x> <= c + c' holds on P with equality exactly on the face
    # where facets (w, c) and (w', c') meet: a vertex, an edge or a ridge
    for (h, inc), (g, other) in combinations(data, 2):
        if inc & other and h.normal != -g.normal:
            face = clip(P, Halfspace(-(h.normal + g.normal), -(h.offset + g.offset)))
            assert face.vertices == tuple(P.vertices[i] for i in sorted(inc & other))
            assert_faces_canonical(face)


MANY_VERTICES = {
    "12-gon": [(x * a, y * b) for x, y in ((1, 4), (4, 1), (3, 3)) for a in (1, -1) for b in (1, -1)],
    "truncated octahedron": sorted(set(permutations((0, 1, 2))) | set(permutations((0, -1, 2)))
                                   | set(permutations((0, 1, -2))) | set(permutations((0, -1, -2)))),
    "4-cube": list(product(range(2), repeat=4)),
    "flat permutohedron in R^4": list(permutations(range(4))),
}


@pytest.mark.parametrize("name", sorted(MANY_VERTICES))
@pytest.mark.parametrize("surd", [False, True])
def test_faces_of_polytopes_with_many_vertices_are_canonical(name, surd):
    # faces with vertex indices of 8 and more, where a frozenset of them
    # need not iterate in increasing order
    P = hull(MANY_VERTICES[name], surd)
    assert len(P.vertices) >= 12
    assert_faces_canonical(P)


def surd_polytope():
    """A fixed full-dimensional polytope in R^3 over Q(sqrt 2), off 0."""
    rng = random.Random(8)
    while True:
        points = [Vector([Scalar(rng.randint(-3, 3)) + ROOT2 * rng.randint(-2, 2) + 7
                          for _ in range(3)]) for _ in range(14)]
        P = from_points(points)
        if dim(P) == 3 and len(P.vertices) >= 6:
            return P


def test_clip_and_volume_build_few_scalars(monkeypatch):
    """Signs, crossings, the new facet and the volume cells run on integer
    pairs: one Scalar is built, the volume.  The Scalar clip and leaves
    built 721 for this cut and volume, a pyramid recursion in Scalars over
    the integer clip 476, and the integer clip that built Scalar crossing
    points and facets 38."""
    P = surd_polytope()
    values = sorted(Vector([1, -2, 1]).dot(v) for v in P.vertices)
    H = Halfspace(Vector([1, -2, 1]), (values[0] + values[-1]) / 2)
    calls = []
    real = Scalar._make.__func__

    def counting(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(Scalar, "_make", classmethod(counting))
    Q = clip(P, H)
    vol = volume.__wrapped__(Q)
    assert len(calls) <= 1
    assert vol > 0


def counting_calls(monkeypatch, cls, name):
    """The calls of method `name` of `cls` from now on."""
    calls = []
    real = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(args) or real(self, *args))
    return calls


def mid_cut(P, u):
    """The halfspace <u, x> <= c halfway across P."""
    values = sorted(u.dot(v) for v in P.vertices)
    return Halfspace(u, (values[0] + values[-1]) / 2)


def test_straddling_clip_builds_no_polytope_and_hashes_no_vertex(monkeypatch):
    """A straddling clip orders its kept vertices and crossing points by
    one sort of their integer rows and reads their positions off that
    permutation: no Scalar is made and no `Vector.__hash__` is called.  A
    clip that built Q from Vectors and placed the vertices by a
    {Vector: index} dict hashed 54 for this cut.  The result is what a
    fresh hull of its vertices derives."""
    P = surd_polytope()
    H = mid_cut(P, Vector([1, -2, 1]))
    made = []
    real_make = Scalar._make.__func__
    monkeypatch.setattr(Scalar, "_make",
                        classmethod(lambda cls, *a: made.append(a) or real_make(cls, *a)))
    hashed = counting_calls(monkeypatch, Vector, "__hash__")
    Q = clip(P, H)
    assert made == [] and hashed == []
    monkeypatch.undo()
    fresh = from_points(Q.vertices)
    assert Q.vertices == fresh.vertices
    assert _frame(Q) == _frame(fresh)
    assert _facet_data(Q) == _facet_data(fresh)


def test_intersect_of_adjacent_slabs_hashes_no_halfspace(monkeypatch):
    """The slabs share P's facets as the same objects, which intersect
    skips by identity; two full-dimensional operands need no nesting test.
    Finding the shared facets in a set of halfspaces made 29
    `Halfspace.__hash__` calls here."""
    P = surd_polytope()
    H = mid_cut(P, Vector([1, 1, -1]))
    below, above = clip(P, H), clip(P, Halfspace(-H.normal, -H.offset))
    hashed = counting_calls(monkeypatch, Halfspace, "__hash__")
    meet = intersect(below, above)
    assert hashed == []
    assert meet == clip(below, Halfspace(-H.normal, -H.offset))
    assert dim(meet) == 2


def count_leaves(monkeypatch):
    """The pair determinants `_basis` takes, in `slval.triangulate`: one per
    pulling cell of the volume and of the cone part."""
    calls = []

    def counting(rows, d):
        calls.append(rows)
        return _det(rows, d)

    monkeypatch.setattr(slval.triangulate, "_det", counting)
    return calls


def guard_polytopes():
    """surd_polytope, and the 4-cube and the 12-gon of MANY_VERTICES moved
    off the origin."""
    moved = [hull([[x + 5 + i for i, x in enumerate(p)] for p in MANY_VERTICES[name]], False)
             for name in ("4-cube", "12-gon")]
    return [surd_polytope()] + moved


def pulling_cells(P):
    """Cells of the volume and of the cone term of P, by the pyramid
    recursion of the tests' oracle: the volume's leaves and those of every
    facet visible from 0."""
    return pyramid_volume(P)[1] + sum(
        pyramid_volume(F)[1] for h, F in facets(P) if h.offset.sign() < 0)


def test_basis_vector_takes_one_leaf_per_cell_and_no_facet_record(monkeypatch):
    """The volume and cone terms read the pulling cells off facet bitmasks:
    each polytope runs its own hull pass and no facet runs one, no
    halfspace is restricted, each cell takes one pair determinant, and 10
    Scalars are built for the three polytopes, by the volume and cone
    terms; hull passes that built their records in Scalars made it 122.
    Terms that recursed on each facet's own record derived 107 facet frames
    and 32 facet records, restricted 144 halfspaces and built 1,778
    Scalars."""
    cells = sum(pulling_cells(P) for P in guard_polytopes())
    fresh = [bare(P.ambient_dim, P.vertices) for P in guard_polytopes()]
    derived = []
    for name in ("_supporting", "_restricted"):
        real = getattr(slval.polytope, name)
        monkeypatch.setattr(slval.polytope, name,
                            lambda *args, name=name, real=real: derived.append(name) or real(*args))
    leaves = count_leaves(monkeypatch)
    made = []
    real_make = Scalar._make.__func__

    def counting(cls, *args):
        made.append(args)
        return real_make(cls, *args)

    monkeypatch.setattr(Scalar, "_make", classmethod(counting))
    for P in fresh:
        basis_vector(P)
    assert derived == ["_supporting"] * len(fresh)
    assert len(leaves) == cells
    assert len(made) <= 10
