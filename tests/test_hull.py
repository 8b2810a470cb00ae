"""Differential tests of the double-description hull against the k-subset scan.

The oracle in `oracles.py` tests the hyperplane through every k-subset of
the points in plain Fractions, so it shares no code with `polytope`.
Derived polytopes (facets, clips, translates, SL images) inherit their
face data instead of running the pass; their tests compare with a fresh
pass on the same vertices and count the passes run.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slval import polytope
from slval.exactnum import Linear, RationalPart, Scalar
from slval.linalg import Matrix, Vector, random_sl_matrix
from slval.polytope import (
    Halfspace,
    Polytope,
    _facet_data,
    _frame,
    _supporting,
    clip,
    facets,
    from_points,
    transform,
    translate,
)
from slval.triangulate import volume
from slval.valuation import ClassifiedValuation, evaluate, evaluate_union

from oracles import affine_frame, extreme_indices, facets_by_subsets


def as_scalars(points):
    return [[Scalar(x) for x in p] for p in points]


def as_fractions(supporting):
    out = {}
    for incident, (w, c) in supporting.items():
        assert all(x.is_rational() for x in w) and c.is_rational()
        out[incident] = (tuple(x.a for x in w), c.a)
    return out


def symmetric_cloud(rng, n, m, bound=6):
    """Distinct points in pairs x, -x, with m // 2 random integer x."""
    points = {}
    while len(points) < m:
        x = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(x):
            points[x] = None
            points[tuple(-c for c in x)] = None
    return list(points)


def grid_sample(rng, k, m):
    """m shuffled points of {-2..2}^k: collinear and coplanar runs, and
    facets with many points on them."""
    grid = list(product(range(-2, 3), repeat=k))
    return rng.sample(grid, m)


def assert_matches_oracle(points, k):
    assert affine_frame(points)[0] == k
    assert as_fractions(_supporting(as_scalars(points), k)) == facets_by_subsets(points, k)
    assert_handover_matches_fresh(as_scalars(points))


def assert_handover_matches_fresh(points):
    """The frame and facets from_points hands its result equal what a fresh
    polytope on the same vertices derives for itself."""
    P = from_points(points)
    fresh = Polytope(P.ambient_dim, P.vertices)
    assert fresh._frame is None and fresh._facets is None
    assert _facet_data(P) == _facet_data(fresh)
    assert _frame(P) == _frame(fresh)
    return P


@pytest.mark.parametrize("n, sizes", [(2, (4, 10, 24)), (3, (6, 10, 16)), (4, (8, 10, 12))])
def test_symmetric_clouds_match_subset_scan(n, sizes):
    rng = random.Random(100 + n)
    for m in sizes:
        for _ in range(4):
            assert_matches_oracle(symmetric_cloud(rng, n, m), n)


@pytest.mark.parametrize("k, m, draws", [(2, 25, 3), (3, 14, 6), (4, 11, 6)])
def test_shuffled_grids_match_subset_scan(k, m, draws):
    rng = random.Random(200 + k)
    checked = 0
    for _ in range(draws):
        points = grid_sample(rng, k, m)
        if affine_frame(points)[0] == k:
            assert_matches_oracle(points, k)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_unit_grids_with_non_simplicial_facets(k):
    rng = random.Random(300 + k)
    points = list(product(range(2), repeat=k)) if k == 4 else list(product(range(-1, 2), repeat=k))
    rng.shuffle(points)
    facets = facets_by_subsets(points, k)
    assert any(len(incident) > k for incident in facets)
    assert_matches_oracle(points, k)


def assert_tight_exactly_on(vectors, w, c, incident):
    signs = [(w.dot(v) - c).sign() for v in vectors]
    assert all(s <= 0 for s in signs)
    assert {i for i, s in enumerate(signs) if s == 0} == incident


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flat_point_sets_in_r4(k):
    """k-dimensional point sets in R^4 take the affine-frame path of
    from_points and _facet_data."""
    rng = random.Random(400 + k)
    checked = 0
    for _ in range(4):
        while True:
            embed = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(4)]
            if affine_frame([(0,) * 4] + [tuple(row[j] for row in embed) for j in range(k)])[0] == k:
                break
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        low = grid_sample(rng, k, 6 + 2 * k) if k > 1 else [(x,) for x in rng.sample(range(-5, 6), 5)]
        if affine_frame(low)[0] != k:
            continue
        points = [tuple(sum(row[j] * x[j] for j in range(k)) + s for row, s in zip(embed, shift))
                  for x in low]
        P = assert_handover_matches_fresh(as_scalars(points))
        assert set(P.vertices) == {Vector(points[i]) for i in extreme_indices(points)}

        rank, frame = affine_frame([tuple(c.a for c in v) for v in P.vertices])
        assert rank == k
        items = _facet_data(P)
        assert {incident for _, incident in items} == set(facets_by_subsets(frame, k))
        for h, incident in items:
            assert_tight_exactly_on(P.vertices, h.normal, h.offset, incident)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("k", [2, 3])
def test_surd_clouds_keep_incidence(k):
    """An invertible linear map over Q(sqrt 2) keeps facet incidence, so the
    oracle's incident sets on the rational preimage are the answer."""
    rng = random.Random(500 + k)
    root2 = Scalar.sqrt_of(2)
    shear = [[Scalar(1) if i == j else (root2 if j == i + 1 else Scalar(0)) for j in range(k)]
             for i in range(k)]
    checked = 0
    for _ in range(4):
        points = grid_sample(rng, k, 10)
        if affine_frame(points)[0] != k:
            continue
        image = [[sum((shear[i][j] * x[j] for j in range(k)), Scalar(0)) for i in range(k)]
                 for x in points]
        supporting = _supporting(image, k)
        assert set(supporting) == set(facets_by_subsets(points, k))
        vectors = [Vector(p) for p in image]
        for incident, (w, c) in supporting.items():
            last = next(x for x in reversed(w.coords) if not x.is_zero())
            assert abs(last) == 1
            assert_tight_exactly_on(vectors, w, c, incident)
        assert_handover_matches_fresh(image)
        checked += 1
    assert checked > 0


def test_hull_cost_does_not_grow_with_subsets(monkeypatch):
    """A 40-point cloud in R^3 has C(40, 3) = 9880 point triples; the hull
    needs one kernel only for each facet of its starting simplex."""
    calls = []
    real = polytope.kernel_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "kernel_basis", counting)
    points = symmetric_cloud(random.Random(3), 3, 40, bound=20)
    assert len(points) == 40
    P = from_points(as_scalars(points))
    assert len(P.vertices) > 3
    assert len(calls) <= 2 * (3 + 1)


def test_one_hull_pass_serves_every_query(monkeypatch):
    """from_points hands its result the facets its own pass found, so no
    query on the result runs a second pass."""
    calls = []
    real = polytope._supporting

    def counting(coords, k):
        calls.append(k)
        return real(coords, k)

    monkeypatch.setattr(polytope, "_supporting", counting)
    points = symmetric_cloud(random.Random(3), 3, 40, bound=20)
    P = from_points(as_scalars(points))
    zero = Vector.zero(3)
    assert polytope.dim(P) == 3
    assert len(_facet_data(P)) == len(polytope.facets(P)) >= 4
    assert polytope.contains(P, zero)
    assert polytope.in_affine_hull(P, zero)
    assert polytope.relint_contains_origin(P)
    assert calls == [3]


@st.composite
def hull_with_extra_points(draw):
    """A polytope in R^3 or R^4 (flat in one of four draws), plus convex
    combinations of its vertices and a shuffle of both."""
    n = draw(st.sampled_from([3, 4]))
    coord = st.integers(-3, 3)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=2, max_size=n + 3, unique=True))
    if draw(st.integers(0, 3)) == 0:
        raw = [p[:-1] + (2,) for p in raw]
    P = from_points(as_scalars(raw))
    m = len(P.vertices)
    weights = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    extras = []
    for ws in draw(st.lists(weights, max_size=6)):
        total = sum(ws)
        extras.append(Vector(sum((v[i] * Fraction(w, total) for v, w in zip(P.vertices, ws)), Scalar(0))
                             for i in range(n)))
    points = draw(st.permutations(list(P.vertices) + extras))
    return P, points


@given(hull_with_extra_points())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_convex_combinations_leave_the_hull(case):
    P, points = case
    Q = from_points(points)
    assert Q == P
    if polytope.dim(Q) >= 1:
        fresh = Polytope(P.ambient_dim, P.vertices)
        assert _facet_data(Q) == _facet_data(fresh)


def assert_inherits_at_every_depth(P):
    """P and every face of P, down to the vertices, hold the frame and facets
    a fresh polytope on the same vertices derives for itself."""
    fresh = Polytope(P.ambient_dim, P.vertices)
    assert _frame(P) == _frame(fresh)
    if polytope.dim(P) >= 1:
        assert _facet_data(P) == _facet_data(fresh)
        for _, F in facets(P):
            assert_inherits_at_every_depth(F)


ROOT2 = Scalar.sqrt_of(2)


@st.composite
def derived_from(draw):
    """A hull in R^2, R^3 or R^4 (flat in R^4, or sheared over Q(sqrt 2), in
    some draws), a cut through it, a translation and an SL matrix."""
    kind = draw(st.sampled_from(["cloud", "flat", "surd"]))
    n = 4 if kind == "flat" else draw(st.sampled_from([2, 3, 4]))
    coord = st.integers(-2, 2)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4, unique=True))
    points = as_scalars(raw)
    if kind == "flat":
        points = [p[:3] + [p[0] - 2 * p[1] + 1] for p in points]
    elif kind == "surd":
        points = [[x + ROOT2 * y for x, y in zip(p, p[1:] + [Scalar(0)])] for p in points]
    P = from_points(points)
    u = Vector(draw(st.tuples(*[coord] * n).filter(any)))
    values = [u.dot(v) for v in P.vertices]
    a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
    c = a + (b - a) * draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]))
    t = Vector(draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * n)))
    A = random_sl_matrix(draw(st.integers(0, 1000)), n, 4)
    return P, Halfspace(u, c), t, A


@given(derived_from())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_derived_face_data_equals_a_fresh_pass(case):
    P, H, t, A = case
    assert_inherits_at_every_depth(P)
    for near, far in ((H, H.complement()), (H.complement(), H)):
        Q = clip(P, near)
        if not Q.is_empty:
            assert_inherits_at_every_depth(Q)
            # the face that the opposite cut leaves on the cut hyperplane
            face = clip(Q, far)
            if not face.is_empty:
                assert_inherits_at_every_depth(face)
    assert_inherits_at_every_depth(translate(P, t))
    assert_inherits_at_every_depth(transform(A, P))


def test_derived_polytopes_are_handed_their_facets():
    """Clips through the interior, a translate and an SL image come with
    their facets; the cut that leaves a facet returns that facet.

    The cut x + y + z <= 1 passes through three vertices of the cube, and
    each of the facets x = 1, y = 1 and z = 1 meets it in one vertex only,
    which makes no facet of the cut."""
    cube = from_points([Vector(p) for p in product(range(2), repeat=3)])
    derived = [clip(cube, Halfspace(Vector([1, 1, 1]), c)) for c in (Fraction(3, 2), 1)]
    derived += [translate(cube, Vector([1, 0, -1])), transform(random_sl_matrix(5, 3, 4), cube)]
    for Q in derived:
        assert Q._facets is not None
        assert _facet_data(Q) == _facet_data(Polytope(3, Q.vertices))
    assert len(_facet_data(derived[1])) == 4
    top = clip(cube, Halfspace(Vector([0, 0, -1]), -1))
    assert top._parent is not None and top._facets is None
    assert top == from_points([Vector([x, y, 1]) for x in range(2) for y in range(2)])


def count_passes(monkeypatch):
    calls = []
    real = polytope._supporting

    def counting(coords, k):
        calls.append(k)
        return real(coords, k)

    monkeypatch.setattr(polytope, "_supporting", counting)
    return calls


def test_derived_polytopes_run_no_hull_pass(monkeypatch):
    """Only from_points runs a double-description pass.  A slab split of a
    polytope over Q(sqrt 2) checked by inclusion-exclusion, and the volume
    of the unit 4-cube, whose faces are cubes at every depth, run none."""
    calls = count_passes(monkeypatch)
    rng = random.Random(8)
    while True:
        points = [Vector([Scalar(rng.randint(-3, 3)) + ROOT2 * rng.randint(-2, 2)
                          for _ in range(3)]) for _ in range(6)]
        P = from_points(points)
        if polytope.dim(P) == 3:
            break
    u = Vector([1, -2, 1])
    values = [u.dot(v) for v in P.vertices]
    low, high = min(values), max(values)
    c1, c2 = low + (high - low) * Fraction(1, 4), low + (high - low) * Fraction(5, 8)
    calls.clear()
    slabs = [clip(P, Halfspace(u, c1)),
             clip(clip(P, Halfspace(-u, -c1)), Halfspace(u, c2)),
             clip(P, Halfspace(-u, -c2))]
    V = ClassifiedValuation(Scalar(1), Scalar(2), Scalar(4), psi=RationalPart(), phi=Linear(5))
    assert evaluate_union(V, slabs) == evaluate(V, P)
    assert calls == []

    cube = from_points([Vector(p) for p in product(range(2), repeat=4)])
    # uncached, so that the recursion over every face runs here
    assert volume.__wrapped__(cube) == Scalar(1)
    assert calls == [4]


def test_flat_and_low_dimensional_derivations_run_no_hull_pass(monkeypatch):
    """A clip of a flat square in R^3, its SL image, a clip of a segment and
    a translate of a facet not yet derived are handed their face data, so
    only from_points runs a pass.  The cut x + y + z <= 4 is x + y <= 3 on
    the square's plane z = 1, and the cut x + 2y <= 3 is x <= 1 on the
    segment's line y = x: a cut is restricted to the affine hull before it
    becomes a facet."""
    calls = count_passes(monkeypatch)
    square = from_points([Vector([x, y, 1]) for x in (0, 2) for y in (0, 2)])
    segment = from_points([Vector([0, 0]), Vector([2, 2])])
    cube = from_points([Vector(p) for p in product(range(2), repeat=3)])
    calls.clear()
    cut = clip(square, Halfspace(Vector([1, 1, 0]), 3))
    derived = [
        cut,
        clip(square, Halfspace(Vector([1, 1, 1]), 4)),
        transform(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), cut),
        clip(segment, Halfspace(Vector([1, 2]), 3)),
        translate(facets(cube)[0][1], Vector([Fraction(1, 2), 0, 3])),
    ]
    records = [_facet_data(Q) for Q in derived]
    assert calls == []
    assert derived[0] == derived[1] and len(records[0]) == 5
    assert derived[3] == from_points([Vector([0, 0]), Vector([1, 1])])
    for Q, record in zip(derived, records):
        assert Q == from_points(Q.vertices)
        assert record == _facet_data(Polytope(Q.ambient_dim, Q.vertices))


def test_a_point_has_no_facets():
    point = from_points([Vector([1, 2, 3])] * 2)
    assert point.vertices == (Vector([1, 2, 3]),)
    assert facets(point) == () and _facet_data(point) == ()
    (_, end), _ = facets(from_points([Vector([0, 0]), Vector([2, 2])]))
    assert facets(end) == () and polytope.contains(end, Vector([0, 0]))


def test_intersect_skips_the_facets_of_its_operand(monkeypatch):
    """Two slabs of a square meet in their common edge; of the second
    slab's four facets, two are facets of the first and cannot cut it."""
    square = from_points([Vector([x, y]) for x in (0, 2) for y in (0, 2)])
    left = clip(square, Halfspace(Vector([1, 0]), 1))
    right = clip(square, Halfspace(Vector([-1, 0]), -1))
    calls = []
    real = polytope.clip

    def counting(P, H):
        calls.append(H)
        return real(P, H)

    monkeypatch.setattr(polytope, "clip", counting)
    assert polytope.intersect(left, right) == from_points([Vector([1, 0]), Vector([1, 2])])
    assert len(calls) == 2
