"""Differential tests of the double-description hull against Fraction oracles.

The oracles in `oracles.py` share no code with `polytope`: the facets
come from testing the hyperplane through every k-subset of the points, and
the frame from the reduced echelon form of the differences v - v0.  The
pass yields both from one elimination.  Clips through the interior, clips
that leave a facet and translates are handed their face data instead of
running the pass; facets, smaller faces a clip leaves and SL images run
their own.  The tests compare each with a fresh pass on the same vertices
and count the passes run and the eliminations.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slval import linalg, polytope
from slval.exactnum import Scalar, _integer_rows
from slval.linalg import Matrix, Vector, random_sl_matrix
from slval.polytope import (
    Halfspace,
    Polytope,
    _facet_data,
    _frame,
    _hull,
    _supporting,
    clip,
    facets,
    from_points,
    transform,
    translate,
)
from slval.triangulate import volume
from slval.valuation import evaluate, evaluate_union

from oracles import affine_frame, extreme_indices, facets_by_subsets, reference_frame
from records import indices, scalar_facet_data, scalar_frame, supporting
from splits import SLAB_VALUATION, surd_slabs

ROOT2 = Scalar.sqrt_of(2)


def as_scalars(points):
    return [[Scalar(x) for x in p] for p in points]


def run_pass(points):
    """{incident: (w, c)} of one pass on rows of Scalars, in Scalars."""
    ints, L, d = _integer_rows(points)
    return supporting(_supporting(ints, L, d)[1], d)


def as_fractions(found):
    out = {}
    for incident, (w, c) in found.items():
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
    assert as_fractions(run_pass(as_scalars(points))) == facets_by_subsets(points, k)
    assert_handover_matches_fresh(from_points(as_scalars(points)))


def assert_handover_matches_fresh(P):
    """The frame and facets of P, handed over by from_points or derived,
    equal what a fresh polytope on the same vertices derives for itself."""
    fresh = Polytope(P.ambient_dim, P.vertices)
    assert fresh._hull is None
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


def test_five_cube_combines_only_adjacent_rays():
    """{+-1}^5 has the 10 facets x_i = +-1.  Two rays whose common tight set
    has at least k - 1 = 4 points but lies in a third ray's are not
    adjacent; combined anyway, they give 20."""
    points = list(product((-1, 1), repeat=5))
    found = run_pass(as_scalars(points))
    expected = {frozenset(j for j, p in enumerate(points) if p[i] == s)
                for i in range(5) for s in (-1, 1)}
    assert set(found) == expected


def test_boundary_points_in_r4_combine_only_adjacent_rays():
    """13 distinct points of {-2, 0, 2}^4, one of them, (-2, 0, 0, 2), on
    the boundary but not a vertex: 22 facets, where combining every pair of
    rays with at least 3 common tight points gives 23.  So up to n = 4 that
    count alone does not make two rays adjacent once points lie on the
    boundary."""
    rng = random.Random(4)
    draws = [tuple(rng.choice((-2, 0, 2)) for _ in range(4)) for _ in range(14)]
    points = list(dict.fromkeys(draws))
    assert len(points) == 13 and len(facets_by_subsets(points, 4)) == 22
    assert_matches_oracle(points, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frame_matches_the_reference(n):
    """The frame the pass reads off the identity block of its elimination
    is the pivot columns of the reduced echelon form of v - v0 and the
    kernel equalities that are 1 on their free column, at every rank
    k <= n, single points included."""
    rng = random.Random(700 + n)
    ranks = set()
    for k in range(n + 1):
        for _ in range(8):
            embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            low = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
                   for _ in range(k + 3 if k else 1)]
            points = [tuple(sum((e * x for e, x in zip(row, p)), s) for row, s in zip(embed, shift))
                      for p in low]
            pivots, equalities = scalar_frame(Polytope(n, map(Vector, points)))
            assert (pivots, [(tuple(x.a for x in w), b.a) for w, b in equalities]) == \
                reference_frame(points)
            ranks.add(len(pivots))
    assert ranks == set(range(n + 1))


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
        P = assert_handover_matches_fresh(from_points(as_scalars(points)))
        assert set(P.vertices) == {Vector(points[i]) for i in extreme_indices(points)}

        rank, frame = affine_frame([tuple(c.a for c in v) for v in P.vertices])
        assert rank == k
        items = scalar_facet_data(P)
        assert {incident for _, incident in items} == set(facets_by_subsets(frame, k))
        for h, incident in items:
            assert_tight_exactly_on(P.vertices, h.normal, h.offset, incident)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("k", [2, 3, 4])
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
        found = run_pass(image)
        assert set(found) == set(facets_by_subsets(points, k))
        vectors = [Vector(p) for p in image]
        for incident, (w, c) in found.items():
            last = next(x for x in reversed(w.coords) if not x.is_zero())
            assert abs(last) == 1
            assert_tight_exactly_on(vectors, w, c, incident)
        assert_handover_matches_fresh(from_points(image))
        checked += 1
    assert checked > 0


def count_eliminations(monkeypatch):
    calls = []
    for module in (linalg, polytope):
        real = module._eliminate

        def counting(rows, d, real=real):
            calls.append(len(rows))
            return real(rows, d)

        monkeypatch.setattr(module, "_eliminate", counting)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_images_eliminate_once_and_run_their_own_pass(monkeypatch, n):
    """transform eliminates once, on A's integer rows, to refuse a singular
    A, and builds bare points.  The image of a full-dimensional polytope
    and that of a flat one, here in the hyperplane x_1 = x_2 + 1, then
    derive their frame and facets by one pass, which eliminates once, on
    the n + 1 rows of its homogenized coordinates, as a fresh polytope
    does."""
    rng = random.Random(600 + n)
    full = from_points(as_scalars(symmetric_cloud(rng, n, 2 * n + 4)))
    lifted = [(p[1] + 1,) + p[1:] for p in symmetric_cloud(rng, n, 2 * n + 4)]
    flat = from_points(as_scalars(lifted))
    assert polytope.dim(full) == n and polytope.dim(flat) == n - 1
    A = random_sl_matrix(n, n, 3 * n)
    calls = count_eliminations(monkeypatch)
    passes = count_passes(monkeypatch)
    for P, k in ((full, n), (flat, n - 1)):
        calls.clear()
        passes.clear()
        image = transform(A, P)
        assert calls == [n] and passes == []
        assert image._hull is None
        _facet_data(image)
        assert calls == [n, n + 1] and passes == [k]
        assert polytope.dim(image) == k
        assert_handover_matches_fresh(image)


def test_transform_rejects_a_singular_matrix():
    """A singular A is refused whether or not P has points."""
    A = Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    cube = from_points([Vector(p) for p in product(range(2), repeat=3)])
    for P in (Polytope.empty(3), cube):
        with pytest.raises(ValueError):
            transform(A, P)


def test_hull_cost_does_not_grow_with_subsets(monkeypatch):
    """A 40-point cloud in R^3 has C(40, 3) = 9880 point triples; the hull
    eliminates once, on [X | I], which yields the frame, picks the starting
    simplex and yields the facets of that simplex."""
    calls = []
    real = polytope._eliminate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "_eliminate", counting)
    points = symmetric_cloud(random.Random(3), 3, 40, bound=20)
    assert len(points) == 40
    P = from_points(as_scalars(points))
    assert len(P.vertices) > 3
    assert len(calls) == 1


def test_far_first_insertion_combines_few_rays(monkeypatch):
    """Inserted in index order, the sorted points of this 40-point planar
    cloud each lie outside the hull so far, and the pass combines 66 ray
    pairs to find 12 edges; inserted far first, it combines 26."""
    calls = []
    real = polytope._combine

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "_combine", counting)
    points = symmetric_cloud(random.Random(3), 2, 40, bound=20)
    P = from_points(as_scalars(points))
    assert len(P.vertices) == 12
    assert len(calls) <= 30


@st.composite
def shuffled_point_sets(draw):
    """Points in R^2, R^3 or R^4 over Q or Q(sqrt 2): a full-dimensional
    cloud, a flat set in the hyperplane x_n = x_1 - x_2 + 1, or a sample of
    {-1, 0, 1}^n with many coplanar points; and a shuffle of them."""
    n = draw(st.sampled_from([2, 3, 4]))
    shape = draw(st.sampled_from(["cloud", "flat", "coplanar"]))
    coord = st.integers(-1, 1) if shape == "coplanar" else st.integers(-3, 3)
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=2, max_size=n + 8, unique=True))
    if shape == "flat":
        raw = [p[:-1] + (p[0] - p[1] + 1,) for p in raw]
    points = as_scalars(raw)
    if draw(st.booleans()):
        points = [[x + ROOT2 * y for x, y in zip(p, p[1:] + [Scalar(0)])] for p in points]
    return points, draw(st.permutations(points))


@given(shuffled_point_sets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hull_does_not_depend_on_input_order(case):
    """from_points on a shuffle of its input gives the same vertices and
    facet record.  The constructor sorts the points before the pass, so
    the pass is also run on shuffled points directly: the insertion order,
    seed simplex included, changes with the shuffle through the ties of the
    far-first key, and neither the frame nor the facets may."""
    points, shuffled = case
    P, Q = from_points(points), from_points(shuffled)
    assert Q.vertices == P.vertices
    assert _facet_data(Q) == _facet_data(P)
    raw = Polytope(P.ambient_dim, [Vector(p) for p in points]).vertices
    order = [raw.index(Vector(p)) for p in dict.fromkeys(map(tuple, shuffled))]
    frame, moved = _supporting(*_integer_rows([raw[i] for i in order]))
    renumbered = {sum(1 << order[j] for j in indices(z)): h for z, h in moved.items()}
    assert (frame, renumbered) == _supporting(*_integer_rows(raw))


@pytest.mark.parametrize("n, m", [(3, 40), (4, 20)])
def test_hull_pass_builds_scalars_only_for_its_output(monkeypatch, n, m):
    """The pass runs on integers and hands over a record of integer rows:
    it builds no Scalar.  The count was 10,866 (n = 3) and 9,653 (n = 4)
    when the pass ran on Scalars, and at most 1,500 when it built Scalars
    for its frame and facets."""
    calls = []
    real = Scalar._make.__func__

    def counting(cls, *args):
        calls.append(args)
        return real(cls, *args)

    points = as_scalars(symmetric_cloud(random.Random(3), n, m, bound=20))
    monkeypatch.setattr(Scalar, "_make", classmethod(counting))
    P = from_points(points)
    assert len(_facet_data(P)) > n
    assert calls == []


def test_one_hull_pass_serves_every_query(monkeypatch):
    """from_points hands its result the facets its own pass found, so no
    query on the result runs a second pass."""
    calls = count_passes(monkeypatch)
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
    G = Halfspace(-H.normal, -H.offset)
    for near, far in ((H, G), (G, H)):
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
    """Clips through the interior, a translate and the cut that leaves a
    facet come with their facets; an SL image and the faces that `facets`
    builds are bare points.

    The cut x + y + z <= 1 passes through three vertices of the cube, and
    each of the facets x = 1, y = 1 and z = 1 meets it in one vertex only,
    which makes no facet of the cut."""
    cube = from_points([Vector(p) for p in product(range(2), repeat=3)])
    derived = [clip(cube, Halfspace(Vector([1, 1, 1]), c)) for c in (Fraction(3, 2), 1)]
    derived.append(translate(cube, Vector([1, 0, -1])))
    top = clip(cube, Halfspace(Vector([0, 0, -1]), -1))
    derived.append(top)
    for Q in derived:
        assert Q._hull is not None
        assert _hull(Q) == _hull(Polytope(3, Q.vertices))
    assert len(_facet_data(derived[1])) == 4
    assert top == from_points([Vector([x, y, 1]) for x in range(2) for y in range(2)])
    assert len(_facet_data(top)) == 4
    image = transform(random_sl_matrix(5, 3, 4), cube)
    assert image == from_points(image.vertices)
    for Q in (image, *(F for _, F in facets(cube))):
        assert Q._hull is None


def assert_facets_handed_fresh_records(P):
    """Each facet of P, left by the clip to its reversed halfspace, is
    handed its record, and that record equals a fresh pass on a bare
    copy."""
    clipped = [clip(P, Halfspace(-H.normal, -H.offset)) for H, _ in facets(P)]
    assert clipped == [F for _, F in facets(P)]
    for F in clipped:
        assert F._hull is not None
        assert _hull(F) == _hull(Polytope._of(F.ambient_dim, F._rows, F._L, F._d))
    return clipped


def test_facet_handover_clears_the_later_equalities():
    """The square [0, 1]^2 lifted to the plane z = x + y in R^3: its frame
    equality -x - y + z = 0 is nonzero on the last column of every facet
    row (x or y), so each handed facet clears it there.  The facet y = 1
    keeps z = x + 1, 0 on the new free column y."""
    P = from_points([Vector([x, y, x + y]) for x in range(2) for y in range(2)])
    (equality,) = _frame(P)[1]
    assert all(equality[polytope._last(row)] != (0, 0) for row, _ in _facet_data(P))
    clipped = assert_facets_handed_fresh_records(P)
    edge = from_points([Vector([0, 1, 1]), Vector([1, 1, 2])])
    (F,) = [F for F in clipped if F == edge]
    assert _frame(F) == ((0,), (((0, 0), (1, 0), (0, 0), (1, 0)), ((-1, 0), (0, 0), (1, 0), (1, 0))))


def test_facet_handover_of_a_segment_is_a_point():
    segment = from_points([Vector([0, 0]), Vector([2, 2])])
    for F in assert_facets_handed_fresh_records(segment):
        assert len(F.vertices) == 1 and _facet_data(F) == ()


def test_facet_handover_over_q_sqrt2():
    """A 3-polytope over Q(sqrt 2) whose facets are polygons with surd
    edge rows."""
    P, _ = surd_slabs(3)
    clipped = assert_facets_handed_fresh_records(P)
    assert any(b for F in clipped for row, _ in _facet_data(F) for _, b in row)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_facet_handovers_equal_fresh_passes(n):
    """Every facet of seeded hulls in R^n, full-dimensional, flat (in the
    hyperplane x_n = x_1 - 2 x_2 + 1, or x_2 = x_1 + 1 in R^2) or sheared
    over Q(sqrt 2)."""
    rng = random.Random(800 + n)
    checked = 0
    for kind in ("cloud", "flat", "surd") * 4:
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 4)]
        points = as_scalars(raw)
        if kind == "flat" and n > 1:
            points = [p[:-1] + [p[0] - 2 * p[1] + 1 if n > 2 else p[0] + 1] for p in points]
        elif kind == "surd":
            points = [[x + ROOT2 * y for x, y in zip(p, p[1:] + [Scalar(0)])] for p in points]
        checked += len(assert_facets_handed_fresh_records(from_points(points)))
    assert checked > 0


def count_passes(monkeypatch):
    """The dimension of the points of every pass run from now on."""
    calls = []
    real = polytope._supporting

    def counting(*args):
        frame, found = real(*args)
        calls.append(len(frame[0]))
        return frame, found

    monkeypatch.setattr(polytope, "_supporting", counting)
    return calls


def test_derived_polytopes_run_no_hull_pass(monkeypatch):
    """Only from_points runs a double-description pass.  Slabs cut from a
    polytope over Q(sqrt 2), valued one by one, and the volume of the unit
    4-cube, whose faces are cubes at every depth, run none: the volume reads
    only the cube's own record, from the one pass of its from_points."""
    calls = count_passes(monkeypatch)
    _, slabs = surd_slabs()
    calls.clear()
    for slab in slabs:
        assert slab._hull is not None
        evaluate(SLAB_VALUATION, slab)
    assert calls == []

    cube = from_points([Vector(p) for p in product(range(2), repeat=4)])
    # uncached, so that the recursion over every face runs here
    assert volume.__wrapped__(cube) == Scalar(1)
    assert calls == [4]


def test_slab_union_runs_no_hull_pass(monkeypatch):
    """Checked by inclusion-exclusion, the slab splits in R^2 and R^3 run no
    pass: the meets of adjacent slabs, segments and polygons, are facets
    that a clip leaves and is handed; the meet of the outer slabs is
    empty."""
    calls = count_passes(monkeypatch)
    for n in (2, 3):
        P, slabs = surd_slabs(n)
        calls.clear()
        assert evaluate_union(SLAB_VALUATION, slabs) == evaluate(SLAB_VALUATION, P)
        assert calls == []


def test_flat_and_low_dimensional_derivations_run_no_hull_pass(monkeypatch):
    """Clips of a flat square in R^3 and of a segment, and a translate of a
    facet, are handed their face data, so only from_points and the facet's
    own pass run one.  The cut x + y + z <= 4 is x + y <= 3 on the square's
    plane z = 1, and the cut x + 2y <= 3 is x <= 1 on the segment's line
    y = x: a cut is restricted to the affine hull before it becomes a
    facet."""
    calls = count_passes(monkeypatch)
    square = from_points([Vector([x, y, 1]) for x in (0, 2) for y in (0, 2)])
    segment = from_points([Vector([0, 0]), Vector([2, 2])])
    cube = from_points([Vector(p) for p in product(range(2), repeat=3)])
    facet = facets(cube)[0][1]
    calls.clear()
    _facet_data(facet)
    assert calls == [2]
    calls.clear()
    derived = [
        clip(square, Halfspace(Vector([1, 1, 0]), 3)),
        clip(square, Halfspace(Vector([1, 1, 1]), 4)),
        clip(segment, Halfspace(Vector([1, 2]), 3)),
        translate(facet, Vector([Fraction(1, 2), 0, 3])),
    ]
    records = [_facet_data(Q) for Q in derived]
    assert calls == []
    assert derived[0] == derived[1] and len(records[0]) == 5
    assert derived[2] == from_points([Vector([0, 0]), Vector([1, 1])])
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
    real = polytope._clip

    def counting(P, row, e):
        calls.append(row)
        return real(P, row, e)

    monkeypatch.setattr(polytope, "_clip", counting)
    assert polytope.intersect(left, right) == from_points([Vector([1, 0]), Vector([1, 2])])
    assert len(calls) == 2
