"""Independent geometry oracles used to pin expected test values.

Everything here works on tuples of Fractions and never touches the package
under test, so derived constants in the test suite come from a second,
unrelated computation.  The plane helpers use a monotone chain; the
facet oracle for any dimension is the brute-force scan over all k-subsets
of the points, with its own Gaussian elimination, and the frame oracle,
`reference_frame`, is the reduced echelon form of the differences
v - v0.  `reference_intersect` meets two hulls by solving every n-subset
of the hyperplanes of both H-representations these give.  `rref_root2` is a
Gauss-Jordan over Q(sqrt 2) on Fraction pairs, the oracle of the
fraction-free elimination in `linalg`, and `det_root2` is the Leibniz
determinant over Q(sqrt 2), which eliminates nothing.  `surd_sign` reads
the sign of A + B*sqrt(d) off one integer square root.
`inclusion_exclusion` sums a value over all 2^m - 1 index subsets of a
cover; the meet and the value are the caller's.

`reference_clip`, `pyramid_volume`, `reference_parse`, the Scalar route
of the fit and the former read path at the end of the file are the
exceptions.  The first is the
differential oracle of the clip in `slval.polytope`, which reads signs and
crossing points off integer pairs.  It reads the package's facet record the
same way, but takes every excess and crossing point in `Scalar` arithmetic
and builds the polytopes it makes from their Vectors by `records.bare`,
with no hull pass.  The
second is the other volume route beside `slval.triangulate`, which sums
pair determinants over the pulling cells it finds on facet bitmasks: it
recurses over the facets as polytopes, each with its own frame and facet
record, and sums heights times facet volumes in `Scalar`s.  The third is
the oracle of `Scalar.parse`, which reads its integer triple straight off
the text: it reads both coefficients as `Fraction`s and builds the value
through the public `Scalar` constructor.  The read path of `slval valuate`
that `slval.polytope.from_json` replaced, `scalar_from_json`, and a second
writing of the hull pass, `dot_supporting`, which skips the points strictly
inside its seed simplex, are the oracles of the integer read path and of
the hull pass.
"""

import re
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, isqrt


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Extreme points in counterclockwise order (Andrew monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def shoelace_area(points):
    """Area of the hull of the given points."""
    ring = hull2d(points)
    if len(ring) < 3:
        return Fraction(0)
    acc = Fraction(0)
    for i, (x0, y0) in enumerate(ring):
        x1, y1 = ring[(i + 1) % len(ring)]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2


def in_hull2d(points, q):
    """Exact membership of q in the hull of the given points."""
    ring = hull2d(points)
    if not ring:
        return False
    if len(ring) == 1:
        return q == ring[0]
    if len(ring) == 2:
        a, b = ring
        if _cross(a, b, q) != 0:
            return False
        lo = (min(a[0], b[0]), min(a[1], b[1]))
        hi = (max(a[0], b[0]), max(a[1], b[1]))
        return lo[0] <= q[0] <= hi[0] and lo[1] <= q[1] <= hi[1]
    for i, p in enumerate(ring):
        if _cross(p, ring[(i + 1) % len(ring)], q) < 0:
            return False
    return True


def _rref(rows):
    """Reduced row echelon form over Fractions and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref_root2(rows):
    """Reduced row echelon form over Q(sqrt 2) and its pivot columns.

    An entry is a pair (a, b) of Fractions meaning a + b*sqrt(2); a
    rational matrix has every b = 0.  Plain Gauss-Jordan with field
    division: each pivot row is divided by its pivot as soon as it is
    chosen.  Zero rows end up last.
    """
    def mul(x, y):
        return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inverse(x):
        norm = x[0] * x[0] - 2 * x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    zero = (Fraction(0), Fraction(0))
    rows = [[(Fraction(a), Fraction(b)) for a, b in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        scale = inverse(rows[r][c])
        rows[r] = [mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [(x[0] - g[0], x[1] - g[1])
                           for x, g in zip(rows[i], (mul(f, y) for y in rows[r]))]
        pivots.append(c)
        r += 1
    return rows, pivots


def det_root2(rows):
    """Determinant over Q(sqrt 2) of a square matrix of pairs (a, b) of
    Fractions, meaning a + b*sqrt(2): the Leibniz sum over permutations,
    each signed by the parity of its inversions."""
    n = len(rows)
    total = (Fraction(0), Fraction(0))
    for perm in permutations(range(n)):
        term = (Fraction(1), Fraction(0))
        for i, j in enumerate(perm):
            a, b = rows[i][j]
            term = (term[0] * a + 2 * term[1] * b, term[0] * b + term[1] * a)
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        sign = -1 if inversions % 2 else 1
        total = (total[0] + sign * term[0], total[1] + sign * term[1])
    return total


def surd_sign(A, B, d):
    """Sign of A + B*sqrt(d) for ints A, B and a squarefree d >= 2, read off
    s = isqrt(d B^2): sqrt(d B^2) is irrational for B != 0, so it lies
    strictly between s and s + 1, and the integer A clears -B*sqrt(d) iff it
    clears -s (B > 0) or s + 1 (B < 0).  No square of A is compared."""
    if B == 0:
        return (A > 0) - (A < 0)
    s = isqrt(d * B * B)
    if B > 0:
        return 1 if A >= -s else -1
    return 1 if A >= s + 1 else -1


def reference_frame(points):
    """(pivots, equalities) of the affine hull of rational points: the pivot
    columns of the reduced echelon form of the differences v - v0, and per
    free column f the equality (w, b), <w, x> = b on the hull, with w in the
    kernel of the differences, 1 on f and 0 on the other free columns."""
    base = [Fraction(x) for x in points[0]]
    deltas = [[Fraction(x) - b for x, b in zip(p, base)] for p in points[1:]]
    reduced, pivots = _rref(deltas) if deltas else ([], [])
    equalities = []
    for f in range(len(base)):
        if f in pivots:
            continue
        w = [Fraction(int(c == f)) for c in range(len(base))]
        for r, c in enumerate(pivots):
            w[c] = -reduced[r][f]
        equalities.append((tuple(w), sum(a * b for a, b in zip(w, base))))
    return tuple(pivots), equalities


def affine_frame(points):
    """Rank k of the points and their images under an injective affine map
    of their affine hull onto Q^k (projection to the pivot coordinates of
    the difference vectors)."""
    pivots, _ = reference_frame(points)
    return len(pivots), [tuple(Fraction(p[c]) for c in pivots) for p in points]


def facets_by_subsets(coords, k):
    """{incident index frozenset: (w, c)} for the facets of full-rank
    points in Q^k, found by testing the hyperplane through every k-subset.

    <w, x> <= c holds on every point; w is scaled positively so that its
    last nonzero coordinate is +-1.  A point (k = 0) has none.
    """
    pts = [tuple(Fraction(x) for x in p) for p in coords]
    found = {}
    for subset in combinations(range(len(pts)), k) if k else ():
        first = pts[subset[0]]
        rows = [[x - f for x, f in zip(pts[i], first)] for i in subset[1:]]
        reduced, pivots = _rref(rows) if rows else ([], [])
        free = [c for c in range(k) if c not in pivots]
        if len(free) != 1:
            continue
        w = [Fraction(0)] * k
        w[free[0]] = Fraction(1)
        for r, pc in enumerate(pivots):
            w[pc] = -reduced[r][free[0]]
        c = sum(a * b for a, b in zip(w, first))
        signs = [(sum(a * b for a, b in zip(w, p)) - c) for p in pts]
        if any(s > 0 for s in signs) and any(s < 0 for s in signs):
            continue
        if any(s > 0 for s in signs):
            w, c = [-a for a in w], -c
        last = next(a for a in reversed(w) if a != 0)
        w, c = tuple(a / abs(last) for a in w), c / abs(last)
        incident = frozenset(i for i, s in enumerate(signs) if s == 0)
        found.setdefault(incident, (w, c))
    return found


def extreme_indices(points):
    """Indices of the vertices of the hull: a point is a vertex iff the
    facets through it meet in no other point."""
    k, coords = affine_frame(points)
    facets = facets_by_subsets(coords, k)
    everything = frozenset(range(len(points)))
    out = set()
    for i in range(len(points)):
        face = everything
        for incident in facets:
            if i in incident:
                face &= incident
        if face == {i}:
            out.add(i)
    return out


def halfspaces(points):
    """The H-representation of the hull of rational points in Q^n, as
    (w, c) meaning <w, x> <= c: each frame equality of `reference_frame`
    both ways, and each facet of the subset scan on the pivot coordinates,
    lifted to Q^n with zeros off the pivot columns."""
    n = len(points[0])
    pivots, equalities = reference_frame(points)
    coords = [tuple(Fraction(p[c]) for c in pivots) for p in points]
    out = [h for w, b in equalities for h in ((w, b), (tuple(-a for a in w), -b))]
    for w, c in facets_by_subsets(coords, len(pivots)).values():
        lift = [Fraction(0)] * n
        for col, a in zip(pivots, w):
            lift[col] = a
        out.append((tuple(lift), c))
    return out


def reference_intersect(p, q):
    """Vertices of conv(p) meet conv(q) for rational point lists p and q in
    Q^n, as a set of Fraction tuples: the feasible solutions of every
    nonsingular n x n system drawn from both H-representations, cut down
    to the extreme ones."""
    n = len(p[0])
    rows = halfspaces(p) + halfspaces(q)
    found = set()
    for subset in combinations(range(len(rows)), n):
        reduced, pivots = _rref([list(rows[i][0]) + [rows[i][1]] for i in subset])
        if pivots != list(range(n)):
            continue
        x = tuple(row[n] for row in reduced)
        if all(sum(a * b for a, b in zip(w, x)) <= c for w, c in rows):
            found.add(x)
    points = sorted(found)
    return {points[i] for i in extreme_indices(points)} if points else set()


def inclusion_exclusion(parts, meet, value):
    """Value of the union of parts: the sum over every nonempty index subset
    I of (-1)^(|I|+1) times the value of the meet of the parts in I, taken
    in index order and from scratch for each I.  An empty meet must have
    value 0."""
    total = 0
    for size in range(1, len(parts) + 1):
        for subset in combinations(range(len(parts)), size):
            piece = parts[subset[0]]
            for i in subset[1:]:
                piece = meet(piece, parts[i])
            term = value(piece)
            total = total + term if size % 2 else total - term
    return total


def reference_clip(P, H):
    """P cut down to the halfspace H, with Scalar excesses and crossings."""
    from slval.exactnum import _integer_rows, _merge_discriminants
    from slval.polytope import (Polytope, _facet_data, _fill_hull, _frame, _restricted,
                                field_discriminant)
    from records import bare

    n = P.ambient_dim
    if P.is_empty:
        return P
    excesses = [H.normal.dot(v) - H.offset for v in P.vertices]
    signs = [e.sign() for e in excesses]
    if all(s <= 0 for s in signs):
        return P
    kept = [i for i, s in enumerate(signs) if s <= 0]
    if not kept:
        return Polytope.empty(n)
    if all(signs[i] == 0 for i in kept):
        return bare(n, [P.vertices[i] for i in kept])
    # incident vertex bitmasks of the record as index sets, and back
    data = [(h, {i for i in range(z.bit_length()) if z >> i & 1}) for h, z in _facet_data(P)]
    mask = lambda indices: sum(1 << q for q in set(indices))
    everything = frozenset(range(len(signs)))
    crossing = []
    through = []
    for i, j in combinations(range(len(signs)), 2):
        if signs[i] * signs[j] >= 0:
            continue
        shared = [g for g, (_, inc) in enumerate(data) if i in inc and j in inc]
        if len(everything.intersection(*(data[g][1] for g in shared))) != 2:
            continue
        through.append(shared)
        vi, vj = P.vertices[i], P.vertices[j]
        t = excesses[i] / (excesses[i] - excesses[j])
        crossing.append(vi + (vj - vi).scale(t))
    Q = bare(n, [P.vertices[i] for i in kept] + crossing)
    position = {v: q for q, v in enumerate(Q.vertices)}
    new = [position[v] for v in crossing]
    on = [[] for _ in data]
    for q, shared in zip(new, through):
        for g in shared:
            on[g].append(q)
    items = [
        (h, mask([position[P.vertices[i]] for i in incident if signs[i] <= 0] + on[g]))
        for g, (h, incident) in enumerate(data)
        if any(signs[i] < 0 for i in incident)
    ]
    cut = [position[P.vertices[i]] for i in kept if signs[i] == 0]
    (row,), _, e = _integer_rows([H.normal.coords + (H.offset,)])
    d = _merge_discriminants(field_discriminant(P), e)
    items.append((_restricted(_frame(P), row, d), mask(cut + new)))
    _fill_hull(Q, _frame(P), items)
    return Q


def pyramid_volume(P):
    """(vol_k P in P's pivot coordinates, k = dim P, and the number of
    simplex leaves) by pyramid recursion with apex a, the first vertex
    (Lasserre, JOTA 39, 1983): vol_k P = (1/k) * the sum over the facets F
    not through a of (c_F - <w_F, a>) * vol_{k-1} F, every facet taken in
    its own frame and facet record.  A simplex ends the recursion with the
    |det| / k! of its edge vectors on the pivot columns; the leaves are the
    cells of the pulling triangulation from the first vertex."""
    from slval.linalg import Matrix, det
    from slval.polytope import _facet_data, _frame, facets

    pivots = _frame(P)[0]
    k = len(pivots)
    first, *rest = [[v[c] for c in pivots] for v in P.vertices]
    if len(rest) == k:
        edges = Matrix([[x - x0 for x, x0 in zip(p, first)] for p in rest])
        return abs(det(edges)) / factorial(k), 1
    a = P.vertices[0]
    total, leaves = 0, 0
    for (_, z), (h, F) in zip(_facet_data(P), facets(P)):
        if not z & 1:
            vol, count = pyramid_volume(F)
            total = total + (h.offset - h.normal.dot(a)) * vol
            leaves += count
    return total / k, leaves


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<a>{_RATIONAL})(?:(?P<sign>[+-])(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?\Z", re.ASCII
)


def reference_parse(text):
    """The Scalar a or a +- b*sqrt(d) that `text` spells, through Fractions."""
    from slval.exactnum import Scalar, ScalarParseError

    m = _SCALAR_RE.match(text)
    if m is None:
        raise ScalarParseError(f"bad scalar literal: {text!r}")
    try:
        a, b = Fraction(m.group("a")), Fraction(m.group("b")) if m.group("b") else 0
        return Scalar(a, -b if m.group("sign") == "-" else b, int(m.group("d") or 0))
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in scalar literal: {text!r}") from None
    except ValueError as exc:
        raise ScalarParseError(str(exc)) from None


# -- the Scalar route of the fit ------------------------------------------
#
# The fit path of `slval` draws int tuples, keeps each polytope's basis on
# integers and solves the probe system with one fraction-free elimination.
# What follows is the route it replaced, in Vectors and Scalars: the same
# rng draws turned into Vectors, an interior point weighted in Fractions,
# the five basis values assembled in Scalars on every read, and the probe
# system solved as a Matrix on the whole reduced echelon form, of which
# `linalg._solve` reads only the last column.  It builds on the package's
# public Vector and Scalar constructors, its cell sums and its elimination,
# like `reference_clip`.


def reduced_echelon(rows):
    """Reduced echelon form (zero rows last) and pivot columns of rows of
    Scalars: the `_eliminate` form of the rows scaled to integers, divided
    by D."""
    from slval.exactnum import ZERO, _integer_rows
    from slval.linalg import _eliminate, _over

    ints, _, d = _integer_rows(rows)
    reduced, pivots, _, D = _eliminate(ints, d)
    out = [_over(row, D, d) for row in reduced]
    ncols = len(rows[0]) if rows else 0
    return out + [[ZERO] * ncols for _ in range(len(rows) - len(out))], pivots


def solve(matrix, rhs):
    """Unique solution of a square system of Scalars; raises with the rank
    if singular: the reduced echelon form of the augmented rows."""
    from slval.linalg import SingularMatrixError, Vector

    n = matrix.nrows
    if n != matrix.ncols or len(rhs) != n:
        raise ValueError("solve needs a square matrix and matching vector")
    reduced, pivots = reduced_echelon([list(row) + [rhs[i]] for i, row in enumerate(matrix.rows)])
    main_pivots = [c for c in pivots if c < n]
    if len(main_pivots) < n:
        raise SingularMatrixError(len(main_pivots))
    return Vector._of(tuple(reduced[i][n] for i in range(n)))


def scalar_interior_point(rng, P):
    """A point of relint P as a Vector: the vertices weighted 1 to 5 by rng,
    in Fractions."""
    from slval.linalg import Vector

    weights = [Fraction(rng.randint(1, 5)) for _ in P.vertices]
    total = sum(weights)
    point = Vector.zero(P.ambient_dim)
    for w, v in zip(weights, P.vertices):
        point = point + v.scale(Fraction(w, total))
    return point


def scalar_gen_polytope(seed, n, max_vertices=8, coord_bound=4, family="generic"):
    """`slval.harness.gen_polytope` on Vectors, the same rng draws in the
    same order, translated by a Vector for the origin_in_relint family."""
    import random

    from slval.harness import _RETRIES, FAMILIES, _sub_seed
    from slval.linalg import Vector
    from slval.polytope import dim, from_points, origin, translate

    point = lambda rng, bound: Vector([rng.randint(-bound, bound) for _ in range(n)])
    rng = random.Random(_sub_seed(seed, FAMILIES.index(family)))
    for _ in range(_RETRIES):
        count = rng.randint(min(n + 1, max_vertices), max_vertices)
        if family == "lower_dim":
            k = rng.randrange(n)
            base = point(rng, coord_bound)
            dirs = [point(rng, 2) for _ in range(k)]
            pts = []
            for _ in range(count):
                p = base
                for d in dirs:
                    p = p + d.scale(rng.randint(-2, 2))
                pts.append(p)
            return from_points(pts, n)
        if family == "avoids_origin":
            axis = rng.randrange(n)
            sign = rng.choice((-1, 1))
            pts = []
            for _ in range(count):
                coords = [rng.randint(-coord_bound, coord_bound) for _ in range(n)]
                coords[axis] = sign * rng.randint(1, coord_bound + 1)
                pts.append(Vector(coords))
            poly = from_points(pts, n)
        elif family == "contains_origin":
            poly = from_points([point(rng, coord_bound) for _ in range(count)] + [origin(n)], n)
        else:
            poly = from_points([point(rng, coord_bound) for _ in range(count)], n)
        if dim(poly) != n:
            continue
        if family == "origin_in_relint":
            return translate(poly, -scalar_interior_point(rng, poly))
        return poly
    raise RuntimeError(f"family {family!r} not satisfiable for seed {seed}")


def scalar_basis_vector(P):
    """(euler, relint_sign, volume, origin, cone) of P in Scalars, read
    afresh from P's hull record by the two cell-sum walks of
    `pulling.two_walk_basis` on every call, never from P's kept basis."""
    from slval.exactnum import Scalar
    from pulling import two_walk_basis

    euler, relint, vol, inside, cone = two_walk_basis(P)
    return (Scalar(euler), Scalar(relint), Scalar._make(*vol, P._d), Scalar(inside),
            Scalar._make(*cone, P._d))


def field_of(numbers, d):
    """The one field of the Scalars `numbers` and then of d, merged in order with
    the running field first: the field a read fixes before its first term."""
    from slval.exactnum import _merge_discriminants

    e = 0
    for c in numbers:
        e = _merge_discriminants(e, c.d)
    return _merge_discriminants(e, d)


def plugin_value(f, x):
    """The Cauchy solution f at the Scalar x >= 0 by Scalar arithmetic, on
    formulas of its own: coefficient * x for a Linear f, the rational part
    of x for a RationalPart, rational * a + surd * b * sqrt(d) for another
    pair.  The field of f's two numbers and x's is fixed first, so two
    fields raise FieldMismatchError whatever x is; then a negative x raises
    ValueError."""
    from slval.exactnum import Linear, RationalPart, Scalar

    field_of((f.rational, f.surd), x.d)
    if x < 0:
        raise ValueError(f"negative argument {x}")
    if type(f) is Linear:
        return f.coefficient * x
    if type(f) is RationalPart:
        return Scalar(x.a)
    return f.rational * x.a + (f.surd * x.b * Scalar.sqrt_of(x.d) if x.b else 0)


def scalar_apply(V, b, d):
    """The classified valuation V on a basis vector b of Scalars of a polytope
    over Q(sqrt d), term by term, once the field of V's numbers in slot order
    and then d is fixed."""
    euler, relint, vol, inside, cone = b
    field_of((V.c0, V.c0p, V.d0, V.psi.rational, V.psi.surd, V.phi.rational, V.phi.surd), d)
    return (V.c0 * euler + V.c0p * relint + plugin_value(V.psi, vol)
            + V.d0 * inside + plugin_value(V.phi, cone))


def scalar_fit(values_of, n, seed=0, validation_count=100, field_d=0):
    """`slval.harness.fit_classification` on the Scalar route: its probes
    and validation polytopes from Vectors, the probe system solved as a
    Matrix, and the residual read off `scalar_basis_vector`."""
    from slval.exactnum import ZERO
    from slval.harness import FAMILIES, FitReport, _sub_seed, surd_simplices
    from slval.linalg import Matrix, Vector
    from slval.polytope import from_points, origin, translate
    from slval.valuation import ClassifiedValuation

    e1 = Vector.basis(n, 0)
    simplex = from_points([origin(n)] + [Vector.basis(n, i) for i in range(n)], n)
    probes = (from_points([origin(n)], n), from_points([e1], n), from_points([-e1, e1], n),
              simplex, translate(simplex, e1))
    validation = [scalar_gen_polytope(_sub_seed(seed, 900 + i), n, max_vertices=6, coord_bound=3,
                                      family=FAMILIES[i % len(FAMILIES)])
                  for i in range(validation_count)]
    validation += surd_simplices(n, field_d) if field_d else []
    values = values_of([*probes, *validation])
    probe_values = tuple(values[:5])
    coefficients = tuple(solve(Matrix([scalar_basis_vector(P) for P in probes]),
                               Vector(probe_values)))
    model = ClassifiedValuation.linear(*coefficients)
    residual = ZERO
    for P, value in zip(validation, values[5:]):
        gap = abs(value - scalar_apply(model, scalar_basis_vector(P), P._d))
        if gap > residual:
            residual = gap
    return FitReport(coefficients=coefficients, probe_values=probe_values, residual_max=residual)


# -- the former read path -------------------------------------------------
#
# `slval.polytope.from_json` reads each literal into an integer triple and
# puts the rows over their common denominator as integer pair rows, and the
# hull pass reads each excess off a list its ray carries.  What follows is
# what they replaced: a Scalar per literal, a Vector per row and
# `from_points` on the Vectors; and a pass that takes the dot product of
# every ray with every inserted point and scans every ray's tight set for
# every adjacency, at any dimension.


def scalar_from_json(obj):
    """A polytope object read as Scalars, then Vectors, then `from_points`."""
    from slval.exactnum import Scalar, _check_discriminant
    from slval.linalg import Vector
    from slval.polytope import from_points

    try:
        n, d, raw = obj["ambient_dim"], obj["field_d"], obj["vertices"]
        if type(n) is not int or type(d) is not int:
            raise ValueError("ambient_dim and field_d must be JSON integers")
        if type(raw) is not list or any(type(row) is not list for row in raw):
            raise ValueError("vertices must be a JSON list of JSON lists")
        d = _check_discriminant(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad polytope object: {exc}") from None
    points = []
    for row in raw:
        coords = [Scalar.parse(text) for text in row]
        for c in coords:
            if c.d not in (0, d):
                raise ValueError(f"vertex scalar {c} outside declared field sqrt({d})")
        points.append(Vector(coords))
    return from_points(points, n)


def dot_supporting(ints, L, d):
    """The pass of `slval.polytope._supporting`, written apart from it:
    <r, x'> by `_pair_dot` for every ray at every point neither in nor
    strictly inside the seed simplex, read by input index, and the
    third-ray scan over the rays' masks for every adjacency."""
    from slval.exactnum import _surd_sign
    from slval.linalg import _cross, _eliminate, _pair_dot, _primitive
    from slval.polytope import _canonical

    n, m = len(ints[0]), len(ints)
    pts = [(*row[::-1], (-1, 0)) for row in ints]
    order = sorted(range(m), key=lambda i: (-sum(a * a + d * b * b for a, b in ints[i]), i))
    unit = [[(int(r == c), 0) for r in range(n + 1)] for c in range(n + 1)]
    form, pivots, _, D = _eliminate([list(row) for row in zip(*[pts[i] for i in order], *unit)], d)
    k = sum(c < m for c in pivots) - 1
    free = sorted(m + n - 1 - c for c in pivots[k + 1:])
    on_x = lambda r, s: [(s * L * a, s * L * b) for a, b in r[n - 1::-1]] + [(s * r[n][0], s * r[n][1])]
    flip = -1 if _surd_sign(*D, d) > 0 else 1
    equalities = tuple(_canonical(on_x(row[m:], -flip), d, col) for row, col in zip(form[:k:-1], free))
    frame = (tuple(c for c in range(n) if c not in free), equalities)
    form = form[:k + 1] if k else []
    simplex = [order[c] for c in pivots[:len(form)]]
    rays = [(_primitive([(flip * a, flip * b) for a, b in row[m:]]),
             sum(1 << j for j in simplex if j != i))
            for row, i in zip(form, simplex)]
    for c, i in enumerate(order):
        if i in simplex or all(flip * _surd_sign(*row[c], d) < 0 for row in form):
            continue
        bit = 1 << i
        violated, satisfied, kept = [], [], []
        for r, z in rays:
            excess = _pair_dot(r, pts[i], d)
            s = _surd_sign(*excess, d)
            if s > 0:
                violated.append((r, z, excess))
            elif s < 0:
                kept.append((r, z))
                satisfied.append((r, z, excess))
            else:
                kept.append((r, z | bit))
        masks = [z for _, z in rays]
        for rv, zv, ev in violated:
            for rs, zs, es in satisfied:
                common = zv & zs
                if common.bit_count() < k - 1:
                    continue
                if any(z & common == common for z in masks if z != zv and z != zs):
                    continue
                kept.append((_primitive(_cross(rs, ev, rv, es, d)), common | bit))
        rays = kept
    return frame, {z: _canonical(on_x(r, 1), d) for r, z in rays}
