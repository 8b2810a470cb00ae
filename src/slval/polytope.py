"""Canonical V-representation polytopes with exact predicates.

A polytope is stored as its extreme points, deduplicated and sorted, so
structural equality is geometric equality.  The empty polytope is a
first-class value.

Derived data lives on the polytope that owns it, in slots filled once on
first use and ignored by equality and hashing: the affine frame with the
facet halfspaces and their incident vertices, in one slot, and the volume.
The frame is the pivot projection: the pivot columns of the reduced echelon
form of the directions v - v0, which depend only on aff P and map it
isomorphically onto R^k, plus the equalities that pin aff P.  Both come
from one exact double-description pass (Motzkin, Raiffa, Thompson and
Thrall 1953; Fukuda and Prodon 1996) in ambient coordinates, whose one
elimination seeds the rays and yields the frame equalities: points are
inserted far first, degenerate input needs no perturbation, and the cost
grows with the number of facets rather than with the number of point
subsets.  The pass, like the vertex order, runs on plain integers in
Z[sqrt d] over one common denominator; Scalars are built only for its
output.

A polytope gets its frame and facets in one of two ways.  It runs that
pass itself, on first use; or it is handed them when it is built, by
`from_points` (the record of its one pass, renumbered), by a clip through
its interior (the parent's frame, the parent's facets through their kept
vertices and crossing points, and the cut restricted to the parent's
affine hull, in the form a fresh pass gives) or by a translate (the
parent's, offsets shifted).  Facets, faces a clip leaves and SL images are
bare points, which run their own pass when asked.  A point has no facets.
Frame and facet record are canonical, so every hand-over equals what a
fresh pass on the same vertices derives.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .exactnum import (Scalar, _check_discriminant, _integer_rows, _merge_discriminants, _surd_sign,
                       as_scalar)
from .linalg import (Matrix, SingularMatrixError, Vector, _combine, _cross, _eliminate, _over,
                     _pair_dot, _primitive, _rationalized)


class EmptyPolytopeError(ValueError):
    """Operation needs a nonempty polytope."""


class Halfspace:
    """Closed halfspace {x : <normal, x> <= offset}."""

    __slots__ = ("normal", "offset")

    normal: Vector
    offset: Scalar

    def __init__(self, normal: Vector, offset) -> None:
        if normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", as_scalar(offset))

    def __setattr__(self, name, value):
        raise AttributeError("Halfspace is immutable")

    def excess(self, x: Vector) -> Scalar:
        return self.normal.dot(x) - self.offset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Halfspace)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.normal, self.offset))

    def __repr__(self) -> str:
        return f"Halfspace({self.normal!r}, {self.offset})"


class Polytope:
    """Convex hull of finitely many points, in canonical vertex form.

    Build through from_points unless the points are already known to be
    the extreme points; the constructor only sorts and deduplicates.  The
    underscored slots hold derived data, None until first use; `_volume`
    holds the pivot volume that `triangulate` sums over the pulling cells
    it reads off the facet record; no face's volume is kept.
    """

    __slots__ = ("ambient_dim", "vertices", "_hull", "_volume")

    ambient_dim: int
    vertices: tuple[Vector, ...]

    def __init__(self, ambient_dim: int, vertices: Iterable[Vector] = ()) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        vertices = tuple(vertices)
        if any(len(v) != ambient_dim for v in vertices):
            raise ValueError("vertex dimension does not match ambient_dim")
        # over one common L > 0, pairs (A, B) order as `Vector.sort_key`
        unique = dict(zip(map(tuple, _integer_rows([v.coords for v in vertices])[0]), vertices))
        self._fill(ambient_dim, tuple(unique[key] for key in sorted(unique)))

    def _fill(self, ambient_dim: int, vertices: tuple[Vector, ...]) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", vertices)
        for slot in Polytope.__slots__[2:]:
            object.__setattr__(self, slot, None)

    @classmethod
    def _of(cls, ambient_dim: int, vertices: tuple[Vector, ...]) -> Polytope:
        """Trusted constructor for vertices known to be canonical, such as a
        subsequence of a canonical vertex tuple: no dedupe, sort or field
        check."""
        self = object.__new__(cls)
        self._fill(ambient_dim, vertices)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polytope is immutable")

    @classmethod
    def empty(cls, ambient_dim: int) -> Polytope:
        return cls(ambient_dim, ())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        body = ", ".join(repr(list(map(str, v))) for v in self.vertices)
        return f"Polytope(n={self.ambient_dim}, vertices=[{body}])"


def field_discriminant(P: Polytope) -> int:
    return _integer_rows([v.coords for v in P.vertices])[2]


def origin(n: int) -> Vector:
    return Vector.zero(n)


# -- derived data ----------------------------------------------------------


def _canonical(row: list[tuple[int, int]], d: int) -> tuple[Vector, Scalar]:
    """(w, c) from the integer pair row (W, C) of <W, x> <= C, divided by
    |last nonzero entry of W| so that entry becomes +-1: one `_over`."""
    A, B = next(x for x in reversed(row[:-1]) if x != (0, 0))
    s = _surd_sign(A, B, d)
    *w, c = _over(row, (s * A, s * B), d)
    return Vector._of(tuple(w)), c


def _supporting(points: Sequence[Sequence[Scalar]]) -> tuple[tuple, dict]:
    """Frame and facets of points in R^n: (frame, {incident index
    frozenset: (w, c)}), the frame as `_frame` gives it, and per facet
    <w, x> <= c, valid on every point and tight exactly on the incident
    ones, w zero off the pivot columns and +-1 on its last nonzero one.
    A point has no facets.

    Double description in Z[sqrt d]: the points, over one common
    denominator L, are read as integer pairs x' = (L x, -1), coordinates
    reversed.  Each facet is a ray (r, Z): r a gcd-reduced integer vector
    with <r, x'> <= 0 on every point, Z the bitmask of tight points
    inserted so far.  Points are inserted far first, by decreasing sum of
    A^2 + d B^2 over their pairs, ties by index, which keeps the
    intermediate rays few (Avis, Bremner and Seidel 1997).  One
    `_eliminate` of [X | I], the x' as X's columns in that order, seeds
    all.  Its k + 1 rows that pivot on X pick the first affinely
    independent points, k = dim; right of X, row i is tight on each of them
    but the i-th, where the common pivot D orients it, and on X it holds
    its excess at every point, so points inside that simplex are skipped.
    Its other rows pivot in I, on the free columns: the greedy basis of the
    dual in the reverse order is the complement of the forward one.  Each
    is D on its own free column, 0 on the others (the seed rays are 0 on
    all), and reads <w, L x> = c on every point: the frame equality is
    <w / D, x> = c / (D L).  Each later
    point drops the rays it violates, and combines each violated ray with
    every adjacent satisfied one into a ray tight at the point.  Two rays
    are adjacent iff their common tight set has at least k - 1 points and
    lies in no third ray's tight set.
    """
    ints, L, d = _integer_rows(points)
    n, m = len(ints[0]), len(ints)
    pts = [row[::-1] + [(-1, 0)] for row in ints]
    order = sorted(range(m), key=lambda i: (-sum(a * a + d * b * b for a, b in ints[i]), i))
    unit = [[(int(r == c), 0) for r in range(n + 1)] for c in range(n + 1)]
    form, pivots, _, D = _eliminate([list(row) for row in zip(*[pts[i] for i in order], *unit)], d)
    k = sum(c < m for c in pivots) - 1
    free = {m + n - 1 - c for c in pivots[k + 1:]}
    equalities = form[:k:-1]
    offsets = _over([row[-1] for row in equalities], (D[0] * L, D[1] * L), d)
    normals = [Vector._of(tuple(_over(row[-2:m - 1:-1], D, d))) for row in equalities]
    frame = (tuple(c for c in range(n) if c not in free), tuple(zip(normals, offsets)))
    form = form[:k + 1] if k else []
    simplex = [order[c] for c in pivots[:len(form)]]
    flip = -1 if _surd_sign(*D, d) > 0 else 1
    rays: list[tuple[list[tuple[int, int]], int]] = [
        (_primitive([(flip * a, flip * b) for a, b in row[m:]]),
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
                # ev > 0 > es: the positive combination tight at point i
                kept.append((_combine(rs, ev, rv, es, d), common | bit))
        rays = kept
    return frame, {frozenset(i for i in range(m) if z >> i & 1):
                   _canonical([(L * a, L * b) for a, b in r[n - 1::-1]] + [r[n]], d) for r, z in rays}


def _hull(P: Polytope) -> tuple[tuple, tuple[tuple[Halfspace, frozenset[int]], ...]]:
    """(`_frame`, `_facet_data`), from one pass unless P was handed them."""
    if P._hull is None:
        frame, found = _supporting(P.vertices)
        _fill_hull(P, frame, [(Halfspace(w, c), incident) for incident, (w, c) in found.items()])
    return P._hull


def _frame(P: Polytope) -> tuple[tuple[int, ...], tuple[tuple[Vector, Scalar], ...]]:
    """Pivot columns of the reduced echelon form of the directions v - v0,
    and per free column the equality <w, x> = b pinning aff P with w 1 there
    and 0 on the other free columns.  Both depend only on aff P."""
    return _hull(P)[0]


def _facet_data(P: Polytope) -> tuple[tuple[Halfspace, frozenset[int]], ...]:
    """Supporting halfspace and incident vertex index set of every facet,
    sorted by incident indices; a point has none."""
    return _hull(P)[1]


def _restricted(frame, w: Vector, c: Scalar) -> Halfspace:
    """The halfspace <w, x> <= c on the affine hull with this frame, in the
    form a fresh pass gives: w cleared on each free column by the frame
    equality that is 1 there, then canonical."""
    pivots, equalities = frame
    free = [col for col in range(len(w)) if col not in pivots]
    for col, (e, b) in zip(free, equalities):
        f = w[col]
        if not f.is_zero():
            w, c = w - e.scale(f), c - b * f
    (row,), _, d = _integer_rows([w.coords + (c,)])
    return Halfspace(*_canonical(row, d))


def _fill_hull(P: Polytope, frame, items) -> None:
    object.__setattr__(P, "_hull", (frame, tuple(sorted(items, key=lambda item: sorted(item[1])))))


def from_points(points: Iterable, ambient_dim: int | None = None) -> Polytope:
    """Canonical hull: keeps exactly the extreme points of the input.

    One double-description pass over the distinct points settles every
    point: a point is extreme iff it is the only point on every facet
    through it.  The result is handed that pass's frame and facets,
    renumbered; both are canonical, so they equal what it would derive.
    """
    pts = [p if isinstance(p, Vector) else Vector(p) for p in points]
    if not pts:
        if ambient_dim is None:
            raise ValueError("empty point set needs an explicit ambient_dim")
        return Polytope.empty(ambient_dim)
    n = len(pts[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("points do not match the requested ambient_dim")
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    raw = Polytope(n, pts)
    frame, data = _hull(raw)
    through: list[list[frozenset[int]]] = [[] for _ in raw.vertices]
    for _, incident in data:
        for i in incident:
            through[i].append(incident)
    everything = frozenset(range(len(raw.vertices)))
    keep = [i for i, sets in enumerate(through) if len(everything.intersection(*sets)) == 1]
    if len(keep) == len(raw.vertices):
        return raw
    P = Polytope._of(n, tuple(raw.vertices[i] for i in keep))
    renumber = {old: new for new, old in enumerate(keep)}
    _fill_hull(P, frame, [(h, frozenset(renumber[i] for i in inc if i in renumber)) for h, inc in data])
    return P


def dim(P: Polytope) -> int:
    if P.is_empty:
        raise EmptyPolytopeError("dimension of the empty polytope is undefined")
    return len(_frame(P)[0])


def facets(P: Polytope) -> tuple[tuple[Halfspace, Polytope], ...]:
    """All (dim-1)-faces as polytopes with their supporting halfspaces.

    Each facet is built by index from P's vertices and runs its own pass
    when asked for face data.
    """
    return tuple((h, Polytope._of(P.ambient_dim, tuple(P.vertices[i] for i in sorted(incident))))
                 for h, incident in _facet_data(P))


# -- membership ----------------------------------------------------------


def in_affine_hull(P: Polytope, x: Vector) -> bool:
    if P.is_empty:
        return False
    if len(x) != P.ambient_dim:
        raise ValueError("point dimension does not match the polytope")
    return all(w.dot(x) == b for w, b in _frame(P)[1])


def contains(P: Polytope, x: Vector) -> bool:
    if not in_affine_hull(P, x):
        return False
    return all(h.excess(x).sign() <= 0 for h, _ in _facet_data(P))


def relint_contains_origin(P: Polytope) -> bool:
    if not in_affine_hull(P, origin(P.ambient_dim)):
        return False
    return all(h.offset.sign() > 0 for h, _ in _facet_data(P))


def clip(P: Polytope, H: Halfspace) -> Polytope:
    """P cut down to the halfspace, canonicalized.

    Kept vertices stay extreme, and a straddling edge meets the cut
    hyperplane in a single new vertex, so the result needs no pruning.  A
    straddling vertex pair is an edge iff the vertices on every facet
    through both are exactly the pair (Kaibel and Pfetsch 2002); no facet
    of a segment passes through both its vertices, so all are left.

    A cut that leaves a face of P returns its bare points.  A cut with a
    vertex strictly inside H has the affine hull of P, so it is handed P's
    frame and its facets: those of P with a vertex strictly inside H,
    through their kept vertices and their crossing points, and H restricted
    to aff P, through the kept vertices on it and every crossing point.

    Signs and crossings are read on integer pairs: with vertices X_i / L and
    H as <W, x> <= C over its own denominator, vertex i has the sign of
    E_i = <W, X_i> - C L, and edge ij meets the cut at
    (E_i X_j - E_j X_i) / (L (E_i - E_j)), rationalized.  One sort of the
    kept and crossing rows over one common denominator orders Q's vertices
    as `Vector.sort_key` does; a crossing lies inside an edge, so none
    repeats a vertex, and the facet record reads positions off that sort.
    """
    n = P.ambient_dim
    if len(H.normal) != n:
        raise ValueError("halfspace dimension does not match the polytope")
    if P.is_empty:
        return P
    ints, L, d = _integer_rows(P.vertices)
    ((*W, (Ca, Cb)),), _, e = _integer_rows([H.normal.coords + (H.offset,)])
    d = _merge_discriminants(d, e)
    excesses = [(A - Ca * L, B - Cb * L) for A, B in (_pair_dot(W, X, d) for X in ints)]
    signs = [_surd_sign(A, B, d) for A, B in excesses]
    if all(s <= 0 for s in signs):
        return P
    kept = [i for i, s in enumerate(signs) if s <= 0]
    if not kept:
        return Polytope.empty(n)
    if all(signs[i] == 0 for i in kept):
        return Polytope._of(n, tuple(P.vertices[i] for i in kept))
    frame, data = _hull(P)
    everything = frozenset(range(len(signs)))
    crossing = []
    through: list[list[int]] = []
    for i, j in combinations(range(len(signs)), 2):
        if signs[i] * signs[j] >= 0:
            continue
        shared = [g for g, (_, inc) in enumerate(data) if i in inc and j in inc]
        if len(everything.intersection(*(data[g][1] for g in shared))) != 2:
            continue
        through.append(shared)
        (Ai, Bi), (Aj, Bj) = excesses[i], excesses[j]
        x, q = _rationalized(_cross(ints[j], excesses[i], ints[i], excesses[j], d),
                             (L * (Ai - Aj), L * (Bi - Bj)), d)
        crossing.append((x, q) if q > 0 else ([(-a, -b) for a, b in x], -q))
    M = lcm(L, *(q for _, q in crossing))
    rows = [[(a * (M // L), b * (M // L)) for a, b in ints[i]] for i in kept]
    rows += [[(a * (M // q), b * (M // q)) for a, b in x] for x, q in crossing]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    points = [P.vertices[i] for i in kept]
    points += [Vector._of(tuple(_over(x, (q, 0), d))) for x, q in crossing]
    Q = Polytope._of(n, tuple(points[t] for t in order))
    position = sorted(range(len(order)), key=order.__getitem__)
    at = dict(zip(kept, position))
    new = position[len(kept):]
    on: list[list[int]] = [[] for _ in data]
    for q, shared in zip(new, through):
        for g in shared:
            on[g].append(q)
    items = [
        (h, frozenset([at[i] for i in incident if signs[i] <= 0] + on[g]))
        for g, (h, incident) in enumerate(data)
        if any(signs[i] < 0 for i in incident)
    ]
    cut = [at[i] for i in kept if signs[i] == 0]
    items.append((_restricted(frame, H.normal, H.offset), frozenset(cut + new)))
    _fill_hull(Q, frame, items)
    return Q


def cone_hull(P: Polytope) -> Polytope:
    """Hull of the polytope together with the origin."""
    zero = origin(P.ambient_dim)
    if contains(P, zero):
        return P
    return from_points(list(P.vertices) + [zero], P.ambient_dim)


def visible_facets(P: Polytope) -> tuple[Polytope, ...]:
    """Facets whose supporting inequality fails strictly at the origin.

    A facet lying on a hyperplane through the origin is not visible.
    """
    n = P.ambient_dim
    if P.is_empty or dim(P) != n:
        raise ValueError("visible facets need a full-dimensional polytope")
    if contains(P, origin(n)):
        raise ValueError("visible facets need 0 outside the polytope")
    return tuple(F for halfspace, F in facets(P) if halfspace.offset.sign() < 0)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Exact intersection of any two polytopes in one space.

    The operand of lower dimension (P on a tie) is cut by both sides of
    each equality pinning the other's affine hull, which leaves its part in
    that hull, and then by the other's facet halfspaces.  A clip by one of
    the cut operand's own facet halfspaces returns it, so those are
    skipped: the ones the operands share as the same object, as two clips
    of one polytope share its facets, found by identity without hashing.
    """
    n = P.ambient_dim
    if Q.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if P.is_empty or Q.is_empty:
        return Polytope.empty(n)
    cut, by = (Q, P) if dim(Q) < dim(P) else (P, Q)
    own = {id(h) for h, _ in _facet_data(cut)}
    halfspaces = [H for w, b in _frame(by)[1] for H in (Halfspace(w, b), Halfspace(-w, -b))]
    halfspaces += [h for h, _ in _facet_data(by) if id(h) not in own]
    result = cut
    for halfspace in halfspaces:
        result = clip(result, halfspace)
        if result.is_empty:
            break
    return result


def transform(A: Matrix, P: Polytope) -> Polytope:
    """Image under an invertible linear map; extreme points stay extreme.

    A is invertible iff one `_eliminate` of its integer rows pivots on
    every column; the image runs its own pass when asked for face data.
    """
    n = P.ambient_dim
    if A.nrows != n:
        raise ValueError("transform needs an n x n matrix for a polytope in R^n")
    if A.ncols != n:
        raise ValueError("transform needs a square matrix")
    rows, _, d = _integer_rows(A.rows)
    rank = len(_eliminate(rows, d)[1])
    if rank < n:
        raise SingularMatrixError(rank)
    return Polytope(n, [A @ v for v in P.vertices])


def translate(P: Polytope, t: Vector) -> Polytope:
    """P + t.  A translation keeps the vertex order, so P's frame and facets,
    derived first if need be, carry over with their offsets shifted by
    <w, t>."""
    if len(t) != P.ambient_dim:
        raise ValueError("translation dimension does not match the polytope")
    if P.is_empty:
        return P
    Q = Polytope(P.ambient_dim, [v + t for v in P.vertices])
    (pivots, equalities), data = _hull(P)
    _fill_hull(Q, (pivots, tuple((w, b + w.dot(t)) for w, b in equalities)),
               [(Halfspace(h.normal, h.offset + h.normal.dot(t)), incident) for h, incident in data])
    return Q


# -- serialization -------------------------------------------------------


def to_json(P: Polytope) -> dict:
    return {
        "ambient_dim": P.ambient_dim,
        "field_d": field_discriminant(P),
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def from_json(obj: dict) -> Polytope:
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
        coords = [Scalar.parse(text, d) for text in row]
        for c in coords:
            if c.d not in (0, d):
                raise ValueError(f"vertex scalar {c} outside declared field sqrt({d})")
        points.append(Vector(coords))
    return from_points(points, n)
