"""Canonical V-representation polytopes with exact predicates.

A polytope is stored as its extreme points, deduplicated and sorted, so
structural equality is geometric equality.  The empty polytope is a
first-class value.

Derived data lives on the polytope that owns it, in slots filled once on
first use and ignored by equality and hashing: the affine frame, the facet
halfspaces with their incident vertices, and the facets as polytopes.  The
frame is the pivot projection: the pivot columns of the reduced echelon
form of the directions v - v0, which depend only on aff P and map it
isomorphically onto R^k, plus the equalities that pin aff P.  Facets come
from an exact double-description pass (Motzkin, Raiffa, Thompson and
Thrall 1953; Fukuda and Prodon 1996) on the pivot coordinates: points are
inserted in index order, so the result is deterministic, degenerate input
needs no perturbation, and the cost grows with the number of facets rather
than with the number of point subsets.

Only polytopes built from bare points run that pass.  A derived polytope
of any dimension inherits its face data from its parent by exact
arithmetic on the parent's frame and facet record: a facet of P (also
when a clip leaves exactly that facet) derives its own on first use, from
the ridges of P within it (Kaibel and Pfetsch, Comput. Geom. 23, 2002); a
clip through P, a translate and an SL image are handed theirs when they
are built.  A halfspace becomes a facet of a flat polytope in the form a
fresh pass gives, cleared on the free columns by the frame's equalities.
A point has no facets.  Frame and facet record are canonical, so every
hand-over equals what a fresh pass on the same vertices derives.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .exactnum import ONE, ZERO, Scalar, _check_discriminant, _merge_discriminants, as_scalar
from .linalg import (
    Matrix,
    Vector,
    _echelon_kernel,
    _reduced_echelon,
    det,
    kernel_basis,
    matrix_rank,
)


class EmptyPolytopeError(ValueError):
    """Operation needs a nonempty polytope."""


class IncomparableHullsError(ValueError):
    """Neither affine hull contains the other."""


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

    def complement(self) -> Halfspace:
        return Halfspace(-self.normal, -self.offset)

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
    underscored slots hold derived data, None until first use; `_parent`
    is set on a facet of another polytope, to (that polytope's frame, its
    facet record, the facet's index), from which the facet derives its own.
    """

    __slots__ = ("ambient_dim", "vertices", "_frame", "_facets", "_faces", "_parent")

    ambient_dim: int
    vertices: tuple[Vector, ...]

    def __init__(self, ambient_dim: int, vertices: Iterable[Vector] = ()) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        unique = dict.fromkeys(vertices)
        for v in unique:
            if len(v) != ambient_dim:
                raise ValueError("vertex dimension does not match ambient_dim")
        ordered = tuple(sorted(unique, key=Vector.sort_key))
        _common_discriminant(ordered)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", ordered)
        for slot in ("_frame", "_facets", "_faces", "_parent"):
            object.__setattr__(self, slot, None)

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


def _common_discriminant(vectors: Sequence[Vector]) -> int:
    d = 0
    for v in vectors:
        for c in v:
            if c.d != d:
                d = _merge_discriminants(d, c.d)
    return d


def field_discriminant(P: Polytope) -> int:
    return _common_discriminant(P.vertices)


def origin(n: int) -> Vector:
    return Vector.zero(n)


# -- derived data ----------------------------------------------------------


def _first_simplex(pts: Sequence[Vector], k: int) -> list[int]:
    """Index 0 and the indices whose point raises the affine rank, in index
    order, until the rank reaches k."""
    chosen = [0]
    rows: list[list[Scalar]] = []
    for i in range(1, len(pts)):
        delta = list(pts[i] - pts[0])
        if matrix_rank(rows + [delta]) > len(rows):
            rows.append(delta)
            chosen.append(i)
            if len(rows) == k:
                break
    return chosen


def _canonical(w: Vector, c: Scalar) -> tuple[Vector, Scalar]:
    """Positive rescaling that makes the last nonzero coordinate of w +-1."""
    last = next(x for x in reversed(w.coords) if not x.is_zero())
    inv = abs(last).inverse()
    return w.scale(inv), c * inv


def _supporting(coords: Sequence[Sequence[Scalar]], k: int) -> dict:
    """Facet halfspaces of a rank-k point configuration, in its own coordinates.

    Returns {incident index frozenset: (normal w, offset c)} with
    <w, x> <= c valid on every point, equality exactly on the incident
    points, and the last nonzero coordinate of w equal to +-1 (the
    reduced-echelon kernel vector of the facet's points, oriented outward).

    Double description: each facet is a ray (w, c, Z) of the cone of
    valid inequalities, Z the bitmask of tight points inserted so far.
    The facets of a simplex on the first affinely independent points seed
    the rays; every other point is then inserted in index order.  Rays it
    violates are dropped, and each violated ray is combined with every
    adjacent satisfied ray into the ray tight at the new point.  Two rays
    are adjacent iff their common tight set has at least k - 1 points and
    lies in no third ray's tight set.
    """
    pts = [Vector(c) for c in coords]
    simplex = _first_simplex(pts, k)
    rays: list[tuple[Vector, Scalar, int]] = []
    for j in simplex:
        face = [i for i in simplex if i != j]
        first = pts[face[0]]
        (w,) = kernel_basis([list(pts[i] - first) for i in face[1:]], k)
        c = w.dot(first)
        if (w.dot(pts[j]) - c).sign() > 0:
            w, c = -w, -c
        rays.append((w, c, sum(1 << i for i in face)))
    skip = set(simplex)
    for i, p in enumerate(pts):
        if i in skip:
            continue
        bit = 1 << i
        violated, satisfied, kept = [], [], []
        for w, c, z in rays:
            excess = w.dot(p) - c
            s = excess.sign()
            if s > 0:
                violated.append((w, c, z, excess))
            elif s < 0:
                kept.append((w, c, z))
                satisfied.append((w, c, z, excess))
            else:
                kept.append((w, c, z | bit))
        masks = [z for _, _, z in rays]
        for wv, cv, zv, ev in violated:
            for ws, cs, zs, es in satisfied:
                common = zv & zs
                if common.bit_count() < k - 1:
                    continue
                if any(z & common == common for z in masks if z != zv and z != zs):
                    continue
                # ev > 0 > es: the positive combination tight at p
                w, c = _canonical(ws.scale(ev) - wv.scale(es), cs * ev - cv * es)
                kept.append((w, c, common | bit))
        rays = kept
    return {
        frozenset(i for i in range(len(pts)) if z >> i & 1): (w, c)
        for w, c, z in rays
    }


def _frame(P: Polytope) -> tuple[tuple[int, ...], tuple[tuple[Vector, Scalar], ...]]:
    """Pivot columns of aff P and the equalities <w, x> = b pinning it.

    A reduced echelon form is unique, so both depend only on aff P.
    """
    if P._frame is None:
        if P._parent is not None:
            frame = _facet_frame(*P._parent)
        else:
            base = P.vertices[0]
            reduced, pivots = _reduced_echelon([list(v - base) for v in P.vertices[1:]])
            equalities = tuple(
                (w, w.dot(base)) for w in _echelon_kernel(reduced, pivots, P.ambient_dim)
            )
            frame = (tuple(pivots), equalities)
        object.__setattr__(P, "_frame", frame)
    return P._frame


def _facet_data(P: Polytope) -> tuple[tuple[Halfspace, frozenset[int]], ...]:
    """Supporting halfspace and incident vertex index set of every facet,
    sorted by incident indices; a point has none.

    One double-description pass on the pivot coordinates, filled once; a
    normal lifts to R^n with zeros off the pivot columns, which agrees with
    it on aff P and keeps its offset.  A facet of another polytope, of any
    dimension, reads its facets off that polytope's instead.
    """
    if P._facets is None:
        frame = _frame(P)
        pivots = frame[0]
        if not pivots:
            items = ()
        elif P._parent is not None:
            items = _facet_ridges(frame, *P._parent[1:])
        else:
            coords = [[v[c] for c in pivots] for v in P.vertices]
            items = []
            for incident, (w, c) in _supporting(coords, len(pivots)).items():
                lift = [ZERO] * P.ambient_dim
                for col, x in zip(pivots, w):
                    lift[col] = x
                items.append((Halfspace(Vector(lift), c), incident))
        _fill_facets(P, items)
    return P._facets


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
    return Halfspace(*_canonical(w, c))


def _facet_frame(frame, data, index: int):
    """Frame of facet `index` of a polytope with this frame and facet record.

    The facet's normal has its last nonzero entry on a pivot column j of
    the polytope, so the facet's pivots are the polytope's without j.  Its
    equalities are the polytope's, each cleared on column j by the facet's
    own equality scaled to 1 there, plus that equality: one per free
    column, 1 there and 0 on the other free columns, which is the echelon
    kernel of the facet.
    """
    pivots, equalities = frame
    h = data[index][0]
    j = max(col for col, x in enumerate(h.normal) if not x.is_zero())
    w, c = (h.normal, h.offset) if h.normal[j].sign() > 0 else (-h.normal, -h.offset)
    free = [col for col in range(len(w)) if col not in pivots]
    rows = {j: (w, c)}
    for col, (e, b) in zip(free, equalities):
        f = e[j]
        rows[col] = (e, b) if f.is_zero() else (e - w.scale(f), b - c * f)
    return tuple(col for col in pivots if col != j), tuple(rows[col] for col in sorted(rows))


def _facet_ridges(own_frame, data, index: int):
    """Facet items of facet F = `index` of a polytope with this facet
    record, in F's own frame and vertex order.

    The facets of F are the inclusion-maximal sets F ∩ G over the other
    facets G; each lies in the hyperplane of G, restricted to aff F.
    """
    k = len(own_frame[0])
    incident = data[index][1]
    meets: dict[frozenset[int], Halfspace] = {}
    for g, (h, other) in enumerate(data):
        common = incident & other
        if g != index and len(common) >= k and common not in meets:
            meets[common] = h
    renumber = {old: new for new, old in enumerate(sorted(incident))}
    return [
        (_restricted(own_frame, h.normal, h.offset), frozenset(renumber[i] for i in common))
        for common, h in meets.items()
        if not any(common < larger for larger in meets)
    ]


def _fill_facets(P: Polytope, items) -> None:
    object.__setattr__(P, "_facets", tuple(sorted(items, key=lambda item: sorted(item[1]))))


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
    data = _facet_data(raw)
    through: list[list[frozenset[int]]] = [[] for _ in raw.vertices]
    for _, incident in data:
        for i in incident:
            through[i].append(incident)
    everything = frozenset(range(len(raw.vertices)))
    keep = [i for i, sets in enumerate(through) if len(everything.intersection(*sets)) == 1]
    if len(keep) == len(raw.vertices):
        return raw
    P = Polytope(n, [raw.vertices[i] for i in keep])
    renumber = {old: new for new, old in enumerate(keep)}
    object.__setattr__(P, "_frame", raw._frame)
    _fill_facets(P, [(h, frozenset(renumber[i] for i in inc if i in renumber)) for h, inc in data])
    return P


def dim(P: Polytope) -> int:
    if P.is_empty:
        raise EmptyPolytopeError("dimension of the empty polytope is undefined")
    return len(_frame(P)[0])


def facets(P: Polytope) -> tuple[tuple[Halfspace, Polytope], ...]:
    """All (dim-1)-faces as polytopes with their supporting halfspaces.

    Each facet is set to derive its own face data from P's.
    """
    if P._faces is None:
        frame, data = _frame(P), _facet_data(P)
        faces = []
        for index, (h, incident) in enumerate(data):
            F = Polytope(P.ambient_dim, [P.vertices[i] for i in incident])
            object.__setattr__(F, "_parent", (frame, data, index))
            faces.append((h, F))
        object.__setattr__(P, "_faces", tuple(faces))
    return P._faces


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

    A cut that leaves exactly a facet of P returns that facet, and one that
    leaves a smaller face returns its bare points.  A cut with a vertex
    strictly inside H has the affine hull of P, so it is handed P's frame
    and its facets: those of P with a vertex strictly inside H, through
    their kept vertices and their crossing points, and H restricted to aff
    P, through the kept vertices on it and every crossing point.
    """
    if P.is_empty:
        return P
    n = P.ambient_dim
    if len(H.normal) != n:
        raise ValueError("halfspace dimension does not match the polytope")
    excesses = [H.excess(v) for v in P.vertices]
    signs = [e.sign() for e in excesses]
    if all(s <= 0 for s in signs):
        return P
    kept = [i for i, s in enumerate(signs) if s <= 0]
    if not kept:
        return Polytope.empty(n)
    data = _facet_data(P)
    if all(signs[i] == 0 for i in kept):
        face = frozenset(kept)
        for index, (_, incident) in enumerate(data):
            if incident == face:
                return facets(P)[index][1]
        return Polytope(n, [P.vertices[i] for i in kept])
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
        vi, vj = P.vertices[i], P.vertices[j]
        t = excesses[i] / (excesses[i] - excesses[j])
        crossing.append(vi + (vj - vi).scale(t))
    Q = Polytope(n, [P.vertices[i] for i in kept] + crossing)
    position = {v: q for q, v in enumerate(Q.vertices)}
    new = [position[v] for v in crossing]
    on: list[list[int]] = [[] for _ in data]
    for q, shared in zip(new, through):
        for g in shared:
            on[g].append(q)
    items = [
        (h, frozenset([position[P.vertices[i]] for i in incident if signs[i] <= 0] + on[g]))
        for g, (h, incident) in enumerate(data)
        if any(signs[i] < 0 for i in incident)
    ]
    cut = [position[P.vertices[i]] for i in kept if signs[i] == 0]
    items.append((_restricted(_frame(P), H.normal, H.offset), frozenset(cut + new)))
    object.__setattr__(Q, "_frame", _frame(P))
    _fill_facets(Q, items)
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


def _intersect_unchecked(P: Polytope, Q: Polytope) -> Polytope:
    """P and Q, whose affine hulls are nested, cut one by the other.

    The operand of lower dimension lies in the other's affine hull, where
    the other's lifted facet halfspaces define it.  A clip by one of the
    cut operand's own facet halfspaces returns it, so those are skipped.
    """
    if P.is_empty or Q.is_empty:
        return Polytope.empty(P.ambient_dim)
    cut, by = (Q, P) if dim(Q) < dim(P) else (P, Q)
    own = {h for h, _ in _facet_data(cut)}
    result = cut
    for halfspace, _ in _facet_data(by):
        if halfspace in own:
            continue
        result = clip(result, halfspace)
        if result.is_empty:
            return result
    return result


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Exact intersection; the affine hulls must be nested or equal."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if P.is_empty or Q.is_empty:
        return Polytope.empty(P.ambient_dim)
    p_in_q = all(in_affine_hull(Q, v) for v in P.vertices)
    q_in_p = all(in_affine_hull(P, v) for v in Q.vertices)
    if not p_in_q and not q_in_p:
        raise IncomparableHullsError("affine hulls are incomparable")
    return _intersect_unchecked(P, Q)


def transform(A: Matrix, P: Polytope) -> Polytope:
    """Image under an invertible linear map; extreme points stay extreme.

    The image is handed P's facets, derived first if need be: a normal w
    maps to A^-T w, restricted to the image's own frame, and the incident
    indices follow the vertices through the new sort.
    """
    if det(A).is_zero():
        raise ValueError("transform needs an invertible matrix")
    if P.is_empty:
        return P
    images = [A @ v for v in P.vertices]
    Q = Polytope(P.ambient_dim, images)
    inverse_t = _inverse_transpose(A)
    frame = _frame(Q)
    position = {v: q for q, v in enumerate(Q.vertices)}
    moved = [position[v] for v in images]
    _fill_facets(Q, [
        (_restricted(frame, inverse_t @ h.normal, h.offset), frozenset(moved[i] for i in incident))
        for h, incident in _facet_data(P)
    ])
    return Q


def _inverse_transpose(A: Matrix) -> Matrix:
    n = A.nrows
    rows = [list(A.column(i)) + [ONE if r == i else ZERO for r in range(n)] for i in range(n)]
    reduced, _ = _reduced_echelon(rows)
    return Matrix(row[n:] for row in reduced)


def translate(P: Polytope, t: Vector) -> Polytope:
    """P + t.  A translation keeps the vertex order, so P's frame and facets,
    derived first if need be, carry over with their offsets shifted by
    <w, t>."""
    if len(t) != P.ambient_dim:
        raise ValueError("translation dimension does not match the polytope")
    if P.is_empty:
        return P
    Q = Polytope(P.ambient_dim, [v + t for v in P.vertices])
    pivots, equalities = _frame(P)
    object.__setattr__(Q, "_frame", (pivots, tuple((w, b + w.dot(t)) for w, b in equalities)))
    object.__setattr__(Q, "_facets", tuple((Halfspace(h.normal, h.offset + h.normal.dot(t)), incident)
                                           for h, incident in _facet_data(P)))
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
