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
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .exactnum import ZERO, Scalar, _check_discriminant, _merge_discriminants
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
        object.__setattr__(self, "offset", Scalar._coerce(offset))

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
    underscored slots hold derived data, None until first use.
    """

    __slots__ = ("ambient_dim", "vertices", "_frame", "_facets", "_faces")

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
        for slot in ("_frame", "_facets", "_faces"):
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
        base = P.vertices[0]
        reduced, pivots = _reduced_echelon([list(v - base) for v in P.vertices[1:]])
        equalities = tuple(
            (w, w.dot(base)) for w in _echelon_kernel(reduced, pivots, P.ambient_dim)
        )
        object.__setattr__(P, "_frame", (tuple(pivots), equalities))
    return P._frame


def _facet_data(P: Polytope) -> tuple[tuple[Halfspace, frozenset[int]], ...]:
    """Supporting halfspace and incident vertex index set of every facet,
    sorted by incident indices.

    One double-description pass on the pivot coordinates, filled once; a
    normal lifts to R^n with zeros off the pivot columns, which agrees with
    it on aff P and keeps its offset.
    """
    if P._facets is None:
        k = dim(P)
        if k < 1:
            raise ValueError("facet enumeration needs dim >= 1")
        pivots = _frame(P)[0]
        coords = [[v[c] for c in pivots] for v in P.vertices]
        items = []
        for incident, (w, c) in _supporting(coords, k).items():
            lift = [ZERO] * P.ambient_dim
            for col, x in zip(pivots, w):
                lift[col] = x
            items.append((Halfspace(Vector(lift), c), incident))
        _fill_facets(P, items)
    return P._facets


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
    if dim(raw) == 0:
        return raw
    data = _facet_data(raw)
    through: list[list[frozenset[int]]] = [[] for _ in raw.vertices]
    for _, incident in data:
        for i in incident:
            through[i].append(incident)
    keep = [i for i, sets in enumerate(through) if sets and len(frozenset.intersection(*sets)) == 1]
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
    """All (dim-1)-faces as polytopes with their supporting halfspaces."""
    if P._faces is None:
        faces = tuple(
            (h, Polytope(P.ambient_dim, [P.vertices[i] for i in incident]))
            for h, incident in _facet_data(P)
        )
        object.__setattr__(P, "_faces", faces)
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
    return dim(P) == 0 or all(h.excess(x).sign() <= 0 for h, _ in _facet_data(P))


def relint_contains_origin(P: Polytope) -> bool:
    if not in_affine_hull(P, origin(P.ambient_dim)):
        return False
    return dim(P) == 0 or all(h.offset.sign() > 0 for h, _ in _facet_data(P))


def clip(P: Polytope, H: Halfspace) -> Polytope:
    """P cut down to the halfspace, canonicalized.

    Kept vertices stay extreme, and a straddling edge meets the cut
    hyperplane in a single new vertex, so the result needs no pruning.  A
    straddling vertex pair is an edge iff the facets through both vertices
    share no third vertex (Kaibel and Pfetsch 2002); a segment is its own
    edge.
    """
    if P.is_empty:
        return P
    if len(H.normal) != P.ambient_dim:
        raise ValueError("halfspace dimension does not match the polytope")
    excesses = [H.excess(v) for v in P.vertices]
    signs = [e.sign() for e in excesses]
    if all(s <= 0 for s in signs):
        return P
    kept = [v for v, s in zip(P.vertices, signs) if s <= 0]
    if not kept:
        return Polytope.empty(P.ambient_dim)
    incidences = [incident for _, incident in _facet_data(P)] if dim(P) > 1 else None
    crossing = []
    for i, j in combinations(range(len(signs)), 2):
        if signs[i] * signs[j] >= 0:
            continue
        if incidences is not None:
            shared = [inc for inc in incidences if i in inc and j in inc]
            if not shared or len(frozenset.intersection(*shared)) != 2:
                continue
        vi, vj = P.vertices[i], P.vertices[j]
        t = excesses[i] / (excesses[i] - excesses[j])
        crossing.append(vi + (vj - vi).scale(t))
    return Polytope(P.ambient_dim, kept + crossing)


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
    the other's lifted facet halfspaces define it.
    """
    if P.is_empty or Q.is_empty:
        return Polytope.empty(P.ambient_dim)
    cut, by = (Q, P) if dim(Q) < dim(P) else (P, Q)
    if dim(by) == 0:
        return cut if cut == by else Polytope.empty(P.ambient_dim)
    result = cut
    for halfspace, _ in _facet_data(by):
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
    """Image under an invertible linear map; extreme points stay extreme."""
    if det(A).is_zero():
        raise ValueError("transform needs an invertible matrix")
    return Polytope(P.ambient_dim, [A @ v for v in P.vertices])


def translate(P: Polytope, t: Vector) -> Polytope:
    if len(t) != P.ambient_dim:
        raise ValueError("translation dimension does not match the polytope")
    return Polytope(P.ambient_dim, [v + t for v in P.vertices])


# -- serialization -------------------------------------------------------


def to_json(P: Polytope) -> dict:
    return {
        "ambient_dim": P.ambient_dim,
        "field_d": field_discriminant(P),
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def from_json(obj: dict) -> Polytope:
    try:
        n = int(obj["ambient_dim"])
        d = _check_discriminant(int(obj["field_d"]))
        raw = obj["vertices"]
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
