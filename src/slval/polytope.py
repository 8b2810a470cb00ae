"""Canonical V-representation polytopes with exact predicates.

A polytope stores its extreme points, deduplicated and sorted, as one
canonical integer pair matrix: rows of pairs (A, B), meaning A + B*sqrt(d),
over the least common denominator L > 0, with d = 0 when every B is 0, so
structural equality is geometric equality.  The empty polytope is a
first-class value.  Vectors, Scalars and Halfspaces are built only at the
boundary, by `vertices`, `facets`, `to_json` and `repr`.

Derived data lives on the polytope that owns it, in slots filled once on
first use and ignored by equality and hashing: the valuations' integer
basis, and the hull record, which is the affine frame with the facets and
their incident vertex bitmasks.  The frame is the pivot projection: the
pivot columns of the reduced echelon form of the directions v - v0, which
depend only on aff P and map it onto R^k, plus the equalities that pin it.
Equalities and facets are canonical integer pair rows (W, C): a facet
<W, x> <= C primitive and scaled by a positive element of Z[sqrt d] to be
rational on W's last nonzero entry, an equality <W, x> = C primitive and
positive rational on its own free column.  Both come from one exact
double-description pass (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
and Prodon 1996) in ambient coordinates, whose one elimination seeds the
rays and yields the frame equalities; its cost grows with the number of
facets rather than with the number of point subsets.

A polytope runs that pass itself, on first use, or is handed the record
when it is built: by `from_points` and `cone_hull` (the record of their one
pass, renumbered), by a clip through its interior (the parent's frame, the
parent's facets through their kept vertices and crossing points, and the
cut restricted to the parent's affine hull), by a clip that leaves a facet
(the parent's frame and the facet row, and per ridge in it the other facet
through it, restricted) or by a translate (the parent's, offsets shifted).
`facets`, smaller faces and SL images are bare points.  A point has no
facets.  The record is canonical, so every hand-over equals what a fresh
pass on the same vertices derives.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import gcd, lcm
from typing import Iterable

from .exactnum import (Immutable, Scalar, _check_discriminant, _integer_rows, _literal,
                       _merge_discriminants, _surd_sign, as_scalar)
from .linalg import (Matrix, SingularMatrixError, Vector, _combine, _cross, _eliminate, _over,
                     _pair_dot, _primitive, _rationalized)


class EmptyPolytopeError(ValueError):
    """Operation needs a nonempty polytope."""


class Halfspace(Immutable):
    """Closed halfspace {x : <normal, x> <= offset}."""

    __slots__ = ("normal", "offset")

    normal: Vector
    offset: Scalar

    def __init__(self, normal: Vector, offset) -> None:
        if normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", as_scalar(offset))

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


class Polytope(Immutable):
    """Convex hull of finitely many points, in canonical vertex form.

    Build through from_points unless the points are already known to be
    the extreme points; the constructor only sorts and deduplicates.
    `_rows`, `_L` and `_d` are the canonical integer pair matrix of the
    vertices; `vertices` builds their Vectors on each call.  The other
    underscored slots hold derived data, None until first use: `_hull` the
    frame and facet record in integer pair rows, `_basis` the five basis
    values on integers that `triangulate._basis` reads off that record; no
    face's values are kept.
    """

    __slots__ = ("ambient_dim", "_rows", "_L", "_d", "_hull", "_basis")

    ambient_dim: int

    def __init__(self, ambient_dim: int, vertices: Iterable[Vector] = ()) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        vertices = tuple(vertices)
        if any(len(v) != ambient_dim for v in vertices):
            raise ValueError("vertex dimension does not match ambient_dim")
        # over one common L > 0, pairs (A, B) order as `Vector.sort_key`
        ints, L, d = _integer_rows([v.coords for v in vertices])
        self._fill(ambient_dim, tuple(sorted({tuple(row) for row in ints})), L, d)

    def _fill(self, ambient_dim: int, rows: tuple, L: int, d: int) -> None:
        for slot, value in zip(Polytope.__slots__, (ambient_dim, rows, L, d, None, None)):
            object.__setattr__(self, slot, value)

    @classmethod
    def _of(cls, ambient_dim: int, rows: tuple, L: int, d: int) -> Polytope:
        """Trusted constructor for sorted distinct row tuples over a common
        denominator L > 0, such as a subsequence of a canonical matrix: no
        dedupe or sort; one gcd makes L least, and d is 0 if every B is."""
        g = gcd(L, *chain.from_iterable(chain.from_iterable(rows))) if L > 1 else 1
        if g > 1:
            rows = tuple(tuple((a // g, b // g) for a, b in row) for row in rows)
        self = object.__new__(cls)
        self._fill(ambient_dim, rows, L // g, d if d and any(b for row in rows for _, b in row) else 0)
        return self

    @classmethod
    def empty(cls, ambient_dim: int) -> Polytope:
        return cls(ambient_dim, ())

    @property
    def vertices(self) -> tuple[Vector, ...]:
        L, d = self._L, self._d
        return tuple(Vector._of(tuple(Scalar._make(a, b, L, d) for a, b in row)) for row in self._rows)

    @property
    def is_empty(self) -> bool:
        return not self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope) and (self.ambient_dim, self._L, self._d, self._rows) == (
            other.ambient_dim, other._L, other._d, other._rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._L, self._rows))

    def __repr__(self) -> str:
        body = ", ".join(repr(list(map(str, v))) for v in self.vertices)
        return f"Polytope(n={self.ambient_dim}, vertices=[{body}])"


def field_discriminant(P: Polytope) -> int:
    return P._d


def origin(n: int) -> Vector:
    return Vector.zero(n)


# -- derived data ----------------------------------------------------------


def _last(row) -> int:
    """Column of the last nonzero normal entry of the row (W, C)."""
    return next(c for c in range(len(row) - 2, -1, -1) if row[c] != (0, 0))


def _canonical(row, d: int, col: int | None = None) -> tuple:
    """The row times the positive element of Z[sqrt d] that makes its entry
    on col (by default its last nonzero normal entry) rational, made
    primitive: s(A - B sqrt d) for that entry A + B sqrt d, s the sign that
    makes it positive."""
    A, B = row[_last(row) if col is None else col]
    if B:
        s = _surd_sign(A, B, d) * (1 if A * A > d * B * B else -1)
        A, B = s * A, -s * B
        row = [(a * A + d * b * B, a * B + b * A) for a, b in row]
    return tuple(_primitive(row))


def _supporting(ints, L: int, d: int) -> tuple[tuple, dict]:
    """Frame and facets of the points X / L in R^n, given as distinct integer
    pair rows X: (frame, {incident point bitmask: facet row}), the frame as
    `_frame` gives it, and per facet the canonical row (W, C) of
    <W, x> <= C, valid on every point and tight exactly on the incident
    ones, W zero off the pivot columns.  A point has no facets.

    Double description in Z[sqrt d] on x' = (X, -1), coordinates reversed.
    Each facet is a ray (r, Z, E): r a gcd-reduced integer vector with
    <r, x'> <= 0 on every point, Z the bitmask of tight points inserted so
    far, E the excesses <r, x'> at the candidates not yet inserted, over
    r's gcd.  Points go in far first, by decreasing sum of A^2 + d B^2 over
    their pairs, ties by index, which keeps the intermediate rays few (Avis,
    Bremner and Seidel 1997).  One `_eliminate` of [X | I], the x' as X's
    columns in that order, seeds all.  Its k + 1 rows that pivot on X pick
    the first affinely independent points, k = dim: right of X, row i is
    tight on each of them but the i-th, where the common pivot D orients
    it, and on X it holds its excess at every point, which gives the seed
    rays' E and the candidates, the points neither in that simplex nor
    strictly inside it.  Its other rows pivot in I, on the free columns (the
    dual's reverse greedy basis complements the forward one); each is D on
    its own free column, 0 on the others, and reads <w, X> = c on every
    point: the frame equality is <L w, x> = c.  Each candidate, read off E,
    drops the rays it violates and combines each with every adjacent
    satisfied one into a ray tight at it, E alike.  Two rays are adjacent
    iff their common tight set has at least k - 1 points and lies in no
    third ray's (Fukuda and Prodon 1996).  One rule at every k, the count
    tested first, the third-ray scan second.
    """
    n, m = len(ints[0]), len(ints)
    order = sorted(range(m), key=lambda i: (-sum(a * a + d * b * b for a, b in ints[i]), i))
    unit = [[(int(r == c), 0) for r in range(n + 1)] for c in range(n + 1)]
    pts = [(*ints[i][::-1], (-1, 0)) for i in order]
    form, pivots, _, D = _eliminate([list(row) for row in zip(*pts, *unit)], d)
    k = sum(c < m for c in pivots) - 1
    free = sorted(m + n - 1 - c for c in pivots[k + 1:])
    # a row r on x' is the row (L r reversed, r_n) on x, here times s
    on_x = lambda r, s: [(s * L * a, s * L * b) for a, b in r[n - 1::-1]] + [(s * r[n][0], s * r[n][1])]
    # -flip, the sign of D, makes each equality positive on its free column
    flip = -1 if _surd_sign(*D, d) > 0 else 1
    equalities = tuple(_canonical(on_x(row[m:], -flip), d, col) for row, col in zip(form[:k:-1], free))
    frame = (tuple(c for c in range(n) if c not in free), equalities)
    form = form[:k + 1] if k else []
    simplex = pivots[:len(form)]
    candidates = [c for c in range(m) if c not in simplex
                  and not all(flip * _surd_sign(*row[c], d) < 0 for row in form)]
    rays = []
    for row, c in zip(form, simplex):
        # the ray's gcd divides its X block; E lists the last candidate first
        v = _primitive([(flip * a, flip * b) for a, b in row[m:] + [row[t] for t in candidates[::-1]]])
        rays.append((v[:n + 1], sum(1 << order[j] for j in simplex if j != c), v[n + 1:]))
    for c in candidates:
        bit = 1 << order[c]
        violated, satisfied, kept = [], [], []
        for r, z, e in rays:
            x = e.pop()
            s = _surd_sign(*x, d) if d else x[0]
            if s > 0:
                violated.append((r, z, e, x))
            elif s < 0:
                kept.append((r, z, e))
                satisfied.append((r, z, e, x))
            else:
                kept.append((r, z | bit, e))
        for rv, zv, ev, xv in violated:
            for rs, zs, es, xs in satisfied:
                common = zv & zs
                if common.bit_count() < k - 1:
                    continue
                if any(z & common == common for _, z, _ in rays if z != zv and z != zs):
                    continue
                # xv > 0 > xs: the positive combination tight at the point
                r, e = _combine(rs, xv, rv, xs, d, es, ev)
                kept.append((r, common | bit, e))
        rays = kept
    return frame, {z: _canonical(on_x(r, 1), d) for r, z, _ in rays}


def _hull(P: Polytope) -> tuple[tuple, tuple[tuple[tuple, int], ...]]:
    """(`_frame`, `_facet_data`), from one pass unless P was handed them."""
    if P._hull is None:
        frame, found = _supporting(P._rows, P._L, P._d)
        _fill_hull(P, frame, [(row, z) for z, row in found.items()])
    return P._hull


def _frame(P: Polytope) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Pivot columns of the reduced echelon form of the directions v - v0,
    and per free column, in increasing order, the canonical row of the
    equality pinning aff P that is nonzero there and 0 on the other free
    columns.  Both depend only on aff P."""
    return _hull(P)[0]


def _facet_data(P: Polytope) -> tuple[tuple[tuple, int], ...]:
    """Canonical row and incident vertex bitmask of every facet, sorted by
    incident indices; a point has none."""
    return _hull(P)[1]


def _origin_signs(P: Polytope) -> list[tuple[int, int]] | None:
    """Where the origin lies, read off the hull record: None if P is empty
    or 0 is off aff P, which is when some frame equality has an offset C !=
    0; else per facet, in `_facet_data` order, the sign of its offset, which
    is that of its slack at the origin, and its incident vertex bitmask."""
    if P.is_empty:
        return None
    (_, equalities), data = _hull(P)
    if any(row[-1] != (0, 0) for row in equalities):
        return None
    return [(_surd_sign(*row[-1], P._d), z) for row, z in data]


def _restricted(frame, row, d: int) -> tuple:
    """The halfspace row (W, C) on the affine hull with this frame, in the
    form a fresh pass gives: W cleared on each free column by the frame
    equality that is nonzero there, then canonical."""
    pivots, equalities = frame
    free = [col for col in range(len(row) - 1) if col not in pivots]
    for col, e in zip(free, equalities):
        f = row[col]
        if f != (0, 0):
            row = _cross(row, e[col], e, f, d)
    return _canonical(row, d)


def _indices(z: int) -> list[int]:
    """The set bits of z, in increasing order."""
    out = []
    while z:
        low = z & -z
        out.append(low.bit_length() - 1)
        z ^= low
    return out


def _fill_hull(P: Polytope, frame, items) -> None:
    object.__setattr__(P, "_hull", (frame, tuple(sorted(items, key=lambda item: _indices(item[1])))))


def _face(P: Polytope, z: int) -> Polytope:
    """The bare polytope on P's vertices in the bitmask z."""
    return Polytope._of(P.ambient_dim, tuple(P._rows[i] for i in _indices(z)), P._L, P._d)


def _ridges(face: int, masks, k: int, avoid: int = 0) -> dict[int, int]:
    """The facets of the k-face `face` that miss `avoid`, each with the index
    of a facet of `masks` through it: the proper meets with masks that miss
    `avoid`, have >= k vertices and lie in no other such meet.  One rule at
    every k, the vertex count tested first."""
    meets = {r: g for g, m in enumerate(masks)
             if (r := face & m) != face and not r & avoid and r.bit_count() >= k}
    return {r: g for r, g in meets.items() if not any(r & s == r != s for s in meets)}


def _extreme(raw: Polytope) -> Polytope:
    """The hull of raw's points, handed the record of one pass on them (raw only
    if all are extreme): a point is extreme iff it is alone on every facet through it."""
    frame, found = _supporting(raw._rows, raw._L, raw._d)
    m = len(raw._rows)
    meet = [(1 << m) - 1] * m
    for z in found:
        for i in _indices(z):
            meet[i] &= z
    keep = [i for i in range(m) if meet[i] == 1 << i]
    if len(keep) < m:
        raw = _face(raw, sum(1 << i for i in keep))
        found = {sum(1 << j for j, i in enumerate(keep) if z >> i & 1): h for z, h in found.items()}
    _fill_hull(raw, frame, [(h, z) for z, h in found.items()])
    return raw


def _hull_of(rows: list, ambient_dim: int | None, L: int, d: int) -> Polytope:
    """`from_points` on pair rows over L in Z[sqrt d]."""
    if not rows:
        if ambient_dim is None:
            raise ValueError("empty point set needs an explicit ambient_dim")
        return Polytope.empty(ambient_dim)
    n = len(rows[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("points do not match the requested ambient_dim")
    if any(len(p) != n for p in rows):
        raise ValueError("points of mixed dimension")
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    return _extreme(Polytope._of(n, tuple(sorted(set(rows))), L, d))


def from_points(points: Iterable, ambient_dim: int | None = None) -> Polytope:
    """Canonical hull: keeps exactly the extreme points of the input.

    One double-description pass over the distinct points settles every
    point and hands the result its canonical frame and facets, renumbered.
    Tuples or lists of ints are pair rows over L = 1, any other point a Vector.
    """
    pts = list(points)
    if all(type(p) in (tuple, list) and all(type(c) is int for c in p) for p in pts):
        return _hull_of([tuple((c, 0) for c in p) for p in pts], ambient_dim, 1, 0)
    ints, L, d = _integer_rows([(p if isinstance(p, Vector) else Vector(p)).coords for p in pts])
    return _hull_of([tuple(row) for row in ints], ambient_dim, L, d)


def dim(P: Polytope) -> int:
    if P.is_empty:
        raise EmptyPolytopeError("dimension of the empty polytope is undefined")
    return len(_frame(P)[0])


def facets(P: Polytope) -> tuple[tuple[Halfspace, Polytope], ...]:
    """All (dim-1)-faces as polytopes with their supporting halfspaces.

    Each facet is built by index from P's vertices and runs its own pass
    when asked for face data.  Its halfspace is its row divided by the
    absolute value of the row's last nonzero normal entry, which is rational.
    """
    out = []
    for row, z in _facet_data(P):
        *w, c = _over(row, (abs(row[_last(row)][0]), 0), P._d)
        out.append((Halfspace(Vector._of(tuple(w)), c), _face(P, z)))
    return tuple(out)


# -- membership ----------------------------------------------------------


def _meets(P: Polytope, x: Vector, facets: bool) -> bool:
    """x lies in aff P, and if facets is set, in P: on integer pairs."""
    if P.is_empty:
        return False
    if len(x) != P.ambient_dim:
        raise ValueError("point dimension does not match the polytope")
    (X,), L, e = _integer_rows([x.coords])
    # <(W, C), (X, -L)> = <W, X> - C L has the sign of <W, x> - C
    X, d = (*X, (-L, 0)), _merge_discriminants(P._d, e)
    return all(_pair_dot(row, X, d) == (0, 0) for row in _frame(P)[1]) and (
        not facets or all(_surd_sign(*_pair_dot(row, X, d), d) <= 0 for row, _ in _facet_data(P)))


def in_affine_hull(P: Polytope, x: Vector) -> bool:
    return _meets(P, x, False)


def contains(P: Polytope, x: Vector) -> bool:
    return _meets(P, x, True)


def relint_contains_origin(P: Polytope) -> bool:
    signs = _origin_signs(P)
    return signs is not None and all(s > 0 for s, _ in signs)


def clip(P: Polytope, H: Halfspace) -> Polytope:
    """P cut down to the halfspace: `_clip` on the integer pair row of H."""
    if len(H.normal) != P.ambient_dim:
        raise ValueError("halfspace dimension does not match the polytope")
    (row,), _, e = _integer_rows([H.normal.coords + (H.offset,)])
    return _clip(P, row, e)


def _clip(P: Polytope, row, e: int) -> Polytope:
    """P cut down to the halfspace <W, x> <= C of the integer pair row
    (W, C) in Z[sqrt e].

    Kept vertices stay extreme, and a straddling edge meets the cut
    hyperplane in a single new vertex, so the result needs no pruning.  A
    straddling vertex pair is an edge iff the vertices on every facet
    through both are exactly the pair (Kaibel and Pfetsch 2002); no facet
    of a segment passes through both its vertices, so all are left.

    A cut that leaves a face of P returns its points, and hands a facet of
    P its record: the facet row, positive and rational on its last nonzero
    entry c, pins the new free column c, where it clears each old equality,
    made primitive; the facet's facets are the ridges of P in it, each the
    row of the one other facet through it, restricted.  A cut with a vertex
    strictly inside has the affine hull of P, so it is handed P's frame and
    its facets: those of P with a vertex strictly inside, through their
    kept vertices and their crossing points, and the cut restricted to
    aff P, through the kept vertices on it and every crossing point.

    With vertices X_i / L, vertex i has the sign of E_i = <W, X_i> - C L,
    and edge ij meets the cut at (E_i X_j - E_j X_i) / (L (E_i - E_j)),
    rationalized.  One sort of the kept and crossing rows over one common
    denominator M orders Q's vertices; a crossing lies inside an edge, so
    none repeats a vertex, and the facet record reads positions off that
    sort.  One gcd then reduces M to the least common denominator.
    """
    n = P.ambient_dim
    ints, L = P._rows, P._L
    d = _merge_discriminants(P._d, e)
    excesses = [_pair_dot(row, (*X, (-L, 0)), d) for X in ints]
    signs = [_surd_sign(A, B, d) for A, B in excesses]
    if all(s <= 0 for s in signs):
        return P
    kept = [i for i, s in enumerate(signs) if s <= 0]
    if not kept:
        return Polytope.empty(n)
    if all(signs[i] == 0 for i in kept):
        z = sum(1 << i for i in kept)
        F = _face(P, z)
        (pivots, equalities), data = _hull(P)
        masks = [m for _, m in data]
        if z in masks:
            h = data[masks.index(z)][0]
            c = _last(h)
            h = h if h[c][0] > 0 else tuple((-a, -b) for a, b in h)
            free = [col for col in range(n) if col not in pivots]
            rows = {col: e if e[c] == (0, 0) else tuple(_primitive(_cross(e, h[c], h, e[c], P._d)))
                    for col, e in zip(free, equalities)}
            rows[c] = h
            frame = (tuple(p for p in pivots if p != c), tuple(rows[col] for col in sorted(rows)))
            ridges = _ridges(z, masks, len(pivots) - 1) if len(pivots) > 1 else {}
            _fill_hull(F, frame, [(_restricted(frame, data[g][0], P._d),
                                   sum(1 << new for new, i in enumerate(kept) if r >> i & 1))
                                  for r, g in ridges.items()])
        return F
    frame, data = _hull(P)
    everything = (1 << len(signs)) - 1
    crossing = []
    through: list[list[int]] = []
    for i, j in combinations(range(len(signs)), 2):
        if signs[i] * signs[j] >= 0:
            continue
        pair = 1 << i | 1 << j
        shared = [g for g, (_, z) in enumerate(data) if z & pair == pair]
        meet = everything
        for g in shared:
            meet &= data[g][1]
        if meet != pair:
            continue
        through.append(shared)
        (Ai, Bi), (Aj, Bj) = excesses[i], excesses[j]
        x, q = _rationalized(_cross(ints[j], excesses[i], ints[i], excesses[j], d),
                             (L * (Ai - Aj), L * (Bi - Bj)), d)
        crossing.append((x, q) if q > 0 else ([(-a, -b) for a, b in x], -q))
    M = lcm(L, *(q for _, q in crossing))
    rows = [tuple((a * (M // L), b * (M // L)) for a, b in ints[i]) for i in kept]
    rows += [tuple((a * (M // q), b * (M // q)) for a, b in x) for x, q in crossing]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    Q = Polytope._of(n, tuple(rows[t] for t in order), M, d)
    position = sorted(range(len(order)), key=order.__getitem__)
    # the bit of each kept vertex and crossing point in Q, by P index or edge
    bit = [1 << q for q in position]
    at = dict(zip(kept, bit))
    on = [0] * len(data)
    for b, shared in zip(bit[len(kept):], through):
        for g in shared:
            on[g] |= b
    inside = sum(1 << i for i, s in enumerate(signs) if s < 0)
    items = [(h, sum(at[i] for i in kept if z >> i & 1) | on[g])
             for g, (h, z) in enumerate(data) if z & inside]
    cut = sum(at[i] for i in kept if signs[i] == 0) | sum(bit[len(kept):])
    items.append((_restricted(frame, row, d), cut))
    _fill_hull(Q, frame, items)
    return Q


def cone_hull(P: Polytope) -> Polytope:
    """Hull of the polytope together with the origin: one pass on P's rows
    and a zero row, which `_hull_of` keeps single when 0 is already a vertex."""
    return _hull_of([*P._rows, ((0, 0),) * P.ambient_dim], P.ambient_dim, P._L, P._d)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Exact intersection of any two polytopes in one space.

    The operand of lower dimension (P on a tie) is clipped by both sides of
    each equality pinning the other's affine hull, which leaves its part in
    that hull, and then by the other's facet rows.  A clip by one of the
    cut operand's own facets returns it, so those are skipped: the ones the
    operands share as the same row object, as two clips of one polytope
    share its facets, found by identity without hashing.
    """
    n = P.ambient_dim
    if Q.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if P.is_empty or Q.is_empty:
        return Polytope.empty(n)
    cut, by = (Q, P) if dim(Q) < dim(P) else (P, Q)
    own = {id(row) for row, _ in _facet_data(cut)}
    rows = [side for e in _frame(by)[1] for side in (e, tuple((-a, -b) for a, b in e))]
    rows += [row for row, _ in _facet_data(by) if id(row) not in own]
    result = cut
    for row in rows:
        result = _clip(result, row, by._d)
        if result.is_empty:
            break
    return result


def transform(A: Matrix, P: Polytope) -> Polytope:
    """Image under an invertible linear map; extreme points stay extreme.

    A is invertible iff one `_eliminate` of its integer rows pivots on
    every column.  The image rows are A's integer rows times P's, over the
    product of their denominators, sorted; it runs its own pass when asked
    for face data.
    """
    n = P.ambient_dim
    if A.nrows != n:
        raise ValueError("transform needs an n x n matrix for a polytope in R^n")
    if A.ncols != n:
        raise ValueError("transform needs a square matrix")
    rows, LA, e = _integer_rows(A.rows)
    rank = len(_eliminate(rows, e)[1])
    if rank < n:
        raise SingularMatrixError(rank)
    d = _merge_discriminants(P._d, e)
    image = sorted(tuple(_pair_dot(a, X, d) for a in rows) for X in P._rows)
    return Polytope._of(n, tuple(image), LA * P._L, d)


def translate(P: Polytope, t: Vector) -> Polytope:
    """P + t: `_translate` by the integer pair row of t."""
    if len(t) != P.ambient_dim:
        raise ValueError("translation dimension does not match the polytope")
    if P.is_empty:
        return P
    (T,), Lt, e = _integer_rows([t.coords])
    return _translate(P, T, Lt, e)


def _translate(P: Polytope, T, Lt: int, e: int) -> Polytope:
    """P + T / Lt, T integer pairs in Z[sqrt e], Lt > 0.  A translation keeps
    the vertex order, so P's frame and facets, derived first if need be, and
    their order carry over: the row (W, C) becomes (Lt W, Lt C + <W, T>),
    made primitive, which is canonical."""
    d = _merge_discriminants(P._d, e)
    L = P._L
    Q = Polytope._of(P.ambient_dim, tuple(tuple((a * Lt + ta * L, b * Lt + tb * L)
                                                for (a, b), (ta, tb) in zip(X, T)) for X in P._rows),
                     L * Lt, d)

    def shifted(row):
        A, B = _pair_dot(row, T, d)
        Ca, Cb = row[-1]
        return tuple(_primitive([(a * Lt, b * Lt) for a, b in row[:-1]] + [(Ca * Lt + A, Cb * Lt + B)]))

    (pivots, equalities), data = _hull(P)
    _fill_hull(Q, (pivots, tuple(map(shifted, equalities))), [(shifted(row), z) for row, z in data])
    return Q


# -- serialization -------------------------------------------------------


def to_json(P: Polytope) -> dict:
    return {
        "ambient_dim": P.ambient_dim,
        "field_d": field_discriminant(P),
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def from_json(obj: dict) -> Polytope:
    """The hull of a `to_json` object: rows of raw `_literal` triples, checked against
    the field, over the lcm of their q, into `_hull_of`, whose `_of` reduces them."""
    try:
        n, d, raw = obj["ambient_dim"], obj["field_d"], obj["vertices"]
        if type(n) is not int or type(d) is not int:
            raise ValueError("ambient_dim and field_d must be JSON integers")
        if type(raw) is not list or any(type(row) is not list for row in raw):
            raise ValueError("vertices must be a JSON list of JSON lists")
        d = _check_discriminant(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad polytope object: {exc}") from None
    rows = []
    for row in raw:
        rows.append([_literal(text, d) for text in row])
        for c in rows[-1]:
            if c[3] not in (0, d):
                raise ValueError(f"vertex scalar {Scalar._make(*c)} outside declared field sqrt({d})")
    L = lcm(*(q for row in rows for _, _, q, _ in row))
    return _hull_of([tuple((a * (L // q), b * (L // q)) for a, b, q, _ in row) for row in rows], n, L, d)
