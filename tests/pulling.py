"""Pulling triangulations as explicit simplices, in any vertex order.

Every face is coned from its first vertex in a fixed total order on the
vertices of the whole polytope.  Using one order consistently through the
recursion is what makes the output a simplicial complex, so the order is
part of every recursive call.  Each cell's volume is |det| / n! on the
ambient coordinates.  The tests use the cells as covers whose pieces meet
in common faces and check that they form a complex; in the default order
they are the cells that `slval.triangulate` sums, so the second volume
route of the tests is the pyramid recursion in `oracles.py` instead.

Unlike `oracles.py` this module builds on slval's polytopes: it reads the
facets of `slval.polytope` and the exact determinant and rank of
`slval.linalg`.

`_cell_sum` sums the pulling cells of `slval.triangulate._cells` over a
list of faces, coned from the first vertex or from the origin, each call
with its own memo.  `two_walk_basis`, the reference of the one facet walk
of `slval.triangulate._basis`, reads the volume and the cone part by two
such sums, one from P's full vertex mask; it, `apex_volume`, the tests'
pivot-coordinate volumes and `oracles.scalar_basis_vector` take their
determinants here (`_det` of this module), not in `slval.triangulate`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable, Sequence

from slval.exactnum import ZERO, Scalar, _surd_sign
from slval.linalg import Matrix, Vector, _det, det, matrix_rank
from slval.polytope import (EmptyPolytopeError, Polytope, _facet_data, _indices, _origin_signs,
                            dim, facets, intersect)
from slval.triangulate import _cells

from records import bare


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    pts = list(points)
    if not pts:
        return -1
    origin = pts[0]
    return matrix_rank([list(p - origin) for p in pts[1:]])


class Simplex:
    """Affinely independent vertex tuple, stored sorted."""

    __slots__ = ("ambient_dim", "vertices")

    ambient_dim: int
    vertices: tuple[Vector, ...]

    def __init__(self, ambient_dim: int, vertices: Iterable[Vector]) -> None:
        ordered = tuple(sorted(vertices, key=Vector.sort_key))
        if affine_rank(ordered) != len(ordered) - 1:
            raise ValueError("simplex vertices must be affinely independent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def as_polytope(self) -> Polytope:
        return bare(self.ambient_dim, self.vertices)

    def volume(self) -> Scalar:
        """Full-dimensional volume; 0 when the simplex is lower-dimensional."""
        n = self.ambient_dim
        if self.dim < n:
            return ZERO
        v0 = self.vertices[0]
        rows = [list(v - v0) for v in self.vertices[1:]]
        return abs(det(Matrix(rows))) / Fraction(factorial(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Simplex)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        body = ", ".join(repr(list(map(str, v))) for v in self.vertices)
        return f"Simplex(n={self.ambient_dim}, [{body}])"


class Triangulation:
    __slots__ = ("simplices",)

    simplices: tuple[Simplex, ...]

    def __init__(self, simplices: Iterable[Simplex]) -> None:
        cells = tuple(sorted(simplices, key=lambda s: tuple(v.sort_key() for v in s.vertices)))
        if cells:
            k = cells[0].dim
            if any(s.dim != k for s in cells):
                raise ValueError("triangulation cells must share one dimension")
            if any(s.ambient_dim != cells[0].ambient_dim for s in cells):
                raise ValueError("triangulation cells must share the ambient space")
        object.__setattr__(self, "simplices", cells)

    def __setattr__(self, name, value):
        raise AttributeError("Triangulation is immutable")

    def dim(self) -> int:
        return self.simplices[0].dim if self.simplices else -1

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Triangulation) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"Triangulation({len(self.simplices)} cells, dim {self.dim()})"


@lru_cache(maxsize=None)
def _pull(P: Polytope, order: tuple[Vector, ...]) -> tuple[Simplex, ...]:
    rank = {v: i for i, v in enumerate(order)}
    verts = P.vertices
    if len(verts) == dim(P) + 1:
        return (Simplex(P.ambient_dim, verts),)
    anchor = min(verts, key=rank.__getitem__)
    cells = []
    for _, face in facets(P):
        if anchor in face.vertices:
            continue
        sub_order = tuple(v for v in order if v in set(face.vertices))
        for cell in _pull(face, sub_order):
            cells.append(Simplex(P.ambient_dim, cell.vertices + (anchor,)))
    return tuple(cells)


def triangulate(P: Polytope, order: tuple[Vector, ...] | None = None) -> Triangulation:
    """Pulling triangulation of P; the optional order varies the complex."""
    if P.is_empty:
        raise EmptyPolytopeError("cannot triangulate the empty polytope")
    if order is None:
        order = P.vertices
    else:
        order = tuple(order)
        if sorted(order, key=Vector.sort_key) != list(P.vertices):
            raise ValueError("order must be a permutation of the vertices")
    return Triangulation(_pull(P, order))


def verify_complex(T: Triangulation):
    """True when every pair meets in the hull of its shared vertices.

    Pairwise agreement suffices for convex cells; the witness on failure
    is the offending pair.
    """
    cells = T.simplices
    for a, b in combinations(cells, 2):
        pa, pb = a.as_polytope(), b.as_polytope()
        common = set(pa.vertices) & set(pb.vertices)
        expected = bare(pa.ambient_dim, common)
        if intersect(pa, pb) != expected:
            return (a, b)
    return True


def _cell_sum(P: Polytope, points, faces, k: int, from_origin: bool) -> tuple[int, int, int]:
    """Sum of |det X| over the cells of the k-faces `faces` of P (vertex
    bitmasks), as its pair (A, B) and L^m m!, L the denominator of P's rows:
    X the cell's rows of `points` (P's integer pair rows, or a choice of
    their columns) if from_origin, else their differences from its first; m
    the columns."""
    d = P._d
    masks = [z for _, z in _facet_data(P)]
    memo: dict = {}
    A = B = 0
    for face in faces:
        for cell in _cells(masks, face, k, memo):
            x0, *rest = X = [points[i] for i in _indices(cell)]
            if not from_origin:
                X = [[(a - a0, b - b0) for (a, b), (a0, b0) in zip(x, x0)] for x in rest]
            a, b = _det(X, d)
            s = _surd_sign(a, b, d)
            A, B = A + s * a, B + s * b
    m = len(points[0])
    return A, B, P._L ** m * factorial(m)


def two_walk_basis(P: Polytope) -> tuple:
    """The integer basis that `slval.triangulate._basis` keeps, read afresh
    by two `_cell_sum` walks: the volume from P's full vertex mask, and the
    cone part over the faces 0 sees."""
    if P.is_empty:
        return 0, 0, (0, 0, 1), 0, (0, 0, 1)
    n, k, signs, full = P.ambient_dim, dim(P), _origin_signs(P), [(1 << len(P._rows)) - 1]
    relint = (-1) ** k if signs is not None and all(s > 0 for s, _ in signs) else 0
    inside = int(signs is not None and all(s >= 0 for s, _ in signs))
    vol = cone = _cell_sum(P, P._rows, full, n, False) if k == n else (0, 0, 1)
    seen = [z for s, z in signs if s < 0] if k == n else full if k == n - 1 and signs is None else []
    if seen:
        A, B, q = _cell_sum(P, P._rows, seen, n - 1, True)
        cone = (vol[0] + A, vol[1] + B, q)
    return 1, relint, vol, inside, cone


def apex_volume(P, faces=None):
    """Volume of the union of conv(F ∪ {0}) over the (n-1)-faces F of P
    given as vertex bitmasks, each with 0 off aff F; without `faces`, over
    P itself, which must then have dim n - 1 with 0 off aff P: the cone
    cells that `slval.triangulate` sums for the cone term."""
    n = P.ambient_dim
    if faces is None:
        if dim(P) != n - 1 or _origin_signs(P) is not None:
            raise ValueError(f"apex volume needs dim n-1 with 0 off the affine hull: {P!r}")
        faces = [(1 << len(P._rows)) - 1]
    return Scalar._make(*_cell_sum(P, P._rows, faces, n - 1, True), P._d)
