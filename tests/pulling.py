"""Pulling triangulations: the second, independent volume route of the tests.

Every face is coned from its first vertex in a fixed total order on the
vertices of the whole polytope.  Using one order consistently through the
recursion is what makes the output a simplicial complex, so the order is
part of every recursive call.  Each cell's volume is |det| / n! on the
ambient coordinates, with no facet offsets involved, so summing the cells
checks `slval.triangulate.volume` by a different computation.

Unlike `oracles.py` this module builds on slval's polytopes: it reads the
facets of `slval.polytope` and the exact determinant of `slval.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable

from slval.exactnum import ZERO, Scalar
from slval.linalg import Matrix, Vector, affine_rank, det
from slval.polytope import EmptyPolytopeError, Polytope, _intersect_unchecked, dim, facets


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
        return Polytope(self.ambient_dim, self.vertices)

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
        expected = Polytope(pa.ambient_dim, common)
        if _intersect_unchecked(pa, pb) != expected:
            return (a, b)
    return True
