"""Exact volumes from the pulling triangulation on the facet incidences.

Every face is coned from its lowest-index vertex over those of its facets
that miss that vertex, recursively.  The cells are the pulling
triangulation of P from its first vertex, which are also the simplex
leaves of the pyramid recursion with that apex (Bueler, Enge and Fukuda
2000).  A face is a bitmask of P's vertex indices, and its facets are the
inclusion-maximal proper meets of it with P's facet bitmasks (only from
dimension 5 on can a lower face have as many vertices as a facet, so below
that the vertex count alone decides).  The recursion thus reads only the
incidences of P's facet record, derives no face's frame or record, and
keeps its faces for one call.

A cell of a full-dimensional P has volume |D| / (L^n n!), D the integer
pair determinant of X_i - X_0, X_i / L its vertices, the rows of P's
canonical integer pair matrix.  The pyramid from 0 over an (n-1)-face F
with 0 off aff F is the union of the cones from 0 over F's cells,
|det X| / (L^n n!) each, X the cell's rows.  The |D| are summed on
integers, and P keeps its five basis values on integers in its `_basis`
slot.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactnum import Scalar, _surd_sign
from .linalg import _det
from .polytope import Polytope, _facet_data, _indices, _origin_signs, _ridges, dim


def _cells(masks: list[int], face: int, k: int, memo: dict) -> list[int]:
    """Cells of the pulling triangulation of the k-face `face`, as vertex
    bitmasks; `masks` are the polytope's facet bitmasks.  The face's facets
    are its `_ridges` that miss the apex."""
    if face.bit_count() == k + 1:
        return [face]
    if face not in memo:
        apex = face & -face
        memo[face] = [cell | apex for g in _ridges(face, masks, k, apex)
                      for cell in _cells(masks, g, k - 1, memo)]
    return memo[face]


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


def _basis(P: Polytope) -> tuple:
    """(euler, relint_sign, volume, origin_indicator, cone_volume) of P,
    kept in its `_basis` slot: ints, and triples (A, B, q) meaning
    (A + B sqrt d) / q.  0 is in relint P iff it is in aff P and every facet
    offset is > 0, in P iff every offset is >= 0; the cone term is vol P
    and the pyramids from 0 over the faces it sees, over one q."""
    if P._basis is None and P._rows:
        n, k, signs, full = P.ambient_dim, dim(P), _origin_signs(P), [(1 << len(P._rows)) - 1]
        relint = (-1) ** k if signs is not None and all(s > 0 for s, _ in signs) else 0
        inside = int(signs is not None and all(s >= 0 for s, _ in signs))
        vol = cone = _cell_sum(P, P._rows, full, n, False) if k == n else (0, 0, 1)
        seen = [z for s, z in signs if s < 0] if k == n else full if k == n - 1 and signs is None else []
        if seen:
            A, B, q = _cell_sum(P, P._rows, seen, n - 1, True)
            cone = (vol[0] + A, vol[1] + B, q)
        object.__setattr__(P, "_basis", (1, relint, vol, inside, cone))
    return P._basis or (0, 0, (0, 0, 1), 0, (0, 0, 1))


# size 0 stores and hashes nothing (P's `_basis` slot keeps its volume); the wrapper
# stays only for the cache_info() perfbench/tracing.py reads, until the tracer changes
@lru_cache(maxsize=0)
def volume(P: Polytope) -> Scalar:
    """Lebesgue volume in the ambient dimension; 0 below full dimension."""
    return Scalar._make(*_basis(P)[2], P._d)
