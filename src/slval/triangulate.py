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

With k = dim P, a cell's volume is |D| / (L^k k!), D the integer pair
determinant of X_i - X_0, X_i / L its vertices' pivot coordinates, read
straight off the columns of P's canonical integer pair matrix.  The |D|
are summed on integers; P keeps the sum and its denominator in its
`_volume` slot, and one Scalar is built from them.  The pyramid from 0 over
an (n-1)-face F with 0 off aff F is the union of the cones from 0 over F's
cells, |det X| / (L^n n!) each, X the cell's rows of that matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactnum import ZERO, Scalar, _surd_sign
from .linalg import _det
from .polytope import Polytope, _facet_data, _frame, _origin_signs, _ridges, dim


def _cells(masks: list[int], face: int, k: int, memo: dict) -> list[int]:
    """Cells of the pulling triangulation of the k-face `face`, as vertex
    bitmasks; `masks` are the polytope's facet bitmasks.  The face's facets
    are its `_ridges`, and those through the apex are skipped."""
    if face.bit_count() == k + 1:
        return [face]
    if face not in memo:
        apex = face & -face
        memo[face] = [cell | apex for g in _ridges(face, masks, k) if not g & apex
                      for cell in _cells(masks, g, k - 1, memo)]
    return memo[face]


def _cell_sum(P: Polytope, points, faces, k: int, from_origin: bool) -> tuple[int, int, int]:
    """Sum of |det X| over the cells of the k-faces `faces` of P (vertex
    bitmasks), as its pair (A, B) and L^m m!, L the denominator of P's rows:
    X the cell's rows of `points` (P's integer pair rows, or their pivot
    columns) if from_origin, else their differences from its first; m the
    columns."""
    d = P._d
    masks = [z for _, z in _facet_data(P)]
    memo: dict = {}
    A = B = 0
    for face in faces:
        for cell in _cells(masks, face, k, memo):
            x0, *rest = X = [x for i, x in enumerate(points) if cell >> i & 1]
            if not from_origin:
                X = [[(a - a0, b - b0) for (a, b), (a0, b0) in zip(x, x0)] for x in rest]
            a, b = _det(X, d)
            s = _surd_sign(a, b, d)
            A, B = A + s * a, B + s * b
    m = len(points[0])
    return A, B, P._L ** m * factorial(m)


def _pivot_volume(P: Polytope) -> Scalar:
    """vol_k P in P's pivot coordinates, k = dim P; P keeps its integer
    triple, filled once."""
    if P._volume is None:
        pivots = _frame(P)[0]
        rows = [[row[c] for c in pivots] for row in P._rows]
        object.__setattr__(P, "_volume", _cell_sum(P, rows, [(1 << len(rows)) - 1], len(pivots), False))
    return Scalar._make(*P._volume, P._d)


# the cache stays only because perfbench/tracing.py reads cache_info() by name
@lru_cache(maxsize=None)
def volume(P: Polytope) -> Scalar:
    """Lebesgue volume in the ambient dimension; 0 below full dimension."""
    if P.is_empty or dim(P) < P.ambient_dim:
        return ZERO
    return _pivot_volume(P)


def apex_volume(P: Polytope, faces=None) -> Scalar:
    """Volume of the union of conv(F ∪ {0}) over the (n-1)-faces F of P
    given as vertex bitmasks, each with 0 off aff F; without `faces`,
    over P itself, which must then have dim n - 1 with 0 off aff P."""
    n = P.ambient_dim
    if faces is None:
        if dim(P) != n - 1 or _origin_signs(P) is not None:
            raise ValueError(f"apex volume needs dim n-1 with 0 off the affine hull: {P!r}")
        faces = [(1 << len(P._rows)) - 1]
    return Scalar._make(*_cell_sum(P, P._rows, faces, n - 1, True), P._d)
