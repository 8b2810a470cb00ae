"""Exact volume by pyramid recursion on the facet data.

Let k = dim P, a the first vertex of P and <w_F, x> <= c_F its facet
halfspaces.  The pyramids with apex a over the facets not through a tile
P, so (Lasserre, JOTA 39, 1983, with a vertex as apex; Bueler, Enge and
Fukuda 2000)

    vol_k P = (1/k) * sum over facets F not through a of (c_F - <w_F, a>) * vol_{k-1} F.

Every volume is taken in the polytope's own pivot coordinates, the pivot
columns of its frame, and needs no norm.  The last nonzero entry of w_F
is +-1, and its column is exactly the one F's own frame drops.  The
height of a over F is (c_F - <w_F, a>) / |w_F|, and dropping that column
shrinks F's (k-1)-volume by the factor 1 / |w_F|, so the two norms
cancel.  A simplex ends the recursion with |det| / k! on its pivot
columns; its cells are those of the pulling triangulation from the first
vertex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactnum import ONE, ZERO, Scalar
from .linalg import Matrix, det
from .polytope import Polytope, _facet_data, _frame, dim, facets, in_affine_hull, origin


def _pivot_volume(P: Polytope) -> Scalar:
    """vol_k P in P's pivot coordinates, k = dim P."""
    pivots = _frame(P)[0]
    k = len(pivots)
    if k == 0:
        return ONE
    a = P.vertices[0]
    if len(P.vertices) == k + 1:
        rows = [[v[c] - a[c] for c in pivots] for v in P.vertices[1:]]
        return abs(det(Matrix(rows))) / Fraction(factorial(k))
    total = ZERO
    for (h, incident), (_, F) in zip(_facet_data(P), facets(P)):
        if 0 not in incident:
            total = total + (h.offset - h.normal.dot(a)) * _pivot_volume(F)
    return total / Fraction(k)


# the cache stays only because perfbench/tracing.py reads cache_info() by name
@lru_cache(maxsize=None)
def volume(P: Polytope) -> Scalar:
    """Lebesgue volume in the ambient dimension; 0 below full dimension."""
    if P.is_empty or dim(P) < P.ambient_dim:
        return ZERO
    return _pivot_volume(P)


def apex_volume(F: Polytope) -> Scalar:
    """Volume of conv(F ∪ {0}) for dim F = n - 1 with 0 off aff F.

    F's one frame equality <w, x> = b has its last nonzero entry 1 on the
    column F's pivots drop, so the height |b| / |w| and F's pivot volume
    times |w| give the pyramid |b| * vol(F) / n.
    """
    n = F.ambient_dim
    if dim(F) != n - 1 or in_affine_hull(F, origin(n)):
        raise ValueError(f"apex volume needs dim n-1 with 0 off the affine hull: {F!r}")
    ((_, b),) = _frame(F)[1]
    return abs(b) * _pivot_volume(F) / Fraction(n)
