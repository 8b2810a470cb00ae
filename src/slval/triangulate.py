"""Exact volumes from the pulling triangulation on the facet incidences.

Every face is coned from its lowest-index vertex over those of its facets
that miss that vertex, recursively.  The cells are the pulling
triangulation of P from its first vertex, which are also the simplex
leaves of the pyramid recursion with that apex (Bueler, Enge and Fukuda
2000).  A face is a bitmask of P's vertex indices, and its facets are the
proper meets of it with P's facet bitmasks that lie in no other such
meet, one rule in every dimension.  The recursion thus reads only the
incidences of P's facet record, derives no face's frame or record, and
keeps its faces for one polytope.

`_basis` walks P's facet record once, with one memo.  A facet F that
misses vertex 0 gives the cells of P coned from it, |D| / (L^n n!) each,
D the integer pair determinant of X_i - X_0, X_i / L the rows of P's
canonical integer pair matrix.  One that 0 sees (offset < 0) gives the
cones from 0 over its cells, |det X| / (L^n n!) each: the pyramid over F.
A flat P of dimension n - 1 with 0 off aff P is the one face 0 sees.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactnum import Scalar, _surd_sign
from .linalg import _det
from .polytope import Polytope, _facet_data, _indices, _origin_signs, _ridges, dim


#: cap on the pulling cells `_basis` walks for one polytope, counted before any
#: determinant; past it `_basis` raises ValueError
MAX_CELLS = 50_000


def _cells(masks: list[int], face: int, k: int, memo: dict) -> list[int]:
    """Cells of the pulling triangulation of the k-face `face`, as vertex
    bitmasks; `masks` are the polytope's facet bitmasks and `memo` its one
    dict of the faces met so far.  The face's facets are its `_ridges` that
    miss the apex."""
    if face.bit_count() == k + 1:
        return [face]
    if face not in memo:
        apex = face & -face
        memo[face] = [cell | apex for g in _ridges(face, masks, apex)
                      for cell in _cells(masks, g, k - 1, memo)]
    return memo[face]


def _abs_det(X, d: int) -> tuple[int, int]:
    """|det X| for square integer pair rows X over Z[sqrt d], as its pair."""
    a, b = _det(X, d)
    s = _surd_sign(a, b, d)
    return s * a, s * b


def _basis(P: Polytope) -> tuple:
    """(euler, relint_sign, volume, origin_indicator, cone_volume) of P,
    kept in its `_basis` slot: ints, and triples (A, B, q) meaning
    (A + B sqrt d) / q.  0 is in relint P iff it is in aff P and every facet
    offset is > 0, in P iff every offset is >= 0; the cone term is vol P
    plus the pyramids from 0 over the faces it sees, over one q.  More than
    MAX_CELLS cells in the two walks together raise ValueError."""
    if P._basis is None and P._rows:
        n, k, signs, rows, d = P.ambient_dim, dim(P), _origin_signs(P), P._rows, P._d
        relint = (-1) ** k if signs is not None and all(s > 0 for s, _ in signs) else 0
        inside = int(signs is not None and all(s >= 0 for s, _ in signs))
        flat = [(-1, (1 << len(rows)) - 1)] if k == n - 1 and signs is None else []
        faces = signs if k == n else flat
        masks, memo, x0 = [z for _, z in _facet_data(P)], {}, rows[0]
        walks, count = [], 0
        for s, face in faces:
            to_volume, seen = not face & 1, s < 0
            if to_volume or seen:
                cells = _cells(masks, face, n - 1, memo)
                count += len(cells)
                if count > MAX_CELLS:
                    raise ValueError(f"the polytope has more than {MAX_CELLS} pulling cells")
                walks.append((to_volume, seen, cells))
        A = B = a_seen = b_seen = 0
        for to_volume, seen, cells in walks:
            for cell in cells:
                X = [rows[i] for i in _indices(cell)]
                if to_volume:
                    a, b = _abs_det([[(a - a0, b - b0) for (a, b), (a0, b0) in zip(x, x0)]
                                     for x in X], d)
                    A, B = A + a, B + b
                if seen:
                    a, b = _abs_det(X, d)
                    a_seen, b_seen = a_seen + a, b_seen + b
        q = P._L ** n * factorial(n)
        vol = (A, B, q) if k == n else (0, 0, 1)
        cone = (A + a_seen, B + b_seen, q) if faces else vol
        object.__setattr__(P, "_basis", (1, relint, vol, inside, cone))
    return P._basis or (0, 0, (0, 0, 1), 0, (0, 0, 1))


# size 0 stores and hashes nothing (P's `_basis` slot keeps its volume); the wrapper
# stays only for the cache_info() perfbench/tracing.py reads, until the tracer changes
@lru_cache(maxsize=0)
def volume(P: Polytope) -> Scalar:
    """Lebesgue volume in the ambient dimension; 0 below full dimension."""
    return Scalar._make(*_basis(P)[2], P._d)
