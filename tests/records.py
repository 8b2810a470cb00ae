"""The hull record of `slval.polytope` rendered in Scalars.

The record holds frame equalities and facets as canonical integer pair rows
(W, C), pairs (A, B) meaning A + B*sqrt(d), and each facet's incident
vertices as a bitmask.  Tests that read a normal, an offset or an incident
set, or that compare records with the Fraction oracles, go through this
module.  It renders a bitmask as the frozenset of its bits.  A facet row is
divided by the absolute value of its last nonzero normal entry, which the
canonical form makes a nonzero integer, so that entry becomes +-1; an
equality row is divided by its entry on its own free column, a positive
integer, so it becomes 1 there.
The Scalars are built through the public constructor, which refuses an
irrational entry in a record whose field is Q.

`bare` builds a polytope on given points with no hull pass and no record,
the way `slval.polytope` builds faces, for tests that derive a record
afresh or that compare with the Fraction oracles.
"""

from fractions import Fraction

from slval.exactnum import Scalar, _integer_rows
from slval.linalg import Vector
from slval.polytope import Halfspace, Polytope, _facet_data, _frame, facets


def bare(n, points):
    """The polytope in R^n on the distinct points, Vectors, sorted, with no
    hull record: every point is taken as a vertex, so `bare(P.ambient_dim,
    P.vertices)` is a copy of P that derives its record itself."""
    ints, L, d = _integer_rows([p.coords for p in points])
    assert all(len(row) == n for row in ints)
    return Polytope._of(n, tuple(sorted({tuple(row) for row in ints})), L, d)


def indices(z):
    """The frozenset of the set bits of the bitmask z."""
    return frozenset(i for i in range(z.bit_length()) if z >> i & 1)


def scalars(row, q, d):
    """The Scalars (A + B sqrt d) / q of a row of integer pairs."""
    return [Scalar(Fraction(a, q), Fraction(b, q), d) for a, b in row]


def facet(row, d):
    """(w, c) of a canonical facet row: <w, x> <= c, w +-1 on its last
    nonzero entry."""
    last = next(x for x in reversed(row[:-1]) if x != (0, 0))
    assert last[1] == 0 and last[0] != 0
    *w, c = scalars(row, abs(last[0]), d)
    return Vector(w), c


def frame(pair, d):
    """(pivots, ((w, b), ...)) of a frame: per free column, in increasing
    order, <w, x> = b with w 1 there and 0 on the other free columns."""
    pivots, equalities = pair
    free = [c for c in range(len(pivots) + len(equalities)) if c not in pivots]
    out = []
    for col, row in zip(free, equalities):
        assert row[col][1] == 0 and row[col][0] > 0
        assert all(row[f] == (0, 0) for f in free if f != col)
        *w, b = scalars(row, row[col][0], d)
        out.append((Vector(w), b))
    return pivots, tuple(out)


def supporting(found, d):
    """{incident frozenset: (w, c)} of the facets a pass found."""
    return {indices(z): facet(row, d) for z, row in found.items()}


def scalar_frame(P):
    return frame(_frame(P), P._d)


def scalar_facet_data(P):
    """((Halfspace, incident frozenset), ...) of P's facets, in record order."""
    return tuple((Halfspace(*facet(row, P._d)), indices(z)) for row, z in _facet_data(P))


def visible_facets(P):
    """The facets of P whose offset is negative, so that their inequality
    fails strictly at the origin: the facets whose cones the cone check's
    decomposed route adds to P's volume."""
    return tuple(F for h, F in facets(P) if h.offset < 0)
