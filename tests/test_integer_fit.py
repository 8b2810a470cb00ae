"""The fit path on integers against its Scalar route in `oracles.py`.

`gen_polytope` draws int tuples, `_interior_point` weights integer pair
rows, each polytope keeps its basis on integers and `fit_classification`
solves the probe system with one `_eliminate`.  The oracles take the same
rng draws through Vectors and Fractions, assemble the basis in Scalars on
every read and solve a Matrix.  Both must give equal polytopes, equal
basis vectors and equal fit reports at n = 1 to 4.
"""

import random

import pytest

from slval.exactnum import Linear, RationalPart, Scalar
from slval.harness import FAMILIES, _interior_point, fit_classification, gen_polytope, surd_simplices
from slval.linalg import SingularMatrixError, Vector
from slval.polytope import Halfspace, Polytope, clip, dim, from_points, translate
from slval.valuation import ClassifiedValuation, basis_vector

from oracles import (scalar_apply, scalar_basis_vector, scalar_fit, scalar_gen_polytope,
                     scalar_interior_point)

DIMENSIONS = [1, 2, 3, 4]
SEEDS = range(40)


def drawn(n):
    """Every family at 40 seeds, half with the fit's bounds and half with
    the defaults."""
    return [(seed, family, (6, 3) if seed % 2 else (8, 4)) for family in FAMILIES for seed in SEEDS]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_integer_draws_give_the_scalar_route_polytopes(n):
    for seed, family, (count, bound) in drawn(n):
        P = gen_polytope(seed, n, count, bound, family)
        Q = scalar_gen_polytope(seed, n, count, bound, family)
        assert P == Q and P._rows == Q._rows, (seed, family)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_integer_interior_point_is_the_scalar_one(n):
    for seed, family, (count, bound) in drawn(n)[::5]:
        P = gen_polytope(seed, n, count, bound, family)
        X, q = _interior_point(random.Random(seed), P)
        point = scalar_interior_point(random.Random(seed), P)
        assert [Scalar._make(a, b, q, P._d) for a, b in X] == list(point)


def pieces(n):
    """The drawn polytopes; each, once its basis is kept, moved by a
    translate and cut by a clip through its interior; the surd simplices; a
    point, a flat piece and the empty polytope."""
    out = []
    for seed, family, (count, bound) in drawn(n)[::2]:
        P = gen_polytope(seed, n, count, bound, family)
        basis_vector(P)
        t = Vector([(seed % 3) - 1] + [seed % 2] * (n - 1))
        out += [P, translate(P, t)]
        if dim(P) == n:
            u = Vector([1] + [0] * (n - 1))
            low, high = min(v[0] for v in P.vertices), max(v[0] for v in P.vertices)
            out.append(clip(P, Halfspace(u, (low + high) / 2)))
    out += surd_simplices(n, 2)
    out += [from_points([[1] * n]), from_points([[1] * n, [2] + [1] * (n - 1)]),
            Polytope.empty(n)]
    return out


@pytest.mark.parametrize("n", DIMENSIONS)
def test_kept_basis_is_the_scalar_route_basis(n):
    for P in pieces(n):
        expected = scalar_basis_vector(P)
        assert basis_vector(P) == expected, P
        assert basis_vector(P) == expected, P  # the kept basis, read again


ORACLES = {
    "linear": lambda P: scalar_apply(ClassifiedValuation.linear(1, -2, 3, 4, 5),
                                     scalar_basis_vector(P), P._d),
    "rational_part": lambda P: scalar_apply(
        ClassifiedValuation(Scalar(1), Scalar(2), Scalar(4), RationalPart(), Linear(5)),
        scalar_basis_vector(P), P._d),
    "not_a_valuation": lambda P: Scalar(0) if P.is_empty else Scalar(dim(P)),
}


@pytest.mark.parametrize("field_d", [0, 2])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("n", DIMENSIONS)
def test_fit_reports_the_scalar_route_report(n, oracle, field_d):
    """Equal reports.  At n = 1, where the basis vector of [-e1, e1] is twice
    that of [0, e1] less that of {0}, the Scalar route finds the probes
    singular, and the fit refuses n < 2 before it builds or asks for any
    polytope."""
    values_of = lambda polys: [ORACLES[oracle](P) for P in polys]
    if n == 1:
        with pytest.raises(SingularMatrixError) as err:
            scalar_fit(values_of, n, seed=n, validation_count=20, field_d=field_d)
        assert err.value.rank == 4
        asked = []
        with pytest.raises(ValueError, match="n >= 2") as err:
            fit_classification(asked.append, n, seed=n, validation_count=20, field_d=field_d)
        assert type(err.value) is ValueError and asked == []
        return
    report = fit_classification(values_of, n, seed=n, validation_count=20, field_d=field_d)
    assert report == scalar_fit(values_of, n, seed=n, validation_count=20, field_d=field_d)
    assert report.residual_max.is_zero() == (oracle == "linear" or (oracle == "rational_part"
                                                                    and not field_d))
