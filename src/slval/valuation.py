"""Basis valuations and the classified five-term formula.

The five basis functionals are the Euler characteristic, the signed
relative-interior origin indicator (-1)^{dim P} when 0 lies in relint P,
the ambient volume, the plain origin indicator, and the volume of the
hull of P with the origin.  Every valuation in scope is the combination

    c0 * euler + c0p * relint_sign + psi(volume) + d0 * origin + phi(cone_volume)

with psi and phi additive solutions of the Cauchy equation.  All
valuations take the value 0 on the empty polytope.  So a valuation is one
read of the basis vector, linear in euler, relint_sign and origin and
additive in volume and cone_volume, and `_apply` is the only place that
makes it: `evaluate_union` sums the signed basis vectors of the nonempty
intersections and reads the sum once.

`basis_vector` computes all five in one pass: one reading of the offsets
of P's frame equalities and facets settles both indicators, and the cone
term is vol P plus the pyramids from 0 over the facets whose offset is
negative (the visible-facet part of Lawrence's
signed-cone decomposition, Math. Comp. 1991).  A flat P with 0 off its
affine hull is one such pyramid; other flat P give 0.  `apex_volume` sums
the pyramids over the pulling cells of those facets, given as incident vertex
bitmasks: no second hull and no facet polytope is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import (
    ONE,
    ZERO,
    CauchySolution,
    Linear,
    RationalPart,
    Scalar,
    as_scalar,
    cauchy_eval,
)
from .polytope import Polytope, _origin_signs, dim, intersect
from .triangulate import apex_volume, volume

#: cap on the nonempty intersections an inclusion-exclusion visits (2^12 - 1)
MAX_UNION_TERMS = 4095

#: basis order fixed across fitting and reports
BASIS_NAMES = ("euler_char", "relint_sign", "volume", "origin_indicator", "cone_volume")


def basis_vector(P: Polytope) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
    """(euler, relint_sign, volume, origin, cone) of P, in BASIS_NAMES order.

    The origin lies in relint P iff it lies in aff P and every facet offset
    is > 0, and in P iff every offset is >= 0.
    """
    if P.is_empty:
        return (ZERO,) * 5
    n, k = P.ambient_dim, dim(P)
    vol = volume(P)
    signs = _origin_signs(P)
    on_hull = signs is not None
    relint = on_hull and all(s > 0 for s, _ in signs)
    inside = on_hull and all(s >= 0 for s, _ in signs)
    if k == n:
        visible = [z for s, z in signs if s < 0]
        cone = vol + apex_volume(P, visible) if visible else vol
    elif k == n - 1 and not on_hull:
        cone = apex_volume(P)
    else:
        cone = ZERO
    sign = ONE if k % 2 == 0 else -ONE
    return ONE, sign if relint else ZERO, vol, ONE if inside else ZERO, cone


class ClassifiedValuation(NamedTuple):
    c0: Scalar
    c0p: Scalar
    d0: Scalar
    psi: CauchySolution
    phi: CauchySolution

    @classmethod
    def linear(cls, c0, c0p, cn, d0, dn) -> ClassifiedValuation:
        """Measurable case: psi and phi are plain linear maps."""
        return cls(
            c0=as_scalar(c0),
            c0p=as_scalar(c0p),
            d0=as_scalar(d0),
            psi=Linear(cn),
            phi=Linear(dn),
        )


def _apply(V: ClassifiedValuation, b) -> Scalar:
    """V read off a basis vector, or off a signed sum of basis vectors whose
    volume and cone entries are >= 0: psi and phi are additive, so V of the
    sum is the signed sum of the values."""
    euler, relint, vol, inside, cone = b
    return (
        V.c0 * euler
        + V.c0p * relint
        + cauchy_eval(V.psi, vol)
        + V.d0 * inside
        + cauchy_eval(V.phi, cone)
    )


def evaluate(V: ClassifiedValuation, P: Polytope) -> Scalar:
    return _apply(V, basis_vector(P))


def evaluate_union(V: ClassifiedValuation, parts: list[Polytope]) -> Scalar:
    """Inclusion-exclusion value of a finite union, all terms exact.

    The terms are the nonempty intersections of the parts, the nerve of the
    cover (Naiman and Wynn, Ann. Statist. 1992), read by the recursion
    U(A_1..A_m) = sum over k of b(A_k) - U(A_1 & A_k, ..., A_{k-1} & A_k)
    on the nonempty meets: each once, and a meet of the parts in I formed
    only when two of its |I| - 1 part meets are nonempty.  Their basis
    vectors go into one total with sign (-1)^(|I|+1), and V is applied once
    to it, whose volume and cone entries are the union's own.  More than
    MAX_UNION_TERMS nonempty terms raise ValueError.
    """
    total = (ZERO,) * 5
    terms = 0

    def add(pieces: list[Polytope], odd: bool) -> None:
        nonlocal total, terms
        for k, piece in enumerate(pieces):
            terms += 1
            if terms > MAX_UNION_TERMS:
                raise ValueError(f"more than {MAX_UNION_TERMS} nonempty intersections")
            total = tuple(t + x if odd else t - x for t, x in zip(total, basis_vector(piece)))
            meets = [intersect(Q, piece) for Q in pieces[:k]]
            add([M for M in meets if not M.is_empty], not odd)

    add([P for P in parts if not P.is_empty], True)
    return _apply(V, total)


# -- serialization -------------------------------------------------------


def _solution_to_json(f: CauchySolution) -> dict:
    if isinstance(f, Linear):
        return {"kind": "linear", "lambda": str(f.coefficient)}
    if isinstance(f, RationalPart):
        return {"kind": "rational_part"}
    raise ValueError(f"unknown Cauchy solution {f!r}")


def _solution_from_json(obj: dict) -> CauchySolution:
    if not isinstance(obj, dict):
        raise ValueError(f"Cauchy solution must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "linear":
        return Linear(Scalar.parse(obj["lambda"]))
    if kind == "rational_part":
        return RationalPart()
    raise ValueError(f"unknown Cauchy solution kind {kind!r}")


def to_json(V: ClassifiedValuation) -> dict:
    return {
        "c0": str(V.c0),
        "c0p": str(V.c0p),
        "d0": str(V.d0),
        "psi": _solution_to_json(V.psi),
        "phi": _solution_to_json(V.phi),
    }


def from_json(obj: dict) -> ClassifiedValuation:
    try:
        return ClassifiedValuation(
            c0=Scalar.parse(obj["c0"]),
            c0p=Scalar.parse(obj["c0p"]),
            d0=Scalar.parse(obj["d0"]),
            psi=_solution_from_json(obj["psi"]),
            phi=_solution_from_json(obj["phi"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad valuation object: {exc}") from None
