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

`basis_vector` reads the five off the integer basis that
`triangulate._basis` keeps on P, and a valuation reads that basis on
integers: one Scalar per value.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .exactnum import (
    ONE,
    ZERO,
    CauchySolution,
    Linear,
    RationalPart,
    Scalar,
    _merge_discriminants,
    _read,
    as_scalar,
)
from .polytope import Polytope, intersect
from .triangulate import _basis

#: cap on the nonempty intersections an inclusion-exclusion visits (2^12 - 1)
MAX_UNION_TERMS = 4095

#: basis order fixed across fitting and reports
BASIS_NAMES = ("euler_char", "relint_sign", "volume", "origin_indicator", "cone_volume")
#: the Scalar of an indicator 0, 1 or -1, indexed by it
_UNITS = (ZERO, ONE, -ONE)


def basis_vector(P: Polytope) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
    """(euler, relint_sign, volume, origin, cone) of P, in BASIS_NAMES order:
    P's kept integer basis as Scalars."""
    e, r, vol, o, cone = _basis(P)
    return _UNITS[e], _UNITS[r], Scalar._make(*vol, P._d), _UNITS[o], Scalar._make(*cone, P._d)


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


def _apply(V: ClassifiedValuation, b, d: int) -> Scalar:
    """V read off the integer basis of a polytope over Q(sqrt d), or off a signed
    sum of them with volume and cone >= 0 (psi and phi are additive), in the field
    of V's numbers in slot order and then d: one `_read` in basis order, psi and
    phi two terms each.  A slot of the wrong kind raises TypeError."""
    euler, relint, vol, inside, cone = b
    c0, c0p, d0, psi, phi = V
    if not (type(c0) is Scalar and type(c0p) is Scalar and type(d0) is Scalar):
        c0, c0p, d0 = as_scalar(c0), as_scalar(c0p), as_scalar(d0)
    if not (isinstance(psi, CauchySolution) and isinstance(phi, CauchySolution)):
        raise TypeError(f"psi and phi must be Cauchy solutions, got {psi!r} and {phi!r}")
    e = 0
    for c in (c0, c0p, d0, psi.rational, psi.surd, phi.rational, phi.surd):
        e = _merge_discriminants(e, c.d)
    return _read(((c0, euler, 0, 1), (c0p, relint, 0, 1), *psi._terms(*vol, d),
                  (d0, inside, 0, 1), *phi._terms(*cone, d)), _merge_discriminants(e, d))


def evaluate(V: ClassifiedValuation, P: Polytope) -> Scalar:
    return _apply(V, _basis(P), P._d)


def _plus(x, y, s: int) -> tuple[int, int, int]:
    """x + s y for volume triples (A, B, q), over the lcm of their q."""
    (A, B, q), (a, b, r) = x, y
    m = lcm(q, r)
    return A * (m // q) + s * a * (m // r), B * (m // q) + s * b * (m // r), m


def evaluate_union(V: ClassifiedValuation, parts: list[Polytope]) -> Scalar:
    """Inclusion-exclusion value of a finite union, all terms exact.

    The terms are the nonempty intersections of the parts, the nerve of the
    cover (Naiman and Wynn, Ann. Statist. 1992), read by the recursion
    U(A_1..A_m) = sum over k of b(A_k) - U(A_1 & A_k, ..., A_{k-1} & A_k)
    on the nonempty meets: each once, and a meet of the parts in I formed
    only when two of its |I| - 1 part meets are nonempty.  Their integer
    bases go into one total with sign (-1)^(|I|+1), volumes over a common
    denominator; V reads it once.  Over MAX_UNION_TERMS terms raise ValueError.
    """
    total = (0, 0, (0, 0, 1), 0, (0, 0, 1))
    terms = d = 0

    def add(pieces: list[Polytope], odd: bool) -> None:
        nonlocal total, terms, d
        s = 1 if odd else -1
        for k, piece in enumerate(pieces):
            terms += 1
            if terms > MAX_UNION_TERMS:
                raise ValueError(f"more than {MAX_UNION_TERMS} nonempty intersections")
            d = _merge_discriminants(d, piece._d)
            (e, r, vol, o, cone), (te, tr, tvol, to, tcone) = _basis(piece), total
            total = te + s * e, tr + s * r, _plus(tvol, vol, s), to + s * o, _plus(tcone, cone, s)
            meets = [intersect(Q, piece) for Q in pieces[:k]]
            add([M for M in meets if not M.is_empty], not odd)

    add([P for P in parts if not P.is_empty], True)
    return _apply(V, total, d)


# -- serialization -------------------------------------------------------


def _solution_to_json(f: CauchySolution) -> dict:
    if f.rational == f.surd:
        return {"kind": "linear", "lambda": str(f.rational)}
    if f == RationalPart():
        return {"kind": "rational_part"}
    raise ValueError(f"no JSON kind for the Cauchy solution ({f.rational}, {f.surd})")


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
