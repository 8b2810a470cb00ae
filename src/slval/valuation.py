"""Basis valuations and the classified five-term formula.

The five basis functionals are the Euler characteristic, the signed
relative-interior origin indicator (-1)^{dim P} when 0 lies in relint P,
the ambient volume, the plain origin indicator, and the volume of the
hull of P with the origin.  Every valuation in scope is the combination

    c0 * euler + c0p * relint_sign + psi(volume) + d0 * origin + phi(cone_volume)

with psi and phi additive solutions of the Cauchy equation.  All
valuations take the value 0 on the empty polytope.

`basis_vector` computes all five in one pass: one affine-hull test of the
origin and one reading of the signs of P's facet offsets settle both
indicators, and the cone term is vol P plus the pyramids from 0 over the
facets whose offset is negative (the visible-facet part of Lawrence's
signed-cone decomposition, Math. Comp. 1991).  A flat P with 0 off its
affine hull is one such pyramid; other flat P give 0.  No second hull is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
from .polytope import (
    IncomparableHullsError,
    Polytope,
    _facet_data,
    dim,
    facets,
    in_affine_hull,
    intersect,
    origin,
)
from .triangulate import apex_volume, volume

MAX_UNION_PARTS = 12

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
    on_hull = in_affine_hull(P, origin(n))
    signs = [h.offset.sign() for h, _ in _facet_data(P)] if k and on_hull else []
    relint = on_hull and all(s > 0 for s in signs)
    inside = on_hull and all(s >= 0 for s in signs)
    if k == n:
        cone = vol
        for s, (_, F) in zip(signs, facets(P)):
            if s < 0:
                cone = cone + apex_volume(F)
    elif k == n - 1 and not on_hull:
        cone = apex_volume(P)
    else:
        cone = ZERO
    sign = ONE if k % 2 == 0 else -ONE
    return ONE, sign if relint else ZERO, vol, ONE if inside else ZERO, cone


@dataclass(frozen=True)
class ClassifiedValuation:
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


def evaluate(V: ClassifiedValuation, P: Polytope) -> Scalar:
    if P.is_empty:
        return ZERO
    euler, relint, vol, inside, cone = basis_vector(P)
    return (
        V.c0 * euler
        + V.c0p * relint
        + cauchy_eval(V.psi, vol)
        + V.d0 * inside
        + cauchy_eval(V.phi, cone)
    )


def _intersection_lattice(parts: tuple[Polytope, ...]):
    """All nonempty-index intersections, keyed by index frozenset."""
    lattice: dict[frozenset[int], Polytope] = {}
    m = len(parts)
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            key = frozenset(subset)
            if size == 1:
                lattice[key] = parts[subset[0]]
                continue
            prev = lattice[key - {subset[-1]}]
            if prev.is_empty:
                lattice[key] = prev
                continue
            try:
                lattice[key] = intersect(prev, parts[subset[-1]])
            except IncomparableHullsError as exc:
                raise ValueError(
                    f"intersection over parts {tuple(sorted(key))} is not supported: {exc}"
                ) from None
    return lattice


def evaluate_union(V: ClassifiedValuation, parts: list[Polytope]) -> Scalar:
    """Inclusion-exclusion value of a finite union, all terms exact."""
    parts = tuple(parts)
    if not parts:
        return ZERO
    if len(parts) > MAX_UNION_PARTS:
        raise ValueError(f"at most {MAX_UNION_PARTS} parts supported, got {len(parts)}")
    lattice = _intersection_lattice(parts)
    total = ZERO
    for key, piece in lattice.items():
        term = evaluate(V, piece)
        if len(key) % 2 == 1:
            total = total + term
        else:
            total = total - term
    return total


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
