"""Seeded generators and theorem-level checks.

Splits are the only source of convex-union pairs: every SplitCase carries
two halfspaces with opposite normals whose offsets sum to a nonnegative
number, so left + right covering the whole polytope is a construction
certificate rather than a decision.  The classic one-hyperplane split is
the special case where the offsets are exact negatives; overlapping
slab splits and whole-polytope inclusions extend the family so that all
five origin/relative-interior situations of the underlying case analysis
actually occur.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from .exactnum import ONE, ZERO, Linear, RationalPart, Scalar, as_scalar
from .linalg import Matrix, SingularMatrixError, Vector, _pair_dot, _solve, det, random_sl_matrix
from .polytope import (
    Halfspace,
    Polytope,
    _translate,
    clip,
    cone_hull,
    contains,
    dim,
    facets,
    from_points,
    in_affine_hull,
    origin,
    relint_contains_origin,
    transform,
)
from .triangulate import _basis, volume
from .valuation import BASIS_NAMES, ClassifiedValuation, _apply, basis_vector, evaluate

_MAX_VERTICES = 12
_RETRIES = 60
#: the split mode tried when a mode cannot split R; the others have none
_FALLBACK = {"degenerate": "generic", "slab": "inclusion"}

FAMILIES = ("generic", "contains_origin", "origin_in_relint", "avoids_origin", "lower_dim")


def _sub_seed(seed: int, tag: int, case: int = 0) -> int:
    # case >= 100 of the family at `tag` moves to tag * 1000 + case, off the other families
    return seed * 1_000_003 + (tag + case if case < 100 else tag * 1000 + case)


class SplitCase(NamedTuple):
    """Covering pair left/right of whole, cut out by opposite halfspaces."""

    whole: Polytope
    left: Polytope
    right: Polytope
    meet: Polytope
    hyperplane: Halfspace
    opposite: Halfspace


class FitReport(NamedTuple):
    coefficients: tuple[Scalar, Scalar, Scalar, Scalar, Scalar]
    probe_values: tuple[Scalar, Scalar, Scalar, Scalar, Scalar]
    residual_max: Scalar


# -- polytope generation -------------------------------------------------


def gen_polytope(
    seed: int,
    n: int,
    max_vertices: int = 8,
    coord_bound: int = 4,
    family: str = "generic",
) -> Polytope:
    """Deterministic polytope from the requested family, drawn in ints."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if not 1 <= max_vertices <= _MAX_VERTICES:
        raise ValueError(f"max_vertices must be in [1, {_MAX_VERTICES}]")
    if coord_bound < 1:
        raise ValueError("coord_bound must be >= 1")
    rng = random.Random(_sub_seed(seed, FAMILIES.index(family)))
    point = lambda bound: tuple(rng.randint(-bound, bound) for _ in range(n))
    for _ in range(_RETRIES):
        count = rng.randint(min(n + 1, max_vertices), max_vertices)
        if family == "lower_dim":
            k = rng.randrange(n)
            base = point(coord_bound)
            dirs = [point(2) for _ in range(k)]
            pts = []
            for _ in range(count):
                p = base
                for d in dirs:
                    t = rng.randint(-2, 2)
                    p = tuple(x + t * y for x, y in zip(p, d))
                pts.append(p)
            return from_points(pts, n)
        if family == "avoids_origin":
            axis = rng.randrange(n)
            sign = rng.choice((-1, 1))
            pts = []
            for _ in range(count):
                coords = [rng.randint(-coord_bound, coord_bound) for _ in range(n)]
                coords[axis] = sign * rng.randint(1, coord_bound + 1)
                pts.append(coords)
            poly = from_points(pts, n)
        elif family == "contains_origin":
            pts = [point(coord_bound) for _ in range(count)]
            poly = from_points(pts + [(0,) * n], n)
        else:
            pts = [point(coord_bound) for _ in range(count)]
            poly = from_points(pts, n)
        if dim(poly) != n:
            continue
        if family == "origin_in_relint":
            X, q = _interior_point(rng, poly)
            return _translate(poly, [(-a, -b) for a, b in X], q, poly._d)
        return poly
    raise RuntimeError(f"family {family!r} not satisfiable for seed {seed}")


# -- splits --------------------------------------------------------------


def _interior_point(rng: random.Random, P: Polytope) -> tuple[list[tuple[int, int]], int]:
    """A point of relint P as (X, q), meaning X / q: P's integer pair rows
    weighted 1 to 5 and summed, over L times the total weight."""
    weights = [(rng.randint(1, 5), 0) for _ in P._rows]
    return [_pair_dot(weights, col, 0) for col in zip(*P._rows)], P._L * sum(w for w, _ in weights)


def _random_normal(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(v):
            return v


def _make_case(R: Polytope, u: tuple[int, ...], c_left: Scalar, c_right: Scalar) -> SplitCase:
    left_half = Halfspace(Vector(u), c_left)
    right_half = Halfspace(-left_half.normal, c_right)
    left = clip(R, left_half)
    right = clip(R, right_half)
    meet = clip(left, right_half)
    return SplitCase(
        whole=R, left=left, right=right, meet=meet,
        hyperplane=left_half, opposite=right_half,
    )


def _offsets(mode: str, rng: random.Random, R: Polytope, u: tuple) -> tuple[Scalar, Scalar] | None:
    """Offsets (c_left, c_right) of a split of R in this mode along u, or
    None if u gives none; draws from rng after u."""
    dot = lambda x, q: Scalar._make(*_pair_dot([(c, 0) for c in u], x, 0), q, R._d)  # <u, x / q>
    values = [dot(X, R._L) for X in R._rows]
    if mode == "degenerate":
        signs, offsets = [x.sign() for x in values], (ZERO, ZERO)
    elif mode == "generic":
        c = dot(*_interior_point(rng, R))
        signs, offsets = [(x - c).sign() for x in values], (c, -c)
    else:
        low, high = min(values), max(values)
        if mode == "slab":
            if low.sign() >= 0 or high.sign() <= 0:
                return None  # origin in relint R makes this rare retry noise
            c_left = high * Fraction(rng.randint(1, 7), 8)
            right_reach = -low * Fraction(rng.randint(1, 7), 8)
            # half the slab draws pin the right boundary at the origin so
            # exactly one side keeps 0 in its relative interior
            return c_left, right_reach if rng.random() < Fraction(1, 2) else ZERO
        # inclusion: left is all of R, right a proper cap
        if low == high:
            return None
        cut = low + (high - low) * Fraction(rng.randint(1, 7), 8)
        signs, offsets = [(x - cut).sign() for x in values], (high, -cut)
    return offsets if any(s > 0 for s in signs) and any(s < 0 for s in signs) else None


def gen_split(seed: int, R: Polytope) -> SplitCase:
    """Deterministic split of R; the seed selects the subfamily.

    Residues 0-4 of seed mod 20 give the classic hyperplane-through-the-
    origin split (the fixed 25% degenerate rate), 5-10 a generic classic
    split, 11-15 an overlapping slab (which needs 0 in relint R), and
    16-19 the inclusion pair left = R.  Unsatisfiable subfamilies fall
    back deterministically to a satisfiable one: degenerate to generic
    when no hyperplane through 0 cuts R, slab to inclusion.
    """
    if R.is_empty or dim(R) < 1:
        raise ValueError("splits need dim(R) >= 1")
    rng = random.Random(_sub_seed(seed, 17))
    residue = seed % 20
    mode = ("degenerate" if residue < 5 else "generic" if residue < 11
            else "slab" if residue < 16 else "inclusion")
    if mode == "slab" and not relint_contains_origin(R):
        mode = _FALLBACK[mode]
    while mode:
        for _ in range(_RETRIES):
            u = _random_normal(rng, R.ambient_dim)
            offsets = _offsets(mode, rng, R, u)
            if offsets is not None:
                return _make_case(R, u, *offsets)
        mode = _FALLBACK.get(mode)
    raise RuntimeError(f"no proper split of {R!r} found for seed {seed}")


def classify_split(case: SplitCase) -> str:
    """Label with the five-way origin case analysis."""
    if case.meet == case.left or case.meet == case.right:
        return "inclusion"
    in_left = relint_contains_origin(case.left)
    in_right = relint_contains_origin(case.right)
    if in_left and in_right:
        return "origin-in-both"
    if in_left or in_right:
        return "origin-in-one"
    if relint_contains_origin(case.whole):
        return "dimension-drop"
    return "origin-in-neither"


# -- checks --------------------------------------------------------------


def _identity(left, right, whole, meet):
    """True if left + right = whole + meet, else the four values compared."""
    if left + right == whole + meet:
        return True
    return {"left": left, "right": right, "whole": whole, "meet": meet}


def check_valuation_identity(val, case: SplitCase):
    """Exact split identity of val, which is called once per polytope."""
    return _identity(*(val(Q) for Q in (case.left, case.right, case.whole, case.meet)))


def check_sl_invariance(val, P: Polytope, A: Matrix):
    if det(A) != ONE:
        raise ValueError("matrix is not in the special linear group")
    before = val(P)
    after = val(transform(A, P))
    if before == after:
        return True
    return {"original": before, "transformed": after}


def check_cone_decomposition(P: Polytope):
    """Hull-with-origin volume (the oracle) against the cone term of
    basis_vector and, when P is full-dimensional, against P's volume plus
    the cones over its visible facets, those of negative offset.  Both
    oracle routes read only `cone_hull` and `facets`, not the origin signs
    that basis_vector reads."""
    n = P.ambient_dim
    if P.is_empty:
        raise ValueError("cone decomposition needs a nonempty polytope")
    if contains(P, origin(n)):
        raise ValueError("cone decomposition needs 0 outside the polytope")
    k = dim(P)
    if k < n and (k < n - 1 or in_affine_hull(P, origin(n))):
        raise ValueError("needs a full-dimensional P, or dim n-1 with 0 off aff P")
    total, value = volume(cone_hull(P)), basis_vector(P)[4]
    if k == n:
        parts = sum((volume(cone_hull(F)) for h, F in facets(P) if h.offset < 0), volume(P))
        if total == parts == value:
            return True
        return {"hull_volume": total, "decomposed": parts, "cone_volume": value}
    # below full dimension the hull with the origin is one pyramid over P
    return total == value or {"hull_volume": total, "cone_volume": value}


# -- classification fitting ----------------------------------------------


def probe_polytopes(n: int) -> tuple[Polytope, ...]:
    """The five fitting probes: origin, off-origin point, symmetric segment,
    standard simplex, and its unit translate."""
    zero, e = (0,) * n, [tuple(int(i == j) for j in range(n)) for i in range(n)]
    simplex = from_points([zero, *e], n)
    return (from_points([zero], n), from_points([e[0]], n),
            from_points([tuple(-x for x in e[0]), e[0]], n), simplex,
            _translate(simplex, [(x, 0) for x in e[0]], 1, 0))


def surd_simplices(n: int, d: int, count: int = 5) -> Iterator[Polytope]:
    """The simplices [0, (i+1)*sqrt(d)*e1, e2, ..., en], i < count, each built
    when it is drawn: irrational volumes."""
    surd = Scalar.sqrt_of(d)
    return (from_points([origin(n), Vector([surd * (i + 1)] + [ZERO] * (n - 1))]
                        + [Vector.basis(n, j) for j in range(1, n)], n) for i in range(count))


def fit_validation_polytopes(n: int, seed: int = 0, count: int = 100,
                             field_d: int = 0) -> list[Polytope]:
    """`count` seeded rational polytopes, then the surd simplices unless field_d is 0."""
    polys = [gen_polytope(_sub_seed(seed, 900 + i), n, max_vertices=6, coord_bound=3,
                          family=FAMILIES[i % len(FAMILIES)]) for i in range(count)]
    return polys + (list(surd_simplices(n, field_d)) if field_d else [])


def fit_classification(values_of, n: int, seed: int = 0, validation_count: int = 100,
                       field_d: int = 0) -> FitReport:
    """Recover the five coefficients of a valuation from its values.

    `values_of` maps the five probes followed by the validation polytopes
    to their values, in order, in one call; each value is read by its
    position, so a polytope that occurs twice is asked twice and both
    answers count.  The probe values pin the coefficients through an exact
    5x5 solve, and the validation values measure the worst deviation of the
    fitted model: 0 for the classified form with linear psi and phi,
    nonzero otherwise.  A RationalPart plugin agrees with Linear(1) on
    rational volumes; the surd simplices of a nonzero field_d, whose
    volumes are irrational, tell the two apart.  n must be >= 2: SL(1) is
    trivial, and at n = 1 the probes' basis rows are dependent.
    """
    if n < 2:
        raise ValueError(f"the fit needs n >= 2, got {n}: the classification is of SL(n), n >= 2")
    probes = probe_polytopes(n)
    validation = fit_validation_polytopes(n, seed, validation_count, field_d)
    values = values_of([*probes, *validation])
    probe_values = tuple(values[:5])
    pivots, coefficients = _solve([(*basis_vector(P), as_scalar(v)) for P, v in zip(probes, probe_values)])
    if pivots[:5] != [0, 1, 2, 3, 4]:
        raise SingularMatrixError(sum(c < 5 for c in pivots))
    model = ClassifiedValuation.linear(*coefficients)
    residual = ZERO
    for P, value in zip(validation, values[5:]):
        gap = abs(value - evaluate(model, P))
        if gap > residual:
            residual = gap
    return FitReport(coefficients=tuple(coefficients), probe_values=probe_values, residual_max=residual)


# -- semicontinuity sequences --------------------------------------------


def usc_sequences(functionals, steps: int) -> list[dict]:
    """Evaluate the two shrinking-segment sequences and their limits, once
    per (c0p, d0) pair, at the scales 1, 1/2, ..., 1/2**(steps - 1).

    The pair names the classified valuation
    c0p * relint_sign + d0 * origin_indicator.  The polytopes are built
    once, their integer bases read once, and every pair applied to those.
    Upper semicontinuity along a sequence needs value <= limit value.
    """
    scales = tuple(Scalar(Fraction(1, 2**k)) for k in range(steps))
    if not scales:
        raise ValueError("need steps >= 1")
    e1 = Vector.basis(2, 0)
    e2 = Vector.basis(2, 1)

    def read(*points: Vector):
        return _basis(from_points(list(points), 2))

    sequences = (
        ("sequence1", [read(e1.scale(-s), e1.scale(s)) for s in scales], read(origin(2))),
        ("sequence2", [read(e1.scale(-s), e1.scale(s), -e2, e2) for s in scales], read(-e2, e2)),
    )

    reports = []
    for c0p, d0 in functionals:
        functional = ClassifiedValuation(ZERO, c0p, d0, Linear(ZERO), Linear(ZERO))
        report: dict = {"scales": scales}
        for name, terms, limit in sequences:
            values = [_apply(functional, b, 0) for b in terms]
            limit_value = _apply(functional, limit, 0)
            report[name] = {
                "values": values,
                "limit_value": limit_value,
                "violation": any(v > limit_value for v in values),
            }
        report["violation"] = report["sequence1"]["violation"] or report["sequence2"]["violation"]
        reports.append(report)
    return reports


# -- verification suite ---------------------------------------------------


def _broken_functional(P: Polytope) -> Scalar:
    # deliberately not a valuation: dimension is not additive over splits
    return ZERO if P.is_empty else Scalar(dim(P))


def _scalarize(value):
    if isinstance(value, dict):
        return {k: _scalarize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scalarize(v) for v in value]
    if isinstance(value, Scalar):
        return str(value)
    return value


def _line(check: str, seed: int, outcome, **fields) -> dict:
    """Report line of a check whose outcome is True or a witness."""
    line = {"check": check, "seed": seed, "pass": outcome is True, **fields}
    if outcome is not True:
        line["witness"] = _scalarize(outcome)
    return line


def run_suite(
    n: int,
    seed: int = 0,
    cases: int = 20,
    field_d: int = 2,
    include_broken: bool = False,
):
    """Yield one JSON-ready report line per seeded check."""
    reference = ClassifiedValuation.linear(1, 2, 3, 4, 5)

    for i in range(cases):
        family = ("origin_in_relint", "contains_origin", "generic", "avoids_origin")[i % 4]
        R = gen_polytope(_sub_seed(seed, 100, i), n, max_vertices=6, coord_bound=3, family=family)
        case = gen_split(_sub_seed(seed, 200, i) * 20 + i % 20, R)
        sides = [basis_vector(Q) for Q in (case.left, case.right, case.whole, case.meet)]
        outcomes = zip(BASIS_NAMES, map(_identity, *sides))
        witnesses = {name: outcome for name, outcome in outcomes if outcome is not True}
        yield _line("valuation_identity", i, witnesses or True, label=classify_split(case))

    for i in range(cases):
        family = FAMILIES[i % len(FAMILIES)]
        P = gen_polytope(_sub_seed(seed, 300, i), n, max_vertices=6, coord_bound=3, family=family)
        A = random_sl_matrix(_sub_seed(seed, 400, i), n, steps=6)
        outcome = check_sl_invariance(lambda Q: evaluate(reference, Q), P, A)
        yield _line("sl_invariance", i, outcome)

    if field_d:
        surd_val = ClassifiedValuation(
            c0=ZERO, c0p=ZERO, d0=ZERO, psi=RationalPart(), phi=Linear(ZERO)
        )
        for i, box in enumerate(surd_simplices(n, field_d, min(cases, 5))):
            A = random_sl_matrix(_sub_seed(seed, 600, i), n, steps=4)
            outcome = check_sl_invariance(lambda Q: evaluate(surd_val, Q), box, A)
            yield _line("sl_invariance_rational_part", i, outcome)

    for i in range(cases):
        P = gen_polytope(_sub_seed(seed, 700, i), n, max_vertices=6, coord_bound=3,
                         family="avoids_origin")
        yield _line("cone_decomposition", i, check_cone_decomposition(P))

    # The round trip reads the five probes and no validation polytope: the
    # values come from evaluate(reference, .) and the fit's model is
    # ClassifiedValuation.linear(*coefficients).  When the coefficients match,
    # the model is the reference, and evaluate is a pure function of V and P's
    # kept _basis, so every validation gap is 0; when they do not match, that
    # alone fails the line.  A residual could never change the verdict.
    report = fit_classification(lambda polys: [evaluate(reference, P) for P in polys], n,
                                validation_count=0)
    expected = (Scalar(1), Scalar(2), Scalar(3), Scalar(4), Scalar(5))
    yield _line("fit_roundtrip", 0, report.coefficients == expected or {
        "coefficients": list(report.coefficients),
        "probe_values": list(report.probe_values),
    })

    usc_bad, usc_good = usc_sequences([(ONE, ZERO), (ZERO, ONE)], steps=4)
    yield {"check": "usc_counterexample", "seed": 0, "pass": usc_bad["violation"]}
    yield {"check": "usc_origin_indicator", "seed": 0, "pass": not usc_good["violation"]}

    if include_broken:
        R = gen_polytope(_sub_seed(seed, 800), n, family="origin_in_relint")
        case = gen_split(_sub_seed(seed, 801) * 20 + 7, R)
        yield _line("broken_plugin", 0, check_valuation_identity(_broken_functional, case))
