"""End-to-end acceptance runs over the whole pipeline.

Each test covers one contract item, exercises it at full configured
scale with exact arithmetic, and prints a single verdict line that
survives pytest's capture.  Zero tolerance: any inexact comparison or
missing case fails the run.
"""

import random
import time
from fractions import Fraction
from math import factorial

from slval.exactnum import ONE, ZERO, Linear, RationalPart, Scalar
from slval.harness import (
    FAMILIES,
    _sub_seed,
    check_cone_decomposition,
    check_sl_invariance,
    check_valuation_identity,
    classify_split,
    fit_classification,
    gen_polytope,
    gen_split,
    probe_polytopes,
    usc_sequences,
)
from slval.linalg import Matrix, Vector, det, random_sl_matrix
from slval.polytope import (
    Polytope,
    cone_hull,
    dim,
    from_points,
    origin,
    transform,
)
from slval.triangulate import volume
from slval.valuation import (
    BASIS_NAMES,
    ClassifiedValuation,
    basis_vector,
    evaluate,
    evaluate_union,
)

from oracles import shoelace_area
from pulling import Simplex, triangulate, verify_complex
from records import visible_facets
from splits import through_origin


def _verdict(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _points(*tuples) -> Polytope:
    return from_points([Vector(t) for t in tuples])


def _split_family(tag: int, i: int) -> str:
    # through-origin splits need the origin well inside, so couple the
    # degenerate seed residues to that generator family
    if i % 20 < 5:
        return "origin_in_relint"
    return ("contains_origin", "generic", "avoids_origin")[i % 3]


def test_split_identity_bulk(capsys):
    started = time.monotonic()
    bad = []
    through = {2: 0, 3: 0}
    for n in (2, 3):
        for i in range(200):
            R = gen_polytope(_sub_seed(11 + n, 100 + i), n, max_vertices=6,
                             coord_bound=3, family=_split_family(11 + n, i))
            case = gen_split(_sub_seed(11 + n, 500 + i) * 20 + i % 20, R)
            through[n] += through_origin(case)
            for j, name in enumerate(BASIS_NAMES):
                if check_valuation_identity(lambda Q: basis_vector(Q)[j], case) is not True:
                    bad.append((n, i, name))
    elapsed = time.monotonic() - started
    ok = not bad and through[2] >= 50 and through[3] >= 50 and elapsed < 60
    _verdict(
        capsys, ok, "split identity",
        f"200 cases per n in (2,3), five valuations exact, through-origin "
        f"{through[2]}/200 and {through[3]}/200 (need >=50), {elapsed:.1f}s "
        f"(limit 60), failures {bad[:4]}",
    )


def test_split_case_labels(capsys):
    centered = _points((-2, -1), (2, -1), (-2, 1), (2, 1))
    shifted = _points((1, 1), (3, 1), (1, 2), (3, 2))
    segment = _points((-1, 0), (1, 0))
    seen = {}
    bad = []
    cases = [gen_split(0, segment)]
    for seed in range(60):
        cases.append(gen_split(seed, centered))
        cases.append(gen_split(seed, shifted))
    for case in cases:
        label = classify_split(case)
        seen.setdefault(label, case)
        if check_valuation_identity(lambda Q: basis_vector(Q)[1], case) is not True:
            bad.append(("identity", label))
        if label == "dimension-drop" and dim(case.whole) != dim(case.meet) + 1:
            bad.append(("dimension", label))
    expected = {"inclusion", "origin-in-both", "origin-in-one",
                "origin-in-neither", "dimension-drop"}
    ok = set(seen) == expected and not bad
    _verdict(
        capsys, ok, "split case labels",
        f"{len(cases)} cases, labels seen {sorted(seen)}, relint term exact on all, "
        f"dimension step verified, failures {bad[:4]}",
    )


def test_shear_invariance_bulk(capsys):
    reference = ClassifiedValuation.linear(1, 2, 3, 4, 5)
    bad = []
    for n in (2, 3):
        for i in range(100):
            P = gen_polytope(_sub_seed(37 + n, i), n, max_vertices=6,
                             coord_bound=3, family=FAMILIES[i % len(FAMILIES)])
            A = random_sl_matrix(_sub_seed(41 + n, i), n, steps=(i % 8) + 1)
            if check_sl_invariance(lambda Q: evaluate(reference, Q), P, A) is not True:
                bad.append((n, i))
    ok = not bad
    _verdict(
        capsys, ok, "shear invariance",
        f"100 pairs per n in (2,3), shear products of length <=8, "
        f"coefficients (1,2,3,4,5) exact, failures {bad[:4]}",
    )


def test_fit_round_trip_bulk(capsys):
    started = time.monotonic()
    rng = random.Random(2024)
    bad = []
    for t in range(20):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        reference = ClassifiedValuation.linear(*coeffs)
        n = 2 if t < 10 else 3
        report = fit_classification(lambda polys: [evaluate(reference, P) for P in polys], n,
                                    seed=t, validation_count=100)
        if list(report.coefficients) != [Scalar(c) for c in coeffs]:
            bad.append(("coefficients", t))
        if not report.residual_max.is_zero():
            bad.append(("residual", t))
    dets = {n: det(Matrix([basis_vector(P) for P in probe_polytopes(n)])) for n in (2, 3)}
    elapsed = time.monotonic() - started
    ok = not bad and not any(v.is_zero() for v in dets.values()) and elapsed < 120
    _verdict(
        capsys, ok, "classification fit",
        f"20 random tuples, 100 validation polytopes each, exact recovery and "
        f"zero residual, probe determinants {dets[2]} and {dets[3]}, "
        f"{elapsed:.1f}s (limit 120), failures {bad[:4]}",
    )


def _random_origin_simplex(seed: int, n: int) -> Simplex:
    rng = random.Random(seed)
    while True:
        pts = [origin(n)] + [
            Vector([Scalar(rng.randint(-4, 4)) for _ in range(n)]) for _ in range(n)
        ]
        try:
            simplex = Simplex(n, pts)
        except ValueError:
            continue
        if not simplex.volume().is_zero():
            return simplex


def test_simplex_normalization(capsys):
    bad = []
    total = 0
    for n in (2, 3):
        for i in range(25):
            simplex = _random_origin_simplex(_sub_seed(59 + n, i), n)
            v = simplex.volume()
            scaled_last = Vector.basis(n, n - 1).scale(v * factorial(n))
            normalized = from_points(
                [origin(n)] + [Vector.basis(n, j) for j in range(n - 1)] + [scaled_last], n
            )
            total += 1
            if volume(normalized) != v:
                bad.append((n, i))
    ok = not bad and total == 50
    _verdict(
        capsys, ok, "simplex normalization",
        f"{total} seeded origin simplices, normal form keeps the exact volume, "
        f"failures {bad[:4]}",
    )


def test_cone_decomposition_bulk(capsys):
    bad = []
    for n in (2, 3):
        for i in range(100):
            P = gen_polytope(_sub_seed(53 + n, i), n, max_vertices=6,
                             coord_bound=3, family="avoids_origin")
            if check_cone_decomposition(P) is not True:
                bad.append((n, i))
    triangle = _points((1, 0), (2, 0), (1, 1))
    square = _points((1, 1), (2, 1), (1, 2), (2, 2))
    worked = []
    for P, expected_total in ((triangle, Scalar(1)), (square, Scalar(2))):
        own = volume(P)
        visible = [volume(cone_hull(F)) for F in visible_facets(P)]
        worked.append((volume(cone_hull(P)), own, visible, expected_total))
    tri_total, tri_own, tri_vis, _ = worked[0]
    sq_total, sq_own, sq_vis, _ = worked[1]
    area = Scalar(shoelace_area([(0, 0), (1, 0), (2, 0), (1, 1)]))
    worked_ok = (
        tri_total == Scalar(1) == area
        and tri_own == Scalar(Fraction(1, 2))
        and tri_vis == [Scalar(Fraction(1, 2))]
        and tri_total == tri_own + tri_vis[0]
        and sq_total == Scalar(2)
        and sq_own == Scalar(1)
        and sorted(sq_vis) == [Scalar(Fraction(1, 2))] * 2
        and sq_total == sq_own + sq_vis[0] + sq_vis[1]
    )
    ok = not bad and worked_ok
    _verdict(
        capsys, ok, "cone decomposition",
        f"100 origin-avoiding polytopes per n in (2,3), worked values "
        f"1 = 1/2 + 1/2 and 2 = 1 + 1/2 + 1/2 verified, failures {bad[:4]}",
    )


def test_union_additivity(capsys):
    units = [
        ClassifiedValuation.linear(*[1 if j == t else 0 for j in range(5)])
        for t in range(5)
    ]
    bad = []
    distinct = 0
    total = 0
    for n in (2, 3):
        for i in range(25):
            P = gen_polytope(_sub_seed(67 + n, i), n, max_vertices=6,
                             coord_bound=3, family=FAMILIES[i % len(FAMILIES)])
            first = triangulate(P)
            rotated_order = P.vertices[1:] + P.vertices[:1]
            second = triangulate(P, order=rotated_order)
            total += 1
            if set(first.simplices) != set(second.simplices):
                distinct += 1
            if verify_complex(first) is not True or verify_complex(second) is not True:
                bad.append(("complex", n, i))
                continue
            for T in (first, second):
                parts = [s.as_polytope() for s in T]
                for V in units:
                    if evaluate_union(V, parts) != evaluate(V, P):
                        bad.append(("union", n, i))
    ok = not bad and total == 50 and distinct >= total // 2
    _verdict(
        capsys, ok, "union additivity",
        f"{total} polytopes, two pulling orders ({distinct} genuinely distinct "
        f"complexes), five valuations exact over both, failures {bad[:4]}",
    )


def test_semicontinuity_gap(capsys):
    broken, clean = usc_sequences([(ONE, ZERO), (ZERO, ONE)], steps=5)
    ok = (
        broken["sequence1"]["values"] == [Scalar(-1)] * 5
        and broken["sequence1"]["limit_value"] == ONE
        and broken["sequence2"]["values"] == [ONE] * 5
        and broken["sequence2"]["limit_value"] == Scalar(-1)
        and broken["sequence2"]["violation"]
        and broken["violation"]
        and not clean["violation"]
    )
    _verdict(
        capsys, ok, "semicontinuity gap",
        "relint coefficient 1 gives -1 vs limit 1 and 1 vs limit -1 (violation), "
        "origin indicator alone stays consistent",
    )


def test_rational_part_valuation(capsys):
    surd = Scalar.sqrt_of(2)
    val = ClassifiedValuation(c0=ZERO, c0p=ZERO, d0=ZERO,
                              psi=RationalPart(), phi=Linear(ZERO))

    def functional(P):
        return evaluate(val, P)

    bad = []
    for n in (2, 3):
        rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
        rows[0][1] = surd
        surd_shear = Matrix(rows)
        for i in range(20):
            base = gen_polytope(_sub_seed(71 + n, i), n, max_vertices=5,
                                coord_bound=3, family=_split_family(71 + n, i))
            R = transform(surd_shear, base)
            case = gen_split(_sub_seed(73 + n, i) * 20 + i % 20, R)
            if check_valuation_identity(functional, case) is not True:
                bad.append(("identity", n, i))
            A = random_sl_matrix(_sub_seed(79 + n, i), n, steps=5)
            if check_sl_invariance(functional, R, A) is not True:
                bad.append(("invariance", n, i))
    surd_box = from_points([
        Vector([ZERO, ZERO]), Vector([surd, ZERO]),
        Vector([ZERO, ONE]), Vector([surd, ONE]),
    ])
    unit_square = _points((0, 0), (1, 0), (0, 1), (1, 1))
    gap_ok = (
        volume(surd_box) == surd
        and functional(surd_box) == ZERO
        and functional(unit_square) == ONE
        and surd * functional(unit_square) == surd
        and functional(surd_box) != surd * functional(unit_square)
    )
    ok = not bad and gap_ok
    _verdict(
        capsys, ok, "rational part valuation",
        f"additive on 40 surd splits and invariant under 40 shear pairs, yet "
        f"value 0 on the sqrt(2) box vs sqrt(2) times 1 on the unit square, "
        f"failures {bad[:4]}",
    )


def test_volume_normalization(capsys):
    bad = []
    for n in (2, 3, 4):
        S = from_points([origin(n)] + [Vector.basis(n, j) for j in range(n)], n)
        if volume(S) != Scalar(Fraction(1, factorial(n))):
            bad.append(("corner", n))
    checked = 0
    for n in (2, 3):
        for i in range(15):
            P = gen_polytope(_sub_seed(83 + n, i), n, max_vertices=6,
                             coord_bound=3, family=FAMILIES[i % len(FAMILIES)])
            cells = triangulate(P)
            pieces = sum((s.volume() for s in cells), ZERO)
            checked += 1
            if pieces != volume(P):
                bad.append(("additivity", n, i))
            if n == 2 and dim(P) == 2:
                hull_pts = [(v[0].a, v[1].a) for v in P.vertices]
                if Scalar(shoelace_area(hull_pts)) != volume(P):
                    bad.append(("oracle", i))
    ok = not bad and checked == 30
    _verdict(
        capsys, ok, "volume normalization",
        f"corner simplex volume 1/n! for n in (2,3,4), triangulation pieces sum "
        f"exactly on {checked} polytopes, plane areas match the independent "
        f"oracle, failures {bad[:4]}",
    )
