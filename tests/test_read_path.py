"""The integer read path of `slval valuate` against the route it replaced.

`from_json` reads each literal into an integer triple and builds the pair
rows over their common denominator directly; `scalar_from_json` in
`oracles.py` reads a Scalar per literal, builds a Vector per row and calls
`from_points`.  Both must give equal polytopes with equal hull records, or
raise the same exception with the same message.  The hull pass takes the
excess of every point outside its seed simplex at every ray, on plain ints
over Q; `dot_supporting` skips the points strictly inside the seed simplex,
takes every excess on pairs and scans every adjacency for a third ray.
Both must give the same frame and facets.
"""

import math
import random
from itertools import groupby

import pytest

from slval import polytope
from slval.exactnum import Scalar
from slval.linalg import Vector
from slval.polytope import _indices, _supporting, from_json, from_points

from oracles import dot_supporting, scalar_from_json
from records import bare

HUGE = "7" * 4300  # the longest literal `int` reads without raising
TOO_LONG = "1" * 5000


def obj(rows, n=2, d=0):
    return {"ambient_dim": n, "field_d": d, "vertices": rows}


CORPUS = [
    obj([["0", "0"], ["3", "0"], ["0", "-2"], ["1", "-1"]]),
    obj([["1/2", "0"], ["-3/4", "5/6"], ["0", "-7/3"], ["2", "2"]]),
    obj([["0", "0"], ["1+1*sqrt(2)", "0"], ["1", "2-1*sqrt(2)"]], d=2),
    obj([["1/3-1/2*sqrt(2)", "0"], ["1", "1"], ["0", "2/3+1*sqrt(2)"]], d=2),
    # unreduced in both parts: the raw triple (16, 24, 32) is (2, 3, 4) in lowest terms
    obj([["2/4+6/8*sqrt(2)", "0"], ["-6/8", "10/4"], ["0", "-4/6-2/6*sqrt(2)"]], d=2),
    obj([["1", "2"], ["3", "4"], ["0", "0"]], d=2),  # a rational polytope in a declared field
    obj([["+3", "-0"], ["007", "4/2"], ["0", "1"], ["1/2", "1+1/3*sqrt(2)"]], d=2),
    obj([["+3", "-0"], ["007", "4/2"], ["0", "1"]]),
    obj([["-0", "0"], ["-3", "+0"], ["000", "-007"]]),
    obj([[" 3", "0"], ["1", "1"]]),
    obj([["3 ", "0"], ["1", "1"]]),
    obj([["3_0", "0"], ["1", "1"]]),
    obj([["٣", "0"], ["1", "١"], ["0", "0"]]),  # Arabic-Indic digits, which both routes refuse
    obj([[HUGE, "0"], ["0", "1"], ["0", "0"]]),
    obj([["-" + HUGE, "1/" + HUGE], ["0", "1"], ["0", "0"]]),
    obj([[TOO_LONG, "0"], ["1", "1"]]),
    obj([[3, "0"], ["1", "1"]]),
    obj([["0", 1.5], ["1", "1"]]),
    obj([[True, "0"], ["1", "1"]]),
    obj([[None, "0"], ["1", "1"]]),
    obj([[["1"], "0"], ["1", "1"]]),
    obj([["1+1*sqrt(3)", "0"], ["0", "0"]], d=2),
    obj([["0", "0+1*sqrt(2)"], ["0", "0"]]),
    obj([["1+0*sqrt(3)", "0"], ["0", "1"], ["0", "0"]], d=2),  # a zero surd part is rational
    obj([["1+1*sqrt(4)", "0"], ["0", "0"]], d=2),
    obj([["1/0", "0"], ["0", "0"]]),
    obj([["1+1*sqrt(3)", "0"], ["bad", "0"]], d=2),  # the field check of row 0 comes first
    obj([["1", "2"], ["x"]]),  # a literal is read before the row lengths are checked
    obj([]),
    obj([[]]),
    obj([[]], n=0),
    obj([], n=0),
    obj([["1"]], n=0),
    obj([], n=-1),
    obj([["1", "2"], ["3"]]),
    obj([["1", "2", "3"], ["1", "2", "3"]]),
    obj([["1", "2"], ["1", "2"], ["2/2", "4/2"], ["0", "0"], ["0", "0"]]),
    obj([["1/2", "1/4"], ["1/2", "1/4"]]),
    obj([["5"]], n=1),
    obj([["5"], ["-1/3"], ["2"]], n=1),
    {"ambient_dim": 2, "field_d": 0},
    {"ambient_dim": 2.0, "field_d": 0, "vertices": [["0", "0"]]},
    {"ambient_dim": 2, "field_d": 4, "vertices": [["0", "0"]]},
    {"ambient_dim": 2, "field_d": 0, "vertices": [("0", "0")]},
    {"ambient_dim": 2, "field_d": 0, "vertices": "00"},
]


def seeded_objects():
    """Clouds of integer, rational and surd literals at n = 1 to 4, some with
    repeated rows, some flat."""
    rng = random.Random(33)
    out = []
    for n in (1, 2, 3, 4):
        for trial in range(12):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3 * n + 5))]
            if trial % 4 == 1 and n > 1:
                rows = [row[:-1] + [row[0] - 1] for row in rows]
            rows += rows[:trial % 3]
            if trial % 3 == 0:
                out.append(obj([[str(x) for x in row] for row in rows], n))
            elif trial % 3 == 1:
                out.append(obj([[f"{x}/{rng.randint(1, 6)}" for x in row] for row in rows], n))
            else:
                out.append(obj([[f"{x}+{abs(y)}/{rng.randint(1, 3)}*sqrt(2)" for x, y in zip(row, row[1:] + row[:1])]
                                for row in rows], n, 2))
    return out


def outcome(read, data):
    try:
        P = read(data)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return P.ambient_dim, P._rows, P._L, P._d, P._hull


@pytest.mark.parametrize("data", CORPUS + seeded_objects())
def test_json_reads_as_the_scalar_route(data):
    """Equal polytopes, with the same rows, denominator, field and hull
    record, or the same exception class and message."""
    assert outcome(from_json, data) == outcome(scalar_from_json, data)


def test_json_corpus_reaches_every_outcome():
    """The corpus loads polytopes and meets each error the route can raise."""
    outcomes = [outcome(from_json, data) for data in CORPUS]
    errors = [o for o in outcomes if isinstance(o[0], type)]
    assert 10 < len(errors) < len(outcomes) - 10
    assert {ValueError, TypeError} < {cls for cls, _ in errors}
    messages = " ".join(message for _, message in errors)
    for text in ("bad scalar literal", "outside declared field", "zero denominator", "digits",
                 "squarefree", "ambient dimension must be >= 1", "points of mixed dimension",
                 "points do not match", "bad polytope object", "expected string"):
        assert text in messages, text


def test_json_builds_no_scalar_per_coordinate(monkeypatch):
    """The read path builds no Scalar on a cloud of integer, rational and
    surd literals; the hull pass builds none either."""
    calls = []
    real = Scalar._make.__func__
    monkeypatch.setattr(Scalar, "_make", classmethod(lambda cls, *a: calls.append(a) or real(cls, *a)))
    P = from_json(obj([["0", "0"], ["3/2", "0"], ["0", "1+1*sqrt(2)"], ["1", "1"]], d=2))
    assert len(P._rows) == 4 and calls == []


def cloud(rng, n, kind):
    """Integer points in R^n: a full cloud, a sample of {-1, 0, 1}^n with
    points on the boundary, a flat set in x_n = x_1 - 1, or a cloud with
    repeated points, which the pass sees once each."""
    m = rng.randint(1, 3 * n + 6)
    if kind == "grid":
        return [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
    points = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if kind == "flat" and n > 1:
        return [p[:-1] + [p[0] - 1] for p in points]
    if kind == "repeated":
        return points + [points[i] for i in range(0, m, 2)]
    return points


@pytest.mark.parametrize("surd", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pass_matches_the_dot_product_pass(n, surd):
    """The same frame and facets as the pass that took each excess as a dot
    product and scanned every adjacency for a third ray, over Q and
    Q(sqrt 2), on rows with repeats and on flat and boundary-heavy sets."""
    rng = random.Random(500 + 10 * n + surd)
    root2 = Scalar.sqrt_of(2)
    for trial in range(40):
        points = cloud(rng, n, ("full", "grid", "flat", "repeated")[trial % 4])
        rows = [Vector([Scalar(x) + (root2 * y if surd else 0) for x, y in zip(p, p[1:] + p[:1])])
                for p in points]
        raw = bare(n, rows)  # the pass runs on distinct sorted rows, as `from_points` gives it
        assert _supporting(raw._rows, raw._L, raw._d) == dot_supporting(raw._rows, raw._L, raw._d), points
        P = from_points(rows)
        frame, found = dot_supporting(P._rows, P._L, P._d)
        assert P._hull == (frame, tuple(sorted(((h, z) for z, h in found.items()), key=lambda item: _indices(item[1]))))


def pass_counts(monkeypatch, raw):
    """One pass on the rows of `raw`, counted where each form takes its
    steps: per point outside the seed simplex, in pass order, its number of
    int excesses (each one `map`) and of pair excesses (each one
    `_pair_dot`); the points whose excesses are all negative; and the rays
    combined by one `gcd` over ints and by one `_cross` over pairs."""
    ints, pairs, tops, gcds, crosses = [], [], [], [], []
    real_dot, real_cross = polytope._pair_dot, polytope._cross
    monkeypatch.setattr(polytope, "map", lambda f, r, x: ints.append(tuple(x)) or map(f, r, x), raising=False)
    monkeypatch.setattr(polytope, "max", lambda *a, **k: tops.append(max(*a, **k)) or tops[-1], raising=False)
    monkeypatch.setattr(polytope, "gcd", lambda *a: gcds.append(a) or math.gcd(*a))
    monkeypatch.setattr(polytope, "_pair_dot", lambda r, x, d: pairs.append(x) or real_dot(r, x, d))
    monkeypatch.setattr(polytope, "_cross", lambda *a: crosses.append(a) or real_cross(*a))
    _supporting(raw._rows, raw._L, raw._d)
    runs = lambda calls: [len(list(at_x)) for _, at_x in groupby(calls)]
    return runs(ints), runs(pairs), sum(top < 0 for top in tops), len(gcds), len(crosses)


def cloud_counts(monkeypatch, scale):
    """`pass_counts` on the 39 distinct points of a 40-point cloud in R^3
    times the scale."""
    rng = random.Random(7)
    points = {tuple(rng.randint(-9, 9) for _ in range(3)): None for _ in range(40)}
    raw = bare(3, [Vector([scale * c for c in p]) for p in points])
    assert len(raw._rows) == 39
    return pass_counts(monkeypatch, raw)


def test_pass_takes_one_dot_product_per_ray_and_point(monkeypatch):
    """Each point outside the seed simplex takes its excess at every live
    ray, a dot product on plain ints over Q, and nothing else does: the 39
    distinct points of a 40-point cloud in R^3 make 35 runs, one per point,
    the first on the 4 seed rays, 833 excesses in all.  13 points lie
    strictly inside every ray and stop there; 77 ray pairs combine."""
    int_runs, pair_runs, inside, gcds, crosses = cloud_counts(monkeypatch, Scalar(1))
    assert len(int_runs) == 35 and int_runs[0] == 4 and sum(int_runs) == 833
    assert (inside, gcds) == (13, 77) and pair_runs == [] and crosses == 0


def test_pass_over_a_surd_field_takes_the_same_steps_on_pairs(monkeypatch):
    """The cloud above times 1 + sqrt 2, whose hull is the same up to that
    scale, takes the same steps, each excess by one `_pair_dot` and each
    combination by one `_cross`."""
    int_runs, pair_runs, inside, gcds, crosses = cloud_counts(monkeypatch, 1 + Scalar.sqrt_of(2))
    assert len(pair_runs) == 35 and pair_runs[0] == 4 and sum(pair_runs) == 833
    assert (inside, crosses) == (13, 77) and int_runs == [] and gcds == 0
