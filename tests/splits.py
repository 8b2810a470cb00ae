"""Splits that only the tests read: predicates on `slval.harness.SplitCase`,
and the slabs of a polytope over Q(sqrt 2) between two parallel cuts."""

import random
from fractions import Fraction

from slval.exactnum import Linear, RationalPart, Scalar
from slval.linalg import Vector
from slval.polytope import Halfspace, clip, dim, from_points
from slval.valuation import ClassifiedValuation

ROOT2 = Scalar.sqrt_of(2)
SLAB_VALUATION = ClassifiedValuation(Scalar(1), Scalar(2), Scalar(4), psi=RationalPart(),
                                     phi=Linear(5))


def is_classic(case):
    """Left and right meet only in the shared cutting hyperplane."""
    return (case.hyperplane.offset + case.opposite.offset).is_zero()


def through_origin(case):
    """Left and right meet in one hyperplane, and it passes through 0."""
    return is_classic(case) and case.hyperplane.offset.is_zero()


def surd_slabs(n=3, seed=8):
    """A seeded polytope in R^n over Q(sqrt 2) and its three slabs between
    two parallel cuts."""
    rng = random.Random(seed)
    while True:
        points = [Vector([Scalar(rng.randint(-3, 3)) + ROOT2 * rng.randint(-2, 2)
                          for _ in range(n)]) for _ in range(6)]
        P = from_points(points)
        if dim(P) == n:
            break
    u = Vector([1, -2, 1][:n])
    values = [u.dot(v) for v in P.vertices]
    low, high = min(values), max(values)
    c1, c2 = low + (high - low) * Fraction(1, 4), low + (high - low) * Fraction(5, 8)
    slabs = [clip(P, Halfspace(u, c1)),
             clip(clip(P, Halfspace(-u, -c1)), Halfspace(u, c2)),
             clip(P, Halfspace(-u, -c2))]
    return P, slabs
