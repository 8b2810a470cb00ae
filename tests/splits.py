"""Predicates on `slval.harness.SplitCase` that only the tests read."""


def is_classic(case):
    """Left and right meet only in the shared cutting hyperplane."""
    return (case.hyperplane.offset + case.opposite.offset).is_zero()


def through_origin(case):
    """Left and right meet in one hyperplane, and it passes through 0."""
    return is_classic(case) and case.hyperplane.offset.is_zero()
