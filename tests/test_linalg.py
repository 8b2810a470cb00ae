import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slval.linalg
from slval.exactnum import Scalar
from slval.linalg import (
    Matrix,
    SingularMatrixError,
    Vector,
    _det,
    det,
    kernel_basis,
    matrix_rank,
    random_sl_matrix,
    solve_any,
)

from oracles import det_root2, reduced_echelon, rref_root2, solve
from pulling import affine_rank


def test_det_2x2():
    assert det(Matrix([[1, 2], [3, 4]])) == Scalar(-2)


def identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def product(a, b):
    """a @ b, entry by entry."""
    return Matrix([[sum((x * y for x, y in zip(row, col)), Scalar(0)) for col in zip(*b.rows)]
                   for row in a.rows])


def test_det_identity():
    assert det(identity(4)) == Scalar(1)


def test_det_singular():
    assert det(Matrix([[1, 2], [2, 4]])) == Scalar(0)


def test_det_needs_pivoting():
    m = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert det(m) == Scalar(-1)


def test_det_with_surds():
    r2 = Scalar.sqrt_of(2)
    m = Matrix([[r2, 1], [1, r2]])
    assert det(m) == Scalar(1)


def test_solve_unique():
    m = Matrix([[2, 1], [1, 3]])
    x = solve(m, Vector([5, 10]))
    assert x == Vector([Fraction(1), Fraction(3)])


def test_solve_singular_reports_rank():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    with pytest.raises(SingularMatrixError) as err:
        solve(m, Vector([0, 0, 0]))
    assert err.value.rank == 2


def test_solve_any_inconsistent():
    assert solve_any([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_any_underdetermined():
    sol = solve_any([[1, 1, 1]], [3])
    assert sol is not None
    assert sum(sol, Scalar(0)) == Scalar(3)


def test_kernel_basis_dimensions():
    basis = kernel_basis([[1, 1, 0]], 3)
    assert len(basis) == 2
    for v in basis:
        assert Vector([1, 1, 0]).dot(v) == Scalar(0)


def test_matrix_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([]) == 0


def test_affine_rank_cases():
    e = lambda *cs: Vector(cs)
    assert affine_rank([e(1, 1)]) == 0
    assert affine_rank([e(0, 0), e(1, 0)]) == 1
    assert affine_rank([e(0, 0), e(1, 1), e(2, 2)]) == 1
    assert affine_rank([e(0, 0), e(1, 0), e(0, 1)]) == 2
    assert affine_rank([]) == -1


def test_vector_coerces_and_rejects_floats():
    """The public constructor coerces exact rationals and rejects floats;
    the results of vector arithmetic hold Scalars as well."""
    v = Vector([1, Fraction(1, 2)])
    assert all(type(x) is Scalar for x in v)
    with pytest.raises(TypeError):
        Vector([1, 0.5])
    for w in (v + v, v - v, -v, v.scale(3), v.scale(Fraction(2, 3))):
        assert all(type(x) is Scalar for x in w) and len(w) == 2
    assert v + v == v.scale(2) == Vector([2, 1])


def test_matmul_vector():
    m = Matrix([[1, 2], [3, 4]])
    assert m @ Vector([1, 1]) == Vector([3, 7])


def test_random_sl_matrix_is_deterministic():
    a = random_sl_matrix(7, 3, 8)
    b = random_sl_matrix(7, 3, 8)
    assert a == b
    assert a != random_sl_matrix(8, 3, 8)


def test_random_sl_matrix_refuses_each_bad_argument_alone():
    """n < 1 and steps < 0 are each refused on their own; n = 1 with no
    steps is the 1 x 1 identity."""
    for n, steps in ((0, 1), (2, -1)):
        with pytest.raises(ValueError, match="^need n >= 1, steps >= 0$"):
            random_sl_matrix(0, n, steps)
    assert random_sl_matrix(0, 1, 0) == Matrix([[1]])


def test_random_sl_matrix_has_det_one():
    for seed in range(20):
        for n in (2, 3):
            assert det(random_sl_matrix(seed, n, 8)) == Scalar(1)


def shear_product(seed, n, steps, bound=5):
    """The product of the shears I + lam * e_i e_j^T, drawn as random_sl_matrix
    draws them, multiplied out as matrices."""
    rng = random.Random(seed)
    result = identity(n)
    for _ in range(steps if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        lam = rng.randint(-bound, bound)
        shear = [[int(r == c) for c in range(n)] for r in range(n)]
        shear[i][j] = lam
        result = product(result, Matrix(shear))
    return result


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_sl_matrix_is_the_product_of_its_shears(n):
    for seed in range(25):
        for steps in (0, 1, 6, 2 * n):
            assert random_sl_matrix(seed, n, steps) == shear_product(seed, n, steps)


def test_random_sl_matrix_entries_are_integers():
    m = random_sl_matrix(3, 2, 6)
    for row in m.rows:
        for x in row:
            assert x.b == 0 and x.a.denominator == 1


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_det_is_multiplicative(rows_a, rows_b):
    a, b = Matrix(rows_a), Matrix(rows_b)
    assert det(product(a, b)) == det(a) * det(b)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(rows, rhs):
    m = Matrix(rows)
    try:
        x = solve(m, Vector(rhs))
    except SingularMatrixError as err:
        assert err.rank == matrix_rank(m) < 3
        return
    assert m @ x == Vector(rhs)


@st.composite
def echelon_cases(draw, square=False):
    """A rational or Q(sqrt 2) matrix of up to 6 x 5 entries (square up to
    5 x 5 if asked) with denominators up to 10^6, whose rows are fresh,
    fresh after leading zeros, zero, repeated or a combination of earlier
    rows, so shapes of every rank occur and pivots need row swaps.  Half the
    square draws take only fresh rows, with or without leading zeros, so
    that many are nonsingular."""
    surd = draw(st.booleans())
    ncols = draw(st.integers(1, 5))
    coefficient = st.fractions(-9, 9, max_denominator=10**6)
    entry = st.tuples(coefficient, coefficient if surd else st.just(Fraction(0)))
    zero = (Fraction(0), Fraction(0))
    rows = []
    kinds = ["fresh", "leading zeros"]
    if not square or draw(st.booleans()):
        kinds += ["zero", "repeat", "combination"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=ncols if square else 1,
                              max_size=ncols if square else 6)):
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "leading zeros":
            lead = draw(st.integers(1, max(1, ncols - 1)))
            tail = st.lists(entry, min_size=ncols - lead, max_size=ncols - lead)
            rows.append([zero] * lead + draw(tail))
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(coefficient)
            rows.append([(s * a + t * c, s * b + t * e) for (a, b), (c, e) in zip(x, y)])
    return rows, 2 if surd else 0


@given(echelon_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_reduced_echelon_matches_a_fraction_oracle(case):
    rows, d = case
    reduced, pivots = reduced_echelon([[Scalar(a, b, d) for a, b in row] for row in rows])
    expected, expected_pivots = rref_root2(rows)
    assert pivots == expected_pivots
    assert [[(x.a, x.b) for x in row] for row in reduced] == expected


@given(echelon_cases(square=True))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_det_matches_the_leibniz_oracle(case):
    rows, d = case
    value = det(Matrix([[Scalar(a, b, d) for a, b in row] for row in rows]))
    assert (value.a, value.b) == det_root2(rows)


@st.composite
def pair_matrices(draw):
    """A k x k matrix of integer pairs (A, B), meaning A + B*sqrt 2, for
    k = 1 to 5, rational or with surd entries: fresh, with zeros in the
    first row, with the second row a multiple of the first on some
    columns (so some 2 x 2 minors of the top two rows vanish), or with one
    row a combination of two others over Q(sqrt 2), which is singular."""
    k = draw(st.integers(1, 5))
    surd = draw(st.booleans())
    coefficient = st.integers(-9, 9)
    entry = st.tuples(coefficient, coefficient if surd else st.just(0))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["fresh", "zero in row 0", "zero top minor", "rank deficient"]))
    columns = st.lists(st.integers(0, k - 1), min_size=1, unique=True)
    if kind == "zero in row 0":
        for j in draw(columns):
            rows[0][j] = (0, 0)
    elif kind == "zero top minor" and k >= 2:
        t = draw(coefficient)
        for j in draw(columns):
            rows[1][j] = (t * rows[0][j][0], t * rows[0][j][1])
    elif kind == "rank deficient" and k >= 2:
        (sa, sb), (ta, tb) = draw(entry), draw(entry)
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows[draw(st.integers(0, k - 1))] = [
            (sa * a + 2 * sb * b + ta * c + 2 * tb * e, sa * b + sb * a + ta * e + tb * c)
            for (a, b), (c, e) in zip(x, y)]
    return rows, 2 if surd else 0


@given(pair_matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pair_determinant_matches_the_leibniz_oracle(case):
    rows, d = case
    expected = det_root2([[(Fraction(a), Fraction(b)) for a, b in row] for row in rows])
    assert _det(rows, d) == expected


@pytest.mark.parametrize("k", [5, 6])
def test_pair_determinant_beyond_4x4_keeps_the_swap_sign(k):
    """Beyond 4 x 4 the sign comes from `_eliminate`'s row swaps: the
    identity with rows 0 and 1 swapped has determinant -1, and a matrix
    over Q(sqrt 2) that is zero on its first entry needs one swap too."""
    swap = [[(int(c == (r ^ 1 if r < 2 else r)), 0) for c in range(k)] for r in range(k)]
    assert _det(swap, 0) == (-1, 0)
    rows = [[((i + 1) * (j + 2) % 7 - 3, (i - j) % 3) for j in range(k)] for i in range(k)]
    rows[0][0] = (0, 0)
    expected = det_root2([[(Fraction(a), Fraction(b)) for a, b in row] for row in rows])
    assert expected != (0, 0) and _det(rows, 2) == expected


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_pair_determinant_eliminates_only_beyond_4x4(monkeypatch, k):
    """From 2 x 2 to 4 x 4 the determinant is expanded in closed form; a
    5 x 5 one takes one elimination, and so do a 1 x 1 one and the empty
    matrix, whose determinant is 1."""
    calls = []
    real = slval.linalg._eliminate
    monkeypatch.setattr(slval.linalg, "_eliminate",
                        lambda rows, d: calls.append(rows) or real(rows, d))
    rows = [[((i + 1) * (j + 2) % 7 - 3, (i - j) % 3) for j in range(k)] for i in range(k)]
    expected = det_root2([[(Fraction(a), Fraction(b)) for a, b in row] for row in rows])
    assert _det(rows, 2) == expected
    assert len(calls) == (0 if 1 < k <= 4 else 1)
