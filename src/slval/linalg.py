"""Exact vectors, matrices, and elimination over the scalar field.

There is one elimination, `_eliminate`: a fraction-free Gauss-Jordan
(Bareiss 1968) on pairs (A, B) of ints meaning A + B*sqrt(d), which leaves
one common pivot D on every pivot row.  Kernels, solutions (`_solve`) and
determinants other than 2 x 2 to 4 x 4 are read off that form; Scalars are
built only from it, by one division by D.  A 2 x 2 to 4 x 4 determinant,
such as a volume cell's, is expanded in closed form on the pairs instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .exactnum import ONE, ZERO, Immutable, Scalar, _integer_rows, as_scalar


class SingularMatrixError(ValueError):
    def __init__(self, rank: int) -> None:
        super().__init__(f"matrix is singular (rank {rank})")
        self.rank = rank


class Vector(Immutable):
    __slots__ = ("coords",)

    coords: tuple[Scalar, ...]

    def __init__(self, coords: Iterable) -> None:
        object.__setattr__(self, "coords", tuple(as_scalar(c) for c in coords))

    @classmethod
    def _of(cls, coords: tuple[Scalar, ...]) -> Vector:
        """Trusted constructor for a tuple of Scalars just built: no coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "coords", coords)
        return self

    @classmethod
    def zero(cls, n: int) -> Vector:
        return cls._of((ZERO,) * n)

    @classmethod
    def basis(cls, n: int, i: int) -> Vector:
        return cls._of(tuple(ONE if j == i else ZERO for j in range(n)))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Scalar:
        return self.coords[i]

    def __add__(self, other: Vector) -> Vector:
        return Vector._of(tuple(x + y for x, y in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: Vector) -> Vector:
        return Vector._of(tuple(x - y for x, y in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> Vector:
        return Vector._of(tuple(-x for x in self.coords))

    def scale(self, factor) -> Vector:
        factor = as_scalar(factor)
        return Vector._of(tuple(factor * x for x in self.coords))

    def dot(self, other: Vector) -> Scalar:
        acc = ZERO
        for x, y in zip(self.coords, other.coords, strict=True):
            acc = acc + x * y
        return acc

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def sort_key(self) -> tuple:
        # lexicographic over the exact (a, b) of each coordinate
        return tuple((Fraction(c._qa, c._q), Fraction(c._qb, c._q)) for c in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "Vector([" + ", ".join(str(c) for c in self.coords) + "])"


class Matrix(Immutable):
    __slots__ = ("rows",)

    rows: tuple[tuple[Scalar, ...], ...]

    def __init__(self, rows: Iterable[Iterable]) -> None:
        converted = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if converted and any(len(r) != len(converted[0]) for r in converted):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", converted)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector._of(tuple(r[j] for r in self.rows))

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.rows)) if self.rows else Matrix([])

    def __matmul__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.ncols != len(other):
            raise ValueError("shape mismatch")
        return Vector._of(tuple(Vector._of(r).dot(other) for r in self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"Matrix({body})"


def det(matrix: Matrix) -> Scalar:
    """Determinant: `_det` of the rows scaled by their common denominator L,
    over L^n."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant needs a square matrix")
    ints, L, d = _integer_rows(matrix.rows)
    return Scalar._make(*_det(ints, d), L ** n, d)


# -- fraction-free elimination on pairs (A, B) of ints, meaning A + B*sqrt(d)


def _pair_dot(x, y, d: int) -> tuple[int, int]:
    A = B = 0
    for (xa, xb), (ya, yb) in zip(x, y):
        A += xa * ya
        if xb or yb:
            A += d * xb * yb
            B += xa * yb + xb * ya
    return A, B


def _minor(x, y, i: int, j: int, d: int) -> tuple[int, int]:
    """x_i y_j - x_j y_i."""
    (ia, ib), (ja, jb), (Ia, Ib), (Ja, Jb) = x[i], x[j], y[i], y[j]
    return ia * Ja - ja * Ia + d * (ib * Jb - jb * Ib), ia * Jb + ib * Ja - ja * Ib - jb * Ia


#: the column pairs of a 4 x 4 matrix, each with its complement ordered so
#: that its 2 x 2 minor carries the sign of the pair's Laplace term
_LAPLACE = (((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)),
            ((1, 2), (0, 3)), ((1, 3), (2, 0)), ((2, 3), (0, 1)))


def _det(rows, d: int) -> tuple[int, int]:
    """Determinant of a square matrix of integer pairs.  From 2 x 2 to
    4 x 4 in closed form: the 2 x 2 minor, the cofactors of the first row or
    the Laplace sum over the 2 x 2 minors of the first two rows.  Else +-D,
    D the common pivot `_eliminate` leaves, or (0, 0) if the rank falls
    short; the empty matrix has determinant 1."""
    k = len(rows)
    if not 1 < k <= 4:
        _, pivots, sign, (Da, Db) = _eliminate(rows, d)
        return (sign * Da, sign * Db) if len(pivots) == k else (0, 0)
    if k == 2:
        return _minor(*rows, 0, 1, d)
    if k == 3:
        x, y, z = rows
        terms = zip(x, (_minor(y, z, 1, 2, d), _minor(y, z, 2, 0, d), _minor(y, z, 0, 1, d)))
    else:
        x, y, z, w = rows
        terms = [(_minor(x, y, *top, d), _minor(z, w, *bottom, d)) for top, bottom in _LAPLACE]
    A = B = 0
    for (fa, fb), (ga, gb) in terms:
        A += fa * ga + d * fb * gb
        B += fa * gb + fb * ga
    return A, B


def _primitive(x: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """x divided by the gcd of its integers, which is positive."""
    g = gcd(*chain.from_iterable(x))
    return [(a // g, b // g) for a, b in x] if g > 1 else x


def _cross(x, p, y, f, d: int) -> list[tuple[int, int]]:
    """x*p - y*f entrywise."""
    pa, pb = p
    fa, fb = f
    if not (pb or fb):
        return [(xa * pa - ya * fa, xb * pa - yb * fa) for (xa, xb), (ya, yb) in zip(x, y)]
    return [(xa * pa + d * xb * pb - ya * fa - d * yb * fb,
             xa * pb + xb * pa - ya * fb - yb * fa) for (xa, xb), (ya, yb) in zip(x, y)]


def _rationalized(x, q: tuple[int, int], d: int) -> tuple[list[tuple[int, int]], int]:
    """(x', n) with x / q = x' / n and n an integer: x * conj(q) over the
    norm of q, which is x * q over q^2 if q is rational."""
    qa, qb = q
    return [(a * qa - d * b * qb, b * qa - a * qb) for a, b in x], qa * qa - d * qb * qb


def _eliminate(rows, d: int) -> tuple[list, list[int], int, tuple[int, int]]:
    """Fraction-free Gauss-Jordan over Z[sqrt d] (Bareiss 1968).

    Returns the nonzero rows of a form spanning the same row space, their
    pivot columns, the sign of the row swaps, and the common pivot D (1 if
    there is none).  A row is cleared on pivot column c by
    (row*p - pivot_row*f) / q, with p the pivot, f the row's entry on c and
    q the previous pivot, in one pass when all three are rational; every
    other row takes the same step.  Each entry is then a minor of the input,
    so the division is exact.  Row i ends with D, the determinant of the
    pivot minor, on its pivot column c_i and zero on the other ones.
    """
    rows = list(rows)
    m = len(rows)
    pivots: list[int] = []
    sign = 1
    q = (1, 0)
    for c in range(len(rows[0]) if m else 0):
        r = len(pivots)
        pick = next((i for i in range(r, m) if rows[i][c] != (0, 0)), None)
        if pick is None:
            continue
        if pick != r:
            rows[r], rows[pick] = rows[pick], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (p[1] or f[1] or q[1]):
                x, n = _rationalized(_cross(row, p, top, f, d), q, d)
                rows[i] = [(a // n, b // n) for a, b in x]
            elif i != r:
                (pa, _), (fa, _), (qa, _) = p, f, q
                rows[i] = [((xa * pa - ya * fa) // qa, (xb * pa - yb * fa) // qa)
                           for (xa, xb), (ya, yb) in zip(row, top)]
        q = p
        pivots.append(c)
    return rows[:len(pivots)], pivots, sign, q


def _over(x: list[tuple[int, int]], D: tuple[int, int], d: int) -> list[Scalar]:
    """The Scalars x / D, for integer pairs x and a nonzero pair D."""
    x, n = _rationalized(x, D, d)
    return [Scalar._make(a, b, n, d) for a, b in x]


def _solve(aug: Sequence[Sequence[Scalar]]) -> tuple[list[int], list[Scalar]]:
    """Pivot columns of augmented rows and each pivot row's last entry over
    D: one `_eliminate` of the rows scaled to integers."""
    ints, _, d = _integer_rows(aug)
    form, pivots, _, D = _eliminate(ints, d)
    return pivots, _over([row[-1] for row in form], D, d)


def matrix_rank(rows: Sequence[Sequence] | Matrix) -> int:
    data = rows.rows if isinstance(rows, Matrix) else [[as_scalar(x) for x in row] for row in rows]
    ints, _, d = _integer_rows(data)
    return len(_eliminate(ints, d)[1])


def solve_any(rows: Sequence[Sequence], rhs: Sequence) -> list[Scalar] | None:
    """Some solution of a rectangular system, or None if inconsistent."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    pivots, values = _solve([[as_scalar(x) for x in row] + [as_scalar(rhs[i])]
                             for i, row in enumerate(rows)])
    if ncols in pivots:
        return None
    solution = [ZERO] * ncols
    for c, value in zip(pivots, values):
        solution[c] = value
    return solution


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Basis of the right kernel of the given row list: one vector per free
    column f, 1 there and 0 on the other free columns.  It is read off one
    `_eliminate` form: D on f and -a_i on pivot column c_i, a_i being row
    i's entry on f, all over the form's pivot D."""
    ints, _, d = _integer_rows([[as_scalar(x) for x in row] for row in rows])
    form, pivots, _, D = _eliminate(ints, d)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [(0, 0)] * ncols
        x[f] = D
        for row, c in zip(form, pivots):
            x[c] = (-row[f][0], -row[f][1])
        basis.append(Vector._of(tuple(_over(x, D, d))))
    return basis


#: the shear factors of `random_sl_matrix` are drawn from [-5, 5]
_SHEAR_BOUND = 5


def random_sl_matrix(seed: int, n: int, steps: int) -> Matrix:
    """Deterministic product of integer shear matrices; determinant is 1.

    Right-multiplying by the shear I + lam * e_i e_j^T adds lam times
    column i to column j, so the product is built on ints."""
    if n < 1 or steps < 0:
        raise ValueError("need n >= 1, steps >= 0")
    rng = random.Random(seed)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        lam = rng.randint(-_SHEAR_BOUND, _SHEAR_BOUND)
        for row in rows:
            row[j] += lam * row[i]
    return Matrix(rows)
