"""Exact vectors, matrices, and elimination over the scalar field.

Elimination is fraction-free (Bareiss 1968), on pairs (A, B) of ints
meaning A + B*sqrt(d); Scalars are built only from the finished form.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .exactnum import ONE, ZERO, Scalar, _integer_rows, as_scalar


class SingularMatrixError(ValueError):
    def __init__(self, rank: int) -> None:
        super().__init__(f"matrix is singular (rank {rank})")
        self.rank = rank


class Vector:
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

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

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
        # lexicographic over the exact (a, b) of each coordinate; an integer
        # coefficient stays an int, which compares exactly with a Fraction
        return tuple(
            (c._qa, c._qb) if c._q == 1 else (Fraction(c._qa, c._q), Fraction(c._qb, c._q))
            for c in self.coords
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "Vector([" + ", ".join(str(c) for c in self.coords) + "])"


class Matrix:
    __slots__ = ("rows",)

    rows: tuple[tuple[Scalar, ...], ...]

    def __init__(self, rows: Iterable[Iterable]) -> None:
        converted = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if converted and any(len(r) != len(converted[0]) for r in converted):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

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
        if isinstance(other, Vector):
            if self.ncols != len(other):
                raise ValueError("shape mismatch")
            return Vector._of(tuple(Vector._of(r).dot(other) for r in self.rows))
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = [other.column(j) for j in range(other.ncols)]
            return Matrix([[Vector._of(r).dot(c) for c in cols] for r in self.rows])
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"Matrix({body})"


def det(matrix: Matrix) -> Scalar:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ONE
    a = [list(row) for row in matrix.rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


# -- fraction-free elimination on pairs (A, B) of ints, meaning A + B*sqrt(d)


def _pair_dot(x, y, d: int) -> tuple[int, int]:
    A = B = 0
    for (xa, xb), (ya, yb) in zip(x, y):
        A += xa * ya + d * xb * yb
        B += xa * yb + xb * ya
    return A, B


def _pair_mul(x, y, d: int) -> tuple[int, int]:
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _primitive(x: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """x divided by the gcd of its integers, which is positive."""
    g = gcd(*chain.from_iterable(x))
    return [(a // g, b // g) for a, b in x] if g > 1 else x


def _combine(x, p, y, f, d: int) -> list[tuple[int, int]]:
    """x*p - y*f entrywise, made primitive."""
    pa, pb = p
    fa, fb = f
    return _primitive([(xa * pa + d * xb * pb - ya * fa - d * yb * fb,
                        xa * pb + xb * pa - ya * fb - yb * fa) for (xa, xb), (ya, yb) in zip(x, y)])


def _eliminate(rows, d: int) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Fraction-free Gauss-Jordan over Z[sqrt d]: the nonzero rows of a form
    spanning the same row space, and their pivot columns.

    Row i is nonzero at pivot column c_i and zero at every other pivot
    column; it is not divided by its pivot.  A row is cleared on column c by
    row*p - pivot_row*f, with p the pivot and f the row's entry there, and
    made primitive.
    """
    rows = list(rows)
    m = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if m else 0):
        r = len(pivots)
        pick = next((i for i in range(r, m) if rows[i][c] != (0, 0)), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        top = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != (0, 0):
                rows[i] = _combine(rows[i], top[c], top, f, d)
        pivots.append(c)
        if len(pivots) == m:
            break
    return rows[:len(pivots)], pivots


def _pair_kernel(rows, pivots: list[int], d: int) -> list[tuple[int, int]]:
    """The kernel vector, made primitive, of an `_eliminate` form with one
    free column f: x_f is the product of the pivots p_i, and x on pivot
    column c_i is -a_i times the product of the other pivots, a_i being row
    i's entry on f."""
    free = next(c for c in range(len(pivots) + 1) if c not in pivots)
    x = [(0, 0)] * (len(pivots) + 1)
    x[free] = (1, 0)
    for row, c in zip(rows, pivots):
        a_times_q = _pair_mul(row[free], x[free], d)
        x = [_pair_mul(e, row[c], d) for e in x]
        x[c] = (-a_times_q[0], -a_times_q[1])
    return _primitive(x)


def _reduced_echelon(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced echelon form (zero rows last) and pivot columns.

    The form depends only on the row space, so the rows are scaled to
    integers and made primitive, eliminated by `_eliminate`, and each pivot
    row is divided by its pivot once at the end.
    """
    ints, _, d = _integer_rows(rows)
    reduced, pivots = _eliminate([_primitive(row) for row in ints], d)
    out = []
    for row, c in zip(reduced, pivots):
        # x / p = x * conj(p) / norm(p)
        pa, pb = row[c]
        norm = pa * pa - d * pb * pb
        out.append([Scalar._make(xa * pa - d * xb * pb, xb * pa - xa * pb, norm, d)
                    if xa or xb else ZERO for xa, xb in row])
    ncols = len(rows[0]) if rows else 0
    return out + [[ZERO] * ncols for _ in range(len(rows) - len(out))], pivots


def matrix_rank(rows: Sequence[Sequence] | Matrix) -> int:
    if isinstance(rows, Matrix):
        data = [list(r) for r in rows.rows]
    else:
        data = [[as_scalar(x) for x in row] for row in rows]
    if not data:
        return 0
    _, pivots = _reduced_echelon(data)
    return len(pivots)


def solve(matrix: Matrix, rhs: Vector) -> Vector:
    """Unique solution of a square system; raises with the rank if singular."""
    n = matrix.nrows
    if n != matrix.ncols or len(rhs) != n:
        raise ValueError("solve needs a square matrix and matching vector")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix.rows)]
    reduced, pivots = _reduced_echelon(aug)
    main_pivots = [c for c in pivots if c < n]
    if len(main_pivots) < n:
        raise SingularMatrixError(len(main_pivots))
    return Vector._of(tuple(reduced[i][n] for i in range(n)))


def solve_any(rows: Sequence[Sequence], rhs: Sequence) -> list[Scalar] | None:
    """Some solution of a rectangular system, or None if inconsistent."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [[as_scalar(x) for x in row] + [as_scalar(rhs[i])] for i, row in enumerate(rows)]
    reduced, pivots = _reduced_echelon(aug)
    if ncols in pivots:
        return None
    solution = [ZERO] * ncols
    for r, c in enumerate(pivots):
        solution[c] = reduced[r][ncols]
    return solution


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Basis of the right kernel of the given row list."""
    data = [[as_scalar(x) for x in row] for row in rows]
    return _echelon_kernel(*_reduced_echelon(data), ncols)


def _echelon_kernel(reduced: list[list[Scalar]], pivots: list[int], ncols: int) -> list[Vector]:
    """Kernel basis read off a reduced echelon form: one vector per free
    column, 1 there and 0 on the other free columns."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        coords = [ZERO] * ncols
        coords[fc] = ONE
        for r, pc in enumerate(pivots):
            coords[pc] = -reduced[r][fc]
        basis.append(Vector._of(tuple(coords)))
    return basis


def random_sl_matrix(seed: int, n: int, steps: int, bound: int = 5) -> Matrix:
    """Deterministic product of integer shear matrices; determinant is 1."""
    if n < 1 or steps < 0 or bound < 1:
        raise ValueError("need n >= 1, steps >= 0, bound >= 1")
    rng = random.Random(seed)
    result = Matrix.identity(n)
    for _ in range(steps):
        if n == 1:
            break
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        lam = rng.randint(-bound, bound)
        shear = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
        shear[i][j] = Scalar(lam)
        result = result @ Matrix(shear)
    return result
