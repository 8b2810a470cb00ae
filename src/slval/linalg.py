"""Exact vectors, matrices, and elimination over the scalar field."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import ONE, ZERO, Scalar, as_scalar


class SingularMatrixError(ValueError):
    def __init__(self, rank: int) -> None:
        super().__init__(f"matrix is singular (rank {rank})")
        self.rank = rank


class Vector:
    __slots__ = ("coords",)

    coords: tuple[Scalar, ...]

    def __init__(self, coords: Iterable) -> None:
        object.__setattr__(self, "coords", tuple(as_scalar(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, n: int) -> Vector:
        return cls([ZERO] * n)

    @classmethod
    def basis(cls, n: int, i: int) -> Vector:
        return cls([ONE if j == i else ZERO for j in range(n)])

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Scalar:
        return self.coords[i]

    def __add__(self, other: Vector) -> Vector:
        return Vector(x + y for x, y in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: Vector) -> Vector:
        return Vector(x - y for x, y in zip(self.coords, other.coords, strict=True))

    def __neg__(self) -> Vector:
        return Vector(-x for x in self.coords)

    def scale(self, factor) -> Vector:
        factor = as_scalar(factor)
        return Vector(factor * x for x in self.coords)

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
        return Vector(r[j] for r in self.rows)

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.rows)) if self.rows else Matrix([])

    def __matmul__(self, other):
        if isinstance(other, Vector):
            if self.ncols != len(other):
                raise ValueError("shape mismatch")
            return Vector(Vector(r).dot(other) for r in self.rows)
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = [other.column(j) for j in range(other.ncols)]
            return Matrix([[Vector(r).dot(c) for c in cols] for r in self.rows])
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


def _reduced_echelon(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


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
    return Vector(reduced[i][n] for i in range(n))


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
        basis.append(Vector(coords))
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
