"""Exact scalars a + b*sqrt(d) over a fixed real quadratic field.

Nothing in this module ever rounds.  A scalar carries the discriminant
``d`` of the field it lives in (``d == 0`` marks a plain rational) and is
stored as one integer triple (A + B*sqrt(d)) / Q in lowest terms, written
by `Scalar._fill` alone, which keeps the arithmetic to one gcd per
operation and makes sign tests pure integer comparisons; `_literal` reads
text into a raw triple that its readers reduce.  The rational coefficients
are exposed as ``fractions.Fraction`` values.  Mixing two distinct nonzero
discriminants is an error: a run works in one field, fixed by
`valuation._apply` and `cauchy_eval` before `_read` sums.  Binary operators
take operands through `_gated`, which refuses floats; the value types share
one guard, `Immutable`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from numbers import Rational
import re


class FieldMismatchError(ValueError):
    """Two scalars from different quadratic fields met in one operation."""


class ScalarParseError(ValueError):
    """Text did not match the scalar grammar."""


def _is_squarefree(d: int) -> bool:
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


#: the largest discriminant, which is tested squarefree by trial division
MAX_DISCRIMINANT = 10**10


def _check_discriminant(d: int) -> int:
    if d == 0:
        return 0
    if not 2 <= d <= MAX_DISCRIMINANT or not _is_squarefree(d):
        raise ValueError(f"discriminant must be 0 or squarefree in 2..{MAX_DISCRIMINANT}, got {d}")
    return d


def _merge_discriminants(d1: int, d2: int) -> int:
    if d1 == d2 or d2 == 0:
        return d1
    if d1 == 0:
        return d2
    raise FieldMismatchError(f"cannot mix sqrt({d1}) with sqrt({d2})")


def _surd_sign(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d); equality of squares cannot occur for squarefree d."""
    if B == 0:
        return (A > 0) - (A < 0)
    return (1 if A > 0 else -1) if A * A > d * B * B else (1 if B > 0 else -1)


def _integer_rows(rows) -> tuple[list[list[tuple[int, int]]], int, int]:
    """Rows of Scalars as rows of integer pairs (A, B), meaning A + B*sqrt(d),
    over one positive common denominator L; returns (pair rows, L, d).
    A rational entry is the pair (A, 0), whatever d is."""
    d, L = 0, 1
    for row in rows:
        for x in row:
            d = _merge_discriminants(d, x.d)
            L = lcm(L, x._q)
    return [[(x._qa * (L // x._q), x._qb * (L // x._q)) for x in row] for row in rows], L, d


# a = an/aq, then optionally +-(bn/bq)*sqrt(d); digits are 0-9 only
_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?\*sqrt\((\d+)\))?\Z", re.ASCII)


def _literal(text, field: int = 0) -> tuple[int, int, int, int]:
    """`a` or `a+-b*sqrt(d)` as a raw (A, B, q > 0, d if B else 0), which its readers reduce:
    int if str(int(text)) == text, else by the grammar; d == `field`, checked by the caller,
    is not rechecked."""
    try:
        if str(a := int(text)) == text:
            return a, 0, 1, 0
    except (TypeError, ValueError):
        pass
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ScalarParseError(f"bad scalar literal: {text!r}")
    an, aq, sign, bn, bq, d = m.groups()
    try:
        a, aq, b, bq, d = int(an), int(aq or 1), int(bn or 0), int(bq or 1), int(d or 0)
        if not aq or not bq:
            raise ValueError(f"zero denominator in scalar literal: {text!r}")
        if d != field:
            _check_discriminant(d)
        if not d and b:
            raise ValueError("irrational part requires a nonzero discriminant")
    except ValueError as exc:
        raise ScalarParseError(str(exc)) from None
    B = (-b if sign == "-" else b) * aq
    return a * bq, B, aq * bq, d if B else 0


class Immutable:
    """Base of the exact value types: an instance is filled once, through
    `object.__setattr__`, and any later assignment or deletion raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _gated(op):
    """The operand gate of a binary Scalar operator `op`, which sees Scalars
    only: an int or other exact rational operand is made one, and any other,
    a float above all, gets NotImplemented (TypeError, or identity for ==)."""

    @wraps(op)
    def gate(self, other):
        if (other := Scalar._coerce(other)) is NotImplemented:
            return NotImplemented
        return op(self, other)

    return gate


class Scalar(Immutable):
    """Immutable element of Q or Q(sqrt(d)), kept in canonical form.

    Canonical means: gcd(A, B, Q) = 1 with Q > 0, and ``d == 0`` whenever
    the irrational coefficient vanishes.  Equality is structural, which
    canonical form makes the same as numeric equality.
    """

    __slots__ = ("_qa", "_qb", "_q", "d")

    d: int

    def __init__(self, a, b=0, d: int = 0) -> None:
        if not (isinstance(a, Rational) and isinstance(b, Rational)):
            raise TypeError(f"Scalar coefficients must be exact rationals, got {a!r}, {b!r}")
        a, b, d = Fraction(a), Fraction(b), _check_discriminant(d)
        if b != 0 and d == 0:
            raise ValueError("irrational part requires a nonzero discriminant")
        q = lcm(a.denominator, b.denominator)
        self._fill(a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q, d)

    def _fill(self, qa: int, qb: int, q: int, d: int) -> None:
        """The one writer of the slots: (qa + qb*sqrt(d)) / q, d valid and q != 0, canonical."""
        g = gcd(qa, qb, q) if q > 0 else -gcd(qa, qb, q)
        object.__setattr__(self, "_qa", qa // g)
        object.__setattr__(self, "_qb", qb // g)
        object.__setattr__(self, "_q", q // g)
        object.__setattr__(self, "d", d if qb else 0)

    @classmethod
    def _make(cls, qa: int, qb: int, q: int, d: int) -> Scalar:
        self = object.__new__(cls)
        self._fill(qa, qb, q, d)
        return self

    @property
    def a(self) -> Fraction:
        return Fraction(self._qa, self._q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._qb, self._q)

    @classmethod
    def sqrt_of(cls, d: int) -> Scalar:
        return cls(0, 1, d)

    @staticmethod
    def _coerce(value) -> Scalar:
        if isinstance(value, Scalar):
            return value
        if type(value) is int:
            return Scalar._make(value, 0, 1, 0)
        if isinstance(value, Rational):
            return Scalar(value)
        return NotImplemented

    # -- field arithmetic ------------------------------------------------

    def _plus(self, other: Scalar, s: int) -> tuple[int, int, int, int]:
        """(A, B, q, d) of self + s*other, s = 1 or -1: one cross-multiplication
        over the product of the denominators."""
        d = _merge_discriminants(self.d, other.d)
        q1, q2 = self._q, other._q
        return self._qa * q2 + s * other._qa * q1, self._qb * q2 + s * other._qb * q1, q1 * q2, d

    @_gated
    def __add__(self, other) -> Scalar:
        return Scalar._make(*self._plus(other, 1))

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar._make(-self._qa, -self._qb, self._q, self.d)

    @_gated
    def __sub__(self, other) -> Scalar:
        return Scalar._make(*self._plus(other, -1))

    @_gated
    def __rsub__(self, other) -> Scalar:
        return other - self

    @_gated
    def __mul__(self, other) -> Scalar:
        d = _merge_discriminants(self.d, other.d)
        return Scalar._make(
            self._qa * other._qa + d * self._qb * other._qb,
            self._qa * other._qb + self._qb * other._qa,
            self._q * other._q,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        # conjugate trick; norm A^2 - d B^2 is nonzero since sqrt(d) is irrational
        norm = self._qa * self._qa - self.d * self._qb * self._qb
        return Scalar._make(self._q * self._qa, -self._q * self._qb, norm, self.d)

    @_gated
    def __truediv__(self, other) -> Scalar:
        return self * other.inverse()

    @_gated
    def __rtruediv__(self, other) -> Scalar:
        return other * self.inverse()

    def __abs__(self) -> Scalar:
        return -self if self.sign() < 0 else self

    # -- predicates and order --------------------------------------------

    def is_zero(self) -> bool:
        return self._qa == 0 and self._qb == 0

    def sign(self) -> int:
        return _surd_sign(self._qa, self._qb, self.d)

    def _cmp_sign(self, other) -> int:
        """Sign of self - other without building the difference."""
        A, B, _, d = self._plus(other, -1)
        return _surd_sign(A, B, d)

    @_gated
    def __eq__(self, other) -> bool:
        return (self._qa == other._qa and self._qb == other._qb and self._q == other._q
                and self.d == other.d)

    @_gated
    def __lt__(self, other) -> bool:
        return self._cmp_sign(other) < 0

    @_gated
    def __le__(self, other) -> bool:
        return self._cmp_sign(other) <= 0

    @_gated
    def __gt__(self, other) -> bool:
        return self._cmp_sign(other) > 0

    @_gated
    def __ge__(self, other) -> bool:
        return self._cmp_sign(other) >= 0

    def __hash__(self) -> int:
        # a rational hashes like the int or Fraction it equals
        if self._qb == 0:
            return hash(Fraction(self._qa, self._q))
        return hash((self._qa, self._qb, self._q, self.d))

    def __bool__(self) -> bool:
        return self._qa != 0 or self._qb != 0

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if self._qb == 0:
            return str(self.a)
        sign = "+" if self._qb > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r}, {self.d!r})"

    @classmethod
    def parse(cls, text: str) -> Scalar:
        """The Scalar of the literal that `_literal` reads, or ScalarParseError."""
        return cls._make(*_literal(text))


ZERO = Scalar(0)
ONE = Scalar(1)


def as_scalar(value) -> Scalar:
    if (coerced := Scalar._coerce(value)) is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a Scalar")
    return coerced


# -- additive solutions of the Cauchy equation on [0, inf) ----------------
#
# f(x + y) = f(x) + f(y) with no continuity assumed: on Q(sqrt d) such an f is
# Q-linear, and CauchySolution(rational, surd) is a + b*sqrt(d) -> rational*a +
# surd*b*sqrt(d).  Linear(lam) is (lam, lam); RationalPart is (1, 0), additive
# yet not field-linear, which makes it a useful stress test downstream.


class CauchySolution(Immutable):
    __slots__ = ("rational", "surd")

    def __init__(self, rational, surd) -> None:
        object.__setattr__(self, "rational", as_scalar(rational))
        object.__setattr__(self, "surd", as_scalar(surd))

    def _terms(self, A: int, B: int, q: int, d: int) -> tuple:
        """`_read`'s two terms of self at (A + B*sqrt(d))/q >= 0."""
        if _surd_sign(A, B, d) < 0:
            x = Scalar._make(A, B, q, d)
            raise ValueError(f"cauchy solutions are evaluated on [0, inf), got {x}")
        return (self.rational, A, 0, q), (self.surd, 0, B, q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CauchySolution)
                and self.rational == other.rational and self.surd == other.surd)

    def __hash__(self) -> int:
        return hash((self.rational, self.surd))


class Linear(CauchySolution):
    __slots__ = ()

    #: the pair is (coefficient, coefficient)
    coefficient = CauchySolution.rational

    def __init__(self, coefficient) -> None:
        super().__init__(coefficient, coefficient)

    def __repr__(self) -> str:
        return f"Linear({self.coefficient!r})"


class RationalPart(CauchySolution):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(ONE, ZERO)

    def __repr__(self) -> str:
        return "RationalPart()"


def _read(terms, d: int) -> Scalar:
    """Sum of c*(a + b*sqrt(d))/q over terms (c, a, b, q), c a Scalar in Q or
    Q(sqrt d) as the caller checked, on integers: one Scalar built, the sum."""
    A, B, q = 0, 0, 1
    for c, xa, xb, r in terms:
        ta, tb, tq = c._qa * xa + d * c._qb * xb, c._qa * xb + c._qb * xa, c._q * r
        A, B, q = A * tq + ta * q, B * tq + tb * q, q * tq
    return Scalar._make(A, B, q, d)


def cauchy_eval(f: CauchySolution, x) -> Scalar:
    x = as_scalar(x)
    e = _merge_discriminants(_merge_discriminants(f.rational.d, f.surd.d), x.d)
    return _read(f._terms(x._qa, x._qb, x._q, x.d), e)
