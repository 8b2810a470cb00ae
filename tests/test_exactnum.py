import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slval.exactnum import (
    CauchySolution,
    FieldMismatchError,
    Linear,
    RationalPart,
    Scalar,
    ScalarParseError,
    _surd_sign,
    cauchy_eval,
)
from slval.linalg import Matrix, Vector
from slval.polytope import Halfspace, from_points
from slval.valuation import ClassifiedValuation, _apply

from oracles import plugin_value, reference_parse, scalar_apply, surd_sign


def test_rational_addition():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))


def test_conjugate_product_is_rational():
    x = Scalar(1, 1, 2)
    y = Scalar(1, -1, 2)
    assert x * y == Scalar(-1)
    assert (x * y).d == 0


def test_sign_of_small_positive_surd():
    # 3 - 2*sqrt(2) = (sqrt(2) - 1)^2 > 0 even though both naive guesses disagree
    assert Scalar(3, -2, 2).sign() == 1
    assert Scalar(-3, 2, 2).sign() == -1
    assert Scalar(1, -1, 2).sign() == -1
    assert Scalar(0).sign() == 0


#: (sqrt 2 - 1)^k = A + B*sqrt 2 for k = 2, 4, 6, 8: positive, and within
#: 1 / (2|B| sqrt 2) of zero
PELL_TIES = [(3, -2), (17, -12), (99, -70), (577, -408)]


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7])
def test_sign_matches_the_isqrt_oracle(d):
    """`_surd_sign` agrees with the integer-square-root oracle on every A, B
    in -30..30, and over sqrt 2 on the Pell near-ties and their negatives,
    where the float comparison of `test_sign_against_float` cannot look."""
    pairs = [(A, B) for A in range(-30, 31) for B in range(-30, 31)]
    if d == 2:
        pairs += [(s * A, s * B) for A, B in PELL_TIES for s in (1, -1)]
        assert [surd_sign(A, B, d) for A, B in pairs[-8:]] == [1, -1] * 4
    assert [_surd_sign(A, B, d) for A, B in pairs] == [surd_sign(A, B, d) for A, B in pairs]


def test_division_round_trip():
    x = Scalar(Fraction(3, 4), Fraction(-2, 5), 3)
    y = Scalar(Fraction(1, 7), Fraction(1, 2), 3)
    assert (x / y) * y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)


def test_rational_plus_surd_keeps_field():
    assert Scalar(2) + Scalar(0, 1, 5) == Scalar(2, 1, 5)


def test_discriminant_must_be_squarefree():
    with pytest.raises(ValueError):
        Scalar(0, 1, 4)
    with pytest.raises(ValueError):
        Scalar(0, 1, 12)
    with pytest.raises(ValueError):
        Scalar(0, 1, 1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Scalar(0.1)
    with pytest.raises(TypeError):
        Scalar(0, 0.5, 2)
    assert Scalar(Fraction(1, 10)) == Scalar.parse("1/10")


def test_vanishing_surd_collapses_to_rational():
    x = Scalar(1, 1, 2) + Scalar(1, -1, 2)
    assert x.d == 0
    assert x == Scalar(2)
    assert x == 2


def test_comparisons():
    assert Scalar(0, 1, 2) > Scalar(1)
    assert Scalar(0, 1, 2) < Scalar(Fraction(3, 2))
    assert Scalar(1, 1, 2) >= Scalar(1, 1, 2)


@pytest.mark.parametrize("x", [-7, 0, 1, Fraction(-3, 4), Fraction(22, 7)])
def test_rational_hash_agrees_with_equality(x):
    assert Scalar(x) == x
    assert hash(Scalar(x)) == hash(x)
    assert x in {Scalar(x)}
    assert Scalar(x) in {x}


@pytest.mark.parametrize("value", [0, 1, -1, 10**30, -10**30, True])
def test_coerced_int_matches_the_fraction_path(value):
    """An int is coerced on a fast path, a bool on the Fraction path; both
    give the triple, field, hash and text of Scalar(Fraction(value)), with
    plain ints for the triple."""
    x, ref = Scalar._coerce(value), Scalar(Fraction(value))
    assert (x._qa, x._qb, x._q, x.d) == (ref._qa, ref._qb, ref._q, ref.d)
    assert all(type(c) is int for c in (x._qa, x._qb, x._q, x.d))
    assert (x.a, x.b) == (ref.a, ref.b) == (Fraction(value), 0)
    assert hash(x) == hash(ref) == hash(value)
    assert str(x) == str(ref)
    assert x + ref == Scalar(2 * value) and x - value == 0


def test_surd_hash_keys_a_dict():
    table = {Scalar(1, 1, 2): "one plus root two"}
    assert table[Scalar(Fraction(2, 2), 1, 2)] == "one plus root two"
    assert Scalar(1, 1, 2) not in {Scalar(1), Scalar(1, 1, 3)}


def test_parse_and_str_round_trip():
    for text in ["3", "-1/2", "0", "1/2+3/4*sqrt(2)", "0+1*sqrt(5)", "-2-1/3*sqrt(7)"]:
        assert str(Scalar.parse(text)) == text


def test_parse_rejects_garbage():
    # a literal is the whole string: a final newline is refused as a blank is
    for text in ["", "1 + 2", "sqrt(2)", "1/0", "1+2*sqrt(-3)", "1.5", "1+2*sqrt(4)",
                 "3\n", "1/2\n", "1+1*sqrt(2)\n"]:
        with pytest.raises(ScalarParseError):
            Scalar.parse(text)


@pytest.mark.parametrize("text", ["1/0", "-0/0", "1+1/0*sqrt(2)", "3/0-1*sqrt(5)"])
def test_parse_rejects_a_zero_denominator(text):
    """A zero denominator in either coefficient is a parse error, which
    every input boundary maps to its exit code, not a ZeroDivisionError."""
    with pytest.raises(ScalarParseError, match="zero denominator"):
        Scalar.parse(text)


@st.composite
def scalar_texts(draw):
    """Scalar literals with signs, leading zeros, /1, zero numerators and
    denominators, and discriminants that are 0, 1, squarefree, not
    squarefree or too large; one draw in eight is grammar noise."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text(alphabet="0123456789+-/*sqrt() ", max_size=16))
    zeros = st.sampled_from(["", "0", "00"])
    numeral = st.builds(lambda z, x: z + str(x), zeros, st.integers(0, 10**4))
    denominator = st.one_of(st.just(""), st.builds(lambda x: "/" + x,
                                                   st.one_of(st.sampled_from(["0", "1", "01"]), numeral)))
    text = draw(st.sampled_from(["", "+", "-"])) + draw(numeral) + draw(denominator)
    if draw(st.booleans()):
        d = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 8, 12, 18, 10**10 - 33, 10**10 + 1, 10**18 + 3]),
                           st.integers(0, 200)))
        text += f"{draw(st.sampled_from('+-'))}{draw(numeral)}{draw(denominator)}*sqrt({draw(zeros)}{d})"
    return text


def parse_outcome(parse, text):
    try:
        x = parse(text)
    except Exception as exc:
        return type(exc)
    return x, x.d, str(x)


#: the texts at the edge of the integer shortcut, which reads a text by `int`
#: only when `str` writes the int back as the same text: signs, zeros,
#: blanks and a final newline (both refused), underscores, non-ASCII digits,
#: the digit limit of `int` and values that are not text at all
SHORTCUT_EDGES = ["3", "-3", "0", "+3", "-0", "007", "-007", "4/2", " 3", "3 ", "\t3", "3\n", "3_0",
                  "٣", "-٣", "1٣", "7" * 4300, "-" + "7" * 4300, "1" * 4301, "1" * 5000,
                  "0x10", "1e3", "", 3, -3, True, None, 3.0, [1], b"3"]


def with_shortcut_edges(test):
    for text in SHORTCUT_EDGES:
        test = example(text)(test)
    return test


@with_shortcut_edges
@given(scalar_texts())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_matches_the_fraction_reference(text):
    """`parse` reads its integer triple straight off the text, and an int
    off a text that `str(int(text))` gives back; the former Fraction-based
    parse, kept as an oracle, gives the same value or raises the same
    exception class, on drawn texts and at the shortcut's edges."""
    assert parse_outcome(Scalar.parse, text) == parse_outcome(reference_parse, text)


@pytest.mark.parametrize("text", SHORTCUT_EDGES, ids=lambda t: repr(t)[:12])
def test_parse_errors_at_the_shortcut_edges_read_as_the_reference(text):
    """A text the integer shortcut passes on to the grammar fails with the
    reference's message."""
    try:
        Scalar.parse(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as ref:
            reference_parse(text)
        assert str(ref.value) == str(exc)


#: the binary operators behind the operand gate, by their Scalar.__dict__ names
GATED = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
         "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
#: the gated operators as Python applies them, reflected ones included
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv,
          operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("name", GATED)
@pytest.mark.parametrize("other", [0.5, 1.0, complex(1, 0), "1", None, Linear(1)],
                         ids=["0.5", "1.0", "complex", "text", "None", "Linear"])
def test_the_gate_refuses_every_operand_that_is_not_an_exact_rational(name, other):
    assert Scalar.__dict__[name](Scalar(1), other) is NotImplemented


@pytest.mark.parametrize("op", BINARY)
@pytest.mark.parametrize("x", [Scalar(1), Scalar(1, 1, 2)])
def test_a_float_operand_raises_type_error_on_either_side(op, x):
    with pytest.raises(TypeError):
        op(x, 0.5)
    with pytest.raises(TypeError):
        op(0.5, x)


def test_a_float_is_never_equal():
    """== on a float falls back to identity: a float that equals the
    Scalar's value numerically still compares unequal, on either side."""
    assert (Scalar(1) == 0.5) is False
    assert (Scalar(1) == 1.0) is False and (1.0 == Scalar(1)) is False
    assert (Scalar(Fraction(1, 2)) != 0.5) is True and (0.5 != Scalar(Fraction(1, 2))) is True


def test_a_scalar_is_true_iff_it_is_not_zero():
    """Either part alone makes a Scalar true."""
    values = (Scalar(0), Scalar(Fraction(-1, 2)), Scalar(0, 1, 2), Scalar(1, -1, 2))
    assert [bool(x) for x in values] == [False, True, True, True]


def test_cauchy_solutions_and_halfspaces_are_equal_iff_both_fields_are():
    """Equal in one field only, or set against another type, they differ."""
    assert Linear(1) == CauchySolution(1, 1) and RationalPart() == CauchySolution(1, 0)
    assert RationalPart() != Linear(1) and RationalPart() != CauchySolution(2, 0)
    assert Linear(1) != 1
    h = Halfspace(Vector([1, 0]), 1)
    assert h == Halfspace(Vector([1, 0]), 1)
    assert h != Halfspace(Vector([1, 0]), 2) and h != Halfspace(Vector([1, 1]), 1)
    assert h != (Vector([1, 0]), 1)


@pytest.mark.parametrize("op", BINARY + (operator.eq,))
@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-2, 3), 2])
@pytest.mark.parametrize("other", [3, -1, Fraction(1, 3), Fraction(3, 2)])
def test_int_and_fraction_operands_work_on_either_side(op, value, other):
    """Each operator agrees with Fraction arithmetic with the int or
    Fraction operand on the right and on the left."""
    x = Scalar(value)
    for got, want in ((op(x, other), op(Fraction(value), other)),
                      (op(other, x), op(other, Fraction(value)))):
        assert got == want and type(got) is (bool if type(want) is bool else Scalar)


def test_int_operands_keep_the_surd_part():
    r = Scalar(1, 1, 2)
    assert r + 2 == 2 + r == Scalar(3, 1, 2)
    assert r - 2 == Scalar(-1, 1, 2) and 2 - r == Scalar(1, -1, 2)
    assert r * 2 == 2 * r == Scalar(2, 2, 2)
    assert r / 2 == Scalar(Fraction(1, 2), Fraction(1, 2), 2) and 1 / r == Scalar(-1, 1, 2)
    assert 2 < r < 3 and 3 > r > 2 and r <= r >= r and r != 2


IMMUTABLE = [
    (Scalar(1), "_qa"),
    (Vector([1, 2]), "coords"),
    (Matrix([[1, 0], [0, 1]]), "rows"),
    (Halfspace(Vector([1, 0]), 1), "offset"),
    (from_points([(0, 0), (1, 0), (0, 1)]), "_rows"),
    (Linear(3), "coefficient"),
    (RationalPart(), "coefficient"),
]


@pytest.mark.parametrize("value, slot", IMMUTABLE, ids=[type(v).__name__ for v, _ in IMMUTABLE])
def test_value_types_refuse_assignment(value, slot):
    """An existing slot and a new name both refuse assignment and deletion,
    with the message naming the class; the value and its hash stay, and no
    instance has a __dict__."""
    before, hashed = repr(value), hash(value)
    for name in (slot, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, Scalar(4))
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
    assert repr(value) == before and hash(value) == hashed
    assert not hasattr(value, "__dict__")


def test_str_is_canonical():
    assert str(Scalar(Fraction(2, 4))) == "1/2"
    assert str(Scalar(1, Fraction(-3, 4), 2)) == "1-3/4*sqrt(2)"


def test_rational_part_examples():
    f = RationalPart()
    assert cauchy_eval(f, Scalar(Fraction(5, 7), 2, 2)) == Scalar(Fraction(5, 7))
    assert cauchy_eval(f, Scalar.sqrt_of(2)) == Scalar(0)


def test_rational_part_is_not_field_linear():
    f = RationalPart()
    r2 = Scalar.sqrt_of(2)
    assert cauchy_eval(f, r2) == Scalar(0)
    assert r2 * cauchy_eval(f, Scalar(1)) == r2
    assert cauchy_eval(f, r2) != r2 * cauchy_eval(f, Scalar(1))


def test_linear_solution():
    f = Linear(Scalar(Fraction(2, 3)))
    assert cauchy_eval(f, Scalar(6)) == Scalar(4)


def test_cauchy_eval_rejects_negative_argument():
    with pytest.raises(ValueError):
        cauchy_eval(Linear(Scalar(1)), Scalar(-1))


fractions_st = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


@st.composite
def scalars(draw, d=2):
    a = draw(fractions_st)
    b = draw(fractions_st)
    return Scalar(a, b, d if b != 0 else 0)


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes_over_add(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, x):
        if not x.is_zero():
            assert x * x.inverse() == Scalar(1)

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_sign_against_float(self, x):
        import math

        approx = float(x.a) + float(x.b) * math.sqrt(2)
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_str_round_trip(self, x):
        assert Scalar.parse(str(x)) == x


class TestCauchyAdditivity:
    @given(scalars(), scalars())
    @settings(max_examples=40, deadline=None)
    def test_rational_part_additive(self, x, y):
        f = RationalPart()
        if x.sign() >= 0 and y.sign() >= 0:
            assert cauchy_eval(f, x + y) == cauchy_eval(f, x) + cauchy_eval(f, y)

    @given(scalars(), scalars())
    @settings(max_examples=40, deadline=None)
    def test_linear_additive(self, x, y):
        f = Linear(Scalar(3, 1, 2))
        if x.sign() >= 0 and y.sign() >= 0:
            assert cauchy_eval(f, x + y) == cauchy_eval(f, x) + cauchy_eval(f, y)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def field_scalars(draw, fields):
    """A Scalar a + b*sqrt(d), d drawn from `fields` (0 for Q)."""
    d = draw(st.sampled_from(fields))
    b = draw(small_fractions) if d else 0
    return Scalar(draw(small_fractions), b, d if b else 0)


#: psi and phi with coefficients in Q and Q(sqrt 2)
plugins = st.one_of(st.builds(Linear, field_scalars((0, 2))), st.just(RationalPart()),
                    st.builds(CauchySolution, field_scalars((0, 2)), field_scalars((0, 2))))


def outcome(read, *args):
    """The value of read(*args), or the class of the ValueError it raised."""
    try:
        return read(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("f, x, error", [
    (Linear(Scalar(1, 1, 2)), Scalar(1, 1, 3), FieldMismatchError),
    (CauchySolution(1, Scalar(0, 1, 2)), Scalar(0, 1, 3), FieldMismatchError),
    (Linear(2), Scalar(1, -1, 2), ValueError),
    (RationalPart(), Scalar(-1), ValueError),
], ids=["linear-mismatch", "surd-mismatch", "linear-negative", "rational-part-negative"])
def test_the_read_and_the_oracle_raise_alike(f, x, error):
    assert outcome(cauchy_eval, f, x) is outcome(plugin_value, f, x) is error
    V = ClassifiedValuation(Scalar(0), Scalar(0), Scalar(0), f, Linear(0))
    b = (0, 0, (x._qa, x._qb, x._q), 0, (0, 0, 1))
    assert outcome(_apply, V, b, x.d) is error


def test_a_plugin_whose_terms_cancel_their_surds_raises_alike():
    """psi = (sqrt 2, -1) at 1 + sqrt 2 is sqrt 2 - sqrt 2 = 0: its two terms
    cancel each other's surd.  Beside a c0 in Q(sqrt 3) the valuation still
    has numbers in two fields, which the read and the oracle both refuse
    before any term, whatever the sum of the terms would be."""
    psi, x = CauchySolution(Scalar(0, 1, 2), -1), Scalar(1, 1, 2)
    assert cauchy_eval(psi, x) == plugin_value(psi, x) == 0
    V = ClassifiedValuation(Scalar(0, 1, 3), Scalar(0), Scalar(0), psi, Linear(0))
    b = (1, 0, (x._qa, x._qb, x._q), 0, (0, 0, 1))
    scalars = (Scalar(1), Scalar(0), x, Scalar(0), Scalar(0))
    assert outcome(_apply, V, b, 2) is outcome(scalar_apply, V, scalars, 2) is FieldMismatchError


@given(plugins, field_scalars((0, 2, 3)))
@settings(max_examples=150, deadline=None)
def test_cauchy_eval_is_the_oracle_formula(f, x):
    """The one integer read agrees with the oracle's own Scalar formulas on
    values in Q, Q(sqrt 2) and Q(sqrt 3), negative ones and ones from another
    field than the coefficients' included."""
    assert outcome(cauchy_eval, f, x) == outcome(plugin_value, f, x)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_apply_is_the_oracle_sum(data):
    """A valuation with coefficients in Q and Q(sqrt 2) read off a basis over
    Q, Q(sqrt 2) or Q(sqrt 3): the same value, or the same error, as the
    oracle's term-by-term Scalar sum."""
    d = data.draw(st.sampled_from((0, 2, 3)))
    coefficient = field_scalars((0, 2))
    V = ClassifiedValuation(data.draw(coefficient), data.draw(coefficient), data.draw(coefficient),
                            data.draw(plugins), data.draw(plugins))
    vol, cone = (abs(data.draw(field_scalars((d,)))) for _ in range(2))
    euler, inside = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    relint = data.draw(st.integers(-1, 1))
    b = (euler, relint, (vol._qa, vol._qb, vol._q), inside, (cone._qa, cone._qb, cone._q))
    expected = outcome(scalar_apply, V, (Scalar(euler), Scalar(relint), vol, Scalar(inside), cone), d)
    assert outcome(_apply, V, b, d) == expected
