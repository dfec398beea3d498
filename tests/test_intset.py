"""Core set types, transforms, and the text grammar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumset_lab.errors import (
    ArityError,
    IntegerOverflowError,
    InvalidRangeError,
    ParseError,
    UnsupportedClassError,
)
from sumset_lab.intset import (
    INT64_MAX,
    INT64_MIN,
    HSet,
    IntSet,
    SetClass,
    classify,
    dilate,
    extrema,
    format_elements,
    format_set,
    make_interval,
    parse_elements,
    parse_hset,
    parse_intset,
    sign_reduce,
    translate,
)

small_sets = st.sets(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10)


def test_make_interval():
    assert make_interval(1, 5).elements == (1, 2, 3, 4, 5)
    assert make_interval(3, 3).elements == (3,)
    assert make_interval(-2, 1).elements == (-2, -1, 0, 1)


def test_make_interval_rejects_reversed():
    with pytest.raises(InvalidRangeError):
        make_interval(2, 1)


def test_intset_requires_strictly_increasing():
    with pytest.raises(ValueError):
        IntSet((1, 1, 2))
    with pytest.raises(ValueError):
        IntSet((2, 1))
    assert IntSet.of([4, 1, 2, 2]).elements == (1, 2, 4)


@pytest.mark.parametrize(
    "elements, error, message",
    [
        ((1, "2"), TypeError, "element '2' is not an integer"),
        ((1, 2.0), TypeError, "element 2.0 is not an integer"),
        ((2, 1), ValueError, "elements must be strictly increasing"),
        ((1, 1), ValueError, "elements must be strictly increasing"),
        ((2**63,), IntegerOverflowError, f"value {2**63} outside signed 64-bit range"),
        ((-(2**63) - 1,), IntegerOverflowError,
         f"value {-(2**63) - 1} outside signed 64-bit range"),
        # two faults: the first element's is the one reported
        ((2**64, "x"), IntegerOverflowError, f"value {2**64} outside signed 64-bit range"),
        ((2**64, 1), IntegerOverflowError, f"value {2**64} outside signed 64-bit range"),
        ((1, 3, 2, "x"), ValueError, "elements must be strictly increasing"),
    ],
)
def test_intset_validation_names_the_first_fault(elements, error, message):
    with pytest.raises(error) as caught:
        IntSet(elements)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_intset_validation_accepts_bools_and_int64_ends():
    assert IntSet((True, 2)).elements == (True, 2)
    assert IntSet((INT64_MIN, 0, INT64_MAX)).elements == (INT64_MIN, 0, INT64_MAX)
    assert IntSet(()).is_empty


def test_intset_membership():
    A = IntSet((INT64_MIN, -3, 0, 5, INT64_MAX))
    assert 5 in A and -3 in A and 0 in A
    assert 4 not in A and 6 not in A and -4 not in A
    # boundaries: the int64 ends, and one past each
    assert INT64_MIN in A and INT64_MAX in A
    assert INT64_MIN - 1 not in A and INT64_MAX + 1 not in A
    assert 1 not in IntSet(())
    # non-int values compare by equality; an unhashable one is simply absent
    assert 5.0 in A and 5.5 not in A and True in IntSet((1, 2))
    assert "5" not in A and None not in A and [5] not in A


def test_hset_rejects_negative():
    with pytest.raises(ValueError):
        HSet((-1, 2))
    assert HSet.of([3, 1]).elements == (1, 3)
    assert HSet((0, 2)).all_positive is False
    assert HSet((1, 2)).all_positive is True


def test_dilate():
    assert dilate(IntSet((1, 2, 4)), 3).elements == (3, 6, 12)
    assert dilate(IntSet((1, 2, 4)), -1).elements == (-4, -2, -1)
    assert dilate(IntSet((5,)), 0).elements == (0,)


def test_translate():
    assert translate(IntSet((1, 2)), 10).elements == (11, 12)
    assert translate(IntSet((0,)), 0).elements == (0,)
    assert translate(IntSet((-3, 5)), 3).elements == (0, 8)


def test_extrema():
    assert extrema(IntSet((1, 4, 9))) == (1, 4, 4, 9)
    assert extrema(IntSet((2, 7))) == (2, 7, 2, 7)
    with pytest.raises(ArityError):
        extrema(IntSet((5,)))


def test_classify():
    assert classify(IntSet((1, 2, 4))) is SetClass.ALL_POSITIVE
    assert classify(IntSet((0, 3, 7))) is SetClass.ZERO_REST_POSITIVE
    assert classify(IntSet((-3, 2))) is SetClass.MIXED
    assert classify(IntSet((-4, -1))) is SetClass.ALL_NEGATIVE
    assert classify(IntSet((-4, 0))) is SetClass.ZERO_REST_NEGATIVE
    # singleton zero counts as the nonnegative case
    assert classify(IntSet((0,))) is SetClass.ZERO_REST_POSITIVE
    with pytest.raises(ArityError):
        classify(IntSet(()))


def test_sign_reduce():
    pos = IntSet((1, 2, 4))
    assert sign_reduce(pos) == (pos, SetClass.ALL_POSITIVE)
    assert sign_reduce(pos)[0] is pos
    assert sign_reduce(IntSet((0, 3))) == (IntSet((0, 3)), SetClass.ZERO_REST_POSITIVE)
    assert sign_reduce(IntSet((-4, -1))) == (IntSet((1, 4)), SetClass.ALL_NEGATIVE)
    assert sign_reduce(IntSet((-4, 0))) == (IntSet((0, 4)), SetClass.ZERO_REST_NEGATIVE)
    with pytest.raises(UnsupportedClassError):
        sign_reduce(IntSet((-3, 2)))


@given(small_sets, st.integers(min_value=-20, max_value=20).filter(lambda c: c != 0))
def test_dilate_preserves_cardinality(values, c):
    A = IntSet.of(values)
    assert len(dilate(A, c)) == len(A)


@given(
    small_sets,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_dilate_composes(values, c1, c2):
    A = IntSet.of(values)
    assert dilate(dilate(A, c1), c2) == dilate(A, c1 * c2)


_REFLECTION = {
    SetClass.ALL_POSITIVE: SetClass.ALL_NEGATIVE,
    SetClass.ALL_NEGATIVE: SetClass.ALL_POSITIVE,
    SetClass.ZERO_REST_POSITIVE: SetClass.ZERO_REST_NEGATIVE,
    SetClass.ZERO_REST_NEGATIVE: SetClass.ZERO_REST_POSITIVE,
    SetClass.MIXED: SetClass.MIXED,
}


@given(small_sets)
def test_classify_reflection(values):
    A = IntSet.of(values)
    if A.elements == (0,):
        return  # {0} reflects to itself; the class pairing does not apply
    assert classify(dilate(A, -1)) is _REFLECTION[classify(A)]


def test_parse_basics():
    assert parse_elements("1,2,5") == (1, 2, 5)
    assert parse_elements("1..10") == tuple(range(1, 11))
    assert parse_elements("3*0..4") == (0, 3, 6, 9, 12)
    assert parse_elements("-2..1") == (-2, -1, 0, 1)
    assert parse_elements(" 5 , 1 .. 3 ") == (1, 2, 3, 5)
    assert parse_elements("2*3") == (6,)
    assert parse_elements("-1*1..3") == (-3, -2, -1)
    assert parse_elements("1,1,2") == (1, 2)
    assert parse_elements("") == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_elements("1,,2")
    with pytest.raises(ParseError):
        parse_elements("abc")
    with pytest.raises(ParseError):
        parse_elements("1...3")
    with pytest.raises(InvalidRangeError):
        parse_elements("5..1")
    with pytest.raises(ParseError):
        parse_hset("-2,1")


def test_format_runs():
    assert format_elements((1, 2, 3, 4, 5, 6)) == "1..6"
    assert format_elements((1, 2)) == "1,2"
    assert format_elements((1, 2, 3, 7)) == "1..3,7"
    assert format_elements(()) == ""
    assert format_set(parse_intset("2..10,12")) == "2..10,12"


@given(st.sets(st.integers(min_value=-200, max_value=200), max_size=30))
def test_parse_format_round_trip(values):
    elements = tuple(sorted(values))
    assert parse_elements(format_elements(elements)) == elements


def test_round_trip_through_intset():
    for text in ("1,2,5", "1..10", "3*0..4", "-7,-1,0,4"):
        A = parse_intset(text)
        assert parse_intset(format_set(A)) == A


def test_overflow_checked():
    with pytest.raises(IntegerOverflowError):
        dilate(IntSet((2**62,)), 4)
    with pytest.raises(IntegerOverflowError):
        translate(IntSet((INT64_MAX,)), 1)
    with pytest.raises(IntegerOverflowError):
        IntSet((INT64_MAX + 1,))
    # boundary values themselves are fine
    assert translate(IntSet((INT64_MIN,)), 1).elements == (INT64_MIN + 1,)
