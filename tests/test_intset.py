"""Core set types, transforms, and the text grammar."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumset_lab.engine import SumBitmap
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
        # a bool's text (False..2, True) would not parse back
        ((False, True, 2), TypeError, "element False is not an integer"),
        ((1, True), TypeError, "element True is not an integer"),
    ],
)
def test_intset_validation_names_the_first_fault(elements, error, message):
    with pytest.raises(error) as caught:
        IntSet(elements)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_intset_validation_accepts_int64_ends():
    assert IntSet((INT64_MIN, 0, INT64_MAX)).elements == (INT64_MIN, 0, INT64_MAX)
    assert IntSet(()).is_empty


def test_hset_and_of_refuse_bools():
    # a bool is an int subclass whose text (True, False..2) would not parse back
    for build, bad in (
        (lambda: HSet((True, 2)), True),
        (lambda: HSet((0, 1, False)), False),
        (lambda: IntSet.of([True, 2]), True),
        (lambda: HSet.of([3, False]), False),
    ):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == f"element {bad!r} is not an integer"


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
    # the IntSet checks still apply, each with its own exception type
    with pytest.raises(TypeError):
        HSet((1, 2.0))
    with pytest.raises(ValueError):
        HSet((2, 2))
    with pytest.raises(IntegerOverflowError):
        HSet((1, 2**63))
    assert HSet((1, 2)) != IntSet((1, 2))
    assert HSet.of([3, 1]).elements == (1, 3)
    assert HSet.of([3, 1]).max == 3
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


def test_plain_integer_lists_keep_the_grammar():
    # a plain list takes one split and int() per term; anything the term
    # grammar refuses is still refused with the same error
    assert parse_elements("5,-3,5,0,-0,12") == (-3, 0, 5, 12)
    assert parse_elements(" 7 ,\t1,\n4 ") == (1, 4, 7)
    assert parse_elements(",".join(map(str, range(500, -1, -1)))) == tuple(range(501))
    for text in ("+1", "1_0", "1,,2", "1,", ",1", "1,+2", "1,2_0", "-", "1,-"):
        with pytest.raises(ParseError, match="bad term"):
            parse_elements(text)
    # an element out of range first or last in order, or in the text: the
    # message names the first bad term, as the term loop reads them
    for text, bad in (
        (f"{2**63},1,2", 2**63),
        (f"1,2,{-(2**63) - 1}", -(2**63) - 1),
        (f"{2**64},{-(2**64)}", 2**64),
        (f"0,{-(2**64)},{2**64}", -(2**64)),
    ):
        with pytest.raises(IntegerOverflowError) as caught:
            parse_elements(text)
        assert str(caught.value) == f"value {bad} outside signed 64-bit range"
    assert parse_elements(f"{INT64_MAX},{INT64_MIN}") == (INT64_MIN, INT64_MAX)


def test_format_runs():
    assert format_elements((1, 2, 3, 4, 5, 6)) == "1..6"
    assert format_elements((1, 2)) == "1,2"
    assert format_elements((1, 2, 3, 7)) == "1..3,7"
    assert format_elements(()) == ""
    assert format_set(parse_intset("2..10,12")) == "2..10,12"


def _linear_format(elements):
    # the one-element-at-a-time scan, a copy kept apart from the package's own
    parts = []
    i = 0
    n = len(elements)
    while i < n:
        j = i
        while j + 1 < n and elements[j + 1] == elements[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"{elements[i]}..{elements[j]}")
            i = j + 1
        else:
            parts.append(str(elements[i]))
            i += 1
    return ",".join(parts)


# every run length 1..70: each 2^m - 1, 2^m, 2^m + 1 up to 65 is among them
RUN_LENGTHS = range(1, 71)


def _runs(start, lengths, gaps):
    out, x = [], start
    for length, gap in zip(lengths, gaps):
        out.extend(range(x, x + length))
        x += length + gap
    return tuple(out)


def test_format_matches_linear_formatter_on_every_run_length():
    rng = random.Random(8)
    for length in RUN_LENGTHS:
        run = tuple(range(length))
        sparse = (-40, -37, -30)
        for elements in (
            run,
            run + tuple(a + length + 1 for a in (0, 3, 4, 9)),  # run at the start
            sparse + tuple(a - 20 for a in run) + (length + 2, length + 3),  # middle
            (-500, -498) + tuple(a - 3 for a in run),  # run at the end, negative
            _runs(rng.randint(-99, 99), [length, 1, length, 2], [1, 1, 2, 1]),
        ):
            _check_format(elements)


def _bitmap_text(elements):
    # an independent writer: the text read off the bits of the same set
    base = elements[0] if elements else 0
    return SumBitmap(base, sum(1 << (a - base) for a in elements)).text


def _check_format(elements):
    text = format_elements(elements)
    assert text == _linear_format(elements) == _bitmap_text(elements), elements


def test_format_matches_linear_formatter_on_random_tuples():
    rng = random.Random(81)
    for trial in range(3000):
        shape = trial % 4
        if shape == 0:  # sparse
            elements = tuple(sorted(rng.sample(range(-5000, 5000), rng.randint(0, 40))))
        elif shape == 1:  # dense: most of a short range
            lo = rng.randint(-300, 300)
            span = rng.randint(1, 300)
            elements = tuple(sorted(rng.sample(range(lo, lo + span), rng.randint(0, span))))
        elif shape == 2:  # negative runs
            count = rng.randint(1, 8)
            elements = _runs(
                rng.randint(-10**6, -10**5),
                [rng.choice(RUN_LENGTHS) for _ in range(count)],
                [rng.randint(1, 3) for _ in range(count)],
            )
        else:  # mixed sign, runs and singletons
            count = rng.randint(1, 12)
            elements = _runs(
                rng.randint(-200, 0),
                [rng.choice((1, 1, 2, 3, 4, 7, 8, 9, 31, 32, 33)) for _ in range(count)],
                [rng.randint(1, 4) for _ in range(count)],
            )
        _check_format(elements)


def test_format_at_int64_extremes():
    for elements in (
        tuple(range(INT64_MIN, INT64_MIN + 5)),
        tuple(range(INT64_MAX - 4, INT64_MAX + 1)),
        (INT64_MIN, INT64_MIN + 1, 0, INT64_MAX - 1, INT64_MAX),
        (INT64_MIN, INT64_MIN + 1, INT64_MIN + 2, INT64_MAX - 2, INT64_MAX - 1, INT64_MAX),
        (INT64_MIN, INT64_MAX),
    ):
        text = format_elements(elements)
        assert text == _linear_format(elements)
        assert parse_elements(text) == elements
    assert format_elements((INT64_MIN, INT64_MIN + 1, INT64_MIN + 2)) == f"{INT64_MIN}..{INT64_MIN + 2}"


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
