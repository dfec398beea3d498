"""Finite integer sets, multiplicity sets, and their elementary transforms.

Values are immutable after construction and safe to share across threads.
All element arithmetic is checked against the signed 64-bit range; an
operation that would leave it raises instead of wrapping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import lt
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    ArityError,
    IntegerOverflowError,
    InvalidRangeError,
    ParseError,
    UnsupportedClassError,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def require_int(name: str, value: int) -> None:
    """Refuse a value whose type is not exactly int: a bool's text would not
    parse back, and a float would slip through the arithmetic."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")


def checked_int64(value: int) -> int:
    if not (INT64_MIN <= value <= INT64_MAX):
        raise IntegerOverflowError(f"value {value} outside signed 64-bit range")
    return value


@dataclass(frozen=True)
class IntSet:
    """A finite set of distinct integers, stored strictly increasing.

    The empty set is representable (parsers need a total output type) but is
    rejected by every bound- and structure-level operation.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        e = self.elements
        # whole-tuple passes at C speed; the loop below only names the fault
        if (
            set(map(type, e)) <= {int}
            and all(map(lt, e, e[1:]))
            and (not e or INT64_MIN <= e[0] <= e[-1] <= INT64_MAX)
        ):
            return
        prev = None
        for a in e:
            require_int("element", a)
            checked_int64(a)
            if prev is not None and a <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = a

    @classmethod
    def of(cls, values: Iterable[int]) -> IntSet:
        """Build from any iterable; sorts and removes duplicates."""
        return cls(tuple(sorted(set(values))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    @property
    def is_empty(self) -> bool:
        return not self.elements

    @property
    def min(self) -> int:
        if not self.elements:
            raise ArityError("empty set has no minimum")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise ArityError("empty set has no maximum")
        return self.elements[-1]

    def __str__(self) -> str:
        return format_elements(self.elements)


class HSet(IntSet):
    """An IntSet of distinct nonnegative multiplicities, increasing."""

    def __post_init__(self) -> None:
        # super(), not IntSet: a tracer may rebind this module's IntSet name
        super().__post_init__()
        if self.elements and self.elements[0] < 0:
            raise ValueError("multiplicities must be nonnegative")

    @property
    def all_positive(self) -> bool:
        return bool(self.elements) and self.elements[0] >= 1


class SetClass(Enum):
    """Sign-pattern classification of an IntSet; exactly one class applies.

    The singleton {0} counts as contains-zero-rest-positive by convention.
    """

    ALL_POSITIVE = "all-positive"
    ZERO_REST_POSITIVE = "contains-zero-rest-positive"
    ALL_NEGATIVE = "all-negative"
    ZERO_REST_NEGATIVE = "contains-zero-rest-negative"
    MIXED = "mixed"


class Extrema(NamedTuple):
    min: int
    min_plus: int
    max_minus: int
    max: int


def make_interval(a: int, b: int) -> IntSet:
    """The interval {a, a+1, ..., b}; requires a <= b."""
    if a > b:
        raise InvalidRangeError(f"invalid interval: {a} > {b}")
    checked_int64(a)
    checked_int64(b)
    return IntSet(tuple(range(a, b + 1)))


def dilate(A: IntSet, c: int) -> IntSet:
    """{c*a : a in A}. Dilation by 0 collapses a nonempty set to {0}."""
    if A.is_empty:
        return A
    if c == 0:
        return IntSet((0,))
    scaled = [checked_int64(c * a) for a in A.elements]
    if c < 0:
        scaled.reverse()
    return IntSet(tuple(scaled))


def translate(A: IntSet, t: int) -> IntSet:
    """{a + t : a in A}; cardinality is preserved."""
    if A.is_empty:
        return A
    return IntSet(tuple(checked_int64(a + t) for a in A.elements))


def extrema(S: IntSet) -> Extrema:
    """(min, second-smallest, second-largest, max); needs at least 2 elements."""
    if len(S) < 2:
        raise ArityError(f"extrema needs at least 2 elements, got {len(S)}")
    e = S.elements
    return Extrema(e[0], e[1], e[-2], e[-1])


def classify(A: IntSet) -> SetClass:
    """The unique sign class of a nonempty set."""
    if A.is_empty:
        raise ArityError("cannot classify the empty set")
    lo, hi = A.elements[0], A.elements[-1]
    if lo > 0:
        return SetClass.ALL_POSITIVE
    if hi < 0:
        return SetClass.ALL_NEGATIVE
    if lo == 0:
        return SetClass.ZERO_REST_POSITIVE
    if hi == 0:
        return SetClass.ZERO_REST_NEGATIVE
    return SetClass.MIXED


# the note that bound reports and inverse verdicts carry for a reflected set
REFLECTION_NOTE = "reduced by reflection to a nonnegative set"


def sign_reduce(A: IntSet) -> tuple[IntSet, SetClass]:
    """The nonnegative working set for A, and A's sign class.

    A nonnegative set comes back as is; negative sets are reflected (sumset
    sizes are invariant under dilation by -1). Mixed-sign sets are refused:
    no catalog formula or inverse statement covers them.
    """
    set_class = classify(A)
    if set_class is SetClass.MIXED:
        raise UnsupportedClassError(
            "mixed-sign sets have well-defined sumsets but no catalog bound"
        )
    if set_class in (SetClass.ALL_NEGATIVE, SetClass.ZERO_REST_NEGATIVE):
        return dilate(A, -1), set_class
    return A, set_class


# ---------------------------------------------------------------------------
# Text grammar
#
# expr  := term ("," term)*          union of terms
# term  := (INT "*")? atom           optional dilation factor
# atom  := INT | INT ".." INT        single integer or inclusive interval
#
# Whitespace is insignificant everywhere. The same grammar is used for both
# integer sets and multiplicity sets, and formatted output parses back to an
# equal set.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(-?\d+)\*)?(-?\d+)(?:\.\.(-?\d+))?$")
# a list of plain integers: every term an INT, so int() reads each one
_PLAIN_RE = re.compile(r"(?:-?\d+,)*-?\d+")


def parse_elements(text: str) -> tuple[int, ...]:
    """Parse a set expression to a sorted, deduplicated element tuple."""
    compact = "".join(text.split())
    if compact == "":
        return ()
    if _PLAIN_RE.fullmatch(compact):
        plain = sorted(set(map(int, compact.split(","))))
        # both ends in range hold every element; otherwise the term loop
        # below raises with the message of the first bad term
        if INT64_MIN <= plain[0] and plain[-1] <= INT64_MAX:
            return tuple(plain)
    values: set[int] = set()
    for term in compact.split(","):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad term {term!r} in set expression {text!r}")
        factor = int(m.group(1)) if m.group(1) is not None else None
        lo = int(m.group(2))
        hi = int(m.group(3)) if m.group(3) is not None else lo
        if lo > hi:
            raise InvalidRangeError(f"invalid interval in term {term!r}: {lo} > {hi}")
        checked_int64(lo)
        checked_int64(hi)
        if factor is None:
            values.update(range(lo, hi + 1))
        else:
            for v in range(lo, hi + 1):
                values.add(checked_int64(factor * v))
    return tuple(sorted(values))


def parse_intset(text: str) -> IntSet:
    return IntSet(parse_elements(text))


def parse_hset(text: str) -> HSet:
    elements = parse_elements(text)
    if elements and elements[0] < 0:
        raise ParseError(f"multiplicity set {text!r} contains a negative entry")
    return HSet(elements)


def format_elements(elements: tuple[int, ...]) -> str:
    """Canonical text for a sorted element tuple; runs of 3+ become a..b.

    One scan: each run is followed to its end an element at a time. The
    texts written here (A, H and case texts) are short; a union prints
    from its bits (SumBitmap.text).
    """
    e, n = elements, len(elements)
    parts: list[str] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and e[j + 1] == e[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"{e[i]}..{e[j]}")
            i = j + 1
        else:
            parts.append(str(e[i]))
            i += 1
    return ",".join(parts)


def format_set(s: IntSet) -> str:
    return format_elements(s.elements)
