"""Exact sumset computation over finite integer sets.

Two independent routes compute the same objects:

* a fast path on dense bit vectors (Python ints double as arbitrary-width
  bit vectors; bit i of a vector with offset o means the integer o+i is an
  attainable sum), and
* a naive path that enumerates tuples or subsets directly, kept slow and
  obvious so it can serve as an oracle for the fast path.

The fast path has one kernel, the ladder of rungs 0A, 1A, ..., topA (or
their restricted counterparts). Every fold and union picks or ORs rungs of
one ladder and decodes the result once.

Every operation is a pure function of its inputs; concurrent callers need
no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement, compress
from math import comb
from typing import Iterable, Iterator, Mapping

from .errors import ArityError, OracleRefusedError
from .intset import HSet, IntSet, checked_int64

DEFAULT_ORACLE_CAP = 1_000_000


class SumsetKind(Enum):
    ORDINARY = "ordinary"      # repetition allowed
    RESTRICTED = "restricted"  # summands pairwise distinct


@dataclass(frozen=True)
class SumBitmap:
    """Dense bit-vector form of a sum set.

    Bit i of `bits` set means the integer `offset + i` is attainable.
    Vectors are sized from the exact attainable range, never a global
    universe, so popcount always equals the cardinality.
    """

    offset: int
    bits: int

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def to_intset(self) -> IntSet:
        # binary digits lowest first, as 0/1 bytes that select from the range
        table = bytes.maketrans(b"01", b"\x00\x01")
        digits = bin(self.bits)[:1:-1].encode().translate(table)
        n, offset = len(digits), self.offset
        return IntSet(tuple(compress(range(offset, offset + n), digits)))

    @classmethod
    def from_intset(cls, s: IntSet) -> SumBitmap:
        if s.is_empty:
            return cls(0, 0)
        base = s.min
        bits = 0
        for a in s.elements:
            bits |= 1 << (a - base)
        return cls(base, bits)


def _require_nonempty(A: IntSet) -> None:
    if A.is_empty:
        raise ArityError("sumsets of the empty set are undefined")


def _check_ordinary_range(A: IntSet, h: int) -> None:
    checked_int64(h * A.min)
    checked_int64(h * A.max)


def _check_restricted_range(A: IntSet, h: int) -> None:
    if h > len(A):
        return
    checked_int64(sum(A.elements[:h]))
    checked_int64(sum(A.elements[len(A) - h :]))


def _check_rungs(A: IntSet, hs: Iterable[int], kind: SumsetKind) -> None:
    """The one guard rule: range-check the extreme sums of exactly the rungs
    hs that a call returns. Rungs built only on the way are never checked."""
    ordinary = kind is SumsetKind.ORDINARY
    check = _check_ordinary_range if ordinary else _check_restricted_range
    for h in hs:
        check(A, h)


def _ladder(A: IntSet, top: int, kind: SumsetKind) -> Iterator[SumBitmap]:
    """Rungs 0..top in order, unchecked; the engine's only sumset kernel.

    Works on A translated to start at 0, so rung h has offset h*min(A).
    Ordinary rungs grow by folding one element layer per step, holding only
    the current rung. Restricted rungs fall out of one cardinality-indexed
    subset-sum DP: scanning elements in increasing order and updating rungs
    in descending order prevents reuse. Restricted rungs may carry dead low
    bits below the true minimum, and those above |A| are empty.
    """
    t = A.min
    shifted = [a - t for a in A.elements]
    if kind is SumsetKind.ORDINARY:
        cur = 1
        yield SumBitmap(0, cur)
        for h in range(1, top + 1):
            nxt = 0
            for e in shifted:
                nxt |= cur << e
            cur = nxt
            yield SumBitmap(h * t, cur)
    else:
        B = [1] + [0] * top
        for idx, e in enumerate(shifted):
            for j in range(min(top, idx + 1), 0, -1):
                if B[j - 1]:
                    B[j] |= B[j - 1] << e
        for j, bits in enumerate(B):
            yield SumBitmap(j * t, bits)


def or_rungs(ladder: Mapping[int, SumBitmap], hs: Iterable[int]) -> SumBitmap:
    """The OR of the rungs hs of a ladder, anchored at the lowest nonempty offset."""
    base = bits = 0
    for h in hs:
        part = ladder[h]
        if not part.bits:
            continue
        if not bits:
            base, bits = part.offset, part.bits
        elif part.offset < base:
            bits = (bits << (base - part.offset)) | part.bits
            base = part.offset
        else:
            bits |= part.bits << (part.offset - base)
    return SumBitmap(base, bits)


def sumset_ladder(A: IntSet, h_max: int, kind: SumsetKind) -> list[SumBitmap]:
    """All of 0A..h_max·A (or restricted) as bit vectors.

    Callers that union many H over one A, such as the exhaustive verifier,
    build this once and OR its rungs themselves. Rungs may carry dead
    low bits below the true minimum; entries beyond |A| in restricted mode
    are empty.
    """
    _require_nonempty(A)
    _check_rungs(A, range(h_max + 1), kind)
    return list(_ladder(A, h_max, kind))


def _sumset(A: IntSet, hs: tuple[int, ...], kind: SumsetKind) -> IntSet:
    # hs is increasing. Guard, one ladder up to the largest contributing
    # rung, OR the rungs hs, decode once.
    _require_nonempty(A)
    if hs[0] < 0:
        raise ArityError("multiplicity must be nonnegative")
    if kind is SumsetKind.RESTRICTED:
        hs = tuple(h for h in hs if h <= len(A))
    if not hs:
        return IntSet(())
    _check_rungs(A, hs, kind)
    wanted = set(hs)
    ladder = {h: rung for h, rung in enumerate(_ladder(A, hs[-1], kind)) if h in wanted}
    return or_rungs(ladder, hs).to_intset()


def h_fold(A: IntSet, h: int) -> IntSet:
    """Sums of exactly h elements of A, repetition allowed.

    h = 0 gives {0}, h = 1 gives A back. The result is rung h of the ladder.
    """
    return _sumset(A, (h,), SumsetKind.ORDINARY)


def h_fold_restricted(A: IntSet, h: int) -> IntSet:
    """Sums of h pairwise distinct elements of A.

    h = 0 gives {0}, h = |A| the singleton total, h > |A| the empty set.
    The result is rung h of the restricted ladder.
    """
    return _sumset(A, (h,), SumsetKind.RESTRICTED)


def union_sumset(A: IntSet, H: HSet, kind: SumsetKind) -> IntSet:
    """Union of the h-fold sumsets of A over all multiplicities h in H.

    Restricted entries with h > |A| contribute nothing; h = 0 contributes
    {0} under either kind.
    """
    if H.is_empty:
        raise ArityError("union over an empty multiplicity set is undefined")
    return _sumset(A, H.elements, kind)


def naive_h_fold(
    A: IntSet, h: int, kind: SumsetKind, cap: int = DEFAULT_ORACLE_CAP
) -> IntSet:
    """Direct tuple/subset enumeration; the independent oracle.

    Refuses inputs whose enumeration count exceeds `cap` rather than
    grinding; the fast path has no such limit.
    """
    _require_nonempty(A)
    if h < 0:
        raise ArityError("multiplicity must be nonnegative")
    k = len(A)
    if kind is SumsetKind.ORDINARY:
        count = comb(k + h - 1, h) if h > 0 else 1
        _check_ordinary_range(A, h)
    else:
        count = comb(k, h)
        _check_restricted_range(A, h)
    if count > cap:
        raise OracleRefusedError(
            f"naive enumeration of {count} tuples exceeds cap {cap}"
        )
    picker = combinations_with_replacement if kind is SumsetKind.ORDINARY else combinations
    sums = {sum(tup) for tup in picker(A.elements, h)}
    return IntSet(tuple(sorted(sums)))
