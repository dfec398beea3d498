"""Exact sumset computation over finite integer sets.

Two independent routes compute the same objects:

* a fast path on dense bit vectors (Python ints double as arbitrary-width
  bit vectors; bit i of a vector with offset o means the integer o+i is an
  attainable sum), and
* a naive path that enumerates tuples or subsets directly, kept slow and
  obvious so it can serve as an oracle for the fast path.

The fast path has one kernel, extend_ladder, which steps the ladder of
rungs 0B, 1B, ..., topB (or their restricted counterparts, as plain bit
vectors) in place to that of B ∪ {x}. Both kinds are the same recurrence
and differ only in which rung carries up the pass: the new one (ordinary, x
may repeat) or the old one (restricted). Every ladder is that step folded
over A's elements; every fold and union runs one guard and ORs the rungs it
wants into one SumBitmap, which a caller sizes by popcount, prints from its
bits, or decodes once. Two callers step the ladder themselves, each behind
one guard: the witness blocks, read off the ladders of A's prefixes as one
fold passes them, and the sweep, which walks many sets sharing their
prefixes.

An ordinary union need not build every rung up to max H. Let D = A - min A,
span = max D, g the gcd of D and b = span/g. For h >= h0 = max(1, b-k+2), hD
has a fixed shape: a prefix of the semigroup D generates, an interval, and a
reflected prefix (Nathanson, "Sums of finite sets of integers", 1972; the
threshold is Granville and Walker's, "A tight structure theorem for
sumsets", 2021). So the ladder stops at s = h0 + 1 and checks one
certificate, S_s = S_{s-1} + {0, span}. If it holds, every higher rung is
the one below ORed with itself shifted by span: S_{s+1} = S_s + D =
S_{s-1} + D + {0, span} = S_s + {0, span}, by induction. Exactness rests on
the certificate, not on the theorem, which only chooses s; where the
certificate fails the full ladder is built. It held at h0 for every
normalized set with b <= 18 (261,566 sets), and in 446 of them it fails at
h0 - 1. The rungs past s are walked in H's order holding one rung, a gap of
m rungs by doubling in about log2(m) shift-ORs. A tiny union (few kernel
steps skipped) stays on the plain ladder, which is faster there.

Every operation is a pure function of its inputs; concurrent callers need
no coordination.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations, combinations_with_replacement, compress, islice
from math import comb, gcd
from typing import Sequence

from .errors import ArityError, OracleRefusedError
from .intset import INT64_MAX, INT64_MIN, HSet, IntSet, checked_int64, require_int

DEFAULT_ORACLE_CAP = 1_000_000

# binary digits '0'/'1' to the 0/1 bytes that select from a range
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SumsetKind(Enum):
    ORDINARY = "ordinary"      # repetition allowed
    RESTRICTED = "restricted"  # summands pairwise distinct


@dataclass(frozen=True)
class SumBitmap:
    """A guarded bit vector: a union, fold or witness block as it leaves
    the engine.

    Bit i of `bits` set means the integer `offset + i` is in the set. The
    engine's rungs are plain ints; a result is wrapped so that a caller can
    size it by popcount (`len`), print it from its bits (`text`), or decode
    it once to the validated `IntSet` at the API boundary (`to_intset`).
    """

    offset: int
    bits: int

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def text(self) -> str:
        """The canonical set text (format_elements' bytes), read off the bits.

        Only the part heads (lone sums and run starts) and the run ends are
        decoded, so the cost follows the parts, not the sums. Unchecked
        against int64.
        """
        b = self.bits
        w = b & b >> 1 & b >> 2       # bit i opens three set bits
        run = w | w << 1 | w << 2     # the sums in a run of 3 or more
        heads = _positions(b & ~run | run & ~(run << 1), self.offset)
        parts = list(map(str, heads))
        for end in _positions(run & ~(run >> 1), self.offset):
            i = bisect(heads, end) - 1  # the run's head: the last one below
            parts[i] = f"{parts[i]}..{end}"
        return ",".join(parts)

    def to_intset(self) -> IntSet:
        """The one full decode: every set bit as an integer, increasing."""
        # binary digits lowest first, as 0/1 bytes that select from the range
        digits = bin(self.bits)[:1:-1].encode().translate(_BIT_BYTES)
        offset = self.offset
        return IntSet(tuple(compress(range(offset, offset + len(digits)), digits)))


def _positions(bits: int, offset: int) -> list[int]:
    """offset + i for each set bit i of bits, increasing, by C-level passes:
    each set bit closes a piece "0...01" of the binary digits, lowest first,
    and its position is offset - 1 plus the pieces' lengths so far."""
    if not bits:
        return []
    pieces = bin(bits)[:1:-1].replace("1", "1 ").split()
    positions = list(accumulate(map(len, pieces), initial=offset - 1))
    del positions[0]
    return positions


def require_kind(kind: SumsetKind) -> None:
    """Refuse a kind that is not a SumsetKind member (a string such as
    "ordinary" included): every kind branch would take it for restricted."""
    if not isinstance(kind, SumsetKind):
        raise TypeError(f"kind must be a SumsetKind, got {kind!r}")


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


def check_rungs(A: IntSet, hs: Sequence[int], kind: SumsetKind) -> None:
    """The one guard rule: range-check the extreme sums of exactly the rungs
    hs (increasing) that a call returns. Rungs built only on the way are
    never checked.

    One pass per call. |h*x| grows with h, so the largest ordinary rung bounds
    every smaller one, and the rungs that fail are a tail of hs: on failure
    bisection finds its first. Restricted rungs above |A| are empty, so
    only the prefix of hs up to |A|, found by bisection, is checked: their
    extremes come off one ascending and one descending prefix sum of A, and
    each rung's smallest sum, then its largest, is checked in rung order.
    Either way the error names the same sum as a per-rung check.
    """
    require_kind(kind)
    if not hs:
        return
    e = A.elements
    if kind is SumsetKind.ORDINARY:

        def fails(h: int) -> bool:
            return h * e[0] < INT64_MIN or h * e[-1] > INT64_MAX

        if fails(hs[-1]):
            _check_ordinary_range(A, hs[bisect_left(hs, True, key=fails)])
        return
    k = len(e)
    n = bisect(hs, k)
    if not n:
        return
    top = hs[n - 1]
    low = list(accumulate(e[:top], initial=0))
    high = list(accumulate(reversed(e[k - top :]), initial=0))
    for h in islice(hs, n):
        checked_int64(low[h])
        checked_int64(high[h])


def extend_ladder(rungs: list[int], x: int, kind: SumsetKind) -> None:
    """Step rungs 0..top of B to those of B ∪ {x}, in place; the engine's
    only sumset kernel. Every vector is anchored at the same offset (say 0,
    so that bit s is the sum s), and x >= 0 is any element not in B, not
    only a new maximum. Unchecked: the caller guards the largest sum.

    One ascending pass, where `below` holds rung h-1. Ordinary:
    r_h(B∪x) = r_h(B) | r_{h-1}(B∪x) << x, since a sum may use x again, so
    the new rung carries. Restricted: r_h(B∪x) = r_h(B) | r_{h-1}(B) << x,
    x at most once, so the old rung carries. Restricted rungs above |B ∪ {x}|
    stay empty.
    """
    below = rungs[0]
    if kind is SumsetKind.ORDINARY:
        for h in range(1, len(rungs)):
            below = rungs[h] = rungs[h] | below << x
    else:
        for h in range(1, len(rungs)):
            rungs[h], below = rungs[h] | below << x, rungs[h]


def _ladder(A: IntSet, top: int, kind: SumsetKind) -> list[int]:
    """Rungs 0..top of A, unchecked: extend_ladder folded over A translated
    to start at 0, so rung h sits at offset h*min(A) and may carry dead low
    bits below the true minimum."""
    t = A.min
    rungs = [1] + [0] * top
    for a in A.elements:
        extend_ladder(rungs, a - t, kind)
    return rungs


def sumset_ladder(A: IntSet, h_max: int, kind: SumsetKind) -> list[int]:
    """Rungs 0..h_max of the ladder (0A..h_max·A, or restricted) as plain
    bit vectors, behind one guard; rung h sits at offset h*min(A).

    Rungs may carry dead low bits below the true minimum; entries beyond |A|
    in restricted mode are empty. Its one caller in the package is the
    sweep's per-block int64 guard, which builds the ladder of {top} only to
    run this guard.
    """
    _require_nonempty(A)
    check_rungs(A, range(h_max + 1), kind)
    return _ladder(A, h_max, kind)


# The stable path pays only when the kernel steps it skips, (max H - s)*k,
# outweigh its own cost: the threshold's gcd, the certificate, and a doubling
# walk per requested rung past s. Measured on intervals, dilated progressions
# and sets with one gap (k 2..8, dense, gapped and single H), it broke even
# at about 40 skipped steps; every union with k <= 7 and max H <= 7 skips at
# most 35, and stays on the plain ladder.
_STABLE_MIN_STEPS = 64


def _stable_threshold(A: IntSet) -> int:
    """h0 = max(1, b - k + 2), where b = (max A - min A)/g and g is the gcd of
    A's differences: from rung h0 on, hA has its stable shape (module
    docstring). It only picks the rung where _sumset checks the certificate."""
    e = A.elements
    k = len(e)
    if k == 1:
        return 1
    t, span = e[0], e[-1] - e[0]
    g = gcd(span, e[1] - t)  # most sets stop here at g = 1
    if g > 1:
        g = gcd(g, *(a - t for a in e[2:-1]))
    return max(1, span // g - k + 2)


def _sumset(A: IntSet, hs: tuple[int, ...], kind: SumsetKind) -> SumBitmap:
    # hs is increasing. One guard, one ladder up to s, the largest rung of hs
    # or, for an ordinary union that the gate lets through, the stable rung
    # h0 + 1; there the certificate rung s = rung s-1 | rung s-1 << span must
    # hold, or the ladder is built again up to max(hs). The rungs hs up to s
    # are ORed in, and past s every rung follows the same recurrence (module
    # docstring): they are walked in hs' order.
    _require_nonempty(A)
    if hs[0] < 0:
        raise ArityError("multiplicity must be nonnegative")
    if kind is SumsetKind.RESTRICTED and hs[-1] > len(A):
        hs = tuple(h for h in hs if h <= len(A))
    if not hs:
        return SumBitmap(0, 0)
    check_rungs(A, hs, kind)
    # rung h sits at offset h*t, so the lowest offset is at an end of hs
    t, s = A.min, hs[-1]
    base = min(hs[0] * t, s * t)
    # the stable rung is at least 2: too few skippable steps end the gate
    # before the threshold's gcd
    if kind is SumsetKind.ORDINARY and (s - 2) * len(A) >= _STABLE_MIN_STEPS:
        stable = _stable_threshold(A) + 1
        if (s - stable) * len(A) >= _STABLE_MIN_STEPS:
            s = stable
    rungs = _ladder(A, s, kind)
    span = A.elements[-1] - t
    if s < hs[-1] and rungs[s] != rungs[s - 1] | rungs[s - 1] << span:
        s = hs[-1]
        rungs = _ladder(A, s, kind)
    bits, rung, at = 0, rungs[s], s
    for h in hs:
        if h <= at:  # at is still s: a rung of the ladder
            bits |= rungs[h] << (h * t - base)
            continue
        # rung + span*[0, h - at], doubling the run of shifts ORed in so far
        step = 1
        while at < h:
            if step > h - at:
                step = h - at
            rung |= rung << step * span
            at += step
            step += step
        bits |= rung << (h * t - base)
    return SumBitmap(base, bits)


def h_fold(A: IntSet, h: int) -> IntSet:
    """Sums of exactly h elements of A, repetition allowed.

    h = 0 gives {0}, h = 1 gives A back. The result is rung h of the ladder.
    """
    require_int("multiplicity", h)
    return _sumset(A, (h,), SumsetKind.ORDINARY).to_intset()


def h_fold_restricted(A: IntSet, h: int) -> IntSet:
    """Sums of h pairwise distinct elements of A.

    h = 0 gives {0}, h = |A| the singleton total, h > |A| the empty set.
    The result is rung h of the restricted ladder.
    """
    require_int("multiplicity", h)
    return _sumset(A, (h,), SumsetKind.RESTRICTED).to_intset()


def union_bitmap(A: IntSet, H: HSet, kind: SumsetKind) -> SumBitmap:
    """Union of the h-fold sumsets of A over all multiplicities h in H, as
    the guarded bit vector: every element is in the signed 64-bit range.

    Restricted entries with h > |A| contribute nothing (all of them: the
    empty SumBitmap(0, 0)); h = 0 contributes {0} under either kind.
    """
    if H.is_empty:
        raise ArityError("union over an empty multiplicity set is undefined")
    return _sumset(A, H.elements, kind)


def union_sumset(A: IntSet, H: HSet, kind: SumsetKind) -> IntSet:
    """union_bitmap decoded to an IntSet."""
    return union_bitmap(A, H, kind).to_intset()


def naive_h_fold(
    A: IntSet, h: int, kind: SumsetKind, cap: int = DEFAULT_ORACLE_CAP
) -> IntSet:
    """Direct tuple/subset enumeration; the independent oracle.

    Refuses inputs whose enumeration count exceeds `cap` rather than
    grinding; the fast path has no such limit.
    """
    require_kind(kind)
    _require_nonempty(A)
    require_int("multiplicity", h)
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
