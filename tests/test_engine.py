"""Sumset engine: fast path vs the enumeration oracle, and its invariants."""

import random
import time
import tracemalloc
from collections.abc import Sequence
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab import engine
from sumset_lab.engine import (
    SumBitmap,
    SumsetKind,
    _check_ordinary_range,
    _check_restricted_range,
    check_rungs,
    extend_ladder,
    h_fold,
    h_fold_restricted,
    naive_h_fold,
    sumset_ladder,
    union_bitmap,
    union_sumset,
)
from sumset_lab.errors import ArityError, IntegerOverflowError, OracleRefusedError
from sumset_lab.intset import (
    INT64_MAX,
    INT64_MIN,
    HSet,
    IntSet,
    dilate,
    format_elements,
    make_interval,
)

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED

# elements fit int64 but every sum of two or more of them does not
HUGE3 = IntSet((2**62, 2**62 + 1, 2**62 + 2))


def tuple_sums(elements, h):
    """Independent oracle: all h-tuples with repetition."""
    return sorted({sum(t) for t in combinations_with_replacement(elements, h)})


def subset_sums(elements, h):
    """Independent oracle: all h-subsets."""
    return sorted({sum(t) for t in combinations(elements, h)})


def test_h_fold_examples():
    assert h_fold(IntSet((1, 2, 4)), 2).elements == (2, 3, 4, 5, 6, 8)
    assert h_fold(IntSet((1, 2, 3)), 2).elements == (2, 3, 4, 5, 6)
    assert h_fold(IntSet((1, 2, 4)), 0).elements == (0,)
    assert h_fold(IntSet((1, 2, 4)), 1) == IntSet((1, 2, 4))


def test_h_fold_interval_sizes():
    # folds of [1,k] fill [h, hk] exactly
    for k in range(1, 9):
        for h in range(1, 9):
            result = h_fold(make_interval(1, k), h)
            assert result == make_interval(h, h * k)
            assert len(result) == h * (k - 1) + 1


def test_h_fold_restricted_examples():
    assert h_fold_restricted(IntSet((1, 2, 3, 4)), 2).elements == (3, 4, 5, 6, 7)
    assert h_fold_restricted(IntSet((1, 2, 4)), 2).elements == (3, 5, 6)
    assert h_fold_restricted(IntSet((1, 2, 4)), 3).elements == (7,)
    assert h_fold_restricted(IntSet((1, 2, 4)), 0).elements == (0,)
    assert h_fold_restricted(IntSet((1, 2, 4)), 4).is_empty
    assert h_fold_restricted(IntSet((2, 3)), 2).elements == (5,)


def test_h_fold_restricted_interval_sizes():
    for k in range(1, 9):
        for h in range(1, k + 1):
            assert len(h_fold_restricted(make_interval(1, k), h)) == h * (k - h) + 1


def test_union_sumset_examples():
    assert union_sumset(make_interval(1, 3), HSet((1, 2)), ORD) == make_interval(1, 6)
    A = IntSet((1, 2, 4))
    assert union_sumset(A, HSet((1,)), ORD) == A
    assert union_sumset(A, HSet((1,)), RES) == A
    u = union_sumset(A, HSet((2, 3)), ORD)
    assert u.elements == (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
    assert len(u) == 10


def test_union_sumset_zero_multiplicity():
    # 0 in H contributes exactly {0}
    A = IntSet((2, 5))
    u = union_sumset(A, HSet((0, 1)), ORD)
    assert u.elements == (0, 2, 5)
    assert union_sumset(A, HSet((0,)), RES).elements == (0,)
    # only the 0-fold contributes, so sums of the huge elements are never formed
    assert union_sumset(HUGE3, HSet((0,)), RES).elements == (0,)


def test_union_sumset_restricted_overlarge_entries():
    # entries above |A| contribute nothing; all-overlarge gives the empty set
    A = IntSet((1, 2, 4))
    assert union_sumset(A, HSet((2, 5)), RES) == h_fold_restricted(A, 2)
    assert union_sumset(A, HSet((5, 6)), RES).is_empty
    empty = union_bitmap(A, HSet((5, 6)), RES)
    assert empty == SumBitmap(0, 0) and len(empty) == 0 and empty.to_intset().is_empty
    # rungs 2 and 3 would overflow but are never returned, so never checked
    assert union_sumset(HUGE3, HSet((1, 5)), RES) == HUGE3


def test_empty_inputs_refused():
    with pytest.raises(ArityError):
        h_fold(IntSet(()), 2)
    with pytest.raises(ArityError):
        union_sumset(IntSet((1,)), HSet(()), ORD)
    with pytest.raises(ArityError):
        union_bitmap(IntSet((1,)), HSet(()), ORD)


def test_naive_matches_independent_enumeration():
    A = IntSet((1, 2, 4))
    assert naive_h_fold(A, 2, ORD).elements == tuple(tuple_sums(A.elements, 2))
    assert naive_h_fold(A, 2, RES).elements == tuple(subset_sums(A.elements, 2))
    assert naive_h_fold(A, 1, RES) == A
    assert naive_h_fold(IntSet((2, 3)), 2, RES).elements == (5,)


def test_naive_cap_refusal():
    big = make_interval(1, 40)
    with pytest.raises(OracleRefusedError):
        naive_h_fold(big, 20, ORD, cap=1000)
    # raising the cap lets the same call through
    assert len(naive_h_fold(big, 2, ORD, cap=10**6)) == 2 * 39 + 1


def test_oracle_equivalence_sweep():
    # every A within [1,12] of size at most 6, every h at most 6, both kinds
    universe = range(1, 13)
    for k in range(1, 7):
        for combo in combinations(universe, k):
            A = IntSet(combo)
            for h in range(0, 7):
                assert h_fold(A, h).elements == tuple(tuple_sums(combo, h))
                assert h_fold_restricted(A, h).elements == tuple(subset_sums(combo, h))


def test_oracle_equivalence_negative_and_mixed():
    for combo in [(-5, -2, -1), (-3, 0, 2), (-4, -2, 0), (-7, 3, 11)]:
        A = IntSet(combo)
        for h in range(0, 5):
            assert h_fold(A, h).elements == tuple(tuple_sums(combo, h))
            assert h_fold_restricted(A, h).elements == tuple(subset_sums(combo, h))


@settings(max_examples=60)
@given(
    st.sets(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
    st.sets(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=-6, max_value=6).filter(lambda c: c != 0),
    st.sampled_from([ORD, RES]),
)
def test_dilation_equivariance(values, hs, c, kind):
    A = IntSet.of(values)
    H = HSet.of(hs)
    left = union_sumset(dilate(A, c), H, kind)
    right = dilate(union_sumset(A, H, kind), c)
    assert left == right


def test_range_containment():
    for combo in combinations(range(1, 9), 4):
        A = IntSet(combo)
        for h in range(1, 5):
            ordinary = h_fold(A, h)
            assert ordinary.min == h * A.min and ordinary.max == h * A.max
            restricted = h_fold_restricted(A, h)
            assert restricted.min == sum(combo[:h])
            assert restricted.max == sum(combo[-h:])


def test_monotone_nesting_with_zero():
    # 0 in A makes every smaller fold a subset of the largest one
    for combo in [(0, 1, 2), (0, 2, 5), (0, 1, 4, 9), (0, 3, 7, 8)]:
        A = IntSet(combo)
        H = HSet((1, 2, 3))
        top = h_fold(A, 3)
        for h in (1, 2):
            assert set(h_fold(A, h).elements) <= set(top.elements)
        assert union_sumset(A, H, ORD) == top


def test_restricted_subset_of_ordinary():
    for combo in combinations(range(1, 10), 5):
        A = IntSet(combo)
        for h in range(1, 6):
            assert set(h_fold_restricted(A, h).elements) <= set(h_fold(A, h).elements)


def test_sizes_meet_single_fold_bounds():
    for combo in combinations(range(1, 11), 4):
        A = IntSet(combo)
        for h in range(1, 5):
            assert len(h_fold(A, h)) >= h * (len(A) - 1) + 1
            assert len(h_fold_restricted(A, h)) >= h * (len(A) - h) + 1


def test_ladder_agrees_with_single_shots():
    combos = [(1, 2, 4), (2, 3, 5, 8), (0, 1, 5), (3, 6, 9, 12, 14)]
    # negative and mixed sign: rung h still sits at offset h*min(A) < 0
    combos += [(-9, -4, -1), (-5, 3, 9), (-7, 0, 2, 6), (-3, -2, 0)]
    for combo in combos:
        A = IntSet(combo)
        for kind in (ORD, RES):
            ladder = sumset_ladder(A, 6, kind)
            assert len(ladder) == 7 and all(type(rung) is int for rung in ladder)
            fold = h_fold if kind is ORD else h_fold_restricted
            for h in range(0, 7):
                assert SumBitmap(h * A.min, ladder[h]).to_intset() == fold(A, h)


@settings(max_examples=80)
@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=7, unique=True),
    st.sampled_from([ORD, RES]),
)
def test_extend_ladder_fold_matches_oracle_in_any_order(order, kind):
    # the kernel's recurrence holds for any new element, not only a new
    # maximum: insert A's elements in the drawn order, as absolute vectors
    # from the empty set's ladder
    top = 8
    rungs = [1] + [0] * top
    for x in order:
        assert extend_ladder(rungs, x, kind) is None
    A = IntSet.of(order)
    for h, rung in enumerate(rungs):
        assert SumBitmap(0, rung).to_intset() == naive_h_fold(A, h, kind)
        if kind is RES and h > len(A):
            assert rung == 0


def test_every_ladder_is_one_kernel_call_per_element(monkeypatch):
    calls = []
    kernel = engine.extend_ladder

    def counted(rungs, x, kind):
        calls.append(kind)
        return kernel(rungs, x, kind)

    monkeypatch.setattr(engine, "extend_ladder", counted)
    for A in (IntSet((3,)), IntSet((-4, 0, 5, 9)), IntSet((1, 2, 4, 8, 13, 21))):
        k = len(A)
        H = HSet(tuple(range(1, min(k, 3) + 1)))
        for kind, run in [
            (ORD, lambda: sumset_ladder(A, 5, ORD)),
            (RES, lambda: sumset_ladder(A, 5, RES)),
            (ORD, lambda: union_bitmap(A, H, ORD)),
            (RES, lambda: union_bitmap(A, H, RES)),
            (ORD, lambda: h_fold(A, 3)),
            (RES, lambda: h_fold_restricted(A, k)),
        ]:
            calls.clear()
            run()
            assert calls == [kind] * k


def test_bitmap_anchoring_and_popcount():
    result = h_fold_restricted(IntSet((1, 5, 9, 11)), 2)
    assert result == IntSet((6, 10, 12, 14, 16, 20))
    # anchored at the minimum: bits 0, 4, 6, 8, 10 and 14
    bm = SumBitmap(6, 0b100_0101_0101_0001)
    assert bm.bits.bit_count() == len(result)
    assert bm.to_intset() == result
    # sparse and wide, with a negative offset
    sparse = IntSet((-(2**20), -7, 0, 3, 2**20 + 5))
    wide = SumBitmap(
        -(2**20), 1 | 1 << 2**20 - 7 | 1 << 2**20 | 1 << 2**20 + 3 | 1 << 2**21 + 5
    )
    assert wide.to_intset() == sparse
    assert SumBitmap(0, 0).to_intset().is_empty


def test_bitmap_decode():
    for offset in (-7, 0, 5):
        assert SumBitmap(offset, 0).to_intset() == IntSet(())
    # dense, with a negative offset
    dense = make_interval(-40, 25)
    assert SumBitmap(-40, (1 << 66) - 1).to_intset() == dense
    # sparse over 5,000 bits, with a negative offset
    sparse = IntSet((-3000, -2999, -1234, 0, 17, 1999))
    bm = SumBitmap(-3000, 1 | 1 << 1 | 1 << 1766 | 1 << 3000 | 1 << 3017 | 1 << 4999)
    assert bm.bits.bit_length() == 5000
    assert bm.to_intset() == sparse
    # the decoded range is checked against int64 at both ends
    assert SumBitmap(-(2**63), 1).to_intset() == IntSet((-(2**63),))
    with pytest.raises(IntegerOverflowError):
        SumBitmap(2**63 - 1, 0b11).to_intset()


def _planted_runs(rng, width):
    """A vector at most width bits wide: runs of 1 to 20 set bits, each
    followed by a gap of 1 to 5 clear bits."""
    bits, i = 0, rng.randint(0, 5)
    while i < width:
        run = min(rng.randint(1, 20), width - i)
        bits |= ((1 << run) - 1) << i
        i += run + rng.randint(1, 5)
    return bits


def test_bitmap_text_matches_the_tuple_writer():
    # the text read off the bits is format_elements' text of the decoded set,
    # byte for byte: runs of 1, 2, 3 and more, at negative, zero and
    # near-int64-edge offsets
    rng = random.Random(22)
    assert SumBitmap(0, 0).text == ""
    for _ in range(2000):
        bits = _planted_runs(rng, rng.randint(0, 200))
        for offset in (
            -rng.randint(1, 500),
            0,
            INT64_MIN + rng.randint(0, 2**12),
            INT64_MAX - bits.bit_length() - rng.randint(0, 2**12) + 1,
        ):
            bitmap = SumBitmap(offset, bits)
            assert bitmap.text == format_elements(bitmap.to_intset().elements)


def _random_pair(rng):
    """A k-set in [-30, 60] of one of four sign patterns (positive, with 0,
    negative, mixed), and an H that may hold 0 and multiplicities above k."""
    k = rng.randint(1, 8)
    pattern = rng.randrange(4) if k > 1 else rng.randrange(3)
    if pattern == 0:
        values = rng.sample(range(1, 61), k)
    elif pattern == 1:
        values = [0, *rng.sample(range(1, 61), k - 1)]
    elif pattern == 2:
        values = rng.sample(range(-30, 0), k)
    else:
        values = [rng.randint(-30, -1), rng.randint(1, 60)]
        values += rng.sample([v for v in range(-30, 61) if v not in values], k - 2)
    H = HSet.of(rng.sample(range(0, k + 3), rng.randint(1, 3)))
    return IntSet.of(values), H


def test_union_bitmap_sizes_and_decodes_like_union_sumset():
    rng = random.Random(19)
    for _ in range(300):
        A, H = _random_pair(rng)
        for kind in SumsetKind:
            bitmap = union_bitmap(A, H, kind)
            union = union_sumset(A, H, kind)
            naive = set()
            for h in H:
                naive.update(naive_h_fold(A, h, kind))
            # the validating constructor accepts every decoded vector
            assert bitmap.to_intset() == union == IntSet.of(naive)
            assert len(bitmap) == len(union) == len(naive)


def test_threaded_callers_agree():
    # pure functions: many threads computing the same folds must agree
    from concurrent.futures import ThreadPoolExecutor

    A = IntSet((1, 3, 7, 12, 20))
    jobs = [(A, h, kind) for h in range(0, 6) for kind in (ORD, RES)] * 8

    def work(job):
        a, h, kind = job
        fold = h_fold if kind is ORD else h_fold_restricted
        return (h, kind.value, fold(a, h).elements)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, jobs))
    for h, kind_name, elements in results:
        fold = h_fold if kind_name == "ordinary" else h_fold_restricted
        assert elements == fold(A, h).elements


def test_overflow_guard():
    huge = IntSet((2**62,))
    with pytest.raises(IntegerOverflowError):
        h_fold(huge, 4)
    with pytest.raises(IntegerOverflowError):
        h_fold_restricted(IntSet((2**62, 2**62 + 1)), 2)
    with pytest.raises(IntegerOverflowError):
        h_fold_restricted(HUGE3, 2)
    with pytest.raises(IntegerOverflowError):
        naive_h_fold(huge, 4, ORD)
    # the 0-fold has no summands, so the oracle and the fast path agree on {0}
    pair = IntSet((2**62, 2**62 + 1))
    assert naive_h_fold(pair, 0, RES) == h_fold_restricted(pair, 0) == IntSet((0,))


def test_ladder_overflow_at_intermediate_multiplicity():
    # the two most-negative elements overflow even though the full sum fits
    tricky = IntSet((-(2**62) - 1, -(2**62), 2**62))
    assert sum(tricky.elements) >= -(2**63)
    with pytest.raises(IntegerOverflowError):
        sumset_ladder(tricky, 3, RES)
    # comfortable magnitudes pass
    rung = sumset_ladder(IntSet((-5, 3, 9)), 3, RES)[2]
    assert SumBitmap(2 * -5, rung).to_intset() == h_fold_restricted(IntSet((-5, 3, 9)), 2)


def _guard_outcome(check):
    try:
        check()
    except IntegerOverflowError as exc:
        return str(exc)
    return None


def _near_int64_sets(seed, count):
    """Seeded sets whose sums sit near the int64 ends: positive, negative, mixed."""
    rng = random.Random(seed)
    for i in range(count):
        sign = ("positive", "negative", "mixed")[i % 3]
        c = INT64_MAX // rng.randint(1, 8) - rng.randint(0, 40)
        k = rng.randint(1, 6)
        values = set()
        while len(values) < k:
            d = rng.randint(0, 40)
            big = c - d if sign == "positive" else -c + d
            if sign == "mixed":
                big = rng.choice((c - d, -c + d, d - 20))
            values.add(big)
        yield IntSet(tuple(sorted(values)))


def test_guard_matches_per_rung_rule():
    # one pass per call raises exactly when some requested rung's own check
    # does, with that rung's message; multiplicity sets include 0 and h > |A|
    rng = random.Random(20)
    checked = raised = 0
    for A in _near_int64_sets(11, 600):
        for _ in range(4):
            hs = tuple(sorted(rng.sample(range(0, 10), rng.randint(1, 5))))
            for kind, rung_check in ((ORD, _check_ordinary_range), (RES, _check_restricted_range)):

                def per_rung():
                    for h in hs:
                        rung_check(A, h)

                expected = _guard_outcome(per_rung)
                assert _guard_outcome(lambda: check_rungs(A, hs, kind)) == expected
                checked += 1
                raised += expected is not None
    assert checked == 4800 and 0 < raised < checked


def test_guard_bisects_to_the_first_failing_ordinary_rung(monkeypatch):
    # |h*x| grows with h, so the failing ordinary rungs are a tail of hs and
    # one per-rung check, at its first, names the sum. Checking rung after
    # rung from 0 would take 2^61 calls here, so the count stops a walk early
    real, calls = _check_ordinary_range, []

    def counted(A, h):
        calls.append(h)
        assert len(calls) < 100, "the guard checks the rungs one by one"
        real(A, h)

    monkeypatch.setattr(engine, "_check_ordinary_range", counted)
    from sumset_lab.structure import witness_blocks

    cases = (
        (lambda: witness_blocks(IntSet((4, 5)), HSet((1, 2**62)), ORD), INT64_MAX // 5 + 1, 5),
        (lambda: sumset_ladder(IntSet((4,)), 2**62, ORD), 2**61, 4),
    )
    for call, first, largest in cases:
        calls.clear()
        with pytest.raises(IntegerOverflowError) as caught:
            call()
        assert calls == [first]
        assert str(caught.value) == f"value {first * largest} outside signed 64-bit range"
    assert 4 * 2**61 == 2**63 and 5 * (INT64_MAX // 5 + 1) == 9223372036854775810


def test_restricted_guard_reads_only_the_rungs_up_to_the_set_size():
    # restricted rungs above |A| are empty, so the guard checks the prefix of
    # hs up to |A| and never reads on: walking this range would never end
    class Counted(Sequence):
        def __init__(self, hs):
            self.hs, self.reads = hs, 0

        def __len__(self):
            return len(self.hs)

        def __getitem__(self, i):
            self.reads += 1
            assert self.reads < 1000, "the guard reads rungs above |A|"
            return self.hs[i]

    hs = Counted(range(2**62 + 1))
    assert check_rungs(IntSet((4,)), hs, RES) is None
    assert hs.reads < 100
    near = IntSet((INT64_MAX // 2 + 1, INT64_MAX // 2 + 2))
    hs = Counted(range(2**62 + 1))
    with pytest.raises(IntegerOverflowError) as caught:
        check_rungs(near, hs, RES)
    assert str(caught.value) == f"value {sum(near.elements)} outside signed 64-bit range"
    assert hs.reads < 100


def test_guard_mixed_sign_restricted_middle_rung():
    # rung 2's smallest sum (the two most-negative elements) leaves int64;
    # rungs 0, 1 and 3 stay inside
    tricky = IntSet((-(2**62) - 1, -(2**62), 2**62))
    assert check_rungs(tricky, (0, 1, 3, 4), RES) is None
    with pytest.raises(IntegerOverflowError) as caught:
        check_rungs(tricky, (1, 2, 3), RES)
    assert str(caught.value) == f"value {-(2**63) - 1} outside signed 64-bit range"
    # ordinary rung 3 leaves int64, rung 1 does not
    with pytest.raises(IntegerOverflowError):
        check_rungs(tricky, (0, 1, 3), ORD)
    assert check_rungs(tricky, (0, 1), ORD) is None


def test_kind_that_is_not_a_member_raises_type_error():
    # a string used to run down every restricted branch: "ordinary" gave 2^A
    from sumset_lab import bounds, structure
    from sumset_lab.verifier import SearchSpace, verify

    A, H = IntSet((1, 2, 4)), HSet((2,))
    calls = [
        lambda: check_rungs(A, (), "ordinary"),
        lambda: sumset_ladder(A, 2, "ordinary"),
        lambda: union_sumset(A, H, "ordinary"),
        lambda: naive_h_fold(A, 2, "ordinary"),
        lambda: structure.witness_blocks(A, H, "ordinary"),
        lambda: structure.check_inverse(A, H, "ordinary"),
        lambda: bounds.catalog_bound("ordinary", 3, H, False),
        lambda: bounds.evaluate(A, H, kinds=("ordinary",)),
        lambda: bounds.extremal_example(3, 2, "ordinary", False),
        lambda: SearchSpace(5, (2, 3), 2, (1, 2), kinds=("ordinary",)),
        lambda: verify(SearchSpace(5, (2, 3), 2, (1, 2), kinds=("ordinary",))),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="kind must be a SumsetKind, got 'ordinary'"):
            call()
    with pytest.raises(TypeError, match="zero_mode must be a ZeroMode, got 'both'"):
        SearchSpace(5, (2, 3), 2, (1, 2), zero_mode="both")
    # members still pass
    assert union_sumset(A, H, ORD) == naive_h_fold(A, 2, ORD) == IntSet((2, 3, 4, 5, 6, 8))


def test_fold_multiplicity_must_be_an_exact_int():
    # unchecked, h_fold(A, True) returns A and h_fold(A, 2.0) fails inside a
    # list multiplication; IntSet refuses the same values as elements
    A = IntSet((1, 2, 4))
    for bad in (True, False, 2.0, 1.5):
        calls = [
            lambda: h_fold(A, bad),
            lambda: h_fold_restricted(A, bad),
            lambda: naive_h_fold(A, bad, ORD),
            lambda: naive_h_fold(A, bad, RES),
        ]
        for call in calls:
            with pytest.raises(TypeError) as exc:
                call()
            assert str(exc.value) == f"multiplicity {bad!r} is not an integer"
    assert h_fold(A, 1) == naive_h_fold(A, 1, ORD) == A
    assert h_fold_restricted(A, 2) == naive_h_fold(A, 2, RES) == IntSet((3, 5, 6))


# ---------------------------------------------------------------------------
# Ordinary unions past the stable threshold
# ---------------------------------------------------------------------------


def _ladder_union(A, hs):
    """The plain ladder's union: rungs 0..max H, rung h ORed at offset h*min A."""
    t = A.min
    base = min(hs[0] * t, hs[-1] * t)
    rungs = engine._ladder(A, hs[-1], ORD)
    bits = 0
    for h in hs:
        bits |= rungs[h] << (h * t - base)
    return SumBitmap(base, bits)


def _min_zero_sets(bmax):
    """Every set of integers with minimum 0 and maximum at most bmax."""
    yield (0,)
    for b in range(1, bmax + 1):
        for mask in range(1 << (b - 1)):
            yield (0, *(i for i in range(1, b) if mask >> (i - 1) & 1), b)


def _threshold(elements):
    """h0 = max(1, b - k + 2) of a set with minimum 0, b = max / gcd."""
    g = gcd(*elements)
    return max(1, (elements[-1] // g if g else 0) - len(elements) + 2)


def _h_shapes(elements):
    """H = [1, 3b+2], {3b+2} alone, and a sparse H with gaps of 1, 2, 3 and
    more above the threshold, for the span b of a set with minimum 0."""
    b, s = elements[-1], _threshold(elements) + 1
    return (
        tuple(range(1, 3 * b + 3)),
        (3 * b + 2,),
        tuple(sorted({1, s, s + 1, s + 3, s + 6, 3 * b + 2, 4 * b + 13})),
    )


def test_stable_unions_match_the_ladder(monkeypatch):
    # every set with minimum 0 and span at most 12, and in turn a translated,
    # a dilated (g = 2 or 3) or a reflected copy of it. A zero floor sends
    # every union whose top rung lies past s down the stable path
    monkeypatch.setattr(engine, "_STABLE_MIN_STEPS", 0)
    copies = (
        lambda e: tuple(a - 7 for a in e),
        lambda e: tuple(2 * a + 5 for a in e),
        lambda e: tuple(3 * a for a in e),
        lambda e: tuple(-a for a in reversed(e)),
    )
    checked = 0
    for i, elements in enumerate(_min_zero_sets(12)):
        for e in (elements, copies[i % 4](elements)):
            A = IntSet(e)
            for hs in _h_shapes(elements):
                assert union_bitmap(A, HSet(hs), ORD) == _ladder_union(A, hs), (e, hs)
                checked += 1
        h = 3 * elements[-1] + 2
        rung = engine._ladder(A, h, ORD)[h]
        assert h_fold(A, h) == SumBitmap(h * A.min, rung).to_intset(), e
    assert checked == 4096 * 6


@settings(max_examples=200)
@given(
    st.sets(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
    st.integers(min_value=-30, max_value=30),
    st.sampled_from([1, 2, 3, -1, -2, -3]),
    st.sets(st.integers(min_value=0, max_value=45), min_size=1, max_size=8),
)
def test_stable_unions_match_the_ladder_property(values, shift, dilation, hs):
    A = IntSet.of(dilation * v + shift for v in values)
    H = HSet.of(hs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_STABLE_MIN_STEPS", 0)
        assert union_bitmap(A, H, ORD) == _ladder_union(A, H.elements)


def _certificate(rungs, h, span):
    return rungs[h + 1] == rungs[h] | rungs[h] << span


def _certificate_evidence(bmax, unions=False):
    """(normalized sets with b <= bmax, those where the recurrence holds
    from h0, those where it fails at h0 - 1). With unions, each set's union
    over H = {1, 2b+2}, above its threshold, is checked against its ladder."""
    sets = holds = earlier = 0
    for elements in _min_zero_sets(bmax):
        b = elements[-1]
        if b == 0 or gcd(*elements) != 1:
            continue
        A = IntSet(elements)
        h0 = _threshold(elements)
        assert h0 == engine._stable_threshold(A)
        top = 2 * b + 2 if unions else h0 + 1
        rungs = engine._ladder(A, top, ORD)
        sets += 1
        holds += _certificate(rungs, h0, b)
        earlier += h0 > 1 and not _certificate(rungs, h0 - 1, b)
        if unions:
            union = union_bitmap(A, HSet((1, top)), ORD)
            assert union == SumBitmap(0, rungs[1] | rungs[top]), elements
    return sets, holds, earlier


def test_certificate_holds_at_the_threshold():
    # evidence for h0, not a premise: the certificate alone makes a stable
    # union exact. Here it holds at h0 for every normalized set with b <= 14,
    # and in 250 of them it fails one rung earlier
    assert _certificate_evidence(14) == (16238, 16238, 250)


@pytest.mark.deep
def test_certificate_and_stable_unions_deep():
    assert _certificate_evidence(18, unions=True) == (261566, 261566, 446)


def test_a_failing_certificate_falls_back_to_the_ladder(monkeypatch):
    # {0, 3, 5} has h0 = 4: checked at rung 2, the certificate fails, and
    # the union is the plain ladder's to max H, byte for byte
    A, H = IntSet((0, 3, 5)), HSet((1, 2, 7, 20))
    rungs = engine._ladder(A, 2, ORD)
    assert not _certificate(rungs, 1, 5)
    calls = []
    kernel = engine.extend_ladder

    def counted(rungs, x, kind):
        calls.append(len(rungs))
        return kernel(rungs, x, kind)

    monkeypatch.setattr(engine, "extend_ladder", counted)
    monkeypatch.setattr(engine, "_stable_threshold", lambda A: 1)
    monkeypatch.setattr(engine, "_STABLE_MIN_STEPS", 0)
    assert union_bitmap(A, H, ORD) == _ladder_union(A, H.elements)
    # three steps of the ladder to rung 2, then three of the one to rung 20
    assert calls == [3] * 3 + [21] * 6


def test_tiny_unions_stay_on_the_plain_ladder(monkeypatch):
    # below the floor the gate never reads the gcd; above it, a union
    # whose top lies past s takes the stable path
    reads = []
    threshold = engine._stable_threshold

    def counted(A):
        reads.append(A)
        return threshold(A)

    monkeypatch.setattr(engine, "_stable_threshold", counted)
    for k in range(2, 8):
        union_bitmap(make_interval(1, k), HSet(tuple(range(1, 8))), ORD)
    assert reads == []
    union_bitmap(make_interval(1, 40), HSet((1, 40)), ORD)
    assert reads == [make_interval(1, 40)]


def test_huge_multiplicity_still_fails_the_guard_at_once():
    # the guard runs first, exactly as on the plain ladder
    times = []
    for _ in range(3):
        started = time.perf_counter()
        with pytest.raises(IntegerOverflowError) as caught:
            union_bitmap(IntSet((1, 2)), HSet((1, 2**62)), ORD)
        times.append(time.perf_counter() - started)
    assert str(caught.value) == f"value {2**63} outside signed 64-bit range"
    assert min(times) < 1e-3


def test_large_multiplicity_holds_one_rung_at_a_time():
    # h = 10^6 by doubling: the peak allocation stays within four times the
    # union's width (2*10^6 bits), where a stored ladder would hold 10^6 rungs
    A = IntSet((1, 2))
    tracemalloc.start()
    try:
        bitmap = union_bitmap(A, HSet((3, 10**6)), ORD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bitmap.text == "3..6,1000000..2000000"
    assert len(bitmap) == 4 + 10**6 + 1
    assert peak < 4 * (2 * 10**6 // 8)
