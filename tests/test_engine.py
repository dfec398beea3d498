"""Sumset engine: fast path vs the enumeration oracle, and its invariants."""

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab.engine import (
    SumBitmap,
    SumsetKind,
    _check_ordinary_range,
    _check_restricted_range,
    _check_rungs,
    h_fold,
    h_fold_restricted,
    naive_h_fold,
    sumset_ladder,
    union_sumset,
)
from sumset_lab.errors import ArityError, IntegerOverflowError, OracleRefusedError
from sumset_lab.intset import INT64_MAX, HSet, IntSet, dilate, make_interval

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
    # rungs 2 and 3 would overflow but are never returned, so never checked
    assert union_sumset(HUGE3, HSet((1, 5)), RES) == HUGE3


def test_empty_inputs_refused():
    with pytest.raises(ArityError):
        h_fold(IntSet(()), 2)
    with pytest.raises(ArityError):
        union_sumset(IntSet((1,)), HSet(()), ORD)


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
    for combo in [(1, 2, 4), (2, 3, 5, 8), (0, 1, 5), (3, 6, 9, 12, 14)]:
        A = IntSet(combo)
        for kind in (ORD, RES):
            ladder = sumset_ladder(A, 6, kind)
            fold = h_fold if kind is ORD else h_fold_restricted
            for h in range(0, 7):
                assert ladder[h].to_intset() == fold(A, h)


def test_bitmap_anchoring_and_popcount():
    result = h_fold_restricted(IntSet((1, 5, 9, 11)), 2)
    bm = SumBitmap.from_intset(result)
    assert bm.offset == result.min
    assert bm.bits & 1  # anchored: lowest bit is the minimum
    assert bm.popcount == len(result)
    assert bm.to_intset() == result
    # sparse and wide, with a negative offset
    sparse = IntSet((-(2**20), -7, 0, 3, 2**20 + 5))
    wide = SumBitmap.from_intset(sparse)
    assert wide.offset == -(2**20) and wide.popcount == 5
    assert wide.to_intset() == sparse
    assert SumBitmap.from_intset(wide.to_intset()) == wide
    assert SumBitmap(0, 0).to_intset().is_empty


def test_bitmap_decode():
    for offset in (-7, 0, 5):
        assert SumBitmap(offset, 0).to_intset() == IntSet(())
    # dense, with a negative offset
    dense = make_interval(-40, 25)
    assert SumBitmap(-40, (1 << 66) - 1).to_intset() == dense
    assert SumBitmap.from_intset(dense).to_intset() == dense
    # sparse over 5,000 bits, with a negative offset
    sparse = IntSet((-3000, -2999, -1234, 0, 17, 1999))
    bm = SumBitmap.from_intset(sparse)
    assert bm.bits.bit_length() == 5000
    assert bm.to_intset() == sparse
    assert SumBitmap.from_intset(bm.to_intset()) == bm
    # the decoded range is checked against int64 at both ends
    assert SumBitmap(-(2**63), 1).to_intset() == IntSet((-(2**63),))
    with pytest.raises(IntegerOverflowError):
        SumBitmap(2**63 - 1, 0b11).to_intset()


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
    assert sumset_ladder(IntSet((-5, 3, 9)), 3, RES)[2].to_intset() == h_fold_restricted(
        IntSet((-5, 3, 9)), 2
    )


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
                assert _guard_outcome(lambda: _check_rungs(A, hs, kind)) == expected
                checked += 1
                raised += expected is not None
    assert checked == 4800 and 0 < raised < checked


def test_guard_mixed_sign_restricted_middle_rung():
    # rung 2's smallest sum (the two most-negative elements) leaves int64;
    # rungs 0, 1 and 3 stay inside
    tricky = IntSet((-(2**62) - 1, -(2**62), 2**62))
    assert _check_rungs(tricky, (0, 1, 3, 4), RES) is None
    with pytest.raises(IntegerOverflowError) as caught:
        _check_rungs(tricky, (1, 2, 3), RES)
    assert str(caught.value) == f"value {-(2**63) - 1} outside signed 64-bit range"
    # ordinary rung 3 leaves int64, rung 1 does not
    with pytest.raises(IntegerOverflowError):
        _check_rungs(tricky, (0, 1, 3), ORD)
    assert _check_rungs(tricky, (0, 1), ORD) is None
