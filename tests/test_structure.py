"""Structure detection, witness blocks, and inverse verdicts."""

from itertools import combinations

import pytest

import sumset_lab.engine as engine
from sumset_lab.bounds import catalog_bound
from sumset_lab.engine import SumsetKind, naive_h_fold, union_sumset
from sumset_lab.errors import HypothesisError, IntegerOverflowError, UnsupportedClassError
from sumset_lab.intset import HSet, IntSet, dilate, make_interval, translate
from sumset_lab.structure import (
    ap_descriptor,
    check_inverse,
    h_shifted_interval,
    is_dilated_interval,
    witness_blocks,
)

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED


def test_ap_descriptor():
    d = ap_descriptor(IntSet((2, 4, 6, 8)))
    assert d.is_ap and d.first == 2 and d.difference == 2
    assert not ap_descriptor(IntSet((1, 2, 4))).is_ap
    d = ap_descriptor(IntSet((7,)))
    assert d.is_ap and d.difference is None
    d = ap_descriptor(IntSet((3, 10)))
    assert d.is_ap and d.difference == 7


def test_is_dilated_interval():
    assert is_dilated_interval(IntSet((3, 6, 9)), include_zero=False) == 3
    assert is_dilated_interval(IntSet((0, 2, 4, 6)), include_zero=True) == 2
    assert is_dilated_interval(IntSet((2, 4, 8)), include_zero=False) is None
    assert is_dilated_interval(IntSet((0, 2, 5)), include_zero=True) is None
    with pytest.raises(UnsupportedClassError):
        is_dilated_interval(IntSet((0, 1, 2)), include_zero=False)
    with pytest.raises(UnsupportedClassError):
        is_dilated_interval(IntSet((1, 2, 3)), include_zero=True)


def test_h_shifted_interval():
    assert h_shifted_interval(HSet((3, 4, 5))) == (3, 3)
    assert h_shifted_interval(HSet((1, 3))) is None
    assert h_shifted_interval(HSet((4,))) == (4, 1)


def test_witness_blocks_ordinary_example():
    deco = witness_blocks(IntSet((1, 2, 4)), HSet((2, 3)), ORD)
    assert deco.blocks[0].elements == (2, 3, 4, 5, 6, 8)
    assert deco.blocks[1].elements == (9, 10, 12)
    assert deco.blocks[0].max < deco.blocks[1].min


def test_witness_blocks_single_multiplicity():
    for A in (make_interval(1, 1), make_interval(1, 4), make_interval(1, 7), IntSet((2, 3, 9))):
        for kind in (ORD, RES):
            assert witness_blocks(A, HSet((1,)), kind).blocks == (A,)


def test_witness_blocks_restricted_example():
    deco = witness_blocks(make_interval(1, 5), HSet((1, 2)), RES)
    assert deco.blocks[0] == make_interval(1, 5)
    assert deco.blocks[1] == make_interval(6, 9)
    covered = set()
    for block in deco.blocks:
        covered.update(block.elements)
    assert covered == set(range(1, 10))
    assert deco.total_size == 9 == len(union_sumset(make_interval(1, 5), HSet((1, 2)), RES))


def test_witness_blocks_preconditions():
    with pytest.raises(HypothesisError):
        witness_blocks(IntSet((0, 1, 2)), HSet((1, 2)), ORD)
    with pytest.raises(HypothesisError):
        witness_blocks(IntSet((1, 2, 3)), HSet((0, 1)), ORD)
    with pytest.raises(HypothesisError):
        witness_blocks(IntSet((1, 2, 3)), HSet((2, 4)), RES)
    for kind in (ORD, RES):
        with pytest.raises(IntegerOverflowError):
            witness_blocks(IntSet((2**62, 2**62 + 1)), HSet((1, 2)), kind)


def _oracle_blocks(A, H, kind):
    # block i: the delta-fold of the k-prev smallest elements (all of A when
    # ordinary) shifted past the previous fold, by enumeration
    k = len(A)
    blocks, prev = [], 0
    for h in H.elements:
        if kind is ORD:
            part, shift = A, prev * A.max
        else:
            part, shift = IntSet(A.elements[: k - prev]), sum(A.elements[k - prev :])
        blocks.append(translate(naive_h_fold(part, h - prev, kind), shift))
        prev = h
    return tuple(blocks)


def test_witness_blocks_sweep_never_inconsistent():
    # exhaustive small space: the construction must always stack cleanly,
    # match its definition, and have its total pinned between the bound and
    # the true union size
    h_pool = range(1, 5)
    for k in range(1, 5):
        for combo in combinations(range(1, 9), k):
            A = IntSet(combo)
            for r in range(1, 5):
                for hs in combinations(h_pool, r):
                    H = HSet(hs)
                    for kind in (ORD, RES):
                        if kind is RES and hs[-1] > k:
                            continue
                        deco = witness_blocks(A, H, kind)
                        assert deco.blocks == _oracle_blocks(A, H, kind)
                        out = catalog_bound(kind, k, H, False)
                        size = len(union_sumset(A, H, kind))
                        assert out.value <= deco.total_size <= size


def test_restricted_witness_runs_one_dp_and_one_guard(monkeypatch):
    runs = {"dp": 0, "guard": 0}
    dp, guard = engine._prefix_ladders, engine._check_rungs

    def counted_dp(*args):
        runs["dp"] += 1
        return dp(*args)

    def counted_guard(*args):
        runs["guard"] += 1
        return guard(*args)

    monkeypatch.setattr(engine, "_prefix_ladders", counted_dp)
    monkeypatch.setattr(engine, "_check_rungs", counted_guard)
    for A, H in [
        (IntSet((1, 2, 4, 7, 8)), HSet((1, 2, 3))),
        (IntSet((2, 3, 5, 9, 10, 14)), HSet((1, 3, 4, 6))),
        (make_interval(1, 7), HSet((2, 3, 5, 6, 7))),
    ]:
        runs.update(dp=0, guard=0)
        deco = witness_blocks(A, H, RES)
        assert runs == {"dp": 1, "guard": 1}
        assert deco.blocks == _oracle_blocks(A, H, RES)


def test_check_inverse_equality_with_structure():
    v = check_inverse(IntSet((2, 4, 6, 8)), HSet((1, 2)), ORD)
    assert v.equality_holds and v.hypotheses_hold
    assert v.structure_observed.h_is_ap and v.structure_observed.h_difference == 1
    assert v.structure_observed.a_is_ap and v.structure_observed.a_difference == 2
    assert v.structure_observed.difference_relation  # 2 == 1 * min(A)
    assert v.structure_matches and v.consistent


def test_check_inverse_strict_case_vacuous():
    v = check_inverse(IntSet((1, 2, 4)), HSet((1, 2)), RES)
    assert v.computed_size == 6 and v.bound_value == 5
    assert not v.equality_holds
    assert v.consistent


def test_check_inverse_extremal_restricted_family():
    A = dilate(make_interval(1, 6), 5)
    v = check_inverse(A, HSet((1, 2)), RES)
    assert v.equality_holds and v.hypotheses_hold
    assert v.structure_observed.h_shifted_interval
    assert v.structure_observed.a_dilated_interval
    assert v.structure_matches and v.consistent


def test_check_inverse_trivial_single_multiplicity():
    # H = {1} keeps the set itself: always an equality, never a structure claim
    v = check_inverse(IntSet((1, 2, 4)), HSet((1,)), ORD)
    assert v.equality_holds
    assert not v.hypotheses_hold
    assert not v.consistent is False  # vacuously consistent


def test_check_inverse_single_fold_progression_rule():
    # r = 1 with multiplicity 2: equality forces a progression
    v = check_inverse(IntSet((3, 5, 7)), HSet((2,)), ORD)
    assert v.equality_holds and v.hypotheses_hold
    assert v.rule == "h-fold-inverse"
    assert v.structure_matches and v.consistent
    v = check_inverse(IntSet((1, 2, 4)), HSet((2,)), ORD)
    assert not v.equality_holds  # |2A| = 6 > 5
    assert v.consistent


def test_check_inverse_boundary_nonstructured():
    # size 3 meets the bound, the set is no progression: allowed because
    # the restricted inverse hypotheses (k >= 6, r >= 2) are violated
    v = check_inverse(IntSet((1, 2, 4)), HSet((2,)), RES)
    assert v.computed_size == 3 and v.bound_value == 3
    assert v.equality_holds
    assert not v.hypotheses_hold
    assert not v.structure_matches
    assert v.is_nonstructured_equality
    assert v.consistent


def test_check_inverse_restricted_first_and_last_multiplicity():
    # H = {1, k-1}: the bound 2k-1 is met exactly when max A is the sum of
    # the rest, which no dilated interval with k >= 4 is, so the restricted
    # positive rule must not claim structure there
    v = check_inverse(IntSet((1, 2, 3, 4, 5, 15)), HSet((1, 5)), RES)
    assert v.computed_size == v.bound_value == 11
    assert v.equality_holds and not v.structure_matches
    assert not v.hypotheses_hold
    assert v.is_nonstructured_equality and v.consistent
    # the extremal family still meets its bound with the structure
    v = check_inverse(make_interval(1, 6), HSet((1, 5)), RES)
    assert not v.equality_holds and v.consistent
    v = check_inverse(make_interval(1, 6), HSet((4, 5)), RES)
    assert v.equality_holds and v.hypotheses_hold and v.structure_matches


def test_check_inverse_zero_class_absorbed_rule():
    v = check_inverse(IntSet((0, 1, 2)), HSet((1, 2)), ORD)
    assert v.equality_holds and v.hypotheses_hold
    assert v.rule == "h-fold-inverse-absorbed"
    assert v.structure_matches and v.consistent


def test_check_inverse_rejects_mixed():
    with pytest.raises(UnsupportedClassError):
        check_inverse(IntSet((-1, 2)), HSet((1,)), ORD)


def test_check_inverse_reflection():
    pos = check_inverse(IntSet((2, 4, 6, 8)), HSet((1, 2)), ORD)
    neg = check_inverse(IntSet((-8, -6, -4, -2)), HSet((1, 2)), ORD)
    assert neg.equality_holds == pos.equality_holds
    assert neg.consistent == pos.consistent
    assert "reflection" in neg.reasons[0]


def test_verdict_dilation_invariance():
    for c in (1, 2, 5):
        for combo, hs in [((1, 2, 3), (1, 2)), ((1, 2, 4), (2,)), ((1, 3, 5), (1, 3))]:
            base = check_inverse(IntSet(combo), HSet(hs), ORD)
            scaled = check_inverse(dilate(IntSet(combo), c), HSet(hs), ORD)
            assert scaled.equality_holds == base.equality_holds
            assert scaled.consistent == base.consistent


def test_inverse_sweep_small_space():
    # every positive pair in a small universe: no counterexamples allowed
    for k in range(2, 5):
        for combo in combinations(range(1, 9), k):
            A = IntSet(combo)
            for r in range(1, 4):
                for hs in combinations(range(1, 4), r):
                    for kind in (ORD, RES):
                        assert check_inverse(A, HSet(hs), kind).consistent


def test_extremal_witnesses_pass_the_inverse_check():
    from sumset_lab.bounds import evaluate, extremal_example

    for k in range(2, 9):
        for r in range(1, 7):
            for kind in (ORD, RES):
                for zero_in in (False, True):
                    cap = (k - 1 if zero_in else k) if kind is RES else None
                    if cap is not None and r > cap:
                        continue
                    A, H = extremal_example(k, r, kind, zero_in)
                    (rep,) = evaluate(A, H, kinds=(kind,))
                    assert rep.is_equality
                    v = check_inverse(A, H, kind)
                    assert v.equality_holds
                    assert v.consistent
                    assert v.structure_matches


def test_verdict_to_dict_round_trips_through_json():
    import json

    v = check_inverse(IntSet((2, 4, 6, 8)), HSet((1, 2)), ORD)
    payload = json.loads(json.dumps(v.to_dict()))
    assert payload["equality_holds"] is True
    assert payload["structure_observed"]["a_difference"] == 2
