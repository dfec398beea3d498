"""Structure detection, witness blocks, and inverse verdicts."""

from itertools import combinations

import pytest

import sumset_lab.structure as structure
from sumset_lab.bounds import catalog_bound
from sumset_lab.engine import SumsetKind, naive_h_fold, union_sumset
from sumset_lab.errors import HypothesisError, IntegerOverflowError, UnsupportedClassError
from sumset_lab.intset import HSet, IntSet, dilate, make_interval, translate
from sumset_lab.structure import (
    ap_descriptor,
    check_inverse,
    h_shifted_interval,
    is_dilated_interval,
    verdict_a_half,
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


def _ratio(ad):
    """The literal ratio of verdict_a_half: the q with q * first = d, 0 when
    there is none, None without a difference."""
    d = ad.difference
    if d is None:
        return None
    return next((q for q in range(1, d + 1) if q * ad.first == d), 0)


def test_dilated_interval_matches_literal_definition():
    # every subset of [1,12], without and with 0, against A == d*[1,k] / d*[0,k-1]
    for mask in range(1 << 12):
        positives = tuple(i + 1 for i in range(12) if mask >> i & 1)
        for zero_in in (False, True):
            elements = (0,) + positives if zero_in else positives
            if not elements:
                continue
            lo = 0 if zero_in else 1
            span = range(lo, lo + len(elements))
            literal = [d for d in range(1, 13) if elements == tuple(d * i for i in span)]
            expected = literal[0] if literal else None  # {0} matches every d; the least
            A = IntSet(elements)
            assert is_dilated_interval(A, zero_in) == expected, elements
            ad = ap_descriptor(A)
            half = (ad.is_ap, ad.difference, _ratio(ad), expected is not None)
            assert verdict_a_half(elements, zero_in) == half


def test_verdict_a_half_span_test_agrees_with_the_gap_walk():
    # a set of k >= 3 whose span is not (k-1) times its first gap is no
    # progression and takes the non-progression half before any gap is
    # walked; the reference walks every gap. Every k-subset of [1, 14] and
    # every {0} plus a (k-1)-subset of [1, 13]
    def reference(elements, zero_in):
        ad = structure._progression(elements)
        if not ad.is_ap:
            return structure.NON_PROGRESSION_A_HALF
        return True, ad.difference, _ratio(ad), structure._dilation(ad, zero_in) is not None

    sets = [c for k in range(1, 8) for c in combinations(range(1, 15), k)]
    sets += [(0, *c) for k in range(1, 8) for c in combinations(range(1, 14), k - 1)]
    assert len(sets) == 9907 + 4096
    for elements in sets:
        zero_in = elements[0] == 0
        assert verdict_a_half(elements, zero_in) == reference(elements, zero_in)
    # span 6 = 3 * (3 - 1), yet no progression: the span test lets it through
    # to the gap walk, which finds the non-progression half
    assert verdict_a_half((1, 3, 4, 7), False) == structure.NON_PROGRESSION_A_HALF
    assert reference((1, 3, 4, 7), False) == structure.NON_PROGRESSION_A_HALF


def test_judge_difference_relation_is_d_equals_d_h_times_first():
    # the relation judge reads off A's ratio is the literal d_A = d_H * min A,
    # for every progression in [0, 30] (singletons have none) and every H
    # difference d_H in 1..7
    progressions = [(a,) for a in range(31)]
    progressions += [
        tuple(range(first, first + d * k, d))
        for first in range(31)
        for d in range(1, 31)
        for k in range(2, (30 - first) // d + 2)
    ]
    # one of 2+ elements per span m = (k-1)d in 1..30, each d | m and each
    # first in 0..30-m: the sum of tau(m) * (31 - m)
    assert len(progressions) == 31 + 1492
    for elements in progressions:
        zero_in, k = elements[0] == 0, len(elements)
        a_half = verdict_a_half(elements, zero_in)
        for d_h in range(1, 8):
            H = HSet((1, 1 + d_h))
            outcome = catalog_bound(ORD, k, H, zero_in)
            h_half = structure.verdict_h_half(ORD, zero_in, k, H, outcome)
            _, _, observed = structure.judge(outcome.value, outcome, h_half, a_half)
            if k == 1:
                assert observed[-1] is None
            else:
                d = elements[1] - elements[0]
                assert observed[-1] == (d == d_h * elements[0]), (elements, d_h)


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
        for H in (HSet(()), HSet((0, 1))):
            with pytest.raises(HypothesisError) as exc:
                witness_blocks(IntSet((1, 2, 3)), H, kind)
            assert str(exc.value) == "block construction requires positive multiplicities"
    for kind in (ORD, RES):
        with pytest.raises(IntegerOverflowError):
            witness_blocks(IntSet((2**62, 2**62 + 1)), HSet((1, 2)), kind)


def test_check_inverse_names_a_nonpositive_multiplicity_set():
    for kind in (ORD, RES):
        v = check_inverse(IntSet((1, 2, 4)), HSet((0, 2)), kind)
        assert "multiplicity set must be positive" in v.reasons
        assert not v.hypotheses_hold


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


@pytest.mark.parametrize("kind", [ORD, RES], ids=lambda kind: kind.value)
def test_witness_runs_one_guard_and_one_kernel_call_per_element(monkeypatch, kind):
    # one fold of the kernel over A serves every block of either kind,
    # counted on the names witness_blocks calls
    runs = {"guard": 0, "kernel": 0}
    guard, kernel = structure.check_rungs, structure.extend_ladder

    def counted_guard(*args):
        runs["guard"] += 1
        return guard(*args)

    def counted_kernel(*args):
        runs["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(structure, "check_rungs", counted_guard)
    monkeypatch.setattr(structure, "extend_ladder", counted_kernel)
    for A, H in [
        (IntSet((1, 2, 4, 7, 8)), HSet((1, 2, 3))),
        (IntSet((2, 3, 5, 9, 10, 14)), HSet((1, 3, 4, 6))),
        # ordinary blocks may reach past |A|
        (make_interval(1, 7), HSet((2, 3, 5, 6, 7 if kind is RES else 9))),
    ]:
        runs.update(guard=0, kernel=0)
        deco = witness_blocks(A, H, kind)
        assert runs == {"guard": 1, "kernel": len(A)}
        assert deco.blocks == _oracle_blocks(A, H, kind)


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


def test_single_multiplicity_reasons_for_zero_and_one():
    # only H = {1} returns A itself; H = {0} is refused for not being positive
    A = IntSet((1, 2, 3))
    assert check_inverse(A, HSet((0,)), ORD).reasons == (
        "multiplicity set must be positive",
        "no applicable bound: H = {0} has no applicable bound",
    )
    assert check_inverse(A, HSet((1,)), ORD).reasons == (
        "multiplicity 1 alone returns the set itself",
    )


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
    data = v.to_dict()
    assert list(data) == [
        "kind", "set_class", "computed_size", "bound_value", "bound_applicable",
        "equality_holds", "hypotheses_hold", "reasons", "rule",
        "structure_predicted", "structure_observed", "structure_matches",
        "consistent", "nonstructured",
    ]
    assert type(data["reasons"]) is list and type(data["structure_predicted"]) is list
    payload = json.loads(json.dumps(data))
    assert payload["equality_holds"] is True
    assert payload["structure_observed"]["a_difference"] == 2
