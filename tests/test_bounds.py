"""Bound formulas, their closed-form regressions, and evaluate()."""

from itertools import combinations

import pytest

import sumset_lab.bounds as bounds
from sumset_lab.bounds import (
    bound_h_fold,
    bound_h_fold_restricted,
    bound_union,
    bound_union_restricted,
    catalog_bound,
    evaluate,
    extremal_example,
)
from sumset_lab.engine import SumBitmap, SumsetKind, union_bitmap, union_sumset
from sumset_lab.errors import HypothesisError, UnsupportedClassError
from sumset_lab.intset import REFLECTION_NOTE, HSet, IntSet, dilate, make_interval

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED


def run(r):
    return HSet(tuple(range(1, r + 1)))


def test_bound_h_fold():
    assert bound_h_fold(3, 2) == 5
    assert bound_h_fold(1, 7) == 1
    assert bound_h_fold(5, 3) == 13
    with pytest.raises(HypothesisError):
        bound_h_fold(0, 1)
    with pytest.raises(HypothesisError):
        bound_h_fold(3, 0)


def test_bound_h_fold_restricted():
    assert bound_h_fold_restricted(4, 2) == 5
    assert bound_h_fold_restricted(5, 5) == 1
    assert bound_h_fold_restricted(6, 3) == 10
    with pytest.raises(HypothesisError):
        bound_h_fold_restricted(3, 4)


def test_bound_union():
    assert bound_union(3, HSet((2, 3)), zero_in_A=False) == 8
    for k in range(1, 8):
        assert bound_union(k, HSet((1,)), zero_in_A=False) == k
    assert bound_union(4, HSet((1, 2, 3)), zero_in_A=True) == 10
    with pytest.raises(HypothesisError):
        bound_union(4, HSet((0, 2)), zero_in_A=False)
    with pytest.raises(HypothesisError):
        bound_union(4, HSet(()), zero_in_A=False)


def test_bound_union_difference_between_cases():
    # positive-case value exceeds the zero-case value by exactly r - 1
    for k in range(1, 12):
        for hs in [(1,), (2,), (1, 3), (2, 5, 6), (1, 2, 3, 4)]:
            H = HSet(hs)
            diff = bound_union(k, H, False) - bound_union(k, H, True)
            assert diff == len(hs) - 1


def test_bound_union_restricted():
    assert bound_union_restricted(5, HSet((1, 2)), zero_in_A=False) == 9
    for k in range(1, 9):
        assert bound_union_restricted(k, HSet((k,)), zero_in_A=False) == 1
    assert bound_union_restricted(6, HSet((1, 2)), zero_in_A=True) == 10
    with pytest.raises(HypothesisError):
        bound_union_restricted(4, HSet((5,)), zero_in_A=False)
    with pytest.raises(HypothesisError):
        bound_union_restricted(4, HSet((4,)), zero_in_A=True)


def test_bound_union_restricted_zero_case_against_enumeration():
    # A = [0,5], H = {1,2}: subset enumeration gives exactly 10 sums
    A = make_interval(0, 5)
    sums = set(A.elements)
    sums.update(a + b for a, b in combinations(A.elements, 2))
    assert len(sums) == 10
    assert bound_union_restricted(6, HSet((1, 2)), zero_in_A=True) == 10


def test_consecutive_run_closed_forms():
    # H = [1,r] collapses the general sums to rk - r(r-1)/2 (positive case)
    # and rk - r(r+1)/2 + 1 (zero case); both regressions for all r <= k <= 20
    for k in range(1, 21):
        for r in range(1, k + 1):
            got = bound_union_restricted(k, run(r), zero_in_A=False)
            assert got == r * k - r * (r - 1) // 2
            # adding the detached {0} fold reproduces the r-step closed form
            assert got + 1 == r * k - r * (r - 1) // 2 + 1
        for r in range(1, k):
            got = bound_union_restricted(k, run(r), zero_in_A=True)
            assert got == r * k - r * (r + 1) // 2 + 1


def test_extremal_examples_achieve_their_bounds():
    for k in range(1, 11):
        for r in range(1, 11):
            A, H = extremal_example(k, r, ORD, zero_in_A=False)
            assert len(union_sumset(A, H, ORD)) == bound_union(k, H, False) == r * k
            A, H = extremal_example(k, r, ORD, zero_in_A=True)
            assert len(union_sumset(A, H, ORD)) == bound_union(k, H, True)
            if r <= k:
                A, H = extremal_example(k, r, RES, zero_in_A=False)
                assert len(union_sumset(A, H, RES)) == bound_union_restricted(k, H, False)
            if r <= k - 1:
                A, H = extremal_example(k, r, RES, zero_in_A=True)
                assert len(union_sumset(A, H, RES)) == bound_union_restricted(k, H, True)


def test_extremal_example_rejects_bad_parameters():
    # each message names the reason the catalog gives for (kind, k, [1, r])
    for k, r, kind, zero_in_A in [
        (3, 4, RES, False),
        (3, 3, RES, True),
        (5, 0, ORD, False),
        (5, 0, RES, True),
    ]:
        reason = catalog_bound(kind, k, run(r), zero_in_A).reason
        with pytest.raises(HypothesisError) as caught:
            extremal_example(k, r, kind, zero_in_A)
        assert str(caught.value).endswith(f": {reason}")
    with pytest.raises(HypothesisError) as refused:
        catalog_bound(ORD, 0, run(1), False)
    with pytest.raises(HypothesisError) as caught:
        extremal_example(0, 1, ORD, zero_in_A=False)
    assert str(caught.value) == str(refused.value) == "need k >= 1, got 0"


def test_restricted_cap_has_one_message():
    # the catalog's inapplicable reason is the formula's refusal, word for word
    for k in range(1, 9):
        for zero_in_A in (False, True):
            cap = k - 1 if zero_in_A else k
            for H in (HSet((cap + 1,)), HSet((1, cap + 2))):
                outcome = catalog_bound(RES, k, H, zero_in_A)
                assert not outcome.applicable
                with pytest.raises(HypothesisError) as caught:
                    bound_union_restricted(k, H, zero_in_A)
                assert outcome.reason == str(caught.value)
                assert outcome.reason == (
                    f"max multiplicity {H.max} exceeds the cap {cap} for k={k}"
                )


def test_evaluate_equality_case():
    reports = evaluate(IntSet((2, 4, 6, 8)), HSet((1, 2)), kinds=(ORD,))
    (rep,) = reports
    assert rep.computed_size == 8
    assert rep.bound_value == 8
    assert rep.is_equality and rep.hypotheses_met


def test_evaluate_strict_case():
    (rep,) = evaluate(IntSet((1, 2, 4)), HSet((2, 3)), kinds=(ORD,))
    assert rep.computed_size == 10
    assert rep.bound_value == 8
    assert not rep.is_equality


def test_evaluate_zero_case():
    (rep,) = evaluate(IntSet((0, 1, 2)), HSet((1, 2)), kinds=(ORD,))
    assert rep.computed_size == 5
    assert rep.bound_value == 5
    assert rep.is_equality
    assert rep.formula.identifier == "union-zero"


def test_evaluate_both_kinds_by_default():
    reports = evaluate(make_interval(1, 5), HSet((1, 2)))
    assert [r.kind for r in reports] == [ORD, RES]
    assert all(r.computed_size >= r.bound_value for r in reports)


def test_evaluate_rejects_mixed():
    with pytest.raises(UnsupportedClassError):
        evaluate(IntSet((-3, 2)), HSet((1,)))


def test_evaluate_refuses_a_lone_kind_or_a_string(monkeypatch):
    # unchecked, one kind where a sequence belongs fails inside the
    # comprehension and a string is iterated letter by letter: both are
    # refused, naming kinds, before any union is computed
    def refused(*args):
        raise AssertionError("evaluate computed a union")

    monkeypatch.setattr(bounds, "union_bitmap", refused)
    for kinds in (ORD, RES, "ordinary", ""):
        with pytest.raises(TypeError, match="^kinds must be a sequence of SumsetKind, got "):
            evaluate(make_interval(1, 5), HSet((1, 2)), kinds)


def test_bound_arguments_must_be_exact_ints():
    # unchecked, a bool or a float passes: bound_h_fold(3.0, 2) gives 5.0 and
    # catalog_bound(ORD, True, H, False) a formula with k=True
    H = HSet((1, 2))
    for bad in (True, False, 3.0, 2.5):
        calls = [
            (lambda: bound_h_fold(bad, 2), "cardinality"),
            (lambda: bound_h_fold(3, bad), "multiplicity"),
            (lambda: bound_h_fold_restricted(bad, 2), "cardinality"),
            (lambda: bound_h_fold_restricted(3, bad), "multiplicity"),
            (lambda: bound_union(bad, H, False), "cardinality"),
            (lambda: bound_union_restricted(bad, H, False), "cardinality"),
            (lambda: catalog_bound(ORD, bad, H, False), "cardinality"),
            (lambda: catalog_bound(RES, bad, H, True), "cardinality"),
        ]
        for call, name in calls:
            with pytest.raises(TypeError) as exc:
                call()
            assert str(exc.value) == f"{name} {bad!r} is not an integer"
    assert (bound_h_fold(3, 2), bound_h_fold_restricted(3, 2), bound_union(3, H, False)) == (
        5, 3, 6
    )
    assert catalog_bound(ORD, 3, H, False).value == 6


def test_evaluate_reduces_negative_sets():
    pos = evaluate(IntSet((2, 4, 6, 8)), HSet((1, 2)), kinds=(ORD,))[0]
    neg = evaluate(IntSet((-8, -6, -4, -2)), HSet((1, 2)), kinds=(ORD,))[0]
    assert neg.computed_size == pos.computed_size
    assert neg.bound_value == pos.bound_value
    assert neg.is_equality
    assert "reflection" in neg.reason


def test_evaluate_restricted_overlarge_multiplicity():
    (rep,) = evaluate(IntSet((1, 2, 4)), HSet((2, 5)), kinds=(RES,))
    assert not rep.hypotheses_met
    assert rep.bound_value == 0
    assert not rep.is_equality
    assert rep.computed_size == 3  # the h=2 fold alone


def test_evaluate_zero_multiplicity_with_zero_in_a():
    # stripping the 0 fold changes nothing when 0 is already an element
    with_zero = evaluate(IntSet((0, 1, 3)), HSet((0, 1, 2)), kinds=(RES,))[0]
    without = evaluate(IntSet((0, 1, 3)), HSet((1, 2)), kinds=(RES,))[0]
    assert with_zero.computed_size == without.computed_size
    assert with_zero.bound_value == without.bound_value
    assert with_zero.hypotheses_met
    assert "stripped" in with_zero.reason


def test_evaluate_zero_multiplicity_without_zero_in_a():
    (rep,) = evaluate(IntSet((1, 2, 4)), HSet((0, 2)), kinds=(ORD,))
    assert not rep.hypotheses_met
    assert rep.bound_value == 0
    assert rep.computed_size == 7  # {0} plus the six 2-fold sums


def test_evaluate_sizes_each_union_by_popcount(monkeypatch):
    A, H = IntSet((-9, -4, -2, -1)), HSet((1, 3))
    # sized on the reflected set {1, 2, 4, 9}
    expected = [len(union_sumset(dilate(A, -1), H, kind)) for kind in (ORD, RES)]
    calls = []

    def counted(A, H, kind):
        calls.append(kind)
        return union_bitmap(A, H, kind)

    def refused(self):
        raise AssertionError("evaluate decoded a union to an IntSet")

    monkeypatch.setattr(bounds, "union_bitmap", counted)
    monkeypatch.setattr(SumBitmap, "to_intset", refused)
    reports = evaluate(A, H)
    assert calls == [ORD, RES]
    assert [r.computed_size for r in reports] == expected


@pytest.mark.parametrize(
    "elements", [(1, 2, 4, 9), (0, 2, 3), (-9, -4, -2, -1), (-5, -3, 0)]
)
def test_evaluate_sign_reduces_once(monkeypatch, elements):
    # one reduction serves every kind, so a negative A is reflected once
    real, calls = bounds.sign_reduce, []

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(bounds, "sign_reduce", counted)
    A, H = IntSet(elements), HSet((1, 2))
    reports = evaluate(A, H)
    assert len(calls) == 1 and len(reports) == 2
    calls.clear()
    evaluate(A, H, kinds=(RES,))
    assert len(calls) == 1
    calls.clear()
    bounds.bound_report(A, H, ORD, reports[0].computed_size)
    assert len(calls) == 1
    if elements[0] < 0:
        assert all(r.reason.startswith(REFLECTION_NOTE) for r in reports)


def test_catalog_bound_matches_direct_formulas():
    for k in range(1, 9):
        for hs in [(1,), (2,), (1, 2), (2, 4), (1, 3, 5)]:
            H = HSet(hs)
            out = catalog_bound(ORD, k, H, False)
            assert out.applicable and out.value == bound_union(k, H, False)
            out = catalog_bound(RES, k, H, False)
            if hs[-1] <= k:
                assert out.applicable and out.value == bound_union_restricted(k, H, False)
            else:
                assert not out.applicable


def test_catalog_bound_refuses_k_below_1_for_both_kinds():
    # k is checked before any cap or H rule, so both kinds refuse it alike
    for kind in (ORD, RES):
        for zero_in in (False, True):
            with pytest.raises(HypothesisError) as exc:
                catalog_bound(kind, 0, HSet((1,)), zero_in)
            assert str(exc.value) == "need k >= 1, got 0"


def test_sizes_never_below_applicable_bounds():
    # dense spot sweep: all A within [1,9] of size 3, assorted H
    for combo in combinations(range(1, 10), 3):
        A = IntSet(combo)
        for hs in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)]:
            for rep in evaluate(A, HSet(hs)):
                if rep.hypotheses_met:
                    assert rep.computed_size >= rep.bound_value


def test_prefix_lemma():
    # the induction step the verifier's walk relies on (README, "Prefix
    # lemma" and its chained form): appending a new maximum x to B, all
    # elements >= 0, adds at least g(|B|) sums to the union, where g(m) is
    # h_r for the ordinary kind and max(H ∩ [1, m]) (0 if empty) for the
    # restricted one; and every catalog formula grows by exactly h_r per
    # element
    h_sets = [HSet(hs) for r in range(1, 5) for hs in combinations(range(1, 5), r)]
    checked = {True: 0, False: 0}
    for m in range(1, 5):
        for b in combinations(range(8), m):
            B = IntSet(b)
            for H in h_sets:
                for kind in (ORD, RES):
                    g = H.max if kind is ORD else max([h for h in H if h <= m] or [0])
                    base = len(union_sumset(B, H, kind))
                    for x in range(b[-1] + 1, 11):
                        grown = len(union_sumset(IntSet(b + (x,)), H, kind))
                        assert grown >= base + g, (b, x, H.elements, kind)
                        checked[b[0] == 0] += 1
                    before = catalog_bound(kind, m, H, b[0] == 0)
                    after = catalog_bound(kind, m + 1, H, b[0] == 0)
                    if before.applicable:
                        assert after.applicable
                        assert after.value - before.value == H.max
    assert checked == {True: 8700, False: 12180}  # 0 in B, or not


def _restricted_growth(H, j, zero_in):
    """The sums a restricted union over H gains, at least, when a new
    maximum joins a set of j >= h_1 elements (README, "Prefix lemma"): g(j)
    plus e(j), which is 1 when j+1 is in H unless 0 is in the set and
    g(j) = j."""
    g = max(h for h in H if h <= j)
    return g + (j + 1 in H and not (zero_in and g == j))


def test_restricted_prefix_grows_by_g_plus_e():
    h_sets = [HSet(hs) for r in range(1, 6) for hs in combinations(range(1, 6), r)]
    sizes = {}

    def size(a, H):
        if (a, H) not in sizes:
            sizes[a, H] = len(union_bitmap(IntSet(a), H, RES))
        return sizes[a, H]

    steps = tight = 0
    for m in range(1, 10):
        for b in combinations(range(9), m):
            for H in h_sets:
                if H.elements[0] > m:
                    continue
                grow = _restricted_growth(H.elements, m, b[0] == 0)
                for x in range(b[-1] + 1, 10):
                    gained = size(b + (x,), H) - size(b, H)
                    assert gained >= grow, (b, x, H.elements)
                    steps += 1
                    tight += gained == grow
    assert (steps, tight) == (29006, 8168)
    # the exception is needed: B = {0, 1}, H = {2, 3} and x = 2 gain g(2) = 2
    assert _restricted_growth((2, 3), 2, True) == 2
    assert size((0, 1, 2), HSet((2, 3))) - size((0, 1), HSet((2, 3))) == 2


def test_ordinary_union_with_zero_is_its_top_rung():
    # 0 in A puts (h-1)A inside hA, so HA = h_r·A: the walk ORs one rung
    h_sets = [HSet(hs) for r in range(1, 6) for hs in combinations(range(1, 6), r)]
    for m in range(9):
        for rest in combinations(range(1, 9), m):
            A = IntSet((0,) + rest)
            for H in h_sets:
                assert union_bitmap(A, H, ORD) == union_bitmap(A, HSet((H.max,)), ORD)


def test_restricted_gap_with_zero_gains_two():
    # with A' = A minus 0, h^A = h^A' ∪ (h-1)^A', so H^A = (H ∪ (H-1))^A'.
    # When h, h+2 are in H and h+1 is not, adding h+1 to H leaves H ∪ (H-1)
    # as it is, and the bound of H ∪ {h+1} is H's plus 2
    h_sets = [hs for r in range(1, 6) for hs in combinations(range(1, 6), r)]
    checked = reached = 0
    for m in range(2, 6):
        for rest in combinations(range(1, 9), m):
            A, k = IntSet((0,) + rest), m + 1
            for hs in h_sets:
                H = HSet(hs)
                shifted = HSet(tuple(sorted(set(hs) | {h - 1 for h in hs})))
                size = len(union_bitmap(A, H, RES))
                assert size == len(union_bitmap(IntSet(rest), shifted, RES))
                gaps = [h for h in hs if h + 2 in hs and h + 1 not in hs]
                if not gaps or hs[-1] > k - 1:
                    continue
                filled = HSet(tuple(sorted(hs + (gaps[0] + 1,))))
                bound = catalog_bound(RES, k, H, True).value
                assert catalog_bound(RES, k, filled, True).value == bound + 2
                assert size == len(union_bitmap(A, filled, RES)) >= bound + 2
                checked += 1
                reached += size == bound + 2
    assert (checked, reached) == (952, 30)


def test_catalog_bound_checks_each_input_once(monkeypatch):
    counts = {"_require_k": 0, "_cap_breach": 0}
    for name in counts:
        real = getattr(bounds, name)

        def counting(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(bounds, name, counting)
    h_sets = [HSet(hs) for r in range(1, 5) for hs in combinations(range(5), r)]
    calls = restricted = 0
    for kind in (ORD, RES):
        for k in range(1, 7):
            for H in h_sets:
                for zero_in_A in (False, True):
                    catalog_bound(kind, k, H, zero_in_A)
                    calls += 1
                    restricted += kind is RES
    assert counts["_require_k"] == calls
    assert counts["_cap_breach"] <= restricted


def test_catalog_agrees_with_the_row_class_identities():
    # the restricted catalog keeps both identities of README "Row classes":
    # bound(k - H) = bound(H) for H ⊆ [1, k-1] in both zero modes, and
    # bound(H ∪ {k}) = bound(H) + 1 without 0
    complements = tops = 0
    for k in range(1, 13):
        for r in range(1, k):
            for hs in combinations(range(1, k), r):
                mirror = HSet(tuple(k - h for h in reversed(hs)))
                for zero_in in (False, True):
                    outcome = catalog_bound(RES, k, HSet(hs), zero_in)
                    assert outcome.applicable
                    assert catalog_bound(RES, k, mirror, zero_in).value == outcome.value
                    complements += 1
                topped = catalog_bound(RES, k, HSet(hs + (k,)), False)
                assert topped.value == catalog_bound(RES, k, HSet(hs), False).value + 1
                tops += 1
    assert (complements, tops) == (8166, 4083)


def test_row_class_identities_on_unions():
    # complement: h^A = ΣA - (k-h)^A, so |H^A| = |(k-H)^A| for H ⊆ [1, k-1].
    # Top multiplicity: k^A = {ΣA}, above every other restricted sum of an
    # all-positive A, so |H^A| = |(H - {k})^A| + 1 for k ∈ H ≠ {k}. With 0
    # in A, ΣA is also a sum of k-1 elements, so k adds nothing to k-1 ∈ H
    h_sets = [hs for r in range(1, 7) for hs in combinations(range(1, 7), r)]
    complements = tops = absorbed = 0
    for k in range(1, 12):
        for elements in combinations(range(11), k):
            A, sizes = IntSet(elements), {}

            def size(hs):
                if hs not in sizes:
                    sizes[hs] = len(union_bitmap(A, HSet(hs), RES))
                return sizes[hs]

            for hs in h_sets:
                if hs[-1] < k:
                    assert size(hs) == size(tuple(k - h for h in reversed(hs)))
                    complements += 1
                elif hs[-1] == k and len(hs) > 1 and elements[0] > 0:
                    assert size(hs) == size(hs[:-1]) + 1
                    tops += 1
                elif hs[-1] == k and k - 1 in hs:
                    assert size(hs) == size(hs[:-1])
                    absorbed += 1
    assert (complements, tops, absorbed) == (59518, 12165, 6292)


def test_first_and_last_multiplicity_size_is_decided_by_the_sum():
    # the sweep's closed row: for all-positive A with k >= 3,
    # |1^A ∪ (k-1)^A| = 2k - [2 max A = ΣA], and {1, k-1, k} is one more
    sums = 0
    for k in range(3, 9):
        for elements in combinations(range(1, 15), k):
            A, f = IntSet(elements), 2 * elements[-1] == sum(elements)
            size = 2 * k - f
            assert len(union_bitmap(A, HSet((1, k - 1)), RES)) == size
            assert len(union_bitmap(A, HSet((1, k - 1, k)), RES)) == size + 1
            sums += f
    assert sums == 95
