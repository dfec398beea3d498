"""Structural analysis of equality cases.

Detects the three structure families that minimal sumsets force (arithmetic
progressions, dilated intervals, runs of consecutive multiplicities), builds
the block decompositions whose disjoint union realizes each lower bound, and
packages the inverse checks: when a size meets its bound exactly and the
hypotheses hold, the predicted structure must be present.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate

from . import bounds
from .engine import SumBitmap, SumsetKind, prefix_ladders, sumset_ladder, union_sumset
# not called here: bench/spans.HOOKS wraps these names on this module
from .engine import h_fold, h_fold_restricted  # noqa: F401
from .errors import HypothesisError, InternalInconsistencyError, UnsupportedClassError
from .intset import HSet, IntSet, SetClass, classify, sign_reduce


@dataclass(frozen=True)
class APDescriptor:
    """Whether a set is an arithmetic progression.

    Sets with at most 2 elements always count; the difference is None for
    singletons and for non-progressions.
    """

    is_ap: bool
    first: int
    difference: int | None


def ap_descriptor(A: IntSet | HSet) -> APDescriptor:
    if A.is_empty:
        raise HypothesisError("empty set has no progression structure")
    elements = A.elements
    if len(elements) == 1:
        return APDescriptor(True, elements[0], None)
    d = elements[1] - elements[0]
    for i in range(2, len(elements)):
        if elements[i] - elements[i - 1] != d:
            return APDescriptor(False, elements[0], None)
    return APDescriptor(True, elements[0], d)


def is_dilated_interval(A: IntSet, include_zero: bool) -> int | None:
    """The d with A = d*[1,k] (or d*[0,k-1] when include_zero), else None."""
    set_class = classify(A)
    if include_zero:
        if set_class is not SetClass.ZERO_REST_POSITIVE:
            raise UnsupportedClassError(
                f"expected a zero-plus-positives set, got {set_class.value}"
            )
        if len(A) == 1:
            return 1  # {0} is d*[0,0] for every d; report the least
        d = A.elements[1]
        expected = tuple(d * i for i in range(len(A)))
    else:
        if set_class is not SetClass.ALL_POSITIVE:
            raise UnsupportedClassError(
                f"expected an all-positive set, got {set_class.value}"
            )
        d = A.elements[0]
        expected = tuple(d * i for i in range(1, len(A) + 1))
    return d if A.elements == expected else None


def h_shifted_interval(H: HSet) -> tuple[int, int] | None:
    """(first, count) when H is a run of consecutive integers, else None."""
    if H.is_empty:
        return None
    e = H.elements
    if e[-1] - e[0] != len(e) - 1:
        return None
    return e[0], len(e)


@dataclass(frozen=True)
class BlockDecomposition:
    """Pairwise disjoint, increasing blocks inside a union sumset."""

    blocks: tuple[IntSet, ...]
    kind: SumsetKind

    @property
    def total_size(self) -> int:
        return sum(len(b) for b in self.blocks)


def witness_blocks(A: IntSet, H: HSet, kind: SumsetKind) -> BlockDecomposition:
    """Build the stacked blocks whose disjoint union realizes the bound.

    Every block comes off one ladder of A up to max(H), behind one guard.
    Block 1 is the smallest fold itself. Each later block advances from the
    previous fold's maximum: ordinary blocks take rung delta of that ladder
    shifted by prev*max(A); restricted blocks take rung delta of the ladder
    of the k-prev smallest elements shifted by the sum of the prev largest
    (so the summands stay pairwise distinct). One restricted DP serves every
    block: it passes the ladder of each prefix on its way to the ladder of A.
    Both invariants -- strictly increasing disjointness and containment of
    block i in the h_i-fold -- are checked on the bit vectors; a failure
    would falsify the construction and raises an internal error. Each block
    is decoded once, for the return value.
    """
    if classify(A) is not SetClass.ALL_POSITIVE:
        raise HypothesisError("block construction requires an all-positive set")
    if H.is_empty or not H.all_positive:
        raise HypothesisError("block construction requires positive multiplicities")
    k = len(A)
    if kind is SumsetKind.RESTRICTED and H.max > k:
        raise HypothesisError(
            f"restricted blocks need max multiplicity <= {k}, got {H.max}"
        )
    t = A.min
    steps = list(zip(H.elements, (0,) + H.elements[:-1]))  # (h, prev) per block
    if kind is SumsetKind.RESTRICTED:
        # A > 0, so the guard on A's rungs bounds every prefix rung as well
        reads = {k - prev: h - prev for h, prev in steps}
        picked = {}
        for m, rungs in enumerate(prefix_ladders(A, H.max)):
            if m in reads:
                picked[m] = rungs[reads[m]]
        # rungs is now the DP's last state, the ladder of A
        largest = list(accumulate(reversed(A.elements), initial=0))
        bitmaps = [
            SumBitmap((h - prev) * t + largest[prev], picked[k - prev]) for h, prev in steps
        ]
    else:
        rungs = [rung.bits for rung in sumset_ladder(A, H.max, kind)]
        bitmaps = [
            SumBitmap((h - prev) * t + prev * A.max, rungs[h - prev]) for h, prev in steps
        ]
    blocks = tuple(block.to_intset() for block in bitmaps)
    for i in range(len(blocks) - 1):
        if blocks[i].max >= blocks[i + 1].min:
            raise InternalInconsistencyError(
                f"blocks {i + 1} and {i + 2} overlap for A={A}, H={H}, {kind.value}"
            )
    for h, block in zip(H.elements, bitmaps):
        base = min(h * t, block.offset)
        if (block.bits << (block.offset - base)) & ~(rungs[h] << (h * t - base)):
            raise InternalInconsistencyError(
                f"block for multiplicity {h} escapes its fold for A={A}, H={H}"
            )
    return BlockDecomposition(blocks, kind)


@dataclass(frozen=True)
class StructureFacts:
    """Observed structure of one (A, H) pair.

    difference_relation is None when undefined (fewer than 2 elements on
    either side, or either side not a progression).
    """

    h_is_ap: bool
    h_difference: int | None
    h_shifted_interval: bool
    a_is_ap: bool
    a_difference: int | None
    a_dilated_interval: bool
    difference_relation: bool | None


@dataclass(frozen=True)
class InverseVerdict:
    """Outcome of one inverse check.

    consistent is False exactly when an equality case satisfying the
    hypotheses lacks the predicted structure -- a counterexample to the
    catalog. Equality cases outside the hypotheses that also lack the
    structure are the allowed non-structured boundary cases.
    """

    kind: SumsetKind
    set_class: SetClass
    computed_size: int
    bound_value: int
    bound_applicable: bool
    equality_holds: bool
    hypotheses_hold: bool
    reasons: tuple[str, ...]
    rule: str
    structure_predicted: tuple[str, ...]
    structure_observed: StructureFacts
    structure_matches: bool
    consistent: bool

    @property
    def is_nonstructured_equality(self) -> bool:
        return self.equality_holds and not self.hypotheses_hold and not self.structure_matches

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "set_class": self.set_class.value,
            "computed_size": self.computed_size,
            "bound_value": self.bound_value,
            "bound_applicable": self.bound_applicable,
            "equality_holds": self.equality_holds,
            "hypotheses_hold": self.hypotheses_hold,
            "reasons": list(self.reasons),
            "rule": self.rule,
            "structure_predicted": list(self.structure_predicted),
            "structure_observed": asdict(self.structure_observed),
            "structure_matches": self.structure_matches,
            "consistent": self.consistent,
            "nonstructured": self.is_nonstructured_equality,
        }


def _expectation(
    kind: SumsetKind, zero_in: bool, k: int, H: HSet
) -> tuple[str, tuple[str, ...], list[str]]:
    """Rule name, predicted fact names, and unmet-hypothesis reasons."""
    r = len(H)
    reasons: list[str] = []
    if H.is_empty or not H.all_positive:
        reasons.append("multiplicity set must be positive")
    if kind is SumsetKind.ORDINARY and not zero_in:
        if r >= 2:
            rule = "union-positive-inverse"
            predicted = ("h_is_ap", "a_is_ap", "difference_relation")
            if k < 2:
                reasons.append(f"cardinality {k} below 2")
        else:
            rule = "h-fold-inverse"
            predicted = ("a_is_ap",)
            if r == 1 and H.elements[0] < 2:
                reasons.append("multiplicity 1 alone returns the set itself")
    elif kind is SumsetKind.ORDINARY:
        # 0 in A: the largest fold absorbs the union, so only the single-fold
        # progression conclusion has force
        rule = "h-fold-inverse-absorbed"
        predicted = ("a_is_ap",)
        if k < 2:
            reasons.append(f"cardinality {k} below 2")
        if not H.is_empty and H.max < 2:
            reasons.append("largest multiplicity below 2 forces no structure")
    elif not zero_in:
        rule = "union-restricted-positive-inverse"
        predicted = ("h_shifted_interval", "a_dilated_interval")
        if k < 6:
            reasons.append(f"cardinality {k} below 6")
        if r < 2:
            reasons.append(f"multiplicity count {r} below 2")
        if not H.is_empty and H.max > k - 1:
            reasons.append(f"max multiplicity {H.max} above k-1 = {k - 1}")
        if H.elements == (1, k - 1):
            # equality there means max A is the sum of the rest (README proof)
            reasons.append(f"H = {{1, {k - 1}}} forces no dilated interval")
    else:
        rule = "union-restricted-zero-inverse"
        predicted = ("h_shifted_interval", "a_dilated_interval")
        if k < 7:
            reasons.append(f"cardinality {k} below 7")
        if r < 2:
            reasons.append(f"multiplicity count {r} below 2")
        if not H.is_empty and H.max > k - 2:
            reasons.append(f"max multiplicity {H.max} above k-2 = {k - 2}")
    return rule, predicted, reasons


def verdict_h_half(
    kind: SumsetKind, zero_in: bool, k: int, H: HSet, outcome: bounds.BoundOutcome
) -> tuple[str, tuple[str, ...], tuple[str, ...], APDescriptor, bool]:
    """The verdict inputs that do not look at A's elements: rule, predicted
    fact names, unmet-hypothesis reasons, H's progression, whether H is a run."""
    rule, predicted, reasons = _expectation(kind, zero_in, k, H)
    if not outcome.applicable and outcome.reason:
        reasons.append(f"no applicable bound: {outcome.reason}")
    hd = ap_descriptor(H) if H.elements else APDescriptor(True, 0, None)
    return rule, predicted, tuple(reasons), hd, h_shifted_interval(H) is not None


def verdict_a_half(A: IntSet, zero_in: bool) -> tuple[APDescriptor, bool]:
    """The verdict inputs that look at A alone: its progression, whether it
    is a dilated interval."""
    return ap_descriptor(A), is_dilated_interval(A, zero_in) is not None


def build_verdict(
    kind: SumsetKind,
    set_class: SetClass,
    size: int,
    outcome: bounds.BoundOutcome,
    h_half: tuple[str, tuple[str, ...], tuple[str, ...], APDescriptor, bool],
    a_half: tuple[APDescriptor, bool],
    extra_reasons: tuple[str, ...] = (),
) -> InverseVerdict:
    """Assemble the verdict from a precomputed size, bound outcome and the
    two halves of its inputs (verdict_h_half, verdict_a_half), of a
    sign-reduced A. Only the relation between the halves is computed here,
    so the exhaustive verifier builds each half once per row and once per A.
    """
    rule, predicted, reasons, hd, h_run = h_half
    ad, a_dilated = a_half
    # a difference is None unless the set is a progression of 2+ elements
    if hd.difference is not None and ad.difference is not None:
        relation = ad.difference == hd.difference * ad.first
    else:
        relation = None
    observed = StructureFacts(
        h_is_ap=hd.is_ap,
        h_difference=hd.difference,
        h_shifted_interval=h_run,
        a_is_ap=ad.is_ap,
        a_difference=ad.difference,
        a_dilated_interval=a_dilated,
        difference_relation=relation,
    )
    matches = all(bool(getattr(observed, name)) for name in predicted)
    hypotheses = not reasons
    equality = outcome.applicable and size == outcome.value
    consistent = not (equality and hypotheses) or matches
    return InverseVerdict(
        kind=kind,
        set_class=set_class,
        computed_size=size,
        bound_value=outcome.value,
        bound_applicable=outcome.applicable,
        equality_holds=equality,
        hypotheses_hold=hypotheses,
        reasons=extra_reasons + reasons,
        rule=rule,
        structure_predicted=predicted,
        structure_observed=observed,
        structure_matches=matches,
        consistent=consistent,
    )


def check_inverse(A: IntSet, H: HSet, kind: SumsetKind) -> InverseVerdict:
    """Full inverse check: compute the size, the bound, and the verdict."""
    work, set_class = sign_reduce(A)
    extra: tuple[str, ...] = ()
    if work is not A:
        extra = ("reduced by reflection to a nonnegative set",)
    zero_in = work.elements[0] == 0
    size = len(union_sumset(work, H, kind))
    outcome = bounds.catalog_bound(kind, len(work), H, zero_in)
    h_half = verdict_h_half(kind, zero_in, len(work), H, outcome)
    a_half = verdict_a_half(work, zero_in)
    return build_verdict(kind, set_class, size, outcome, h_half, a_half, extra)
