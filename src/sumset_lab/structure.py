"""Structural analysis of equality cases.

Detects the three structure families that minimal sumsets force (arithmetic
progressions, dilated intervals, runs of consecutive multiplicities), builds
the block decompositions whose disjoint union realizes each lower bound, and
packages the inverse checks: when a size meets its bound exactly and the
hypotheses hold, the predicted structure must be present.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import NamedTuple

from . import bounds
from .engine import SumBitmap, SumsetKind, check_rungs, extend_ladder, union_sumset
# not called here: bench/spans.HOOKS wraps these names on this module
from .engine import h_fold, h_fold_restricted  # noqa: F401
from .errors import HypothesisError, InternalInconsistencyError, UnsupportedClassError
from .intset import REFLECTION_NOTE, HSet, IntSet, SetClass, classify, sign_reduce


class APDescriptor(NamedTuple):
    """Whether a set is an arithmetic progression.

    Sets with at most 2 elements always count; the difference is None for
    singletons and for non-progressions.
    """

    is_ap: bool
    first: int
    difference: int | None


def ap_descriptor(A: IntSet) -> APDescriptor:
    if A.is_empty:
        raise HypothesisError("empty set has no progression structure")
    return _progression(A.elements)


def _progression(elements: tuple[int, ...]) -> APDescriptor:
    """ap_descriptor of a nonempty increasing tuple."""
    if len(elements) == 1:
        return APDescriptor(True, elements[0], None)
    d = elements[1] - elements[0]
    for i in range(2, len(elements)):
        if elements[i] - elements[i - 1] != d:
            return APDescriptor(False, elements[0], None)
    return APDescriptor(True, elements[0], d)


def _dilation(ad: APDescriptor, include_zero: bool) -> int | None:
    """The d with the progression ad = d*[1,k] (or d*[0,k-1] when
    include_zero), else None: an AP of difference d starting at d (or 0)."""
    if not ad.is_ap:
        return None
    # a singleton {a} is a*[1,1]; {0} is d*[0,0] for every d, report the least
    d = ad.difference or (1 if include_zero else ad.first)
    return d if ad.first == (0 if include_zero else d) else None


def is_dilated_interval(A: IntSet, include_zero: bool) -> int | None:
    """The d with A = d*[1,k] (or d*[0,k-1] when include_zero), else None."""
    set_class = classify(A)
    if include_zero and set_class is not SetClass.ZERO_REST_POSITIVE:
        raise UnsupportedClassError(
            f"expected a zero-plus-positives set, got {set_class.value}"
        )
    if not include_zero and set_class is not SetClass.ALL_POSITIVE:
        raise UnsupportedClassError(
            f"expected an all-positive set, got {set_class.value}"
        )
    return _dilation(ap_descriptor(A), include_zero)


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

    Block 1 is the smallest fold itself. Each later block advances from the
    previous fold's maximum: the block of h after prev is rung h - prev of
    the ladder of the m smallest elements of A, shifted by prev*max(A) with
    m = k (ordinary), or by the sum of the prev largest with m = k - prev
    (restricted, so the summands stay pairwise distinct). One fold of
    extend_ladder over A's elements passes the ladder of every m smallest on
    its way to the ladder of A, behind one guard over rungs 0..max(H), and
    each block is read off as the fold passes its m.
    Both invariants -- strictly increasing disjointness and containment of
    block i in the h_i-fold -- are checked on the bit vectors; a failure
    would falsify the construction and raises an internal error. Each block
    is decoded once, for the return value.
    """
    if classify(A) is not SetClass.ALL_POSITIVE:
        raise HypothesisError("block construction requires an all-positive set")
    if not H.all_positive:
        raise HypothesisError("block construction requires positive multiplicities")
    k = len(A)
    restricted = kind is SumsetKind.RESTRICTED
    if restricted and H.max > k:
        raise HypothesisError(
            f"restricted blocks need max multiplicity <= {k}, got {H.max}"
        )
    # A > 0, so the guard on A's rungs bounds every prefix rung as well
    check_rungs(A, range(H.max + 1), kind)
    t = A.min
    reads = {}  # m: the blocks (h, rung, shift) read off the ladder of the m smallest
    for h, prev in zip(H.elements, (0,) + H.elements[:-1]):
        shift = (h - prev) * t + (sum(A.elements[k - prev :]) if restricted else prev * A.max)
        reads.setdefault(k - prev if restricted else k, []).append((h, h - prev, shift))
    rungs = [1] + [0] * H.max
    picked = {}
    for m, a in enumerate(A.elements, 1):
        extend_ladder(rungs, a - t, kind)
        for h, rung, shift in reads.get(m, ()):
            picked[h] = SumBitmap(shift, rungs[rung])
    # rungs is now the ladder of A
    bitmaps = [picked[h] for h in H.elements]
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
        """plain_fields, then the nonstructured flag."""
        data = plain_fields(self)
        data["nonstructured"] = self.is_nonstructured_equality
        return data


def plain_fields(instance) -> dict:
    """A dataclass's fields in declaration order, ready for JSON: enums as
    their values and tuples as lists, element by element; a nested
    dataclass becomes a dict of its fields."""
    return {name: _plain(value) for name, value in asdict(instance).items()}


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# verdict_a_half of every set that is not a progression
NON_PROGRESSION_A_HALF = (False, None, None, False)


def verdict_a_half(
    elements: tuple[int, ...], zero_in: bool
) -> tuple[bool, int | None, int | None, bool]:
    """The verdict inputs that look at A alone, from the increasing elements
    of a sign-reduced set: is it a progression, its difference d, its ratio,
    is it a dilated interval. The ratio is d // first when the first element
    divides d, 0 when it does not, and None when there is no difference;
    since every H difference is at least 1, it equals H's difference d_H
    exactly when d = d_H * first, the difference relation. So progressions
    of one d and ratio share a tuple whatever their first element, and in
    one row equal tuples give equal verdicts to equality cases. A set of
    k >= 3 whose span is not (k-1) times its first gap is no progression:
    it takes the non-progression half before any gap is walked."""
    k = len(elements)
    if k > 2 and elements[-1] - elements[0] != (k - 1) * (elements[1] - elements[0]):
        return NON_PROGRESSION_A_HALF
    ad = _progression(elements)
    if not ad.is_ap:
        return NON_PROGRESSION_A_HALF
    d, first = ad.difference, ad.first
    ratio = None if d is None else d // first if first and not d % first else 0
    return ad.is_ap, d, ratio, _dilation(ad, zero_in) is not None


# rule, predicted fact names, unmet hypotheses, H's progression, H is a run
HHalf = tuple[str, tuple[str, ...], tuple[str, ...], APDescriptor, bool]


def verdict_h_half(
    kind: SumsetKind, zero_in: bool, k: int, H: HSet, outcome: bounds.BoundOutcome
) -> HHalf:
    """The verdict inputs that look at the row alone (kind, 0 in A, k, H and
    its bound outcome): the rule, its predicted fact names, the unmet
    hypotheses, H's progression, whether H is a run."""
    r = len(H)
    reasons: list[str] = []
    if not H.all_positive:
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
            if H.elements == (1,):
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
    if not outcome.applicable and outcome.reason:
        reasons.append(f"no applicable bound: {outcome.reason}")
    hd = ap_descriptor(H) if H.elements else APDescriptor(True, 0, None)
    return rule, predicted, tuple(reasons), hd, h_shifted_interval(H) is not None


FACT_NAMES = tuple(f.name for f in fields(StructureFacts))
_FACT_INDEX = {name: i for i, name in enumerate(FACT_NAMES)}
FLAG_NAMES = ("hypotheses_hold", "structure_matches", "consistent", "nonstructured")


def judge(
    size: int, outcome: bounds.BoundOutcome, h_half: HHalf, a_half: tuple
) -> tuple[bool, tuple[bool, bool, bool, bool], tuple]:
    """The inverse rule, from a union's size, its bound outcome, the row's
    half (verdict_h_half) and A's half (verdict_a_half): (equality, the
    FLAG_NAMES values, the FACT_NAMES values). build_verdict wraps them in
    dataclasses; the exhaustive verifier builds none. The difference
    relation d_A = d_H * min A is A's ratio == d_H (see verdict_a_half)."""
    rule, predicted, reasons, hd, h_run = h_half
    a_is_ap, a_difference, a_ratio, a_dilated = a_half
    # a difference, and so a ratio, is None unless the set is a progression
    # of 2+ elements
    if hd.difference is not None and a_ratio is not None:
        relation = a_ratio == hd.difference
    else:
        relation = None
    observed = (hd.is_ap, hd.difference, h_run, a_is_ap, a_difference, a_dilated, relation)
    matches = all([observed[_FACT_INDEX[name]] for name in predicted])
    hypotheses = not reasons
    equality = outcome.applicable and size == outcome.value
    consistent = not (equality and hypotheses) or matches
    nonstructured = equality and not hypotheses and not matches
    return equality, (hypotheses, matches, consistent, nonstructured), observed


def build_verdict(
    kind: SumsetKind,
    set_class: SetClass,
    size: int,
    outcome: bounds.BoundOutcome,
    h_half: HHalf,
    a_half: tuple,
    extra_reasons: tuple[str, ...] = (),
) -> InverseVerdict:
    """Assemble the verdict of a sign-reduced A from its union's size, its
    bound outcome, the row's half (verdict_h_half) and A's half
    (verdict_a_half), as judge decides it."""
    equality, flags, observed = judge(size, outcome, h_half, a_half)
    hypotheses, matches, consistent, _ = flags
    return InverseVerdict(
        kind=kind,
        set_class=set_class,
        computed_size=size,
        bound_value=outcome.value,
        bound_applicable=outcome.applicable,
        equality_holds=equality,
        hypotheses_hold=hypotheses,
        reasons=extra_reasons + h_half[2],
        rule=h_half[0],
        structure_predicted=h_half[1],
        structure_observed=StructureFacts(*observed),
        structure_matches=matches,
        consistent=consistent,
    )


def check_inverse(A: IntSet, H: HSet, kind: SumsetKind) -> InverseVerdict:
    """Full inverse check: compute the size, the bound, and the verdict."""
    work, set_class = sign_reduce(A)
    extra: tuple[str, ...] = ()
    if work is not A:
        extra = (REFLECTION_NOTE,)
    zero_in = work.elements[0] == 0
    k = len(work)
    size = len(union_sumset(work, H, kind))
    outcome = bounds.catalog_bound(kind, k, H, zero_in)
    h_half = verdict_h_half(kind, zero_in, k, H, outcome)
    a_half = verdict_a_half(work.elements, zero_in)
    return build_verdict(kind, set_class, size, outcome, h_half, a_half, extra)
