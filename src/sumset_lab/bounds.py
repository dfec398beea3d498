"""Lower-bound formulas for sumset sizes, and their extremal witnesses.

Each formula is an exact integer function of the cardinality k of the base
set and the multiplicity set H. `bound_report` compares a formula against
a union's size for one kind and reports whether the bound is met with
equality; `evaluate` computes each union with the engine and reports every
requested kind. `catalog_bound` is the dispatch used both here and by the
exhaustive verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import SumsetKind, require_kind, union_bitmap
# not called here: bench/spans.HOOKS wraps this name on this module
from .engine import union_sumset  # noqa: F401
from .errors import HypothesisError
from .intset import REFLECTION_NOTE, HSet, IntSet, make_interval, require_int, sign_reduce


@dataclass(frozen=True)
class BoundFormula:
    """Identifier plus parameters of one catalog formula."""

    identifier: str
    k: int
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class BoundOutcome:
    """Applicability and value of the catalog bound for one (kind, class)."""

    applicable: bool
    value: int
    formula: BoundFormula | None
    reason: str | None


@dataclass(frozen=True)
class BoundReport:
    """Comparison of a computed sumset size against the applicable bound.

    When no formula applies, bound_value is 0 and is_equality is False;
    otherwise computed_size >= bound_value always holds and is_equality
    records exact equality.
    """

    kind: SumsetKind
    computed_size: int
    bound_value: int
    formula: BoundFormula | None
    is_equality: bool
    hypotheses_met: bool
    reason: str | None


def bound_h_fold(k: int, h: int) -> int:
    """Minimum size of the h-fold sumset of a k-element integer set."""
    require_int("cardinality", k)
    require_int("multiplicity", h)
    if k < 1 or h < 1:
        raise HypothesisError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    return h * (k - 1) + 1


def bound_h_fold_restricted(k: int, h: int) -> int:
    """Minimum size of the h-fold restricted sumset; needs 1 <= h <= k."""
    require_int("cardinality", k)
    require_int("multiplicity", h)
    if k < 1 or h < 1:
        raise HypothesisError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    if h > k:
        raise HypothesisError(f"restricted multiplicity {h} exceeds cardinality {k}")
    return h * (k - h) + 1


def _require_k(k: int) -> None:
    require_int("cardinality", k)
    if k < 1:
        raise HypothesisError(f"need k >= 1, got {k}")


def _require_formula_inputs(k: int, H: HSet) -> None:
    """The union formulas' preconditions: a nonempty positive H, then k >= 1."""
    if H.is_empty:
        raise HypothesisError("empty multiplicity set")
    if not H.all_positive:
        raise HypothesisError("multiplicity set must be positive for catalog bounds")
    _require_k(k)


def _cap_breach(k: int, hs: tuple[int, ...], zero_in_A: bool) -> str | None:
    """Why increasing hs breaks the restricted cap (h_r <= k, or h_r <= k-1
    when 0 is in A), or None when it does not."""
    cap = k - 1 if zero_in_A else k
    if hs[-1] > cap:
        return f"max multiplicity {hs[-1]} exceeds the cap {cap} for k={k}"
    return None


def bound_union(k: int, H: HSet, zero_in_A: bool) -> int:
    """Minimum size of the union sumset HA over positive multiplicities.

    For sets of k positive integers the value is max(H)*(k-1) + |H|; when
    0 is an element of A every smaller fold is absorbed by the largest one
    and the value drops to max(H)*(k-1) + 1.
    """
    _require_formula_inputs(k, H)
    return _union_value(k, H.elements, zero_in_A)


def _union_value(k: int, hs: tuple[int, ...], zero_in_A: bool) -> int:
    """bound_union on checked inputs."""
    return hs[-1] * (k - 1) + (1 if zero_in_A else len(hs))


def bound_union_restricted(k: int, H: HSet, zero_in_A: bool) -> int:
    """Minimum size of the restricted union sumset over positive H.

    With h_0 = 0 and H = {h_1 < ... < h_r}:
      positive A:   sum_i (h_i - h_{i-1}) * (k - h_i)     + r,  h_r <= k
      0 in A:       sum_i (h_i - h_{i-1}) * (k - h_i - 1) + h_1 + r,  h_r <= k-1
    """
    _require_formula_inputs(k, H)
    hs = H.elements
    breach = _cap_breach(k, hs, zero_in_A)
    if breach:
        raise HypothesisError(breach)
    return _restricted_value(k, hs, zero_in_A)


def _restricted_value(k: int, hs: tuple[int, ...], zero_in_A: bool) -> int:
    """bound_union_restricted on checked inputs, within the cap."""
    total = 0
    prev = 0
    for h in hs:
        total += (h - prev) * (k - h - (1 if zero_in_A else 0))
        prev = h
    if zero_in_A:
        total += hs[0]
    return total + len(hs)


def catalog_bound(kind: SumsetKind, k: int, H: HSet, zero_in_A: bool) -> BoundOutcome:
    """Select and evaluate the applicable formula, or explain why none is.

    A multiplicity 0 in H is stripped when 0 is an element of A (the 0-fold
    contributes only {0}, which the positive folds already cover, so the
    union is literally unchanged); with 0 outside A no catalog formula
    covers the enlarged union and the outcome is inapplicable. Each input
    is checked once, here, before the formula's value.
    """
    require_kind(kind)
    _require_k(k)
    hs = H.elements
    note = None
    if not hs:
        return BoundOutcome(False, 0, None, "empty multiplicity set")
    if hs[0] == 0:
        if len(hs) == 1:
            return BoundOutcome(False, 0, None, "H = {0} has no applicable bound")
        if not zero_in_A:
            return BoundOutcome(
                False, 0, None, "0 in H with 0 not in A is outside the catalog"
            )
        hs = hs[1:]
        note = "multiplicity 0 stripped (contributes nothing when 0 is in A)"
    if kind is SumsetKind.ORDINARY:
        value = _union_value(k, hs, zero_in_A)
        ident = "union-zero" if zero_in_A else "union-positive"
    else:
        breach = _cap_breach(k, hs, zero_in_A)
        if breach:
            return BoundOutcome(False, 0, None, breach)
        value = _restricted_value(k, hs, zero_in_A)
        ident = "union-restricted-zero" if zero_in_A else "union-restricted-positive"
    return BoundOutcome(True, value, BoundFormula(ident, k, hs), note)


def extremal_example(
    k: int, r: int, kind: SumsetKind, zero_in_A: bool
) -> tuple[IntSet, HSet]:
    """The witness pair achieving the corresponding bound with equality.

    Positive case: A = [1, k] with H = [1, r]; zero case: A = [0, k-1].
    Raises HypothesisError with the catalog's reason when no formula
    applies to (kind, k, H, zero_in_A).
    """
    H = HSet(tuple(range(1, r + 1)))
    outcome = catalog_bound(kind, k, H, zero_in_A)
    if not outcome.applicable:
        raise HypothesisError(f"no {kind.value} witness with r={r}: {outcome.reason}")
    A = make_interval(0, k - 1) if zero_in_A else make_interval(1, k)
    return A, H


def bound_report(A: IntSet, H: HSet, kind: SumsetKind, size: int) -> BoundReport:
    """The size-vs-bound report for one kind, given the union's size.

    Sign-homogeneous negative sets are reduced by reflection (sizes are
    invariant under dilation by -1); mixed-sign sets are refused since no
    catalog formula covers them.
    """
    work, _ = sign_reduce(A)
    return _reduced_report(work, work is not A, H, kind, size)


def _reduced_report(
    work: IntSet, reflected: bool, H: HSet, kind: SumsetKind, size: int
) -> BoundReport:
    """bound_report for the sign-reduced set work; reflected says whether it
    came from a negative set, which the reason then notes."""
    outcome = catalog_bound(kind, len(work), H, work.elements[0] == 0)
    reason = outcome.reason
    if reflected:
        reason = REFLECTION_NOTE if reason is None else f"{REFLECTION_NOTE}; {reason}"
    return BoundReport(
        kind=kind,
        computed_size=size,
        bound_value=outcome.value,
        formula=outcome.formula,
        is_equality=outcome.applicable and size == outcome.value,
        hypotheses_met=outcome.applicable,
        reason=reason,
    )


def evaluate(
    A: IntSet, H: HSet, kinds: tuple[SumsetKind, ...] | None = None
) -> list[BoundReport]:
    """Size-vs-bound reports for (A, H), one per requested kind (see
    bound_report); A is sign-reduced once, and each union is computed on the
    reduced set and sized by popcount."""
    if isinstance(kinds, (SumsetKind, str)):
        raise TypeError(f"kinds must be a sequence of SumsetKind, got {kinds!r}")
    work, _ = sign_reduce(A)
    reflected = work is not A
    if kinds is None:
        kinds = (SumsetKind.ORDINARY, SumsetKind.RESTRICTED)
    return [
        _reduced_report(work, reflected, H, kind, len(union_bitmap(work, H, kind)))
        for kind in kinds
    ]
