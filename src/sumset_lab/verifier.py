"""Exhaustive verification of the bound catalog over a bounded universe.

Enumerates every (A, H, kind) pair in a search space, checks each computed
size against its catalog bound, runs the inverse check on every equality
case, and folds everything into a machine-readable report. A bound depends
on (kind, k, H, 0 in A) only, so each chunk looks it up once per (k,
zero-mode) block, with the H half of the verdict, and reads that table for
every A. Each A's union sizes come from one table of prefix unions, one OR
and one popcount per H; only pairs that reach their bound go further, and
the A half of the verdict is built once per A. Work is split into
contiguous chunks of the A-enumeration by combinatorial rank; chunk
boundaries are independent of the worker count and partial results merge in
rank order, so the report is byte-identical no matter how many workers ran.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, islice
from math import comb
from typing import Iterator

from . import bounds
from .engine import SumsetKind, sumset_ladder
from .errors import SpaceTooLargeError
from .intset import HSet, IntSet, SetClass, format_elements, parse_elements
from .structure import InverseVerdict, build_verdict, verdict_a_half, verdict_h_half

REPORT_VERSION = "sumset-lab-report/1"
DEFAULT_PAIR_CAP = 10**8
DEFAULT_CASE_CAP = 10**5

# A-sets per work chunk; fixed so that chunking never depends on worker count
_CHUNK_A_TASKS = 64


class ZeroMode(Enum):
    """Whether enumerated sets are all-positive, contain 0, or both.

    Without zero, A ranges over k-subsets of [1, N]; with zero, A is {0}
    plus a (k-1)-subset of [1, N-1], so both modes draw from an N-element
    universe and k always counts every element of A.
    """

    WITHOUT = "without-zero"
    WITH = "with-zero"
    BOTH = "both"

    def modes(self) -> tuple[ZeroMode, ...]:
        if self is ZeroMode.BOTH:
            return (ZeroMode.WITHOUT, ZeroMode.WITH)
        return (self,)


@dataclass(frozen=True)
class SearchSpace:
    universe_max: int
    k_range: tuple[int, int]
    h_max: int
    r_range: tuple[int, int]
    kinds: tuple[SumsetKind, ...] = (SumsetKind.ORDINARY, SumsetKind.RESTRICTED)
    zero_mode: ZeroMode = ZeroMode.WITHOUT

    def __post_init__(self) -> None:
        if self.universe_max < 1:
            raise ValueError("universe_max must be at least 1")
        if self.h_max < 1:
            raise ValueError("h_max must be at least 1")
        if not self.kinds or len(set(self.kinds)) != len(self.kinds):
            raise ValueError("kinds must be nonempty and distinct")

    def k_values(self) -> range:
        return range(max(1, self.k_range[0]), self.k_range[1] + 1)

    def r_values(self) -> range:
        return range(max(1, self.r_range[0]), min(self.h_max, self.r_range[1]) + 1)

    def a_blocks(self) -> list[tuple[ZeroMode, int, tuple[int, ...], int, int]]:
        """(mode, k, positive universe, pick count, block size) per k-block."""
        blocks = []
        for mode in self.zero_mode.modes():
            if mode is ZeroMode.WITHOUT:
                universe = tuple(range(1, self.universe_max + 1))
            else:
                universe = tuple(range(1, self.universe_max))
            for k in self.k_values():
                pick = k if mode is ZeroMode.WITHOUT else k - 1
                blocks.append((mode, k, universe, pick, comb(len(universe), pick)))
        return blocks

    def a_task_count(self) -> int:
        return sum(block[4] for block in self.a_blocks())

    def h_subset_count(self) -> int:
        return sum(comb(self.h_max, r) for r in self.r_values())

    def enumeration_count(self) -> int:
        return self.a_task_count() * self.h_subset_count() * len(self.kinds)

    def to_dict(self) -> dict:
        return {
            "universe_max": self.universe_max,
            "k_range": list(self.k_range),
            "h_max": self.h_max,
            "r_range": list(self.r_range),
            "kinds": [kind.value for kind in self.kinds],
            "zero_mode": self.zero_mode.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> SearchSpace:
        return cls(
            universe_max=data["universe_max"],
            k_range=tuple(data["k_range"]),
            h_max=data["h_max"],
            r_range=tuple(data["r_range"]),
            kinds=tuple(SumsetKind(v) for v in data["kinds"]),
            zero_mode=ZeroMode(data["zero_mode"]),
        )


def _unrank_combination(n: int, k: int, rank: int) -> list[int]:
    """0-based indices of the rank-th k-combination of range(n), lex order."""
    idx = []
    v = 0
    for i in range(k):
        while True:
            c = comb(n - v - 1, k - i - 1)
            if rank < c:
                break
            rank -= c
            v += 1
        idx.append(v)
        v += 1
    return idx


def _combinations_from(
    universe: tuple[int, ...], k: int, start_rank: int
) -> Iterator[tuple[int, ...]]:
    """k-subsets of universe in lex order, starting at the given rank."""
    n = len(universe)
    if k == 0:
        if start_rank == 0:
            yield ()
        return
    if k > n or start_rank >= comb(n, k):
        return
    idx = _unrank_combination(n, k, start_rank)
    while True:
        yield tuple(universe[i] for i in idx)
        j = k - 1
        while j >= 0 and idx[j] == n - k + j:
            j -= 1
        if j < 0:
            return
        idx[j] += 1
        for m in range(j + 1, k):
            idx[m] = idx[m - 1] + 1


def _a_tasks(
    space: SearchSpace, start: int, end: int
) -> Iterator[tuple[bool, int, Iterator[tuple[int, ...]]]]:
    """(0 in A, k, A-sets in enumeration order) per k-block in [start, end)."""
    base = 0
    for mode, k, universe, pick, count in space.a_blocks():
        if base + count > start and base < end:
            local_start = max(0, start - base)
            combos = islice(
                _combinations_from(universe, pick, local_start),
                min(count, end - base) - local_start,
            )
            zero_in = mode is ZeroMode.WITH
            yield zero_in, k, (map((0,).__add__, combos) if zero_in else combos)
        base += count


def enumerate_pairs(
    space: SearchSpace, pair_cap: int = DEFAULT_PAIR_CAP
) -> Iterator[tuple[IntSet, HSet, SumsetKind]]:
    """Every pair exactly once, ordered by (zero mode, k, A, r, H, kind)."""
    count = space.enumeration_count()
    if count > pair_cap:
        raise SpaceTooLargeError(
            f"enumeration would visit {count} pairs, above the cap {pair_cap}"
        )
    h_sets = [
        HSet(h_combo)
        for r in space.r_values()
        for h_combo in combinations(range(1, space.h_max + 1), r)
    ]
    for _zero_in, _k, a_sets in _a_tasks(space, 0, space.a_task_count()):
        for elements in a_sets:
            A = IntSet(elements)
            for H in h_sets:
                for kind in space.kinds:
                    yield A, H, kind


@dataclass
class _Cases:
    """A complete count and the first case_cap records behind it."""

    count: int = 0
    records: list = field(default_factory=list)

    def add(self, record: dict, case_cap: int) -> None:
        self.count += 1
        if len(self.records) < case_cap:
            self.records.append(record)

    def extend(self, other: _Cases) -> None:
        self.count += other.count
        self.records.extend(other.records)


@dataclass
class _Partial:
    pairs: int = 0
    violations: _Cases = field(default_factory=_Cases)
    equality: _Cases = field(default_factory=_Cases)
    nonstructured: _Cases = field(default_factory=_Cases)
    inconsistencies: _Cases = field(default_factory=_Cases)


def case_record(
    a_text: str,
    h_text: str,
    kind: SumsetKind,
    zero_in: bool,
    size: int,
    bound: int,
    verdict: InverseVerdict,
) -> dict:
    obs = verdict.structure_observed
    return {
        "a": a_text,
        "h": h_text,
        "kind": kind.value,
        "zero_in_a": zero_in,
        "size": size,
        "bound": bound,
        "hypotheses_hold": verdict.hypotheses_hold,
        "structure_matches": verdict.structure_matches,
        "consistent": verdict.consistent,
        "nonstructured": verdict.is_nonstructured_equality,
        "rule": verdict.rule,
        "h_is_ap": obs.h_is_ap,
        "h_difference": obs.h_difference,
        "h_shifted_interval": obs.h_shifted_interval,
        "a_is_ap": obs.a_is_ap,
        "a_difference": obs.a_difference,
        "a_dilated_interval": obs.a_dilated_interval,
        "difference_relation": obs.difference_relation,
    }


def _run_chunk(args: tuple[SearchSpace, int, int, int]) -> _Partial:
    space, start, end, case_cap = args
    acc = _Partial()
    # prefix plan: (parent index, last h) for every H in [1, h_max] with
    # 1 <= |H| <= the largest r, each after its prefix; union 0 is the empty H
    plan, index = [], {(): 0}
    for r in range(1, max(space.r_values(), default=0) + 1):
        for h_combo in combinations(range(1, space.h_max + 1), r):
            index[h_combo] = len(plan) + 1
            plan.append((index[h_combo[:-1]], h_combo[-1]))
    first_row = len(plan) + 1 - space.h_subset_count()
    row_combos = list(index)[first_row:]  # the rows are the plan's tail
    n_kinds = len(space.kinds)
    for zero_in, k, a_sets in _a_tasks(space, start, end):
        set_class = SetClass.ZERO_REST_POSITIVE if zero_in else SetClass.ALL_POSITIVE
        # the block's (H, kind) slots, built per call (not cached): patched
        # formulas show; limits holds each bound, or -1 where none applies
        rows, limits = [], []
        for h_combo in row_combos:
            H = HSet(h_combo)
            h_text = format_elements(h_combo)
            for kind in space.kinds:
                outcome = bounds.catalog_bound(kind, k, H, zero_in)
                if outcome.applicable:
                    h_half = verdict_h_half(kind, zero_in, k, H, outcome)
                    rows.append((h_text, kind, outcome, h_half))
                    limits.append(outcome.value)
                else:
                    rows.append(None)
                    limits.append(-1)
        for elements in a_sets:
            acc.pairs += len(rows)
            A = IntSet(elements)
            sizes = [0] * len(rows)
            for j, kind in enumerate(space.kinds):
                # A >= 0, so every offset h*min(A) is too: rungs as absolute vectors
                ladder = sumset_ladder(A, space.h_max, kind)
                rungs = [rung.bits << rung.offset for rung in ladder]
                unions = [0]
                for parent, h in plan:
                    unions.append(unions[parent] | rungs[h])
                sizes[j::n_kinds] = map(int.bit_count, unions[first_row:])
            hits = [i for i, size in enumerate(sizes) if size <= limits[i]]
            if not hits:
                continue
            a_text = format_elements(elements)
            a_half = verdict_a_half(A, zero_in)
            for i in hits:
                h_text, kind, outcome, h_half = rows[i]
                size = sizes[i]
                if size < outcome.value:
                    acc.violations.add(
                        {
                            "a": a_text,
                            "h": h_text,
                            "kind": kind.value,
                            "zero_in_a": zero_in,
                            "size": size,
                            "bound": outcome.value,
                            "formula": outcome.formula.identifier,
                        },
                        case_cap,
                    )
                else:
                    verdict = build_verdict(
                        kind, set_class, size, outcome, h_half, a_half
                    )
                    record = case_record(
                        a_text, h_text, kind, zero_in, size, outcome.value, verdict
                    )
                    acc.equality.add(record, case_cap)
                    if verdict.is_nonstructured_equality:
                        acc.nonstructured.add(record, case_cap)
                    if not verdict.consistent:
                        acc.inconsistencies.add(record, case_cap)
    return acc


@dataclass
class VerificationReport:
    """Outcome of one exhaustive run.

    Violation and inconsistency lists must be empty on every space the
    catalog covers; a nonempty list is a counterexample. Case lists are
    bounded by equality_case_cap (counts are always complete). Wall time is
    informational and deliberately left out of the serialized form so that
    reports are comparable byte for byte.
    """

    space: SearchSpace
    pairs_checked: int
    enumeration_count: int
    bound_violation_count: int
    bound_violations: list
    equality_case_count: int
    equality_cases: list
    allowed_nonstructured_count: int
    allowed_nonstructured_equalities: list
    inverse_inconsistency_count: int
    inverse_inconsistencies: list
    equality_case_cap: int
    wall_time_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return self.bound_violation_count == 0 and self.inverse_inconsistency_count == 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "space": self.space.to_dict(),
            "enumeration_count": self.enumeration_count,
            "pairs_checked": self.pairs_checked,
            "bound_violation_count": self.bound_violation_count,
            "bound_violations": self.bound_violations,
            "equality_case_count": self.equality_case_count,
            "equality_cases": self.equality_cases,
            "allowed_nonstructured_count": self.allowed_nonstructured_count,
            "allowed_nonstructured_equalities": self.allowed_nonstructured_equalities,
            "inverse_inconsistency_count": self.inverse_inconsistency_count,
            "inverse_inconsistencies": self.inverse_inconsistencies,
            "equality_case_cap": self.equality_case_cap,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> VerificationReport:
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {data.get('version')!r}")
        return cls(
            space=SearchSpace.from_dict(data["space"]),
            pairs_checked=data["pairs_checked"],
            enumeration_count=data["enumeration_count"],
            bound_violation_count=data["bound_violation_count"],
            bound_violations=data["bound_violations"],
            equality_case_count=data["equality_case_count"],
            equality_cases=data["equality_cases"],
            allowed_nonstructured_count=data["allowed_nonstructured_count"],
            allowed_nonstructured_equalities=data["allowed_nonstructured_equalities"],
            inverse_inconsistency_count=data["inverse_inconsistency_count"],
            inverse_inconsistencies=data["inverse_inconsistencies"],
            equality_case_cap=data["equality_case_cap"],
        )

    @classmethod
    def from_json(cls, text: str) -> VerificationReport:
        return cls.from_dict(json.loads(text))


def _pool_size(workers: int | None, chunks: int) -> int:
    """Worker processes to start: the request (default: the CPUs this
    process may run on), never more than those CPUs, never more than one
    per chunk and never fewer than one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if workers is None:
        workers = cpus
    return max(1, min(workers, cpus, chunks))


def verify(
    space: SearchSpace,
    workers: int | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    case_cap: int = DEFAULT_CASE_CAP,
) -> VerificationReport:
    """Check every pair in the space; see VerificationReport for semantics."""
    if case_cap < 0:
        raise ValueError(f"case cap must be nonnegative, got {case_cap}")
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    started = time.perf_counter()
    expected = space.enumeration_count()
    if expected > pair_cap:
        raise SpaceTooLargeError(
            f"enumeration would visit {expected} pairs, above the cap {pair_cap}"
        )
    total_a = space.a_task_count()
    chunk_args = [
        (space, start, min(start + _CHUNK_A_TASKS, total_a), case_cap)
        for start in range(0, total_a, _CHUNK_A_TASKS)
    ]
    processes = _pool_size(workers, len(chunk_args))
    if processes == 1:
        partials = [_run_chunk(args) for args in chunk_args]
    else:
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=processes) as pool:
            partials = pool.map(_run_chunk, chunk_args)
    merged = _Partial()
    for part in partials:
        merged.pairs += part.pairs
        merged.violations.extend(part.violations)
        merged.equality.extend(part.equality)
        merged.nonstructured.extend(part.nonstructured)
        merged.inconsistencies.extend(part.inconsistencies)
    return VerificationReport(
        space=space,
        pairs_checked=merged.pairs,
        enumeration_count=expected,
        bound_violation_count=merged.violations.count,
        bound_violations=merged.violations.records[:case_cap],
        equality_case_count=merged.equality.count,
        equality_cases=merged.equality.records[:case_cap],
        allowed_nonstructured_count=merged.nonstructured.count,
        allowed_nonstructured_equalities=merged.nonstructured.records[:case_cap],
        inverse_inconsistency_count=merged.inconsistencies.count,
        inverse_inconsistencies=merged.inconsistencies.records[:case_cap],
        equality_case_cap=case_cap,
        wall_time_seconds=time.perf_counter() - started,
    )


def find_extremal(
    space: SearchSpace,
    workers: int | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    case_cap: int = DEFAULT_CASE_CAP,
) -> list[dict]:
    """All equality cases grouped by (k, r, kind), each with its structure.

    Group contents come from the equality case list of a verify run over the
    same space. Raises ValueError when case_cap truncated that list, since
    groups built from it would be silently partial.
    """
    report = verify(space, workers=workers, pair_cap=pair_cap, case_cap=case_cap)
    if report.equality_case_count > len(report.equality_cases):
        raise ValueError(
            f"{report.equality_case_count} equality cases but only"
            f" {len(report.equality_cases)} kept under the case cap;"
            " raise --case-cap to group them all"
        )
    groups: dict[tuple[int, int, str], list] = {}
    for record in report.equality_cases:
        key = (
            len(parse_elements(record["a"])),
            len(parse_elements(record["h"])),
            record["kind"],
        )
        groups.setdefault(key, []).append(record)
    return [
        {"k": k, "r": r, "kind": kind, "cases": cases}
        for (k, r, kind), cases in sorted(groups.items())
    ]
