"""Exhaustive verification of the bound catalog over a bounded universe.

Enumerates every (A, H, kind) pair in a search space, checks each computed
size against its catalog bound, runs the inverse check on every equality
case, and folds everything into a machine-readable report. A bound depends
on (kind, k, H, 0 in A) only, so each chunk looks it up once per (k,
zero-mode) block and reads that table for every A. Each A's union sizes
come from one table of prefix unions, one OR and one popcount per H; only
pairs that reach their bound go further, and the A half of the verdict is
built once per A. An equality case's size is its row's bound, so its
verdict and record depend on the row and A's half alone: each block builds
them, H's facts included, once per (row, A's half) and copies the record
with each A's text. Work is split into contiguous chunks of the
A-enumeration by combinatorial rank, and each chunk resumes at its rank
with itertools.combinations; chunk boundaries are independent of the worker
count and chunk results merge in rank order as they finish, so the report
is byte-identical no matter how many workers ran. Chunks run in process or
on a ProcessPoolExecutor, where a worker that dies raises BrokenProcessPool
instead of leaving the run waiting. Each case list stops at the case cap,
in a chunk and in the merge alike, so memory follows the cap rather than
the number of cases.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, combinations, compress, islice
from math import comb, log10
from operator import le
from typing import Iterable, Iterator

from . import bounds
from .engine import SumsetKind, require_kind, sumset_ladder
from .errors import SpaceTooLargeError
from .intset import HSet, IntSet, SetClass, format_elements, parse_elements
from .structure import InverseVerdict, build_verdict, plain_fields, verdict_a_half

REPORT_VERSION = "sumset-lab-report/1"
DEFAULT_PAIR_CAP = 10**8
DEFAULT_CASE_CAP = 10**5

# A-sets per work chunk; fixed so that chunking never depends on worker count
_CHUNK_A_TASKS = 64
# chunks per pool message: a message costs the parent about 0.3 ms of CPU
# (0.1 s for the 109 messages of the N=16 deep space, 2 workers), and each
# holds up to this many unmerged chunk results in the parent
_CHUNKS_PER_MESSAGE = 8


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
    """Every (A, H, kind): A a k-subset of [1, universe_max] (see ZeroMode for
    0), H an r-subset of [1, h_max], k in k_range and r in r_range (inclusive).
    A nonempty k_range must start at 1 or above and a nonempty r_range must lie
    in 1..h_max (else ValueError); an empty range (lo > hi) gives an empty space."""

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
        for kind in self.kinds:
            require_kind(kind)
        if not isinstance(self.zero_mode, ZeroMode):
            raise TypeError(f"zero_mode must be a ZeroMode, got {self.zero_mode!r}")
        if not self.kinds or len(set(self.kinds)) != len(self.kinds):
            raise ValueError("kinds must be nonempty and distinct")
        (k_lo, k_hi), (r_lo, r_hi) = self.k_range, self.r_range
        if k_lo <= k_hi and k_lo < 1:
            raise ValueError(f"k_range {k_lo}..{k_hi} starts below 1")
        if r_lo <= r_hi and (r_lo < 1 or r_hi > self.h_max):
            raise ValueError(f"r_range {r_lo}..{r_hi} reaches outside 1..h_max={self.h_max}")

    def k_values(self) -> range:
        return range(self.k_range[0], self.k_range[1] + 1)

    def r_values(self) -> range:
        return range(self.r_range[0], self.r_range[1] + 1)

    def a_blocks(self) -> list[tuple[ZeroMode, int, tuple[int, ...], int, int]]:
        """(mode, k, positive universe, pick count, block size) per k-block."""
        blocks = []
        for mode in self.zero_mode.modes():
            if mode is ZeroMode.WITHOUT:
                universe = tuple(range(1, self.universe_max + 1))
            else:
                universe = tuple(range(1, self.universe_max))
            ks = self.k_values()
            picks = ks if mode is ZeroMode.WITHOUT else range(ks.start - 1, ks.stop - 1)
            for k, pick, count in zip(ks, picks, _binomials(len(universe), picks)):
                blocks.append((mode, k, universe, pick, count))
        return blocks

    def a_task_count(self) -> int:
        return sum(block[4] for block in self.a_blocks())

    def h_subset_count(self) -> int:
        return sum(_binomials(self.h_max, self.r_values()))

    def enumeration_count(self) -> int:
        return self.a_task_count() * self.h_subset_count() * len(self.kinds)

    def to_dict(self) -> dict:
        return plain_fields(self)

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


def _binomials(n: int, picks: range) -> list[int]:
    """comb(n, r) for each r of a step-1 range, exactly: one comb call, then
    C(n, r) = C(n, r-1)(n-r+1)/r, so a long range costs linear time per r."""
    counts = [comb(n, r) for r in picks[:1]]
    for r in picks[1:]:
        counts.append(counts[-1] * (n - r + 1) // r)
    return counts


def _combinations_from(
    universe: tuple[int, ...], k: int, rank: int
) -> Iterator[tuple[int, ...]]:
    """k-subsets of universe in lex order, starting at the given rank. Lex
    order finishes the subsets that start with the rank-th one's first
    element, then goes on with every k-subset of the elements after it;
    applied to each element of the rank-th subset in turn, behind the ones
    before it, that leaves one combinations() tail per element."""
    if rank >= comb(len(universe), k):
        return iter(())
    prefix, tails = (), []
    while rank:
        i = 0  # skip the whole groups of subsets that start at universe[i]
        while rank >= (group := comb(len(universe) - i - 1, k - 1)):
            rank, i = rank - group, i + 1
        rest = universe[i + 1 :]
        tails.append(map(prefix.__add__, combinations(rest, k)))
        prefix, universe, k = prefix + (universe[i],), rest, k - 1
    return chain(map(prefix.__add__, combinations(universe, k)), *reversed(tails))


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


def _capped_count(space: SearchSpace, pair_cap: int) -> int:
    """The space's pair count; raises when it is above the cap."""
    count = space.enumeration_count()
    if count > pair_cap:
        raise SpaceTooLargeError(
            f"enumeration would visit {_count_text(count)} pairs, above the cap {pair_cap}"
        )
    return count


def _count_text(count: int) -> str:
    """A positive count in decimal, or past 30 digits the largest power of
    ten it reaches (decimal text of a few thousand digits is refused)."""
    if count < 10**30:
        return str(count)
    exponent = int(log10(count))  # a float, so it may be one off either way
    if 10**exponent > count:
        exponent -= 1
    elif 10 ** (exponent + 1) <= count:
        exponent += 1
    return f"at least 10^{exponent}"


def enumerate_pairs(
    space: SearchSpace, pair_cap: int = DEFAULT_PAIR_CAP
) -> Iterator[tuple[IntSet, HSet, SumsetKind]]:
    """Every pair exactly once, ordered by (zero mode, k, A, r, H, kind)."""
    _capped_count(space, pair_cap)
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

    def extend(self, other: _Cases, case_cap: int) -> None:
        self.count += other.count
        self.records.extend(other.records[: case_cap - len(self.records)])


@dataclass
class _Partial:
    pairs: int = 0
    violations: _Cases = field(default_factory=_Cases)
    equality: _Cases = field(default_factory=_Cases)
    nonstructured: _Cases = field(default_factory=_Cases)
    inconsistencies: _Cases = field(default_factory=_Cases)


def _merged(parts: Iterable[_Partial], case_cap: int) -> _Partial:
    """Fold chunk results in rank order as they arrive. Each list stops at
    the cap, so the merge never holds more than case_cap records per list
    and a chunk's result is dropped once it is folded in."""
    merged = _Partial()
    for part in parts:
        merged.pairs += part.pairs
        merged.violations.extend(part.violations, case_cap)
        merged.equality.extend(part.equality, case_cap)
        merged.nonstructured.extend(part.nonstructured, case_cap)
        merged.inconsistencies.extend(part.inconsistencies, case_cap)
    return merged


def case_record(a_text: str, h_text: str, zero_in: bool, verdict: InverseVerdict) -> dict:
    """The pair, the comparison, the verdict flags, then the observed
    structure's fields in declaration order."""
    obs = verdict.structure_observed
    record = {
        "a": a_text,
        "h": h_text,
        "kind": verdict.kind.value,
        "zero_in_a": zero_in,
        "size": verdict.computed_size,
        "bound": verdict.bound_value,
        "hypotheses_hold": verdict.hypotheses_hold,
        "structure_matches": verdict.structure_matches,
        "consistent": verdict.consistent,
        "nonstructured": verdict.is_nonstructured_equality,
        "rule": verdict.rule,
    }
    record.update((f.name, getattr(obs, f.name)) for f in fields(obs))
    return record


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
        # formulas show; limits holds each bound, or -1 where none applies.
        # An equality case's size is its row's bound, so its verdict depends
        # on the row and A's half only: verdicts maps (row, a_half) to the
        # case record of the first such case, and every case copies it
        rows, limits, verdicts = [], [], {}
        for h_combo in row_combos:
            H = HSet(h_combo)
            h_text = format_elements(h_combo)
            for kind in space.kinds:
                outcome = bounds.catalog_bound(kind, k, H, zero_in)
                if outcome.applicable:
                    rows.append((h_text, kind, outcome, H))
                    limits.append(outcome.value)
                else:
                    rows.append(None)
                    limits.append(-1)
        for elements in a_sets:
            acc.pairs += len(rows)
            A = IntSet(elements)
            sizes = [0] * len(rows)
            t = A.min
            for j, kind in enumerate(space.kinds):
                # A >= 0, so every offset h*min(A) is too: rungs as absolute vectors
                ladder = sumset_ladder(A, space.h_max, kind)
                rungs = [bits << h * t for h, bits in enumerate(ladder)]
                unions = [0]
                for parent, h in plan:
                    unions.append(unions[parent] | rungs[h])
                sizes[j::n_kinds] = map(int.bit_count, unions[first_row:])
            hits = list(compress(range(len(rows)), map(le, sizes, limits)))
            if not hits:
                continue
            a_text = format_elements(elements)
            a_half = verdict_a_half(A, zero_in)
            for i in hits:
                h_text, kind, outcome, H = rows[i]
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
                    template = verdicts.get((i, a_half))
                    if template is None:
                        verdict = build_verdict(
                            kind, set_class, zero_in, k, H, size, outcome, a_half
                        )
                        template = case_record(a_text, h_text, zero_in, verdict)
                        verdicts[i, a_half] = template
                    # a new dict per case; "a" keeps its place as the first key
                    record = template | {"a": a_text}
                    acc.equality.add(record, case_cap)
                    if record["nonstructured"]:
                        acc.nonstructured.add(record, case_cap)
                    if not record["consistent"]:
                        acc.inconsistencies.add(record, case_cap)
    return acc


@dataclass
class VerificationReport:
    """Outcome of one exhaustive run.

    Violation and inconsistency lists must be empty on every space the
    catalog covers; a nonempty list is a counterexample. Case lists are
    bounded by equality_case_cap (counts are always complete). Wall time is
    informational: it is left out of equality and of the serialized form, so
    that reports compare byte for byte. The serialized keys are the version,
    then the compared fields in declaration order.
    """

    space: SearchSpace
    enumeration_count: int
    pairs_checked: int
    bound_violation_count: int
    bound_violations: list
    equality_case_count: int
    equality_cases: list
    allowed_nonstructured_count: int
    allowed_nonstructured_equalities: list
    inverse_inconsistency_count: int
    inverse_inconsistencies: list
    equality_case_cap: int
    wall_time_seconds: float = field(default=0.0, compare=False)

    @property
    def clean(self) -> bool:
        return self.bound_violation_count == 0 and self.inverse_inconsistency_count == 0

    def to_dict(self) -> dict:
        data = {"version": REPORT_VERSION}
        data.update((f.name, getattr(self, f.name)) for f in fields(self) if f.compare)
        data["space"] = self.space.to_dict()
        return data

    def to_json(self) -> str:
        # acyclic by construction: a record in two lists is shared, not a cycle
        return json.dumps(self.to_dict(), separators=(",", ":"), check_circular=False)

    @classmethod
    def from_dict(cls, data: dict) -> VerificationReport:
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {data.get('version')!r}")
        values = {f.name: data[f.name] for f in fields(cls) if f.compare}
        values["space"] = SearchSpace.from_dict(data["space"])
        return cls(**values)

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
    expected = _capped_count(space, pair_cap)
    total_a = space.a_task_count()
    chunk_args = [
        (space, start, min(start + _CHUNK_A_TASKS, total_a), case_cap)
        for start in range(0, total_a, _CHUNK_A_TASKS)
    ]
    processes = _pool_size(workers, len(chunk_args))
    if processes == 1:
        merged = _merged(map(_run_chunk, chunk_args), case_cap)
    else:
        # imported here: at module level they add ~25 ms (2 vCPUs) to each CLI start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        # a worker that dies raises BrokenProcessPool here; an error drops
        # the chunks not yet started
        pool = ProcessPoolExecutor(processes, mp_context=ctx)
        try:
            parts = pool.map(_run_chunk, chunk_args, chunksize=_CHUNKS_PER_MESSAGE)
            merged = _merged(parts, case_cap)
        finally:
            pool.shutdown(cancel_futures=True)
    return VerificationReport(
        space=space,
        pairs_checked=merged.pairs,
        enumeration_count=expected,
        bound_violation_count=merged.violations.count,
        bound_violations=merged.violations.records,
        equality_case_count=merged.equality.count,
        equality_cases=merged.equality.records,
        allowed_nonstructured_count=merged.nonstructured.count,
        allowed_nonstructured_equalities=merged.nonstructured.records,
        inverse_inconsistency_count=merged.inconsistencies.count,
        inverse_inconsistencies=merged.inconsistencies.records,
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
