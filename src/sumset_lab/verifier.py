"""Exhaustive verification of the bound catalog over a bounded universe.

Enumerates every (A, H, kind) pair in a search space, checks each computed
size against its catalog bound, runs the inverse check on every equality
case, and folds everything into a machine-readable report. A bound depends
on (kind, k, H, 0 in A) only, so each chunk looks it up once per (k,
zero-mode) block and reads that table for every A. A block's sets come in
lex order and are walked as a prefix tree: each prefix extends its parent's
rungs by one element, and a row whose union of a prefix is above the
row's bound less h_r per missing element is closed for the whole subtree,
since appending a new maximum adds at least h_r sums (the README's prefix
lemma). A leaf unions only the rows still open; only pairs that reach
their bound go further, and the A half of the verdict is built once per A
that has one. An equality case's size is its row's bound, so its
verdict and record depend on the row and A's half alone: each block builds
them, H's facts included, once per (row, A's half). Each case's record is
a read-only dict (CaseRecord) that repeats the first such case's record
but for "a" and points at it, so VerificationReport.to_json encodes those
shared fields once and writes each case as its A text spliced before
them. Work is split into contiguous chunks of the
A-enumeration by combinatorial rank, and each chunk resumes at its rank
with itertools.combinations; chunk boundaries are independent of the worker
count and chunk results merge in rank order as they finish, so the report
is byte-identical no matter how many workers ran. Chunks run in process or
on a ProcessPoolExecutor, where a worker that dies fails the run with
WorkerLostError instead of leaving it waiting. Each case list stops at the
case cap, in a chunk and in the merge alike, so memory follows the cap
rather than the number of cases.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, combinations, islice
from json.encoder import encode_basestring_ascii
from math import comb, log10
from typing import Iterable, Iterator

from . import bounds
from .engine import SumsetKind, extend_ladder, require_kind, sumset_ladder
from .errors import SpaceTooLargeError, WorkerLostError
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
    before it, that leaves one combinations() tail per element. The first
    element is found by bisection: C(n, k) - C(n - i, k) subsets start
    before universe[i], so a resume costs O(k log n) comb calls."""
    if rank >= comb(len(universe), k):
        return iter(())
    prefix, tails = (), []
    while rank:
        n, total = len(universe), comb(len(universe), k)
        i = bisect_right(range(n), rank, key=lambda i: total - comb(n - i, k)) - 1
        rank -= total - comb(n - i, k)
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


class CaseRecord(dict):
    """An equality case's record, read-only. CaseRecord(fields) is a first
    record: a copy of fields with "a" as the first key. CaseRecord(first,
    a_text) is a later case of the same (row, A's half): it repeats first
    but for "a" and points at it (at a plain dict's frozen copy), so
    to_json encodes those shared fields once. Every mutator raises
    TypeError, so no record can disagree with the fields encoded for it;
    dict(record) is a plain mutable copy. A pickle or copy is rebuilt from
    the first record, so records that cross the pool still share it."""

    __slots__ = ("_first",)  # None on a first record

    def __init__(self, fields: dict, a_text: str | None = None):
        if a_text is None:
            dict.__init__(self, a=fields["a"])
            dict.update(self, fields)
            self._first = None
        else:
            if type(fields) is not CaseRecord:
                fields = CaseRecord(fields)
            dict.__init__(self, fields, a=a_text)  # "a" keeps its place
            self._first = fields if fields._first is None else fields._first

    def _read_only(self, *args, **kwargs):
        raise TypeError("a case record is read-only; dict(record) is a mutable copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        if self._first is None:
            return CaseRecord, (dict(self),)
        return CaseRecord, (self._first, self["a"])


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


def _prefix_caps(kind: SumsetKind, k: int, h_r: int, limit: int) -> tuple:
    """A row's cap at each prefix size m = 0..k: limit - h_r*(k - m), or None
    where the prefix lemma (README) does not apply: an ordinary row needs a
    nonempty prefix, a restricted one h_r <= m. The cap at m = k is the
    row's bound."""
    first = 1 if kind is SumsetKind.ORDINARY else h_r
    return (None,) * first + tuple(range(limit - h_r * (k - first), limit + 1, h_r))


def _walk(
    a_sets: Iterable[tuple[int, ...]], k: int, kinds: tuple[SumsetKind, ...],
    open_rows: list[list[tuple]], h_max: int,
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """(A, hits) for each A-set of a k-block, in the given order: hits are
    (row index, size) for the rows whose union of A is at most their bound,
    in row order. open_rows holds each kind's rows (index, H, caps).

    The sets come in lex order, so consecutive ones share a prefix. A stack
    holds, per prefix length, each kind's rungs of that prefix as absolute
    vectors (bit s is the sum s; every element is >= 0) and its rows still
    open. Appending a new maximum adds at least h_r sums to a union (the
    README's prefix lemma), so a row whose union of a prefix exceeds its cap
    there exceeds its bound on every set below that prefix: it closes for
    the whole subtree, and a leaf unions only the rows still open.
    """
    stack = [[([1] + [0] * h_max, rows) for rows in open_rows]]
    prev = ()
    for a in a_sets:
        m, depth = 0, len(stack) - 1
        while m < depth and a[m] == prev[m]:
            m += 1
        del stack[m + 1 :]
        prev, state = a, stack[m]
        while m < k - 1 and any(rows for _, rows in state):
            x, m = a[m], m + 1
            pushed = []
            for kind, (rungs, rows) in zip(kinds, state):
                if rows:
                    rungs = extend_ladder(rungs, x, kind)
                    kept = []
                    for row in rows:
                        cap = row[2][m]
                        if cap is not None:
                            union = 0
                            for h in row[1]:
                                union |= rungs[h]
                            if union.bit_count() > cap:
                                continue
                        kept.append(row)
                    rows = kept
                pushed.append((rungs, rows))
            stack.append(pushed)
            state = pushed
        hits = []
        if m == k - 1:
            x = a[m]
            for kind, (rungs, rows) in zip(kinds, state):
                if rows:
                    rungs = extend_ladder(rungs, x, kind)
                    for i, hs, caps in rows:
                        union = 0
                        for h in hs:
                            union |= rungs[h]
                        size = union.bit_count()
                        if size <= caps[k]:
                            hits.append((i, size))
            hits.sort()
        yield a, hits


def _run_chunk(args: tuple[SearchSpace, int, int, int]) -> _Partial:
    space, start, end, case_cap = args
    acc = _Partial()
    h_combos = [
        h_combo
        for r in space.r_values()
        for h_combo in combinations(range(1, space.h_max + 1), r)
    ]
    row_count = len(h_combos) * len(space.kinds)
    for zero_in, k, a_sets in _a_tasks(space, start, end):
        # every sum the walk forms lies in [0, h_max*top], top the largest
        # element of the block's universe: one guard per block
        top = space.universe_max - zero_in
        sumset_ladder(IntSet((top,)), space.h_max, SumsetKind.ORDINARY)
        set_class = SetClass.ZERO_REST_POSITIVE if zero_in else SetClass.ALL_POSITIVE
        # the block's applicable (H, kind) rows, built per call (not cached):
        # patched formulas show. An equality case's size is its row's bound,
        # so its verdict depends on the row and A's half only: verdicts maps
        # (row, a_half) to the record of the first such case, and every
        # later case's record repeats it
        rows, open_rows, verdicts = [], [[] for _ in space.kinds], {}
        for h_combo in h_combos:
            H = HSet(h_combo)
            h_text = format_elements(h_combo)
            for kind, kind_rows in zip(space.kinds, open_rows):
                outcome = bounds.catalog_bound(kind, k, H, zero_in)
                if outcome.applicable:
                    caps = _prefix_caps(kind, k, h_combo[-1], outcome.value)
                    kind_rows.append((len(rows), h_combo, caps))
                    rows.append((h_text, kind, outcome, H))
        for elements, hits in _walk(a_sets, k, space.kinds, open_rows, space.h_max):
            acc.pairs += row_count
            if not hits:
                continue
            a_text = format_elements(elements)
            a_half = verdict_a_half(IntSet(elements), zero_in)
            for i, size in hits:
                h_text, kind, outcome, H = rows[i]
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
                    first = verdicts.get((i, a_half))
                    if first is None:
                        verdict = build_verdict(
                            kind, set_class, zero_in, k, H, size, outcome, a_half
                        )
                        record = CaseRecord(case_record(a_text, h_text, zero_in, verdict))
                        verdicts[i, a_half] = record
                    else:
                        record = CaseRecord(first, a_text)
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
        """json.dumps(self.to_dict(), separators=(",", ":")), built as one
        list of pieces joined once: a CaseRecord is '{"a":', its A text and
        its first record's JSON after "a", encoded once per call, and any
        other value is encoded whole."""
        pieces, tails = [], {}
        for key, value in self.to_dict().items():
            pieces += (",", encode_basestring_ascii(key), ":")
            if type(value) is list:
                _encode_records(value, pieces, tails)
            else:
                pieces.append(_ENCODER.encode(value))
        pieces[0] = "{"
        pieces.append("}")
        return "".join(pieces)

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


# a report's values are flat records, ints and the space: no cycle to check
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _encode_records(records: list, pieces: list, tails: dict) -> None:
    """Append a report list's JSON pieces to pieces. tails maps the id of a
    first record (which its cases keep alive) to its JSON after "a"."""
    sep = "["
    for record in records:
        if type(record) is CaseRecord:
            first = record if record._first is None else record._first
            tail = tails.get(id(first))
            if tail is None:
                head = '{"a":' + encode_basestring_ascii(first["a"])
                tail = tails[id(first)] = _ENCODER.encode(first)[len(head) :]
            pieces += (sep, '{"a":', encode_basestring_ascii(record["a"]), tail)
        else:
            pieces += (sep, _ENCODER.encode(record))
        sep = ","
    pieces.append("]" if records else "[]")


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
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        # an error drops the chunks not yet started
        pool = ProcessPoolExecutor(processes, mp_context=ctx)
        try:
            parts = pool.map(_run_chunk, chunk_args, chunksize=_CHUNKS_PER_MESSAGE)
            merged = _merged(parts, case_cap)
        except BrokenProcessPool as exc:
            raise WorkerLostError(
                "a worker process died before returning its chunks; the run is incomplete"
            ) from exc
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
