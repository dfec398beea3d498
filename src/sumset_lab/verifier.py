"""Exhaustive verification of the bound catalog over a bounded universe.

Enumerates every (A, H, kind) pair in a search space, checks each computed
size against its catalog bound, runs the inverse check on every equality
case, and folds everything into a machine-readable report. A bound depends
on (kind, k, H, 0 in A) only, and a chunk's A-sets all lie in one (k,
zero-mode) block, so each chunk looks it up once and reads that table for
every A. A block's sets come in lex order and are walked as a prefix tree:
each prefix extends its parent's rungs by one element, and a row whose
union of a prefix is above the row's bound less g(j) per missing element j
is closed for the whole subtree, since appending a new maximum to j
elements adds at least g(j) sums: h_r, or for a restricted row max(H ∩
[1, j]) (the README's prefix lemmas). A leaf is never pushed: the rows
still open at its parent are tested once against their bounds. Only pairs
that reach their bound go further, and the A half of the verdict (A's
progression and dilation) is built once per A that has an equality case.
An equality case's size is its row's bound, so its record depends on the
row and the observed facts about A alone (structure.observed_a_facts,
which A's first element is not among): each chunk builds it once per (row,
facts) that occurs, as a plain dict laid out from structure.judge without
any verdict dataclass, and derives a row's H half (rule, hypotheses, H's
progression and run) at the row's first equality case. A case finds its
template in its row's table, keyed by A's facts computed once per A, and
is kept as a (first record, A text) pair: every case of a template shares
its first record, so a case costs its A text and one tuple, and chunk
results cross the worker pool as plain tuples. Each report list is a
CaseList over its pairs, read as the list of their records (one plain dict
per read), and encode_json writes a case as '{"a":', its A text and its
first record's JSON after "a", encoded once per call. A case that no list
keeps, all of them being at the case cap, is only counted, and A's text is
formatted only for a template, a kept case or a violation. Each block is
cut into contiguous chunks of at most 512 of its A-sets by combinatorial
rank within the block, and each chunk resumes at its rank with
itertools.combinations. The chunk is the one unit of work: it sets up
its block's rows and templates once and is one pool message. Chunk
boundaries are independent of the worker count and chunk results merge in
rank order as they finish, so the report is byte-identical no matter how
many workers ran. Chunks run in process or on a ProcessPoolExecutor of at
most one process per 512 A-sets of the space, where a worker that dies
fails the run with WorkerLostError instead of leaving it waiting. Each
case list stops at the case cap, in a chunk and in the merge alike, so
memory follows the cap rather than the number of cases.
"""

from __future__ import annotations

import json
import operator
import os
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, combinations, islice
from json.encoder import encode_basestring_ascii
from math import comb, log10
from typing import Iterable, Iterator

from . import bounds
from .engine import SumsetKind, extend_ladder, require_kind, sumset_ladder
from .errors import SpaceTooLargeError, WorkerLostError
from .intset import HSet, IntSet, format_elements, parse_elements
from .structure import (
    FACT_NAMES,
    FLAG_NAMES,
    judge,
    observed_a_facts,
    plain_fields,
    verdict_a_half,
    verdict_h_half,
)
# not called here: bench/spans.HOOKS wraps this name on this module
from .structure import build_verdict  # noqa: F401

REPORT_VERSION = "sumset-lab-report/1"
DEFAULT_PAIR_CAP = 10**8
DEFAULT_CASE_CAP = 10**5

# A-sets per work chunk; fixed so that chunking never depends on worker count
_CHUNK_A_TASKS = 512


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

    def a_blocks(self) -> list[tuple[ZeroMode, int, range, int, int]]:
        """(mode, k, positive universe, pick count, block size) per k-block."""
        blocks = []
        for mode in self.zero_mode.modes():
            if mode is ZeroMode.WITHOUT:
                universe = range(1, self.universe_max + 1)
            else:
                universe = range(1, self.universe_max)
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
    universe: Sequence[int], k: int, rank: int
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
    for mode, _k, universe, pick, _count in space.a_blocks():
        zero = (0,) if mode is ZeroMode.WITH else ()
        for elements in _combinations_from(universe, pick, 0):
            A = IntSet(zero + elements)
            for H in h_sets:
                for kind in space.kinds:
                    yield A, H, kind


@dataclass
class _Cases:
    """A complete count and the first case_cap cases behind it, kept as
    (first record, A text) pairs."""

    count: int = 0
    kept: list = field(default_factory=list)

    def add(self, pair: tuple[dict, str], case_cap: int) -> None:
        self.count += 1
        if len(self.kept) < case_cap:
            self.kept.append(pair)

    def extend(self, other: _Cases, case_cap: int) -> None:
        self.count += other.count
        self.kept.extend(other.kept[: case_cap - len(self.kept)])


@dataclass
class _Partial:
    pairs: int = 0
    violations: _Cases = field(default_factory=_Cases)
    equality: _Cases = field(default_factory=_Cases)
    nonstructured: _Cases = field(default_factory=_Cases)
    inconsistencies: _Cases = field(default_factory=_Cases)


def _merged(parts: Iterable[_Partial], case_cap: int) -> _Partial:
    """Fold chunk results in rank order as they arrive. Each list stops at
    the cap, so the merge never holds more than case_cap pairs per list and
    a chunk's result is dropped once it is folded in."""
    merged = _Partial()
    for part in parts:
        merged.pairs += part.pairs
        merged.violations.extend(part.violations, case_cap)
        merged.equality.extend(part.equality, case_cap)
        merged.nonstructured.extend(part.nonstructured, case_cap)
        merged.inconsistencies.extend(part.inconsistencies, case_cap)
    return merged


class CaseList(Sequence):
    """A report's case list, read-only: (first record, A text) pairs, read
    as the list of their records. A pair's record is its first record's keys
    in order ("a" first) with its own "a", built as a plain dict on each
    read, so no read can change the list. Every case of one (row, A's facts)
    in a chunk shares the first such case's record, and a violation is its
    own first record. A CaseList equals a list of dicts that equals its
    records, and encode_json writes it from the pairs, encoding each first
    record once per call. It pickles and copies as its pairs."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[dict, str]] = ()):
        self._pairs = tuple(pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CaseList(self._pairs[index])
        first, a_text = self._pairs[index]
        record = first.copy()
        record["a"] = a_text
        return record

    def __iter__(self) -> Iterator[dict]:
        for first, a_text in self._pairs:
            record = first.copy()
            record["a"] = a_text
            yield record

    def __eq__(self, other):
        if not isinstance(other, (CaseList, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"CaseList({list(self)!r})"


def case_record(
    a_text: str, h_text: str, kind: SumsetKind, zero_in: bool, size: int, bound: int,
    rule: str, flags: tuple[bool, bool, bool, bool], observed: tuple,
) -> dict:
    """The pair, the comparison, judge's flags and the rule, then the
    observed structure's fields in StructureFacts' order."""
    record = {"a": a_text, "h": h_text, "kind": kind.value, "zero_in_a": zero_in,
              "size": size, "bound": bound}
    record.update(zip(FLAG_NAMES, flags), rule=rule)
    record.update(zip(FACT_NAMES, observed))
    return record


def _prefix_caps(kind: SumsetKind, k: int, hs: tuple[int, ...], limit: int) -> tuple:
    """A row's cap at each prefix size m = 0..k, or None where the prefix
    lemmas (README) are not used: an ordinary row needs a nonempty prefix, a
    restricted one m >= h_1. Appending a new maximum to a prefix of size j
    adds at least g(j) sums, h_r for an ordinary row and max(H ∩ [1, j]) for
    a restricted one, so the cap at m is limit - Σ_{j=m}^{k-1} g(j); the cap
    at m = k is the row's bound."""
    ordinary = kind is SumsetKind.ORDINARY
    caps = [None] * k + [limit]
    for m in range(k - 1, 0 if ordinary else hs[0] - 1, -1):
        g = hs[-1] if ordinary else hs[bisect_right(hs, m) - 1]
        caps[m] = caps[m + 1] - g
    return tuple(caps)


def _walk(
    a_sets: Iterable[tuple[int, ...]], k: int, kinds: tuple[SumsetKind, ...],
    open_rows: list[list[tuple]], h_max: int,
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """(A, hits) for each A-set of a k-block, in the given order: hits are
    (row index, size) for the rows whose union of A is at most their bound,
    in row order. open_rows holds each kind's rows (index, H, caps).

    The sets come in lex order, so consecutive ones share a prefix. A stack
    holds, per prefix length below k, each kind's rungs of that prefix as
    absolute vectors (bit s is the sum s; every element is >= 0) and its
    rows still open; a step extends a copy of its parent's rungs in place,
    so the stack keeps them. Appending a new maximum adds at least g(j) sums
    to a union (the README's prefix lemmas; see _prefix_caps), so a row
    whose union of a prefix exceeds its cap there exceeds its bound on every
    set below that prefix: it closes for the whole subtree. A itself, the
    prefix of size k, is never pushed: the rows still open at its parent
    are tested against their bounds (caps[k]) once, and those within are
    A's hits.
    """
    stack = [[([1] + [0] * h_max, rows) for rows in open_rows]]
    prev = ()
    for a in a_sets:
        m, depth = 0, len(stack) - 1
        while m < depth and a[m] == prev[m]:
            m += 1
        del stack[m + 1 :]
        prev, state, hits = a, stack[m], []
        while m < k - 1 and any(rows for _, rows in state):
            x, m = a[m], m + 1
            pushed = []
            for kind, (rungs, rows) in zip(kinds, state):
                if rows:
                    rungs = rungs.copy()
                    extend_ladder(rungs, x, kind)
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
        if m == k - 1:
            x = a[m]
            for kind, (rungs, rows) in zip(kinds, state):
                if rows:
                    rungs = rungs.copy()
                    extend_ladder(rungs, x, kind)
                    for index, hs, caps in rows:
                        union = 0
                        for h in hs:
                            union |= rungs[h]
                        size = union.bit_count()
                        if size <= caps[k]:
                            hits.append((index, size))
            hits.sort()
        yield a, hits


def _run_chunk(args: tuple[SearchSpace, tuple, int, int, int]) -> _Partial:
    """The A-sets of rank start..end-1, in lex order, of one a_blocks() block."""
    space, (mode, k, universe, pick, _count), start, end, case_cap = args
    zero_in = mode is ZeroMode.WITH
    acc = _Partial()
    # every sum the walk forms lies in [0, h_max*top], top the largest
    # element of the block's universe: one guard per chunk
    top = space.universe_max - zero_in
    sumset_ladder(IntSet((top,)), space.h_max, SumsetKind.ORDINARY)
    # the block's applicable (H, kind) rows, built per call (not cached):
    # patched formulas show
    rows, open_rows = [], [[] for _ in space.kinds]
    for r in space.r_values():
        for h_combo in combinations(range(1, space.h_max + 1), r):
            H = HSet(h_combo)
            h_text = format_elements(h_combo)
            for kind, kind_rows in zip(space.kinds, open_rows):
                outcome = bounds.catalog_bound(kind, k, H, zero_in)
                if outcome.applicable:
                    caps = _prefix_caps(kind, k, h_combo, outcome.value)
                    kind_rows.append((len(rows), h_combo, caps))
                    rows.append((h_text, kind, outcome, H))
    # An equality case's size is its row's bound, so its record depends on
    # the row and A's observed facts only. tables[i] is row i's H half and
    # templates, from its first equality case on: by_a maps A's facts to a
    # template, the first case's record and the lists its cases go to, and
    # by_facts holds each template once per observed facts. A kept case is
    # the pair (first record, A text)
    tables = [None] * len(rows)
    row_count = space.h_subset_count() * len(space.kinds)
    a_sets = islice(_combinations_from(universe, pick, start), end - start)
    if zero_in:
        a_sets = map((0,).__add__, a_sets)
    for elements, hits in _walk(a_sets, k, space.kinds, open_rows, space.h_max):
        acc.pairs += row_count
        if not hits:
            continue
        # A's text only for a template, a kept case or a violation
        a_text = a_key = None
        for i, size in hits:
            h_text, kind, outcome, H = rows[i]
            if size < outcome.value:
                a_text = a_text or format_elements(elements)
                violation = {
                    "a": a_text,
                    "h": h_text,
                    "kind": kind.value,
                    "zero_in_a": zero_in,
                    "size": size,
                    "bound": outcome.value,
                    "formula": outcome.formula.identifier,
                }
                acc.violations.add((violation, a_text), case_cap)
                continue
            if a_key is None:
                a_half = verdict_a_half(elements, zero_in)
                ad, dilated = a_half
                # observed_a_facts reads A's first element only beside a difference
                a_key = (ad.is_ap, ad.difference, ad.first if ad.difference else None, dilated)
            table = tables[i]
            if table is None:
                table = tables[i] = (verdict_h_half(kind, zero_in, k, H, outcome), {}, {})
            h_half, by_a, by_facts = table
            template = by_a.get(a_key)
            if template is None:
                facts = observed_a_facts(a_half, h_half)
                template = by_facts.get(facts)
                if template is None:
                    a_text = a_text or format_elements(elements)
                    _, flags, observed = judge(size, outcome, h_half, facts)
                    first = case_record(
                        a_text, h_text, kind, zero_in, size, outcome.value, h_half[0],
                        flags, observed,
                    )
                    _, _, consistent, nonstructured = flags
                    lists = (acc.equality,)
                    if nonstructured:
                        lists += (acc.nonstructured,)
                    if not consistent:
                        lists += (acc.inconsistencies,)
                    template = by_facts[facts] = (first, lists)
                by_a[a_key] = template
            first, lists = template
            pair = None  # one tuple for every list the case is kept in
            for cases in lists:
                cases.count += 1
                if len(cases.kept) < case_cap:
                    if pair is None:
                        a_text = a_text or format_elements(elements)
                        pair = (first, a_text)
                    cases.kept.append(pair)
    return acc


@dataclass
class VerificationReport:
    """Outcome of one exhaustive run.

    Violation and inconsistency lists must be empty on every space the
    catalog covers; a nonempty list is a counterexample. Case lists are
    bounded by equality_case_cap (counts are always complete), and each is a
    CaseList. Wall time is informational: it is left out of equality and of
    the serialized form, so that reports compare byte for byte. The
    serialized keys are the version, then the compared fields in declaration
    order.
    """

    space: SearchSpace
    enumeration_count: int
    pairs_checked: int
    bound_violation_count: int
    bound_violations: CaseList
    equality_case_count: int
    equality_cases: CaseList
    allowed_nonstructured_count: int
    allowed_nonstructured_equalities: CaseList
    inverse_inconsistency_count: int
    inverse_inconsistencies: CaseList
    equality_case_cap: int
    wall_time_seconds: float = field(default=0.0, compare=False)

    @property
    def clean(self) -> bool:
        return self.bound_violation_count == 0 and self.inverse_inconsistency_count == 0

    def _data(self) -> dict:
        """The serialized keys and values, case lists as they are."""
        data = {"version": REPORT_VERSION}
        data.update((f.name, getattr(self, f.name)) for f in fields(self) if f.compare)
        data["space"] = self.space.to_dict()
        return data

    def to_dict(self) -> dict:
        """The serialized form, each case list a plain list of its records."""
        return {
            key: list(value) if type(value) is CaseList else value
            for key, value in self._data().items()
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), separators=(",", ":")), written from
        the case lists' pairs by encode_json."""
        return encode_json(self._data())

    @classmethod
    def from_dict(cls, data: dict) -> VerificationReport:
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {data.get('version')!r}")
        values = {f.name: data[f.name] for f in fields(cls) if f.compare}
        values["space"] = SearchSpace.from_dict(data["space"])
        for name, value in values.items():
            if type(value) is list:
                # each record its own first, copied with "a" first
                values[name] = CaseList(({"a": r["a"], **r}, r["a"]) for r in value)
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> VerificationReport:
        return cls.from_dict(json.loads(text))


# records are flat and reports and groups are trees: no cycle to check
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_json(value) -> str:
    """json.dumps(value, separators=(",", ":")) for data with string keys in
    which a CaseList stands for the list of its records, built as one list
    of pieces joined once. A case is written as '{"a":', its A text and its
    first record's JSON after "a", encoded once per call; dicts and lists
    are walked, and any other value is encoded whole."""
    pieces = []
    _encode(value, pieces, {})
    return "".join(pieces)


def _encode(value, pieces: list, tails: dict) -> None:
    """Append value's JSON pieces to pieces. tails maps the id of a first
    record (which its pairs keep alive) to its JSON after "a"."""
    if type(value) is CaseList:
        sep = "["
        for first, a_text in value._pairs:
            tail = tails.get(id(first))
            if tail is None:
                head = '{"a":' + encode_basestring_ascii(first["a"])
                tail = tails[id(first)] = _ENCODER.encode(first)[len(head) :]
            pieces += (sep, '{"a":', encode_basestring_ascii(a_text), tail)
            sep = ","
        pieces.append("]" if value._pairs else "[]")
    elif type(value) is dict:
        sep = "{"
        for key, item in value.items():
            pieces += (sep, encode_basestring_ascii(key), ":")
            _encode(item, pieces, tails)
            sep = ","
        pieces.append("}" if value else "{}")
    elif type(value) is list:
        sep = "["
        for item in value:
            pieces.append(sep)
            _encode(item, pieces, tails)
            sep = ","
        pieces.append("]" if value else "[]")
    else:
        pieces.append(_ENCODER.encode(value))


def _pool_size(workers: int | None, most: int) -> int:
    """Worker processes to start: the request (default: the CPUs this
    process may run on), never more than those CPUs or than most, and never
    fewer than one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if workers is None:
        workers = cpus
    return max(1, min(workers, cpus, most))


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
    chunk_args = [
        (space, block, start, min(start + _CHUNK_A_TASKS, block[4]), case_cap)
        for block in space.a_blocks()
        for start in range(0, block[4], _CHUNK_A_TASKS)
    ]
    # one process per _CHUNK_A_TASKS A-sets, not per chunk: a small space cut
    # into many small blocks still runs in process
    processes = _pool_size(workers, -(-space.a_task_count() // _CHUNK_A_TASKS))
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
            merged = _merged(pool.map(_run_chunk, chunk_args), case_cap)
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
        bound_violations=CaseList(merged.violations.kept),
        equality_case_count=merged.equality.count,
        equality_cases=CaseList(merged.equality.kept),
        allowed_nonstructured_count=merged.nonstructured.count,
        allowed_nonstructured_equalities=CaseList(merged.nonstructured.kept),
        inverse_inconsistency_count=merged.inconsistencies.count,
        inverse_inconsistencies=CaseList(merged.inconsistencies.kept),
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
    same space, each group's cases a CaseList in report order. Raises
    ValueError when case_cap truncated that list, since groups built from it
    would be silently partial.
    """
    report = verify(space, workers=workers, pair_cap=pair_cap, case_cap=case_cap)
    if report.equality_case_count > len(report.equality_cases):
        raise ValueError(
            f"{report.equality_case_count} equality cases but only"
            f" {len(report.equality_cases)} kept under the case cap;"
            " raise --case-cap to group them all"
        )
    # a chunk lies in one (k, zero mode) block, so every case of a first
    # record shares its row and its k: the key is read once per first
    groups: dict[tuple[int, int, str], list] = {}
    keys = {}
    for pair in report.equality_cases._pairs:
        first = pair[0]
        if id(first) not in keys:
            k, r = len(parse_elements(first["a"])), len(parse_elements(first["h"]))
            keys[id(first)] = (k, r, first["kind"])
        groups.setdefault(keys[id(first)], []).append(pair)
    return [
        {"k": k, "r": r, "kind": kind, "cases": CaseList(pairs)}
        for (k, r, kind), pairs in sorted(groups.items())
    ]
