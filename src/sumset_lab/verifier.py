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
An equality case's size is its row's bound, so its verdict and record
depend on the row and the observed facts about A alone
(structure.observed_a_facts, which A's first element is not among): each
chunk builds them once per (row, facts) that occurs, and derives a row's H
half (rule, hypotheses, H's progression and run) at the row's first
equality case. A case finds its template in its row's table, keyed by A's
facts computed once per A. The first case's record is a read-only dict
(CaseRecord); each later one is a repeat that stores only its "a" and one
pointer, and reads every other key through the first, so
VerificationReport.to_json encodes those shared fields once and writes
each case as its A text spliced before them. A case that no list keeps,
all of them being at the case cap, is only counted: it builds no record,
and A's text is formatted only for a template, a kept case or a violation.
Each block is cut into contiguous chunks of at most 512 of its A-sets by
combinatorial rank within the block, and each chunk resumes at its rank
with itertools.combinations. The chunk is the one unit of work: it sets up
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
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, combinations, islice
from json.encoder import encode_basestring_ascii
from math import comb, log10
from typing import Iterable, Iterator, Sequence

from . import bounds
from .engine import SumsetKind, extend_ladder, require_kind, sumset_ladder
from .errors import SpaceTooLargeError, WorkerLostError
from .intset import HSet, IntSet, SetClass, format_elements, parse_elements
from .structure import (
    InverseVerdict,
    build_verdict,
    observed_a_facts,
    plain_fields,
    verdict_a_half,
    verdict_h_half,
)

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
    a_text) is a later case of the same (row, A's facts), a repeat: it
    stores only its "a" and reads every other key through first (a plain
    dict's frozen copy), so it costs its A text and one pointer, and to_json
    encodes the shared fields once. Read, iterated, compared, copied or
    encoded, a repeat is first's keys in first's order ("a" first) with its
    own "a"; dict(record) is that, a plain mutable copy. Every mutator
    raises TypeError, so no record can disagree with the fields encoded for
    it. A pickle or copy is rebuilt from the first record, so records that
    cross the pool still share it."""

    __slots__ = ("_first",)  # None on a first record

    def __init__(self, fields: dict, a_text: str | None = None):
        if a_text is None:
            dict.__init__(self, a=fields["a"])
            dict.update(self, fields)
            self._first = None
        else:
            if type(fields) is not CaseRecord:
                fields = CaseRecord(fields)
            dict.__init__(self, a=a_text)
            self._first = fields if fields._first is None else fields._first

    def _read_only(self, *args, **kwargs):
        raise TypeError("a case record is read-only; dict(record) is a mutable copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def _keyed(self) -> dict:
        """The record whose own storage holds every key: self or first."""
        return self if self._first is None else self._first

    def _full(self) -> dict:
        """Every key and value in a plain dict, in the record's order."""
        full = dict(dict.items(self._keyed()))
        if self._first is not None:
            full["a"] = dict.__getitem__(self, "a")
        return full

    def __missing__(self, key):
        if self._first is None:
            raise KeyError(key)
        return dict.__getitem__(self._first, key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __contains__(self, key) -> bool:
        return dict.__contains__(self._keyed(), key)

    def __iter__(self):
        return dict.__iter__(self._keyed())

    def __reversed__(self):
        return dict.__reversed__(self._keyed())

    def __len__(self) -> int:
        return dict.__len__(self._keyed())

    def keys(self):
        return dict.keys(self._keyed())

    def values(self):
        return dict.values(self if self._first is None else self._full())

    def items(self):
        return dict.items(self if self._first is None else self._full())

    def copy(self) -> dict:
        return self._full()

    def __or__(self, other):
        if not isinstance(other, dict):
            return NotImplemented
        merged = self._full()
        merged.update(other)
        return merged

    def __eq__(self, other):
        if type(other) is CaseRecord and other._first is not None:
            other = other._full()
        if self._first is None:
            return dict.__eq__(self, other)
        return self._full() == other

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return repr(self._full())

    def __reduce__(self):
        if self._first is None:
            return CaseRecord, (self._full(),)
        return CaseRecord, (self._first, dict.__getitem__(self, "a"))


def case_record(a_text: str, h_text: str, zero_in: bool, verdict: InverseVerdict) -> dict:
    """The pair, the comparison, the verdict flags, then the observed
    structure's fields in declaration order."""
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
    record.update(vars(verdict.structure_observed))
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
    set_class = SetClass.ZERO_REST_POSITIVE if zero_in else SetClass.ALL_POSITIVE
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
    # by_facts holds each template once per observed facts
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
            template, record = by_a.get(a_key), None
            if template is None:
                facts = observed_a_facts(a_half, h_half)
                template = by_facts.get(facts)
                if template is None:
                    a_text = a_text or format_elements(elements)
                    verdict = build_verdict(kind, set_class, size, outcome, h_half, a_half)
                    record = CaseRecord(case_record(a_text, h_text, zero_in, verdict))
                    lists = (acc.equality,)
                    if record["nonstructured"]:
                        lists += (acc.nonstructured,)
                    if not record["consistent"]:
                        lists += (acc.inconsistencies,)
                    template = by_facts[facts] = (record, lists)
                by_a[a_key] = template
            first, lists = template
            for cases in lists:
                cases.count += 1
                if len(cases.records) < case_cap:
                    if record is None:
                        a_text = a_text or format_elements(elements)
                        record = CaseRecord(first, a_text)
                    cases.records.append(record)
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
