"""Exhaustive verification of the bound catalog over a bounded universe.

Enumerates every (A, H, kind) pair in a search space, checks each computed
size against its catalog bound, runs the inverse check on every equality
case, and folds everything into a machine-readable report. A bound depends
on (kind, k, H, 0 in A) only, and a chunk is one (k, zero-mode) block, so
each chunk looks it up once and reads that table for every A. A block's
sets come in lex order and are walked as a prefix tree: each prefix
extends its parent's rungs by one element, and a row whose union of a
prefix is above the row's prefix cap is closed for the whole subtree. The
cap is the bound less the sums each missing element j is sure to add (the
README's prefix lemmas): h_r for an ordinary row, and for a restricted one
g(j) = max(H ∩ [1, j]), plus 1 when j+1 is in H unless 0 is in A and
g(j) = j. A leaf is the walk's last step, whose cap is the bound. Rows of
one kind whose sizes differ by a fixed offset on every A and whose bounds
differ by the same offset form a class (the README's "Row classes": a
restricted H, k - H and H plus a top k, and with 0 in A the ordinary rows
of one h_r). A class is its key (kind, H walked, limit), under which the
row pass files each row as a member (row index, size offset). A key
whose size on A is fixed, or fixed by f = (2 max A == ΣA) (the
restricted {1, k-1} without 0), is compared with its limit once per
chunk for each f and never walked. Any other key is one walk row (key, H,
caps): the key's H, of least h_r in the class, under its own caps. A hit,
closed or walked, is (key, size), and each member's hit is at that size
plus its offset. Only pairs that reach their bound go further. The A
half of the verdict (A's progression, its difference and ratio, and its
dilation: structure.verdict_a_half, whose span test turns most sets
away before any gap is walked) is taken once per A that has a hit; it
holds no element of A, so progressions of one difference and ratio share
it. The row pass derives each row's H half (rule, hypotheses, H's
progression and run) and writes its template prefix as text: H, the kind,
0 in A, the size and the bound. An equality case's size is its row's
bound, so its record less "a" is that prefix, then a suffix (flags, rule,
observed facts) laid out from structure.judge without any verdict
dataclass and encoded once per chunk: the JSON text that follows '{"a":'
and A's text. A violation's is the row's prefix at its size, then its
formula. An A's cases in each report list, its hits' templates in row
order, depend on its half, f and walk hits alone, so each chunk resolves
them once per (half, f, hits), its one resolution cache, into one tuple
of templates per list: an A with no walk hit, as most are, shares its
(half, f)'s. The walk yields a block's hits in its rows' fixed order and
only filters them, so equal hit sets make equal keys; only a miss
expands the keys hit into their members' (row index, size) hits, sorted.
For each A and list the chunk adds the tuple's length to the list's
count and keeps one run (templates, A text), cut at the room left under
the case cap; A's text is formatted once per A, only for a kept run, and
a run that no list keeps is only counted. The pairs checked are counted from the
A-sets the walk yields. A block is the k-subsets of [1, N], or the
first C(N-1, k-1) k-subsets of [0, N-1] in lex order, which are those
that hold 0. Each nonempty block is one chunk, the one unit of
work: it runs the int64 guard, sets up its rows once, walks its sets with
itertools.combinations and is one pool message. Chunk results cross the
pool as plain tuples and merge in block order as they finish, so the
report is byte-identical no matter how many workers ran. Chunks run in
process or on a ProcessPoolExecutor of at most one process per 512
A-sets of the space and per block, where a worker that dies fails the run
with WorkerLostError instead of leaving it waiting. A block is never
split across processes, so a space of one block runs in process at any
worker count: that costs wall time on a large single-block space, and
saves the set-up that every split would repeat. Each case list stops at
the case cap, in a chunk and in the merge alike, the run that crosses it
cut there, so memory follows the cap rather than the number of cases. A
chunk's runs that all fit under the cap are merged whole, as the same
tuples.
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
from functools import cached_property
from itertools import chain, combinations, islice
from json.encoder import encode_basestring_ascii
from math import comb, log10
from typing import Iterable, Iterator

from . import bounds
from .engine import SumsetKind, extend_ladder, require_kind, sumset_ladder
from .errors import SpaceTooLargeError, WorkerLostError
from .intset import HSet, IntSet, format_elements, parse_elements, require_int
from .structure import (
    FACT_NAMES,
    FLAG_NAMES,
    judge,
    plain_fields,
    verdict_a_half,
    verdict_h_half,
)
# not called here: bench/spans.HOOKS wraps this name on this module
from .structure import build_verdict  # noqa: F401

REPORT_VERSION = "sumset-lab-report/1"
DEFAULT_PAIR_CAP = 10**8
DEFAULT_CASE_CAP = 10**5

# the pool's clamp: at most one worker process per this many A-sets
_A_SETS_PER_PROCESS = 512


class ZeroMode(Enum):
    """Whether enumerated sets are all-positive, contain 0, or both.

    Without zero, A ranges over k-subsets of [1, N]; with zero, over the
    k-subsets of [0, N-1] that hold 0 ({0} plus a (k-1)-subset of [1, N-1]),
    so both modes draw from an N-element universe and k always counts every
    element of A.
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
    universe_max, h_max and each range end must be ints (else TypeError). A
    range must be two values (lo, hi), a nonempty k_range must start at 1 or
    above and a nonempty r_range lie in 1..h_max (else ValueError); an empty
    range (lo > hi) gives an empty space."""

    universe_max: int
    k_range: tuple[int, int]
    h_max: int
    r_range: tuple[int, int]
    kinds: tuple[SumsetKind, ...] = (SumsetKind.ORDINARY, SumsetKind.RESTRICTED)
    zero_mode: ZeroMode = ZeroMode.WITHOUT

    def __post_init__(self) -> None:
        # stored as tuples, so that a space built from lists hashes and
        # serializes; a bool would be written into the report as true, and a
        # float fails mid-run. A lone kind or a string is refused by name
        # rather than iterated
        if not isinstance(self.kinds, (tuple, list)):
            raise TypeError(f"kinds must be a tuple or list of SumsetKind, got {self.kinds!r}")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        for name in ("universe_max", "h_max"):
            require_int(name, getattr(self, name))
        for name in ("k_range", "r_range"):
            ends = getattr(self, name)
            if not isinstance(ends, (tuple, list)) or len(ends) != 2:
                raise ValueError(f"{name} must be two ints (lo, hi), got {ends!r}")
            object.__setattr__(self, name, tuple(ends))
            for end in ends:
                require_int(name, end)
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

    def a_blocks(self) -> list[tuple[ZeroMode, int, range, int]]:
        """(mode, k, universe, block size) per k-block: the block is the
        first size k-subsets of the universe in lex order. Without 0 the
        universe is [1, N] and the block all of its k-subsets; with 0 it is
        [0, N-1], whose first C(N-1, k-1) k-subsets are those that hold 0."""
        blocks = []
        ks = self.k_values()
        for mode in self.zero_mode.modes():
            if mode is ZeroMode.WITHOUT:
                universe = range(1, self.universe_max + 1)
                sizes = _binomials(self.universe_max, ks)
            else:
                universe = range(self.universe_max)
                sizes = _binomials(self.universe_max - 1, range(ks.start - 1, ks.stop - 1))
            blocks += [(mode, k, universe, size) for k, size in zip(ks, sizes)]
        return blocks

    def a_task_count(self) -> int:
        (lo, hi), n = self.k_range, self.universe_max
        ranges = {ZeroMode.WITHOUT: (n, lo, hi), ZeroMode.WITH: (n - 1, lo - 1, hi - 1)}
        return sum(_binomial_sum(*ranges[mode]) for mode in self.zero_mode.modes())

    def h_combos(self) -> Iterator[tuple[int, ...]]:
        """Every H as an increasing tuple, by size and then lex (report order)."""
        multiplicities = range(1, self.h_max + 1)
        return chain.from_iterable(combinations(multiplicities, r) for r in self.r_values())

    def h_subset_count(self) -> int:
        return _binomial_sum(self.h_max, *self.r_range)

    def enumeration_count(self) -> int:
        return self._pair_count

    @cached_property
    def _pair_count(self) -> int:
        # once per space: the CLI's empty-space test and the pair cap share it
        return self.a_task_count() * self.h_subset_count() * len(self.kinds)

    def to_dict(self) -> dict:
        return plain_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> SearchSpace:
        kinds = data["kinds"]  # anything but a list is __post_init__'s to refuse
        return cls(
            universe_max=data["universe_max"],
            k_range=data["k_range"],
            h_max=data["h_max"],
            r_range=data["r_range"],
            kinds=[SumsetKind(v) for v in kinds] if isinstance(kinds, list) else kinds,
            zero_mode=ZeroMode(data["zero_mode"]),
        )


def _binomials(n: int, picks: range) -> list[int]:
    """comb(n, r) for each r of a step-1 range, exactly: one comb call, then
    C(n, r) = C(n, r-1)(n-r+1)/r, so a long range costs linear time per r."""
    counts = [comb(n, r) for r in picks[:1]]
    for r in picks[1:]:
        counts.append(counts[-1] * (n - r + 1) // r)
    return counts


def _binomial_sum(n: int, lo: int, hi: int) -> int:
    """The sum of comb(n, r) over lo <= r <= hi, exactly, from the shorter
    side: the range's own terms, or 2^n less the terms outside it, so a
    range that covers most of 0..n costs only the terms it leaves out."""
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return 0
    if hi - lo < lo + n - hi:
        return sum(_binomials(n, range(lo, hi + 1)))
    return 2**n - sum(_binomials(n, range(lo))) - sum(_binomials(n, range(hi + 1, n + 1)))


def _block_sets(block: tuple[ZeroMode, int, range, int]) -> Iterator[tuple[int, ...]]:
    """An a_blocks() block's A-sets as increasing tuples, in lex order."""
    _mode, k, universe, size = block
    return islice(combinations(universe, k), size)


def _capped_count(space: SearchSpace, pair_cap: int) -> int:
    """The space's pair count; raises when it is above the cap."""
    require_int("pair cap", pair_cap)
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
    h_sets = [HSet(h_combo) for h_combo in space.h_combos()]
    for block in space.a_blocks():
        for elements in _block_sets(block):
            A = IntSet(elements)
            for H in h_sets:
                for kind in space.kinds:
                    yield A, H, kind


# eq=False: hashed by identity, a chunk keys each A's runs by their list
@dataclass(eq=False)
class _Cases:
    """A complete count and the first case_cap cases behind it: held cases,
    kept as runs (templates, A text), a run being one A's cases in a list,
    A with each of its templates in row order."""

    count: int = 0
    held: int = 0
    kept: list = field(default_factory=list)

    def keep(self, templates: tuple[str, ...], a_text: str, case_cap: int) -> None:
        """Keep a run, cut at the cap; held must be below it."""
        templates = templates[: case_cap - self.held]
        self.kept.append((templates, a_text))
        self.held += len(templates)

    def extend(self, other: _Cases, case_cap: int) -> None:
        """Add other's count, and its runs up to the cap: whole, sharing its
        run tuples, when they all fit, else run by run up to the one that
        crosses the cap, cut there."""
        self.count += other.count
        if self.held + other.held <= case_cap:
            self.kept += other.kept
            self.held += other.held
            return
        for templates, a_text in other.kept:
            if self.held >= case_cap:
                break
            self.keep(templates, a_text, case_cap)


@dataclass
class _Partial:
    pairs: int = 0
    violations: _Cases = field(default_factory=_Cases)
    equality: _Cases = field(default_factory=_Cases)
    nonstructured: _Cases = field(default_factory=_Cases)
    inconsistencies: _Cases = field(default_factory=_Cases)


def _merged(parts: Iterable[_Partial], case_cap: int) -> _Partial:
    """Fold chunk results in block order as they arrive. Each list stops at
    the cap, so the merge never holds more than case_cap cases per list and
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
    """A report's case list, read-only: runs (templates, A text), read as
    the list of their cases' records, a run's cases being A with each of its
    templates in order. A template is the JSON text of a record after
    '{"a":' and its A text (see _template). A case's record is "a", its A
    text, then its template's keys in order, decoded into a plain dict on
    each read, so no read can change the list; a pass over the list decodes
    each distinct template text once. The cases of one (row, A's facts)
    share one template text, and a violation is its own template. Index and
    slice read the (template, A text) pairs, flattened at the first such
    read. A CaseList equals a list of dicts that equals its records, and
    encode_json writes it by splicing its runs' text. It pickles and copies
    as its runs."""

    __slots__ = ("_runs", "_len", "_flat")

    def __init__(self, runs: Iterable[tuple[tuple[str, ...], str]] = ()):
        self._runs = tuple(runs)
        self._len = sum(len(templates) for templates, _ in self._runs)
        self._flat = None

    def __reduce__(self):
        return CaseList, (self._runs,)

    @property
    def _pairs(self) -> tuple[tuple[str, str], ...]:
        """(template, A text) per case, in order."""
        if self._flat is None:
            self._flat = tuple(
                (template, a_text) for templates, a_text in self._runs for template in templates
            )
        return self._flat

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CaseList(((template,), a_text) for template, a_text in self._pairs[index])
        template, a_text = self._pairs[index]
        return {"a": a_text, **_fields(template)}

    def __iter__(self) -> Iterator[dict]:
        decoded = {}
        for templates, a_text in self._runs:
            for template in templates:
                fields = decoded.get(template)
                if fields is None:
                    fields = decoded[template] = _fields(template)
                yield {"a": a_text, **fields}

    def __eq__(self, other):
        if not isinstance(other, (CaseList, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"CaseList({list(self)!r})"


# records are flat and reports and groups are trees: no cycle to check
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _template(fields: dict) -> str:
    """The template of a record whose keys after "a" are fields: the JSON
    text that follows '{"a":' and its A text, so "}" when fields is empty."""
    return "," + _ENCODER.encode(fields)[1:] if fields else "}"


def _fields(template: str) -> dict:
    """A template's keys and values, in order: the record less "a"."""
    return json.loads("{" + template.removeprefix(","))


def row_prefix(h_text: str, kind: SumsetKind, zero_in: bool, size: int, bound: int) -> str:
    """The text that every template of a row and size starts with: H, the
    kind, 0 in A, the size and the bound, written as _ENCODER would write
    those five keys (the kind's value and the ints need no escaping). An
    equality case's size is its row's bound, and a violation's template
    goes on with its formula."""
    return (
        f',"h":{encode_basestring_ascii(h_text)},"kind":"{kind.value}"'
        f',"zero_in_a":{"true" if zero_in else "false"},"size":{size},"bound":{bound}'
    )


def case_record(
    prefix: str, rule: str, flags: tuple[bool, bool, bool, bool], observed: tuple,
    suffixes: dict,
) -> str:
    """An equality case's template: its row's prefix (row_prefix), then
    judge's flags and the rule, then the observed structure's fields in
    StructureFacts' order. A case's record is "a", its A text, then these.
    The text after the prefix depends on (flags, rule, observed) alone and
    is encoded once per such key into suffixes, which a chunk shares
    between its rows."""
    key = (flags, rule, observed)
    suffix = suffixes.get(key)
    if suffix is None:
        fields = dict(zip(FLAG_NAMES, flags), rule=rule)
        fields.update(zip(FACT_NAMES, observed))
        suffix = suffixes[key] = _template(fields)
    return prefix + suffix


def _prefix_caps(
    kind: SumsetKind, k: int, hs: tuple[int, ...], limit: int, zero_in: bool
) -> tuple:
    """A row's cap at each prefix size m = 0..k, or None where the prefix
    lemmas (README) are not used: an ordinary row needs a nonempty prefix, a
    restricted one m >= h_1. Appending a new maximum to a prefix of size j
    adds at least h_r sums to an ordinary row and g(j) + e(j) to a
    restricted one, where g(j) = max(H ∩ [1, j]) and e(j) = 1 when j+1 is
    in H, except when 0 is in A and g(j) = j. So the cap at m is limit less
    those sums for j = m..k-1; the cap at m = k is the row's bound."""
    ordinary = kind is SumsetKind.ORDINARY
    caps = [None] * k + [limit]
    for m in range(k - 1, 0 if ordinary else hs[0] - 1, -1):
        if ordinary:
            grow = hs[-1]
        else:
            grow = hs[bisect_right(hs, m) - 1]
            grow += m + 1 in hs and not (zero_in and grow == m)
        caps[m] = caps[m + 1] - grow
    return tuple(caps)


def _row_class(
    kind: SumsetKind, k: int, hs: tuple[int, ...], value: int, zero_in: bool
) -> tuple[tuple[tuple[int, ...], int], int]:
    """A row's class key (H walked, limit) and its size offset. On every A a
    row's size is the walked H's plus its offset, and its bound is the limit
    plus the same offset, so the rows of one key hit on the same A-sets
    (README "Row classes"). An ordinary row walks its H, or with 0 in A its
    top rung alone, under its bound, offset 0. A restricted row walks H'
    under its bound less its offset. Without 0 in A, an H other than {k}
    that holds k is one larger than H' = H less k, its offset 1 (k^A = {ΣA}
    lies above every other restricted sum); otherwise H' = H and the offset
    is 0. H' is then replaced by the lesser of H' and k - H' when max H' < k,
    since h^A = ΣA - (k-h)^A: the lesser has the least h_r of its class."""
    if kind is SumsetKind.ORDINARY:
        return (hs[-1:] if zero_in else hs, value), 0
    offset, rest = 0, hs
    if not zero_in and hs[-1] == k and len(hs) > 1:
        offset, rest = 1, hs[:-1]
    if rest[-1] < k:
        rest = min(rest, tuple(k - h for h in reversed(rest)))
    return (rest, value - offset), offset


def _walk(
    a_sets: Iterable[tuple[int, ...]], k: int, open_rows: dict[SumsetKind, list[tuple]]
) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple, int]]]]:
    """(A, hits) for each A-set of a k-block, in the given order: hits are
    (key, size) for the walk rows whose union of A is at most their bound,
    in the rows' fixed order (kind by kind as open_rows holds them, each
    kind's rows in their list order), since a step only filters its
    parent's rows; the closed keys' hits are not among these. open_rows
    maps each kind that has one to its walk rows (key, H, caps): a class
    key's H under its caps, whose size on A is every member's less its
    offset, so the members hit exactly when the walk row does.

    The sets come in lex order, so consecutive ones share a prefix. A stack
    holds, per prefix length, (kind, rungs, rows) for each kind that still
    has a row open there: the rungs of that prefix as absolute vectors (bit
    s is the sum s; every element is >= 0) and those open rows. A step
    extends a copy of its parent's rungs in place, so the stack keeps them.
    Appending a new maximum adds at least the sums that _prefix_caps counts
    (the README's prefix lemmas), so a row whose union of a prefix exceeds
    its cap there exceeds its bound on every set below that prefix: it
    closes for the whole subtree, a kind whose last row closes leaves the
    entry, and a prefix with an empty entry is not extended. A itself is the
    same step to size k, whose cap is the bound: the rows within it there
    are A's hits, and that level is never a parent. Each kind's ladder stops
    at the highest rung its walk rows read: a rung depends only on the rungs
    below it, so the ones above would never be ORed.
    """
    stack = [
        [
            (kind, [1] + [0] * max(hs[-1] for _, hs, _ in rows), rows)
            for kind, rows in open_rows.items()
        ]
    ]
    prev = ()
    for a in a_sets:
        m, depth = 0, len(stack) - 1
        while m < depth and a[m] == prev[m]:
            m += 1
        del stack[m + 1 :]
        prev, hits = a, []
        while m < k and stack[-1]:
            x, m = a[m], m + 1
            pushed = []
            for kind, rungs, rows in stack[-1]:
                rungs = rungs.copy()
                extend_ladder(rungs, x, kind)
                kept = []
                for row in rows:
                    cap = row[2][m]
                    if cap is not None:
                        union = 0
                        for h in row[1]:
                            union |= rungs[h]
                        size = union.bit_count()
                        if size > cap:
                            continue
                        if m == k:
                            hits.append((row[0], size))
                    kept.append(row)
                if kept:
                    pushed.append((kind, rungs, kept))
            stack.append(pushed)
        yield a, hits


def _run_chunk(args: tuple[SearchSpace, tuple, int]) -> _Partial:
    """Every A-set, in lex order, of one a_blocks() block."""
    space, block, case_cap = args
    mode, k, universe, _ = block
    zero_in = mode is ZeroMode.WITH
    acc = _Partial()
    # every sum the walk forms lies in [0, h_max*top], top the largest
    # element of the block's universe: one guard per block
    sumset_ladder(IntSet((universe[-1],)), space.h_max, SumsetKind.ORDINARY)
    # the block's applicable (H, kind) rows in one pass, built per call (not
    # cached): patched formulas show, since a class key holds its row's
    # bound, and a row whose bound breaks its class's symmetry is keyed
    # apart. classes maps each key (kind, H walked, limit) to its members
    # (row index, size offset), in row order. A row keeps its H half and its
    # equality cases' template prefix, not its HSet
    rows, classes = [], {}
    for h_combo in space.h_combos():
        H = HSet(h_combo)
        h_text = format_elements(h_combo)
        for kind in space.kinds:
            outcome = bounds.catalog_bound(kind, k, H, zero_in)
            if not outcome.applicable:
                continue
            (walked, limit), offset = _row_class(kind, k, h_combo, outcome.value, zero_in)
            classes.setdefault((kind, walked, limit), []).append((len(rows), offset))
            h_half = verdict_h_half(kind, zero_in, k, H, outcome)
            prefix = row_prefix(h_text, kind, zero_in, outcome.value, outcome.value)
            rows.append((h_text, kind, outcome, h_half, prefix))
    # closed_sizes maps a (kind, H walked) whose size on A is fixed by
    # f = (2 max A == ΣA) to (size if not f, size if f): {1} is A, a
    # restricted {k} is {ΣA}, and without 0 a restricted {1, k-1} has size
    # 2k - f (README, "Restricted positive inverse rule at H = {1, k-1}").
    # Such a key is compared with its limit here, once per f: closed[f]
    # holds its hit (key, size) on every A of that f. Any other key is one
    # walk row under its caps, in key order within its kind
    closed_sizes = {(kind, (1,)): (k, k) for kind in space.kinds}
    closed_sizes[SumsetKind.RESTRICTED, (k,)] = (1, 1)
    if not zero_in:
        closed_sizes[SumsetKind.RESTRICTED, (1, k - 1)] = (2 * k, 2 * k - 1)
    closed, open_rows = ([], []), {}
    for key in classes:
        kind, walked, limit = key
        sizes = closed_sizes.get((kind, walked))
        if sizes:
            for hits, size in zip(closed, sizes):
                if size <= limit:
                    hits.append((key, size))
        else:
            caps = _prefix_caps(kind, k, walked, limit, zero_in)
            open_rows.setdefault(kind, []).append((key, walked, caps))
    # an A's runs, each list's templates in row order, follow from its
    # half, f and walk hits: resolved once per (half, f, hits), the chunk's
    # one resolution cache (f is taken only where the closed keys' hits
    # depend on it, and most A-sets share one half and have no walk hit).
    # The walk yields a block's hits in its rows' fixed order, so equal hit
    # sets make equal memo keys, and a class key's members are expanded
    # into row hits only on a miss. suffixes holds each equality template's text after
    # its prefix
    runs_by, suffixes, a_sets = {}, {}, 0
    by_sum = closed[0] != closed[1]
    for a_sets, (elements, hits) in enumerate(_walk(_block_sets(block), k, open_rows), 1):
        f = by_sum and 2 * elements[-1] == sum(elements)
        if not (hits or closed[f]):
            continue
        a_half = verdict_a_half(elements, zero_in)
        memo = (a_half, f, *hits)
        runs = runs_by.get(memo)
        if runs is None:
            by_list = {}
            for i, size in sorted(
                (i, size + offset) for key, size in closed[f] + hits for i, offset in classes[key]
            ):
                h_text, kind, outcome, h_half, prefix = rows[i]
                if size < outcome.value:
                    prefix = row_prefix(h_text, kind, zero_in, size, outcome.value)
                    template = prefix + _template({"formula": outcome.formula.identifier})
                    lists = (acc.violations,)
                else:
                    _, flags, observed = judge(size, outcome, h_half, a_half)
                    template = case_record(prefix, h_half[0], flags, observed, suffixes)
                    _, _, consistent, nonstructured = flags
                    lists = (acc.equality,)
                    if nonstructured:
                        lists += (acc.nonstructured,)
                    if not consistent:
                        lists += (acc.inconsistencies,)
                for cases in lists:
                    by_list.setdefault(cases, []).append(template)
            runs = runs_by[memo] = [(cases, tuple(run)) for cases, run in by_list.items()]
        # A's text once per A, and only for a kept run
        a_text = None
        for cases, templates in runs:
            cases.count += len(templates)
            if cases.held < case_cap:
                a_text = a_text or format_elements(elements)
                cases.keep(templates, a_text, case_cap)
    # counted from the sets walked, so a walk that skipped one would show
    acc.pairs = a_sets * space.h_subset_count() * len(space.kinds)
    return acc


@dataclass
class VerificationReport:
    """Outcome of one exhaustive run.

    Violation and inconsistency lists must be empty on every space the
    catalog covers; a nonempty list is a counterexample, and a clean report
    checked every pair of its space. Case lists are bounded by
    equality_case_cap (counts are always complete), and each is a CaseList.
    Wall time is informational: it is left out of equality and of the
    serialized form, so that reports compare byte for byte. The serialized
    keys are the version, then the compared fields in declaration order.
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
        failures = self.bound_violation_count + self.inverse_inconsistency_count
        return failures == 0 and self.pairs_checked == self.enumeration_count

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
                # each record its own run of one template: its text without "a"
                values[name] = CaseList(
                    ((_template({key: item for key, item in r.items() if key != "a"}),), r["a"])
                    for r in value
                )
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> VerificationReport:
        return cls.from_dict(json.loads(text))


def encode_json(value) -> str:
    """json.dumps(value, separators=(",", ":")) for data with string keys in
    which a CaseList stands for the list of its records, built as one list
    of pieces joined once. A case is written as '{"a":', its A text and its
    template, which is already that record's remaining text, so no template
    is encoded here, and a run's A text is encoded once for all its cases;
    dicts and lists are walked, and any other value is encoded whole."""
    pieces = []
    _encode(value, pieces)
    return "".join(pieces)


def _encode(value, pieces: list) -> None:
    """Append value's JSON pieces to pieces."""
    if type(value) is CaseList:
        sep = "["
        # pieces are the shared strings, so the one join makes the only copy
        for templates, a_text in value._runs:
            head = '{"a":' + encode_basestring_ascii(a_text)
            for template in templates:
                pieces += (sep, head, template)
                sep = ","
        pieces.append("]" if value._runs else "[]")
    elif type(value) is dict:
        sep = "{"
        for key, item in value.items():
            pieces += (sep, encode_basestring_ascii(key), ":")
            _encode(item, pieces)
            sep = ","
        pieces.append("}" if value else "{}")
    elif type(value) is list:
        sep = "["
        for item in value:
            pieces.append(sep)
            _encode(item, pieces)
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
    require_int("case cap", case_cap)
    if workers is not None:
        require_int("worker count", workers)
    if case_cap < 0:
        raise ValueError(f"case cap must be nonnegative, got {case_cap}")
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    started = time.perf_counter()
    expected = _capped_count(space, pair_cap)
    # one message per nonempty block, merged in block order
    chunk_args = [(space, block, case_cap) for block in space.a_blocks() if block[-1]]
    # one process per _A_SETS_PER_PROCESS A-sets and per block: a small space
    # of many small blocks, or a space of one block, runs in process
    most = min(-(-space.a_task_count() // _A_SETS_PER_PROCESS), len(chunk_args))
    processes = _pool_size(workers, most)
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
        # an error drops the blocks not yet started
        pool = ProcessPoolExecutor(processes, mp_context=ctx)
        try:
            merged = _merged(pool.map(_run_chunk, chunk_args), case_cap)
        except BrokenProcessPool as exc:
            raise WorkerLostError(
                "a worker process died before returning its blocks; the run is incomplete"
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
    # a template holds its row's H, kind and bound, and a row's bound rises
    # strictly with k, so the cases of one template text share their row
    # and k: the key is read once per distinct text
    groups: dict[tuple[int, int, str], list] = {}
    keys = {}
    for template, a_text in report.equality_cases._pairs:
        key = keys.get(template)
        if key is None:
            fields = _fields(template)
            k, r = len(parse_elements(a_text)), len(parse_elements(fields["h"]))
            key = keys[template] = (k, r, fields["kind"])
        groups.setdefault(key, []).append(((template,), a_text))
    return [
        {"k": k, "r": r, "kind": kind, "cases": CaseList(runs)}
        for (k, r, kind), runs in sorted(groups.items())
    ]
