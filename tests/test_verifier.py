"""Exhaustive verifier: enumeration, determinism, reports."""

import copy
import hashlib
import json
import os
import pickle
import signal
import sys
import time
import weakref
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, astuple, fields, replace
from itertools import chain, combinations, product
from math import comb

import pytest

import sumset_lab.bounds as bounds
import sumset_lab.cli as cli
import sumset_lab.structure as structure
import sumset_lab.verifier as verifier
from sumset_lab.engine import SumsetKind, union_bitmap, union_sumset
from sumset_lab.errors import IntegerOverflowError, SpaceTooLargeError, WorkerLostError
from sumset_lab.intset import HSet, IntSet, format_elements, parse_elements
from sumset_lab.verifier import (
    CaseList,
    SearchSpace,
    VerificationReport,
    ZeroMode,
    _fields,
    _pool_size,
    _prefix_caps,
    _run_chunk,
    case_record,
    encode_json,
    enumerate_pairs,
    find_extremal,
    row_prefix,
    verify,
)

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED


def test_enumerate_tiny_space():
    space = SearchSpace(3, (2, 2), 1, (1, 1), kinds=(ORD,))
    pairs = [(a.elements, h.elements, kind) for a, h, kind in enumerate_pairs(space)]
    assert pairs == [
        ((1, 2), (1,), ORD),
        ((1, 3), (1,), ORD),
        ((2, 3), (1,), ORD),
    ]


@pytest.mark.parametrize(
    "k_range, r_range, message",
    [
        ((0, 3), (1, 3), "k_range 0..3 starts below 1"),
        ((1, 3), (0, 9), "r_range 0..9 reaches outside 1..h_max=3"),
        ((1, 3), (4, 5), "r_range 4..5 reaches outside 1..h_max=3"),
    ],
)
def test_space_refuses_out_of_range_k_and_r(k_range, r_range, message):
    # a space that checked less than its ranges name would misreport itself
    with pytest.raises(ValueError) as exc:
        SearchSpace(6, k_range, 3, r_range)
    assert str(exc.value) == message
    report = verify(SearchSpace(6, (1, 3), 3, (1, 3), kinds=(ORD,)), workers=1)
    data = json.loads(report.to_json())
    data["space"]["k_range"], data["space"]["r_range"] = k_range, r_range
    with pytest.raises(ValueError) as exc:
        VerificationReport.from_json(json.dumps(data))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["k_range", "r_range"])
@pytest.mark.parametrize("ends", [(2,), 6, (1, 2, 3), None])
def test_space_refuses_a_range_that_is_not_two_ints(name, ends):
    # (2,) used to fail on unpacking and 6 on iterating, neither naming the
    # range; from a report, the same message
    with pytest.raises(ValueError) as exc:
        SearchSpace(**{"universe_max": 6, "k_range": (1, 2), "h_max": 2, "r_range": (1, 2),
                       name: ends})
    assert str(exc.value) == f"{name} must be two ints (lo, hi), got {ends!r}"
    data = SearchSpace(6, (1, 2), 2, (1, 2)).to_dict()
    data[name] = list(ends) if type(ends) is tuple else ends
    with pytest.raises(ValueError, match=f"^{name} must be two ints"):
        SearchSpace.from_dict(data)


def test_h_combos_is_the_report_h_order():
    # by size, then lex: the order of enumerate_pairs and of a chunk's rows
    space = SearchSpace(4, (2, 2), 4, (2, 3), kinds=(ORD,))
    combos = list(space.h_combos())
    assert combos == sorted(combos, key=lambda hs: (len(hs), hs))
    assert combos[:3] == [(1, 2), (1, 3), (1, 4)] and combos[-1] == (2, 3, 4)
    assert len(combos) == space.h_subset_count() == 10
    pairs = list(enumerate_pairs(space))
    assert [H.elements for _, H, _ in pairs[: len(combos)]] == combos
    assert list(SearchSpace(4, (2, 2), 4, (3, 2)).h_combos()) == []


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"universe_max": True}, "universe_max True is not an integer"),
        ({"universe_max": 6.0}, "universe_max 6.0 is not an integer"),
        ({"h_max": 2.0}, "h_max 2.0 is not an integer"),
        ({"k_range": (True, 2)}, "k_range True is not an integer"),
        ({"k_range": (1, 2.5)}, "k_range 2.5 is not an integer"),
        ({"r_range": (1, True)}, "r_range True is not an integer"),
    ],
)
def test_space_refuses_non_int_bounds(fields, message):
    # a bool bound would be written into the report as true, and a float
    # one fails inside a_blocks: both are refused when the space is built
    with pytest.raises(TypeError) as exc:
        SearchSpace(**{"universe_max": 6, "k_range": (1, 2), "h_max": 2, "r_range": (1, 2),
                       **fields})
    assert str(exc.value) == message


@pytest.mark.parametrize("kinds", ["ordinary", ORD, None, {ORD}])
def test_space_refuses_kinds_that_are_not_a_tuple_or_list(kinds):
    # a string was iterated letter by letter and a lone kind failed as not
    # iterable, neither error naming kinds; a set has no fixed report order
    with pytest.raises(TypeError) as exc:
        SearchSpace(6, (1, 2), 2, (1, 2), kinds=kinds)
    assert str(exc.value) == f"kinds must be a tuple or list of SumsetKind, got {kinds!r}"


def test_enumerate_pairs_refuses_a_non_int_pair_cap():
    # the pair cap is refused by the count both entry points share
    space = SearchSpace(4, (2, 2), 2, (1, 2))
    for run in (enumerate_pairs, verify):
        with pytest.raises(TypeError) as exc:
            list(run(space, pair_cap=True))
        assert str(exc.value) == "pair cap True is not an integer"


def test_enumeration_count_formula():
    space = SearchSpace(2, (1, 2), 2, (1, 2), kinds=(ORD,))
    assert space.enumeration_count() == 9
    space = SearchSpace(12, (2, 6), 6, (1, 6))
    expected = sum(comb(12, k) for k in range(2, 7)) * sum(
        comb(6, r) for r in range(1, 7)
    ) * 2
    assert space.enumeration_count() == expected
    assert sum(1 for _ in enumerate_pairs(space)) == expected


def test_enumeration_count_matches_stream_with_zero_mode():
    space = SearchSpace(5, (1, 3), 3, (1, 2), kinds=(RES,), zero_mode=ZeroMode.BOTH)
    pairs = list(enumerate_pairs(space))
    assert len(pairs) == space.enumeration_count()
    with_zero = [a for a, _, _ in pairs if 0 in a.elements]
    # zero mode draws the positive part from [1, N-1] and forces 0 in
    assert with_zero and all(a.max <= 4 for a in with_zero)
    assert all(len(a) in (1, 2, 3) for a in with_zero)


def test_enumeration_order_is_deterministic():
    space = SearchSpace(5, (2, 3), 3, (1, 2))
    first = [(a.elements, h.elements, k.value) for a, h, k in enumerate_pairs(space)]
    second = [(a.elements, h.elements, k.value) for a, h, k in enumerate_pairs(space)]
    assert first == second
    assert len(first) == len(set(first))  # each pair exactly once


def test_with_zero_blocks_are_zero_and_the_subsets_of_one_less():
    # a with-zero block is the first C(N-1, k-1) k-subsets of [0, N-1] in lex
    # order: {0} plus each (k-1)-subset of [1, N-1], in lex order
    for n in range(1, 10):
        blocks = SearchSpace(n, (1, n + 1), 1, (1, 1), zero_mode=ZeroMode.WITH).a_blocks()
        assert [block[1] for block in blocks] == list(range(1, n + 2))
        for block in blocks:
            mode, k, universe, size = block
            assert mode is ZeroMode.WITH and tuple(universe) == tuple(range(n))
            sets = [(0, *c) for c in combinations(range(1, n), k - 1)]
            assert size == len(sets)
            assert list(verifier._block_sets(block)) == sets


def test_space_cap():
    space = SearchSpace(12, (2, 6), 6, (1, 6))
    with pytest.raises(SpaceTooLargeError):
        list(enumerate_pairs(space, pair_cap=1000))
    with pytest.raises(SpaceTooLargeError):
        verify(space, pair_cap=1000)


def test_space_counts_stay_exact_on_long_ranges():
    for n in range(10):
        for lo in range(12):
            for hi in range(lo - 1, 12):
                picks = range(lo, hi + 1)
                assert verifier._binomials(n, picks) == [comb(n, r) for r in picks]
    space = SearchSpace(8, (2, 2), 16_000, (1, 16_000), kinds=(ORD,))
    assert space.h_subset_count() == 2**16_000 - 1
    space = SearchSpace(8000, (1, 8000), 1, (1, 1), zero_mode=ZeroMode.BOTH)
    # k-subsets of [1, 8000], then {0} plus (k-1)-subsets of [1, 7999]
    assert space.a_task_count() == 2**8000 - 1 + 2**7999


def test_cap_message_stays_readable_for_any_count():
    text = verifier._count_text
    assert text(123) == "123"
    assert text(10**30 - 1) == "9" * 30
    assert text(10**30) == "at least 10^30"
    for exponent in (31, 4300, 9000):
        assert text(10**exponent - 1) == f"at least 10^{exponent - 1}"
        assert text(10**exponent) == f"at least 10^{exponent}"
        assert text(10**exponent + 1) == f"at least 10^{exponent}"
    # 2 kinds * comb(8, 2) * (2^16000 - 1) pairs, about 10^4818.2
    space = SearchSpace(8, (2, 2), 16_000, (1, 16_000))
    with pytest.raises(SpaceTooLargeError, match=r"visit at least 10\^4818 pairs, above"):
        verify(space)


def test_single_pair_equality_space():
    space = SearchSpace(3, (3, 3), 2, (2, 2), kinds=(ORD,))
    report = verify(space, workers=1)
    assert report.pairs_checked == 1
    assert report.equality_case_count == 1
    case = report.equality_cases[0]
    assert case["a"] == "1..3" and case["h"] == "1,2"
    assert case["consistent"] and not case["nonstructured"]
    assert report.clean


def test_boundary_nonstructured_case_recorded():
    space = SearchSpace(4, (3, 3), 2, (1, 1), kinds=(RES,))
    report = verify(space, workers=1)
    flagged = {
        (case["a"], case["h"]) for case in report.allowed_nonstructured_equalities
    }
    assert ("1,2,4", "2") in flagged
    assert report.clean  # boundary cases are allowed, not failures


def test_restricted_first_and_last_multiplicity_family_is_allowed():
    # N=16, k=6 holds the two smallest members of the H = {1, k-1} family
    space = SearchSpace(16, (6, 6), 5, (2, 5), kinds=(RES,))
    report = verify(space, workers=1)
    assert report.pairs_checked == 208_208
    assert report.inverse_inconsistency_count == 0
    assert report.bound_violation_count == 0
    flagged = {
        (case["a"], case["h"]) for case in report.allowed_nonstructured_equalities
    }
    assert flagged == {("1..5,15", "1,5"), ("1..4,6,16", "1,5")}
    assert report.allowed_nonstructured_count == 2
    assert report.clean


@pytest.mark.deep
def test_deep_sweep_n14():
    # N=14, k 2..7, hmax 7, both kinds, both zero modes: 3,552,952 pairs
    space = SearchSpace(14, (2, 7), 7, (1, 7), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 3_552_952
    assert report.equality_case_count == 78_197
    assert report.allowed_nonstructured_count == 72_052
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    assert report.clean


@pytest.mark.deep
def test_deep_sweep_n16():
    # N=16, k 2..8, hmax 8, both kinds, both zero modes: 28,340,190 pairs
    space = SearchSpace(16, (2, 8), 8, (1, 8), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 28_340_190
    assert report.equality_case_count == 298_286
    assert report.allowed_nonstructured_count == 285_079
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    assert report.clean


@pytest.mark.deep
def test_deep_campaign_n18():
    # N=18, k 2..9, hmax 8, both kinds, both zero modes: 112,657,980 pairs,
    # above the default pair cap; most rows close deep in the prefix walk
    space = SearchSpace(18, (2, 9), 8, (1, 8), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, pair_cap=2 * 10**8, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 112_657_980
    assert report.equality_case_count == 1_000_097
    assert report.allowed_nonstructured_count == 984_240
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    assert report.clean


@pytest.mark.deep
def test_deep_campaign_n20():
    # N=20, k 2..10, hmax 9, both kinds, both zero modes: 898,121,336 pairs,
    # the walk's ladder steps at scale (about 3 s at 2 workers on 2 vCPUs)
    space = SearchSpace(20, (2, 10), 9, (1, 9), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, pair_cap=10**9, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 898_121_336
    assert report.equality_case_count == 3_966_811
    assert report.allowed_nonstructured_count == 3_934_158
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    assert report.clean


@pytest.mark.deep
def test_deep_campaign_n22():
    # N=22, k 2..11, hmax 10, both kinds, both zero modes: 7,157,767,320
    # pairs (about 10 s at 2 workers on 2 vCPUs)
    space = SearchSpace(22, (2, 11), 10, (1, 10), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, pair_cap=10**10, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 7_157_767_320
    assert report.equality_case_count == 15_802_080
    assert report.allowed_nonstructured_count == 15_731_726
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    assert report.clean


def _sum_family(n, k):
    """Texts of the k-subsets of [1, n] whose largest element is the sum of
    the others."""
    return {
        format_elements(rest + (sum(rest),))
        for rest in combinations(range(1, n), k - 1)
        if sum(rest) <= n
    }


@pytest.mark.deep
@pytest.mark.parametrize(
    "n, k, pairs, equality, family",
    [(22, 6, 1_939_938, 72, 42), (24, 7, 19_727_928, 52, 7)],
)
def test_deep_restricted_first_and_last_multiplicity_family(n, k, pairs, equality, family):
    # restricted, without zero, r >= 2: by the README's proof at H = {1, k-1},
    # the allowed nonstructured cases are exactly that H on the sets whose
    # largest element is the sum of the others; the oracle does not sweep
    space = SearchSpace(n, (k, k), k - 1, (2, k - 1), kinds=(RES,))
    report = verify(space, workers=2)
    assert report.pairs_checked == space.enumeration_count() == pairs
    assert report.equality_case_count == equality
    assert report.bound_violation_count == 0
    assert report.inverse_inconsistency_count == 0
    expected = {(text, f"1,{k - 1}") for text in _sum_family(n, k)}
    assert len(expected) == family
    flagged = {
        (case["a"], case["h"]) for case in report.allowed_nonstructured_equalities
    }
    assert flagged == expected
    assert report.allowed_nonstructured_count == family
    assert report.clean


def test_verify_counts_and_lists_consistent():
    space = SearchSpace(7, (2, 4), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=1)
    assert report.pairs_checked == report.enumeration_count == space.enumeration_count()
    assert report.bound_violation_count == len(report.bound_violations) == 0
    assert report.inverse_inconsistency_count == 0
    assert report.equality_case_count == len(report.equality_cases)
    assert report.allowed_nonstructured_count == len(
        report.allowed_nonstructured_equalities
    )
    nonstructured = [c for c in report.equality_cases if c["nonstructured"]]
    assert len(nonstructured) == report.allowed_nonstructured_count


def _pin_cpus(monkeypatch, count):
    # the CPU count _pool_size sees; a pool started under it may oversubscribe
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def _chunk_count(space):
    """The chunks verify runs: one per nonempty block."""
    return sum(block[-1] > 0 for block in space.a_blocks())


def _pool_cap(space):
    """verify's clamp on the pool: one process per _A_SETS_PER_PROCESS A-sets
    and per chunk."""
    per_a_sets = -(-space.a_task_count() // verifier._A_SETS_PER_PROCESS)
    return min(per_a_sets, _chunk_count(space))


def _run_blocks(space, case_cap):
    """Each block of the space run as one chunk, merged in block order."""
    return verifier._merged(
        (_run_chunk((space, block, case_cap)) for block in space.a_blocks()), case_cap
    )


def test_worker_determinism_small_space(monkeypatch, same_json):
    # more CPUs than the machine may have, and a low pool clamp, so that 3
    # processes really start
    _pin_cpus(monkeypatch, 8)
    monkeypatch.setattr(verifier, "_A_SETS_PER_PROCESS", 64)
    space = SearchSpace(8, (2, 4), 4, (1, 3), zero_mode=ZeroMode.BOTH)
    assert _pool_size(3, _pool_cap(space)) == 3
    blobs = {w: verify(space, workers=w).to_json() for w in (1, 2, 3)}
    same_json(blobs[2], blobs[1], "workers=2")
    same_json(blobs[3], blobs[1], "workers=3")


def test_report_bytes_do_not_depend_on_chunk_size(monkeypatch, same_json):
    # a chunk is a block, chunks merge in block order and each list keeps its
    # first case_cap records, so neither the pool clamp nor the worker count
    # shows
    _pin_cpus(monkeypatch, 2)
    space = SearchSpace(9, (1, 5), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    total = space.a_task_count()
    expected = verify(space, workers=1, case_cap=50).to_json()
    for size, workers in product((1, 7, 64, 512, total), (1, 2)):
        monkeypatch.setattr(verifier, "_A_SETS_PER_PROCESS", size)
        report = verify(space, workers=workers, case_cap=50)
        # more equality cases than the cap, so every run truncates that list
        assert report.equality_case_count > 50
        assert (_pool_cap(space) == 1) == (size == total)
        same_json(report.to_json(), expected, f"clamp={size} workers={workers}")


def test_dead_worker_fails_the_run(monkeypatch, capsys):
    # a worker that exits mid-chunk, as one lost to the OOM killer would:
    # the run must raise rather than wait for its result, and the CLI must
    # print an error line for it; fork passes the patch on, and only
    # workers call it
    parent, real = os.getpid(), bounds.catalog_bound

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    def hung(signum, frame):
        raise TimeoutError("verify still waits on a dead worker")

    monkeypatch.setattr(bounds, "catalog_bound", dying)
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(verifier, "_A_SETS_PER_PROCESS", 64)
    space = SearchSpace(10, (2, 3), 2, (1, 2))
    assert _pool_size(2, _pool_cap(space)) == 2  # so 2 workers start
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(WorkerLostError) as exc:
            verify(space, workers=2)
        assert isinstance(exc.value.__cause__, BrokenProcessPool)
        flags = ["--universe", "10", "--k", "2..3", "--hmax", "2", "--workers", "2"]
        for command in ("verify", "extremal"):
            assert cli.main([command, *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {exc.value}\n"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_COUNTS_AND_LISTS = (
    ("bound_violation_count", "bound_violations"),
    ("equality_case_count", "equality_cases"),
    ("allowed_nonstructured_count", "allowed_nonstructured_equalities"),
    ("inverse_inconsistency_count", "inverse_inconsistencies"),
)


def test_equality_case_cap_truncates_lists_not_counts(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    # an ordinary bound one too high fills all four lists in every chunk:
    # sizes at the true bound fall short of it, and sizes one above become
    # equality cases, some covered by the hypotheses yet unstructured
    real = bounds.catalog_bound

    def raised(kind, *args):
        outcome = real(kind, *args)
        if kind is ORD and outcome.applicable:
            return replace(outcome, value=outcome.value + 1)
        return outcome

    monkeypatch.setattr(bounds, "catalog_bound", raised)
    monkeypatch.setattr(verifier, "_A_SETS_PER_PROCESS", 64)
    space = SearchSpace(10, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    assert _chunk_count(space) == 6
    assert _pool_size(2, _pool_cap(space)) == 2
    # the first chunk in block order: the first block
    first = _run_chunk((space, space.a_blocks()[0], 10**9))
    first_counts = [
        first.violations.count,
        first.equality.count,
        first.nonstructured.count,
        first.inconsistencies.count,
    ]
    full = verify(space, workers=1)
    for (count, _), in_first in zip(_COUNTS_AND_LISTS, first_counts):
        assert 1 < in_first < getattr(full, count) - 1
    # caps below, at and above what the first chunk holds of each list
    caps = sorted({c + d for c in first_counts for d in (-1, 0, 1)})
    for workers, cap in product((1, 2), caps):
        capped = verify(space, workers=workers, case_cap=cap)
        assert capped.equality_case_cap == cap
        for count, cases in _COUNTS_AND_LISTS:
            assert getattr(capped, count) == getattr(full, count)
            assert getattr(capped, cases) == getattr(full, cases)[:cap]
            assert len(getattr(capped, cases)) == min(cap, getattr(full, count))


def test_cases_extend_cuts_the_run_that_crosses_the_cap():
    ts = tuple(f',"t":{i}}}' for i in range(6))
    merged = verifier._Cases(count=3, held=3, kept=[(ts[:3], "1")])
    part = verifier._Cases(count=9, held=9, kept=[(ts[:2], "2"), (ts, "3"), (ts[:1], "4")])
    merged.extend(part, 8)
    # the first run fits, the second is cut to the 3 cases left, the third
    # is dropped; the count is whole
    assert merged.count == 12 and merged.held == 8
    assert merged.kept == [(ts[:3], "1"), (ts[:2], "2"), (ts[:3], "3")]
    assert list(CaseList(merged.kept)) == [
        {"a": a, "t": t} for a, n in (("1", 3), ("2", 2), ("3", 3)) for t in range(n)
    ]
    # at the cap, a run adds its count and no case
    merged.extend(verifier._Cases(count=1, held=1, kept=[(ts[:1], "5")]), 8)
    assert (merged.count, merged.held, len(merged.kept)) == (13, 8, 3)
    runs = [(ts[:2], "2"), (ts[:3], "3")]

    def head():
        return verifier._Cases(count=4, held=3, kept=[(ts[:3], "1")])

    # a part that lands exactly on the cap is appended whole: its run tuples
    # are the merge's, not copies
    merged, part = head(), verifier._Cases(count=7, held=5, kept=list(runs))
    merged.extend(part, 8)
    assert (merged.count, merged.held) == (11, 8)
    assert merged.kept == [(ts[:3], "1"), *runs]
    assert all(mine is theirs for mine, theirs in zip(merged.kept[1:], part.kept))
    # one case over the cap: the last run is cut to the room left
    merged, part = head(), verifier._Cases(count=6, held=6, kept=[runs[0], (ts[:4], "3")])
    merged.extend(part, 8)
    assert (merged.count, merged.held) == (10, 8)
    assert merged.kept == [(ts[:3], "1"), runs[0], (ts[:3], "3")]
    # a merge already at the cap only adds counts, whatever the part holds
    for held, kept in ((0, []), (5, list(runs))):
        before = list(merged.kept)
        merged.extend(verifier._Cases(count=9, held=held, kept=kept), 8)
        assert merged.held == 8 and merged.kept == before
    assert merged.count == 28


def test_case_cap_cuts_inside_a_run_in_the_chunk_and_in_the_merge(monkeypatch):
    # every cap in 0..40 and 180..200 on the acceptance space: each list is
    # the uncapped list cut to the cap, and every count is whole. A chunk
    # cuts its lists at the cap, and the merge cuts the run that crosses it.
    # verify at 1 worker is _merged of the block results, kept here as they
    # pass; lists compare as their (template, A text) pairs
    _pin_cpus(monkeypatch, 2)
    real = verifier._run_chunk
    parts = []

    def kept(args):
        parts.append(real(args))
        return parts[-1]

    lists = ("violations", "equality", "nonstructured", "inconsistencies")
    whole_parts = [real((_ACCEPTANCE, block, 10**9)) for block in _ACCEPTANCE.a_blocks()]
    whole = verifier._merged(whole_parts, 10**9)
    chunk_cuts, merge_cuts = set(), set()
    for cap in (*range(41), *range(180, 201)):
        parts.clear()
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_run_chunk", kept)
            reports = [verify(_ACCEPTANCE, workers=1, case_cap=cap)]
        reports.append(verify(_ACCEPTANCE, workers=2, case_cap=cap))
        assert len(parts) == len(whole_parts)
        for name, (count_field, list_field) in zip(lists, _COUNTS_AND_LISTS):
            full = getattr(whole, name)
            expected = CaseList(full.kept)._pairs[:cap]
            for part, whole_part in zip(parts, whole_parts):
                cases, uncut = getattr(part, name), getattr(whole_part, name)
                assert cases.count == uncut.count
                assert CaseList(cases.kept)._pairs == CaseList(uncut.kept)._pairs[:cap]
                n = len(cases.kept)
                if n and cases.kept[-1] != uncut.kept[n - 1]:
                    chunk_cuts.add((cap, name))
            # the merged runs are the parts' runs in block order, the last
            # one cut at the cap
            runs = [run for part in parts for run in getattr(part, name).kept]
            merged = getattr(reports[0], list_field)._runs
            n = len(merged)
            assert merged[: n - 1] == tuple(runs[: n - 1])
            if n and merged[-1] != runs[n - 1]:
                merge_cuts.add((cap, name))
            for report in reports:
                assert getattr(report, count_field) == full.count
                cases = getattr(report, list_field)
                assert len(cases) == len(expected) == min(cap, full.count)
                assert cases._pairs == expected
    # the CI pin's cap: the equality list is cut inside a run of block 0,
    # and the nonstructured list in the merge, inside a run of block 1
    assert (190, "equality") in chunk_cuts
    assert (190, "nonstructured") in merge_cuts
    assert {name for _, name in chunk_cuts | merge_cuts} == {"equality", "nonstructured"}


def test_in_process_merge_keeps_one_chunk_result_at_a_time(monkeypatch):
    real, results, alive = verifier._run_chunk, [], []

    def tracked(args):
        # earlier chunk results still reachable as this chunk starts
        alive.append(sum(ref() is not None for ref in results))
        result = real(args)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(verifier, "_run_chunk", tracked)
    space = SearchSpace(10, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    verify(space, workers=1, case_cap=10)
    assert len(alive) == _chunk_count(space) > 4
    assert max(alive) <= 1


def test_verify_rejects_negative_case_cap_and_workers():
    space = SearchSpace(4, (2, 2), 2, (1, 2))
    with pytest.raises(ValueError):
        verify(space, workers=1, case_cap=-1)
    for workers in (0, -3):
        with pytest.raises(ValueError):
            verify(space, workers=workers)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("case_cap", True, "case cap True is not an integer"),
        ("case_cap", 1.5, "case cap 1.5 is not an integer"),
        ("pair_cap", 1e8, "pair cap 100000000.0 is not an integer"),
        ("workers", 2.0, "worker count 2.0 is not an integer"),
    ],
)
def test_verify_refuses_non_int_caps_and_workers(name, value, message):
    # a bool cap would be written into the report as true, a float one
    # fails in the middle of a run: both are refused before any chunk runs
    space = SearchSpace(4, (2, 2), 2, (1, 2))
    for run in (verify, find_extremal):
        with pytest.raises(TypeError) as exc:
            run(space, **{name: value})
        assert str(exc.value) == message


def test_pool_size_clamps_to_chunk_count(monkeypatch):
    _pin_cpus(monkeypatch, 64)
    assert _pool_size(8, 3) == 3
    assert _pool_size(2, 100) == 2
    assert _pool_size(10**9, 5) == 5
    assert _pool_size(4, 0) == 1  # an empty space still runs serially
    assert 1 <= _pool_size(None, 2) <= 2


def test_pool_size_clamps_to_cpu_affinity(monkeypatch):
    _pin_cpus(monkeypatch, 3)
    assert _pool_size(None, 100) == 3  # the default is the usable CPU count
    assert _pool_size(8, 100) == 3  # an explicit request is capped too
    assert _pool_size(2, 100) == 2
    assert _pool_size(8, 2) == 2  # the chunk clamp still applies
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _pool_size(None, 100) == 5
    assert _pool_size(10**9, 100) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(None, 100) == 1


def test_corrupted_bound_is_detected(monkeypatch):
    # the suite must be able to see its own failures: inflate one formula
    # where catalog_bound evaluates it
    real = bounds._union_value

    def inflated(k, hs, zero_in_A):
        return real(k, hs, zero_in_A) + 1

    monkeypatch.setattr(bounds, "_union_value", inflated)
    space = SearchSpace(5, (2, 3), 2, (1, 2), kinds=(ORD,))
    report = verify(space, workers=1)
    assert report.bound_violation_count > 0
    assert not report.clean
    violation = report.bound_violations[0]
    assert violation["size"] == violation["bound"] - 1


def test_bound_violations_capped_per_chunk_counts_complete(monkeypatch, same_json):
    real = bounds._union_value
    monkeypatch.setattr(bounds, "_union_value", lambda k, hs, z: real(k, hs, z) + 1)
    # more than one chunk, so the cap is applied before the merge
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(verifier, "_A_SETS_PER_PROCESS", 64)
    space = SearchSpace(10, (3, 4), 2, (1, 2), kinds=(ORD,))
    assert _pool_size(2, _pool_cap(space)) == 2
    reports = {w: verify(space, workers=w, case_cap=1) for w in (1, 2)}
    report = reports[1]
    assert report.bound_violation_count > 1
    assert len(report.bound_violations) == 1
    same_json(reports[2].to_json(), reports[1].to_json())
    full = verify(space, workers=1)
    assert full.bound_violation_count == report.bound_violation_count
    assert full.bound_violations[:1] == report.bound_violations
    chunks = [_run_chunk((space, block, 1)) for block in space.a_blocks()]
    assert sum(chunk.violations.count for chunk in chunks) == report.bound_violation_count
    # capped before the merge
    assert [chunk.violations.held for chunk in chunks] == [1, 1]


def test_bounds_looked_up_once_per_block(monkeypatch):
    real = bounds.catalog_bound
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "catalog_bound", counting)
    space = SearchSpace(7, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    blocks = len(space.a_blocks())  # k = 2..4 in both zero modes
    chunk = _run_blocks(space, 0)
    assert len(calls) == blocks * space.h_subset_count() * len(space.kinds)
    assert chunk.pairs == space.enumeration_count()


def test_bounds_looked_up_once_per_chunk_through_verify(monkeypatch):
    # a chunk is one block, so it sets up exactly that block's rows; a block
    # with no A-set (k above N) is no chunk
    calls = []
    _count_calls(monkeypatch, bounds, "catalog_bound", calls)
    space = SearchSpace(7, (2, 8), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    # 6 blocks each of k = 2..7 without 0 and with it
    assert len(space.a_blocks()) == 14 and _chunk_count(space) == 12
    report = verify(space, workers=1)
    assert report.pairs_checked == space.enumeration_count()
    assert len(calls) == _chunk_count(space) * space.h_subset_count() * len(space.kinds)


def _refuse_pools(monkeypatch):
    import concurrent.futures

    def refused(*args, **kwargs):
        raise AssertionError("a ProcessPoolExecutor was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)


def test_small_space_of_many_blocks_runs_in_process(monkeypatch):
    # the pool is clamped by A-sets as well as by chunks: a space of at most
    # _A_SETS_PER_PROCESS A-sets starts no process however many blocks cut it
    _pin_cpus(monkeypatch, 8)
    _refuse_pools(monkeypatch)
    space = SearchSpace(8, (1, 5), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    assert _chunk_count(space) == len(space.a_blocks()) == 10
    assert space.a_task_count() == 317 <= verifier._A_SETS_PER_PROCESS
    report = verify(space, workers=8)
    assert report.pairs_checked == space.enumeration_count()


def test_space_of_one_block_runs_in_process(monkeypatch):
    # a block is never split across processes, so one block of more than
    # _A_SETS_PER_PROCESS A-sets still runs in process at any worker count
    _pin_cpus(monkeypatch, 8)
    _refuse_pools(monkeypatch)
    space = SearchSpace(16, (6, 6), 5, (2, 5), kinds=(RES,))
    assert _chunk_count(space) == 1
    assert space.a_task_count() == comb(16, 6) == 8008
    for workers in (2, 8):
        report = verify(space, workers=workers)
        assert report.pairs_checked == space.enumeration_count()


def test_sweep_matches_single_pair_path(monkeypatch):
    # r starts above 1, so some union prefixes are never rows themselves
    space = SearchSpace(7, (1, 5), 4, (2, 4), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=1)
    equal, applicable = set(), 0
    for A, H, kind in enumerate_pairs(space):
        verdict = structure.check_inverse(A, H, kind)
        applicable += verdict.bound_applicable
        if verdict.equality_holds:
            equal.add((A.elements, H.elements, kind.value))
    assert report.equality_case_count == len(report.equality_cases) == len(equal)
    for case in report.equality_cases:
        A, H = IntSet(parse_elements(case["a"])), HSet(parse_elements(case["h"]))
        kind = SumsetKind(case["kind"])
        assert (A.elements, H.elements, kind.value) in equal
        verdict = structure.check_inverse(A, H, kind)
        assert case["size"] == verdict.computed_size
        assert case["rule"] == verdict.rule
        assert case["hypotheses_hold"] == verdict.hypotheses_hold
        assert case["structure_matches"] == verdict.structure_matches
        assert case["consistent"] == verdict.consistent
        assert case["nonstructured"] == verdict.is_nonstructured_equality
        observed = asdict(verdict.structure_observed)
        assert len(observed) == 7
        assert {name: case[name] for name in observed} == observed
    # every applicable pair now falls short of its bound, with its true size
    real = bounds.catalog_bound

    def raised(*args):
        outcome = real(*args)
        return replace(outcome, value=outcome.value + 10**6)

    monkeypatch.setattr(bounds, "catalog_bound", raised)
    report = verify(space, workers=1)
    assert report.bound_violation_count == len(report.bound_violations) == applicable
    for violation in report.bound_violations:
        A = IntSet(parse_elements(violation["a"]))
        H = HSet(parse_elements(violation["h"]))
        kind = SumsetKind(violation["kind"])
        assert violation["size"] == len(union_sumset(A, H, kind))


def test_prefix_caps_chain_g():
    # k = 6, H = {2, 5}: a prefix of size j grows by at least h_r = 5 sums
    # for the ordinary row, and by g(j) + e(j) for the restricted one, where
    # g(j) = max(H ∩ [1, j]) and e(j) = 1 when j+1 is in H (here j = 4), so
    # a restricted row is tested from m = h_1 = 2, below h_r
    assert bounds.catalog_bound(ORD, 6, HSet((2, 5)), False).value == 27
    assert bounds.catalog_bound(RES, 6, HSet((2, 5)), False).value == 13
    assert _prefix_caps(ORD, 6, (2, 5), 27, False) == (None, 2, 7, 12, 17, 22, 27)
    assert _prefix_caps(ORD, 6, (2, 5), 27, True) == (None, 2, 7, 12, 17, 22, 27)
    assert _prefix_caps(RES, 6, (2, 5), 13, False) == (None, None, 1, 3, 5, 8, 13)
    # H = {2, 3}: e(2) = 1 without 0, but not with 0 in A, where g(2) = 2
    assert _prefix_caps(RES, 4, (2, 3), 6, True) == (None, None, 1, 3, 6)
    assert _prefix_caps(RES, 4, (2, 3), 7, False) == (None, None, 1, 4, 7)
    # with h_1 = h_r = k the only cap is the bound
    assert _prefix_caps(RES, 3, (3,), 1, False) == (None, None, None, 1)


def _brute_force_sizes(space):
    """(A, H, kind, size) for every pair of the space that the catalog
    covers, each size from union_bitmap: the walk's reference."""
    sizes = []
    for A, H, kind in enumerate_pairs(space):
        if bounds.catalog_bound(kind, len(A), H, A.elements[0] == 0).applicable:
            sizes.append((A, H, kind, len(union_bitmap(A, H, kind))))
    return sizes


def _assert_sweep_matches(space, sizes):
    """verify's counts and uncapped case lists against the brute-force
    sizes, each compared with bounds.catalog_bound as it stands, patched or
    not; returns the report."""
    values, equality, below = {}, [], []
    for A, H, kind, size in sizes:
        key = (kind, len(A), H, A.elements[0] == 0)
        if key not in values:
            values[key] = bounds.catalog_bound(*key).value
        case = (format_elements(A.elements), format_elements(H.elements), kind.value)
        if size == values[key]:
            equality.append(case)
        elif size < values[key]:
            below.append(case + (size,))
    report = verify(space, workers=1, case_cap=len(sizes))
    assert report.equality_case_count == len(report.equality_cases) == len(equality)
    assert report.bound_violation_count == len(report.bound_violations) == len(below)
    assert [(c["a"], c["h"], c["kind"]) for c in report.equality_cases] == equality
    assert [(c["a"], c["h"], c["kind"], c["size"]) for c in report.bound_violations] == below
    return report


def _raise_catalog(monkeypatch, raise_by):
    real = bounds.catalog_bound

    def raised(*args):
        outcome = real(*args)
        return replace(outcome, value=outcome.value + raise_by)

    monkeypatch.setattr(bounds, "catalog_bound", raised)


def _sweep_counts_near_the_bound(monkeypatch, space, sizes):
    """(equality, violation) counts with the catalog's value raised by 0, 1
    and 2, each run checked against the brute-force sizes."""
    counts = []
    for raise_by in (0, 1, 2):
        _raise_catalog(monkeypatch, raise_by)
        report = _assert_sweep_matches(space, sizes)
        counts.append((report.equality_case_count, report.bound_violation_count))
        monkeypatch.undo()  # else the next raise would wrap this one
    return counts


# k 1..6 in both zero modes and H ⊆ [1, 5]: every row class of k <= 5 has
# all of its members here
_NEAR_SPACE = SearchSpace(9, (1, 6), 5, (1, 5), zero_mode=ZeroMode.BOTH)


@pytest.fixture(scope="module")
def near_sizes():
    return _brute_force_sizes(_NEAR_SPACE)


def test_sweep_matches_brute_force_near_the_bound(monkeypatch, near_sizes):
    # every pair's size from union_bitmap against verify's counts and case
    # lists, with the catalog's value raised by 0, 1 and 2: a walk that
    # closes a row too soon (a prefix cap too low) loses cases near the bound
    assert _NEAR_SPACE.enumeration_count() == 42408
    counts = _sweep_counts_near_the_bound(monkeypatch, _NEAR_SPACE, near_sizes)
    assert counts == [(4602, 0), (2049, 4602), (2007, 6651)]


@pytest.mark.parametrize(
    "k, target, counts",
    [
        (5, (1, 2), (4623, 3)),  # the head of its class
        (5, (3, 4), (4623, 3)),  # its complement
        (5, (1, 2, 5), (4605, 1)),  # a top-k member, offset 1
        (4, (1, 3, 4), (4714, 7)),  # the top-k member of a self-complementary H'
        (5, (3,), (4660, 8)),  # {2} and {3} share a class at k = 5
    ],
)
def test_patched_class_member_is_walked_apart(monkeypatch, near_sizes, k, target, counts):
    # a formula inflated for one member of a row class breaks the class's
    # symmetry: that row's key no longer matches, so the walk tests it
    # apart, and the report still equals brute force under the patch
    real = bounds._restricted_value

    def inflated(kk, hs, zero_in_A):
        return real(kk, hs, zero_in_A) + (kk == k and hs == target)

    monkeypatch.setattr(bounds, "_restricted_value", inflated)
    report = _assert_sweep_matches(_NEAR_SPACE, near_sizes)
    patched = {(c["h"], c["kind"]) for c in report.bound_violations}
    assert patched == {(format_elements(target), "restricted")}
    assert (report.equality_case_count, report.bound_violation_count) == counts


@pytest.mark.parametrize("shift", [1, -1])
def test_patched_constant_row_matches_brute_force(monkeypatch, near_sizes, shift):
    # restricted {1} is A itself, of size k on every A, and without 0 the
    # restricted {1, k-1} has size 2k - [2 max A = ΣA] and {1, k-1, k} one
    # more: each such class is compared with its own limit once per block,
    # not with the catalog's value, and never walked. Raised by 1 (at every
    # k for {1}, at one k without 0 for the others), every A of the row hits
    # it at the size the sum test gives; lowered by 1, no A reaches it. No
    # 5-subset of [1, 9] has 2 max A = ΣA, so k = 3 covers that side
    real = bounds._restricted_value
    targets = (((1,), None, 683), ((1, 4), 5, 126), ((1, 4, 5), 5, 126), ((1, 2), 3, 84))
    for target, k, count in targets:

        def patched(kk, hs, zero_in_A):
            row = hs == target and (k is None or (kk, zero_in_A) == (k, False))
            return real(kk, hs, zero_in_A) + shift * row

        def closed(A):
            # the patched row's size on A by the sum test, or None off the row
            if k is None:
                return len(A)
            if len(A) == k and A.min > 0:
                return 2 * k - (2 * A.max == sum(A.elements)) + (k in target)
            return None

        monkeypatch.setattr(bounds, "_restricted_value", patched)
        report = _assert_sweep_matches(_NEAR_SPACE, near_sizes)
        monkeypatch.undo()  # else the next target's patch would wrap this one
        a_sets = [
            A for A, H, kind, _ in near_sizes if H.elements == target and kind is RES and closed(A)
        ]
        hits = [
            (c["a"], c["size"])
            for c in chain(report.equality_cases, report.bound_violations)
            if (c["h"], c["kind"]) == (format_elements(target), "restricted")
            and closed(IntSet(parse_elements(c["a"])))
        ]
        assert len(a_sets) == count
        if shift > 0:
            assert sorted(hits) == sorted((format_elements(A.elements), closed(A)) for A in a_sets)
            # the raised row is the only one below its bound
            below = [A for A in a_sets if closed(A) < patched(len(A), target, A.min == 0)]
            assert report.bound_violation_count == len(below)
        else:
            assert hits == []


def test_first_and_last_multiplicity_key_never_reaches_the_walk(monkeypatch):
    # without 0 and for k >= 3, the restricted key (1, k-1) is decided by
    # the sum test in _run_chunk and never becomes a walk row; with 0 it is
    # walked, since {0, a, b} has a + b = ΣA
    space = SearchSpace(12, (2, 8), 7, (1, 7), zero_mode=ZeroMode.BOTH)
    real, walked = verifier._walk, []

    def spy(a_sets, k, kinds, open_rows):
        walked.append({(kind, hs) for kind, rows in zip(kinds, open_rows) for _, hs, _ in rows})
        return real(a_sets, k, kinds, open_rows)

    monkeypatch.setattr(verifier, "_walk", spy)
    for block in space.a_blocks():
        mode, k = block[:2]
        walked.clear()
        _run_chunk((space, block, 0))
        (keys,) = walked
        if k >= 3:
            assert ((RES, (1, k - 1)) in keys) == (mode is ZeroMode.WITH)


# restricted H of size 3 alone: a row H' ∪ {k} is walked as its key H' (or
# k - H'), of size 2, which is no row of the space
_TOP_K_SPACE = SearchSpace(9, (3, 6), 6, (3, 3), kinds=(RES,))


def test_walk_row_that_is_no_row_matches_brute_force(monkeypatch):
    # the key's H, under its own caps, decides each of its members
    rows, keys = set(), set()
    for k in _TOP_K_SPACE.k_values():
        for hs in _TOP_K_SPACE.h_combos():
            outcome = bounds.catalog_bound(RES, k, HSet(hs), False)
            if outcome.applicable:
                (walked, _), _ = verifier._row_class(RES, k, hs, outcome.value, False)
                rows.add((k, hs))
                keys.add((k, walked))
    assert len(keys - rows) == 13 and (5, (1, 2)) in keys - rows
    sizes = _brute_force_sizes(_TOP_K_SPACE)
    counts = _sweep_counts_near_the_bound(monkeypatch, _TOP_K_SPACE, sizes)
    assert counts == [(41, 0), (490, 41), (364, 531)]


# k 1..4 in both zero modes, H = {1}, {2} or {3}: at k = 1 the restricted
# {1} is a closed row and {2} and {3} do not apply, so the restricted kind
# has no walk row there while the ordinary one walks {2} and {3}; at k = 2
# and 3 every restricted row is closed too, and at k = 4 {2} is walked
_ONE_KIND_SPACE = SearchSpace(9, (1, 4), 3, (1, 1), zero_mode=ZeroMode.BOTH)


def test_walk_with_a_kind_that_has_no_row_matches_brute_force(monkeypatch):
    # a kind with no walk row is left out of the walk's entries from the
    # first step: counts and lists equal check_inverse pair by pair
    real, walked = verifier._walk, []

    def spy(a_sets, k, kinds, open_rows):
        walked.append((k, [bool(rows) for rows in open_rows]))
        return real(a_sets, k, kinds, open_rows)

    monkeypatch.setattr(verifier, "_walk", spy)
    report = verify(_ONE_KIND_SPACE, workers=1, case_cap=10**6)
    assert walked == [(k, [True, k == 4]) for k in (1, 2, 3, 4)] * 2
    expected = ([], [], [], [])
    for A, H, kind in enumerate_pairs(_ONE_KIND_SPACE):
        v = structure.check_inverse(A, H, kind)
        case = (format_elements(A.elements), format_elements(H.elements), kind.value, v.bound_value)
        if v.bound_applicable and v.computed_size < v.bound_value:
            expected[0].append(case[:3] + (v.computed_size,))
        if v.equality_holds:
            expected[1].append(case)
            if v.is_nonstructured_equality:
                expected[2].append(case)
            if not v.consistent:
                expected[3].append(case)
    for cases, (count_field, list_field) in zip(expected, _COUNTS_AND_LISTS):
        kept = getattr(report, list_field)
        assert getattr(report, count_field) == len(kept) == len(cases)
        assert [(c["a"], c["h"], c["kind"], c["size"]) for c in kept] == cases
    assert [len(cases) for cases in expected] == [0, 1325, 1016, 0]


def test_row_prefix_is_the_json_text_of_its_five_keys():
    for h_text, kind, zero_in, size, bound in (
        ("1", ORD, False, 3, 3), ("2,5", RES, True, 12, 13), ("1..3", ORD, True, 0, 7),
    ):
        record = {"h": h_text, "kind": kind.value, "zero_in_a": zero_in, "size": size,
                  "bound": bound}
        text = json.dumps(record, separators=(",", ":"))
        assert "{" + row_prefix(h_text, kind, zero_in, size, bound)[1:] + "}" == text


@pytest.mark.deep
def test_deep_acceptance_space_matches_brute_force(monkeypatch):
    # the walk pair by pair on the whole acceptance space, near the bound:
    # row classes, constant rows and every prefix cap against union_bitmap
    space = SearchSpace(12, (2, 6), 6, (1, 6), zero_mode=ZeroMode.BOTH)
    sizes = _brute_force_sizes(space)
    assert len(sizes) == 334290
    counts = _sweep_counts_near_the_bound(monkeypatch, space, sizes)
    assert counts == [(21027, 0), (8689, 21027), (7142, 29716)]


def _count_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name so that each call appends its arguments to calls."""
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)


# an equality case's keys: the pair, the comparison, the verdict flags, then
# the observed structure's fields in declaration order
_RECORD_KEYS = [
    "a", "h", "kind", "zero_in_a", "size", "bound", "hypotheses_hold",
    "structure_matches", "consistent", "nonstructured", "rule",
    *(f.name for f in fields(structure.StructureFacts)),
]


def test_equality_templates_built_once_per_row_and_a_facts(monkeypatch):
    # progressions and non-progressions of every k in both zero modes
    space = SearchSpace(7, (1, 5), 4, (2, 4), zero_mode=ZeroMode.BOTH)
    keys, half_keys, rows, equalities = set(), set(), set(), 0
    for A, H, kind in enumerate_pairs(space):
        verdict = structure.check_inverse(A, H, kind)
        if verdict.equality_holds:
            obs, zero_in = verdict.structure_observed, A.elements[0] == 0
            row = (zero_in, len(A), H, kind)
            facts = (
                obs.a_is_ap, obs.a_difference, obs.a_dilated_interval, obs.difference_relation
            )
            equalities += 1
            rows.add(row)
            keys.add((row, facts))
            half_keys.add((row, structure.verdict_a_half(A.elements, zero_in)))
    built, derived, dataclasses_made = [], [], []
    _count_calls(monkeypatch, verifier, "case_record", built)
    _count_calls(monkeypatch, verifier, "verdict_h_half", derived)
    _count_calls(monkeypatch, structure, "InverseVerdict", dataclasses_made)
    _count_calls(monkeypatch, structure, "StructureFacts", dataclasses_made)
    chunk = _run_blocks(space, equalities)
    pairs = CaseList(chunk.equality.kept)._pairs
    assert chunk.equality.count == chunk.equality.held == len(pairs) == equalities
    # one record per (row, A's observed facts), A's first element aside, and
    # H's facts once per row that reaches an equality case; no verdict
    # dataclass on the way
    assert len(built) == len(keys) < len(half_keys) < equalities
    assert len(derived) == len(rows) < len(keys)
    assert dataclasses_made == []
    # every case is a pair whose template is one of those built: the text
    # of the record's keys after "a"
    templates = {id(template): template for template, _ in pairs}
    assert len(templates) == len(built)
    assert all(list(_fields(template)) == _RECORD_KEYS[1:] for template in templates.values())


@pytest.mark.parametrize("raised", [False, True])
def test_full_case_lists_only_count(monkeypatch, raised):
    if raised:
        # an ordinary bound one too high fills all four lists (see
        # test_equality_case_cap_truncates_lists_not_counts)
        real = bounds.catalog_bound

        def raise_ordinary(kind, *args):
            outcome = real(kind, *args)
            if kind is ORD and outcome.applicable:
                return replace(outcome, value=outcome.value + 1)
            return outcome

        monkeypatch.setattr(bounds, "catalog_bound", raise_ordinary)
    space = SearchSpace(8, (2, 5), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    h_texts = len(space.a_blocks()) * space.h_subset_count()
    built, texts = [], []
    real_record = verifier.case_record

    def recorded(*args):
        built.append(real_record(*args))
        return built[-1]

    monkeypatch.setattr(verifier, "case_record", recorded)
    _count_calls(monkeypatch, verifier, "format_elements", texts)

    def run(cap):
        for calls in (built, texts):
            calls.clear()
        return _run_blocks(space, cap)

    full = run(10**9)
    lists = ("violations", "equality", "nonstructured", "inconsistencies")
    counts = [getattr(full, name).count for name in lists]
    # violations and inconsistencies only under the raised bound
    assert all(counts) if raised else counts[0] == counts[3] == 0 < counts[2]
    # uncapped: one pair per equality case, its template one of those
    # built, and one text per A that has a case
    pairs = CaseList(full.equality.kept)._pairs
    assert len(pairs) == full.equality.held == counts[1] > len(built)
    assert {id(template) for template, _ in pairs} == set(map(id, built))
    a_texts = {a_text for name in lists for _, a_text in CaseList(getattr(full, name).kept)._pairs}
    assert len(texts) == h_texts + len(a_texts)
    templates = len(built)
    uncapped = verify(space, workers=1, case_cap=10**9)
    middle = counts[1] // 3  # below the equality and nonstructured counts
    assert 1 < middle < min(counts[1:3])
    for cap in (0, 1, middle):
        chunk = run(cap)
        assert len(built) == templates
        if cap == 0:
            # a case that no list keeps is only counted, and A's text is
            # written only for a kept case: no A text at all
            assert all(getattr(chunk, name).kept == [] for name in lists)
            assert len(texts) == h_texts
        report = verify(space, workers=1, case_cap=cap)
        for name, count, (count_field, list_field) in zip(lists, counts, _COUNTS_AND_LISTS):
            cases = getattr(chunk, name)
            assert cases.count == count == getattr(report, count_field)
            assert getattr(uncapped, count_field) == count
            assert CaseList(cases.kept) == CaseList(getattr(full, name).kept)[:cap]
            assert getattr(report, list_field) == getattr(uncapped, list_field)[:cap]


def test_sweep_int64_guard_refuses_sums_past_int64(capsys):
    # h_max = 2^62 over [1, 4]: the walk's sums reach 4 * 2^62 = 2^64. The
    # chunk's one guard, the only check on the walk's absolute vectors,
    # refuses the first rung past int64 before a single row is built
    space = SearchSpace(4, (1, 1), 2**62, (1, 1), kinds=(ORD,))
    started = time.perf_counter()
    with pytest.raises(IntegerOverflowError) as exc:
        verify(space, pair_cap=10**30)
    assert time.perf_counter() - started < 5
    assert str(exc.value) == f"value {2**63} outside signed 64-bit range"
    argv = ["verify", "--universe", "4", "--k", "1..1", "--hmax", str(2**62), "--r", "1..1",
            "--kind", "ordinary", "--cap", str(10**30)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: value 9223372036854775808 outside signed 64-bit range\n"


def test_space_built_from_lists_hashes_and_serializes():
    # a space built from lists stores tuples: it hashes, its report
    # serializes, and the report round-trips to an equal space
    listed = SearchSpace(5, [2, 3], 3, [1, 2], kinds=[ORD])
    space = SearchSpace(5, (2, 3), 3, (1, 2), kinds=(ORD,))
    assert listed == space and hash(listed) == hash(space)
    assert (listed.k_range, listed.r_range, listed.kinds) == ((2, 3), (1, 2), (ORD,))
    report = verify(listed, workers=1)
    assert report.pairs_checked == 120
    blob = report.to_json()
    assert blob == verify(space, workers=1).to_json()
    rebuilt = VerificationReport.from_json(blob)
    assert rebuilt.space == listed and rebuilt.to_json() == blob


def test_report_json_round_trip():
    space = SearchSpace(6, (2, 3), 3, (1, 2), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=1)
    blob = report.to_json()
    assert json.dumps(json.loads(blob), separators=(",", ":")) == blob
    rebuilt = VerificationReport.from_json(blob)
    assert rebuilt.to_json() == blob
    assert rebuilt.space == space
    data = json.loads(blob)
    assert data["version"] == "sumset-lab-report/1"
    assert "wall_time" not in blob  # timing never makes reports incomparable
    # the README's report schema, key for key
    assert list(data) == [
        "version", "space", "enumeration_count", "pairs_checked",
        "bound_violation_count", "bound_violations",
        "equality_case_count", "equality_cases",
        "allowed_nonstructured_count", "allowed_nonstructured_equalities",
        "inverse_inconsistency_count", "inverse_inconsistencies",
        "equality_case_cap",
    ]
    assert "wall_time_seconds" not in report.to_dict()


def _oracle_json(report):
    return json.dumps(report.to_dict(), separators=(",", ":"), check_circular=False)


def test_to_json_equals_json_dumps_on_every_report_kind(monkeypatch, same_json):
    _pin_cpus(monkeypatch, 2)
    space = SearchSpace(10, (1, 5), 4, (1, 3), zero_mode=ZeroMode.BOTH)
    reports = {f"workers={w}": verify(space, workers=w) for w in (1, 2)}
    full = reports["workers=1"]
    assert full.equality_case_count > 100 and full.allowed_nonstructured_count > 0
    for cap in (50, 1600):
        reports[f"case_cap={cap}"] = verify(space, workers=2, case_cap=cap)
        assert reports[f"case_cap={cap}"].equality_case_count > cap
    reports["empty"] = verify(SearchSpace(5, (3, 2), 2, (1, 2)), workers=1)
    reports["from_json"] = VerificationReport.from_json(full.to_json())
    # k <= 2 in a wide universe: nearly every (row, A's half) occurs once
    reports["few repeats"] = verify(SearchSpace(30, (1, 2), 3, (1, 3)), workers=1)
    # a report built by hand with plain lists: encoded element by element
    reports["plain lists"] = replace(
        full,
        equality_cases=list(full.equality_cases),
        allowed_nonstructured_equalities=list(full.allowed_nonstructured_equalities),
    )
    # a record that holds only "a": its template is the text of no keys
    bare = full.to_dict()
    bare["equality_cases"] = [{"a": "1..3"}, *bare["equality_cases"][:2], {"a": "0,5"}]
    reports["only a"] = VerificationReport.from_dict(bare)
    assert reports["only a"].equality_cases._pairs[0] == ("}", "1..3")
    assert _fields("}") == {}
    real = bounds.catalog_bound

    def raised(kind, *args):
        # ordinary bounds one too high: violations, equalities and
        # inconsistencies all at once
        outcome = real(kind, *args)
        if kind is ORD and outcome.applicable:
            return replace(outcome, value=outcome.value + 1)
        return outcome

    monkeypatch.setattr(bounds, "catalog_bound", raised)
    reports["violations"] = verify(space, workers=1)
    assert reports["violations"].bound_violation_count > 0
    assert reports["violations"].inverse_inconsistency_count > 0
    for name, report in reports.items():
        same_json(report.to_json(), _oracle_json(report), name)
    same_json(reports["workers=2"].to_json(), full.to_json())
    same_json(reports["from_json"].to_json(), full.to_json())
    for name in ("workers=2", "from_json"):
        assert reports[name] == full
        cases = reports[name].equality_cases
        assert type(cases) is CaseList and all(type(case) is dict for case in cases)


def test_case_records_are_read_only(same_json):
    space = SearchSpace(8, (2, 4), 4, (1, 3), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=1)
    cases = report.equality_cases
    # templates shared by several cases of a (row, A's facts), none holding "a"
    shares = Counter(id(template) for template, _ in cases._pairs)
    assert 0 < sum(n > 1 for n in shares.values()) < len(shares)
    assert not any("a" in _fields(template) for template, _ in cases._pairs)
    before, blob = list(cases), report.to_json()
    # a case list has no mutators
    mutations = [
        lambda c: c.__setitem__(0, {}),
        lambda c: c.__delitem__(0),
        lambda c: c.append({}),
        lambda c: c.extend([{}]),
        lambda c: c.insert(0, {}),
        lambda c: c.pop(),
        lambda c: c.remove(before[0]),
        lambda c: c.clear(),
        lambda c: c.sort(),
        lambda c: c.reverse(),
    ]
    for mutate in mutations:
        with pytest.raises((TypeError, AttributeError)):
            mutate(cases)
    alias = cases
    with pytest.raises(TypeError):
        alias += [{}]
    # each read is a fresh plain dict: changing it changes no record
    for i, record in enumerate(cases):
        assert type(record) is dict and record == before[i]
        assert cases[i] is not cases[i]
        record["size"] = -1
        del record["h"]
        assert cases[i] == before[i]
    assert list(cases) == before
    same_json(report.to_json(), blob)
    # the pool path: a chunk's runs cross as pickles of plain tuples, the
    # A-sets of one (half, f, walk hits) still share their runs' templates,
    # and every case of a template still shares it
    chunk = _run_chunk((space, space.a_blocks()[2], 10**9))
    twin = pickle.loads(pickle.dumps(chunk))
    for part in (chunk, twin):
        assert all(type(run) is type(run[0]) is tuple for run in part.equality.kept)
    shared = [{id(templates) for templates, _ in part.equality.kept} for part in (chunk, twin)]
    assert len(shared[0]) == len(shared[1]) < len(chunk.equality.kept)
    pairs = [CaseList(part.equality.kept)._pairs for part in (chunk, twin)]
    shared = [{id(template) for template, _ in part} for part in pairs]
    assert len(shared[0]) == len(shared[1]) < len(pairs[0])
    assert CaseList(twin.equality.kept) == CaseList(chunk.equality.kept)
    # a report pickles and copies as its runs
    restored = pickle.loads(pickle.dumps(report))
    assert restored == report and type(restored.equality_cases) is CaseList
    same_json(restored.to_json(), blob)
    for twin in (copy.copy(cases), copy.deepcopy(cases)):
        assert type(twin) is CaseList and twin == cases
    # read back from plain records, each is copied with "a" first
    plain = before[-1]
    reordered = dict(reversed(plain.items()))
    data = report.to_dict()
    data["equality_cases"] = [reordered, *before]
    with_built = VerificationReport.from_dict(data)
    built = with_built.equality_cases
    assert type(built) is CaseList and built == [plain, *before]
    assert list(built[0]) == ["a", *(key for key in reordered if key != "a")]
    reordered["size"] = -1
    assert built[0] == plain
    same_json(with_built.to_json(), _oracle_json(with_built))


# the acceptance space: N=12, k in 2..6, H any nonempty subset of 1..6, both
# kinds and both zero modes (test_acceptance.py's sweep)
_ACCEPTANCE = SearchSpace(12, (2, 6), 6, (1, 6), zero_mode=ZeroMode.BOTH)


def test_acceptance_space_builds_one_template_per_row_and_facts(monkeypatch):
    # a template per (row, A's observed facts) and one pair per case: a
    # per-row table that rebuilt templates would raise the first count. A
    # chunk judges each equality hit once per (A's half, walk hits) it meets,
    # and progressions of one difference and ratio share a half whatever
    # their first element
    built, verdicts, judged = [], [], []
    _count_calls(monkeypatch, verifier, "case_record", built)
    _count_calls(monkeypatch, structure, "build_verdict", verdicts)
    _count_calls(monkeypatch, verifier, "judge", judged)
    report = verify(_ACCEPTANCE, workers=1)
    assert report.equality_case_count == len(report.equality_cases) == 21027
    assert len(built) == 2478 and verdicts == [] and len(judged) == 2731
    pairs = report.equality_cases._pairs
    assert len(pairs) == 21027
    assert len({id(template) for template, _ in pairs}) == 2478


def test_chunks_call_verdict_a_half_once_per_a_and_walk_gaps_past_the_span_test(monkeypatch):
    # every A of the acceptance space has a constant row's hit, so each one
    # takes its half from one verdict_a_half call; only the sets of k <= 2
    # and those whose span is k-1 times their first gap reach _progression
    calls, walked = [], []
    _count_calls(monkeypatch, verifier, "verdict_a_half", calls)
    progression = structure._progression

    def counted(elements):
        walked.append((sys._getframe(1).f_code.co_name, elements))
        return progression(elements)

    monkeypatch.setattr(structure, "_progression", counted)
    report = verify(_ACCEPTANCE, workers=1)
    assert report.equality_case_count == 21027
    every, passing = [], []
    for block in _ACCEPTANCE.a_blocks():
        mode, k = block[:2]
        for a in verifier._block_sets(block):
            every.append((a, mode is ZeroMode.WITH))
            if k <= 2 or a[-1] - a[0] == (k - 1) * (a[1] - a[0]):
                passing.append(a)
    assert calls == every and len(calls) == 3520
    # verdict_h_half walks each row's H through ap_descriptor: leave those out
    a_walks = [elements for caller, elements in walked if caller == "verdict_a_half"]
    assert {caller for caller, _ in walked} == {"verdict_a_half", "ap_descriptor"}
    assert a_walks == passing and len(a_walks) == 335


class _CountingEncoder:
    """Stands in for verifier._ENCODER and keeps every value it encodes."""

    def __init__(self, real, calls):
        self._real, self._calls = real, calls

    def encode(self, value):
        self._calls.append(value)
        return self._real.encode(value)


def test_templates_are_encoded_per_row_and_suffix_and_to_json_encodes_none(monkeypatch):
    # a chunk writes one prefix per row that reaches an equality case and
    # encodes one suffix per distinct (flags, rule, observed facts); a case
    # repeats neither, and to_json splices the templates' text
    encoded, prefixes = [], []
    monkeypatch.setattr(verifier, "_ENCODER", _CountingEncoder(verifier._ENCODER, encoded))
    _count_calls(monkeypatch, verifier, "row_prefix", prefixes)
    built = []
    _count_calls(monkeypatch, verifier, "case_record", built)
    per_chunk = []
    for block in _ACCEPTANCE.a_blocks():
        encoded.clear()
        prefixes.clear()
        chunk = _run_chunk((_ACCEPTANCE, block, 10**9))
        # the prefixes are written as text: every encode is a suffix
        suffixes = [value for value in encoded if "rule" in value]
        assert len(suffixes) == len(encoded)
        records = [_fields(template) for template, _ in CaseList(chunk.equality.kept)._pairs]
        rows = {(record["h"], record["kind"]) for record in records}
        tails = {tuple(record.items())[5:] for record in records}
        assert (len(prefixes), len(suffixes)) == (len(rows), len(tails))
        per_chunk.append((len(prefixes), len(suffixes)))
    assert per_chunk == [
        (36, 85), (40, 60), (45, 52), (50, 40), (58, 43),
        (64, 99), (66, 53), (69, 33), (73, 22), (78, 22),
    ]
    assert len(built) == 2478
    report = verify(_ACCEPTANCE, workers=1)
    encoded.clear()
    blob = report.to_json()
    # the version, the space's 9 values and the 7 counts and cap: no template
    assert len(encoded) == 17 and all(type(value) in (str, int) for value in encoded)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "0fcdb494f7a7e2c8c6df509d55f223524852b21ae2c8fccde55515c4dec2c3f1"
    )


def test_case_list_pass_decodes_each_template_once(monkeypatch, capsys):
    # extremal's text mode reads every case of every group: a pass decodes
    # each distinct template once, and each record is its own dict, "a" then
    # the template's keys in order
    groups = find_extremal(_ACCEPTANCE, workers=1)
    plains = json.loads(encode_json(groups))
    decoded, decodes = [], 0
    _count_calls(monkeypatch, verifier, "_fields", decoded)
    for group, plain in zip(groups, plains):
        cases = group["cases"]
        distinct = len({template for template, _ in cases._pairs})
        decodes += distinct
        for _ in range(2):
            decoded.clear()
            records = list(cases)
            assert len(decoded) == distinct
            assert records == plain["cases"]
            assert all(list(record) == _RECORD_KEYS for record in records)
        # a record changed after it is read changes no other record of its
        # template
        records[0]["size"] = -1
        assert all(record["size"] != -1 for record in records[1:])
    # far fewer decodes than the 21,027 cases
    assert decodes < 21027 // 4
    # the whole text mode: find_extremal reads each template's H and kind
    # once to group it, and the printing pass decodes it once more
    argv = ["extremal", "--universe", "8", "--k", "2..4", "--hmax", "3", "--r", "1..3",
            "--kind", "both", "--zero-mode", "both"]
    small = SearchSpace(8, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    expected = sum(
        len({template for template, _ in group["cases"]._pairs})
        for group in find_extremal(small, workers=1)
    )
    decoded.clear()
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(decoded) == 2 * expected
    assert expected < sum(line.startswith("  A=") for line in lines)


def test_every_read_path_of_a_case_record_matches_its_dict():
    # the groups are every equality case, byte for byte as before cases were
    # kept as pairs, so their text is the plain records to match
    groups = find_extremal(_ACCEPTANCE, workers=1)
    blob = json.dumps(groups, default=list)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "4e5ddfaa25dce7034819ad6bc910f1f142e8dfeb715651709aff0b4d5c3d925c"
    )
    lists = [group["cases"] for group in groups]
    plains = [group["cases"] for group in json.loads(blob)]
    assert all(type(cases) is CaseList for cases in lists)
    pairs = [pair for cases in lists for pair in cases._pairs]
    assert len(pairs) == 21027
    # templates that several cases share and templates of one case, none
    # holding "a"
    shares = Counter(id(template) for template, _ in pairs)
    assert 0 < sum(n > 1 for n in shares.values()) < len(shares)
    assert not any("a" in _fields(template) for template, _ in pairs)
    # every read path of each group's list, against the plain list
    for cases, plain in zip(lists, plains):
        n = len(cases)
        assert n == len(plain) > 0
        assert cases == plain and plain == cases and not cases != plain
        assert list(cases) == plain and list(reversed(cases)) == plain[::-1]
        assert [cases[i] for i in range(-n, n)] == plain * 2
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                cases[index]
        for part in (slice(1, None), slice(None, None, -2), slice(n, None)):
            assert type(cases[part]) is CaseList and cases[part] == plain[part]
        assert plain[-1] in cases and {} not in cases
        assert cases.index(plain[-1]) == plain.index(plain[-1])
        assert cases.count(plain[0]) == plain.count(plain[0]) == 1
        changed = [*plain[:-1], {**plain[-1], "size": -1}]
        assert cases != changed and changed != cases
        assert cases != plain[:-1] and cases != plain + plain[:1]
        assert cases != tuple(plain) and cases != {}
        assert repr(cases) == f"CaseList({plain!r})"
    # every record, key for key and in order, and the paths that encode it
    records = [record for cases in lists for record in cases]
    parsed = [record for plain in plains for record in plain]
    assert all(type(record) is dict for record in records)
    assert [list(r.items()) for r in records] == [list(p.items()) for p in parsed]
    for options in ({}, {"sort_keys": True}, {"indent": 1}):
        assert json.dumps(records, **options) == json.dumps(parsed, **options)
    # the splice writes the same text as the plain groups
    assert encode_json(groups) == json.dumps(json.loads(blob), separators=(",", ":"))


def test_sweep_templates_equal_check_inverse_records():
    # every equality pair of a small space in both zero modes: the template
    # the sweep lays out from judge, without a verdict, is the text that
    # case_record writes for the verdict check_inverse builds for the pair
    # itself, and it reads back as that record
    space = SearchSpace(7, (1, 5), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    equal = set()
    for A, H, kind in enumerate_pairs(space):
        verdict = structure.check_inverse(A, H, kind)
        if verdict.equality_holds:
            equal.add((format_elements(A.elements), format_elements(H.elements), kind.value))
    pairs = CaseList(_run_blocks(space, 10**9).equality.kept)._pairs
    assert len(pairs) == len(equal) > 100
    seen, facts = set(), set()
    for template, a_text in pairs:
        sweep = {"a": a_text, **_fields(template)}
        A, H = IntSet(parse_elements(a_text)), HSet(parse_elements(sweep["h"]))
        v = structure.check_inverse(A, H, SumsetKind(sweep["kind"]))
        # an equality case's size is its bound, which the row's prefix holds
        assert sweep["size"] == v.computed_size == v.bound_value
        expected = case_record(
            row_prefix(sweep["h"], v.kind, A.elements[0] == 0, v.bound_value, v.bound_value),
            v.rule,
            (v.hypotheses_hold, v.structure_matches, v.consistent, v.is_nonstructured_equality),
            astuple(v.structure_observed), {},
        )
        assert template == expected
        assert list(sweep.items()) == list({"a": a_text, **_fields(expected)}.items())
        seen.add((a_text, sweep["h"], sweep["kind"]))
        facts.add((sweep["hypotheses_hold"], sweep["structure_matches"], sweep["nonstructured"]))
    assert seen == equal
    # both hypotheses met and unmet, structured and not
    assert len(facts) >= 3


def test_extremal_output_is_pinned(capsys):
    space = SearchSpace(8, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    groups = find_extremal(space, workers=1)
    plain = [group | {"cases": list(group["cases"])} for group in groups]
    assert groups == plain
    assert encode_json(groups) == json.dumps(plain, separators=(",", ":"))
    argv = ["extremal", "--universe", "8", "--k", "2..4", "--hmax", "3", "--r", "1..3",
            "--kind", "both", "--zero-mode", "both", "--json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f753a23662782dfa66771cfa5a33126f3aa57a2ed4a739c78bd53fa2251f7506"
    )


def test_find_extremal_ordinary_structure():
    space = SearchSpace(8, (2, 4), 3, (1, 3), kinds=(ORD,))
    groups = find_extremal(space, workers=1)
    assert groups
    for group in groups:
        if group["r"] < 2:
            continue
        for case in group["cases"]:
            a = parse_elements(case["a"])
            h = parse_elements(case["h"])
            a_gaps = {b - a for a, b in zip(a, a[1:])}
            h_gaps = {b - a for a, b in zip(h, h[1:])}
            assert len(a_gaps) <= 1 and len(h_gaps) <= 1


def test_find_extremal_restricted_family_is_exact():
    # k = 6, r = 2, universe big enough for dilations d <= 2: the equality
    # cases are exactly the dilated-interval / consecutive-pair family
    space = SearchSpace(12, (6, 6), 5, (2, 2), kinds=(RES,))
    groups = find_extremal(space, workers=1)
    assert len(groups) == 1
    cases = {(case["a"], case["h"]) for case in groups[0]["cases"]}
    expected = set()
    for d in (1, 2):
        a_text = "1..6" if d == 1 else "2,4,6,8,10,12"
        for h1 in range(1, 5):
            expected.add((a_text, f"{h1},{h1 + 1}"))
    assert cases == expected


def test_find_extremal_refuses_truncated_case_list():
    space = SearchSpace(10, (3, 4), 3, (1, 2), kinds=(ORD,))
    with pytest.raises(ValueError) as exc:
        find_extremal(space, workers=1, case_cap=3)
    message = str(exc.value)
    count = verify(space, workers=1).equality_case_count
    assert f"{count} equality cases" in message and "only 3 kept" in message
    assert "--case-cap" in message
    groups = find_extremal(space, workers=1, case_cap=count)
    assert sum(len(group["cases"]) for group in groups) == count


def test_find_extremal_empty_space():
    # an empty range (lo > hi) is legal wherever it lies, and gives an empty space
    for k_range, r_range in [((3, 2), (1, 2)), ((2, 3), (3, 2)), ((0, -1), (1, 2))]:
        space = SearchSpace(5, k_range, 2, r_range)
        assert space.enumeration_count() == 0
        assert find_extremal(space, workers=1) == []
        report = verify(space, workers=1)
        assert report.pairs_checked == 0
