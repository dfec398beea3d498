"""Exhaustive verifier: enumeration, determinism, reports."""

import copy
import hashlib
import json
import os
import pickle
import signal
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, astuple, fields, replace
from itertools import combinations, islice, product
from math import comb

import pytest

import sumset_lab.bounds as bounds
import sumset_lab.cli as cli
import sumset_lab.structure as structure
import sumset_lab.verifier as verifier
from sumset_lab.engine import SumsetKind, union_sumset
from sumset_lab.errors import SpaceTooLargeError, WorkerLostError
from sumset_lab.intset import HSet, IntSet, format_elements, parse_elements
from sumset_lab.verifier import (
    CaseList,
    SearchSpace,
    VerificationReport,
    ZeroMode,
    _combinations_from,
    _pool_size,
    _prefix_caps,
    _run_chunk,
    case_record,
    encode_json,
    enumerate_pairs,
    find_extremal,
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


def test_combinations_from_any_start():
    # k > n and an empty universe included: the with-zero N=1 block picks
    # 0 elements of an empty universe
    for n in range(8):
        universe = tuple(range(1, n + 1))
        for k in range(n + 2):
            full = list(combinations(universe, k))
            for start in range(comb(n, k) + 1):
                assert list(_combinations_from(universe, k, start)) == full[start:]
    # late ranks in a long universe, against the closed form of lex rank:
    # C(n, 2) - C(n - i, 2) pairs start before universe[i]
    n = 40_000
    universe = tuple(range(1, n + 1))
    for i in (0, 1, n - 100, n - 2, n - 1):
        assert next(_combinations_from(universe, 1, i)) == (universe[i],)
    for i, j in ((0, 1), (1, n - 1), (n - 1000, n - 999), (n - 3, n - 1), (n - 2, n - 1)):
        rank = comb(n, 2) - comb(n - i, 2) + j - i - 1
        resumed = _combinations_from(universe, 2, rank)
        assert next(resumed) == (universe[i], universe[j])
        following = islice(combinations(universe[i:], 2), j - i, j - i + 2)
        assert list(islice(resumed, 2)) == list(following)


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
    # the walk's ladder steps at scale (about a minute at 2 workers)
    space = SearchSpace(20, (2, 10), 9, (1, 9), zero_mode=ZeroMode.BOTH)
    report = verify(space, workers=2, pair_cap=10**9, case_cap=0)
    assert report.pairs_checked == space.enumeration_count() == 898_121_336
    assert report.equality_case_count == 3_966_811
    assert report.allowed_nonstructured_count == 3_934_158
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
    """The chunks verify runs: each block cut into runs of _CHUNK_A_TASKS."""
    return sum(-(-block[4] // verifier._CHUNK_A_TASKS) for block in space.a_blocks())


def _pool_cap(space):
    """verify's clamp on the pool: one process per _CHUNK_A_TASKS A-sets."""
    return -(-space.a_task_count() // verifier._CHUNK_A_TASKS)


def _run_blocks(space, case_cap):
    """Each block of the space run as one chunk, merged in rank order."""
    return verifier._merged(
        (_run_chunk((space, block, 0, block[4], case_cap)) for block in space.a_blocks()),
        case_cap,
    )


def test_worker_determinism_small_space(monkeypatch, same_json):
    # more CPUs than the machine may have, and small chunks, so that 3
    # processes really start
    _pin_cpus(monkeypatch, 8)
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 64)
    space = SearchSpace(8, (2, 4), 4, (1, 3), zero_mode=ZeroMode.BOTH)
    assert _pool_size(3, _pool_cap(space)) == 3
    blobs = {w: verify(space, workers=w).to_json() for w in (1, 2, 3)}
    same_json(blobs[2], blobs[1], "workers=2")
    same_json(blobs[3], blobs[1], "workers=3")


def test_report_bytes_do_not_depend_on_chunk_size(monkeypatch, same_json):
    # chunks merge in rank order and each list keeps its first case_cap
    # records, so neither the chunk size nor the worker count shows
    _pin_cpus(monkeypatch, 2)
    space = SearchSpace(9, (1, 5), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    total = space.a_task_count()
    blocks, largest = len(space.a_blocks()), max(block[4] for block in space.a_blocks())
    expected = verify(space, workers=1, case_cap=50).to_json()
    for size, workers in product((1, 7, 64, 512, total), (1, 2)):
        monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", size)
        report = verify(space, workers=workers, case_cap=50)
        # more equality cases than the cap, so every run truncates that list
        assert report.equality_case_count > 50
        # a chunk never crosses a block: one chunk per block once no block is cut
        assert (_chunk_count(space) == blocks) == (size >= largest)
        assert (_pool_cap(space) == 1) == (size == total)
        same_json(report.to_json(), expected, f"chunk={size} workers={workers}")


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
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 64)
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
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 64)
    space = SearchSpace(10, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    chunk_size = verifier._CHUNK_A_TASKS
    assert space.a_task_count() > 4 * chunk_size
    assert _pool_size(2, _pool_cap(space)) == 2
    # the first chunk in rank order: the head of the first block
    block = space.a_blocks()[0]
    first = _run_chunk((space, block, 0, min(chunk_size, block[4]), 10**9))
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


def test_in_process_merge_keeps_one_chunk_result_at_a_time(monkeypatch):
    real, results, alive = verifier._run_chunk, [], []

    def tracked(args):
        # earlier chunk results still reachable as this chunk starts
        alive.append(sum(ref() is not None for ref in results))
        result = real(args)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(verifier, "_run_chunk", tracked)
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 64)
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
    real = bounds.bound_union

    def inflated(k, H, zero_in_A):
        return real(k, H, zero_in_A) + 1

    monkeypatch.setattr(bounds, "bound_union", inflated)
    space = SearchSpace(5, (2, 3), 2, (1, 2), kinds=(ORD,))
    report = verify(space, workers=1)
    assert report.bound_violation_count > 0
    assert not report.clean
    violation = report.bound_violations[0]
    assert violation["size"] == violation["bound"] - 1


def test_bound_violations_capped_per_chunk_counts_complete(monkeypatch, same_json):
    real = bounds.bound_union
    monkeypatch.setattr(bounds, "bound_union", lambda k, H, z: real(k, H, z) + 1)
    # more than one chunk, so the cap is applied before the merge
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 64)
    space = SearchSpace(10, (3, 3), 2, (1, 2), kinds=(ORD,))
    assert _pool_size(2, _pool_cap(space)) == 2
    reports = {w: verify(space, workers=w, case_cap=1) for w in (1, 2)}
    report = reports[1]
    assert report.bound_violation_count > 1
    assert len(report.bound_violations) == 1
    same_json(reports[2].to_json(), reports[1].to_json())
    full = verify(space, workers=1)
    assert full.bound_violation_count == report.bound_violation_count
    assert full.bound_violations[:1] == report.bound_violations
    (block,) = space.a_blocks()
    chunk = _run_chunk((space, block, 0, block[4], 1))
    assert chunk.violations.count == report.bound_violation_count
    assert len(chunk.violations.kept) == 1  # capped before the merge


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
    # a chunk is a slice of one block, so it sets up exactly that block's rows
    calls = []
    _count_calls(monkeypatch, bounds, "catalog_bound", calls)
    monkeypatch.setattr(verifier, "_CHUNK_A_TASKS", 16)
    space = SearchSpace(7, (2, 4), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    # blocks of 21, 35 and 35 A-sets without 0 and 6, 15 and 20 with it
    assert _chunk_count(space) == 2 + 3 + 3 + 1 + 1 + 2
    report = verify(space, workers=1)
    assert report.pairs_checked == space.enumeration_count()
    assert len(calls) == _chunk_count(space) * space.h_subset_count() * len(space.kinds)


def test_small_space_of_many_blocks_runs_in_process(monkeypatch):
    # the pool is clamped by A-sets, not by chunks: a space of at most
    # _CHUNK_A_TASKS A-sets starts no process however many blocks cut it
    import concurrent.futures

    def refused(*args, **kwargs):
        raise AssertionError("a ProcessPoolExecutor was constructed")

    _pin_cpus(monkeypatch, 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    space = SearchSpace(8, (1, 5), 3, (1, 3), zero_mode=ZeroMode.BOTH)
    assert _chunk_count(space) == len(space.a_blocks()) == 10
    assert space.a_task_count() == 317 <= verifier._CHUNK_A_TASKS
    report = verify(space, workers=8)
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
    # k = 6, H = {2, 5}: a prefix of size j grows by at least g(j) sums, 5
    # (h_r) for the ordinary row and max(H ∩ [1, j]) for the restricted one,
    # so a restricted row is tested from m = h_1 = 2, below h_r
    assert bounds.catalog_bound(ORD, 6, HSet((2, 5)), False).value == 27
    assert bounds.catalog_bound(RES, 6, HSet((2, 5)), False).value == 13
    assert _prefix_caps(ORD, 6, (2, 5), 27) == (None, 2, 7, 12, 17, 22, 27)
    assert _prefix_caps(RES, 6, (2, 5), 13) == (None, None, 2, 4, 6, 8, 13)
    # with h_1 = h_r = k the only cap is the bound
    assert _prefix_caps(RES, 3, (3,), 1) == (None, None, None, 1)


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
    _count_calls(monkeypatch, structure, "_expectation", derived)
    _count_calls(monkeypatch, structure, "InverseVerdict", dataclasses_made)
    _count_calls(monkeypatch, structure, "StructureFacts", dataclasses_made)
    chunk = _run_blocks(space, equalities)
    assert chunk.equality.count == len(chunk.equality.kept) == equalities
    # one record per (row, A's observed facts), A's first element aside, and
    # H's facts once per row that reaches an equality case; no verdict
    # dataclass on the way
    assert len(built) == len(keys) < len(half_keys) < equalities
    assert len(derived) == len(rows) < len(keys)
    assert dataclasses_made == []
    # every case is a pair whose first record is one of those built
    firsts = {id(first): first for first, _ in chunk.equality.kept}
    assert len(firsts) == len(built)
    assert all(list(first) == _RECORD_KEYS for first in firsts.values())


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
    # uncapped: one pair per equality case, its first record one of the
    # templates, and one text per A that has a case
    assert len(full.equality.kept) == counts[1] > len(built)
    assert {id(first) for first, _ in full.equality.kept} == set(map(id, built))
    a_texts = {a_text for name in lists for _, a_text in getattr(full, name).kept}
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
            # written only for a template or a violation
            assert all(getattr(chunk, name).kept == [] for name in lists)
            assert len(texts) <= h_texts + templates + counts[0]
        report = verify(space, workers=1, case_cap=cap)
        for name, count, (count_field, list_field) in zip(lists, counts, _COUNTS_AND_LISTS):
            cases = getattr(chunk, name)
            assert cases.count == count == getattr(report, count_field)
            assert getattr(uncapped, count_field) == count
            assert CaseList(cases.kept) == CaseList(getattr(full, name).kept)[:cap]
            assert getattr(report, list_field) == getattr(uncapped, list_field)[:cap]


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
    # both the first case of a (row, A's half) and later ones that share its
    # first record
    assert {first["a"] == a_text for first, a_text in cases._pairs} == {True, False}
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
    # the pool path: a chunk's pairs cross as pickles of plain tuples, and
    # every case of a first record still shares it
    chunk = _run_chunk((space, space.a_blocks()[2], 0, space.a_blocks()[2][4], 10**9))
    twin = pickle.loads(pickle.dumps(chunk))
    for part in (chunk, twin):
        assert all(type(pair) is tuple for pair in part.equality.kept)
    shared = [{id(first) for first, _ in part.equality.kept} for part in (chunk, twin)]
    assert len(shared[0]) == len(shared[1]) < len(chunk.equality.kept)
    assert CaseList(twin.equality.kept) == CaseList(chunk.equality.kept)
    # a report pickles and copies as its pairs
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
    # per-row table that rebuilt templates would raise the first count
    built, verdicts = [], []
    _count_calls(monkeypatch, verifier, "case_record", built)
    _count_calls(monkeypatch, structure, "build_verdict", verdicts)
    report = verify(_ACCEPTANCE, workers=1)
    assert report.equality_case_count == len(report.equality_cases) == 21027
    assert len(built) == 2536 and verdicts == []
    pairs = report.equality_cases._pairs
    assert len(pairs) == 21027
    assert len({id(first) for first, _ in pairs}) == 2536


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
    # cases that repeat an earlier case's first record, and first cases
    assert 0 < sum(first["a"] != a_text for first, a_text in pairs) < len(pairs)
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
    # every equality pair of a small space in both zero modes: the record the
    # sweep lays out from judge, without a verdict, is case_record of the
    # verdict check_inverse builds for the pair itself
    space = SearchSpace(7, (1, 5), 4, (1, 4), zero_mode=ZeroMode.BOTH)
    equal = set()
    for A, H, kind in enumerate_pairs(space):
        verdict = structure.check_inverse(A, H, kind)
        if verdict.equality_holds:
            equal.add((format_elements(A.elements), format_elements(H.elements), kind.value))
    pairs = _run_blocks(space, 10**9).equality.kept
    assert len(pairs) == len(equal) > 100
    seen, facts = set(), set()
    for first, a_text in pairs:
        sweep = {**first, "a": a_text}
        A, H = IntSet(parse_elements(a_text)), HSet(parse_elements(first["h"]))
        v = structure.check_inverse(A, H, SumsetKind(first["kind"]))
        expected = case_record(
            a_text, first["h"], v.kind, A.elements[0] == 0, v.computed_size, v.bound_value,
            v.rule,
            (v.hypotheses_hold, v.structure_matches, v.consistent, v.is_nonstructured_equality),
            astuple(v.structure_observed),
        )
        assert list(sweep.items()) == list(expected.items())
        seen.add((a_text, first["h"], first["kind"]))
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
