"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE nn <name>: PASS|FAIL` line (visible
with pytest -s) before asserting, so a red run still reports every
criterion's status. Criteria 4, 5, 9, 10 and 11 share one exhaustive sweep
over the N=12 space computed once per session.
"""

import hashlib
import time
from itertools import combinations, combinations_with_replacement

import pytest

from sumset_lab.engine import SumsetKind, h_fold, h_fold_restricted, union_sumset
from sumset_lab.errors import SumsetError
from sumset_lab.intset import HSet, IntSet, make_interval, parse_elements
from sumset_lab.structure import witness_blocks
from sumset_lab.verifier import SearchSpace, ZeroMode, enumerate_pairs, verify

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED

# sha256 of the acceptance sweep's report, as to_json writes it
SWEEP_DIGEST = "0fcdb494f7a7e2c8c6df509d55f223524852b21ae2c8fccde55515c4dec2c3f1"


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def _run(r):
    return HSet(tuple(range(1, r + 1)))


@pytest.fixture(scope="module")
def sweep_space():
    # N=12, k in [2,6], multiplicities from [1,6], r in [1,6], both kinds,
    # both zero modes (zero mode: A = {0} + positive part within [1,11])
    return SearchSpace(
        universe_max=12,
        k_range=(2, 6),
        h_max=6,
        r_range=(1, 6),
        kinds=(ORD, RES),
        zero_mode=ZeroMode.BOTH,
    )


@pytest.fixture(scope="module")
def sweep_reports(sweep_space):
    return {workers: verify(sweep_space, workers=workers) for workers in (1, 2, 8)}


def test_criterion_01_extremal_ordinary_family():
    started = time.perf_counter()
    failures = []
    for k in range(1, 21):
        for r in range(1, 21):
            size = len(union_sumset(make_interval(1, k), _run(r), ORD))
            if size != r * k:
                failures.append((k, r, size))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _line(1, "extremal ordinary family", ok, f"400 pairs in {elapsed:.3f}s")
    assert not failures, failures[:5]
    assert elapsed < 1.0


def test_criterion_02_extremal_restricted_family():
    started = time.perf_counter()
    failures = []
    for k in range(1, 21):
        for r in range(1, k + 1):
            size = len(union_sumset(make_interval(1, k), _run(r), RES))
            if size != r * k - r * (r - 1) // 2:
                failures.append((k, r, size))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _line(2, "extremal restricted family", ok, f"{elapsed:.3f}s")
    assert not failures, failures[:5]
    assert elapsed < 1.0


def test_criterion_03_zero_inclusive_extremal_family():
    started = time.perf_counter()
    failures = []
    for k in range(2, 21):
        for r in range(1, k):
            size = len(union_sumset(make_interval(0, k - 1), _run(r), RES))
            if size != r * k - r * (r + 1) // 2 + 1:
                failures.append((k, r, size))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _line(3, "zero-inclusive extremal family", ok, f"{elapsed:.3f}s")
    assert not failures, failures[:5]
    assert elapsed < 1.0


def test_criterion_04_bound_soundness_sweep(sweep_space, sweep_reports):
    report = sweep_reports[1]
    complete = report.pairs_checked == report.enumeration_count == sweep_space.enumeration_count()
    ok = report.bound_violation_count == 0 and report.inverse_inconsistency_count == 0 and complete
    _line(
        4,
        "bound soundness sweep",
        ok,
        f"{report.pairs_checked} pairs, {report.wall_time_seconds:.1f}s",
    )
    assert report.bound_violation_count == 0, report.bound_violations[:5]
    assert report.inverse_inconsistency_count == 0, report.inverse_inconsistencies[:5]
    assert complete


def test_criterion_05_inverse_sweep_ordinary(sweep_reports):
    failures = []
    checked = 0
    for case in sweep_reports[1].equality_cases:
        if case["kind"] != "ordinary" or case["zero_in_a"]:
            continue
        h = parse_elements(case["h"])
        if len(h) < 2:
            continue
        checked += 1
        a = parse_elements(case["a"])
        h_gaps = {y - x for x, y in zip(h, h[1:])}
        a_gaps = {y - x for x, y in zip(a, a[1:])}
        if len(h_gaps) != 1 or len(a_gaps) != 1:
            failures.append(case)
            continue
        (d,) = h_gaps
        if a_gaps != {d * a[0]}:
            failures.append(case)
    ok = checked > 0 and not failures
    _line(5, "inverse sweep, ordinary kind", ok, f"{checked} equality cases")
    assert checked > 0
    assert not failures, failures[:5]


def test_criterion_06_inverse_sweep_restricted_positive():
    space = SearchSpace(
        universe_max=14, k_range=(6, 6), h_max=5, r_range=(2, 5), kinds=(RES,)
    )
    report = verify(space, workers=2)
    failures = []
    for case in report.equality_cases:
        a = parse_elements(case["a"])
        h = parse_elements(case["h"])
        consecutive = all(y - x == 1 for x, y in zip(h, h[1:]))
        dilated = a == tuple(a[0] * i for i in range(1, 7))
        if not (consecutive and dilated):
            failures.append(case)
    ok = (
        report.inverse_inconsistency_count == 0
        and not failures
        and report.equality_case_count > 0
    )
    _line(
        6,
        "inverse sweep, restricted positive",
        ok,
        f"{report.pairs_checked} pairs, {report.equality_case_count} equalities,"
        f" {report.wall_time_seconds:.1f}s",
    )
    assert report.inverse_inconsistency_count == 0
    assert report.equality_case_count > 0
    assert not failures, failures[:5]


def test_criterion_07_inverse_sweep_restricted_zero():
    space = SearchSpace(
        universe_max=14,
        k_range=(7, 7),
        h_max=5,
        r_range=(2, 5),
        kinds=(RES,),
        zero_mode=ZeroMode.WITH,
    )
    report = verify(space, workers=2)
    failures = []
    for case in report.equality_cases:
        a = parse_elements(case["a"])
        h = parse_elements(case["h"])
        consecutive = all(y - x == 1 for x, y in zip(h, h[1:]))
        d = a[1]
        dilated = a == tuple(d * i for i in range(7))
        if not (consecutive and dilated):
            failures.append(case)
    ok = (
        report.inverse_inconsistency_count == 0
        and not failures
        and report.equality_case_count > 0
    )
    _line(
        7,
        "inverse sweep, restricted with zero",
        ok,
        f"{report.pairs_checked} pairs, {report.equality_case_count} equalities,"
        f" {report.wall_time_seconds:.1f}s",
    )
    assert report.inverse_inconsistency_count == 0
    assert report.equality_case_count > 0
    assert not failures, failures[:5]


def test_criterion_08_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for k in range(1, 6):
        for combo in combinations(range(1, 11), k):
            A = IntSet(combo)
            for h in range(0, 6):
                expect_ord = tuple(sorted({sum(t) for t in combinations_with_replacement(combo, h)}))
                expect_res = tuple(sorted({sum(t) for t in combinations(combo, h)}))
                checked += 2
                if h_fold(A, h).elements != expect_ord:
                    mismatches += 1
                if h_fold_restricted(A, h).elements != expect_res:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _line(8, "oracle equivalence", ok, f"{checked} comparisons in {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_09_witness_block_validity(sweep_space):
    checked = 0
    failures = 0
    resampled = 0
    for A, H, kind in enumerate_pairs(sweep_space):
        if A.min < 1:
            continue  # the stacked construction needs positive elements
        if kind is RES and H.max > len(A):
            continue  # no restricted fold underlies blocks past |A|
        checked += 1
        try:
            deco = witness_blocks(A, H, kind)
        except SumsetError:
            failures += 1
            continue
        if checked % 199 == 0:
            # independent re-validation by direct enumeration
            resampled += 1
            picker = combinations_with_replacement if kind is ORD else combinations
            for h, block in zip(H.elements, deco.blocks):
                full = {sum(t) for t in picker(A.elements, h)}
                assert set(block.elements) <= full
            for left, right in zip(deco.blocks, deco.blocks[1:]):
                assert left.max < right.min
    ok = failures == 0 and checked > 0
    _line(
        9,
        "witness block validity",
        ok,
        f"{checked} constructions, {resampled} re-validated by enumeration",
    )
    assert failures == 0
    assert checked > 0


def test_criterion_10_boundary_phenomenon_preserved(sweep_reports):
    report = sweep_reports[1]
    boundary = [
        case
        for case in report.allowed_nonstructured_equalities
        if case["kind"] == "restricted" and len(parse_elements(case["a"])) < 6
    ]
    flagged = {(case["a"], case["h"]) for case in boundary}
    # independent oracle for the named example: the three pair sums of
    # {1,2,4} are 3, 5, 6, meeting the bound 2*(3-2)+1 = 3 without structure
    sums = {a + b for a, b in combinations((1, 2, 4), 2)}
    ok = len(sums) == 3 and bool(boundary) and ("1,2,4", "2") in flagged
    _line(10, "boundary phenomenon preserved", ok, f"{len(boundary)} boundary cases")
    assert len(sums) == 3
    assert boundary
    assert ("1,2,4", "2") in flagged


def test_criterion_11_worker_determinism(sweep_reports, same_json):
    blobs = {workers: report.to_json() for workers, report in sweep_reports.items()}
    digest = hashlib.sha256(blobs[1].encode()).hexdigest()
    ok = blobs[1] == blobs[2] == blobs[8] and digest == SWEEP_DIGEST
    _line(11, "worker determinism", ok, f"{len(blobs[1])} bytes each")
    same_json(blobs[2], blobs[1], "workers=2")
    same_json(blobs[8], blobs[1], "workers=8")
    # the bytes themselves, so that a change to any record shows
    assert digest == SWEEP_DIGEST
