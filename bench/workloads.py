"""Seeded inputs, timed passes and output checks for the three workloads.

* ``sweep``: ``sumset-lab verify`` on the acceptance space, in process.
* ``fold``: ``sumset-lab compute`` on a seeded list of large single queries.
* ``queries``: library calls on thousands of small seeded pairs.

A pass runs every operation of a workload once and times each operation on
its own. ``validate`` judges one pass's outputs, after the timed loop,
against references that this module computes itself (closed forms, a
set-based enumeration) or takes from the package's enumeration oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from math import comb

from sumset_lab import bounds, cli, structure
from sumset_lab.engine import DEFAULT_ORACLE_CAP, SumsetKind, naive_h_fold
from sumset_lab.intset import HSet, IntSet

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED

# The acceptance space: N=12, k 2..6, multiplicities from [1,6], r 1..6, both
# kinds, both zero modes. Its report is independent of the worker count.
SWEEP_ARGV = (
    "verify", "--universe", "12", "--k", "2..6", "--hmax", "6", "--r", "1..6",
    "--kind", "both", "--zero-mode", "both", "--json",
)
SWEEP_PAIRS = 443_520
SWEEP_DIGEST = "0fcdb494f7a7e2c8c6df509d55f223524852b21ae2c8fccde55515c4dec2c3f1"

QUERY_PAIRS = 2000
QUERY_UNIVERSE = 24
QUERY_CLASSES = ("all-positive", "zero-rest-positive", "all-negative", "zero-rest-negative")


@dataclass
class Pass:
    """One timed pass: per-operation seconds, work units done, raw outputs.

    ``stdout_bytes`` and ``compute_results`` ((compute call, kind) results)
    feed the per-layer metrics of the cli layer.
    """

    durations: list[float] = field(default_factory=list)
    work: int = 0
    outputs: list = field(default_factory=list)
    stdout_bytes: int = 0
    compute_results: int = 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _capture(argv: list[str]) -> tuple[int, str, float]:
    """Run the CLI in process; return (exit status, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:  # an unexpected raise is a failed operation, not a crash
            status = -1
        elapsed = time.perf_counter() - started
    return status, out.getvalue(), elapsed


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_output_ok(status: int, stdout: str) -> bool:
    """The report is the single stdout line and hashes to the seed digest."""
    if status != 0 or not stdout.endswith("\n"):
        return False
    report = stdout[:-1]
    if "\n" in report:
        return False
    return hashlib.sha256(report.encode()).hexdigest() == SWEEP_DIGEST


class Sweep:
    """Exhaustive verify of the fixed acceptance space; the seed selects nothing."""

    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.argv = list(SWEEP_ARGV)

    def summary(self) -> dict:
        return {"argv": self.argv, "pairs": SWEEP_PAIRS, "digest": SWEEP_DIGEST}

    def run_pass(self, workers: int = 1) -> Pass:
        status, stdout, elapsed = _capture(self.argv + ["--workers", str(workers)])
        # the 14 MB report is judged right away so that passes keep no copy
        ok = sweep_output_ok(status, stdout)
        return Pass([elapsed], SWEEP_PAIRS, [ok], stdout_bytes=len(stdout))

    def validate(self, outputs: list) -> list[bool]:
        return list(outputs)

    def figures(self, work_per_s: float, durations: list[float]) -> dict:
        return {"pairs_per_s.w1": work_per_s, "verify_p50_ms": statistics.median(durations) * 1e3}


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldQuery:
    """One compute query. ``progression`` is (t, d, k) when A = t + d*[0, k-1]."""

    label: str
    a: tuple[int, ...]
    h: tuple[int, ...]
    progression: tuple[int, int, int] | None = None

    def argv(self) -> list[str]:
        return [
            "compute", "--set-a=" + ",".join(map(str, self.a)),
            "--set-h=" + ",".join(map(str, self.h)), "--kind", "both", "--json",
        ]

    def summary(self) -> dict:
        return {"label": self.label, "k": len(self.a), "span": [self.a[0], self.a[-1]],
                "h": list(self.h)}


def _progression(label: str, t: int, d: int, k: int, h) -> FoldQuery:
    return FoldQuery(label, tuple(t + d * j for j in range(k)), tuple(h), (t, d, k))


def _subset(rng: random.Random, top: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, top + 1), size)))


def fold_queries(seed: int) -> list[FoldQuery]:
    """The seeded fold list.

    Every slot has a fixed cardinality, width and |H|; the seed moves
    translations, H subsets and the random elements, so that each seed asks
    for about the same amount of work.
    """
    rng = random.Random(f"fold-{seed}")
    s1, s2, s3 = rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 60)
    queries = [
        _progression("interval", s1, 1, 40, range(1, 41)),
        _progression("interval", s2, 1, 50, _subset(rng, 50, 15)),
        _progression("dilated", 3, 3, 40, range(1, 31)),
        _progression("dilated", 7, 7, 30, _subset(rng, 30, 12)),
        _progression("translated", rng.randint(100, 1000), 5, 36, _subset(rng, 36, 12)),
        _progression("reflected", -(s3 + 39), 1, 40, range(1, 41)),
    ]
    # random sparse sets: several moderate ones with full runs, so the random
    # elements' effect on the pass time averages out across slots
    for label, k, width, top, negate in (
        ("random", 13, 600, 9, False),
        ("random-reflected", 13, 700, 9, True),
        ("random", 14, 800, 8, False),
        ("random-reflected", 14, 800, 8, True),
        ("random", 16, 1000, 8, False),
        ("random", 16, 1200, 7, False),
    ):
        a = sorted(rng.sample(range(1, width + 1), k))
        if negate:
            a = sorted(-x for x in a)
        queries.append(FoldQuery(label, tuple(a), tuple(range(1, top + 1))))
    return queries


def progression_fold(t: int, d: int, k: int, h: int, kind: SumsetKind) -> set[int]:
    """Closed form of hA (or h^A) for A = t + d*[0, k-1]."""
    if h == 0:
        return {0}
    if kind is ORD:
        lo, hi = 0, h * (k - 1)
    elif h > k:
        return set()
    else:
        lo = h * (h - 1) // 2
        hi = lo + h * (k - h)
    return {h * t + d * j for j in range(lo, hi + 1)}


def set_union_sumset(a: tuple[int, ...], hs: tuple[int, ...], kind: SumsetKind) -> set[int]:
    """Union of the h-folds by plain set arithmetic, one summand at a time."""
    top = max(hs)
    wanted = set(hs)
    result: set[int] = set()
    if kind is ORD:
        layer = {0}
        for h in range(1, top + 1):
            layer = {s + x for s in layer for x in a}
            if h in wanted:
                result |= layer
    else:
        layers = [{0}] + [set() for _ in range(top)]
        for idx, x in enumerate(a):
            for j in range(min(top, idx + 1), 0, -1):
                layers[j] |= {s + x for s in layers[j - 1]}
        for h in hs:
            result |= layers[h]
    if 0 in wanted:
        result.add(0)
    return result


def _oracle_affordable(k: int, hs: tuple[int, ...], kind: SumsetKind) -> bool:
    if kind is ORD:
        return all(comb(k + h - 1, h) <= DEFAULT_ORACLE_CAP for h in hs)
    return all(comb(k, h) <= DEFAULT_ORACLE_CAP for h in hs)


def fold_reference(q: FoldQuery, kind: SumsetKind) -> set[int]:
    """The expected union sumset, computed without the package's fast path."""
    if q.progression is not None:
        t, d, k = q.progression
        out: set[int] = set()
        for h in q.h:
            out |= progression_fold(t, d, k, h, kind)
        return out
    if _oracle_affordable(len(q.a), q.h, kind):
        A = IntSet(q.a)
        out = set()
        for h in q.h:
            out.update(naive_h_fold(A, h, kind).elements)
        return out
    return set_union_sumset(q.a, q.h, kind)


def parse_set_text(text: str) -> list[int]:
    """Elements of a set in the CLI's output grammar ('a', 'a..b', comma-joined)."""
    out: list[int] = []
    if not text:
        return out
    for term in text.split(","):
        lo, sep, hi = term.partition("..")
        if sep:
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(term))
    return out


def fold_output_ok(status: int, stdout: str, references: dict[str, set[int]]) -> bool:
    """The compute JSON names each kind once, with the reference sumset and size."""
    if status != 0:
        return False
    try:
        payload = json.loads(stdout)
        results = {entry["kind"]: entry for entry in payload["results"]}
        if len(results) != len(payload["results"]) or results.keys() != references.keys():
            return False
        for kind, ref in references.items():
            elements = parse_set_text(results[kind]["sumset"])
            if results[kind]["size"] != len(ref) or len(elements) != len(ref):
                return False
            if set(elements) != ref:
                return False
    except (ValueError, KeyError, TypeError):
        return False
    return True


class Fold:
    name = "fold"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.queries = fold_queries(seed)
        self.argvs = [q.argv() for q in self.queries]

    def summary(self) -> dict:
        return {"queries": [q.summary() for q in self.queries], "kinds": ["ordinary", "restricted"]}

    def run_pass(self, workers: int = 1) -> Pass:
        p = Pass(compute_results=2 * len(self.argvs))
        for argv in self.argvs:
            status, stdout, elapsed = _capture(argv)
            p.durations.append(elapsed)
            p.outputs.append((status, stdout))
        for status, stdout in p.outputs:
            p.stdout_bytes += len(stdout)
            try:
                p.work += sum(e["size"] for e in json.loads(stdout)["results"])
            except (ValueError, KeyError, TypeError):
                pass  # validate() fails this output
        return p

    def validate(self, outputs: list) -> list[bool]:
        return [
            fold_output_ok(status, stdout, {kind.value: fold_reference(q, kind) for kind in (ORD, RES)})
            for q, (status, stdout) in zip(self.queries, outputs)
        ]

    def figures(self, work_per_s: float, durations: list[float]) -> dict:
        return {
            "sums_per_s": work_per_s,
            "compute_p50_ms": statistics.median(durations) * 1e3,
            "compute_p90_ms": percentile(durations, 90) * 1e3,
        }


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryPair:
    set_class: str
    A: IntSet
    H: HSet

    @property
    def has_witness(self) -> bool:
        return self.set_class == "all-positive"


def query_pairs(seed: int, count: int = QUERY_PAIRS) -> list[QueryPair]:
    """Small pairs, k 2..7 within a 24-element universe, H a subset of [1,7],
    cycling through the four sign-homogeneous classes."""
    rng = random.Random(f"queries-{seed}")
    pairs = []
    for i in range(count):
        set_class = QUERY_CLASSES[i % 4]
        k = rng.randint(2, 7)
        if set_class.startswith("zero"):
            a = [0] + rng.sample(range(1, QUERY_UNIVERSE), k - 1)
        else:
            a = rng.sample(range(1, QUERY_UNIVERSE + 1), k)
        if set_class.endswith("negative"):
            a = [-x for x in a]
        h = rng.sample(range(1, 8), rng.randint(1, 7))
        pairs.append(QueryPair(set_class, IntSet(tuple(sorted(a))), HSet(tuple(sorted(h)))))
    return pairs


def query_calls(pairs: list[QueryPair]) -> list[tuple[int, str, tuple]]:
    """(pair index, function name, arguments) for every library call of a pass.

    witness_blocks is called only where it is defined: an all-positive A,
    and for the restricted kind max(H) <= |A|.
    """
    calls = []
    for i, pair in enumerate(pairs):
        calls.append((i, "evaluate", (pair.A, pair.H)))
        calls.append((i, "check_inverse", (pair.A, pair.H, ORD)))
        calls.append((i, "check_inverse", (pair.A, pair.H, RES)))
        if pair.has_witness:
            calls.append((i, "witness_blocks", (pair.A, pair.H, ORD)))
            if pair.H.max <= len(pair.A):
                calls.append((i, "witness_blocks", (pair.A, pair.H, RES)))
    return calls


_QUERY_MODULES = {"evaluate": bounds, "check_inverse": structure, "witness_blocks": structure}


def _oracle_folds(pair: QueryPair, kind: SumsetKind) -> dict[int, frozenset[int]]:
    return {h: frozenset(naive_h_fold(pair.A, h, kind).elements) for h in pair.H}


def witness_reference(A: IntSet, H: HSet, kind: SumsetKind) -> list[set[int]]:
    """The stacked blocks of ``witness_blocks``, built from oracle folds.

    Block 1 is the h_1-fold. Each later block is the delta-fold of A shifted by
    prev*max(A) (ordinary), or the delta-fold of the k-prev smallest elements
    shifted by the sum of the prev largest (restricted).
    """
    a, k = A.elements, len(A)
    blocks, prev = [], 0
    for h in H.elements:
        if prev == 0:
            base, shift = naive_h_fold(A, h, kind), 0
        elif kind is RES:
            base, shift = naive_h_fold(IntSet(a[: k - prev]), h - prev, RES), sum(a[k - prev:])
        else:
            base, shift = naive_h_fold(A, h - prev, ORD), prev * a[-1]
        blocks.append({x + shift for x in base.elements})
        prev = h
    return blocks


def query_output_ok(name: str, args: tuple, result, folds) -> bool:
    """Check one library result against oracle folds {kind: {h: fold}}."""
    if isinstance(result, Exception):
        return False
    if name == "evaluate":
        sizes = {kind: len(frozenset().union(*folds[kind].values())) for kind in (ORD, RES)}
        return [r.kind for r in result] == [ORD, RES] and all(
            r.computed_size == sizes[r.kind] for r in result
        )
    A, H, kind = args
    if name == "check_inverse":
        size = len(frozenset().union(*folds[kind].values()))
        return result.kind is kind and result.computed_size == size and result.consistent
    blocks = [set(b.elements) for b in result.blocks]
    if result.kind is not kind or len(blocks) != len(H) or not all(blocks):
        return False
    if any(max(blocks[i]) >= min(blocks[i + 1]) for i in range(len(blocks) - 1)):
        return False
    if not all(b <= folds[kind][h] for h, b in zip(H.elements, blocks)):
        return False
    return blocks == witness_reference(A, H, kind)


class Queries:
    name = "queries"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs = query_pairs(seed)
        self.calls = query_calls(self.pairs)

    def summary(self) -> dict:
        names = [name for _i, name, _args in self.calls]
        return {
            "pairs": len(self.pairs),
            "calls": len(self.calls),
            "calls_by_function": {n: names.count(n) for n in sorted(set(names))},
            "k_range": [2, 7], "universe": QUERY_UNIVERSE, "h_within": [1, 7],
            "classes": list(QUERY_CLASSES),
        }

    def run_pass(self, workers: int = 1) -> Pass:
        # look the functions up per pass, so the traced run's wrappers are seen
        fns = {name: getattr(module, name) for name, module in _QUERY_MODULES.items()}
        clock = time.perf_counter
        p = Pass(work=len(self.calls))
        durations, outputs = p.durations, p.outputs
        for _i, name, args in self.calls:
            fn = fns[name]
            started = clock()
            try:
                result = fn(*args)
            except Exception as exc:  # validate() fails it
                result = exc
            durations.append(clock() - started)
            outputs.append(result)
        return p

    def validate(self, outputs: list) -> list[bool]:
        folds = [{kind: _oracle_folds(pair, kind) for kind in (ORD, RES)} for pair in self.pairs]
        return [
            query_output_ok(name, args, result, folds[i])
            for (i, name, args), result in zip(self.calls, outputs)
        ]

    def figures(self, work_per_s: float, durations: list[float]) -> dict:
        return {
            "queries_per_s": work_per_s,
            "query_p50_us": statistics.median(durations) * 1e6,
            "query_p99_us": percentile(durations, 99) * 1e6,
        }


WORKLOADS = {"sweep": Sweep, "fold": Fold, "queries": Queries}

