"""Outside-in tracing for the benchmark's traced run.

The package is not changed. Instead the traced run replaces, for the
duration of a pass, the names through which each module looks up another
module's public functions (``verifier.sumset_ladder``, ``cli.union_sumset``,
``bounds.catalog_bound``, ...) with wrappers that record a span per call.
Spans are kept in flat arrays in memory; self times and the per-layer
metrics are computed after the pass, and the per-edge summary is written
when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from sumset_lab import bounds, cli, engine, intset, structure, verifier

# (owner, attribute, span name). The owner is the module whose code looks the
# name up, or the class that holds the method, so every call site of a layer
# goes through exactly one wrapper.
HOOKS = (
    (intset, "IntSet", "intset.build"),
    (intset, "HSet", "intset.build"),
    (engine, "IntSet", "intset.build"),
    (structure, "IntSet", "intset.build"),
    (verifier, "IntSet", "intset.build"),
    (verifier, "HSet", "intset.build"),
    (bounds, "HSet", "intset.build"),
    (intset, "format_elements", "intset.format"),
    (verifier, "format_elements", "intset.format"),
    (verifier, "sumset_ladder", "engine.ladder"),
    (engine, "h_fold", "engine.fold"),
    (engine, "h_fold_restricted", "engine.fold"),
    (structure, "h_fold", "engine.fold"),
    (structure, "h_fold_restricted", "engine.fold"),
    (bounds, "union_sumset", "engine.union"),
    (structure, "union_sumset", "engine.union"),
    (cli, "union_sumset", "engine.union"),
    (engine.SumBitmap, "to_intset", "engine.decode"),
    (bounds, "catalog_bound", "bounds.catalog"),
    (bounds, "evaluate", "bounds.evaluate"),
    (verifier, "build_verdict", "structure.verdict"),
    (structure, "build_verdict", "structure.verdict"),
    (structure, "check_inverse", "structure.check"),
    (cli, "check_inverse", "structure.check"),
    (structure, "witness_blocks", "structure.witness"),
    (cli, "verify", "verifier.verify"),
    (verifier, "case_record", "verifier.case_record"),
    (verifier.VerificationReport, "to_json", "verifier.to_json"),
    (cli, "main", "cli.main"),
)


@dataclass
class Probes:
    """Counts taken from call arguments and results at the layer boundaries."""

    catalog_keys: set = field(default_factory=set)
    decoded_bits: int = 0
    report_bytes: int = 0
    equality_cases: int = 0
    pairs_checked: int = 0


class Tracer:
    """Span recorder: name id, parent index, start and end per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.probes = Probes()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass, keeping the wrappers."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self._stack.clear()
        self.probes = Probes()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())  # last, so the bookkeeping stays outside the span
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if probe is not None:
                probe(self.probes, args, result)
            return result

        return traced

    def install(self):
        """Wrap every hook; returns a function that restores the originals."""
        saved = []
        for owner, attr, name in HOOKS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, _PROBES.get(name)))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore


def _probe_catalog(probes: Probes, args, _result) -> None:
    kind, k, H, zero_in = args
    probes.catalog_keys.add((kind, k, H.elements, zero_in))


def _probe_decode(probes: Probes, _args, result) -> None:
    probes.decoded_bits += len(result.elements)


def _probe_to_json(probes: Probes, args, result) -> None:
    report = args[0]
    probes.report_bytes += len(result)
    probes.equality_cases += report.equality_case_count
    probes.pairs_checked += report.pairs_checked


_PROBES = {
    "bounds.catalog": _probe_catalog,
    "engine.decode": _probe_decode,
    "verifier.to_json": _probe_to_json,
}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are listed in start order and a child's parent comes before it.
    Children that overlap each other, or run past their parent's end, are
    counted once and only inside the parent's interval.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # how far each span's interval is already covered
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Calls and self seconds per span name, and per (caller -> callee) edge."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    by_name: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    by_edge: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    names, nids = tracer.names, tracer.name_id
    for i, (p, own) in enumerate(zip(tracer.parent, selfs)):
        name = names[nids[i]]
        caller = names[nids[p]] if p >= 0 else "(root)"
        for row in (by_name[name], by_edge[f"{caller} -> {name}"]):
            row["calls"] += 1
            row["self_s"] += own
    return dict(by_name), dict(by_edge)


def layer_metrics(
    tracer: Tracer, wall: float, compute_results: int, stdout_bytes: int
) -> tuple[dict[str, float], dict]:
    """The per-layer metrics of one traced pass that took ``wall`` seconds,
    and the per-edge summary they came from."""
    rows, edges = summarize(tracer)

    def calls(name: str) -> int:
        return rows.get(name, {}).get("calls", 0)

    def own(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    probes = tracer.probes
    catalog_calls = calls("bounds.catalog")
    witness_calls = calls("structure.witness")
    witness_folds = edges.get("structure.witness -> engine.fold", {}).get("calls", 0)
    covered = sum(row["self_s"] for row in rows.values())
    metrics = {
        "intset.build_calls": calls("intset.build"),
        "intset.build_s": own("intset.build"),
        "intset.format_calls": calls("intset.format"),
        "intset.format_s": own("intset.format"),
        "engine.ladder_calls": calls("engine.ladder"),
        "engine.ladder_s": own("engine.ladder"),
        "engine.fold_calls": calls("engine.fold"),
        "engine.fold_s": own("engine.fold"),
        "engine.union_calls": calls("engine.union"),
        "engine.union_s": own("engine.union"),
        "engine.decode_calls": calls("engine.decode"),
        "engine.decode_s": own("engine.decode"),
        "engine.decode_bits": probes.decoded_bits,
        "bounds.catalog_calls": catalog_calls,
        "bounds.catalog_s": own("bounds.catalog"),
        "bounds.catalog_useful_ratio": (
            len(probes.catalog_keys) / catalog_calls if catalog_calls else 0.0
        ),
        "bounds.evaluate_s": own("bounds.evaluate"),
        "structure.verdict_calls": calls("structure.verdict"),
        "structure.verdict_s": own("structure.verdict"),
        "structure.check_s": own("structure.check"),
        "structure.witness_calls": witness_calls,
        "structure.witness_s": own("structure.witness"),
        "structure.folds_per_witness": witness_folds / witness_calls if witness_calls else 0.0,
        "verifier.self_s": own("verifier.verify"),
        "verifier.case_record_s": own("verifier.case_record"),
        "verifier.to_json_s": own("verifier.to_json"),
        "verifier.report_bytes": probes.report_bytes,
        "verifier.equality_ratio": (
            probes.equality_cases / probes.pairs_checked if probes.pairs_checked else 0.0
        ),
        "cli.self_s": own("cli.main"),
        "cli.unions_per_compute": (
            calls("engine.union") / compute_results if compute_results else 0.0
        ),
        "cli.stdout_bytes": stdout_bytes,
        "trace_coverage_frac": covered / wall if wall > 0 else 0.0,
    }
    return metrics, edges
