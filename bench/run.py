"""sumset-lab benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload {sweep,fold,queries} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --list          # every metric, with unit and direction

The package is imported from ``src/`` of the checkout; a directory without it
is refused with exit status 2. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, an input summary, the commit, the Python version,
the CPU affinity count and the workload's own figures. Every output is
checked after the timed loop, and a run with a failed check exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("sweep", "fold", "queries")

# On a shared machine the interpreter's speed drifts by up to 2x over minutes,
# for every program alike. End-to-end timings are therefore scaled by
# PROBE_REF_S / (the speed probe's time around them): they read as they would
# on the machine the benchmark was set up on (a 2-vCPU Xeon VM at 2.0 GHz,
# Python 3.11.7), where the probe takes about PROBE_REF_S. The unscaled
# figures are in the info line.
PROBE_REF_S = 0.025


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_s() -> float:
    """Median time of three runs of a fixed slice of interpreter work that
    does not touch the package: small allocations, dict and set traffic and
    big-int bit operations, the mix the package's own code is made of."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        bits = 0
        for i in range(20000):
            table[i, i & 7] = [i, str(i)]
            bits |= 1 << (i % 4096)
            if i % 3 == 0:
                bits ^= len({i, i + 1, i + 2})
        for i in range(20000):
            bits ^= hash(table[i, i & 7][1])
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the package and
    building the workload's inputs: (scaled to the reference speed, raw)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    scaled, raw = [], []
    probe = probe_s()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - started
        before, probe = probe, probe_s()
        raw.append(elapsed)
        scaled.append(elapsed * PROBE_REF_S / ((before + probe) / 2))
    return statistics.median(scaled), statistics.median(raw)


def _passes_for(seconds: float, one_rep) -> None:
    """Call one_rep() until the next call would end after ``seconds``; at least once."""
    begun = time.perf_counter()
    while True:
        started = time.perf_counter()
        one_rep()
        now = time.perf_counter()
        if now - begun + (now - started) > seconds:
            return


class Outputs:
    """The outputs of every pass, in constant memory.

    It keeps the first pass's outputs and, of each later pass, only the
    indices of the operations whose output differs from the first.
    """

    def __init__(self) -> None:
        self.first: list | None = None
        self.differing: list[list[int]] = []

    def absorb(self, p) -> None:
        if self.first is None:
            self.first = p.outputs
        else:
            self.differing.append([j for j, out in enumerate(p.outputs) if out != self.first[j]])
        p.outputs = None

    def tally(self, validate) -> tuple[int, int]:
        """(operations attempted, operations failed). An operation fails when
        the first pass's output for it is wrong, or a later pass's differs."""
        good = validate(self.first)
        passes = 1 + len(self.differing)
        failed = passes * good.count(False)
        failed += sum(1 for diff in self.differing for j in diff if good[j])
        return passes * len(good), failed


def _rate(p) -> float:
    return p.work / sum(p.durations)


def untraced_run(wl, seconds: float, outputs: Outputs) -> tuple[dict, dict]:
    """Passes with the speed probe between them; timings scaled per pass.

    Operation times go to one flat array, so that memory does not grow with
    the number of passes and peak RSS stays a property of the package.
    """
    raw_rates: list[float] = []
    ends = [0]  # pass i's operations are raw_durations[ends[i]:ends[i + 1]]
    raw_durations = array("d")
    gc.collect()
    probes = [probe_s()]

    def rep() -> None:
        p = wl.run_pass(1)
        raw_rates.append(_rate(p))
        raw_durations.extend(p.durations)
        ends.append(len(raw_durations))
        outputs.absorb(p)
        gc.collect()
        probes.append(probe_s())

    _passes_for(seconds, rep)
    peak_rss_mb = _peak_rss_mb()
    rates, durations = [], array("d")
    for i, rate in enumerate(raw_rates):
        slowdown = (probes[i] + probes[i + 1]) / 2 / PROBE_REF_S
        rates.append(rate * slowdown)
        durations.extend(t / slowdown for t in raw_durations[ends[i]:ends[i + 1]])
    metrics = {
        "work_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    figures = {
        "passes": len(raw_rates), "samples": len(durations),
        "probe_s_median": statistics.median(probes),
        "raw": wl.figures(statistics.median(raw_rates), list(raw_durations)),
    }
    return metrics, figures


def traced_run(wl, seconds: float, outputs: Outputs) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    The sweep also runs with two workers, untraced and traced, for the
    parallel efficiency and to check that tracing leaves both reports intact.
    Pass times and per-layer seconds are scaled by the speed probe, as the
    end-to-end timings are.
    """
    import spans

    tracer = spans.Tracer()
    variants = [(1, False), (1, True)]
    if wl.name == "sweep":
        variants += [(2, False), (2, True)]
    walls: dict[tuple[int, bool], list[float]] = {v: [] for v in variants}
    rates: dict[tuple[int, bool], list[float]] = {v: [] for v in variants}
    layers: list[dict] = []
    edges: dict = {}
    gc.collect()
    last_probe = probe_s()

    def rep() -> None:
        nonlocal edges, last_probe
        for workers, traced in variants:
            tracer.reset()
            restore = tracer.install() if traced else None
            try:
                p = wl.run_pass(workers)
            finally:
                if restore is not None:
                    restore()
            outputs.absorb(p)
            gc.collect()
            probe = probe_s()
            slowdown = (last_probe + probe) / 2 / PROBE_REF_S
            last_probe = probe
            wall = sum(p.durations)
            walls[workers, traced].append(wall / slowdown)
            rates[workers, traced].append(p.work / wall * slowdown)
            if traced and workers == 1:
                layer, edges = spans.layer_metrics(
                    tracer, wall, p.compute_results, p.stdout_bytes)
                layers.append({k: v / slowdown if k.endswith("_s") else v
                               for k, v in layer.items()})
        tracer.reset()

    _passes_for(seconds, rep)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead_frac"] = (
        statistics.median(walls[1, True]) / statistics.median(walls[1, False]) - 1
    )
    metrics["verifier.pairs_per_s_w2"] = 0.0
    metrics["verifier.parallel_eff"] = 0.0
    if wl.name == "sweep":
        w2 = statistics.median(rates[2, False])
        metrics["verifier.pairs_per_s_w2"] = w2
        metrics["verifier.parallel_eff"] = w2 / (2 * statistics.median(rates[1, False]))
    figures = {"reps": len(layers), "spans_by_edge": len(edges)}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{wl.name}-seed{wl.seed}.json").write_text(
        json.dumps({"workload": wl.name, "seed": wl.seed, "edges": edges}, indent=1, sort_keys=True)
    )
    return metrics, figures


def list_metrics() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        print(f"# {section}")
        for m in spec[section]:
            bound = m.get("bound")
            extra = f"  bound {bound:.0%}" if bound is not None else ""
            print(f"{m['name']:32s} {m['unit']:8s} {m['better']} is better{extra}")
    print("# workloads")
    for w in spec["workloads"]:
        print(f"{w['name']:10s} {w['why']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.list:
        return list_metrics()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "sumset_lab" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'sumset_lab'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    outputs = Outputs()
    if args.trace:
        metrics, figures = traced_run(wl, args.seconds, outputs)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, figures = untraced_run(wl, args.seconds, outputs)
        metrics["setup_s"] = setup_s
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted, failed = outputs.tally(wl.validate)
    multiprocessing.active_children()  # reaps any pool worker left behind
    figures["failed_frac"] = failed / attempted if attempted else 1.0
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": _commit(), "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)), "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "figures": figures, "inputs": wl.summary(),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
