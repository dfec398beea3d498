"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/summarize.py --seeds 0-9 [--workloads sweep,fold] [--trace 0]
                               [--seconds S] [--out bench/results/NAME.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, next to the metric's bound. The runs are sequential
and each is a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            info, result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their check")
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "figures": info["figures"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary["commit"] = info["commit"]
        summary["python"] = info["python"]
        summary["cpus"] = info["cpus"]
        summary["workloads"][workload] = {
            "metrics": {name: spread(v) for name, v in values.items()}, "runs": runs,
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER A THIRD" if s["iqr_frac"] > bound / 3 else "")
            print(f"{workload:8s} {name:30s} median {s['median']:<14.6g} "
                  f"iqr/median {s['iqr_frac']:.3f}{mark}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
