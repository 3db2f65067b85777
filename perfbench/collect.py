"""Run the benchmark over several seeds and record each metric's median and spread.

Usage (from the root of a checkout): python3 perfbench/collect.py

For each workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed 0-9, one run at a time, then one traced run at seed 0.  For
every end-to-end metric it reports the median and the quartiles of the
per-seed values, as ``statistics.quantiles(values, n=4)`` gives them, and
their distance as a share of the median next to the metric's bound in
BENCHMARK.json, marked steady when below a third of the bound, and the
same for the unscaled wall-clock times the runs record.  The
summary, the environment and the commit (when the checkout is a git
repository) are written to ``perfbench/runs/collect.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))
TRACE_SEED = 0
OUT = HERE / "runs" / "collect.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    record = HERE / "runs" / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(record.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def commit() -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from run import environment

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"commit": commit(), "environment": environment(), "run_seconds": spec["run_seconds"],
               "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        results = [result for result, _ in runs]
        entry = {"attempted": [r["attempted"] for r in results], "failed": [r["failed"] for r in results],
                 "end_to_end": {}, "unscaled": {}}
        for name, bound in bounds.items():
            stats = quartiles([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {"unit": results[0]["metrics"][name]["unit"], "bound": bound, **stats}
            quiet = stats["spread"] < bound / 3
            steady &= quiet
            print(f"{workload:<18} {name:<16} median {stats['median']:<12.6g} spread {stats['spread']:<8.4f} "
                  f"bound {bound:<5} {'ok' if quiet else 'NOISY'}", flush=True)
        for name in runs[0][1]["unscaled"]:
            stats = quartiles([record["unscaled"][name] for _, record in runs])
            entry["unscaled"][name] = stats
            print(f"{workload:<18} {name:<16} median {stats['median']:<12.6g} spread {stats['spread']:<8.4f} "
                  f"(wall clock, unscaled)", flush=True)
        print(f"{workload:<18} failed rows per seed {entry['failed']} of {entry['attempted']}", flush=True)
        traced, record = run(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {"seed": TRACE_SEED, **traced["metrics"]}
        entry["per_layer_notes"] = record["notes"]
        summary["workloads"][workload] = entry
    OUT.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
