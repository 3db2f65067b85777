"""Self-test of the benchmark on tiny workloads.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that
1. every metric named in BENCHMARK.json, fail_ratio and the unscaled
   wall-clock times are printed by name with their units for each
   workload, traced and untraced, and that the result line carries
   exactly the contract's keys and metrics;
2. one output value pushed beyond its tolerance makes fail_ratio non-zero;
3. on the steady_map sweep extended down to the undriven row, at seed 0
   the undriven phi = pi cell is reported as a failed row, and every
   failed row is an undriven cell at a multiple of pi.  The package's
   steady-state solver takes singular values from L'L, which cannot
   resolve a gap below about 1e-8, so it calls these degenerate cells
   unique; a fix to the solver must flip this check.  The timed
   steady_map grid leaves the undriven row out, so its runs are correct.
Exits 1 at the first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads

TINY_FIGURES = {"traj_populations": ("2c",), "traj_concurrence": ("3a",)}
TINY_STEADY = (3, 5)


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def tiny(name: str, seed: int, workdir: Path, amplitude_min: float = workloads.STEADY_AMPLITUDE_MIN):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "steady_map":
        return workloads.steady_workload(seed, workdir, TINY_STEADY, amplitude_min)
    return workloads.figure_workload(name, seed, workdir, TINY_FIGURES[name])


def measure(name: str, seed: int, trace: bool, workdir: Path) -> tuple[dict, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.measure(tiny(name, seed, workdir), 0.0, trace)
    return result, printed.getvalue()


def printed_with_unit(text: str, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in text.splitlines())


def check_metrics(spec: dict, workdir: Path) -> None:
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, text = measure(name, 1, trace, workdir)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {set(result)}")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{name} trace={int(trace)}: metrics {got} differ from BENCHMARK.json {wanted}")
            printed = [*wanted.items(), ("fail_ratio", "ratio")]
            if not trace:
                printed += [("wall_s", "s"), ("wall_tail_s", "s"), ("rows_per_s", "1/s")]
            for metric, unit in printed:
                check(printed_with_unit(text, metric, unit), f"{name}: {metric} not printed with unit {unit}")
            check(result["failed"] == 0 and result["correct"], f"{name}: {result['failed']} rows failed")
    print("selftest ok: every metric printed with its unit for each workload")


def check_perturbation(workdir: Path) -> None:
    experiments = workloads.dissipair.experiments
    original = experiments.write_csv

    def perturbed(path, header, rows):
        rows = np.array(rows, dtype=float)
        rows[len(rows) // 2, -1] += 100.0 * workloads.TOL_POPULATION
        return original(path, header, rows)

    experiments.write_csv = perturbed
    try:
        result, text = measure("traj_populations", 0, False, workdir)
    finally:
        experiments.write_csv = original
    check(result["failed"] == 1 and not result["correct"], f"perturbed value gave {result['failed']} failed rows")
    ratio = next(line.split()[1] for line in text.splitlines() if line.startswith("fail_ratio"))
    check(float(ratio) > 0.0, f"perturbed value printed fail_ratio {ratio}")
    print("selftest ok: one value beyond tolerance makes fail_ratio non-zero")


def check_degenerate_cells(workdir: Path) -> None:
    workload = tiny("steady_map", 0, workdir, amplitude_min=0.0)
    passes = run.run_passes(workload, workloads.cli, 0.0)
    failed = {row for _, row, _ in passes[0]["failed"]}
    cells = workload.operations[0].expected[:, :2]
    undriven_pi = {i for i, (a, phi) in enumerate(cells) if a == 0.0 and phi == math.pi}
    check(undriven_pi <= failed, f"undriven phi = pi cell not among failed rows {sorted(failed)}")
    for row in failed:
        a, phi = cells[row]
        check(a == 0.0 and math.isclose(phi / math.pi, round(phi / math.pi)),
              f"failed row {row} at amplitude {a}, phi {phi} is not an undriven multiple of pi")
    print(f"selftest ok: seed 0 steady_map failed rows {sorted(failed)} are undriven multiples of pi, phi = pi among them")


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.RUNS))
    run.RUNS = scratch  # keep this test's run records apart from real ones
    try:
        check_metrics(spec, scratch / "metrics")
        check_perturbation(scratch / "perturbed")
        check_degenerate_cells(scratch / "steady")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
