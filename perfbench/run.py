"""Benchmark of the dissipair command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``traj_populations`` and
``traj_concurrence`` run figure presets, ``steady_map`` runs one
steady-concurrence sweep.  Every operation goes in-process through
``dissipair.cli.main(argv)``, the entry point users reach.  A pass runs
each operation of the workload once, in an order fixed by the seed; the
run repeats passes, one after another in this single process (a closed
loop with one client), until ``--seconds`` have elapsed.  After each pass,
outside the timed region, every CSV row is checked against its
reference.

With ``--trace 0`` the run reports the end-to-end metrics.  Pass times
are reported scaled to a reference host speed (``ref_*``, see
hostspeed.py) and also, printed but not on the result line, as measured
by the wall clock (``wall_s``, ``wall_tail_s``, ``rows_per_s``).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced ones, plus their wall-time
ratio.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` (output
rows) and ``metrics``.  A record of the run, and for traced runs the
spans, are written under ``perfbench/runs/``.

The benchmark starts no threads; set-up time is sampled in fresh
interpreters started one at a time (``setup_probe.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
REFERENCE_SHARE = 0.1  # host-speed sampling after a pass, as a share of the pass's time


def environment() -> dict:
    """Interpreter, numpy and BLAS settings this run used."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_BEYOND passes above it, never below the (upper) median.

    Returns (value, percentile, passes beyond it).
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[k - 1], 100.0 * k / n, n - k


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds to import dissipair and write the inputs, in SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with tempfile.TemporaryDirectory(dir=RUNS) as scratch:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(Path(scratch) / "inputs")],
                capture_output=True, text=True, timeout=120, check=True,
            )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_passes(workload, cli, seconds: float, tracer=None) -> list[dict]:
    """Repeat passes until `seconds` have elapsed; with a tracer, every second pass is traced.

    The host's reference-kernel time is taken before the first pass and
    after each one; a pass records the mean of the two around it.
    """
    passes = []
    begin = time.perf_counter()
    reference = hostspeed.reference_seconds()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - begin < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        outcomes = []
        if traced:
            tracer.begin_pass(len(passes))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for op in workload.operations:
                try:
                    outcomes.append(cli.main(op.argv))
                except (Exception, SystemExit) as exc:  # an operation's crash is a failed result
                    outcomes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end_pass()
        after = hostspeed.reference_seconds(REFERENCE_SHARE * elapsed)
        failed = []
        for op, outcome in zip(workload.operations, outcomes):
            rows = op.failed_rows() if outcome == 0 else range(len(op.expected))
            failed += [(" ".join(op.argv[:2]), int(r), outcome) for r in rows]
            op.output.unlink(missing_ok=True)
        passes.append({"seconds": elapsed, "reference": (reference + after) / 2, "traced": traced, "failed": failed})
        reference = after
    return passes


def describe_failures(workload, passes) -> list[str]:
    """Distinct failed rows with the output the reference expected."""
    lines = []
    ops = {" ".join(op.argv[:2]): op for op in workload.operations}
    for op_name, row, outcome in sorted({f for p in passes for f in p["failed"]}, key=str):
        expected = ", ".join(f"{x:.15g}" for x in ops[op_name].expected[row])
        status = "" if outcome == 0 else f" ({outcome})"
        lines.append(f"failed row: {op_name} row {row} expected [{expected}]{status}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        workload = workloads.prepare(args.workload, args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the workload, print every metric by name with its unit, and return the result object."""
    import workloads

    setup = [] if trace else measure_setup(workload.name, workload.seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(workloads.dissipair)
    passes = run_passes(workload, workloads.cli, seconds, tracer)

    attempted = workload.rows * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    plain = [p["seconds"] for p in passes if not p["traced"]]
    scaled = [p["seconds"] * hostspeed.REFERENCE_SECONDS / p["reference"] for p in passes if not p["traced"]]
    wall = statistics.median(plain)
    print(f"workload {workload.name} seed {workload.seed} inputs {json.dumps(workload.inputs)}")
    print(f"passes {len(passes)} ({len(plain)} untraced), rows per pass {workload.rows}")
    metrics, notes, unscaled = {}, {}, []
    if trace:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        traced_wall = statistics.median(p["seconds"] for p in passes if p["traced"])
        rows = tracer.metrics(traced_ids)
        rows.append(("trace_overhead_ratio", traced_wall / wall, "ratio",
                     f"traced wall_s {traced_wall:.6g} s over untraced {wall:.6g} s"))
        tracer.save(RUNS / f"trace-{workload.name}-seed{workload.seed}.npz")
    else:
        tail_s, pct, beyond = tail(scaled)
        host = statistics.median(p["reference"] for p in passes if not p["traced"])
        at_reference = f"at reference host speed ({hostspeed.REFERENCE_SECONDS} s kernel; measured {host:.4g} s)"
        rows = [
            ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
            ("ref_wall_s", statistics.median(scaled), "s", f"median of {len(plain)} passes {at_reference}"),
            ("ref_wall_tail_s", tail_s, "s",
             f"p{pct:.1f} of {len(plain)} passes, {beyond} beyond it, {at_reference}"),
            ("ref_rows_per_s", statistics.median(workload.rows / t for t in scaled), "1/s",
             f"{workload.rows} rows per pass, median over passes {at_reference}"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
             "peak resident set of this process"),
        ]
        # The same timings unscaled, printed and recorded but not on the result line.
        unscaled = [
            ("wall_s", wall, "s", f"median of {len(plain)} passes, wall clock"),
            ("wall_tail_s", tail(plain)[0], "s", f"p{pct:.1f} of {len(plain)} passes, wall clock"),
            ("rows_per_s", statistics.median(workload.rows / t for t in plain), "1/s",
             f"{workload.rows} rows per pass, median over passes, wall clock"),
        ]
    for name, value, unit, _ in rows:
        metrics[name] = {"value": value, "unit": unit}
    for name, value, unit, note in rows + unscaled:
        print(f"{name:<40} {value:>14.6g} {unit:<6} {note}")
        notes[name] = note
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} {failed} of {attempted} rows failed")
    for line in describe_failures(workload, passes):
        print(line)
    record = {
        "workload": workload.name, "seed": workload.seed, "trace": trace, "inputs": workload.inputs,
        "pass_seconds": [p["seconds"] for p in passes], "reference_seconds": [p["reference"] for p in passes],
        "traced": [p["traced"] for p in passes], "setup_seconds": setup,
        "rows_per_pass": workload.rows, "attempted": attempted, "failed": failed, "metrics": metrics,
        "unscaled": {name: value for name, value, _, _ in unscaled}, "notes": notes,
        "fail_ratio": failed / attempted, "environment": environment(),
    }
    (RUNS / f"run-{workload.name}-seed{workload.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
