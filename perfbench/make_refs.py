"""Regenerate the committed trajectory references in ``refs/``.

Usage: python3 perfbench/make_refs.py

Runs every figure preset of the trajectory workloads through the CLI,
checks each column against an independent recomputation (``oracle``:
exact propagators, closed-form delta_F, eigvals-route concurrence) at the
workload tolerances, and only then writes ``refs/<workload>.npz``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
import workloads
from dissipair.experiments import figure_trajectory_runs


def _independent(fig: str, header: list[str], table: np.ndarray) -> np.ndarray:
    """The same table recomputed without the package's numerics."""
    if fig == "2a":
        return np.column_stack([table[:, 0], table[:, 1], oracle.delta_f(1.0, table[:, 0], table[:, 1])])
    runs = figure_trajectory_runs()[fig]
    by_label = {}
    for run in runs:
        p, grid = run.params, run.grid
        gen = oracle.liouvillian(p.J, p.Gamma, p.phi, p.drive.target if p.drive else None,
                                 p.drive.amplitude if p.drive else 0.0)
        states = oracle.trajectory(gen, run.initial, grid.dt, grid.n_steps, grid.sample_every)
        by_label[run.label] = oracle.quantities(states)
    columns = [grid.sample_times()]
    for name in header[1:]:
        if "_from_" in name:
            quantity, label = name.split("_from_")
        elif len(runs) > 1:
            quantity, _, label = name.rpartition("_")
        else:
            quantity, label = name, runs[0].label
        columns.append(by_label[label][quantity])
    return np.column_stack(columns)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, figures in workloads.FIGURES.items():
            arrays = {}
            for fig in figures:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = workloads.cli.main(["figure", fig, "--out", tmp])
                if code != 0:
                    print(f"figure {fig} exited {code}", file=sys.stderr)
                    return 1
                path = Path(tmp) / f"fig{fig}.csv"
                header = path.read_text(encoding="ascii").split("\n", 1)[0].split(",")
                table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                tol = np.array([workloads.figure_tolerance(fig, c) for c in header])
                worst = np.abs(table - _independent(fig, header, table)).max(axis=0)
                print(f"{fig}: worst deviation per column {dict(zip(header, worst.round(15)))}")
                if np.any(worst > tol):
                    print(f"figure {fig} disagrees with the independent route", file=sys.stderr)
                    return 1
                arrays[f"{fig}_header"] = np.array(header)
                arrays[f"{fig}_table"] = table
            np.savez_compressed(workloads.REFS / f"{name}.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
