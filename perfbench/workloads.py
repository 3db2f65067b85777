"""Workload inputs, their references, and the check of every output row.

A workload is a list of CLI operations; one pass runs each once.  The
trajectory workloads run figure presets and compare against references
committed under ``refs/``; ``steady_map`` runs one steady-concurrence
sweep and builds its references at set-up time from ``oracle``.
Importing this module puts the checkout's ``src`` first on ``sys.path``
and imports ``dissipair``.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dissipair  # noqa: E402
from dissipair import cli  # noqa: E402

if ROOT / "src" not in Path(dissipair.__file__).resolve().parents:
    raise ImportError(f"dissipair was imported from {dissipair.__file__}, not from this checkout's src")

REFS = Path(__file__).resolve().parent / "refs"

# Operations per pass.  traj_concurrence keeps one transient preset (3a,
# near-pure states) and one driven preset (4a, mixed states from 25 000
# steps): 3b and 4b repeat the same work and would double a pass that
# already takes seconds.
FIGURES = {
    "traj_populations": ("2a", "2b", "2c", "2d", "5b", "5c", "5d"),
    "traj_concurrence": ("3a", "4a"),
}
WORKLOADS = ("traj_populations", "traj_concurrence", "steady_map")

# steady_map grid: drive amplitude x phi, both counts odd; 9 phi points
# put phi = pi exactly on the grid (linspace step 2 pi / 8).  The timed
# grid starts at a driven amplitude: the undriven cells at multiples of pi
# are degenerate, and at this package's solver some of them are reported
# unique (see selftest.py), so a grid holding them fails on most seeds.
STEADY_COUNTS = (5, 9)
STEADY_AMPLITUDE_MIN = 0.5
STEADY_AMPLITUDE_MAX = 2.0
STEADY_GAMMA = 2.0
STEADY_GAMMA_RANGE = (1.5, 2.5)

# Acceptance-gate tolerances.
TOL_EXACT = 1e-12        # time and grid axes, delta_F
TOL_POPULATION = 1e-7    # qubit and collective populations
TOL_CONCURRENCE = 1e-6


@dataclass
class Operation:
    """One CLI call, the CSV it writes, and what that CSV must hold."""

    argv: list[str]
    output: Path
    header: list[str]
    expected: np.ndarray
    tolerance: np.ndarray

    def failed_rows(self) -> np.ndarray:
        """Indices of output rows that are missing or off by more than the tolerance."""
        everything = np.arange(len(self.expected))
        try:
            with open(self.output, encoding="ascii") as fh:
                header = fh.readline().rstrip("\n").split(",")
            table = np.loadtxt(self.output, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError):
            return everything
        if header != self.header or table.shape != self.expected.shape:
            return everything
        ok = np.abs(table - self.expected) <= self.tolerance
        return np.flatnonzero(~ok.all(axis=1))


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    operations: list[Operation]
    inputs: dict

    @property
    def rows(self) -> int:
        return sum(len(op.expected) for op in self.operations)


def figure_tolerance(figure: str, column: str) -> float:
    if figure == "2a" or column == "t":
        return TOL_EXACT
    if column.startswith("C"):
        return TOL_CONCURRENCE
    return TOL_POPULATION


def figure_workload(name: str, seed: int, workdir: Path, figures=None) -> Workload:
    """Figure presets in an order fixed by the seed, checked against committed references."""
    figures = list(figures or FIGURES[name])
    random.Random(seed).shuffle(figures)
    ops = []
    with np.load(REFS / f"{name}.npz") as refs:
        for fig in figures:
            header = [str(c) for c in refs[f"{fig}_header"]]
            ops.append(Operation(
                argv=["figure", fig, "--out", str(workdir)],
                output=workdir / f"fig{fig}.csv",
                header=header,
                expected=refs[f"{fig}_table"],
                tolerance=np.array([figure_tolerance(fig, c) for c in header]),
            ))
    return Workload(name, seed, workdir, ops, {"figures": figures})


def steady_gamma(seed: int) -> float:
    """Seed 0 keeps the paper's Gamma = 2; other seeds draw it from a fixed range."""
    return STEADY_GAMMA if seed == 0 else random.Random(seed).uniform(*STEADY_GAMMA_RANGE)


def steady_workload(seed: int, workdir: Path, counts=STEADY_COUNTS,
                    amplitude_min: float = STEADY_AMPLITUDE_MIN) -> Workload:
    """One drive_amplitude x phi steady-concurrence sweep with references from `oracle`."""
    gamma = steady_gamma(seed)
    amplitudes = np.linspace(amplitude_min, STEADY_AMPLITUDE_MAX, counts[0])
    phis = np.linspace(0.0, 2.0 * math.pi, counts[1])
    output = workdir / "steady_map.csv"
    config = workdir / "steady_map.cfg"
    config.write_text(
        f"J = 1.0\nGamma = {gamma!r}\ndrive_target = 1\nobservable = steady_concurrence\n"
        f"axis1_name = drive_amplitude\naxis1_min = {amplitude_min!r}\naxis1_max = {STEADY_AMPLITUDE_MAX!r}\n"
        f"axis1_count = {counts[0]}\n"
        f"axis2_name = phi\naxis2_min = 0.0\naxis2_max = {2.0 * math.pi!r}\naxis2_count = {counts[1]}\n"
        f"output_path = {output}\n",
        encoding="ascii",
    )
    expected = []
    for a in amplitudes:
        for phi in phis:
            rho = oracle.steady_state(oracle.liouvillian(1.0, gamma, phi, 1, a))
            expected.append((a, phi, -1.0, 1.0) if rho is None else (a, phi, oracle.concurrence(rho), 0.0))
    op = Operation(
        argv=["sweep", "--config", str(config)],
        output=output,
        header=["axis1", "axis2", "value", "degenerate"],
        expected=np.array(expected),
        tolerance=np.array([TOL_EXACT, TOL_EXACT, TOL_CONCURRENCE, 0.0]),
    )
    return Workload("steady_map", seed, workdir, [op], {"Gamma": gamma, "counts": list(counts), "amplitude_min": amplitude_min})


def prepare(name: str, seed: int, workdir) -> Workload:
    """Write a workload's inputs into `workdir` and load or compute its references."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "steady_map":
        return steady_workload(seed, workdir)
    if name in FIGURES:
        return figure_workload(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")

