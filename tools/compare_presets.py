"""Write the presets, five sweeps, a driven run and a stacked table from two trees; compare the CSVs cell by cell.

    python tools/compare_presets.py OLD_SRC NEW_SRC [--tol TOL]

OLD_SRC and NEW_SRC are directories that hold the `dissipair` package, such as
the `src` of two checkouts.  Each tree writes, in its own Python process, the
15 presets, then five sweeps, one `evolve` run and the stacked table.  The steady map is the
201 x 201 `steady_concurrence` sweep with J = 1, Gamma = 2 and the drive on
qubit 1, over drive_amplitude in [0, 2] (axis1) and phi in [0, 2 pi] (axis2);
it has 3 degenerate cells, flagged with the sentinel -1, and the inverse of
the bordered matrix certifies every other cell unique.  The qubit-2 map is the
same sweep, 41 x 41, with the drive on qubit 2, the only steady sweep here that
drives it.  The wide sweep is
`delta_F` over J in [0, 2] (3 values) and phi in [0, 2 pi] (5 000 values) with
Gamma = 2: its rows are longer than a delta_F sweep block (4 096 cells), so
blocks end in the middle of a row.  The singular corner is the undriven
`steady_concurrence` sweep over J in [0, 2] (axis1) and Gamma in [0, 4]
(axis2), 41 values each, at phi = 3 pi/2: the J = 0 column and the Gamma = 0
row keep dark states and an exactly singular bordered matrix, so the inverse
raises for each of its two blocks and every cell takes the SVD verdict, 81 of
them degenerate.  The scientific axes
sweep is `delta_F` over J in [-3e-5, 3e-5] (axis1, 11 values) and Gamma in
[0, 1e20] (axis2, 1 500 values): each of its blocks holds two whole rows,
every delta_F is 0, and its axis cells print with exponents such as e-05, e+15
and above, which no preset writes.  The driven run writes every output group
(populations, concurrence, collective, states) of J = 1, Gamma = 2, phi = 4.2
and kappa = 0.3, driven on qubit 2 with amplitude 0.7, from PLUS up to
t_max = 40 at every third step: 6 668 rows of 40 cells in two row blocks, with
negative cells, cells below 1e-4 in scientific notation, and the imaginary
parts of the states, which no preset writes.  The stacked table writes every
output group of the four runs of preset 6c, integrated as one stack, on a grid
of t_max = 200.004 stored every tenth step: 10 002 rows of 157 cells in three
row blocks, the last with a 2-step tail, through `experiments._trajectory_table`
and `write_csv` (STACKED names the preset and the grid); trees that printed
MINUS's zero imaginary parts as -0 differ from later ones in two of its cells
at t = 0, by 0.  For each table
the script prints "identical", or the number of changed cells, the largest
|difference| with the cell that shows it (its data row, counted from 0, its
column, and its old and new text), and the columns the changed cells sit in,
and then the wall time of its write in each tree, old -> new, in ms, the minor page faults the write took in
each (`resource.getrusage` of the tree's process around the call), and the process's peak RSS (`ru_maxrss`, in MB)
once the write is done.  The peak only rises from write to write, so it reads one write's own peak only where that
is the highest so far; the stacked table is written last.  Each tree then runs the 18 command lines of
CALLS, one `python -m dissipair` process each, in a working directory of its
own so that the relative paths in messages read the same: `steady` on the 4a
drive (qubit 1), on the 4b drive (qubit 2), on the degenerate undriven phi = pi
model (exit 3), on rates near 1e300 and on the 4a config saved with a UTF-8
byte-order mark, which trees before the mark was read refuse (exit 2), and
one call for each way a command can fail (an unknown key, drive target 3, a
negative Gamma, a step too large, an unknown figure id, an --out that is a
file, a drive_amplitude sweep axis with no drive_target, which older trees
ran on qubit 1 with exit 0, and a sweep config that sets J and
drive_amplitude and sweeps both, which older trees ran with exit 0, dropping
the set values), and four calls a config fuzz found: an `evolve` grid of
2e297 stored samples, which trees without the sample ceiling ended with
numpy's traceback (exit 1) instead of exit 2, row sums that overflow the step
bound, where older trees printed numpy's overflow warning before the exit-3
message, 1e20 steps stored every 1e19th, more steps than int64 holds, and a
sweep axis of 1e20 values, both of which trees without the step and axis
ceilings ended with a traceback (exit 1) instead of exit 2), and a
`steady_concurrence` sweep whose first block overflows its generator (J from
1e308 with Gamma = 1e308) into an --out directory that does not exist: it
exits 3 with the numerical error, where trees that made a sweep's file before
its first block exit 4 with the io error.  Their stdout,
stderr and exit code must match byte for byte, but for the random 16-hex-digit token of a temporary file's name, which
older trees print in the message of a failed write; the script prints "same
text" or what differs.  Each time is one `dissipair figure <id>`,
`dissipair sweep` or `dissipair evolve` call, or the stacked table's write, timed once, in the tree's
process after the tables listed before it; the first write also pays one-time
costs.  Treat the times as orders of magnitude.  It exits 1 when a table
differs by more than TOL (default 0, so any change), when a header or a table
shape differs, when a cell of the new tree prints -0, or when a call's text or exit code differs.  It exits 2 when a
tree holds no `dissipair/__init__.py`, before writing anything, or when a
tree's writes fail.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

FIGURES = ("2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5b", "5c", "5d", "6a", "6b", "6c", "6d")
_PHI_AXIS = "axis2_name = phi\naxis2_min = 0\naxis2_max = 6.283185307179586\n"
_AMPLITUDE_AXIS = "observable = steady_concurrence\naxis1_name = drive_amplitude\naxis1_min = 0\naxis1_max = 2\n"
SWEEPS = {
    "steady_map": "J = 1\nGamma = 2\ndrive_target = 1\n" + _AMPLITUDE_AXIS + "axis1_count = 201\n" + _PHI_AXIS
                  + "axis2_count = 201\n",
    "steady_map_q2": "J = 1\nGamma = 2\ndrive_target = 2\n" + _AMPLITUDE_AXIS + "axis1_count = 41\n" + _PHI_AXIS
                     + "axis2_count = 41\n",
    "wide_sweep": "Gamma = 2\nobservable = delta_F\naxis1_name = J\naxis1_min = 0\naxis1_max = 2\naxis1_count = 3\n"
                  + _PHI_AXIS + "axis2_count = 5000\n",
    "singular_corner": "phi = 4.71238898038469\nobservable = steady_concurrence\naxis1_name = J\naxis1_min = 0\n"
                       "axis1_max = 2\naxis1_count = 41\naxis2_name = Gamma\naxis2_min = 0\naxis2_max = 4\n"
                       "axis2_count = 41\n",
    "scientific_axes": "observable = delta_F\naxis1_name = J\naxis1_min = -3e-5\naxis1_max = 3e-5\naxis1_count = 11\n"
                       "axis2_name = Gamma\naxis2_min = 0\naxis2_max = 1e20\naxis2_count = 1500\n",
}
# The preset whose runs the stacked table integrates, and its grid (t_max, dt, sample_every).
STACKED = ("6c", (200.004, 0.002, 10))
EVOLVE = ("J = 1\nGamma = 2\nphi = 4.2\nkappa = 0.3\ndrive_target = 2\ndrive_amplitude = 0.7\ninitial = PLUS\n"
          "t_max = 40\nsample_every = 3\noutputs = populations, concurrence, collective, states\n")
_STEADY_4A = "J = 1\nGamma = 2\nphi = 4.71238898038469\ndrive_target = 1\ndrive_amplitude = 0.727272727272727\n"
_STEADY = ["steady", "--config", "call.cfg"]
_EVOLVE = ["evolve", "--config", "call.cfg", "--out", "out"]
# Command lines run in each tree, and the text of the call.cfg beside them.
CALLS = {
    "steady_4a": (_STEADY, _STEADY_4A),
    "steady_4b": (_STEADY, _STEADY_4A.replace("drive_target = 1", "drive_target = 2")),
    "steady_degenerate": (_STEADY, "J = 1\nGamma = 2\nphi = 3.141592653589793\n"),
    "steady_1e300": (_STEADY,
                     "J = 1e300\nGamma = 2e300\nphi = 4.71238898038469\ndrive_target = 1\ndrive_amplitude = 7e299\n"),
    "byte_order_mark": (_STEADY, "\ufeff" + _STEADY_4A),
    "unknown_key": (_EVOLVE, "omega0 = 5\n"),
    "drive_target_3": (_EVOLVE, "drive_target = 3\n"),
    "negative_gamma": (_EVOLVE, "Gamma = -1\n"),
    "dt_too_large": (_EVOLVE, "J = 1\nGamma = 2\nt_max = 5\ndt = 0.5\n"),
    "unknown_figure": (["figure", "9z", "--out", "out"], ""),
    "out_is_a_file": (["figure", "2b", "--out", "call.cfg"], ""),
    "drive_axis_without_target": (["sweep", "--config", "call.cfg", "--out", "out"], "J = 1\nGamma = 2\n"
                                  + _AMPLITUDE_AXIS + "axis1_count = 3\n" + _PHI_AXIS + "axis2_count = 3\n"),
    "sweep_key_and_axis": (["sweep", "--config", "call.cfg", "--out", "out"],
                           "J = 5\nGamma = 2\ndrive_target = 1\ndrive_amplitude = 0.3\nobservable = delta_F\n"
                           "axis1_name = J\naxis1_min = 0\naxis1_max = 2\naxis1_count = 3\n"
                           "axis2_name = drive_amplitude\naxis2_min = 0\naxis2_max = 1\naxis2_count = 3\n"),
    "huge_grid": (_EVOLVE, "t_max = 0.004\ndt = 1e-300\nsample_every = 2\n"),
    "overflowing_bound": (_EVOLVE,
                          "J = 1e5\ndrive_target = 2\ndrive_amplitude = 1.7e308\ndt = 1e-300\nt_max = 1e-299\n"),
    "huge_step_count": (_EVOLVE, "J = 0\nt_max = 1e20\ndt = 1\nsample_every = 10000000000000000000\n"),
    "huge_axis_count": (["sweep", "--config", "call.cfg", "--out", "out"],
                        "observable = delta_F\naxis1_name = J\naxis1_min = 0\naxis1_max = 1\n"
                        "axis1_count = 100000000000000000000\n" + _PHI_AXIS + "axis2_count = 2\n"),
    "sweep_numeric_and_unwritable": (["sweep", "--config", "call.cfg", "--out", "missing"],
                                     "Gamma = 1e308\nobservable = steady_concurrence\naxis1_name = J\n"
                                     "axis1_min = 1e308\naxis1_max = 1.7e308\naxis1_count = 3\n" + _PHI_AXIS
                                     + "axis2_count = 3\n"),
}
_TOKEN = re.compile(r"\.[0-9a-f]{16}\.tmp")
_TIMED = "ms"
_WRITE = f"""
import dataclasses, json, os, resource, sys, time
from dissipair import experiments
from dissipair.cli import main
from dissipair.dynamics import TimeGrid
out, configs, (stacked_figure, stacked_grid) = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
runs = [(fig, ["figure", fig]) for fig in sys.argv[4:]]
for name, (command, text) in configs.items():
    config = os.path.join(out, name + ".cfg")
    with open(config, "w", encoding="ascii") as fh:
        fh.write(text + "output_path = " + name + ".csv\\n")
    runs.append((name, [command, "--config", config]))
def stacked():
    grid = TimeGrid(*stacked_grid)
    runs = tuple(dataclasses.replace(run, grid=grid) for run in experiments.figure_trajectory_runs()[stacked_figure])
    header, blocks = experiments._trajectory_table(runs, experiments.OUTPUT_KINDS)
    experiments.write_csv(os.path.join(out, "stacked.csv"), header, blocks)
    return 0
status = 0
for name, argv in [*runs, ("stacked", None)]:
    faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    status = max(status, stacked() if argv is None else main([*argv, "--out", out]))
    ms, usage = 1e3 * (time.perf_counter() - start), resource.getrusage(resource.RUSAGE_SELF)
    print("{_TIMED}", name, ms, usage.ru_minflt - faults, usage.ru_maxrss)
sys.exit(status)
"""


def write_presets(src: str, out: str) -> dict[str, tuple[float, int, float]]:
    """Write every preset, sweep, the driven run and the stacked table into `out` with the package under `src`; each
    write's wall time in ms, its minor page faults and the process's peak RSS in MB after it."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    configs = {**{name: ("sweep", text) for name, text in SWEEPS.items()}, "evolve": ("evolve", EVOLVE)}
    done = subprocess.run([sys.executable, "-c", _WRITE, out, json.dumps(configs), json.dumps(STACKED), *FIGURES],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    lines = (line.split() for line in done.stdout.splitlines())
    return {fields[1]: (float(fields[2]), int(fields[3]), int(fields[4]) / 1024.0)
            for fields in lines if fields[:1] == [_TIMED]}


def run_calls(src: str, work: str) -> dict[str, tuple[str, str, int]]:
    """Stdout, stderr (its temporary-file tokens masked) and exit code of each of CALLS, run with the package under
    `src` in the directory `work`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    texts = {}
    for name, (argv, config) in CALLS.items():
        with open(os.path.join(work, "call.cfg"), "w", encoding="utf-8") as fh:
            fh.write(config)
        done = subprocess.run([sys.executable, "-m", "dissipair", *argv], env=env, cwd=work, capture_output=True,
                              text=True)
        texts[name] = done.stdout, _TOKEN.sub(".<token>.tmp", done.stderr), done.returncode
    return texts


def _read(path: str) -> tuple[str, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header, *rows = fh.read().splitlines()
    return header, np.array([row.split(",") for row in rows], dtype=str)


def compare(old_path: str, new_path: str, tol: float) -> tuple[str, bool]:
    """One line of report for a preset, and whether it passes."""
    (old_header, old), (new_header, new) = _read(old_path), _read(new_path)
    if old_header != new_header or old.shape != new.shape:
        return f"header or shape differs: {old.shape} -> {new.shape}", False
    negative_zeros = int(np.count_nonzero(new == "-0"))
    changed = old != new
    if not changed.any():
        line = "identical"
    else:
        deltas = np.where(changed, np.abs(old.astype(float) - new.astype(float)), -1.0)  # the cell shown is changed
        row, col = np.unravel_index(int(deltas.argmax()), deltas.shape)
        delta, names = float(deltas[row, col]), new_header.split(",")
        columns = [name for name, hit in zip(names, changed.any(axis=0)) if hit]
        line = (f"{int(changed.sum())} of {changed.size} cells changed, max |delta| {delta:.3g} at row {row} "
                f"{names[col]} {old[row, col]} -> {new[row, col]}, in {len(columns)} columns: {' '.join(columns)}")
        if delta > tol:
            return line + f"  ABOVE --tol {tol:g}", False
    if negative_zeros:
        return line + f"; {negative_zeros} cells print -0", False
    return line, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="directory holding the old dissipair package")
    parser.add_argument("new_src", help="directory holding the new dissipair package")
    parser.add_argument("--tol", type=float, default=0.0, help="largest |difference| a changed cell may show")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "dissipair", "__init__.py")):
            print(f"compare_presets: {src}: holds no dissipair/__init__.py; pass the src of a checkout",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        times = []
        for src, out in ((args.old_src, old_dir), (args.new_src, new_dir)):
            os.mkdir(out)
            try:
                times.append(write_presets(src, out))
            except subprocess.CalledProcessError as exc:
                print(f"compare_presets: {src}: writing the presets failed with exit code {exc.returncode}",
                      file=sys.stderr)
                return 2
        ok = True
        tables = [*((fig, f"fig{fig}.csv") for fig in FIGURES),
                  *((t, f"{t}.csv") for t in (*SWEEPS, "evolve", "stacked"))]
        for table, name in tables:
            line, passed = compare(os.path.join(old_dir, name), os.path.join(new_dir, name), args.tol)
            ok &= passed
            (old_ms, old_faults, old_mb), (new_ms, new_faults, new_mb) = times[0][table], times[1][table]
            print(f"{table}: {line}; write {old_ms:.1f} -> {new_ms:.1f} ms, {old_faults} -> {new_faults} faults, "
                  f"peak RSS {old_mb:.2f} -> {new_mb:.2f} MB")
        texts = []
        for src in (args.old_src, args.new_src):
            work = tempfile.mkdtemp(dir=tmp)
            os.mkdir(os.path.join(work, "out"))
            texts.append(run_calls(src, work))
        for name in CALLS:
            old, new = texts[0][name], texts[1][name]
            parts = zip(("stdout", "stderr", "exit code"), old, new)
            diffs = [f"{part} {a!r} -> {b!r}" for part, a, b in parts if a != b]
            ok &= not diffs
            print(f"call {name}: {'; '.join(diffs) or 'same text'}; exit {new[2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
