"""Reproducible experiment runs: config files, named presets, sweeps, CSV.

Config format is flat ``key = value`` text.  ``#`` starts a comment, blank
lines are skipped, keys are case sensitive, and unknown keys are rejected
rather than ignored.  Keys for a trajectory run:

    J, Gamma, phi, kappa          model rates (J real here; library users
                                  can pass complex J directly)
    drive_target, drive_amplitude resonant drive on one qubit
    initial                       EE, EG, GE, GG, E, PLUS, MINUS, G
    t_max, dt, sample_every       integration window (a whole number of
                                  steps), step, output stride
    outputs                       comma list of populations, concurrence,
                                  collective, states
    output_path                   CSV file name

Sweep configs replace the trajectory keys with ``observable`` (delta_F or
steady_concurrence) and two axes given as ``axisN_name``, ``axisN_min``,
``axisN_max``, ``axisN_count``.

CSV cells are written with ``%.15g`` so identical inputs give identical
bytes; tables containing non-finite values are refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    INITIAL_STATE_NAMES,
    TimeGrid,
    evolve_rk4,
    initial_state,
    liouvillian_from_params,
    steady_state,
)
from .errors import IoError, ParseError, UnknownPresetError, ValidationError
from .model import Drive, ModelParams, require_finite
from .observables import collective_populations, concurrence, damping_forces, populations

OUTPUT_KINDS = ("populations", "concurrence", "collective", "states")
SWEEP_OBSERVABLES = ("delta_F", "steady_concurrence")
SWEEP_AXES = ("J", "Gamma", "phi", "kappa", "drive_amplitude")
DEGENERATE_SENTINEL = -1.0
_CSV_BLOCK_ROWS = 512  # rows per `%` call in write_csv; bounds its temporary tuple of cells
# Cells per steady_state call in a steady_concurrence sweep: about 4 MB of generators per block.
_SWEEP_BLOCK_CELLS = 1024

ISOLATION_PHASE = 1.5 * math.pi
PRESET_GAMMA = 2.0
PRESET_DRIVE_AMPLITUDE = 8.0 / 11.0
PRESET_DT = 0.002
TRANSIENT_T_MAX = 5.0
DRIVEN_T_MAX = 50.0
DRIVEN_SAMPLE_EVERY = 10

# ---- configs: each dataclass owns its value rules, the parsers read text ---


@dataclass(frozen=True)
class ExperimentConfig:
    """One trajectory run.  `outputs` is kept in table order (that of OUTPUT_KINDS), each kind once."""

    model: ModelParams
    initial: str = "EG"
    grid: TimeGrid = TimeGrid(TRANSIENT_T_MAX, PRESET_DT)
    outputs: tuple[str, ...] = ("populations", "concurrence", "collective")
    output_path: str = "trajectory.csv"

    def __post_init__(self):
        if self.initial not in INITIAL_STATE_NAMES:
            raise ValidationError(f"initial must be one of {INITIAL_STATE_NAMES}, got {self.initial!r}")
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ValidationError(f"outputs entry {kind!r} not in {OUTPUT_KINDS}")
        if not self.outputs:
            raise ValidationError(f"outputs must name at least one of {OUTPUT_KINDS}")
        if not self.output_path:
            raise ValidationError("output_path must not be empty")
        object.__setattr__(self, "outputs", tuple(kind for kind in OUTPUT_KINDS if kind in self.outputs))


@dataclass(frozen=True)
class AxisSpec:
    """`count` evenly spaced values from `lo` up to `hi`, both finite, of one model field named in SWEEP_AXES."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEP_AXES:
            raise ValidationError(f"unsupported sweep axis {self.name!r}, expected one of {SWEEP_AXES}")
        require_finite(**{f"{self.name} axis min": self.lo, f"{self.name} axis max": self.hi})
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise ValidationError(f"{self.name} axis count must be an integer >= 2, got {self.count!r}")
        if not self.lo < self.hi:
            raise ValidationError(f"{self.name} axis min must be below its max, got {self.lo} >= {self.hi}")
        with np.errstate(over="ignore", invalid="ignore"):  # finite bounds can still overflow their spacing
            values = self.values()
        require_finite(**{f"{self.name} axis values": values})

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """An observable over the grid of two distinct axes, every other model field taken from `base`."""

    axis1: AxisSpec
    axis2: AxisSpec
    observable: str
    base: ModelParams
    output_path: str = "sweep.csv"

    def __post_init__(self):
        if self.observable not in SWEEP_OBSERVABLES:
            raise ValidationError(f"observable must be one of {SWEEP_OBSERVABLES}, got {self.observable!r}")
        if self.axis1.name == self.axis2.name:
            raise ValidationError(f"axis1 and axis2 must name different fields, both are {self.axis1.name!r}")
        if not self.output_path:
            raise ValidationError("output_path must not be empty")
        self._params_at(self.axis1.lo, self.axis2.lo)  # the model's sign rules, at the corner each axis rises from

    def _params_at(self, a, b) -> ModelParams:
        """The model with axis1's field set to `a` and axis2's to `b` (scalars, or arrays that broadcast)."""
        drive = self.base.drive or Drive(target=1, amplitude=0.0)
        fields = {"J": self.base.J, "Gamma": self.base.Gamma, "phi": self.base.phi, "kappa": self.base.kappa,
                  "drive_amplitude": drive.amplitude, self.axis1.name: a, self.axis2.name: b}
        return ModelParams(fields["J"], fields["Gamma"], fields["phi"], fields["kappa"],
                           Drive(drive.target, fields["drive_amplitude"]))


@dataclass(frozen=True)
class TrajectoryRun:
    """One integration behind a trajectory table."""

    label: str
    params: ModelParams
    initial: str
    grid: TimeGrid


def _split_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"line {lineno}: missing key")
        if not value:
            raise ParseError(f"line {lineno}: missing value for {key!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    if not entries:
        raise ParseError("line 1: config is empty")
    return entries


class _Entries:
    def __init__(self, text: str):
        self.raw = _split_entries(text)
        self.seen: set[str] = set()

    def take(self, key: str, default=None, convert=str):
        """The value of `key` read by `convert`, or `default` when the text does not set it."""
        if key not in self.raw:
            return default
        self.seen.add(key)
        value, lineno = self.raw[key]
        try:
            return convert(value)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} value {value!r} is not a valid {convert.__name__}") from None

    def finish(self) -> None:
        for key, (_, lineno) in self.raw.items():
            if key not in self.seen:
                raise ValidationError(f"unknown key {key!r} (line {lineno})")


def _model_from_entries(e: _Entries) -> ModelParams:
    J = e.take("J", 1.0, float)
    Gamma = e.take("Gamma", 0.0, float)
    phi = e.take("phi", 0.0, float)
    kappa = e.take("kappa", 0.0, float)
    target = e.take("drive_target", None, int)
    amplitude = e.take("drive_amplitude", None, float)
    if amplitude is not None and target is None:
        raise ValidationError("drive_amplitude given without drive_target")
    drive = None
    if target is not None:
        drive = Drive(target=target, amplitude=0.0 if amplitude is None else amplitude)
    return ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa, drive=drive)


def parse_config(text: str) -> ExperimentConfig:
    """Parse trajectory-run config text."""
    e = _Entries(text)
    model = _model_from_entries(e)
    initial = e.take("initial", "EG")
    grid = TimeGrid(e.take("t_max", TRANSIENT_T_MAX, float), e.take("dt", PRESET_DT, float),
                    e.take("sample_every", 1, int))
    outputs = e.take("outputs", "populations, concurrence, collective")
    output_path = e.take("output_path", "trajectory.csv")
    e.finish()
    return ExperimentConfig(model=model, initial=initial, grid=grid,
                            outputs=tuple(tok.strip() for tok in outputs.split(",")), output_path=output_path)


def _axis_from_entries(e: _Entries, which: str) -> AxisSpec:
    fields = [e.take(f"{which}_{key}", None, convert)
              for key, convert in (("name", str), ("min", float), ("max", float), ("count", int))]
    if None in fields:
        raise ValidationError(f"{which} needs {which}_name, {which}_min, {which}_max, {which}_count")
    return AxisSpec(*fields)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse sweep config text: two axes, an observable, base model values."""
    e = _Entries(text)
    base = _model_from_entries(e)
    observable = e.take("observable")
    axis1 = _axis_from_entries(e, "axis1")
    axis2 = _axis_from_entries(e, "axis2")
    output_path = e.take("output_path", "sweep.csv")
    e.finish()
    return SweepConfig(axis1, axis2, observable, base, output_path)


# ---- CSV writing -----------------------------------------------------------


def _write_text(path, header, cells: np.ndarray, chunks) -> str:
    """Write the header and the text `chunks` of a table atomically, unless one of its `cells` is non-finite.

    The first non-finite value in `cells`, the table's numbers (a sweep's finite axes left out) in row order, is named.
    """
    bad = cells[~np.isfinite(cells)]
    if bad.size:
        raise IoError(f"refusing to serialize non-finite value {float(bad[0])!r}")
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii", newline="") as fh:
            fh.write(",".join(str(name) for name in header) + "\n")
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return str(path)


def write_csv(path, header, rows) -> str:
    """Write a numeric table deterministically and atomically.

    The header line is always present; every cell goes through ``%.15g``;
    line endings are ``\\n`` regardless of platform.  A temporary file
    beside `path` replaces it only once complete.
    """
    table = np.asarray(rows, dtype=float)
    template = ",".join(["%.15g"] * table.shape[-1]) + "\n"
    # `tolist` hands `%` Python floats: same bytes as numpy scalars, formatted faster.
    chunks = ((template * len(block)) % tuple(block.ravel().tolist())
              for block in np.split(table, range(_CSV_BLOCK_ROWS, len(table), _CSV_BLOCK_ROWS)))
    return _write_text(path, header, table, chunks)


# ---- trajectory tables -----------------------------------------------------


def _output_columns(states: np.ndarray, kind: str) -> dict[str, np.ndarray]:
    """One output group of a trajectory table, column name to column, in table order."""
    if kind == "populations":
        return dict(zip(("P1", "P2"), populations(states)))
    if kind == "concurrence":
        return {"C": concurrence(states)}
    if kind == "collective":
        return vars(collective_populations(states))
    return {f"rho_{part}_{i}{j}": values[:, i, j]
            for i in range(4) for j in range(4) for part, values in (("re", states.real), ("im", states.imag))}


def _trajectory_table(runs, outputs) -> tuple[list[str], np.ndarray]:
    """Integrate each run: t, then its output groups in the given order, names suffixed by label if several runs."""
    header = ["t"]
    columns = []
    for run in runs:
        traj = evolve_rk4(initial_state(run.initial), liouvillian_from_params(run.params), run.grid)
        for kind in outputs:
            joiner = "_from_" if kind == "collective" else "_"
            for name, column in _output_columns(traj.states, kind).items():
                header.append(f"{name}{joiner}{run.label}" if len(runs) > 1 else name)
                columns.append(column)
    return header, np.column_stack([traj.times] + columns)


def run_experiment(config: ExperimentConfig, out_dir: str = ".") -> str:
    """Integrate one configured trajectory and write its CSV: t, then the output groups in OUTPUT_KINDS order."""
    run = TrajectoryRun("", config.model, config.initial, config.grid)
    header, rows = _trajectory_table((run,), config.outputs)
    return write_csv(_join_out(out_dir, config.output_path), header, rows)


def _join_out(out_dir: str, name: str) -> str:
    return name if os.path.isabs(name) else os.path.join(out_dir, name)


# ---- sweeps ----------------------------------------------------------------


def run_sweep(config: SweepConfig, out_dir: str = ".") -> str:
    """Evaluate the observable on the grid and write axis1,axis2,value rows.

    steady_concurrence tables carry an extra ``degenerate`` flag column;
    grid points whose stationary manifold is degenerate hold the sentinel
    value -1 there instead of a concurrence.
    """
    a, b = np.meshgrid(config.axis1.values(), config.axis2.values(), indexing="ij")
    params = config._params_at(a, b)
    if config.observable == "delta_F":
        header = ["axis1", "axis2", "value"]
        value = damping_forces(params.J, params.Gamma, params.phi).delta_F
        cells = np.broadcast_to(value, a.shape).reshape(-1, 1)
    else:
        header = ["axis1", "axis2", "value", "degenerate"]
        # Fixed blocks of the flattened grid: a stack of the whole grid would
        # hold every 16x16 Liouvillian and its SVD factors at once.
        j, g, p, k, w = (np.ravel(x) for x in np.broadcast_arrays(params.J, params.Gamma, params.phi, params.kappa,
                                                                  params.drive.amplitude))
        cells = np.full((a.size, 2), DEGENERATE_SENTINEL)
        for start in range(0, a.size, _SWEEP_BLOCK_CELLS):
            s = slice(start, start + _SWEEP_BLOCK_CELLS)
            block_params = ModelParams(j[s], g[s], p[s], k[s], Drive(params.drive.target, w[s]))
            result = steady_state(liouvillian_from_params(block_params))
            block = cells[s]
            block[result.unique, 0] = concurrence(result.state[result.unique])
            block[:, 1] = ~result.unique
    # Each axis value is formatted once.  A block of at most _CSV_BLOCK_ROWS rows shares one axis1
    # string, which one join puts before each axis2 string to make its template; `%` fills the cells.
    firsts, seconds = (["%.15g," % x for x in axis.tolist()] for axis in (a[:, 0], b[0]))
    rests = [second + ",".join(["%.15g"] * cells.shape[-1]) + "\n" for second in seconds]
    starts = range(0, len(rests), _CSV_BLOCK_ROWS)
    chunks = ((first + first.join(rests[s:s + _CSV_BLOCK_ROWS])) % tuple(rows[s:s + _CSV_BLOCK_ROWS].ravel().tolist())
              for first, rows in zip(firsts, cells.reshape(a.shape + (-1,))) for s in starts)
    return _write_text(_join_out(out_dir, config.output_path), header, cells, chunks)


# ---- figure presets --------------------------------------------------------


def _preset_params(phi: float, drive_target: int | None = None) -> ModelParams:
    drive = None
    if drive_target is not None:
        drive = Drive(target=drive_target, amplitude=PRESET_DRIVE_AMPLITUDE)
    return ModelParams(J=1.0, Gamma=PRESET_GAMMA, phi=phi, kappa=0.0, drive=drive)


SWEEP_2A = SweepConfig(
    axis1=AxisSpec("Gamma", 0.0, 4.0, 201),
    axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, 201),
    observable="delta_F",
    base=ModelParams(J=1.0),
    output_path="fig2a.csv",
)


def _figure_presets() -> dict[str, tuple[str, SweepConfig | tuple[TrajectoryRun, ...]]]:
    """Every figure preset, id -> (kind, runs): "sweep" and its config, or an output group and its integrations.

    Built on call, so importing the package builds none of it.
    """
    iso = _preset_params(ISOLATION_PHASE)
    aligned = _preset_params(0.0)
    opposed = _preset_params(math.pi)
    drive1 = _preset_params(ISOLATION_PHASE, drive_target=1)
    drive2 = _preset_params(ISOLATION_PHASE, drive_target=2)
    short = TimeGrid(TRANSIENT_T_MAX, PRESET_DT, 1)
    long = TimeGrid(DRIVEN_T_MAX, PRESET_DT, DRIVEN_SAMPLE_EVERY)

    def from_each_qubit(first, second, grid):
        return TrajectoryRun("1e", first, "EG", grid), TrajectoryRun("2e", second, "GE", grid)

    def from_each_collective_state(params, grid):
        starts = (("E", "E"), ("plus", "PLUS"), ("minus", "MINUS"), ("G", "G"))
        return tuple(TrajectoryRun(label, params, name, grid) for label, name in starts)

    return {
        "2a": ("sweep", SWEEP_2A),
        "2b": ("populations", from_each_qubit(opposed, opposed, short)),
        "2c": ("populations", (TrajectoryRun("1e", iso, "EG", short),)),
        "2d": ("populations", (TrajectoryRun("2e", iso, "GE", short),)),
        "3a": ("concurrence", from_each_qubit(iso, iso, short)),
        "3b": ("concurrence", from_each_qubit(aligned, aligned, short)),
        "4a": ("concurrence", from_each_qubit(drive1, drive2, long)),
        "4b": ("concurrence", from_each_qubit(drive2, drive1, long)),
        "5b": ("collective", from_each_collective_state(iso, short)),
        "5c": ("collective", from_each_collective_state(aligned, short)),
        "5d": ("collective", from_each_collective_state(opposed, short)),
        "6a": ("collective", (TrajectoryRun("E", drive1, "E", long),)),
        "6b": ("collective", (TrajectoryRun("G", drive1, "G", long),)),
        "6c": ("concurrence", from_each_collective_state(drive1, long)),
        "6d": ("concurrence", from_each_collective_state(drive2, long)),
    }


def figure_trajectory_runs() -> dict[str, tuple[TrajectoryRun, ...]]:
    """Every integration behind the trajectory presets, keyed by figure id."""
    return {fig: runs for fig, (kind, runs) in _figure_presets().items() if kind != "sweep"}


def run_figure(figure_id: str, out_dir: str = ".") -> str:
    """Produce the named preset dataset and return the written path."""
    fig = str(figure_id).strip().lower()
    presets = _figure_presets()
    if fig not in presets:
        raise UnknownPresetError(f"unknown figure id {figure_id!r}, expected one of {tuple(presets)}")
    kind, runs = presets[fig]
    if kind == "sweep":
        return run_sweep(runs, out_dir)
    header, table = _trajectory_table(runs, (kind,))
    return write_csv(_join_out(out_dir, f"fig{fig}.csv"), header, table)
