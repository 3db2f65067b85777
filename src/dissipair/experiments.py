"""Reproducible experiment runs: config files, named presets, sweeps, CSV.

Config format is flat ``key = value`` text.  ``#`` starts a comment, blank
lines are skipped, keys are case sensitive, and unknown keys are rejected
rather than ignored.  Keys for a trajectory run:

    J, Gamma, phi, kappa          model rates (J real here; library users
                                  can pass complex J directly)
    drive_target, drive_amplitude resonant drive on one qubit
    omega_d, omega0               drive detuning guard; omega_d, when
                                  given, must equal omega0
    initial                       EE, EG, GE, GG, E, PLUS, MINUS, G
    t_max, dt, sample_every       integration window, step, output stride
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
    Trajectory,
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

ISOLATION_PHASE = 1.5 * math.pi
PRESET_GAMMA = 2.0
PRESET_DRIVE_AMPLITUDE = 8.0 / 11.0
PRESET_DT = 0.002
TRANSIENT_T_MAX = 5.0
DRIVEN_T_MAX = 50.0
DRIVEN_SAMPLE_EVERY = 10

FIGURE_IDS = (
    "2a", "2b", "2c", "2d",
    "3a", "3b",
    "4a", "4b",
    "5b", "5c", "5d",
    "6a", "6b", "6c", "6d",
)


# ---- config parsing -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams
    initial: str = "EG"
    t_max: float = TRANSIENT_T_MAX
    dt: float = PRESET_DT
    sample_every: int = 1
    outputs: tuple[str, ...] = ("populations", "concurrence", "collective")
    output_path: str = "trajectory.csv"


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis1: AxisSpec
    axis2: AxisSpec
    observable: str


@dataclass(frozen=True)
class SweepConfig:
    spec: SweepSpec
    base: ModelParams
    output_path: str = "sweep.csv"


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

    def take(self, key: str) -> tuple[str, int] | None:
        if key in self.raw:
            self.seen.add(key)
            return self.raw[key]
        return None

    def take_float(self, key: str, default: float | None) -> float | None:
        got = self.take(key)
        if got is None:
            return default
        value, lineno = got
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} value {value!r} is not a number") from None

    def take_int(self, key: str, default: int | None) -> int | None:
        got = self.take(key)
        if got is None:
            return default
        value, lineno = got
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} value {value!r} is not an integer") from None

    def take_str(self, key: str, default: str | None) -> str | None:
        got = self.take(key)
        return default if got is None else got[0]

    def finish(self) -> None:
        for key, (_, lineno) in self.raw.items():
            if key not in self.seen:
                raise ValidationError(f"unknown key {key!r} (line {lineno})")


def _model_from_entries(e: _Entries) -> ModelParams:
    J = e.take_float("J", 1.0)
    Gamma = e.take_float("Gamma", 0.0)
    phi = e.take_float("phi", 0.0)
    kappa = e.take_float("kappa", 0.0)
    omega0 = e.take_float("omega0", 0.0)
    omega_d = e.take_float("omega_d", None)
    target = e.take_int("drive_target", None)
    amplitude = e.take_float("drive_amplitude", None)
    require_finite(omega0=omega0)
    if Gamma < 0.0:
        raise ValidationError(f"Gamma must be >= 0, got {Gamma}")
    if kappa < 0.0:
        raise ValidationError(f"kappa must be >= 0, got {kappa}")
    if omega_d is not None and omega_d != omega0:
        raise ValidationError(
            f"omega_d must equal omega0 (resonant drive only), got {omega_d} vs {omega0}"
        )
    drive = None
    if amplitude is not None:
        if amplitude < 0.0:
            raise ValidationError(f"drive_amplitude must be >= 0, got {amplitude}")
        if target is None:
            raise ValidationError("drive_amplitude given without drive_target")
    if target is not None:
        if target not in (1, 2):
            raise ValidationError(f"drive_target must be 1 or 2, got {target}")
        drive = Drive(target=target, amplitude=0.0 if amplitude is None else amplitude)
    return ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa, drive=drive)


def parse_config(text: str) -> ExperimentConfig:
    """Parse trajectory-run config text."""
    e = _Entries(text)
    model = _model_from_entries(e)
    initial = e.take_str("initial", "EG")
    t_max = e.take_float("t_max", TRANSIENT_T_MAX)
    dt = e.take_float("dt", PRESET_DT)
    sample_every = e.take_int("sample_every", 1)
    outputs_raw = e.take_str("outputs", None)
    output_path = e.take_str("output_path", "trajectory.csv")
    e.finish()
    if initial not in INITIAL_STATE_NAMES:
        raise ValidationError(f"initial must be one of {INITIAL_STATE_NAMES}, got {initial!r}")
    if t_max <= 0.0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    if dt <= 0.0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    if dt > t_max:
        raise ValidationError(f"dt {dt} exceeds t_max {t_max}")
    if sample_every < 1:
        raise ValidationError(f"sample_every must be >= 1, got {sample_every}")
    if outputs_raw is None:
        outputs = ("populations", "concurrence", "collective")
    else:
        asked = [tok.strip() for tok in outputs_raw.split(",")]
        for tok in asked:
            if tok not in OUTPUT_KINDS:
                raise ValidationError(f"outputs entry {tok!r} not in {OUTPUT_KINDS}")
        outputs = tuple(kind for kind in OUTPUT_KINDS if kind in asked)
    if not output_path:
        raise ValidationError("output_path must not be empty")
    return ExperimentConfig(
        model=model,
        initial=initial,
        t_max=t_max,
        dt=dt,
        sample_every=sample_every,
        outputs=outputs,
        output_path=output_path,
    )


def _axis_from_entries(e: _Entries, which: str) -> AxisSpec:
    name = e.take_str(f"{which}_name", None)
    lo = e.take_float(f"{which}_min", None)
    hi = e.take_float(f"{which}_max", None)
    count = e.take_int(f"{which}_count", None)
    if name is None or lo is None or hi is None or count is None:
        raise ValidationError(f"{which} needs {which}_name, {which}_min, {which}_max, {which}_count")
    require_finite(**{f"{which}_min": lo, f"{which}_max": hi})
    if name not in SWEEP_AXES:
        raise ValidationError(f"{which}_name must be one of {SWEEP_AXES}, got {name!r}")
    if count < 2:
        raise ValidationError(f"{which}_count must be >= 2, got {count}")
    if not lo < hi:
        raise ValidationError(f"{which}_min must be below {which}_max, got {lo} >= {hi}")
    if name in ("Gamma", "kappa", "drive_amplitude") and lo < 0.0:
        raise ValidationError(f"{which}_min for {name} must be >= 0, got {lo}")
    return AxisSpec(name=name, lo=lo, hi=hi, count=count)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse sweep config text: two axes, an observable, base model values."""
    e = _Entries(text)
    base = _model_from_entries(e)
    observable = e.take_str("observable", None)
    axis1 = _axis_from_entries(e, "axis1")
    axis2 = _axis_from_entries(e, "axis2")
    output_path = e.take_str("output_path", "sweep.csv")
    e.finish()
    if observable is None or observable not in SWEEP_OBSERVABLES:
        raise ValidationError(f"observable must be one of {SWEEP_OBSERVABLES}, got {observable!r}")
    if axis1.name == axis2.name:
        raise ValidationError(f"axis1_name and axis2_name must differ, both are {axis1.name!r}")
    if not output_path:
        raise ValidationError("output_path must not be empty")
    return SweepConfig(spec=SweepSpec(axis1=axis1, axis2=axis2, observable=observable), base=base, output_path=output_path)


# ---- CSV writing -----------------------------------------------------------


def write_csv(path, header, rows) -> str:
    """Write a numeric table deterministically and atomically.

    The header line is always present; every cell goes through ``%.15g``;
    line endings are ``\\n`` regardless of platform.  A temporary file
    beside `path` replaces it only once complete.
    """
    table = np.asarray(rows, dtype=float)
    bad = table[~np.isfinite(table)]
    if bad.size:
        raise IoError(f"refusing to serialize non-finite value {float(bad[0])!r}")
    template = ",".join(["%.15g"] * table.shape[-1]) + "\n"
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii", newline="") as fh:
            fh.write(",".join(str(name) for name in header) + "\n")
            # `tolist` hands `%` Python floats: same bytes as numpy scalars, formatted faster.
            for start in range(0, len(table), _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS]
                fh.write((template * len(block)) % tuple(block.ravel().tolist()))
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return str(path)


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


def trajectory_table(traj: Trajectory, outputs=("populations",)) -> tuple[list[str], np.ndarray]:
    """Assemble the output table for one trajectory.

    Column order is fixed: t, P1, P2, C, P_E, P_plus, P_minus, P_G, then
    the raw state entries, with only the requested groups present.
    """
    header = ["t"]
    columns = [np.asarray(traj.times, dtype=float)]
    for kind in OUTPUT_KINDS:
        if kind in outputs:
            group = _output_columns(traj.states, kind)
            header += list(group)
            columns += list(group.values())
    return header, np.column_stack(columns)


def run_experiment(config: ExperimentConfig, out_dir: str = ".") -> str:
    """Integrate one configured trajectory and write its CSV."""
    grid = TimeGrid(config.t_max, config.dt, config.sample_every)
    gen = liouvillian_from_params(config.model)
    traj = evolve_rk4(initial_state(config.initial), gen, grid)
    header, rows = trajectory_table(traj, config.outputs)
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
    spec = config.spec
    for axis in (spec.axis1, spec.axis2):
        if axis.name not in SWEEP_AXES:
            raise ValidationError(f"unsupported sweep axis {axis.name!r}")
    base = config.base
    drive = base.drive or Drive(target=1, amplitude=0.0)
    a, b = np.meshgrid(spec.axis1.values(), spec.axis2.values(), indexing="ij")
    fields = {"J": base.J, "Gamma": base.Gamma, "phi": base.phi, "kappa": base.kappa,
              "drive_amplitude": drive.amplitude, spec.axis1.name: a, spec.axis2.name: b}
    if spec.observable == "delta_F":
        header = ["axis1", "axis2", "value"]
        value = damping_forces(fields["J"], fields["Gamma"], fields["phi"]).delta_F
        cells = np.broadcast_to(value, a.shape).reshape(-1, 1)
    else:
        header = ["axis1", "axis2", "value", "degenerate"]
        # One axis1 row per call: a stack of the whole grid would hold every
        # 16x16 Liouvillian and its SVD factors at once.
        cells = np.empty(a.shape + (2,))
        rows = zip(*np.broadcast_arrays(*(fields[name] for name in SWEEP_AXES)))
        for row, (j, g, p, k, w) in enumerate(rows):
            result = steady_state(liouvillian_from_params(ModelParams(j, g, p, k, Drive(drive.target, w))))
            cells[row, :, 0] = DEGENERATE_SENTINEL
            cells[row, result.unique, 0] = concurrence(result.state[result.unique])
            cells[row, :, 1] = ~result.unique
        cells = cells.reshape(-1, 2)
    table = np.column_stack([a.ravel(), b.ravel(), cells])
    return write_csv(_join_out(out_dir, config.output_path), header, table)


# ---- figure presets --------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRun:
    """One integration behind a figure preset."""

    label: str
    params: ModelParams
    initial: str
    grid: TimeGrid


def _preset_params(phi: float, drive_target: int | None = None) -> ModelParams:
    drive = None
    if drive_target is not None:
        drive = Drive(target=drive_target, amplitude=PRESET_DRIVE_AMPLITUDE)
    return ModelParams(J=1.0, Gamma=PRESET_GAMMA, phi=phi, kappa=0.0, drive=drive)


SWEEP_2A = SweepConfig(
    spec=SweepSpec(
        axis1=AxisSpec("Gamma", 0.0, 4.0, 201),
        axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, 201),
        observable="delta_F",
    ),
    base=ModelParams(J=1.0),
    output_path="fig2a.csv",
)


def figure_trajectory_runs() -> dict[str, tuple[TrajectoryRun, ...]]:
    """Every integration behind the trajectory presets, keyed by figure id."""
    iso = _preset_params(ISOLATION_PHASE)
    aligned = _preset_params(0.0)
    opposed = _preset_params(math.pi)
    drive1 = _preset_params(ISOLATION_PHASE, drive_target=1)
    drive2 = _preset_params(ISOLATION_PHASE, drive_target=2)
    short = TimeGrid(TRANSIENT_T_MAX, PRESET_DT, 1)
    long = TimeGrid(DRIVEN_T_MAX, PRESET_DT, DRIVEN_SAMPLE_EVERY)
    collective_initials = (("E", "E"), ("plus", "PLUS"), ("minus", "MINUS"), ("G", "G"))

    runs: dict[str, tuple[TrajectoryRun, ...]] = {
        "2b": (
            TrajectoryRun("1e", opposed, "EG", short),
            TrajectoryRun("2e", opposed, "GE", short),
        ),
        "2c": (TrajectoryRun("1e", iso, "EG", short),),
        "2d": (TrajectoryRun("2e", iso, "GE", short),),
        "3a": (
            TrajectoryRun("1e", iso, "EG", short),
            TrajectoryRun("2e", iso, "GE", short),
        ),
        "3b": (
            TrajectoryRun("1e", aligned, "EG", short),
            TrajectoryRun("2e", aligned, "GE", short),
        ),
        "4a": (
            TrajectoryRun("1e", drive1, "EG", long),
            TrajectoryRun("2e", drive2, "GE", long),
        ),
        "4b": (
            TrajectoryRun("1e", drive2, "EG", long),
            TrajectoryRun("2e", drive1, "GE", long),
        ),
        "6a": (TrajectoryRun("E", drive1, "E", long),),
        "6b": (TrajectoryRun("G", drive1, "G", long),),
    }
    for fig, params in (("5b", iso), ("5c", aligned), ("5d", opposed)):
        runs[fig] = tuple(TrajectoryRun(label, params, name, short) for label, name in collective_initials)
    for fig, params in (("6c", drive1), ("6d", drive2)):
        runs[fig] = tuple(TrajectoryRun(label, params, name, long) for label, name in collective_initials)
    return runs


def _run(run: TrajectoryRun) -> Trajectory:
    return evolve_rk4(initial_state(run.initial), liouvillian_from_params(run.params), run.grid)


def _figure_table(runs, kind: str) -> tuple[list[str], np.ndarray]:
    """Time column, then one output group per run; several runs suffix each name with the run label."""
    joiner = "_from_" if kind == "collective" else "_"
    header = ["t"]
    columns = []
    for run in runs:
        traj = _run(run)
        for name, column in _output_columns(traj.states, kind).items():
            header.append(f"{name}{joiner}{run.label}" if len(runs) > 1 else name)
            columns.append(column)
    return header, np.column_stack([traj.times] + columns)


def run_figure(figure_id: str, out_dir: str = ".") -> str:
    """Produce the named preset dataset and return the written path."""
    fig = str(figure_id).strip().lower()
    if fig not in FIGURE_IDS:
        raise UnknownPresetError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    if fig == "2a":
        return run_sweep(SWEEP_2A, out_dir)
    if fig in ("2b", "2c", "2d"):
        kind = "populations"
    elif fig in ("5b", "5c", "5d", "6a", "6b"):
        kind = "collective"
    else:  # 3a, 3b, 4a, 4b, 6c, 6d
        kind = "concurrence"
    header, table = _figure_table(figure_trajectory_runs()[fig], kind)
    return write_csv(_join_out(out_dir, f"fig{fig}.csv"), header, table)
