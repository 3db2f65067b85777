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
``axisN_max``, ``axisN_count``.  The dataclasses own every default: a parser
passes on only the keys a config sets, and the default grid takes those given.

CSV cells read as ``%.15g`` writes them, through `_csvtext` (a sweep formats
each block's axis values); tables containing non-finite values are refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    MAX_SAMPLES,
    TimeGrid,
    _check_samples,
    _rk4_blocks,
    _states,
    _steady_coordinates,
    initial_state,
    liouvillian_from_params,
)
from .errors import IoError, ValidationError
from .model import Drive, ModelParams, require_finite
from .observables import (CollectivePopulations, _collective_populations, _concurrence, _qubit_populations,
                          damping_forces)

SWEEP_AXES = ("J", "Gamma", "phi", "kappa", "drive_amplitude")
# Each trajectory output group: its column names, the joiner before a run's label, and the reader of its columns
# from a run's (N, 16) coordinates and their check.  Only states builds every sample's 4x4 matrix: viewed as floats,
# its rows are Re rho_00, Im rho_00, Re rho_01, ...
_OUTPUTS = {
    "populations": (("P1", "P2"), "_", lambda coords, _: _qubit_populations(coords)),
    "concurrence": (("C",), "_", lambda coords, checked: (_concurrence(coords, checked),)),
    "collective": (tuple(CollectivePopulations.__annotations__), "_from_",
                   lambda coords, _: vars(_collective_populations(coords)).values()),
    "states": (tuple(f"rho_{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")), "_",
               lambda coords, _: _states(coords).view(float).reshape(len(coords), -1).T),
}
OUTPUT_KINDS = tuple(_OUTPUTS)
DEGENERATE_SENTINEL = -1.0
# Cells per `csv_text` call and delta_F sweep block, 0.75 MB of temporaries: 8 192 or 16 384 save at most 3% a cell.
_CSV_PIECE_CELLS = 4096
# Cells per steady_concurrence sweep block, whole axis1 rows or pieces of one: about 4 MB of its generators.
_SWEEP_BLOCK_CELLS = 1024
# axis2 values whose records a sweep keeps for every piece of a row, 2.5 MB: a longer row formats each piece per block.
_SWEEP_KEPT_VALUES = 1 << 16

ISOLATION_PHASE = 1.5 * math.pi
PRESET_GAMMA = 2.0
PRESET_DRIVE_AMPLITUDE = 8.0 / 11.0
PRESET_DT = 0.002
TRANSIENT_T_MAX = 5.0
DRIVEN_T_MAX = 50.0
DRIVEN_SAMPLE_EVERY = 10

# ---- configs: each dataclass owns its value rules, the parsers read text ---


@dataclass(frozen=True)
class TrajectoryRun:
    """One integration behind a trajectory table; `label` suffixes its column names in a table of several runs."""

    label: str
    params: ModelParams
    initial: str = "EG"
    grid: TimeGrid = TimeGrid(TRANSIENT_T_MAX, PRESET_DT)

    def __post_init__(self):
        initial_state(self.initial)  # the names' one owner refuses an unknown one


@dataclass(frozen=True)
class ExperimentConfig:
    """A trajectory table: its runs, on one grid and each with its own label, and its output groups in table order (of
    OUTPUT_KINDS), each once."""

    runs: tuple[TrajectoryRun, ...]
    outputs: tuple[str, ...] = ("populations", "concurrence", "collective")
    output_path: str = "trajectory.csv"

    def __post_init__(self):
        if len(set(grids := [run.grid for run in self.runs])) != 1:
            raise ValidationError(f"a trajectory table needs one or more runs, all on one grid, got grids {grids}")
        if len(set(labels := [run.label for run in self.runs])) != len(labels):  # its columns would repeat names
            raise ValidationError(f"the runs of a trajectory table need distinct labels, got {labels}")
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
        if not isinstance(self.count, (int, np.integer)) or not 2 <= self.count <= MAX_SAMPLES:
            raise ValidationError(f"{self.name} axis count must be an integer from 2 to {MAX_SAMPLES}, "
                                  f"got {self.count!r}")
        if not self.lo < self.hi:
            raise ValidationError(f"{self.name} axis min must be below its max, got {self.lo} >= {self.hi}")
        with np.errstate(over="ignore"):  # finite bounds give finite values exactly when their span is finite
            require_finite(**{f"{self.name} axis max - min": np.subtract(self.hi, self.lo, dtype=float)})

    def values(self, first: int = 0, stop: int | None = None) -> np.ndarray:
        """``np.linspace(lo, hi, count)[first:stop]`` bit for bit, built without the other values."""
        first, stop, _ = slice(first, stop).indices(self.count)
        k, span = np.arange(first, stop, dtype=float), np.subtract(self.hi, self.lo, dtype=float)
        step = span / (self.count - 1)
        with np.errstate(over="ignore"):  # only the last value can overflow, and `hi` replaces it
            values = (k * step if step else k / (self.count - 1) * span) + self.lo  # linspace's, a step of 0 too
        if first < stop == self.count:
            values[-1] = self.hi
        return values


@dataclass(frozen=True)
class SweepConfig:
    """An observable over the grid of two distinct axes, every other model field taken from `base`; a drive_amplitude
    axis drives `base`'s drive target, and a `base` with no drive refuses it."""

    axis1: AxisSpec
    axis2: AxisSpec
    observable: str
    base: ModelParams
    output_path: str = "sweep.csv"

    def __post_init__(self):
        for which, axis in (("axis1", self.axis1), ("axis2", self.axis2)):
            if axis.name == "drive_amplitude" and self.base.drive is None:  # as for the key: no qubit is driven unasked
                raise ValidationError(f"{which}_name = drive_amplitude given without drive_target")
        if self.observable not in SWEEP_OBSERVABLES:
            raise ValidationError(f"observable must be one of {tuple(SWEEP_OBSERVABLES)}, got {self.observable!r}")
        if self.axis1.name == self.axis2.name:
            raise ValidationError(f"axis1 and axis2 must name different fields, both are {self.axis1.name!r}")
        if not self.output_path:
            raise ValidationError("output_path must not be empty")
        self._params_at(self.axis1.lo, self.axis2.lo)  # the model's sign rules, at the corner each axis rises from

    def _params_at(self, a, b) -> ModelParams:
        """`base` with axis1's field set to `a` and axis2's to `b` (scalars, or arrays that broadcast)."""
        swept, drive = {self.axis1.name: a, self.axis2.name: b}, self.base.drive
        drive = None if drive is None else Drive(drive.target, swept.pop("drive_amplitude", drive.amplitude))
        return replace(self.base, **swept, drive=drive)


def _split_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"line {lineno}: missing key")
        if not value:
            raise ValidationError(f"line {lineno}: missing value for {key!r}")
        if key in entries:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    if not entries:
        raise ValidationError("line 1: config is empty")
    return entries


class _Entries:
    def __init__(self, text: str):
        self.raw = _split_entries(text)
        self.seen: set[str] = set()

    def take(self, key: str, convert=str):
        """The value of `key` read by `convert`, or None when the text does not set it."""
        if key not in self.raw:
            return None
        self.seen.add(key)
        value, lineno = self.raw[key]
        try:
            return convert(value)
        except ValueError:
            raise ValidationError(f"line {lineno}: {key} value {value!r} is not a valid {convert.__name__}") from None

    def given(self, **converters) -> dict:
        """Each key of `converters` the text sets, read by its converter in turn; a field's default stays its own."""
        return {key: self.take(key, convert) for key, convert in converters.items() if key in self.raw}

    def finish(self) -> None:
        for key, (_, lineno) in self.raw.items():
            if key not in self.seen:
                raise ValidationError(f"unknown key {key!r} (line {lineno})")


def _model_from_entries(e: _Entries) -> ModelParams:
    rates = e.given(J=float, Gamma=float, phi=float, kappa=float)
    target = e.take("drive_target", int)
    amplitude = e.take("drive_amplitude", float)
    if amplitude is not None and target is None:
        raise ValidationError("drive_amplitude given without drive_target")
    drive = None
    if target is not None:
        drive = Drive(target=target, amplitude=0.0 if amplitude is None else amplitude)
    return ModelParams(**rates, drive=drive)


def parse_config(text: str) -> ExperimentConfig:
    """Parse trajectory-run config text: a table of one unlabelled run."""
    e = _Entries(text)
    model = _model_from_entries(e)
    grid = replace(TrajectoryRun.grid, **e.given(t_max=float, dt=float, sample_every=int))
    initial = e.given(initial=str)
    fields = e.given(outputs=lambda text: tuple(map(str.strip, text.split(","))), output_path=str)
    e.finish()
    return ExperimentConfig((TrajectoryRun("", model, grid=grid, **initial),), **fields)


def _axis_from_entries(e: _Entries, which: str) -> AxisSpec:
    fields = [e.take(f"{which}_{key}", convert)
              for key, convert in (("name", str), ("min", float), ("max", float), ("count", int))]
    if None in fields:
        raise ValidationError(f"{which} needs {which}_name, {which}_min, {which}_max, {which}_count")
    if fields[0] in SWEEP_AXES and fields[0] in e.raw:  # the axis would override the key's value without a word
        raise ValidationError(f"line {e.raw[fields[0]][1]}: {fields[0]} is also swept by {which}_name")
    return AxisSpec(*fields)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse sweep config text: two axes, an observable, base model values; a key that an axis sweeps is refused."""
    e = _Entries(text)
    base = _model_from_entries(e)
    observable = e.take("observable")
    axis1 = _axis_from_entries(e, "axis1")
    axis2 = _axis_from_entries(e, "axis2")
    fields = e.given(output_path=str)
    e.finish()
    return SweepConfig(axis1, axis2, observable, base, **fields)


# ---- CSV writing -----------------------------------------------------------


@functools.cache
def _kernel():
    """`_csvtext`, imported on the first write, not at import (2.5 ms to compile) nor on each write (tens of µs)."""
    from . import _csvtext
    return _csvtext


def _refuse_non_finite(cells: np.ndarray) -> None:
    """Raise IoError naming the first non-finite value in `cells`, in row order."""
    bad = cells[~np.isfinite(cells)]
    if bad.size:
        raise IoError(f"refusing to serialize non-finite value {float(bad[0])!r}")


def _write_text(path, header, chunks) -> str:
    """Write the header and the text of the iterator `chunks` to a temporary file beside `path`, which replaces it
    only once complete.  The first chunk is made here before the file is opened, so an error in a table's first block
    comes before any file; an error from a later one removes the file and propagates.  A failed write names `path` and
    the reason."""
    first = next(chunks, "")
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii", newline="") as fh:
            fh.write(",".join(header) + "\n" + first)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return str(path)


def _checked_block(block, width: int) -> np.ndarray:
    """`block` as a finite 2-D float array of `width` columns ([] is no rows), else ValidationError or IoError."""
    try:
        shape = np.shape(block)
    except ValueError as exc:  # a ragged block
        raise ValidationError(f"a table block must be 2-D with {width} columns: {exc}") from None
    if shape != (0,) and (len(shape) != 2 or shape[1] != width):
        raise ValidationError(f"a table block must be 2-D with {width} columns, got shape {shape}")
    if np.iscomplexobj(block):  # a float conversion would keep the real part
        raise IoError("refusing to serialize a cell that is not a number: the block is complex")
    try:
        cells = np.asarray(block, dtype=float).reshape(shape[0], width)
    except (TypeError, ValueError) as exc:
        raise IoError(f"refusing to serialize a cell that is not a number: {exc}") from None
    _refuse_non_finite(cells)
    return cells


def write_csv(path, header, rows) -> str:
    """Write a numeric table deterministically and atomically.

    `rows` is the table (a 2-D array or a sequence of rows), or an iterator of 2-D row blocks, written in order.  The
    header line is always present, cells read as ``%.15g`` writes them, and lines end in ``\\n`` on every platform.
    A temporary file beside `path` replaces it only once complete, so a block that is not 2-D with one column per
    header name (ValidationError), a cell that is not a finite number (IoError), or an error while the blocks are
    produced, leaves `path` as it was.  A header name that is not ASCII or holds a comma or a line break raises
    ValidationError before any file is made.
    """
    header = [str(name) for name in header]
    for name in header:
        if not name.isascii() or any(c in name for c in ",\n\r"):
            raise ValidationError(f"header name {name!r} must be ASCII without ',', '\\n' or '\\r'")
    step = max(1, _CSV_PIECE_CELLS // max(1, len(header)))  # whole rows per `csv_text` call
    blocks = (_checked_block(block, len(header)) for block in (rows if isinstance(rows, Iterator) else (rows,)))
    csv_text = _kernel().csv_text
    return _write_text(path, header, (csv_text(b[lo:lo + step]) for b in blocks for lo in range(0, len(b), step)))


# ---- trajectory tables -----------------------------------------------------


def _trajectory_table(runs, outputs) -> tuple[list[str], Iterator[np.ndarray]]:
    """Integrate the runs as one stack: the header (t, then each run's output groups in the given order, names
    suffixed by label if several runs) and an iterator of the table's row blocks.

    The runs' initial states and generators go to one `_rk4_blocks` stream on the first run's grid, which the runs
    share; it reads each run's rows of a block into the groups' columns as it checks them.  The stream is lazy: the
    writer (`_write_text`, through `write_csv`) makes its first block before it makes any file.
    """
    groups = [_OUTPUTS[kind] for kind in outputs]
    header = ["t", *(f"{name}{joiner}{run.label}" if len(runs) > 1 else name
                     for run in runs for names, joiner, _ in groups for name in names)]
    blocks = _rk4_blocks(np.array([initial_state(run.initial) for run in runs]),
                         np.array([liouvillian_from_params(run.params) for run in runs]), runs[0].grid,
                         lambda coords, checked: [column for *_, read in groups for column in read(coords, checked)])
    # `map`, not a generator expression, whose loop variable would hold a block's columns beside the stacked block.
    return header, map(lambda block: np.column_stack([block[0], *itertools.chain.from_iterable(block[1])]), blocks)


def run_experiment(config: ExperimentConfig, out_dir: str = ".") -> str:
    """Integrate the configured runs and write their table (see `_trajectory_table`) as CSV."""
    header, blocks = _trajectory_table(config.runs, config.outputs)
    return write_csv(os.path.join(out_dir, config.output_path), header, blocks)


# ---- sweeps ----------------------------------------------------------------


def _steady_cells(params: ModelParams) -> np.ndarray:
    """Each cell's concurrence, or DEGENERATE_SENTINEL where its stationary manifold is degenerate, and that flag."""
    coords, unique, _ = _steady_coordinates(liouvillian_from_params(params), certify=True)
    coords = coords[unique]
    checked = _check_samples(coords, "state")  # a solved state is Hermitian by construction, not positive
    cells = np.full(unique.shape + (2,), DEGENERATE_SENTINEL)
    cells[unique, 0] = _concurrence(coords, checked)
    cells[..., 1] = ~unique
    return cells


def _delta_f_cells(params: ModelParams) -> np.ndarray:
    return np.expand_dims(damping_forces(params.J, params.Gamma, params.phi).delta_F, -1)


# Each sweep observable: its columns after ``value``, its budget of cells a block (see the constants above), and the
# function from a block's model to its cells, (..., columns) arrays that broadcast to the block's (rows, cols).
SWEEP_OBSERVABLES = {"delta_F": ((), _CSV_PIECE_CELLS, _delta_f_cells),
                     "steady_concurrence": (("degenerate",), _SWEEP_BLOCK_CELLS, _steady_cells)}


def run_sweep(config: SweepConfig, out_dir: str = ".") -> str:
    """Evaluate the observable on the grid and write axis1,axis2,value rows, then its SWEEP_OBSERVABLES columns.

    steady_concurrence tables carry an extra ``degenerate`` flag column; grid points whose stationary manifold is
    degenerate hold the sentinel value -1 there instead of a concurrence.  Blocks of at most the observable's budget
    of cells are evaluated and written in row order, so an error in a later one leaves the destination as it was.
    """
    kernel = _kernel()
    extra, budget, cells_of = SWEEP_OBSERVABLES[config.observable]
    header = ["axis1", "axis2", "value", *extra]
    rows, cols = max(1, budget // config.axis2.count), min(config.axis2.count, budget)

    # axis2 is formatted once a sweep, every piece of its row kept, unless the row is too long to keep.
    @functools.lru_cache(maxsize=None if config.axis2.count <= _SWEEP_KEPT_VALUES else 0)
    def axis2_piece(first):
        values = config.axis2.values(first, first + cols)
        return values, kernel._records(values[:, None], newline=False)

    def chunks():
        for i in range(0, config.axis1.count, rows):  # a block of axis1 values, formatted once for all its pieces
            a = config.axis1.values(i, i + rows)[:, None]
            a_records = kernel._records(a, newline=False)
            for j in range(0, config.axis2.count, cols):
                b, b_records = axis2_piece(j)
                cells = cells_of(config._params_at(a, b))
                _refuse_non_finite(cells)
                records = np.empty((len(a), len(b), len(header), 4), "<u8")
                records[:, :, 0] = a_records[:, None]
                records[:, :, 1] = b_records
                records[:, :, 2:] = kernel._records(cells.reshape(-1, cells.shape[-1])).reshape(cells.shape + (4,))
                yield kernel._text(records)

    return _write_text(os.path.join(out_dir, config.output_path), header, chunks())


# ---- figure presets --------------------------------------------------------


def _preset_params(phi: float, drive_target: int | None = None) -> ModelParams:
    drive = None if drive_target is None else Drive(target=drive_target, amplitude=PRESET_DRIVE_AMPLITUDE)
    return ModelParams(J=1.0, Gamma=PRESET_GAMMA, phi=phi, kappa=0.0, drive=drive)


SWEEP_2A = SweepConfig(
    axis1=AxisSpec("Gamma", 0.0, 4.0, 201),
    axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, 201),
    observable="delta_F",
    base=ModelParams(J=1.0),
    output_path="fig2a.csv",
)


@functools.cache
def _figure_presets() -> dict[str, SweepConfig | ExperimentConfig]:
    """Every figure preset, id -> the config that writes ``fig<id>.csv``.

    Built once, on the first call, so importing the package builds none of it; callers must not mutate the dict.
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

    one_way, driven = from_each_qubit(iso, iso, short), from_each_collective_state(drive1, long)
    return {
        "2a": SWEEP_2A,
        "2b": ExperimentConfig(from_each_qubit(opposed, opposed, short), ("populations",), "fig2b.csv"),
        "2c": ExperimentConfig(one_way[:1], ("populations",), "fig2c.csv"),
        "2d": ExperimentConfig(one_way[1:], ("populations",), "fig2d.csv"),
        "3a": ExperimentConfig(one_way, ("concurrence",), "fig3a.csv"),
        "3b": ExperimentConfig(from_each_qubit(aligned, aligned, short), ("concurrence",), "fig3b.csv"),
        "4a": ExperimentConfig(from_each_qubit(drive1, drive2, long), ("concurrence",), "fig4a.csv"),
        "4b": ExperimentConfig(from_each_qubit(drive2, drive1, long), ("concurrence",), "fig4b.csv"),
        "5b": ExperimentConfig(from_each_collective_state(iso, short), ("collective",), "fig5b.csv"),
        "5c": ExperimentConfig(from_each_collective_state(aligned, short), ("collective",), "fig5c.csv"),
        "5d": ExperimentConfig(from_each_collective_state(opposed, short), ("collective",), "fig5d.csv"),
        "6a": ExperimentConfig(driven[:1], ("collective",), "fig6a.csv"),
        "6b": ExperimentConfig(driven[3:], ("collective",), "fig6b.csv"),
        "6c": ExperimentConfig(driven, ("concurrence",), "fig6c.csv"),
        "6d": ExperimentConfig(from_each_collective_state(drive2, long), ("concurrence",), "fig6d.csv"),
    }


def figure_trajectory_runs() -> dict[str, tuple[TrajectoryRun, ...]]:
    """Every integration behind the trajectory presets, keyed by figure id."""
    return {fig: config.runs for fig, config in _figure_presets().items() if isinstance(config, ExperimentConfig)}


def run_figure(figure_id: str, out_dir: str = ".") -> str:
    """Produce the named preset dataset and return the written path."""
    fig = str(figure_id).strip().lower()
    presets = _figure_presets()
    if fig not in presets:
        raise ValidationError(f"unknown figure id {figure_id!r}, expected one of {tuple(presets)}")
    config = presets[fig]
    return (run_sweep if isinstance(config, SweepConfig) else run_experiment)(config, out_dir)
