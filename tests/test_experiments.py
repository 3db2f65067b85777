import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dissipair import _csvtext, cli, dynamics, experiments, model, observables
from dissipair.dynamics import TimeGrid, evolve_rk4, initial_state, liouvillian_from_params, steady_state
from dissipair.errors import IoError, ValidationError
from dissipair.experiments import (
    OUTPUT_KINDS,
    SWEEP_2A,
    SWEEP_AXES,
    AxisSpec,
    ExperimentConfig,
    SweepConfig,
    figure_trajectory_runs,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_figure,
    run_sweep,
    write_csv,
)
from dissipair.observables import collective_populations, concurrence, damping_forces, populations

ISO_TEXT = "J = 1.0\nGamma = 2.0\nphi = 4.712388980384690\ninitial = EG\nt_max = 5\ndt = 0.002"


def _read_table(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# ---- trajectory config parsing ----


def test_parse_config_isolation_preset():
    config = parse_config(ISO_TEXT)
    assert config.model == model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi)
    assert config.initial == "EG"
    assert config.grid == TimeGrid(5.0, 0.002, 1)
    assert config.outputs == ("populations", "concurrence", "collective")
    assert config.output_path == "trajectory.csv"


def test_parse_config_comments_and_drive():
    text = (
        "# driven run\n"
        "Gamma = 2.0  # rate\n"
        "phi = 3.14\n"
        "drive_target = 2\n"
        "drive_amplitude = 0.727\n"
        "outputs = concurrence , populations\n"
        "sample_every = 10\n"
    )
    config = parse_config(text)
    assert config.model.drive == model.Drive(target=2, amplitude=0.727)
    # canonical column order regardless of how the list was written
    assert config.outputs == ("populations", "concurrence")
    assert config.grid.sample_every == 10


def test_parse_config_rejects_malformed_text():
    for text in ("", "   \n# only comments\n", "J 1.0", "= 3", "J =", "J = 1\nJ = 2", "dt = fast"):
        with pytest.raises(ValidationError, match=r"^line \d+: "):
            parse_config(text)


def test_parse_config_rejects_bad_values():
    bad = (
        "Gamma = -1",
        "kappa = -0.1",
        "J = 1\nunknown_key = 5",
        "initial = XY",
        "t_max = 0",
        "dt = -0.1",
        "t_max = 1\ndt = 2",
        "t_max = 1\ndt = 0.007",
        "sample_every = 0",
        "outputs = populations, nonsense",
        "omega_d = 1.5",
        "drive_amplitude = 0.5",
        "drive_target = 3",
        "output_path =  # blank",
    )
    for text in bad:
        with pytest.raises((ValidationError, ValidationError)):
            parse_config(text)


# ---- sweep config parsing ----

SWEEP_TEXT = (
    "observable = delta_F\n"
    "axis1_name = Gamma\naxis1_min = 0\naxis1_max = 4\naxis1_count = 3\n"
    "axis2_name = phi\naxis2_min = 0\naxis2_max = 6.283185307179586\naxis2_count = 5\n"
)


def test_parse_sweep_config():
    config = parse_sweep_config(SWEEP_TEXT)
    assert config.observable == "delta_F"
    assert config.axis1 == AxisSpec("Gamma", 0.0, 4.0, 3)
    assert config.axis2.count == 5
    np.testing.assert_allclose(config.axis1.values(), [0.0, 2.0, 4.0])


def test_parse_sweep_config_rejects_bad_axes():
    bad = (
        SWEEP_TEXT.replace("axis2_name = phi", "axis2_name = Gamma"),
        SWEEP_TEXT.replace("axis1_count = 3", "axis1_count = 1"),
        SWEEP_TEXT.replace("axis1_min = 0", "axis1_min = 5"),
        SWEEP_TEXT.replace("axis1_min = 0", "axis1_min = -1"),
        SWEEP_TEXT.replace("observable = delta_F", "observable = purity"),
        SWEEP_TEXT.replace("axis1_name = Gamma\n", ""),
        SWEEP_TEXT.replace("axis1_name = Gamma", "axis1_name = t_max"),
        SWEEP_TEXT.replace("axis1_max = 4", "axis1_max = inf"),
    )
    for text in bad:
        with pytest.raises(ValidationError):
            parse_sweep_config(text)


def test_sweep_observables_are_listed_in_table_order():
    assert list(experiments.SWEEP_OBSERVABLES) == ["delta_F", "steady_concurrence"]
    message = "^observable must be one of \\('delta_F', 'steady_concurrence'\\), got 'purity'$"
    with pytest.raises(ValidationError, match=message):
        parse_sweep_config(SWEEP_TEXT.replace("observable = delta_F", "observable = purity"))


def _sweep(out, axis1=("Gamma", 0.0, 4.0, 3), axis2=("phi", 0.0, math.pi, 3), observable="delta_F", name="s.csv"):
    return SweepConfig(AxisSpec(*axis1), AxisSpec(*axis2), observable, model.ModelParams(J=1.0),
                       os.path.join(out, name) if name else "")


def _experiment(out, initial="EG", outputs=("populations",), name="t.csv"):
    return ExperimentConfig(model.ModelParams(J=1.0), initial, TimeGrid(0.1, 0.002), outputs,
                            os.path.join(out, name) if name else "")


@pytest.mark.parametrize("build", [
    lambda out: _sweep(out, axis2=("Gamma", 0.0, 4.0, 3)),
    lambda out: _sweep(out, observable="delta_f"),
    lambda out: _sweep(out, axis1=("Gamma", 0.0, 4.0, -1)),
    lambda out: _sweep(out, axis1=("Gamma", 0.0, 4.0, 1)),
    lambda out: _sweep(out, axis1=("Gamma", 0.0, 4.0, 2.5)),
    lambda out: _sweep(out, axis1=("Gamma", 4.0, 0.0, 3)),
    lambda out: _sweep(out, axis1=("kappa", 0.0, math.inf, 3)),
    lambda out: _sweep(out, axis2=("phi", -1e308, 1e308, 3)),
    lambda out: _sweep(out, axis1=("Gamma", -1.0, 4.0, 3)),
    lambda out: _sweep(out, name=""),
    lambda out: _experiment(out, outputs=("nonsense",)),
    lambda out: _experiment(out, outputs=()),
    lambda out: _experiment(out, initial="XY"),
    lambda out: _experiment(out, name=""),
], ids=["same-axis-twice", "unknown-observable", "count-negative", "count-one", "count-fractional",
        "bounds-reversed", "bound-infinite", "spacing-overflows", "Gamma-negative", "sweep-no-path",
        "unknown-output", "no-outputs", "unknown-initial", "trajectory-no-path"])
def test_configs_built_in_python_are_refused(tmp_path, build):
    # The dataclasses own every value rule, so a config built in Python is refused like the same config as text.
    with pytest.raises(ValidationError):
        build(str(tmp_path))
    assert os.listdir(tmp_path) == []


# ---- CSV writing ----


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "point.csv"
    write_csv(path, ["t", "P1"], [(0.5, math.exp(-1.0))])
    assert path.read_bytes() == b"t,P1\n0.5,0.367879441171442\n"


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "P1"], [])
    assert path.read_bytes() == b"t,P1\n"


def _from_bits(bits) -> np.ndarray:
    """The doubles whose 64-bit patterns are `bits`."""
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


_CSV_CELLS = (
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e300, -1e300, 0.1, 1.0 / 3.0])
    | st.integers(-(10**16), 10**16).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(0, 2**64 - 1).map(lambda bits: _from_bits(bits).item()).filter(math.isfinite)
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(0, 1300), cols=st.integers(1, 17), cells=st.lists(_CSV_CELLS, min_size=1, max_size=64))
def test_write_csv_matches_per_cell_format(tmp_path, rows, cols, cells):
    # Tables of many rows span several pieces of the writer; the reference
    # formats every numpy cell on its own, one line per row.
    table = np.resize(np.array(cells, dtype=float), (rows, cols))
    header = [f"c{k}" for k in range(cols)]
    expected = ",".join(header) + "\n" + "".join(",".join("%.15g" % x for x in row) + "\n" for row in table)
    path = tmp_path / "table.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == expected.encode("ascii")


def _per_cell_csv(block) -> str:
    return "".join(",".join("%.15g" % x for x in row) + "\n" for row in block)


def test_csv_text_matches_per_cell_format_on_random_bit_patterns():
    # One call on 120 000 finite doubles drawn as raw 64-bit patterns: every exponent, sign and mantissa.
    cells = _from_bits(np.random.default_rng(20261020).integers(0, 2**64, size=150_000, dtype=np.uint64))
    block = cells[np.isfinite(cells)][:120_000].reshape(-1, 6)
    assert block.shape == (20_000, 6)
    assert _csvtext.csv_text(block) == _per_cell_csv(block)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


_EDGE_CELLS = np.concatenate([
    [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
    _neighbours([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-300, 301)]),
    [1e-5, 0.0001, 99999.99999999999, 1e15, 999999999999999.4, 999999999999999.5, 999999999999999.6],  # %g's switches
    [100000000000000.5, 100000000000001.5, 0.5, 2.5],  # ties
])


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_csv_text_matches_per_cell_format_on_edge_cells(cols):
    cells = np.concatenate([_EDGE_CELLS, -_EDGE_CELLS])
    block = np.resize(cells, (-(-len(cells) // cols), cols))
    assert _csvtext.csv_text(block) == _per_cell_csv(block)


@pytest.mark.parametrize("shape", [(1, -1), (-1, 1)], ids=["one row", "one column"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_csv_text_matches_per_cell_format_around_the_kernel_threshold(shape, offset):
    # Below _KERNEL_CELLS one `%` call makes every record, from there on the kernel does; edge cells include
    # undecided ones, which the kernel hands back to `%`.
    count = _csvtext._KERNEL_CELLS + offset
    cells = np.concatenate([_EDGE_CELLS, -_EDGE_CELLS])
    for start in (0, 300, len(cells) - count):
        block = cells[start:start + count].reshape(shape)
        assert _csvtext.csv_text(block) == _per_cell_csv(block)


def test_csv_text_formats_a_block_of_undecided_cells_with_percent():
    # Subnormals, other magnitudes outside [1e-270, 1e270], and exact ties at the 15th digit: numpy decides none.
    block = np.array([[5e-324, -1e-300, 1e271], [-1.7976931348623157e308, 999999999999999.5, 100000000000001.5],
                      [2.5e-271, -100000000000000.5, 2.2250738585072014e-308]])
    *_, undecided = _csvtext._decimal_digits(block.ravel(), *_csvtext._format_tables()[:6])
    assert undecided.tolist() == list(range(9))
    assert _csvtext.csv_text(block) == _per_cell_csv(block)


def test_importing_the_package_builds_no_format_table(tmp_path):
    # Nor does a sweep whose every call is below the kernel threshold: 45 cells, 90 value cells.
    src = os.path.dirname(os.path.dirname(os.path.abspath(_csvtext.__file__)))
    probe = ("import sys, dissipair; print('dissipair._csvtext' in sys.modules)\n"
             "from dissipair import _csvtext\n"
             "print(_csvtext._format_tables.cache_info().currsize, 'fractions' in sys.modules, "
             "'decimal' in sys.modules)\n"
             "from dissipair.experiments import parse_sweep_config, run_sweep\n"
             "run_sweep(parse_sweep_config(sys.argv[1]), sys.argv[2])\n"
             "print(_csvtext._format_tables.cache_info().currsize)")
    steady = ("J = 1\nGamma = 2\ndrive_target = 1\nobservable = steady_concurrence\naxis1_name = drive_amplitude\n"
              "axis1_min = 0.5\naxis1_max = 2\naxis1_count = 5\naxis2_name = phi\naxis2_min = 0\n"
              "axis2_max = 6.283185307179586\naxis2_count = 9\n")
    done = subprocess.run([sys.executable, "-c", probe, steady, str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["False", "0", "False", "False", "0"], done.stderr
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 5 * 9


_MISFITS = {
    "too few columns": (["a", "b"], [[1.0]]),
    "too many columns": (["a"], [[1.0, 2.0]]),
    "one row as a flat list": (["a", "b"], [1.0, 2.0]),
    "ragged rows": (["a", "b"], [[1.0, 2.0], [1.0]]),
    "three dimensions": (["a", "b"], np.zeros((2, 2, 2))),
    "a scalar": (["a"], 1.0),
    "a later block of another width": (["a", "b"], [np.zeros((2, 2)), np.zeros((2, 3))]),
}


@pytest.mark.parametrize("case", list(_MISFITS))
def test_write_csv_refuses_a_block_that_does_not_fit_the_header(tmp_path, case):
    header, rows = _MISFITS[case]
    path = tmp_path / "table.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValidationError, match="must be 2-D with"):
        write_csv(path, header, iter(rows) if case.startswith("a later block") else rows)
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.parametrize("blocks", [[[[1.0, "abc"]]], [[[1.0, {}]]], [np.zeros((1, 2)), [[1.0, "x"]]],
                                    [np.array([[1.0, 1 + 2j]])], [[[1.0, 3 + 0j]]]],
                         ids=["string", "dict", "in a later block", "complex", "complex with no imaginary part"])
def test_write_csv_refuses_a_cell_that_is_not_a_number(tmp_path, blocks):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(IoError, match="not a number"):
        write_csv(path, ["a", "b"], iter(blocks))
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.parametrize("name", ["a,b", "\u00e9", "a\nb", "a\rb"])
def test_write_csv_refuses_a_header_name_that_breaks_the_line(tmp_path, name):
    # A comma would split the header into more fields than each row has, a line break would end it, and a name that
    # is not ASCII cannot be written in the file's encoding: each is refused before any file is made.
    path = tmp_path / "table.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValidationError, match="^header name .* must be ASCII without"):
        write_csv(path, ["t", name], np.ones((2, 2)))
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_write_csv_refuses_non_finite(tmp_path):
    with pytest.raises(IoError):
        write_csv(tmp_path / "bad.csv", ["x"], [(float("nan"),)])
    with pytest.raises(IoError):
        write_csv(tmp_path / "bad.csv", ["x"], [(float("inf"),)])


def test_write_csv_unwritable_path(tmp_path):
    with pytest.raises(IoError):
        write_csv(tmp_path / "no_such_dir" / "x.csv", ["x"], [(1.0,)])


def test_write_csv_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_bytes(b"x\n1\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError, match="replace refused"):
        write_csv(path, ["x"], [(2.0,), (3.0,)])
    assert path.read_bytes() == b"x\n1\n"
    assert list(tmp_path.iterdir()) == [path]


# ---- trajectory tables ----


def _short_table(tmp_path, outputs):
    config = ExperimentConfig(model=model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi), initial="EG",
                              grid=TimeGrid(0.1, 0.002), outputs=outputs, output_path="short.csv")
    return _read_table(run_experiment(config, str(tmp_path)))


def test_trajectory_table_column_sets(tmp_path):
    header, table = _short_table(tmp_path, ("populations",))
    assert header == ["t", "P1", "P2"]
    assert table.shape == (51, 3)

    # Column groups come in table order, whatever order they are asked in.
    header, table = _short_table(tmp_path, ("states", "collective", "concurrence", "populations"))
    assert len(header) == 40
    assert header[:4] == ["t", "P1", "P2", "C"]
    assert header[4:8] == ["P_E", "P_plus", "P_minus", "P_G"]
    assert header[8:10] == ["rho_re_00", "rho_im_00"]
    assert table.shape == (51, 40)
    # t = 0 row reflects the initial projector on |eg>
    assert table[0, 1] == 1.0 and table[0, 2] == 0.0
    assert abs(table[0, 5] - 0.5) <= 1e-15 and abs(table[0, 6] - 0.5) <= 1e-15


DRIVE1 = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi, drive=model.Drive(1, 8.0 / 11.0))


def test_trajectory_table_columns_are_the_public_observables():
    # The table reads populations off the coordinates; the public functions read the same states.
    grid = TimeGrid(1.0, 0.002, 3)
    run = experiments.TrajectoryRun("", DRIVE1, "EG", grid)
    header, blocks = experiments._trajectory_table((run,), OUTPUT_KINDS)
    traj = evolve_rk4(initial_state("EG"), liouvillian_from_params(DRIVE1), grid)
    states = traj.states
    rho = [part[:, i, j] for i in range(4) for j in range(4) for part in (states.real, states.imag)]
    expected = np.column_stack([traj.times, *populations(states), concurrence(states),
                                *vars(collective_populations(states)).values(), *rho])
    assert len(header) == expected.shape[1]
    np.testing.assert_array_equal(np.concatenate(list(blocks)), expected)


# 35 003 steps stored every 7th: 5 000 uniform samples in 72 block starts of 70, two blocks, then a 3-step tail.
LONG_STRIDED = ExperimentConfig(model=DRIVE1, initial="GG", grid=TimeGrid(70.006, 0.002, 7), outputs=OUTPUT_KINDS,
                                output_path="strided.csv")
# 4 095 samples: 65 block starts of 63, one block by default; smaller blocks leave a lone last start.
ONE_BLOCK = ExperimentConfig(model=DRIVE1, initial="EG", grid=TimeGrid(8.19, 0.002), outputs=("populations",),
                             output_path="one_block.csv")


def _write_block_cases(out):
    os.mkdir(out)
    return [run_figure("5b", str(out)), run_figure("4a", str(out)), run_experiment(LONG_STRIDED, str(out)),
            run_experiment(ONE_BLOCK, str(out))]


def _block_lengths(config):
    blocks = dynamics._rk4_blocks(initial_state(config.initial)[None], liouvillian_from_params(config.model)[None],
                                  config.grid)
    return [len(block.times) for block, _ in blocks]


@pytest.mark.parametrize("rows", [7, 512])
def test_row_blocks_leave_every_byte(tmp_path, monkeypatch, rows):
    default = _write_block_cases(tmp_path / "default")
    assert _block_lengths(LONG_STRIDED) == [1 + 58 * 70, 5000 - 58 * 70 + 1]
    assert _block_lengths(ONE_BLOCK) == [4096]
    monkeypatch.setattr(dynamics, "_RUN_BLOCK_ROWS", rows)
    small = _write_block_cases(tmp_path / "small")
    for a, b in zip(default, small):
        assert Path(a).read_bytes() == Path(b).read_bytes(), os.path.basename(a)
    # Each block spans max(2, rows // m) block starts of m samples; the first adds sample 0, the last the tail.
    for config, m, starts in ((LONG_STRIDED, 70, 72), (ONE_BLOCK, 63, 65)):
        width = max(2, rows // m)
        lengths = _block_lengths(config)
        assert len(lengths) == -(-starts // width)
        assert max(lengths) <= width * m + 2
        assert sum(lengths) == config.grid.n_samples
    np.testing.assert_array_equal(
        np.concatenate([block.times for block, _ in dynamics._rk4_blocks(
            initial_state("GG")[None], liouvillian_from_params(DRIVE1)[None], LONG_STRIDED.grid)]),
        LONG_STRIDED.grid.sample_times())
    assert LONG_STRIDED.grid.sample_steps()[-2:].tolist() == [35000, 35003]


@pytest.mark.parametrize("rows", [64, 4096])
def test_each_run_of_a_stacked_table_is_the_run_alone(monkeypatch, rows):
    # 6c's four runs integrate as one stack in one stream; every column equals that of the run's own table.  10 003
    # steps stored every tenth: 33 block starts of 31 samples and a 3-step tail, with 64 rows a block of two starts
    # each and a lone last start.
    monkeypatch.setattr(dynamics, "_RUN_BLOCK_ROWS", rows)
    grid = TimeGrid(20.006, 0.002, 10)
    runs = tuple(experiments.TrajectoryRun(run.label, run.params, run.initial, grid)
                 for run in figure_trajectory_runs()["6c"])
    with mock.patch.object(experiments, "_rk4_blocks", wraps=dynamics._rk4_blocks) as streams:
        header, blocks = experiments._trajectory_table(runs, OUTPUT_KINDS)
        table = np.concatenate(list(blocks))
    assert streams.call_count == 1
    assert len(header) == 1 + 4 * 39 and table.shape == (grid.n_samples, len(header))
    for k, run in enumerate(runs):
        alone_header, alone = experiments._trajectory_table((run,), OUTPUT_KINDS)
        assert [f"{name}_{'from_' if name.startswith('P_') else ''}{run.label}" for name in alone_header[1:]] \
            == header[1 + 39 * k:1 + 39 * (k + 1)]
        alone = np.concatenate(list(alone))
        assert np.array_equal(alone[:, 0], table[:, 0])
        assert np.array_equal(alone[:, 1:], table[:, 1 + 39 * k:1 + 39 * (k + 1)])


def test_a_minus_state_table_prints_no_negative_zero(tmp_path):
    # MINUS's projector has zero imaginary parts; they print as 0, never -0.
    config = ExperimentConfig(model=DRIVE1, initial="MINUS", grid=TimeGrid(0.1, 0.002), outputs=("states",),
                              output_path="minus.csv")
    cells = Path(run_experiment(config, str(tmp_path))).read_text(encoding="ascii").replace("\n", ",").split(",")
    assert "-0" not in cells


def test_undriven_figures_reach_no_cholesky(tmp_path, monkeypatch):
    # Undriven runs from the named states stay X-shaped, so their sample check needs no Cholesky; a driven run's does.
    def written(name):
        os.mkdir(tmp_path / name)
        return [Path(run_figure(fig, str(tmp_path / name))).read_bytes() for fig in ("2c", "5b")]

    usual = written("usual")

    def reached(*args, **kwargs):
        raise AssertionError("dynamics._cholesky reached")

    monkeypatch.setattr(dynamics, "_cholesky", reached)
    assert written("patched") == usual
    run = figure_trajectory_runs()["4a"][0]
    with pytest.raises(AssertionError, match="cholesky reached"):
        evolve_rk4(initial_state(run.initial), liouvillian_from_params(run.params), run.grid)


def test_a_driven_concurrence_table_factors_each_sample_once(tmp_path):
    # The sample check factors each run's block once and the concurrence reads that factor: 6c's four runs are one
    # block each, LONG_STRIDED's one run is two.  eigh sees only the samples whose Cholesky factor failed.
    cholesky, failed = dynamics._cholesky, []

    def counted(coords):
        factor, completed = cholesky(coords)
        failed.append(int(np.count_nonzero(~completed)))
        return factor, completed

    for write, calls in ((lambda: run_figure("6c", str(tmp_path)), 4),
                         (lambda: run_experiment(LONG_STRIDED, str(tmp_path)), 2)):
        failed.clear()
        with mock.patch.object(dynamics, "_cholesky", side_effect=counted) as factored, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            write()
        assert factored.call_count == calls
        assert [len(call.args[0]) for call in eigh.call_args_list] == [n for n in failed if n]
        assert sum(failed) > 0  # the fallback is taken, by 4 samples of 6c and 6 of LONG_STRIDED


def test_concurrence_tables_skip_the_state_check(tmp_path, monkeypatch):
    # A table reads the concurrence off its checked coordinates: an X-shaped figure needs no state check, eigh or
    # svd, and a driven one no state check.
    def written(name, fig):
        os.mkdir(tmp_path / name)
        return Path(run_figure(fig, str(tmp_path / name))).read_bytes()

    usual = written("usual", "3a")

    def reached(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} reached")
        return refuse

    monkeypatch.setattr(observables, "_checked_coordinates", reached("_checked_coordinates"))
    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, reached(name))
    assert written("patched", "3a") == usual
    monkeypatch.undo()
    monkeypatch.setattr(observables, "_checked_coordinates", reached("_checked_coordinates"))
    written("driven", "4a")
    with pytest.raises(AssertionError, match="_checked_coordinates reached"):
        concurrence(initial_state("EG"))


def test_run_experiment_writes_file(tmp_path):
    config = parse_config(ISO_TEXT.replace("t_max = 5", "t_max = 0.1") + "\noutput_path = run.csv")
    path = run_experiment(config, str(tmp_path))
    header, data = _read_table(path)
    assert header == ["t", "P1", "P2", "C", "P_E", "P_plus", "P_minus", "P_G"]
    assert data.shape == (51, 8)
    assert abs(data[-1, 0] - 0.1) <= 1e-12


# ---- sweeps ----


def test_run_sweep_smoke_grid(tmp_path):
    config = SweepConfig(
        AxisSpec("Gamma", 0.0, 2.0, 2), AxisSpec("phi", 0.0, math.pi, 2), "delta_F",
        base=model.ModelParams(J=1.0),
        output_path=str(tmp_path / "grid.csv"),
    )
    header, data = _read_table(run_sweep(config))
    assert header == ["axis1", "axis2", "value"]
    assert data.shape == (4, 3)
    np.testing.assert_allclose(data[:2, 2], [0.0, 0.0], atol=1e-15)


def test_run_sweep_deterministic(tmp_path):
    config = SweepConfig(
        AxisSpec("Gamma", 0.0, 4.0, 5), AxisSpec("phi", 0.0, 2.0 * math.pi, 5), "delta_F",
        base=model.ModelParams(J=1.0),
    )
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = run_sweep(config, str(tmp_path / "a"))
    b = run_sweep(config, str(tmp_path / "b"))
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("axis1", [AxisSpec("J", 0.0, 2.0, 5), AxisSpec("kappa", 0.0, 2.0, 5)])
def test_run_sweep_delta_F_matches_cells(tmp_path, axis1):
    config = SweepConfig(
        axis1, AxisSpec("phi", 0.0, 2.0 * math.pi, 7), "delta_F",
        base=model.ModelParams(J=0.8, Gamma=2.0),
        output_path=str(tmp_path / "grid.csv"),
    )
    _, data = _read_table(run_sweep(config))
    assert data.shape == (5 * 7, 3)
    J = data[:, 0] if axis1.name == "J" else 0.8
    expected = [damping_forces(j, 2.0, phi).delta_F for j, phi in np.broadcast(J, data[:, 1])]
    np.testing.assert_allclose(data[:, 2], expected, rtol=0.0, atol=1e-14)
    if axis1.name == "kappa":
        grid = data[:, 2].reshape(5, 7)
        assert (grid == grid[0]).all()


def test_run_sweep_rejects_unknown_axis(tmp_path):
    # The axis refuses the name when it is built, so no sweep can silently ignore it.
    with pytest.raises(ValidationError, match="unsupported sweep axis 't_max'"):
        config = SweepConfig(AxisSpec("t_max", 1.0, 2.0, 2), AxisSpec("phi", 0.0, 1.0, 2), "delta_F",
                             base=model.ModelParams(J=1.0))
        run_sweep(config, str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_run_sweep_steady_concurrence_flags(tmp_path):
    config = SweepConfig(
        AxisSpec("phi", 0.0, 1.5 * math.pi, 2),
        AxisSpec("Gamma", 1.0, 2.0, 2),
        "steady_concurrence",
        base=model.ModelParams(J=1.0),
        output_path=str(tmp_path / "steady.csv"),
    )
    header, data = _read_table(run_sweep(config))
    assert header == ["axis1", "axis2", "value", "degenerate"]
    # phi = 0 rows are degenerate (a dark state survives), so sentinel -1
    for row in data:
        assert row[3] in (0.0, 1.0)
        if row[0] == 0.0:
            assert row[3] == 1.0 and row[2] == -1.0
        else:
            assert row[3] == 0.0 and abs(row[2]) <= 1e-9


def test_run_sweep_driven_cell_matches_direct_steady_state(tmp_path):
    drive = model.Drive(target=1, amplitude=8.0 / 11.0)
    phis, amplitudes = AxisSpec("phi", math.pi, 1.5 * math.pi, 3), AxisSpec("drive_amplitude", 0.0, 8.0 / 11.0, 3)
    config = SweepConfig(
        phis, amplitudes, "steady_concurrence",
        base=model.ModelParams(J=1.0, Gamma=2.0, drive=drive),
        output_path=str(tmp_path / "driven.csv"),
    )
    _, data = _read_table(run_sweep(config))
    cells = [(phi, w) for phi in phis.values() for w in amplitudes.values()]
    assert data.shape == (len(cells), 4)
    for (phi, w), (_, _, value, degenerate) in zip(cells, data):
        params = model.ModelParams(J=1.0, Gamma=2.0, phi=phi, drive=model.Drive(target=1, amplitude=w))
        result = steady_state(liouvillian_from_params(params))
        assert degenerate == (0.0 if result.unique else 1.0)
        assert abs(value - (concurrence(result.state) if result.unique else -1.0)) <= 1e-12
    # The undriven phi = pi cell keeps its dark state; every driven cell is unique.
    assert data[:, 3].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_run_sweep_driven_on_qubit_2_matches_direct_steady_state(tmp_path):
    # drive_amplitude x phi with the drive on qubit 2: each cell is the steady state of that model, which at the
    # isolation phase differs from the same drive on qubit 1.
    amplitudes, phis = AxisSpec("drive_amplitude", 0.0, 1.5, 4), AxisSpec("phi", 0.0, 2.0 * math.pi, 5)
    config = SweepConfig(amplitudes, phis, "steady_concurrence",
                         base=model.ModelParams(J=1.0, Gamma=2.0, drive=model.Drive(target=2, amplitude=0.3)),
                         output_path=str(tmp_path / "driven.csv"))
    _, data = _read_table(run_sweep(config))
    cells = [(w, phi) for w in amplitudes.values() for phi in phis.values()]
    assert data.shape == (len(cells), 4)
    for (w, phi), (_, _, value, degenerate) in zip(cells, data):
        params = model.ModelParams(J=1.0, Gamma=2.0, phi=phi, drive=model.Drive(target=2, amplitude=w))
        result = steady_state(liouvillian_from_params(params))
        assert degenerate == (0.0 if result.unique else 1.0)
        assert abs(value - (concurrence(result.state) if result.unique else -1.0)) <= 1e-12
    # The undriven row keeps its dark states at phi = 0, pi and 2 pi; every driven cell is unique.
    assert data[:, 3].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0] + [0.0] * 15
    on_1 = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi, drive=model.Drive(target=1, amplitude=1.5))
    assert abs(data[-2, 2] - concurrence(steady_state(liouvillian_from_params(on_1)).state)) > 1e-3


def test_run_sweep_certifies_driven_cells_without_a_16x16_svd(tmp_path, monkeypatch):
    # The benchmark's all-driven grid: the inverse of each cell's bordered matrix certifies its state unique, so
    # the sweep takes no singular values of a generator, while the public steady_state still takes its one SVD.
    config = SweepConfig(AxisSpec("drive_amplitude", 0.5, 2.0, 5), AxisSpec("phi", 0.0, 2.0 * math.pi, 9),
                         "steady_concurrence", base=model.ModelParams(J=1.0, Gamma=2.0, drive=model.Drive(1, 0.0)))
    calls, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _, data = _read_table(run_sweep(config, str(tmp_path)))
    assert data.shape == (45, 4) and not data[:, 3].any()
    assert [shape for shape in calls if shape[-2:] == (16, 16)] == []
    calls.clear()
    assert steady_state(liouvillian_from_params(model.ModelParams(J=1.0, Gamma=2.0, drive=model.Drive(1, 0.5)))).unique
    assert [shape[-2:] for shape in calls] == [(16, 16)]


def test_run_sweep_falls_back_to_the_svd_on_an_exactly_singular_block(tmp_path, monkeypatch):
    # Undriven, the J = 0 and Gamma = 0 lines keep dark states and an exactly singular bordered matrix (the corner's
    # generator is zero), so np.linalg.inv raises for the whole block and every cell takes the SVD verdict.
    config = SweepConfig(AxisSpec("J", 0.0, 2.0, 5), AxisSpec("Gamma", 0.0, 4.0, 7), "steady_concurrence",
                         base=model.ModelParams(phi=1.5 * math.pi))
    raised, inv = [], np.linalg.inv

    def recording_inv(a, *args, **kwargs):
        try:
            return inv(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            raised.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    written = Path(run_sweep(config, str(tmp_path))).read_bytes()
    assert raised == [(35, 16, 16)]
    table = []
    for J in config.axis1.values():
        for Gamma in config.axis2.values():
            result = steady_state(liouvillian_from_params(model.ModelParams(J=J, Gamma=Gamma, phi=1.5 * math.pi)))
            table.append((J, Gamma, concurrence(result.state) if result.unique else -1.0, float(not result.unique)))
    assert written == _per_cell_text(["axis1", "axis2", "value", "degenerate"], np.array(table))
    # The J = 0 column and the Gamma = 0 row are degenerate; the other 24 cells are unique.
    assert sum(row[3] for row in table) == 11.0


def _block_cells(observable):
    """The budget of cells of a sweep block of `observable`, read off its SWEEP_OBSERVABLES record."""
    return experiments.SWEEP_OBSERVABLES[observable][1]


def _patch_block_cells(monkeypatch, observable, budget):
    extra, _, cells_of = experiments.SWEEP_OBSERVABLES[observable]
    monkeypatch.setitem(experiments.SWEEP_OBSERVABLES, observable, (extra, budget, cells_of))


def _counting_blocks(monkeypatch):
    """The shape of the cells of each sweep block from now on, in the order `run_sweep` checks them."""
    shapes, refuse = [], experiments._refuse_non_finite
    monkeypatch.setattr(experiments, "_refuse_non_finite", lambda cells: (shapes.append(cells.shape), refuse(cells)))
    return shapes


@pytest.mark.parametrize("budget", [4, 7])
@pytest.mark.parametrize("observable", ["delta_F", "steady_concurrence"])
def test_run_sweep_blocks_write_the_same_bytes(tmp_path, monkeypatch, observable, budget):
    # Nine phi values split each axis1 row into blocks of 4, 4 and 1 cells, or of 7 and 2; unpatched, the grid is
    # one block.
    config = SweepConfig(
        AxisSpec("drive_amplitude" if observable == "steady_concurrence" else "Gamma", 0.0, 1.0, 3),
        AxisSpec("phi", 0.0, 2.0 * math.pi, 9), observable,
        base=model.ModelParams(J=1.0, Gamma=2.0, drive=model.Drive(target=2, amplitude=0.5)),
    )
    (tmp_path / "one").mkdir()
    (tmp_path / "small").mkdir()
    shapes = _counting_blocks(monkeypatch)
    run_sweep(config, str(tmp_path / "one"))
    assert len(shapes) == 1
    _patch_block_cells(monkeypatch, observable, budget)
    run_sweep(config, str(tmp_path / "small"))
    assert len(shapes) - 1 == 3 * -(-9 // budget)
    assert (tmp_path / "small" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()
    _, data = _read_table(tmp_path / "small" / "sweep.csv")
    a, b = np.meshgrid(config.axis1.values(), config.axis2.values(), indexing="ij")
    np.testing.assert_allclose(data[:, :2], np.column_stack([a.ravel(), b.ravel()]), rtol=1e-14, atol=0.0)
    if observable == "steady_concurrence":
        # The undriven row keeps its dark states at phi = 0, pi and 2 pi.
        assert data[:, 3].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * 18


def test_run_sweep_failing_in_a_later_block_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    # With J = 1e308 and Gamma up to 1.6e308, F12 = |iJ + (Gamma/2) e^(i phi)| passes the float range only on
    # the last axis1 row, at phi = pi/2; blocks of 4 cells write the rows before it first.
    text = ("J = 1e308\nobservable = delta_F\naxis1_name = Gamma\naxis1_min = 0\naxis1_max = 1.6e308\n"
            "axis1_count = 3\naxis2_name = phi\naxis2_min = 0\naxis2_max = 6.283185307179586\naxis2_count = 5\n")
    (tmp_path / "sweep.cfg").write_text(text, encoding="ascii")
    (tmp_path / "sweep.csv").write_bytes(b"old\n")
    _patch_block_cells(monkeypatch, "delta_F", 4)
    shapes = _counting_blocks(monkeypatch)
    with pytest.raises(ValidationError, match="^F12 must be finite"):
        run_sweep(parse_sweep_config(text), str(tmp_path))
    assert shapes == [(1, 4, 1), (1, 1, 1)] * 2
    assert cli.main(["sweep", "--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path)]) == 2
    assert "F12 must be finite" in capsys.readouterr().err
    assert (tmp_path / "sweep.csv").read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["sweep.cfg", "sweep.csv"]


def _per_cell_text(header, table):
    """The reference writer: every numpy cell formatted on its own, one line per row."""
    return (",".join(header) + "\n" + "".join(",".join("%.15g" % x for x in row) + "\n" for row in table)).encode()


# Axis bounds per name: J takes negative bounds and an upper bound of -0.0, which prints as -0, cells in scientific
# notation, and cells below 1e-270, which the kernel leaves to `%`; Gamma reaches cells in scientific notation too.
_AXIS_BOUNDS = {
    "J": [(-2.0, -0.0), (-1.25, 0.75), (-0.0, 1.5), (0.1, 3.0), (-3e-5, 3e-5), (1e-300, 3e-300)],
    "phi": [(0.0, 2.0 * math.pi), (-math.pi, math.pi), (1.0, 1.5 * math.pi)],
    "Gamma": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3), (0.0, 1e16)],
    "kappa": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3)],
    "drive_amplitude": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3)],
}


@st.composite
def _sweep_configs(draw):
    observable = draw(st.sampled_from(["delta_F", "steady_concurrence"]))
    name1, name2 = draw(st.permutations(SWEEP_AXES))[:2]
    # Value cells per writer call just below, at and just above the kernel threshold: the last block of such a
    # sweep is one axis1 row of `count2` cells, one value cell each for delta_F and two for steady_concurrence.
    threshold = _csvtext._KERNEL_CELLS if observable == "delta_F" else _csvtext._KERNEL_CELLS // 2
    around = st.sampled_from([threshold - 1, threshold, threshold + 1])
    if observable == "delta_F":  # cheap cells: rows longer than a sweep block too
        count2 = draw(st.integers(2, 40) | around | st.integers(4080, 4112))
    else:
        count2 = draw(st.integers(2, 12) | around)
    count1 = _block_cells(observable) // count2 + 1 if abs(count2 - threshold) <= 1 else draw(st.integers(2, 4))
    axis1 = AxisSpec(name1, *draw(st.sampled_from(_AXIS_BOUNDS[name1])), count1)
    axis2 = AxisSpec(name2, *draw(st.sampled_from(_AXIS_BOUNDS[name2])), count2)
    drive = draw(st.sampled_from([None, model.Drive(1, 0.6), model.Drive(2, 0.6)]))
    base = model.ModelParams(J=0.8, Gamma=1.5, phi=draw(st.sampled_from([0.0, math.pi, 1.5 * math.pi])), drive=drive)
    return SweepConfig(axis1, axis2, observable, base=base, output_path="sweep.csv")


# Undriven and at phi = 0, pi and 2 pi, the zero-amplitude row keeps dark states: degenerate cells.
_DEGENERATE_SWEEP = SweepConfig(
    AxisSpec("drive_amplitude", 0.0, 1.0, 3), AxisSpec("phi", 0.0, 2.0 * math.pi, 513), "steady_concurrence",
    base=model.ModelParams(J=0.8, Gamma=1.5),
)


def _threshold_sweep(observable, name1, bounds1, name2, bounds2, count2):
    """A sweep whose last writer call is one axis1 row of `count2` cells."""
    axis1 = AxisSpec(name1, *bounds1, _block_cells(observable) // count2 + 1)
    base = model.ModelParams(J=0.8, Gamma=1.5, phi=1.5 * math.pi, drive=model.Drive(1, 0.6))
    return SweepConfig(axis1, AxisSpec(name2, *bounds2, count2), observable, base=base)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_sweep_configs())
@example(config=_DEGENERATE_SWEEP)
@example(config=_threshold_sweep("delta_F", "J", (1e-300, 3e-300), "Gamma", (0.0, 1e16), _csvtext._KERNEL_CELLS - 1))
@example(config=_threshold_sweep("delta_F", "Gamma", (0.0, 1e16), "J", (-3e-5, 3e-5), _csvtext._KERNEL_CELLS))
@example(config=_threshold_sweep("steady_concurrence", "J", (1e-300, 3e-300), "phi", (0.0, 2.0 * math.pi),
                                 _csvtext._KERNEL_CELLS // 2 + 1))
def test_run_sweep_matches_per_cell_format(tmp_path, config):
    base = config.base
    drive = base.drive or model.Drive(target=1, amplitude=0.0)
    a, b = np.meshgrid(config.axis1.values(), config.axis2.values(), indexing="ij")
    fields = {"J": base.J, "Gamma": base.Gamma, "phi": base.phi, "kappa": base.kappa,
              "drive_amplitude": drive.amplitude, config.axis1.name: a, config.axis2.name: b}
    if config.observable == "delta_F":
        header = ["axis1", "axis2", "value"]
        columns = [np.broadcast_to(damping_forces(fields["J"], fields["Gamma"], fields["phi"]).delta_F, a.shape)]
    else:
        header = ["axis1", "axis2", "value", "degenerate"]
        params = model.ModelParams(fields["J"], fields["Gamma"], fields["phi"], fields["kappa"],
                                   model.Drive(drive.target, fields["drive_amplitude"]))
        result = steady_state(liouvillian_from_params(params))
        unique = np.broadcast_to(result.unique, a.shape)
        value = np.full(a.shape, -1.0)
        value[unique] = concurrence(result.state[unique])
        columns = [value, (~unique).astype(float)]
    table = np.column_stack([a.ravel(), b.ravel()] + [column.ravel() for column in columns])
    written = Path(run_sweep(config, str(tmp_path))).read_bytes()
    assert written == _per_cell_text(header, table)
    if config.observable == "steady_concurrence":
        # Degenerate rows end ",-1,1"; every other row ends ",0" after a concurrence in [0, 1].
        rows = written.decode().splitlines()[1:]
        assert [row.endswith(",-1,1") for row in rows] == (~unique).ravel().tolist()
        assert all(row.endswith(",0") and 0.0 <= float(row.split(",")[2]) <= 1.0 for row, flag in
                   zip(rows, (~unique).ravel()) if not flag)
        if config is _DEGENERATE_SWEEP:
            assert (~unique).sum() == 3


# ---- figure presets ----


def test_run_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ValidationError, match="^unknown figure id '9z'"):
        run_figure("9z", str(tmp_path))


def test_figure_2a_grid_cells(tmp_path):
    header, data = _read_table(run_figure("2a", str(tmp_path)))
    assert header == ["axis1", "axis2", "value"]
    assert data.shape == (201 * 201, 3)
    row = data[100 * 201 + 150]
    assert abs(row[0] - 2.0) <= 1e-12
    assert abs(row[1] - 1.5 * math.pi) <= 1e-12
    assert abs(row[2] + 1.0) <= 1e-12
    # the phi = 0 column and the Gamma = 0 row are reciprocal everywhere
    zero_phi = data[data[:, 1] == 0.0]
    assert zero_phi.shape[0] == 201
    np.testing.assert_allclose(zero_phi[:, 2], 0.0, atol=1e-15)
    np.testing.assert_allclose(data[:201, 2], 0.0, atol=1e-15)


def test_figure_2a_takes_one_writer_piece_per_block(tmp_path, monkeypatch):
    # 4 096 // 201 = 20 whole Gamma rows per block: ten blocks of 4 020 cells and one of 201.
    shapes, refuse = [], experiments._refuse_non_finite
    monkeypatch.setattr(experiments, "_refuse_non_finite", lambda cells: (shapes.append(cells.shape), refuse(cells)))
    run_figure("2a", str(tmp_path))
    assert shapes == [(20, 201, 1)] * 10 + [(1, 201, 1)]


def test_figure_2a_equals_equivalent_sweep(tmp_path):
    (tmp_path / "fig").mkdir()
    (tmp_path / "sweep").mkdir()
    a = run_figure("2a", str(tmp_path / "fig"))
    b = run_sweep(SWEEP_2A, str(tmp_path / "sweep"))
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_figure_2b_reciprocal_symmetry(tmp_path):
    header, data = _read_table(run_figure("2b", str(tmp_path)))
    assert header == ["t", "P1_1e", "P2_1e", "P1_2e", "P2_2e"]
    p1_first = data[:, 1]
    p2_second = data[:, 4]
    assert np.abs(p1_first - p2_second).max() <= 1e-12


def test_figure_presets_are_built_once(tmp_path):
    # The preset table is cached; the dict a caller gets from figure_trajectory_runs is its own.
    (tmp_path / "first").mkdir()
    (tmp_path / "second").mkdir()
    first = Path(run_figure("2b", str(tmp_path / "first"))).read_bytes()
    runs = figure_trajectory_runs()
    expected = dict(runs)
    runs["2b"] = runs.pop("3a")
    assert figure_trajectory_runs() == expected
    assert Path(run_figure("2b", str(tmp_path / "second"))).read_bytes() == first
    assert experiments._figure_presets() is experiments._figure_presets()


def test_figure_3a_one_way_entanglement(tmp_path):
    header, data = _read_table(run_figure("3a", str(tmp_path)))
    assert header == ["t", "C_1e", "C_2e"]
    assert np.abs(data[:, 2]).max() <= 1e-9
    assert data[:, 1].max() > 0.1


def test_figure_5c_dark_state_column(tmp_path):
    header, data = _read_table(run_figure("5c", str(tmp_path)))
    assert header[0] == "t" and len(header) == 17
    minus_col = header.index("P_minus_from_minus")
    np.testing.assert_allclose(data[:, minus_col], 1.0, atol=1e-8)


def test_figure_6a_collective_headers(tmp_path):
    header, data = _read_table(run_figure("6a", str(tmp_path)))
    assert header == ["t", "P_E", "P_plus", "P_minus", "P_G"]
    assert abs(data[-1, 0] - 50.0) <= 1e-9
