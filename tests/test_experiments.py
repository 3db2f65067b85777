import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dissipair import experiments, model
from dissipair.dynamics import TimeGrid, liouvillian_from_params, steady_state
from dissipair.errors import IoError, ParseError, UnknownPresetError, ValidationError
from dissipair.experiments import (
    SWEEP_2A,
    SWEEP_AXES,
    AxisSpec,
    ExperimentConfig,
    SweepConfig,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_figure,
    run_sweep,
    write_csv,
)
from dissipair.observables import concurrence, damping_forces

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
        with pytest.raises(ParseError):
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
        with pytest.raises((ValidationError, ParseError)):
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


_CSV_CELLS = (
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e300, -1e300, 0.1, 1.0 / 3.0])
    | st.integers(-(10**16), 10**16).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(0, 1300), cols=st.integers(1, 17), cells=st.lists(_CSV_CELLS, min_size=1, max_size=64))
def test_write_csv_matches_per_cell_format(tmp_path, rows, cols, cells):
    # Row counts cross the writer's block boundary; the reference formats
    # every numpy cell on its own, one line per row.
    table = np.resize(np.array(cells, dtype=float), (rows, cols))
    header = [f"c{k}" for k in range(cols)]
    expected = ",".join(header) + "\n" + "".join(",".join("%.15g" % x for x in row) + "\n" for row in table)
    path = tmp_path / "table.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == expected.encode("ascii")


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


def test_run_sweep_steady_concurrence_blocks_write_the_same_bytes(tmp_path, monkeypatch):
    config = SweepConfig(
        AxisSpec("drive_amplitude", 0.0, 1.0, 3), AxisSpec("phi", 0.0, 2.0 * math.pi, 5), "steady_concurrence",
        base=model.ModelParams(J=1.0, Gamma=2.0, drive=model.Drive(target=2, amplitude=0.5)),
    )
    (tmp_path / "one").mkdir()
    (tmp_path / "fours").mkdir()
    run_sweep(config, str(tmp_path / "one"))
    monkeypatch.setattr(experiments, "_SWEEP_BLOCK_CELLS", 4)
    run_sweep(config, str(tmp_path / "fours"))
    assert (tmp_path / "fours" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()
    _, data = _read_table(tmp_path / "fours" / "sweep.csv")
    # The undriven row keeps its dark states at phi = 0, pi and 2 pi; the last block holds three cells.
    assert data[:, 3].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0] + [0.0] * 10


def _per_cell_text(header, table):
    """The reference writer: every numpy cell formatted on its own, one line per row."""
    return (",".join(header) + "\n" + "".join(",".join("%.15g" % x for x in row) + "\n" for row in table)).encode()


# Axis bounds per name: J takes negative bounds and an upper bound of -0.0, which prints as -0.
_AXIS_BOUNDS = {
    "J": [(-2.0, -0.0), (-1.25, 0.75), (-0.0, 1.5), (0.1, 3.0)],
    "phi": [(0.0, 2.0 * math.pi), (-math.pi, math.pi), (1.0, 1.5 * math.pi)],
    "Gamma": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3)],
    "kappa": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3)],
    "drive_amplitude": [(0.0, 4.0), (0.5, 2.0), (1e-3, 1e3)],
}


@st.composite
def _sweep_configs(draw):
    observable = draw(st.sampled_from(["delta_F", "steady_concurrence"]))
    name1, name2 = draw(st.permutations(SWEEP_AXES))[:2]
    if observable == "delta_F":  # cheap cells: more than one 512-row block per axis1 value
        count2 = draw(st.integers(2, 40) | st.integers(510, 515) | st.integers(1020, 1100))
    else:
        count2 = draw(st.integers(2, 12) | st.integers(510, 515))
    axis1 = AxisSpec(name1, *draw(st.sampled_from(_AXIS_BOUNDS[name1])), draw(st.integers(2, 4)))
    axis2 = AxisSpec(name2, *draw(st.sampled_from(_AXIS_BOUNDS[name2])), count2)
    drive = draw(st.sampled_from([None, model.Drive(1, 0.6), model.Drive(2, 0.6)]))
    base = model.ModelParams(J=0.8, Gamma=1.5, phi=draw(st.sampled_from([0.0, math.pi, 1.5 * math.pi])), drive=drive)
    return SweepConfig(axis1, axis2, observable, base=base, output_path="sweep.csv")


# Undriven and at phi = 0, pi and 2 pi, the zero-amplitude row keeps dark states: degenerate cells.
_DEGENERATE_SWEEP = SweepConfig(
    AxisSpec("drive_amplitude", 0.0, 1.0, 3), AxisSpec("phi", 0.0, 2.0 * math.pi, 513), "steady_concurrence",
    base=model.ModelParams(J=0.8, Gamma=1.5),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_sweep_configs())
@example(config=_DEGENERATE_SWEEP)
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
    with pytest.raises(UnknownPresetError):
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
