import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dissipair
from dissipair import cli, errors
from dissipair.cli import main
from dissipair.errors import CONFIG_ERRORS, NUMERIC_ERRORS, IoError

ISO_LINES = "J = 1.0\nGamma = 2.0\nphi = 4.712388980384690\n"


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_isolation_command(capsys):
    code = main(["isolation", "--J", "1", "--Gamma", "2", "--phi", "4.712388980384690"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta_F = -1" in out
    assert "F21 = 2" in out


def test_evolve_writes_trajectory(tmp_path):
    cfg = _config(tmp_path, ISO_LINES + "initial = EG\nt_max = 0.1\ndt = 0.002\noutput_path = out.csv\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    assert data.shape == (51, 8)


@pytest.mark.parametrize("entries, message", [
    ("Gamma = -1\n", "Gamma must be >= 0"),
    ("kappa = -0.1\n", "kappa must be >= 0"),
    ("drive_target = 1\ndrive_amplitude = -0.5\n", "drive amplitude must be >= 0"),
    ("drive_target = 3\n", "drive target must be 1 or 2"),
    ("omega0 = 5\n", "unknown key 'omega0'"),
    # 0.1 / 0.007 is not a whole number of steps: the last row would overshoot t_max.
    ("dt = 0.007\n", "t_max must be a whole multiple of dt"),
], ids=["Gamma", "kappa", "drive_amplitude", "drive_target", "omega0", "dt_off_grid"])
def test_evolve_config_error_exit_code(tmp_path, capsys, entries, message):
    cfg = _config(tmp_path, entries + "t_max = 0.1\noutput_path = out.csv\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_every_error_has_an_exit_code():
    defined = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__]
    assert IoError in defined
    mapped = (*CONFIG_ERRORS, *NUMERIC_ERRORS, IoError)
    assert [cls.__name__ for cls in defined if not issubclass(cls, mapped)] == []


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    for detail, shown in (("Unable to allocate 8 GiB", "Unable to allocate 8 GiB"), ("", "an allocation failed")):
        def exhausted(figure_id, out_dir, detail=detail):
            raise MemoryError(detail)

        monkeypatch.setattr(cli, "run_figure", exhausted)
        assert main(["figure", "2a", "--out", str(tmp_path)]) == 4
        # The whole of stderr: the message, and no traceback.
        assert capsys.readouterr().err == f"io error: out of memory: {shown}\n"


def test_evolve_numeric_error_exit_code(tmp_path):
    # dt passes validation but violates the integrator step bound
    cfg = _config(tmp_path, ISO_LINES + "t_max = 5\ndt = 0.5\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_evolve_missing_config_exit_code(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "absent.cfg")]) == 4


def test_evolve_unwritable_output_exit_code(tmp_path):
    cfg = _config(tmp_path, ISO_LINES + "t_max = 0.1\ndt = 0.002\noutput_path = missing_dir/out.csv\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_figure_command(tmp_path):
    assert main(["figure", "2b", "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "fig2b.csv", delimiter=",", skiprows=1)
    assert data.shape == (2501, 5)


def test_figure_unknown_id_exit_code(tmp_path):
    assert main(["figure", "8q", "--out", str(tmp_path)]) == 2


def test_steady_command(tmp_path, capsys):
    cfg = _config(tmp_path, ISO_LINES + "drive_target = 1\ndrive_amplitude = 0.727272727272727\n")
    assert main(["steady", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "unique: yes" in out
    assert "concurrence: 0.2" in out


def test_steady_degenerate_exit_code(tmp_path, capsys):
    # Undriven at phi = pi the antisymmetric state is dark: the stationary
    # manifold is degenerate, so no observables of an arbitrary element are printed.
    cfg = _config(tmp_path, "J = 1.0\nGamma = 2.0\nphi = 3.141592653589793\n")
    assert main(["steady", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "unique: no"
    assert captured.out.splitlines()[1].startswith("spectral_gap: ")
    assert len(captured.out.splitlines()) == 2
    assert "degenerate" in captured.err


def test_sweep_command(tmp_path):
    text = (
        "observable = delta_F\n"
        "axis1_name = Gamma\naxis1_min = 0\naxis1_max = 2\naxis1_count = 2\n"
        "axis2_name = phi\naxis2_min = 0\naxis2_max = 3.14\naxis2_count = 2\n"
        f"output_path = {tmp_path / 'grid.csv'}\n"
    )
    cfg = _config(tmp_path, text, name="sweep.cfg")
    assert main(["sweep", "--config", cfg]) == 0
    data = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
    assert data.shape == (4, 3)


def test_sweep_out_directory(tmp_path, capsys):
    text = (
        "observable = delta_F\n"
        "axis1_name = Gamma\naxis1_min = 0\naxis1_max = 2\naxis1_count = 2\n"
        "axis2_name = phi\naxis2_min = 0\naxis2_max = 3.14\naxis2_count = 2\n"
    )
    (tmp_path / "maps").mkdir()
    cfg = _config(tmp_path, text + "output_path = grid.csv\n", name="sweep.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "maps")]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'maps' / 'grid.csv'}\n"
    # An absolute output_path stays where it names.
    cfg = _config(tmp_path, text + f"output_path = {tmp_path / 'abs.csv'}\n", name="abs.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "maps")]) == 0
    assert (tmp_path / "abs.csv").exists() and not (tmp_path / "maps" / "abs.csv").exists()
    assert sorted(os.listdir(tmp_path / "maps")) == ["grid.csv"]


def test_sweep_non_finite_axis_exit_code(tmp_path, capsys):
    cases = (
        ("axis1_max = inf\naxis2_min = 0\naxis2_max = 3.14\n", "Gamma axis max must be finite, got inf"),
        # Finite bounds whose spacing overflows: refused without numpy's overflow warnings.
        ("axis1_max = 4\naxis2_min = -1e308\naxis2_max = 1e308\n", "phi axis values must be finite, got nan"),
    )
    for bounds, named in cases:
        text = (
            "observable = delta_F\n"
            "axis1_name = Gamma\naxis1_min = 0\naxis1_count = 2\n"
            f"axis2_name = phi\naxis2_count = 2\n{bounds}"
            f"output_path = {tmp_path / 'grid.csv'}\n"
        )
        cfg = _config(tmp_path, text, name="sweep.cfg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", cfg]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("field, value, named", [
    ("Gamma", "nan", "Gamma"),
    ("Gamma", "inf", "Gamma"),
    ("J", "nan", "J"),
    ("phi", "inf", "phi"),
    ("kappa", "nan", "kappa"),
    ("drive_amplitude", "nan", "amplitude"),
    ("t_max", "inf", "t_max"),
    ("dt", "nan", "dt"),
])
def test_evolve_non_finite_value_exit_code(tmp_path, capsys, field, value, named):
    entries = {"J": "1.0", "Gamma": "2.0", "phi": "4.71", "t_max": "0.1", "dt": "0.002",
               "drive_target": "1", "output_path": "out.csv", field: value}
    cfg = _config(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{named} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_steady_non_finite_gamma_exit_code(tmp_path):
    cfg = _config(tmp_path, "J = 1.0\nGamma = nan\nphi = 4.71\n")
    assert main(["steady", "--config", cfg]) == 2


def test_isolation_non_finite_exit_code(capsys):
    assert main(["isolation", "--J", "1", "--Gamma", "nan", "--phi", "1"]) == 2
    assert "Gamma must be finite" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli._parser.cache_clear()
    cfg = _config(tmp_path, ISO_LINES)
    assert main(["isolation", "--J", "1", "--Gamma", "2", "--phi", "4.712388980384690"]) == 0
    assert "delta_F = -1" in capsys.readouterr().out
    with pytest.raises(SystemExit) as bad:
        main(["steady", "--no-such-flag"])
    assert bad.value.code == 2
    assert main(["steady", "--config", cfg]) == 0
    assert "unique: yes" in capsys.readouterr().out
    assert main(["isolation", "--J", "1", "--Gamma", "2", "--phi", "1.5707963267948966"]) == 0
    assert "delta_F = 1" in capsys.readouterr().out
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # Importing the package builds nothing.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    probe = "import dissipair.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "0", done.stderr


def test_overflowing_generator_exit_code(tmp_path, capsys):
    # Finite, but the generator overflows: steady refuses it before any LAPACK
    # call, and the RK4 step guard sees a non-finite norm on evolve.
    cfg = _config(tmp_path, "J = 1.0\nGamma = 1e308\nphi = 4.71\nt_max = 0.1\ndt = 0.002\n")
    with np.errstate(all="ignore"):
        assert main(["steady", "--config", cfg]) == 3
        assert "the generator is not finite" in capsys.readouterr().err
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["dissipair", "dissipair.cli"])
def test_module_entry_point(tmp_path, module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", module, "figure", "2b", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = np.loadtxt(tmp_path / "fig2b.csv", delimiter=",", skiprows=1)
    assert data.shape == (2501, 5)
