import importlib.util
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dissipair
from dissipair import cli, dynamics, errors, experiments
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


def test_evolve_negativity_in_a_later_block_leaves_no_file(tmp_path, monkeypatch, capsys):
    # Minus a weak decay dissipator keeps the trace but drains |gg> from |eg>: P_gg = 1 - e^(eps t) passes
    # -1e-6 between samples 28 and 29.  100 samples make block starts of 10, and blocks of 4 rows span two
    # of them, so the first block (samples 0-20) is written before the check fails on the second (21-40),
    # which names its lowest eigenvalue, at its last sample.
    gen = -3.5e-6 * dissipair.build_liouvillian(np.zeros((4, 4)), [dissipair.sigma_minus(1)])
    monkeypatch.setattr(experiments, "liouvillian_from_params", lambda params: gen)
    monkeypatch.setattr(dynamics, "_RUN_BLOCK_ROWS", 4)
    cfg = _config(tmp_path, "initial = EG\nt_max = 1\ndt = 0.01\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert "negativity -1.400e-06 at sample 40 exceeds" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Spawns argv[1:] with stdout discarded and prints its exit code and peak RSS in kilobytes.  Linux carries
# the spawning process's peak into the child's ru_maxrss at exec, so a launcher without numpy spawns the
# run, not the far larger test process.
_PEAK_RSS = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _exit_code_and_peak_mb(*argv):
    """`python -m dissipair argv` with this checkout's package: its exit code and peak RSS in MB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "dissipair", *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak_kb = map(int, done.stdout.split())
    return code, peak_kb / 1024.0


def test_evolve_memory_stays_bounded(tmp_path):
    # 1e5 driven samples pass through in row blocks: the run's peak RSS stays far below the ~110 MB that
    # holding every sample as a 4x4 complex state took.
    cfg = _config(tmp_path, ISO_LINES + "drive_target = 1\ndrive_amplitude = 0.727272727272727\n"
                  "t_max = 200\ndt = 0.002\noutputs = populations, collective\n")
    code, peak_mb = _exit_code_and_peak_mb("evolve", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trajectory.csv").stat().st_size > 0
    assert peak_mb < 100.0, f"peak RSS {peak_mb:.1f} MB"


def test_sweep_memory_stays_bounded(tmp_path):
    # A 1000 x 1000 delta_F grid is evaluated and written in blocks of at most 1 024 cells: about 31 MB peak
    # RSS, against 111 MB when the whole grid was evaluated at once.
    cfg = _config(tmp_path, "axis1_name = Gamma\naxis1_min = 0\naxis1_max = 4\naxis1_count = 1000\n"
                  "axis2_name = phi\naxis2_min = 0\naxis2_max = 6.283185307179586\naxis2_count = 1000\n"
                  "observable = delta_F\n")
    code, peak_mb = _exit_code_and_peak_mb("sweep", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sweep.csv").stat().st_size > 0
    assert peak_mb < 60.0, f"peak RSS {peak_mb:.1f} MB"


def test_evolve_missing_config_exit_code(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "absent.cfg")]) == 4


def test_evolve_unwritable_output_exit_code(tmp_path):
    cfg = _config(tmp_path, ISO_LINES + "t_max = 0.1\ndt = 0.002\noutput_path = missing_dir/out.csv\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_figure_command(tmp_path):
    assert main(["figure", "2b", "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "fig2b.csv", delimiter=",", skiprows=1)
    assert data.shape == (2501, 5)


_PINNED_FIGURE = """
import os, sys
if sys.argv[2] == "pinned":  # before the import: one CPU, so no concurrence batch is split
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from dissipair.cli import main
sys.exit(main(["figure", "4a", "--out", sys.argv[1]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_figure_bytes_do_not_depend_on_the_core_count(tmp_path):
    # The driven figure's concurrence batches are split over the process's CPUs: pinned to one it writes the same
    # bytes as with every CPU the host gives it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    for mode in ("pinned", "free"):
        (tmp_path / mode).mkdir()
        done = subprocess.run([sys.executable, "-c", _PINNED_FIGURE, str(tmp_path / mode), mode],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "pinned" / "fig4a.csv").read_bytes() == (tmp_path / "free" / "fig4a.csv").read_bytes()


def test_figure_unknown_id_exit_code(tmp_path):
    assert main(["figure", "8q", "--out", str(tmp_path)]) == 2


def test_steady_command(tmp_path, capsys):
    cfg = _config(tmp_path, ISO_LINES + "drive_target = 1\ndrive_amplitude = 0.727272727272727\n")
    assert main(["steady", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "unique: yes" in out
    assert "concurrence: 0.2" in out


def test_steady_command_prints_no_negative_zero(tmp_path, capsys):
    # At this scale the stationary state is |gg> with P1 = rho_00 + rho_11 summing to -0 in floats.
    cfg = _config(tmp_path, "J = 1e200\nGamma = 1e200\nphi = 1\n")
    assert main(["steady", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["P1: 0", "P2: 0", "concurrence: 0", "P_E: 0", "P_plus: 0", "P_minus: 0", "P_G: 1"]


def test_steady_command_at_rates_near_the_float_limit(tmp_path, capsys):
    # At J = Gamma = Omega = 1e300 the residual ||R x|| overflows; taken on R / max |R_ij| it does not, so the
    # state is accepted with no numpy warning, and it is the J = Gamma = Omega = 1 model's, whose scale it ignores.
    values = []
    for rate in ("1", "1e300"):
        cfg = _config(tmp_path, f"J = {rate}\nGamma = {rate}\nphi = 4.712388980384690\ndrive_target = 1\n"
                      f"drive_amplitude = {rate}\n")
        assert main(["steady", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "unique: yes" and lines[1].startswith("spectral_gap: ")
        values.append([float(line.split(": ")[1]) for line in lines[2:]])
    np.testing.assert_allclose(values[1], values[0], rtol=0.0, atol=1e-15)


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


def test_isolation_near_the_float_limit(capsys):
    # F12 + F21 overflows; delta_F is 0.386998513947972 at 15 digits (mpmath), not 0, and nothing warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["isolation", "--J", "1e308", "--Gamma", "1e308", "--phi", "1"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("delta_F = ")[1]) - 0.386998513947972) <= 2e-15
        # A force that is not finite is refused: exit 2, no output.
        assert main(["isolation", "--J", "1.7e308", "--Gamma", "1e308", "--phi", "1.5707963267948966"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: F12 must be finite, got inf\n")


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


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: scipy is a test oracle, so block it and write a preset.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    probe = ("import sys; sys.modules['scipy'] = None\n"
             "from dissipair.cli import main\n"
             "sys.exit(main(['figure', '2c', '--out', sys.argv[1]]))")
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fig2c.csv").read_text().count("\n") == 2502


def test_compare_presets_refuses_a_bad_tree(tmp_path, capsys):
    # A bad tree exits 2, not 1 ("presets differ"): a checkout root passed in place of its src before anything
    # is written, and a package that fails to write the presets.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_presets.py")
    spec = importlib.util.spec_from_file_location("compare_presets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    broken = tmp_path / "broken"
    (broken / "dissipair").mkdir(parents=True)
    (broken / "dissipair" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    for tree, message in ((tmp_path, "holds no dissipair/__init__.py; pass the src of a checkout"),
                          (broken, "writing the presets failed with exit code 1")):
        assert tool.main([str(tree), str(broken)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"compare_presets: {tree}: {message}\n"
