import contextlib
import errno
import importlib.util
import io
import math
import os
import platform
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dissipair
from dissipair import cli, dynamics, errors, experiments
from dissipair.cli import main
from dissipair.errors import IoError, NumericalError, ValidationError

from oracles import S1

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


def test_every_error_has_an_exit_code(tmp_path, capsys, monkeypatch):
    defined = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__]
    codes = {ValidationError: (2, "config error"), NumericalError: (3, "numerical error"), IoError: (4, "io error")}
    assert sorted(cls.__name__ for cls in defined) == sorted(cls.__name__ for cls in codes)
    # The config parser turns a converter's ValueError into a ValidationError, so a numerical one must not be one.
    assert not issubclass(NumericalError, ValueError)
    for cls, (code, prefix) in codes.items():
        def failing(figure_id, out_dir, cls=cls):
            raise cls("probe")

        monkeypatch.setattr(cli, "run_figure", failing)
        assert main(["figure", "2a", "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"{prefix}: probe\n"


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
    gen = -3.5e-6 * dissipair.build_liouvillian(np.zeros((4, 4)), [S1])
    monkeypatch.setattr(experiments, "liouvillian_from_params", lambda params: gen)
    monkeypatch.setattr(dynamics, "_RUN_BLOCK_ROWS", 4)
    cfg = _config(tmp_path, "initial = EG\nt_max = 1\ndt = 0.01\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert "negativity -1.400e-06 at sample 40 exceeds" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Spawns argv[1:] with stdout discarded and prints its exit code, peak RSS in kilobytes and minor page faults.
# Linux carries the spawning process's peak into the child's ru_maxrss at exec, so a launcher without numpy
# spawns the run, not the far larger test process.
_PEAK_RSS = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def _exit_code_peak_mb_and_faults(*argv):
    """`python -m dissipair argv` with this checkout's package: its exit code, peak RSS in MB and minor faults."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "dissipair", *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak_kb, faults = map(int, done.stdout.split())
    return code, peak_kb / 1024.0, faults


def test_evolve_memory_stays_bounded(tmp_path):
    # 1e5 driven samples pass through in row blocks: the run's peak RSS stays far below the ~110 MB that
    # holding every sample as a 4x4 complex state took.
    cfg = _config(tmp_path, ISO_LINES + "drive_target = 1\ndrive_amplitude = 0.727272727272727\n"
                  "t_max = 200\ndt = 0.002\noutputs = populations, collective\n")
    code, peak_mb, _ = _exit_code_peak_mb_and_faults("evolve", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trajectory.csv").stat().st_size > 0
    assert peak_mb < 100.0, f"peak RSS {peak_mb:.1f} MB"


def test_sweep_memory_stays_bounded(tmp_path):
    # A 1000 x 1000 delta_F grid is evaluated and written in blocks of at most 4 096 cells: about 32 MB peak
    # RSS (31 MB with blocks of 1 024), against 111 MB when the whole grid was evaluated at once.  Under glibc
    # the CLI keeps each block's freed temporaries for the next: about 5 000 minor faults for the whole process,
    # against 33 500 when glibc handed them back to the kernel after every block.
    cfg = _config(tmp_path, "axis1_name = Gamma\naxis1_min = 0\naxis1_max = 4\naxis1_count = 1000\n"
                  "axis2_name = phi\naxis2_min = 0\naxis2_max = 6.283185307179586\naxis2_count = 1000\n"
                  "observable = delta_F\n")
    code, peak_mb, faults = _exit_code_peak_mb_and_faults("sweep", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sweep.csv").stat().st_size > 0
    assert peak_mb < 60.0, f"peak RSS {peak_mb:.1f} MB"
    if platform.libc_ver()[0] == "glibc":
        assert faults < 15_000, f"{faults} minor page faults"


def test_heap_thresholds_are_set_once_per_process(tmp_path, monkeypatch, capsys):
    # The first main call sets glibc's trim (-1) and mmap (-3) thresholds; later calls, whatever they run or
    # however they end, set nothing again.
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._keep_freed_memory.cache_clear()
    try:
        assert main(["isolation", "--J", "1", "--Gamma", "2", "--phi", "1"]) == 0
        assert main(["figure", "8q", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--config", str(tmp_path / "absent.cfg")]) == 4
        assert calls == [(-1, 8 << 20), (-3, 4 << 20)]
        assert (mallopt.argtypes, mallopt.restype) == ((cli.ctypes.c_int,) * 2, cli.ctypes.c_int)
    finally:
        cli._keep_freed_memory.cache_clear()


@pytest.mark.parametrize("loader", ["raises", "no_mallopt"])
def test_cli_runs_where_mallopt_is_missing(tmp_path, monkeypatch, capsys, loader):
    # Without glibc (macOS, Windows, musl) loading the C library fails or finds no mallopt: the step does nothing
    # and says nothing, and every command ends with its usual exit code.
    def load(name):
        if loader == "raises":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    cli._keep_freed_memory.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["isolation", "--J", "1", "--Gamma", "2", "--phi", "4.712388980384690"]) == 0
            out, err = capsys.readouterr()
            assert "delta_F = -1" in out and err == ""
            assert main(["figure", "2b", "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err == ""
            assert main(["figure", "8q", "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith("config error: ")
    finally:
        cli._keep_freed_memory.cache_clear()


def test_evolve_missing_config_exit_code(tmp_path, capsys):
    # The message names the path once, with the OS's reason, and reads the same on every run.
    for absent, reason in ((tmp_path / "absent.cfg", errno.ENOENT), (tmp_path, errno.EISDIR)):
        errs = []
        for _ in range(2):
            assert main(["evolve", "--config", str(absent), "--out", str(tmp_path)]) == 4
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"io error: cannot read {absent}: {os.strerror(reason)}\n"


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    # An undecodable config is a config error naming the path and the offset of the first bad byte, not a
    # traceback; nothing is written.
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"J = 1\xff\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: cannot read {cfg}: byte 5 is not UTF-8 (invalid start byte)\n")
    assert list(out.iterdir()) == []


def test_config_with_a_byte_order_mark_reads_as_one_without(tmp_path, capsys):
    # A config saved with a UTF-8 byte-order mark prints what the same config without it prints.
    text = ISO_LINES + "drive_target = 2\ndrive_amplitude = 0.7\n"
    outputs = []
    for name, mark in (("plain.cfg", b""), ("marked.cfg", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(mark + text.encode("ascii"))
        assert main(["steady", "--config", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_config_with_a_byte_order_mark_names_the_file_offset_of_a_bad_byte(tmp_path, capsys):
    # The mark is 3 bytes: the bad byte after "J = 1" is at offset 8 of the file.
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfJ = 1\xff\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"config error: cannot read {cfg}: byte 8 is not UTF-8 (invalid start byte)\n")


def test_evolve_unwritable_output_exit_code(tmp_path):
    cfg = _config(tmp_path, ISO_LINES + "t_max = 0.1\ndt = 0.002\noutput_path = missing_dir/out.csv\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_a_failed_write_prints_the_same_text_each_time(tmp_path, capsys):
    # The output directory is a file: the message names the destination and the OS's reason, not the temporary
    # file's random name, so the same failing command prints the same stderr every time.
    out = tmp_path / "taken"
    out.write_text("x\n", encoding="ascii")
    errs = []
    for _ in range(2):
        assert main(["figure", "2b", "--out", str(out)]) == 4
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == f"io error: cannot write {out / 'fig2b.csv'}: {os.strerror(errno.ENOTDIR)}\n"
    assert out.read_text(encoding="ascii") == "x\n"


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


@pytest.mark.parametrize("phi", ["0", "4.71238898038469"])
def test_steady_command_at_subnormal_rates(tmp_path, capsys, phi):
    # Every rate near 1e-310 is subnormal; the state ignores the scale, so it is the rates-times-1 model's.
    values = []
    for scale in ("", "e-310"):
        cfg = _config(tmp_path, f"J = 1{scale}\nGamma = 2{scale}\nphi = {phi}\ndrive_target = 1\n"
                      f"drive_amplitude = {8.0 / 11.0}{scale}\n")
        assert main(["steady", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "unique: yes" and lines[1].startswith("spectral_gap: ")
        values.append([float(line.split(": ")[1]) for line in lines[1:]])
    np.testing.assert_allclose(values[1][1:], values[0][1:], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(values[1][0], 1e-310 * values[0][0], rtol=1e-9)


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


def test_steady_sweep_at_subnormal_rates(tmp_path, capsys):
    # The concurrence map over subnormal J and Gamma is the map over the same rates times 1e310.
    columns = []
    for scale in ("", "e-310"):
        text = (f"phi = 4.71238898038469\ndrive_target = 1\ndrive_amplitude = {8.0 / 11.0}{scale}\n"
                f"observable = steady_concurrence\naxis1_name = J\naxis1_min = 0.5{scale}\naxis1_max = 2{scale}\n"
                f"axis1_count = 4\naxis2_name = Gamma\naxis2_min = 1{scale}\naxis2_max = 3{scale}\naxis2_count = 5\n"
                f"output_path = map{scale}.csv\n")
        assert main(["sweep", "--config", _config(tmp_path, text), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        columns.append(np.loadtxt(tmp_path / f"map{scale}.csv", delimiter=",", skiprows=1)[:, 2])
    assert columns[0].max() > 0.4
    np.testing.assert_allclose(columns[1], columns[0], rtol=0.0, atol=1e-9)


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


@pytest.mark.parametrize("which", ["axis1", "axis2"])
def test_sweep_drive_axis_without_a_target_exit_code(tmp_path, capsys, which):
    # A drive_amplitude axis with no drive_target is refused, as the plain key is, rather than driving qubit 1
    # unasked; nothing is written and an existing file stays.
    other = "axis2" if which == "axis1" else "axis1"
    text = (f"J = 1\nGamma = 2\nobservable = steady_concurrence\n{which}_name = drive_amplitude\n{which}_min = 0\n"
            f"{which}_max = 2\n{which}_count = 3\n{other}_name = phi\n{other}_min = 0\n{other}_max = 3.14\n"
            f"{other}_count = 3\noutput_path = grid.csv\n")
    (tmp_path / "grid.csv").write_bytes(b"old\n")
    assert main(["sweep", "--config", _config(tmp_path, text, name="sweep.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {which}_name = drive_amplitude given without drive_target\n")
    assert (tmp_path / "grid.csv").read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["grid.csv", "sweep.cfg"]
    # With a target it runs.
    assert main(["sweep", "--config", _config(tmp_path, "drive_target = 2\n" + text, name="sweep.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1).shape == (9, 4)


@pytest.mark.parametrize("key, value, which", [("J", "5", "axis1"), ("drive_amplitude", "0.3", "axis2")])
def test_sweep_key_that_an_axis_sweeps_exit_code(tmp_path, capsys, key, value, which):
    # A model key that an axis also sweeps is refused, as a duplicated key is, rather than dropped without a word;
    # the message names the key's line.  Nothing is written and an existing file stays.
    axes = {"axis1": ("J", 0, 2), "axis2": ("drive_amplitude", 0, 1)}
    text = f"Gamma = 2\ndrive_target = 1\n{key} = {value}\n" + "".join(
        f"{axis}_name = {name}\n{axis}_min = {lo}\n{axis}_max = {hi}\n{axis}_count = 3\n"
        for axis, (name, lo, hi) in axes.items()) + "observable = delta_F\noutput_path = grid.csv\n"
    (tmp_path / "grid.csv").write_bytes(b"old\n")
    assert main(["sweep", "--config", _config(tmp_path, text, name="sweep.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"config error: line 3: {key} is also swept by {which}_name\n")
    assert (tmp_path / "grid.csv").read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["grid.csv", "sweep.cfg"]
    # Without the key it runs.
    unswept = text.replace(f"{key} = {value}\n", "")
    assert main(["sweep", "--config", _config(tmp_path, unswept, name="sweep.cfg"), "--out", str(tmp_path)]) == 0
    assert np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1).shape == (9, 3)


def test_sweep_non_finite_axis_exit_code(tmp_path, capsys):
    cases = (
        ("axis1_max = inf\naxis2_min = 0\naxis2_max = 3.14\n", "Gamma axis max must be finite, got inf"),
        # Finite bounds whose span overflows: refused without numpy's overflow warnings.
        ("axis1_max = 4\naxis2_min = -1e308\naxis2_max = 1e308\n", "phi axis max - min must be finite, got inf"),
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
    # call, and the RK4 step guard sees a non-finite norm on evolve.  No numpy
    # warning comes first: pytest would raise it here.
    cfg = _config(tmp_path, "J = 1.0\nGamma = 1e308\nphi = 4.71\nt_max = 0.1\ndt = 0.002\n")
    assert main(["steady", "--config", cfg]) == 3
    assert "the generator is not finite" in capsys.readouterr().err
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "not finite" in capsys.readouterr().err


# t_max = 0.004 at dt = 1e-300, every second step: 2e297 samples, which np.empty once refused with a traceback.
HUGE_GRID = "t_max = 0.004\ndt = 1e-300\nsample_every = 2\n"
# A finite generator whose row sums overflow: the step bound's sum once printed numpy's overflow warning.
OVERFLOWING_BOUND = "J = 1e5\ndrive_target = 2\ndrive_amplitude = 1.7e308\ndt = 1e-300\nt_max = 1e-299\n"


def test_a_grid_beyond_the_sample_ceiling_exit_code(tmp_path, capsys):
    cfg = _config(tmp_path, HUGE_GRID)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: t_max 0.004, dt 1e-300 and sample_every 2 would store 2e+297 "
                                       "samples, above the ceiling of 1000000000\n")
    # The ceiling is on stored samples: 1e9 of them pass, one more does not, and neither allocates anything.
    assert dynamics.TimeGrid(999_999_999.0, 1.0).n_samples == dynamics.MAX_SAMPLES == 10**9
    assert dynamics.TimeGrid(2 * 999_999_999.0, 1.0, 2).n_samples == 10**9
    with pytest.raises(ValidationError, match="^t_max 1000000000.0, dt 1.0 and sample_every 1 would store 1000000001 "):
        dynamics.TimeGrid(1_000_000_000.0, 1.0)
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


def test_an_overflowing_step_bound_prints_one_line(tmp_path, capsys):
    # pytest turns a RuntimeWarning into an error, so the warning that once came first would escape here.
    cfg = _config(tmp_path, OVERFLOWING_BOUND)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical error: dt * ||R||_inf is inf: the generator is not finite\n"


# A stride far beyond the last step, and few samples of more steps than int64 holds: the int64 product of sample
# index and stride once ended both in a traceback.  Then sweep axis counts above what np.linspace allocates, what an
# index names, and what memory holds.
HUGE_STRIDE = "J = 1\nt_max = 0.02\ndt = 0.01\nsample_every = 100000000000000000000000\n"
HUGE_STEP_COUNT = "J = 0\nt_max = 1e20\ndt = 1\nsample_every = 10000000000000000000\n"
HUGE_AXIS_COUNTS = ("100000000000000000000", "9223372036854775808", "10000000000000")


def _huge_axis(count):
    return (f"observable = delta_F\naxis1_name = J\naxis1_min = 0\naxis1_max = 1\naxis1_count = {count}\n"
            "axis2_name = phi\naxis2_min = 0\naxis2_max = 1\naxis2_count = 2\n")


def test_a_stride_beyond_the_last_step_stores_what_the_last_step_does(tmp_path):
    for name, text in (("huge", HUGE_STRIDE), ("two", HUGE_STRIDE.replace("= 100000000000000000000000", "= 2"))):
        text += f"output_path = {name}.csv\n"
        assert main(["evolve", "--config", _config(tmp_path, text), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "two.csv").read_text().splitlines()[0::2] == ["t,P1,P2,C,P_E,P_plus,P_minus,P_G",
                                                                     "0.02,0.999600053331111,0.000399946668888867,"
                                                                     "0.0399893341333156,0,0.5,0.5,0"]
    assert dynamics.TimeGrid(0.02, 0.01, 10**23).sample_steps().tolist() == [0, 2]


def test_a_step_count_beyond_the_ceiling_exit_code(tmp_path, capsys):
    cfg = _config(tmp_path, HUGE_STEP_COUNT)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: t_max 1e+20 and dt 1.0 make 1e+20 steps, above the ceiling of "
                                       "4611686018427387904\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]
    # 2**62 steps pass, and their last sample's step fits in int64 whatever the stride; the next float does not.
    for every in (2**61, 2**62 - 1, 10**30):
        assert dynamics.TimeGrid(2.0**62, 1.0, every).sample_steps()[-1] == dynamics.MAX_STEPS == 2**62
    with pytest.raises(ValidationError, match="make 4.61168601842739e[+]18 steps, above the ceiling"):
        dynamics.TimeGrid(2.0**62 + 1024, 1.0, 2**61)


@pytest.mark.parametrize("count", HUGE_AXIS_COUNTS)
def test_an_axis_count_beyond_the_ceiling_exit_code(tmp_path, capsys, count):
    cfg = _config(tmp_path, _huge_axis(count))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"config error: J axis count must be an integer from 2 to 1000000000, "
                                       f"got {count}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]
    message = "^phi axis count must be an integer from 2 to 1000000000, got 1000000001$"
    with pytest.raises(ValidationError, match=message):
        experiments.AxisSpec("phi", 0.0, 1.0, dynamics.MAX_SAMPLES + 1)


# Runs the CLI on argv[1:] within a 1 GB address space, with one BLAS thread so that its buffers fit too.
_IN_ONE_GB = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from dissipair.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_config_error_behind_a_large_axis_is_reported_as_such(tmp_path):
    # The axis's finiteness is read off its bounds: a 3e8-value axis is not built (2.24 GiB) before the unknown
    # key is found, which used to exit 4 with "out of memory" within 1 GB.
    cfg = _config(tmp_path, _huge_axis(300_000_000) + "omega0 = 5\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    done = subprocess.run([sys.executable, "-c", _IN_ONE_GB, "sweep", "--config", cfg, "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "config error: unknown key 'omega0' (line 10)\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


# Values for the config fuzz: each key takes a plain value, or now and then an odd one.  Odd values are the edges
# of the float range, non-finite and malformed text, and for text keys the names the parser refuses.
_EDGES = ("0", "-0", "5e-324", "1e-300", "1e-170", "1e300", "1.7e308", "nan", "inf", "-inf", "1_0", "  0.5  ", "x")
_ODD = {
    "drive_target": ("3", "0", "1_0", " 2 ", "nan"),
    "initial": (" GE ", "MINUS", "ZZ"),
    "sample_every": ("1_0", "0", "-1", "1.5", " 3 ", "100000000000000000000000", "10000000000000000000"),
    "outputs": ("collective , populations", "populations,", "spin"),
    "output_path": ("  out.csv  ", "missing/out.csv"),
    "observable": (" delta_F ", "entropy"),
    "axis1_name": ("kappa", "drive_amplitude", "omega"),
    "axis1_count": ("1_0", "1", "0", "2.5", "nan", *HUGE_AXIS_COUNTS),
}
_PLAIN = {
    "J": ("1", "0.5", "0"), "Gamma": ("2", "1", "0"), "phi": ("4.71238898038469", "3.141592653589793", "0"),
    "kappa": ("0", "0.3"), "drive_target": ("1", "2"), "drive_amplitude": ("0.7", "0"), "initial": ("EG", "PLUS"),
    "t_max": ("1", "0.1"), "dt": ("0.002", "0.01"), "sample_every": ("1", "3"),
    "outputs": ("populations", "concurrence, states"), "output_path": ("out.csv",),
    "observable": ("delta_F", "steady_concurrence"), "axis1_name": ("phi", "J"), "axis2_name": ("Gamma", "kappa"),
    "axis1_min": ("0", "-1"), "axis1_max": ("1", "2"), "axis1_count": ("2", "3"),
}
for _part in ("min", "max", "count"):
    _PLAIN[f"axis2_{_part}"] = _PLAIN[f"axis1_{_part}"]
_ODD.update(axis2_name=_ODD["axis1_name"], axis2_count=_ODD["axis1_count"])
_MODEL_KEYS = ("J", "Gamma", "phi", "kappa", "drive_target", "drive_amplitude")
_RUN_KEYS = _MODEL_KEYS + ("initial", "t_max", "dt", "sample_every", "outputs", "output_path")
_AXIS_KEYS = tuple(f"axis{n}_{part}" for n in (1, 2) for part in ("name", "min", "max", "count"))
_PREFIXES = {2: "config error: ", 3: "numerical error: ", 4: "io error: "}
_FUZZ_SAMPLES = 3000  # the most stored samples a generated evolve config may ask for


@st.composite
def _cli_configs(draw):
    """A command and its config text: keys drawn from those the command reads (a sweep's axes and observable are
    dropped only now and then), plain values or now and then odd ones, and now and then an unknown or a duplicated
    key."""
    command = draw(st.sampled_from(("evolve", "steady", "sweep")))
    if command == "sweep":
        keys = [key for key in ("observable",) + _AXIS_KEYS if draw(st.integers(0, 19)) < 19]
        keys += draw(st.lists(st.sampled_from(_MODEL_KEYS + ("output_path",)), unique=True, max_size=3))
    else:
        keys = draw(st.lists(st.sampled_from(_RUN_KEYS), unique=True))
    if keys and draw(st.integers(0, 19)) == 19:
        keys.append(draw(st.sampled_from(keys)))
    if draw(st.integers(0, 19)) == 19:
        keys.append("omega0")
    values = [draw(st.sampled_from(_ODD.get(key, _EDGES) if draw(st.integers(0, 4)) == 4 else _PLAIN.get(key, _EDGES)))
              for key in keys]
    return command, "".join(f"{key} = {value}\n" for key, value in zip(keys, values))


def _stored_samples(text):
    """The samples an evolve config's grid would store if it were valid, or 0 when its grid keys do not parse."""
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    try:
        t_max, dt = float(entries.get("t_max", 5.0)), float(entries.get("dt", 0.002))
        every = int(entries.get("sample_every", 1))
        return abs(t_max / dt) / max(every, 1) if dt else 0.0
    except (ValueError, OverflowError):
        return 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=_cli_configs())
@example(config=("evolve", HUGE_GRID))
@example(config=("evolve", OVERFLOWING_BOUND))
@example(config=("evolve", HUGE_STRIDE))
@example(config=("evolve", HUGE_STEP_COUNT))
@example(config=("sweep", _huge_axis(HUGE_AXIS_COUNTS[0])))
@example(config=("sweep", _huge_axis(HUGE_AXIS_COUNTS[1])))
@example(config=("sweep", _huge_axis(HUGE_AXIS_COUNTS[2])))
def test_cli_config_fuzz_keeps_to_its_exit_codes(config):
    # Every config exits 0, 2, 3 or 4 with no exception, and stderr is empty or one line with that code's prefix;
    # on exit 0 a CSV has its header and only finite cells.  A valid grid stays small, or the test would integrate it.
    command, text = config
    assume(command != "evolve" or not _FUZZ_SAMPLES < _stored_samples(text) <= dynamics.MAX_SAMPLES)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "call.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--config", path] + ([] if command == "steady" else ["--out", out])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert code in _PREFIXES and err.startswith(_PREFIXES[code]) and err.count("\n") == 1 \
                and err.endswith("\n"), (code, err)
        if code == 0 and command == "steady":  # "unique: yes", then a finite number a line
            assert all(math.isfinite(float(line.split(": ")[1])) for line in stdout.getvalue().splitlines()[1:])
        elif code == 0:
            written = stdout.getvalue().removeprefix("wrote ").removesuffix("\n")
            with open(written, encoding="ascii") as fh:
                header, *rows = fh.read().splitlines()
            assert header.startswith("t," if command == "evolve" else "axis1,axis2,value") and rows
            cells = np.array([row.split(",") for row in rows], dtype=float)
            assert cells.shape[1] == header.count(",") + 1 and np.isfinite(cells).all()


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


def _compare_presets():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_presets.py")
    spec = importlib.util.spec_from_file_location("compare_presets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_presets_names_the_cell_that_moved_most(tmp_path):
    # The report gives the largest |difference| with its data row, column and both texts, so that one cell can be
    # checked without writing either table again; the tolerance decides whether it passes.
    tool = _compare_presets()
    (tmp_path / "old.csv").write_text("t,C\n0,0.5\n0.1,0.25\n0.2,1e-05\n", encoding="ascii")
    (tmp_path / "new.csv").write_text("t,C\n0,0.5\n0.1,0.2500000001\n0.2,1.1e-05\n", encoding="ascii")
    line = "2 of 6 cells changed, max |delta| 1e-06 at row 2 C 1e-05 -> 1.1e-05, in 1 columns: C"
    old, new = str(tmp_path / "old.csv"), str(tmp_path / "new.csv")
    assert tool.compare(old, new, 2e-6) == (line, True)
    assert tool.compare(old, new, 1e-7) == (line + "  ABOVE --tol 1e-07", False)
    assert tool.compare(old, old, 0.0) == ("identical", True)


def test_compare_presets_refuses_a_bad_tree(tmp_path, capsys):
    # A bad tree exits 2, not 1 ("presets differ"): a checkout root passed in place of its src before anything
    # is written, and a package that fails to write the presets.
    tool = _compare_presets()
    broken = tmp_path / "broken"
    (broken / "dissipair").mkdir(parents=True)
    (broken / "dissipair" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    for tree, message in ((tmp_path, "holds no dissipair/__init__.py; pass the src of a checkout"),
                          (broken, "writing the presets failed with exit code 1")):
        assert tool.main([str(tree), str(broken)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"compare_presets: {tree}: {message}\n"


def test_compare_presets_reports_each_writes_time_and_faults(tmp_path, monkeypatch):
    # Each write is reported with its wall time in ms, the minor page faults its process took during the call, and
    # the process's peak RSS in MB once it is done, which only rises from write to write.
    tool = _compare_presets()
    monkeypatch.setattr(tool, "FIGURES", ("2b", "3a"))
    monkeypatch.setattr(tool, "SWEEPS", {"small": "observable = delta_F\naxis1_name = J\naxis1_min = 0\n"
                                                  "axis1_max = 2\naxis1_count = 3\naxis2_name = phi\naxis2_min = 0\n"
                                                  "axis2_max = 1\naxis2_count = 4\n"})
    monkeypatch.setattr(tool, "EVOLVE", "J = 1\nGamma = 2\nt_max = 0.1\n")
    monkeypatch.setattr(tool, "STACKED", ("6c", (0.1, 0.002, 10)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    writes = tool.write_presets(src, str(tmp_path))
    assert sorted(writes) == ["2b", "3a", "evolve", "small", "stacked"]
    for ms, faults, peak_mb in writes.values():
        assert ms > 0.0 and type(faults) is int and faults >= 0 and peak_mb > 0.0
    peaks = [writes[name][2] for name in ("2b", "3a", "small", "evolve", "stacked")]
    assert peaks == sorted(peaks)
    tables = ["evolve.csv", "fig2b.csv", "fig3a.csv", "small.csv", "stacked.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted([*tables, "evolve.cfg", "small.cfg"])
