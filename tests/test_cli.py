"""End-to-end command line tests.

Each pipeline runs against files generated by the CLI itself inside a
temporary directory, and exit codes are checked for the documented
meanings: 0 success, 1 usage or configuration, 2 data, 3 convergence.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from spod import generators, io
from spod.cli import run_cli


@pytest.fixture(scope="module")
def wave_dir(tmp_path_factory):
    """Small wave dataset plus per-frame shift files and a run config."""
    base = tmp_path_factory.mktemp("wave")
    rc = run_cli(["generate", "wave", "--out", str(base),
                  "--m", "256", "--n", "32"])
    assert rc == 0
    d = io.read_shifts(str(base / "true_shifts.csv"))
    io.write_shifts(d[0:1], str(base / "d0.csv"))
    io.write_shifts(d[1:2], str(base / "d1.csv"))
    (base / "run.cfg").write_text("""[input]
snapshots = wave.snap

[spod]
r0 = 1,1
tol = 1e-8

[frame.0]
shifts = d0.csv

[frame.1]
shifts = d1.csv

[output]
directory = out
""")
    return base


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help(self):
        assert run_cli(["--help"]) == 0

    def test_unknown_flag(self, capsys):
        assert run_cli(["pod", "x.bin", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario(self):
        assert run_cli(["generate", "vortex", "--out", "x"]) == 1

    @pytest.mark.parametrize("argv", [["spod", "--config", "{cfg}"],
                                      ["--config", "{cfg}"]])
    def test_threads_flag_is_gone(self, wave_dir, capsys, argv):
        # candidates are solved one at a time: no flag sets a thread count
        argv = [a.format(cfg=wave_dir / "run.cfg") for a in argv]
        assert run_cli(argv + ["--threads", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: unrecognized arguments: --threads 2"]

    @pytest.mark.parametrize("argv", [
        ["pod", "{wave}", "--tol", "0"],
        ["pod", "{wave}", "--tol", "1.5"],
        ["generate", "wave", "--out", "{tmp}", "--m", "1"],
        ["generate", "wave", "--out", "{tmp}", "--n", "0"],
        ["generate", "crossing-fronts", "--out", "{tmp}", "--t-final", "5"],
        ["generate", "three-signal", "--out", "{tmp}", "--t-final", "5"],
        ["generate", "three-signal", "--out", "{tmp}", "--m", "0"],
        ["generate", "three-signal", "--out", "{tmp}", "--n", "0"],
    ])
    def test_bad_flag_value_is_usage_error(self, wave_dir, tmp_path, capsys,
                                           argv):
        argv = [a.format(wave=wave_dir / "wave.snap", tmp=tmp_path / "gen")
                for a in argv]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "gen").exists()

    def test_missing_snapshot_file_is_data_error(self, tmp_path, capsys):
        rc = run_cli(["pod", str(tmp_path / "missing.bin"), "--tol", "0.1"])
        assert rc == 2
        assert "data error" in capsys.readouterr().err


class TestGenerate:
    def test_wave_files(self, wave_dir):
        snaps = io.read_snapshots(str(wave_dir / "wave.snap"))
        assert snaps.data.shape == (512, 32)
        assert snaps.block_names() == ["density", "velocity"]
        d = io.read_shifts(str(wave_dir / "true_shifts.csv"))
        assert d.shape == (2, 32)

    def test_three_signal(self, tmp_path, capsys):
        rc = run_cli(["generate", "three-signal", "--out", str(tmp_path),
                      "--m", "64", "--n", "12"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("three-signal.snap")
        snaps = io.read_snapshots(out[0])
        assert snaps.data.shape == (64, 12)
        assert io.read_shifts(out[1]).shape == (3, 12)

    def test_crossing_fronts(self, tmp_path):
        rc = run_cli(["generate", "crossing-fronts", "--out", str(tmp_path),
                      "--m", "100", "--n", "20"])
        assert rc == 0
        snaps = io.read_snapshots(str(tmp_path / "crossing-fronts.snap"))
        assert snaps.data.shape == (200, 20)
        assert snaps.grid.boundary == "non-periodic"

    @pytest.mark.parametrize("scenario, flags, make", [
        ("wave", ["--t-final", "2"], lambda: (
            generators.wave_snapshots(generators.WaveParams(t_final=2.0)),
            generators.wave_shifts(generators.WaveParams(t_final=2.0)))),
        ("crossing-fronts", ["--m", "100", "--n", "20"], lambda:
            generators.crossing_fronts(
                generators.CrossingFrontsParams(m=100, n=20))),
        ("three-signal", ["--n", "12"],
         lambda: generators.three_signal_default(n=12)),
    ])
    def test_files_match_library_call(self, tmp_path, capsys, scenario,
                                      flags, make):
        # flags left out keep the library defaults, flags given override
        assert run_cli(["generate", scenario, "--out", str(tmp_path)]
                       + flags) == 0
        snap_path, shift_path = capsys.readouterr().out.splitlines()
        snaps, shifts = make()
        got = io.read_snapshots(snap_path)
        assert got.data.tobytes() == snaps.data.tobytes()
        assert got.time.values.tobytes() == snaps.time.values.tobytes()
        assert io.read_shifts(shift_path).tobytes() == shifts.d.tobytes()


class TestTrack:
    def test_peak_windows_recover_wave_shifts(self, tmp_path, capsys):
        # n = 64 keeps the two pulses separated except at j = 0 and 32,
        # where the window assignment still picks the right crest, so
        # the recovered shifts match the generating ones exactly
        rc = run_cli(["generate", "wave", "--out", str(tmp_path),
                      "--m", "256", "--n", "64"])
        assert rc == 0
        snap = str(tmp_path / "wave.snap")
        true = io.read_shifts(str(tmp_path / "true_shifts.csv"))
        capsys.readouterr()

        schedules = {0: "0:32@128:256,32:64@0:128",
                     1: "0:33@0:129,33:64@128:256"}
        for frame, windows in schedules.items():
            out = str(tmp_path / f"track{frame}.csv")
            rc = run_cli(["track", snap, "--block", "density",
                          "--statistic", "peak", "--windows", windows,
                          "--out", out])
            assert rc == 0
            got = io.read_shifts(out)[0]
            wrapped = (got - true[frame] + 0.5) % 1.0 - 0.5
            assert np.abs(wrapped).max() < 1e-12

    def test_unknown_block(self, wave_dir, capsys):
        rc = run_cli(["track", str(wave_dir / "wave.snap"),
                      "--block", "pressure", "--out", "x.csv"])
        assert rc == 2
        assert "no variable block" in capsys.readouterr().err

    def test_negative_smooth_is_config_error(self, small_wave, tmp_path,
                                             capsys):
        out = tmp_path / "d.csv"
        rc = run_cli(["track", small_wave, "--smooth", "-1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: smooth must be at least 0,"
                       " got -1"]
        assert not out.exists()

    # the last two leave the last snapshot uncovered or outside the grid,
    # which the default difference statistic has no column for
    @pytest.mark.parametrize("windows", ["0:99@0:10", "0:5@0:10", "0:15@0:10",
                                         "0:15@0:10,15:16@0:99"])
    def test_schedule_not_matching_data_is_data_error(self, small_wave,
                                                      tmp_path, capsys,
                                                      windows):
        out = tmp_path / "d.csv"
        rc = run_cli(["track", small_wave, "--windows", windows,
                      "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert not out.exists()

    def test_zero_block_is_data_error(self, tmp_path, capsys):
        # no front to track: neither spod track nor a [frame.N] recipe
        # may report success or write a shift file
        from spod.snapshots import Grid1D, SnapshotSet
        grid = Grid1D(32, 1.0 / 32, "periodic")
        io.write_snapshots(SnapshotSet(np.zeros((32, 6)), grid,
                                       np.arange(6.0)),
                           str(tmp_path / "zero.snap"))
        expected = ["data error: block is identically zero: no front to track"]
        for statistic in ("difference", "gradient", "peak"):
            out = tmp_path / f"{statistic}.csv"
            rc = run_cli(["track", str(tmp_path / "zero.snap"),
                          "--statistic", statistic, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err.splitlines() == expected
            assert not out.exists()
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[input]\nsnapshots = zero.snap\n\n[spod]\nr0 = 1\n\n"
                       "[frame.0]\ntrack = var0\n\n[output]\ndirectory = out\n")
        assert run_cli(["spod", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == expected
        assert not (tmp_path / "out").exists()

    def test_zero_window_is_data_error(self, tmp_path, capsys):
        # signal only in rows 0-7: the window [16, 32) holds no front
        from spod.snapshots import Grid1D, SnapshotSet
        grid = Grid1D(32, 1.0 / 32, "periodic")
        X = np.zeros((32, 6))
        X[:8] = np.arange(1.0, 49.0).reshape(8, 6)
        io.write_snapshots(SnapshotSet(X, grid, np.arange(6.0)),
                           str(tmp_path / "top.snap"))
        expected = ["data error: window [16, 32) is identically zero for"
                    " snapshots [0, 6): no front to track"]
        out = tmp_path / "d.csv"
        rc = run_cli(["track", str(tmp_path / "top.snap"), "--statistic",
                      "gradient", "--windows", "0:6@16:32", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == expected
        assert not out.exists()
        cfg = tmp_path / "top.cfg"
        cfg.write_text("[input]\nsnapshots = top.snap\n\n[spod]\nr0 = 1\n\n"
                       "[frame.0]\ntrack = var0\nwindows = 0:6@16:32\n\n"
                       "[output]\ndirectory = out\n")
        assert run_cli(["spod", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == expected
        assert not (tmp_path / "out").exists()

    def test_track_matches_config_recipe(self, tmp_path, capsys):
        # the README schedules: spod track and a [frame.N] recipe must
        # resolve the same shifts, sign included
        assert run_cli(["generate", "wave", "--n", "64",
                        "--out", str(tmp_path)]) == 0
        snap = str(tmp_path / "wave.snap")
        windows = ["0:32@512:1024,32:64@0:512", "0:33@0:513,33:64@512:1024"]
        frames = "".join(f"[frame.{l}]\ntrack = density\nstatistic = peak\n"
                         f"windows = {w}\n\n" for l, w in enumerate(windows))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[input]\nsnapshots = wave.snap\n\n[spod]\n"
                       f"r0 = 1,1\ntol = 1e-6\n\n{frames}")
        assert run_cli(["spod", "--config", str(cfg)]) == 0
        resolved = io.read_shifts(str(tmp_path / "resolved_shifts.csv"))
        for l, w in enumerate(windows):
            out = str(tmp_path / f"track{l}.csv")
            assert run_cli(["track", snap, "--statistic", "peak",
                            "--windows", w, "--out", out]) == 0
            assert np.array_equal(io.read_shifts(out)[0], resolved[l])


@pytest.fixture(scope="module")
def small_wave(tmp_path_factory):
    """A 64 x 16 wave snapshot file."""
    base = tmp_path_factory.mktemp("smallwave")
    assert run_cli(["generate", "wave", "--out", str(base),
                    "--m", "64", "--n", "16"]) == 0
    return str(base / "wave.snap")


@pytest.fixture(scope="module")
def full_wave(tmp_path_factory):
    base = tmp_path_factory.mktemp("fullwave")
    assert run_cli(["generate", "wave", "--out", str(base)]) == 0
    return str(base / "wave.snap")


class TestPod:
    def test_mode_count(self, full_wave, capsys):
        assert run_cli(["pod", full_wave, "--tol", "0.01"]) == 0
        assert "modes for tolerance 0.01: 124" in capsys.readouterr().out

    def test_mode_count_uncentered(self, full_wave, capsys):
        assert run_cli(["pod", full_wave, "--no-center", "--tol", "0.01"]) == 0
        assert "modes for tolerance 0.01: 124" in capsys.readouterr().out

    def test_curve_output(self, full_wave, tmp_path, capsys):
        curve = str(tmp_path / "curve.csv")
        assert run_cli(["pod", full_wave, "--curve", curve]) == 0
        lines = open(curve).read().splitlines()
        assert lines[0] == ("modes_kept,next_singular_value,"
                            "residual_energy_fraction,residual_norm_fraction")
        assert len(lines) == 258  # header + 0..256 modes kept

    def test_requires_tol_or_curve(self, full_wave, capsys):
        assert run_cli(["pod", full_wave]) == 1
        assert "give --tol and/or --curve" in capsys.readouterr().err


class TestSpodPipeline:
    def test_run_reconstruct_error(self, wave_dir, capsys):
        cfg = str(wave_dir / "run.cfg")
        rc = run_cli(["spod", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 0
        assert "termination: tolerance" in captured.out
        out = wave_dir / "out"
        for name in ("decomposition.bin", "report.json",
                     "resolved_shifts.csv", "manifest.cfg"):
            assert (out / name).exists()

        recon = str(wave_dir / "recon.snap")
        assert run_cli(["reconstruct", str(out / "decomposition.bin"),
                        "--out", recon]) == 0
        capsys.readouterr()
        assert run_cli(["error", str(wave_dir / "wave.snap"), recon]) == 0
        err = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert err < 1e-10

    def test_scaled_run_reconstructs_input_units(self, wave_dir, capsys):
        text = (wave_dir / "run.cfg").read_text().replace(
            "snapshots = wave.snap",
            "snapshots = wave.snap\nscale_variables = true").replace(
            "directory = out", "directory = scaled_out")
        cfg = wave_dir / "scaled.cfg"
        cfg.write_text(text)
        assert run_cli(["spod", "--config", str(cfg)]) == 0
        assert "variable scaling factors" in capsys.readouterr().err
        recon = str(wave_dir / "scaled_recon.snap")
        assert run_cli(["reconstruct",
                        str(wave_dir / "scaled_out" / "decomposition.bin"),
                        "--out", recon]) == 0
        capsys.readouterr()
        assert run_cli(["error", str(wave_dir / "wave.snap"), recon]) == 0
        err = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert err < 1e-10

    def test_bare_flags_mean_spod(self, wave_dir, capsys):
        assert run_cli(["--config", str(wave_dir / "run.cfg")]) == 0
        assert "termination: tolerance" in capsys.readouterr().out

    def test_manifest_rerun_is_bit_identical(self, wave_dir, capsys):
        cfg = str(wave_dir / "run.cfg")
        assert run_cli(["spod", "--config", cfg]) == 0
        out = wave_dir / "out"
        before = {name: (out / name).read_bytes()
                  for name in ("decomposition.bin", "report.json",
                               "resolved_shifts.csv", "manifest.cfg")}
        assert run_cli(["spod", "--config", str(out / "manifest.cfg")]) == 0
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name

    def test_unconverged_run_exits_3(self, wave_dir, capsys):
        strict = wave_dir / "strict.cfg"
        strict.write_text("""[input]
snapshots = wave.snap

[spod]
r0 = 1,1
tol = 1e-30
p_max = 0

[frame.0]
shifts = d0.csv

[frame.1]
shifts = d1.csv

[output]
directory = strict_out
""")
        rc = run_cli(["spod", "--config", str(strict)])
        assert rc == 3
        assert "iteration cap" in capsys.readouterr().out

    def test_capped_solve_warns_on_stderr_only(self, wave_dir, capsys):
        text = (wave_dir / "run.cfg").read_text().replace(
            "directory = out", "directory = capped_out")
        cfg = wave_dir / "capped.cfg"
        cfg.write_text(text + "\n[optimizer]\nmax_iters = 1\n")
        assert run_cli(["spod", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "termination", "relative error", "modes per frame"]
        assert lines[0] == "termination: tolerance"
        assert "warning: initial solve ended by iteration cap" in captured.err

    def test_rank_deficient_solve_warns_in_snapshot_solves(self, wave_dir,
                                                            capsys):
        # both frames read one shift file, so their modes coincide and
        # every frame matrix K_j is rank-deficient
        text = (wave_dir / "run.cfg").read_text().replace(
            "d1.csv", "d0.csv").replace("directory = out",
                                        "directory = twin_out")
        cfg = wave_dir / "twin.cfg"
        cfg.write_text(text.replace("tol = 1e-8", "tol = 1e-8\np_max = 0"))
        assert run_cli(["spod", "--config", str(cfg)]) == 3
        report = json.loads((wave_dir / "twin_out" / "report.json").read_text())
        stage = report["stages"][0]
        # the key counts snapshot solves: all 32 of every evaluation
        count = stage["rank_deficient_evals"]
        assert count == 32 * stage["evaluations"] > 0
        assert (f"warning: initial solve ended by {stage['termination']} with"
                f" {count} rank-deficient snapshot solves"
                in capsys.readouterr().err)

    def test_shift_length_mismatch_is_data_error(self, wave_dir, tmp_path,
                                                 capsys):
        io.write_shifts(np.zeros((1, 5)), str(tmp_path / "short.csv"))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"""[input]
snapshots = {wave_dir / 'wave.snap'}

[spod]
r0 = 1,1

[frame.0]
shifts = short.csv

[frame.1]
shifts = {wave_dir / 'd1.csv'}
""")
        assert run_cli(["spod", "--config", str(cfg)]) == 2

    def test_zero_snapshots_are_data_error(self, tmp_path, capsys):
        from spod.snapshots import Grid1D, SnapshotSet
        grid = Grid1D(32, 1.0 / 32, "periodic")
        io.write_snapshots(SnapshotSet(np.zeros((32, 6)), grid,
                                       np.arange(6.0)),
                           str(tmp_path / "zero.snap"))
        io.write_shifts(np.zeros((1, 6)), str(tmp_path / "d0.csv"))
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("""[input]
snapshots = zero.snap

[spod]
r0 = 1

[frame.0]
shifts = d0.csv
""")
        assert run_cli(["spod", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "data error: snapshot matrix is identically zero\n"

    @pytest.mark.parametrize("section,line", [
        ("spod", "tol = abc"), ("spod", "tol = -1"), ("spod", "threads = 0"),
        ("spod", "threads = 2"),
        ("spod", "degree = 2"), ("spod", "boundary = foo"),
        ("frame.1", "smooth = x"), ("frame.1", "smooth = -1"),
        ("optimizer", "memory = x"),
        ("optimizer", "curvature = 1e-5"), ("optimizer", "max_iter = 5"),
        ("spod", "tl = 5"), ("spod", "rank_tol = nan"),
        ("spod", "rank_tol = -1"), ("spod", "rank_tol = 1.5"),
        ("optimizer", "grad_tol = inf"), ("optimizer", "grad_tol = nan"),
        ("frame.0", "statistic = peak"), ("frame.0", "windows = 0:4@0:8"),
        ("frame.0", "smooth = 5"), ("frame.0", "boundary = periodic"),
        ("frame.0", "degree = 1"), ("spod", "warm_start = true"),
    ])
    def test_invalid_config_value_exits_1(self, wave_dir, capsys, section,
                                          line):
        text = (wave_dir / "run.cfg").read_text()
        header = f"[{section}]\n"
        text = (text.replace(header, header + line + "\n") if header in text
                else text + header + line + "\n")
        cfg = wave_dir / "bad_value.cfg"
        cfg.write_text(text)
        assert run_cli(["spod", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_unknown_tracked_block_is_config_error(self, wave_dir, capsys):
        text = (wave_dir / "run.cfg").read_text().replace(
            "shifts = d1.csv", "track = pressure")
        cfg = wave_dir / "bad_block.cfg"
        cfg.write_text(text)
        assert run_cli(["spod", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: frame 1: no variable block"
                       " 'pressure'"]

    def test_decomposition_without_shift_boundary_is_data_error(
            self, wave_dir, tmp_path, capsys):
        assert run_cli(["spod", "--config", str(wave_dir / "run.cfg")]) == 0
        data = (wave_dir / "out" / "decomposition.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.replace(b"shift_boundary=periodic\n", b""))
        capsys.readouterr()
        rc = run_cli(["reconstruct", str(bad), "--out",
                      str(tmp_path / "r.snap")])
        assert rc == 2
        assert "missing header key 'shift_boundary'" in capsys.readouterr().err

    def test_decomposition_with_a_spaced_block_name_is_data_error(
            self, wave_dir, tmp_path, capsys):
        # a name that every writer refuses fails at the read, not the write
        assert run_cli(["spod", "--config", str(wave_dir / "run.cfg")]) == 0
        data = (wave_dir / "out" / "decomposition.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.replace(b"blocks=density:", b"blocks=den sity:"))
        capsys.readouterr()
        rc = run_cli(["reconstruct", str(bad), "--out",
                      str(tmp_path / "r.snap")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: block name 'den sity'" in err  # refused by the reader
        assert "Traceback" not in err
        assert not (tmp_path / "r.snap").exists()

    def test_export_curves(self, wave_dir, capsys):
        cfg = str(wave_dir / "run.cfg")
        assert run_cli(["spod", "--config", cfg]) == 0
        capsys.readouterr()
        outdir = wave_dir / "curves"
        rc = run_cli(["export-curves", str(wave_dir / "wave.snap"),
                      "--report", str(wave_dir / "out" / "report.json"),
                      "--outdir", str(outdir)])
        assert rc == 0
        pod_lines = (outdir / "pod_curve.csv").read_text().splitlines()
        spod_lines = (outdir / "spod_curve.csv").read_text().splitlines()
        header = "modes,relative_error_energy,relative_error_norm"
        assert pod_lines[0] == header
        assert spod_lines[0] == header
        # the shifted decomposition reaches machine precision at the
        # two modes it starts from
        modes, energy, _ = spod_lines[1].split(",")
        assert modes == "2"
        assert float(energy) < 1e-10

    @pytest.mark.parametrize("text", [
        "{}", "[1]", '{"r0": 1}', '{"r0": [1, 1]}',
        '{"r0": [1, 1], "error_history": [[0.1]]}',
    ])
    def test_malformed_report_is_data_error(self, wave_dir, tmp_path, capsys,
                                            text):
        report = tmp_path / "report.json"
        report.write_text(text)
        rc = run_cli(["export-curves", str(wave_dir / "wave.snap"),
                      "--report", str(report), "--outdir", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not (tmp_path / "c").exists()


_COLD_START = textwrap.dedent("""
    import os
    import sys

    import numpy as np

    import spod
    from spod import io
    from spod.cli import run_cli

    assert "concurrent.futures" not in sys.modules, "spod.cli loaded a thread pool"
    out = sys.argv[1]
    snap = os.path.join(out, "wave.snap")
    assert run_cli(["generate", "wave", "--out", out, "--n", "8"]) == 0
    assert run_cli(["pod", snap, "--tol", "0.1"]) == 0
    snaps = io.read_snapshots(snap)
    dec = spod.Decomposition(
        [spod.FrameBasis(snaps.data[:, :1])], [np.ones((1, snaps.time.n))],
        spod.FrameShifts(np.zeros((1, snaps.time.n)), spod.ShiftSpec()),
        snaps.grid, list(snaps.blocks))
    io.write_decomposition(dec, os.path.join(out, "dec.bin"),
                           times=snaps.time.values)
    recon = os.path.join(out, "recon.snap")
    assert run_cli(["reconstruct", os.path.join(out, "dec.bin"),
                    "--out", recon]) == 0
    assert run_cli(["error", snap, recon]) == 0
    assert "scipy" not in sys.modules, "scipy loaded before any solve"

    def spod_run(name, shifts):
        # a greedy run on one shift file per frame
        lines = ["[input]", f"snapshots = {snap}", "[spod]", "r0 = 1,1",
                 "p_max = 0", "[output]", f"directory = {out}/{name}"]
        for l, row in enumerate(shifts):
            io.write_shifts(row, os.path.join(out, f"{name}{l}.csv"))
            lines += [f"[frame.{l}]", f"shifts = {name}{l}.csv"]
        with open(os.path.join(out, f"{name}.cfg"), "w") as f:
            f.write("\\n".join(lines) + "\\n")
        assert run_cli(["spod", "--config", os.path.join(out, f"{name}.cfg")]) == 0

    known = io.read_shifts(os.path.join(out, "true_shifts.csv"))
    assert np.all(known / snaps.grid.h % 1.0 == 0.0)
    spod_run("whole", known)  # node maps alone
    assert "scipy" not in sys.modules, "a whole-cell solve loaded scipy"
    spod_run("half", known + 0.5 * snaps.grid.h)
    assert "scipy.sparse" in sys.modules, "a fractional solve did not load scipy"
""")


def test_cold_start_loads_scipy_only_for_fractional_shifts(tmp_path):
    # scipy costs about half of a cold start; only the CSR shift operators
    # of fractional shifts need it, so no other command and no solve on
    # whole-cell shifts may import it, and the CLI loads no thread pool
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
