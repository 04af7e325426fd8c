"""File format and configuration tests.

Binary snapshot files are checked against hand-assembled byte strings,
so the on-disk layout is pinned independently of the writer.  Round
trips must be exact: repr() text floats and raw float64 payloads carry
no rounding.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spod.core import Decomposition, FrameBasis, FrameShifts
from spod.greedy import GreedyConfig, GreedyReport
from spod.io import (
    ConfigError,
    FormatError,
    FrameConfig,
    RunConfig,
    format_windows,
    load_config,
    parse_windows,
    read_decomposition,
    read_shifts,
    read_snapshots,
    read_snapshots_csv,
    write_curve,
    write_decomposition,
    write_manifest,
    write_report,
    write_shifts,
    write_snapshots,
    write_snapshots_csv,
)
from spod.lbfgs import OptimizerOptions
from spod.shifts import ShiftSpec
from spod.snapshots import Grid1D, SnapshotSet, VariableBlock


def _sample_snapshots():
    rng = np.random.default_rng(7)
    grid = Grid1D(6, 0.125, boundary="non-periodic")
    blocks = (VariableBlock("density", 0, 6), VariableBlock("tracer", 6, 12))
    times = np.array([0.0, 0.3, 0.7, 1.0])
    return SnapshotSet(rng.standard_normal((12, 4)), grid, times, blocks)


class TestSnapshotBinary:
    def test_round_trip_exact(self, tmp_path):
        snaps = _sample_snapshots()
        path = tmp_path / "snaps.bin"
        write_snapshots(snaps, path)
        back = read_snapshots(path)
        assert np.array_equal(back.data, snaps.data)
        assert back.grid == snaps.grid
        assert np.array_equal(back.time.values, snaps.time.values)
        assert back.block_names() == ["density", "tracer"]

    def test_writes_are_reproducible(self, tmp_path):
        snaps = _sample_snapshots()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_snapshots(snaps, a)
        write_snapshots(snaps, b)
        assert a.read_bytes() == b.read_bytes()

    def test_hand_assembled_file(self, tmp_path):
        # column-major payload: column 0 then column 1
        header = b"m=4\nn=2\nh=0.25\nboundary=periodic\nend-header\n"
        payload = struct.pack("<8d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        path = tmp_path / "hand.bin"
        path.write_bytes(header + payload)
        snaps = read_snapshots(path)
        assert snaps.grid == Grid1D(4, 0.25, "periodic")
        assert snaps.grid.length == pytest.approx(1.0)
        np.testing.assert_array_equal(snaps.data,
                                      [[1.0, 5.0], [2.0, 6.0],
                                       [3.0, 7.0], [4.0, 8.0]])
        assert snaps.block_names() == ["var0"]
        np.testing.assert_array_equal(snaps.time.values, [0.0, 1.0])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        header = b"# comment\nm=2\n\nn=1\nh=0.5\nboundary=periodic\nend-header\n"
        path = tmp_path / "c.bin"
        path.write_bytes(header + struct.pack("<2d", 1.0, 2.0))
        assert read_snapshots(path).data.shape == (2, 1)

    def test_truncated_payload(self, tmp_path):
        header = b"m=4\nn=2\nh=0.25\nboundary=periodic\nend-header\n"
        path = tmp_path / "short.bin"
        path.write_bytes(header + struct.pack("<7d", *range(7)))
        with pytest.raises(FormatError, match="holds 7 float64 values, expected 8"):
            read_snapshots(path)

    def test_non_finite_rejected_both_ways(self, tmp_path):
        snaps = _sample_snapshots()
        snaps.data[3, 1] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            write_snapshots(snaps, tmp_path / "bad.bin")
        header = b"m=2\nn=1\nh=0.5\nboundary=periodic\nend-header\n"
        path = tmp_path / "inf.bin"
        path.write_bytes(header + struct.pack("<2d", 1.0, np.inf))
        with pytest.raises(FormatError, match="non-finite"):
            read_snapshots(path)

    def test_huge_n_without_time_fails_on_size_before_allocating(self,
                                                                  tmp_path):
        # the default time axis 0..n-1 would need 8 PB; the payload size
        # check has to come first
        header = (b"m=2\nn=1000000000000000\nh=0.5\nboundary=periodic\n"
                  b"end-header\n")
        path = tmp_path / "huge.bin"
        path.write_bytes(header + struct.pack("<2d", 1.0, 2.0))
        with pytest.raises(FormatError, match="holds 2 float64 values"):
            read_snapshots(path)

    @pytest.mark.parametrize("kind", ["snapshots", "decomposition", "csv"])
    def test_huge_header_fails_on_size_before_allocating(self, tmp_path, kind):
        # m = 10^9 rows of n = 10^12 snapshots and no time key: each reader
        # checks the data against the header before it builds anything of
        # that size, the default time axis included
        import tracemalloc
        layout = "m=1000000000\nn=1000000000000\nh=0.5\nboundary=periodic\n"
        path = tmp_path / "huge"
        if kind == "csv":
            path.write_text("# snapshots " + layout.replace("\n", " ")
                            + "\nrow,snapshot0\n0,1.0\n")
            read = read_snapshots_csv
        else:
            if kind == "decomposition":
                layout += "ranks=1\nshift_boundary=periodic\ninterp_degree=3\n"
            path.write_bytes((layout + "end-header\n").encode()
                             + struct.pack("<2d", 1.0, 2.0))
            read = read_snapshots if kind == "snapshots" else read_decomposition
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match="data section holds 2|data is not"):
                read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_file_ends_inside_header(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(b"m=2\nn=1\nh=0.5\nboundary=periodic\n")
        with pytest.raises(FormatError, match="missing end-header"):
            read_snapshots(path)

    def test_header_errors(self, tmp_path):
        cases = [
            (b"m=2\nnovalue\nend-header\n", "expected key=value"),
            (b"m=2\nm=3\nend-header\n", "duplicate key 'm'"),
            (b"m=x\nn=1\nh=0.5\nboundary=periodic\nend-header\n",
             "'m' is not an integer"),
            (b"m=2\nn=1\nh=0.5\nend-header\n", "missing header key 'boundary'"),
            (b"m=2\nn=2\nh=0.5\nboundary=periodic\ntime=0.0\nend-header\n",
             "time axis has 1 entries"),
            (b"m=2\nn=2\nh=0.5\nboundary=periodic\ntime=0,inf\nend-header\n",
             "snapshot times must be finite"),
            (b"m=2\nn=2\nh=0.5\nboundary=periodic\ntime=-inf,0\nend-header\n",
             "snapshot times must be finite"),
            (b"m=2\nn=1\nh=0.5\nboundary=periodic\nblocks=a:2,a:2\n"
             b"end-header\n",
             r"duplicate variable block names in \['a', 'a'\]"),
            (b"m=2\nn=2\nh=0.5\nboundary=periodic\nblocks=a:4\n"
             b"end-header\n", r"block 'a' spans \[0, 4\), expected \[0, 2\)"),
        ]
        for body, match in cases:
            path = tmp_path / "h.bin"
            path.write_bytes(body + struct.pack("<4d", 0, 0, 0, 0))
            with pytest.raises(FormatError, match=match):
                read_snapshots(path)


class TestSnapshotCsv:
    def test_round_trip_exact(self, tmp_path):
        snaps = _sample_snapshots()
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(snaps, path)
        back = read_snapshots_csv(path)
        assert np.array_equal(back.data, snaps.data)
        assert back.grid == snaps.grid
        assert np.array_equal(back.time.values, snaps.time.values)
        assert back.block_names() == snaps.block_names()

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# snapshots m=2 n=1 h=0.5 boundary=periodic\n"
                        "row,snapshot0\n0,1.0\n1,oops\n")
        with pytest.raises(FormatError, match="bad data row"):
            read_snapshots_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text("# snapshots m=2 n=1 h=0.5 boundary=periodic\n"
                        f"row,snapshot0\n0,1.0\n1,{value}\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_snapshots_csv(path)

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("row,snapshot0\n0,1.0\n")
        with pytest.raises(FormatError, match="missing metadata"):
            read_snapshots_csv(path)

    def test_duplicate_block(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("# snapshots m=2 n=1 h=0.5 boundary=periodic"
                        " blocks=a:2,a:2\nrow,snapshot0\n0,1\n1,2\n2,3\n3,4\n")
        with pytest.raises(FormatError,
                           match="duplicate variable block names"):
            read_snapshots_csv(path)


class TestShiftCsv:
    def test_round_trip(self, tmp_path):
        d = np.array([[0.0, -0.1, -0.2], [0.5, 0.25, 0.125]])
        path = tmp_path / "shifts.csv"
        write_shifts(d, path, frame_names=["left", "right"])
        assert "left,right" in path.read_text()
        np.testing.assert_array_equal(read_shifts(path), d)

    def test_hand_written(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("frame0\n0.1\n0.2\n0.3\n")
        np.testing.assert_allclose(read_shifts(path), [[0.1, 0.2, 0.3]])

    def test_ragged_rows(self, tmp_path):
        # rows against each other, and rows against the header row
        for text in ["a,b\n1.0,2.0\n3.0\n", "a\n1.0,2.0\n3.0,4.0\n",
                     "a,b,c\n1.0\n"]:
            path = tmp_path / "r.csv"
            path.write_text(text)
            with pytest.raises(FormatError, match="ragged"):
                read_shifts(path)

    @pytest.mark.parametrize("row", ["inf,0.5", "0.5,nan"])
    def test_non_finite_rejected(self, tmp_path, row):
        path = tmp_path / "n.csv"
        path.write_text(f"a,b\n0.0,0.1\n{row}\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_shifts(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,b\n")
        with pytest.raises(FormatError, match="no shift rows"):
            read_shifts(path)


def _sample_decomposition():
    rng = np.random.default_rng(3)
    grid = Grid1D(5, 0.2, boundary="periodic")
    blocks = (VariableBlock("var0", 0, 5),)
    frames = (FrameBasis(rng.standard_normal((5, 2))),
              FrameBasis(rng.standard_normal((5, 1))))
    amps = (rng.standard_normal((2, 4)), rng.standard_normal((1, 4)))
    shifts = FrameShifts(rng.standard_normal((2, 4)), ShiftSpec("periodic", 3))
    return Decomposition(frames, amps, shifts, grid, blocks)


class TestDecompositionFile:
    def test_round_trip(self, tmp_path):
        dec = _sample_decomposition()
        times = np.array([0.0, 0.1, 0.2, 0.5])
        path = tmp_path / "dec.bin"
        from spod.io import write_decomposition
        write_decomposition(dec, path, times=times)
        back, back_times = read_decomposition(path)
        np.testing.assert_array_equal(back_times, times)
        assert back.grid == dec.grid
        assert back.shifts.spec == dec.shifts.spec
        np.testing.assert_array_equal(back.shifts.d, dec.shifts.d)
        for fa, fb in zip(dec.frames, back.frames):
            np.testing.assert_array_equal(fa.modes, fb.modes)
        for aa, ab in zip(dec.amplitudes, back.amplitudes):
            np.testing.assert_array_equal(aa, ab)

    @pytest.mark.parametrize("edit,match", [
        (lambda h, p: (h.replace(b"shift_boundary=periodic\n", b""), p),
         "missing header key 'shift_boundary'"),
        (lambda h, p: (h.replace(b"\nboundary=periodic", b""), p),
         "missing header key 'boundary'"),
        (lambda h, p: (h.replace(b"time=0.0,", b"time="), p),
         "time axis has 3 entries, expected 4"),
        (lambda h, p: (h.replace(b"interp_degree=3", b"interp_degree=2"), p),
         "interpolation degree 2"),
        (lambda h, p: (h.replace(b"ranks=2,1", b"ranks=2,x"), p),
         "'ranks' is not an integer list"),
        (lambda h, p: (h, p[:-8] + struct.pack("<d", np.nan)), "non-finite"),
        (lambda h, p: (h.replace(b"blocks=var0:5", b"blocks=var0:5,var0:5"), p),
         "duplicate variable block names"),
    ])
    def test_header_errors(self, tmp_path, edit, match):
        from spod.io import write_decomposition
        path = tmp_path / "dec.bin"
        write_decomposition(_sample_decomposition(), path)
        header, sep, payload = path.read_bytes().partition(b"end-header\n")
        header, payload = edit(header, payload)
        path.write_bytes(header + sep + payload)
        with pytest.raises(FormatError, match=match):
            read_decomposition(path)

    def test_masked_greedy_result_round_trips(self, tmp_path):
        # a masked run's decomposition holds its masks in no field: the
        # file keeps every field of every frame
        import dataclasses

        from spod.generators import CrossingFrontsParams, crossing_fronts
        from spod.greedy import spod_decompose
        snaps, shifts = crossing_fronts(CrossingFrontsParams(m=60, n=16))
        species = np.zeros(snaps.n_rows, dtype=bool)
        species[next(b for b in snaps.blocks if b.name == "species").rows] = True
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1, 1, 1, 1, 0], tol=1e-12, p_max=1,
            optimizer=OptimizerOptions(max_iters=5)),
            masks=[None] + [species] * 4)
        assert rep.chosen_frames
        path = tmp_path / "dec.bin"
        write_decomposition(dec, path, times=snaps.time.values)
        back, times = read_decomposition(path)
        assert np.array_equal(times, snaps.time.values)
        assert len(back.frames) == len(dec.frames)
        for fa, fb in zip(dec.frames, back.frames):
            for f in dataclasses.fields(fa):
                a, b = getattr(fa, f.name), getattr(fb, f.name)
                assert type(a) is type(b) and np.array_equal(a, b)
        for l in range(1, 5):
            assert np.all(back.frames[l].modes[species] == 0.0)
        for aa, ab in zip(dec.amplitudes, back.amplitudes, strict=True):
            assert np.array_equal(aa, ab)
        assert np.array_equal(back.shifts.d, dec.shifts.d)
        assert back.shifts.spec == dec.shifts.spec
        assert back.grid == dec.grid
        assert list(back.blocks) == list(dec.blocks)

    def test_payload_size_checked(self, tmp_path):
        dec = _sample_decomposition()
        path = tmp_path / "dec.bin"
        from spod.io import write_decomposition
        write_decomposition(dec, path)
        data = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[:-8])
        with pytest.raises(FormatError, match="data section holds"):
            read_decomposition(tmp_path / "cut.bin")


def _named(name):
    """The sample snapshots and a decomposition of them, the second block
    renamed to name."""
    snaps = _sample_snapshots()
    blocks = (snaps.blocks[0], VariableBlock(name, 6, 12))
    snaps = SnapshotSet(snaps.data, snaps.grid, snaps.time.values, blocks)
    dec = Decomposition((FrameBasis(snaps.data[:, :1]),), (np.ones((1, 4)),),
                        FrameShifts(np.zeros((1, 4)), ShiftSpec()),
                        snaps.grid, blocks)
    return snaps, dec


_WRITERS = {  # kind -> (write(snaps, dec, path), read(path) -> block names)
    "snap": (lambda snaps, dec, path: write_snapshots(snaps, path),
             lambda path: read_snapshots(path).block_names()),
    "csv": (lambda snaps, dec, path: write_snapshots_csv(snaps, path),
            lambda path: read_snapshots_csv(path).block_names()),
    "decomposition": (
        lambda snaps, dec, path: write_decomposition(
            dec, path, times=snaps.time.values),
        lambda path: [b.name for b in read_decomposition(path)[0].blocks]),
}


class TestWritersRefuseWhatReadersReject:
    """A writer raises FormatError, and leaves an existing file byte-equal,
    where its reader would reject or misread the file; a block name that
    no file could carry cannot be built at all."""

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    @pytest.mark.parametrize("name", ["a,b", "a:b", "a b", " a", "a\tb",
                                      "a\nm=3", "\u00e9t\u00e9"])
    def test_block_names(self, tmp_path, kind, name):
        with pytest.raises(ValueError, match="block name"):
            VariableBlock(name, 6, 12)  # so no writer is handed one
        write, read = _WRITERS[kind]
        path = tmp_path / "out"
        write(*_named("zz"), path)
        path.write_bytes(path.read_bytes().replace(b"zz:6", name.encode() + b":6"))
        if kind != "csv" and name != name.strip():
            # the header parser strips the blanks around a name
            assert read(path) == ["density", name.strip()]
        else:
            with pytest.raises(FormatError):
                read(path)

    def test_reader_refuses_a_name_with_a_space(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(b"m=4\nn=1\nh=0.5\nboundary=periodic\nblocks=a b:4\n"
                         b"end-header\n" + struct.pack("<4d", 0, 0, 0, 0))
        with pytest.raises(FormatError, match="block name 'a b'"):
            read_snapshots(path)

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    @pytest.mark.parametrize("name", ["a=b", "#t", "u.v_2", ""])
    def test_other_names_round_trip(self, tmp_path, kind, name):
        write, read = _WRITERS[kind]
        write(*_named(name), tmp_path / "out")
        assert read(tmp_path / "out") == ["density", name]

    @pytest.mark.parametrize("times,match", [
        ([0.0, 1.0, 2.0], "3 times for 4 snapshots"),
        ([0.0, 1.0, 2.0, 3.0, 4.0], "5 times for 4 snapshots"),
        ([0.0, 2.0, 1.0, 3.0], "strictly increasing"),
        ([0.0, 1.0, 1.0, 3.0], "strictly increasing"),
        ([0.0, 1.0, np.inf, 3.0], "finite"),
    ])
    def test_decomposition_times(self, tmp_path, times, match):
        path = tmp_path / "dec.bin"
        path.write_bytes(b"old contents")
        with pytest.raises(FormatError, match=match):
            write_decomposition(_sample_decomposition(), path, times=times)
        assert path.read_bytes() == b"old contents"


class TestReportJson:
    def _report(self):
        return GreedyReport(
            r0=[1, 1], r_final=[2, 1], error_history=[0.5, 0.003],
            candidate_errors=[[0.004, 0.009]], chosen_frames=[0],
            termination="tolerance", converged=True,
            stages=[{"label": "initial", "seconds": 1.25, "iterations": 12}],
            runtime_seconds=3.5)

    def test_timing_stripped(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(self._report(), path)
        loaded = json.loads(path.read_text())
        assert "runtime_seconds" not in loaded
        assert all("seconds" not in s for s in loaded["stages"])
        assert loaded["termination"] == "tolerance"
        assert loaded["stages"][0]["iterations"] == 12

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self._report(), a)
        rep = self._report()
        rep.runtime_seconds = 99.0  # timing noise must not leak
        rep.stages[0]["seconds"] = 42.0
        write_report(rep, b)
        assert a.read_bytes() == b.read_bytes()


class TestCurveCsv:
    def test_mixed_columns(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve(path, [np.arange(3), np.array([0.5, 0.25, 0.125])],
                    ["modes", "error"])
        lines = path.read_text().splitlines()
        assert lines[0] == "modes,error"
        assert lines[1] == "0,0.5"
        assert lines[3] == "2,0.125"

    def test_mismatched_columns_rejected(self, tmp_path):
        cases = [([np.arange(3), np.arange(2.0)], ["a", "b"]),
                 ([np.arange(3)], ["a", "b"]),
                 ([np.arange(3), np.arange(3.0)], ["a"])]
        for columns, names in cases:
            with pytest.raises(ValueError, match="column names"):
                write_curve(tmp_path / "c.csv", columns, names)


class TestWindowSpec:
    def test_round_trip(self):
        text = "0:32@512:1024,32:64@0:512"
        assert format_windows(parse_windows(text)) == text

    def test_bad_entries(self):
        for bad in ["5@1:2", "a:b@1:2", "0:1@", "0:1", ""]:
            with pytest.raises(ConfigError, match="bad window entry"):
                parse_windows(bad)


_VALID = ("[input]\nsnapshots = x\n[spod]\nr0 = 1,1\n"
          "[frame.0]\ntrack = v\n[frame.1]\ntrack = v\n")


def _valid_with(section, line, body=_VALID):
    """A loadable two-frame config (or body) with one line added to
    section."""
    added = body.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)
    return added if added != body else f"{body}[{section}]\n{line}\n"


_SHIFT_FILE_FRAME = ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n"
                     "[frame.0]\nshifts = d.csv\n")


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path


class TestRunConfig:
    def test_full_load(self, tmp_path):
        (tmp_path / "snaps.bin").write_bytes(b"")
        (tmp_path / "d.csv").write_text("frame0\n0.0\n")
        path = _write_config(tmp_path, """
[input]
snapshots = snaps.bin
scale_variables = yes

[spod]
r0 = 2,1
tol = 0.003
p_max = 7
threads = 1
boundary = constant
degree = 1

[optimizer]
grad_tol = 1e-8
max_iters = 250

[frame.0]
shifts = d.csv

[frame.1]
track = density
statistic = peak
windows = 0:4@0:16
smooth = 3
mask = tracer

[output]
directory = out
""")
        cfg = load_config(path)
        assert cfg.snapshots == str(tmp_path / "snaps.bin")
        assert cfg.greedy.r0 == [2, 1]
        assert cfg.greedy.tol == 0.003
        assert cfg.greedy.p_max == 7
        assert cfg.greedy.threads == 1
        assert cfg.scale_variables is True
        assert cfg.boundary == "constant"
        assert cfg.degree == 1
        assert cfg.greedy.optimizer.grad_tol == 1e-8
        assert cfg.greedy.optimizer.max_iters == 250
        assert cfg.output_dir == str(tmp_path / "out")
        assert cfg.frames[0].shifts_path == str(tmp_path / "d.csv")
        assert cfg.frames[1].track_block == "density"
        assert cfg.frames[1].statistic == "peak"
        assert cfg.frames[1].smooth == 3
        assert cfg.frames[1].mask == ("tracer",)

    def test_defaults(self, tmp_path):
        path = _write_config(tmp_path, """
[input]
snapshots = x.bin

[spod]
r0 = 1

[frame.0]
track = var0
""")
        cfg = load_config(path)
        assert cfg.greedy.tol == 0.01
        assert cfg.greedy.p_max is None
        assert cfg.greedy.threads == 1
        assert cfg.boundary is None
        assert cfg.degree == 3
        assert cfg.scale_variables is False
        assert cfg.frames[0].statistic == "difference"
        assert cfg.output_dir == str(tmp_path)

    @pytest.mark.parametrize("body,match", [
        ("[spod]\nr0 = 1\n[frame.0]\ntrack = v\n", "missing .input. snapshots"),
        ("[input]\nsnapshots = x\n[frame.0]\ntrack = v\n", "missing .spod. r0"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = a\n[frame.0]\ntrack = v\n",
         "comma-separated integer list"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n", "no frame sections"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1,1\n[frame.1]\ntrack = v\n",
         "numbered 0..Ns-1"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n[frame.0]\ntrack = v\n"
         "color = red\n", "unknown keys"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n[frame.0]\ntrack = v\n"
         "shifts = d.csv\n", "never both"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n[frame.0]\nsmooth = 2\n",
         "either 'shifts' or 'track'"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n[frame.0]\ntrack = v\n"
         "statistic = median\n", "unknown tracking statistic"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1\n[frame.0]\ntrack = v\n"
         "windows = 0:1\n", "bad window entry"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1,1\n[frame.0]\ntrack = v\n"
         "boundary = periodic\n[frame.1]\ntrack = v\nboundary = constant\n",
         r"\[frame.0\]: unknown keys \['boundary'\]"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1,1\n[frame.0]\ntrack = v\n"
         "degree = 1\n[frame.1]\ntrack = v\ndegree = 3\n",
         r"\[frame.0\]: unknown keys \['degree'\]"),
        ("[input]\nsnapshots = x\nscale_variables = maybe\n[spod]\nr0 = 1\n"
         "[frame.0]\ntrack = v\n", "expected a boolean"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 1,1\n[frame.0]\ntrack = v\n",
         "r0 has 2 entries"),
        (_valid_with("spod", "tol = abc"), r"\[spod\] tol: could not convert"),
        (_valid_with("spod", "tol = -1"), "tolerance must be positive"),
        ("[input]\nsnapshots = x\n[spod]\nr0 = 0\n[frame.0]\ntrack = v\n",
         "at least one mode"),
        (_valid_with("spod", "threads = 0"),
         r"\[spod\]: threads must be 1: candidates are solved one at a time"),
        (_valid_with("spod", "threads = 2"),
         r"\[spod\]: threads must be 1: candidates are solved one at a time"),
        (_valid_with("spod", "degree = 2"), "interpolation degree 2"),
        (_valid_with("spod", "boundary = foo"), "unknown operator boundary"),
        (_valid_with("frame.1", "smooth = x"),
         r"\[frame.1\] smooth: invalid literal"),
        (_valid_with("frame.1", "smooth = -1"),
         r"\[frame.1\]: smooth must be at least 0, got -1"),
        (_valid_with("optimizer", "memory = x"),
         r"\[optimizer\]: unknown keys \['memory'\]"),
        (_valid_with("optimizer", "curvature = 1e-5"),
         r"\[optimizer\]: unknown keys \['curvature'\]"),
        (_valid_with("spod", "rank_tol = nan"), r"rank_tol must lie in \[0, 1\)"),
        (_valid_with("spod", "rank_tol = -1"), r"rank_tol must lie in \[0, 1\)"),
        (_valid_with("spod", "rank_tol = 1.5"), r"rank_tol must lie in \[0, 1\)"),
        (_valid_with("optimizer", "grad_tol = inf"), "finite grad_tol >= 0"),
        (_valid_with("optimizer", "grad_tol = nan"), "finite grad_tol >= 0"),
        (_valid_with("optimizer", "max_iter = 5"),
         r"\[optimizer\]: unknown keys \['max_iter'\]"),
        (_valid_with("spod", "tl = 5"), r"\[spod\]: unknown keys \['tl'\]"),
        (_valid_with("input", "color = red"), "unknown keys"),
        (_valid_with("output", "dir = out"), "unknown keys"),
        (_valid_with("spodd", "tol = 0.1"), "unknown sections"),
        (_valid_with("frame", "track = v"), "unknown sections"),
        (_valid_with("frame.x", "track = v"), "numbered 0..Ns-1"),
        (_valid_with("frame.1", "windows = 3:1@0:4"),
         "bad window schedule"),
        (_valid_with("frame.1", "windows = -2:4@0:4"),
         r"bad window schedule.*negative time interval \[-2, 4\)"),
        (_SHIFT_FILE_FRAME + "windows = 0:4@0:8\n",
         r"\[frame.0\]: tracker keys \['windows'\] need 'track'"),
        (_SHIFT_FILE_FRAME + "statistic = peak\n",
         r"\[frame.0\]: tracker keys \['statistic'\] need 'track'"),
        (_SHIFT_FILE_FRAME + "smooth = 5\n",
         r"\[frame.0\]: tracker keys \['smooth'\] need 'track'"),
        ("[input]\nsnapshots = x\n[input]\nsnapshots = y\n", "already exists"),
        ("snapshots = x\n", "no section headers"),
        (_valid_with("spod", "warm_start = false"),
         r"\[spod\]: unknown keys \['warm_start'\]"),
    ])
    def test_invalid_configs(self, tmp_path, body, match):
        with pytest.raises(ConfigError, match=match):
            load_config(_write_config(tmp_path, body))

    def test_empty_value_takes_default(self, tmp_path):
        cfg = load_config(_write_config(tmp_path,
                                        _valid_with("spod", "p_max =")))
        assert cfg.greedy.p_max is None
        assert cfg.greedy.r0 == [1, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_manifest_round_trip(self, tmp_path):
        # every key away from its default, so that none can be dropped,
        # but threads, whose one accepted value is its default
        optimizer = OptimizerOptions(grad_tol=1e-9, max_iters=77)
        cfg = RunConfig(
            snapshots=str(tmp_path / "snaps.bin"),
            frames=[FrameConfig(shifts_path=str(tmp_path / "d.csv")),
                    FrameConfig(track_block="density", statistic="peak",
                                windows="0:2@0:8", smooth=2, mask=("u",))],
            greedy=GreedyConfig(r0=[2, 1], tol=0.005, p_max=9, threads=1,
                                rank_tol=1e-7, optimizer=optimizer),
            boundary="constant", degree=1, scale_variables=True,
            output_dir=str(tmp_path / "out"))
        manifest = tmp_path / "manifest.cfg"
        write_manifest(cfg, manifest)
        assert "threads = 1\n" in manifest.read_text()
        back = load_config(manifest)
        assert back == cfg
        assert back.snapshots == cfg.snapshots
        assert back.greedy.r0 == cfg.greedy.r0
        assert back.greedy.tol == cfg.greedy.tol
        assert back.greedy.p_max == cfg.greedy.p_max
        assert back.greedy.threads == cfg.greedy.threads
        assert back.greedy.rank_tol == 1e-7
        assert back.greedy.optimizer == optimizer
        assert back.boundary == "constant"
        assert back.degree == 1
        assert back.scale_variables is True
        assert back.output_dir == cfg.output_dir
        assert back.frames[0].shifts_path == cfg.frames[0].shifts_path
        assert back.frames[1].track_block == "density"
        assert back.frames[1].windows == parse_windows("0:2@0:8")
        assert back.frames[1].smooth == 2
        assert back.frames[1].mask == ("u",)


# Loader fuzzing: malformed input may only end in the documented error
# type, which the command line maps to its exit code (1 config, 2 data).
_SECTIONS = st.sampled_from(["input", "spod", "optimizer", "output", "frame.0",
                             "frame.1", "frame.x", "frame", "DEFAULT", "misc"])
_CONFIG_KEYS = st.sampled_from([
    "snapshots", "scale_variables", "r0", "tol", "p_max", "warm_start",
    "threads", "rank_tol", "boundary", "degree", "memory", "grad_tol",
    "max_iters", "sufficient_decrease", "curvature", "shifts", "track",
    "statistic", "windows", "smooth", "mask", "directory", "tl", "Max_Iters"])
_WORDS = ["", "1", "1,1", "0", "-1", "2", "abc", "1e-5", "nan", "inf", "yes",
          "maybe", "periodic", "constant", "non-periodic", "foo", "peak",
          "0:4@0:8", "3:1@0:4", "0:1", "x.bin", ",", "a:4", "a:4,b:4",
          "0.0,0.5,1.0", "1.0,0.5,0.0", "0.0,0.5", "1000000000000"]
# a huge n is safe: the readers check the payload against the header
# before they build the default n-entry time axis
_VALUES = st.one_of(st.sampled_from(_WORDS), st.integers(-3, 40).map(str),
                    st.text("0123456789.,:@-=abex \t", max_size=6))


@st.composite
def _ini_text(draw):
    lines = []
    for section in draw(st.lists(_SECTIONS, max_size=6)):
        lines.append(f"[{section}]")
        for key, value in draw(st.lists(st.tuples(_CONFIG_KEYS, _VALUES),
                                        max_size=5)):
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _bit_equal(a, b):
    """Same shape and the same bytes: tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())


def _mutate(data, draw):
    """Apply a few header edits and payload cuts to a binary file."""
    header, sep, payload = data.partition(b"end-header\n")
    lines = header.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["drop", "value", "dup", "insert", "cut",
                                   "nan"]))
        if op == "drop" and lines:
            del lines[i]
        elif op == "value" and lines:
            key = lines[i].partition(b"=")[0]
            lines[i] = key + b"=" + draw(_VALUES).encode()
        elif op == "dup" and lines:
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(
                [b"novalue", b"# note", b"end-header", b"x=1", b"\xff"])))
        elif op == "cut":
            payload = payload[:draw(st.integers(0, len(payload)))]
        elif op == "nan" and len(payload) >= 8:
            j = 8 * draw(st.integers(0, len(payload) // 8 - 1))
            payload = payload[:j] + struct.pack("<d", np.nan) + payload[j + 8:]
    return b"\n".join(lines) + b"\n" + sep + payload


# header values a reader accepts for some files and not for others
_LAYOUT_VALUES = {
    b"h": [b"1e-05", b"inf", b" 2 ", b"0"],
    b"time": [b"0,1,2,3", b"-1e300,0,0.5,1e300", b"0, 0.25,0.5,1", b"0,0,1,2"],
    b"blocks": [b" a : 6 ,b:6", b"var0:5", b" u :5", b"x!:6,y~:6", b"a:5,b:1"],
    b"ranks": [b"1,2", b"3,0", b"0,3"]}


def _relayout(data, draw):
    """Apply a few header edits that often leave a file readable: drop,
    swap or comment lines, add unknown keys, set layout values."""
    header, sep, payload = data.partition(b"end-header\n")
    lines = header.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition(b"=")[0]
        op = draw(st.sampled_from(["drop", "swap", "comment", "unknown",
                                   "value"]))
        if op == "drop":
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "comment":
            lines.insert(i, b"# " + lines[i])
        elif op == "unknown":
            lines.insert(i, b"note=" + key)
        elif key in _LAYOUT_VALUES:
            lines[i] = key + b"=" + draw(st.sampled_from(_LAYOUT_VALUES[key]))
    return b"\n".join(lines) + b"\n" + sep + payload


def _mutate_text(data, draw):
    """Apply a few line edits, cell edits and cuts to a text file."""
    lines = data.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["drop", "cell", "dup", "insert", "cut"]))
        if op == "drop" and lines:
            del lines[i]
        elif op == "cell" and lines:
            cells = lines[i].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_VALUES).encode()
            lines[i] = b",".join(cells)
        elif op == "dup" and lines:
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(
                [b"", b"# note", b"a,b", b"1.0", b"nan,0.5", b"1,2,3",
                 b"\xff", b"0,\xc3"])))
        elif op == "cut":
            text = b"\n".join(lines)
            lines = text[:draw(st.integers(0, len(text)))].splitlines()
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_FRAME_KEYS = ["statistic", "windows", "smooth", "mask", "boundary", "degree"]
_OPTIONAL_KEYS = {
    "input": ["scale_variables"],
    "spod": ["tol", "p_max", "threads", "rank_tol", "boundary", "degree"],
    "optimizer": ["grad_tol", "max_iters"],
    "frame.0": _FRAME_KEYS, "frame.1": _FRAME_KEYS, "output": ["directory"]}


@st.composite
def _near_valid_text(draw):
    """_VALID with a few known keys set, so that many examples load."""
    body = _VALID
    for section in draw(st.lists(st.sampled_from(sorted(_OPTIONAL_KEYS)),
                                 max_size=4)):
        key = draw(st.sampled_from(_OPTIONAL_KEYS[section]))
        body = _valid_with(section, f"{key} = {draw(_VALUES)}", body)
    return body


def _check_load(directory, text):
    """Load text as a config: it may only raise ConfigError, and a config
    that loads is reproduced exactly by its manifest."""
    path = directory / "run.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    manifest = directory / "manifest.cfg"
    write_manifest(cfg, manifest)
    assert load_config(manifest) == cfg


class TestLoaderFuzz:
    @given(st.one_of(_ini_text(), _near_valid_text(), st.text(
        st.characters(blacklist_categories=("Cs",)), max_size=200)))
    def test_load_config_raises_only_config_error(self, fuzz_dir, text):
        _check_load(fuzz_dir, text)

    @settings(max_examples=200)  # about one example in twelve loads (160 of 2000)
    @given(_near_valid_text())
    def test_loaded_config_round_trips(self, fuzz_dir, text):
        _check_load(fuzz_dir, text)

    @pytest.mark.parametrize("write,read", [
        (lambda path: write_snapshots(_sample_snapshots(), path),
         read_snapshots),
        (lambda path: write_decomposition(_sample_decomposition(), path),
         read_decomposition),
    ])
    @given(data=st.data())
    def test_binary_readers_raise_only_format_error(self, fuzz_dir, write,
                                                    read, data):
        path = fuzz_dir / "file.bin"
        write(path)
        path.write_bytes(_mutate(path.read_bytes(), data.draw))
        try:
            read(path)
        except FormatError:
            pass

    @given(data=st.data())
    def test_accepted_snapshot_file_round_trips(self, fuzz_dir, data):
        # readers accept exactly what writers write: a file that reads
        # is written back and reads to an equal set
        path, again = fuzz_dir / "in.snap", fuzz_dir / "again.snap"
        write_snapshots(_sample_snapshots(), path)
        edit = data.draw(st.sampled_from([_mutate, _relayout]))
        path.write_bytes(edit(path.read_bytes(), data.draw))
        try:
            snaps = read_snapshots(path)
        except FormatError:
            return
        write_snapshots(snaps, again)
        back = read_snapshots(again)
        assert (back.grid, back.blocks) == (snaps.grid, snaps.blocks)
        assert _bit_equal(back.data, snaps.data)
        assert _bit_equal(back.time.values, snaps.time.values)

    @given(data=st.data())
    def test_accepted_decomposition_file_round_trips(self, fuzz_dir, data):
        path, again = fuzz_dir / "in.dec", fuzz_dir / "again.dec"
        write_decomposition(_sample_decomposition(), path)
        edit = data.draw(st.sampled_from([_mutate, _relayout]))
        path.write_bytes(edit(path.read_bytes(), data.draw))
        try:
            dec, times = read_decomposition(path)
        except FormatError:
            return
        write_decomposition(dec, again, times=times)
        back, back_times = read_decomposition(again)
        assert (back.grid, back.blocks, back.shifts.spec) == (
            dec.grid, dec.blocks, dec.shifts.spec)
        assert _bit_equal(back_times, times)
        assert _bit_equal(back.shifts.d, dec.shifts.d)
        assert len(back.frames) == len(dec.frames)
        for fa, fb, aa, ab in zip(dec.frames, back.frames, dec.amplitudes,
                                  back.amplitudes):
            assert _bit_equal(fb.modes, fa.modes) and _bit_equal(ab, aa)

    @pytest.mark.parametrize("write,read", [
        (lambda path: write_snapshots_csv(_sample_snapshots(), path),
         read_snapshots_csv),
        (lambda path: write_shifts([[0.0, -0.1, 0.2], [0.5, 0.25, 0.0]],
                                   path), read_shifts),
    ])
    @given(data=st.data())
    def test_csv_readers_raise_only_format_error(self, fuzz_dir, write, read,
                                                 data):
        path = fuzz_dir / "file.csv"
        write(path)
        path.write_bytes(_mutate_text(path.read_bytes(), data.draw))
        try:
            read(path)
        except FormatError:
            pass
