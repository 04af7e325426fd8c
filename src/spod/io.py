"""File formats and run configuration.

Snapshot files are binary: a text header of key=value lines terminated
by an ``end-header`` line, followed by the matrix entries as
little-endian 64-bit floats in column-major order.  Layout keys:

    m         number of grid points (required)
    n         number of snapshots (required)
    h         mesh width (required)
    boundary  periodic | non-periodic (required)
    blocks    comma-separated name:rows pairs, m rows each (default: one
              block "var0")
    time      comma-separated, strictly increasing snapshot times
              (default: 0..n-1)

Decomposition files use the same layout plus ``ranks`` (modes per
frame), ``shift_boundary`` and ``interp_degree``; their payload holds
each frame's modes and amplitudes, then the shift matrix.  Text outputs
are CSV tables: '#' comment lines, a header row naming every column, one
row per entry, floats written with repr() so round trips are exact.  The
snapshot export keeps the layout keys in its comments; shift files hold
one row per snapshot and one column per frame, in space units.

Run configuration files use INI sections ([input], [spod], [optimizer],
[frame.0], [frame.1], ..., [output]); every frame section provides
either a ``shifts`` CSV path or a tracker recipe (``track`` plus
optional statistic / windows / smooth), never both.  Unknown sections
and keys are errors; a key left out or left empty takes its default.
"""

import configparser
import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import Decomposition, FrameBasis, FrameShifts
from .greedy import GreedyConfig
from .lbfgs import OptimizerOptions
from .shifts import ShiftSpec
from .snapshots import (Grid1D, SnapshotSet, TimeAxis, VariableBlock,
                        check_blocks)
from .tracking import STATISTICS, WindowSchedule


class FormatError(ValueError):
    """Raised when a data file does not parse."""


class ConfigError(ValueError):
    """Raised when a run configuration is invalid."""


def _fmt(x):
    return repr(float(x))


def _join(values):
    return ",".join(str(v) for v in values)


def _build(error, where, cls, *args, **kwargs):
    """cls(*args, **kwargs), with its ValueError raised as error."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise error(f"{where}: {e}") from None


def _int_list(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError("must be a comma-separated integer list") from None


def _float_list(text):
    return np.array([float(v) for v in text.split(",")])


def _read_header(f, path):
    """Read key=value lines up to end-header into a dict."""
    header = {}
    lineno = 0
    while True:
        raw = f.readline()
        lineno += 1
        if not raw:
            raise FormatError(f"{path}: missing end-header (line {lineno})")
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: non-ascii header (line {lineno})")
        if not line or line.startswith("#"):
            continue
        if line == "end-header":
            return header
        if "=" not in line:
            raise FormatError(f"{path}: expected key=value (line {lineno})")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in header:
            raise FormatError(f"{path}: duplicate key '{key}' (line {lineno})")
        header[key] = value.strip()


_KINDS = {int: "an integer", float: "a number",
          _int_list: "an integer list", _float_list: "a number list"}


def _header_value(header, key, path, convert=str, what="header"):
    if key not in header:
        raise FormatError(f"{path}: missing {what} key '{key}'")
    try:
        return convert(header[key])
    except ValueError:
        raise FormatError(f"{path}: {what} key '{key}' is not"
                          f" {_KINDS[convert]}") from None


def _read_layout(header, path, what="header"):
    """Parse the layout keys. Returns (grid, blocks, rows, n, time), where
    time is None when the header has no time axis."""
    def value(key, convert=str):
        return _header_value(header, key, path, convert, what)

    m, n = value("m", int), value("n", int)
    grid = _build(FormatError, path, Grid1D, m, value("h", float),
                  value("boundary"))
    time = None  # the default axis is built once n is checked against the data
    if "time" in header:
        time = _build(FormatError, path, TimeAxis,
                      value("time", _float_list)).values
        if time.size != n:
            raise FormatError(
                f"{path}: time axis has {time.size} entries, expected {n}")
    blocks, rows = [], 0
    for part in header.get("blocks", f"var0:{m}").split(","):
        name, _, size = part.partition(":")
        try:
            size = int(size)
        except ValueError:
            raise FormatError(f"{path}: bad block entry '{part}'") from None
        blocks.append(_build(FormatError, path, VariableBlock, name.strip(),
                             rows, rows + size))
        rows += size
    _build(FormatError, path, check_blocks, blocks, m, rows)
    return grid, tuple(blocks), rows, n, time


def _time_values(time, n, path):
    """The header's time axis, else 0..n-1; called once the data has been
    checked against n, so that a bad n fails before it allocates."""
    if time is None:
        time = _build(FormatError, path, TimeAxis, np.arange(n)).values
    return time


def _format_layout(grid, blocks, time):
    """Layout keys as text, in file order; every block name reads back,
    since VariableBlock refuses the others."""
    return {"m": grid.m, "n": len(time), "h": _fmt(grid.h),
            "boundary": grid.boundary,
            "blocks": _join(f"{b.name}:{b.stop - b.start}" for b in blocks),
            "time": _join(_fmt(v) for v in time)}


def _finite(values, path, what):
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite entries in {what}")
    return values


def _read_payload(f, shapes, path):
    """The data section as one column-major array per shape; the value
    count must match exactly and every value must be finite."""
    sizes = [rows * cols for rows, cols in shapes]
    payload = f.read()
    if len(payload) != 8 * sum(sizes):
        raise FormatError(
            f"{path}: data section holds {len(payload) // 8} float64 values,"
            f" expected {sum(sizes)}")
    values = _finite(np.frombuffer(payload, dtype="<f8"), path, "data section")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return [p.reshape(s, order="F").copy() for p, s in zip(parts, shapes)]


def _write_binary(path, header, arrays):
    """Header lines, end-header, then each array in column-major order."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FormatError("refusing to write non-finite data")
    text = ("".join(f"{k}={v}\n" for k, v in header.items())
            + "end-header\n").encode("ascii")  # before open truncates the file
    with open(path, "wb") as f:
        f.write(text)
        for a in arrays:
            f.write(np.asarray(a, dtype="<f8").tobytes(order="F"))


def read_snapshots(path) -> SnapshotSet:
    with open(path, "rb") as f:
        grid, blocks, rows, n, time = _read_layout(_read_header(f, path), path)
        data, = _read_payload(f, [(rows, n)], path)
    return SnapshotSet(data, grid, _time_values(time, n, path), blocks)


def write_snapshots(snaps: SnapshotSet, path):
    layout = _format_layout(snaps.grid, snaps.blocks, snaps.time.values)
    _write_binary(path, layout, [snaps.data])


def _write_table(path, comments, names, columns):
    """CSV table: '#' comment lines, a header row of column names, then
    one row per entry of the equal-length columns (floats as repr,
    integers as str)."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(names) != len(columns) or len(set(lengths)) > 1:
        raise ValueError(f"{len(names)} column names for columns of"
                         f" lengths {lengths}")
    cells = [map(_fmt if c.dtype.kind == "f" else str, c.tolist())
             for c in columns]
    with open(path, "w") as f:
        f.write("".join(f"# {c}\n" for c in comments) + ",".join(names) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


def _read_table(path, kind):
    """Returns (comment lines without '#', finite rows x columns array) of
    a CSV table; the first line that is not a comment is the header row."""
    try:
        with open(path) as f:
            lines = [(lineno, line.strip()) for lineno, line in enumerate(f, 1)]
    except UnicodeDecodeError as e:
        raise FormatError(
            f"{path}: {kind} table is not {e.encoding} text") from None
    comments = [line[1:].strip() for _, line in lines if line.startswith("#")]
    table = [(lineno, line) for lineno, line in lines
             if line and not line.startswith("#")]
    width = len(table[0][1].split(",")) if table else 0  # the header row
    rows = []
    for lineno, line in table[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(f"{path}: ragged {kind} rows: {len(cells)} cells"
                              f" under {width} names (line {lineno})")
        try:
            rows.append([float(v) for v in cells])
        except ValueError:
            raise FormatError(
                f"{path}: bad {kind} row (line {lineno})") from None
    if not rows:
        raise FormatError(f"{path}: no {kind} rows")
    return comments, _finite(np.array(rows), path, f"{kind} rows")


def write_snapshots_csv(snaps: SnapshotSet, path):
    """Plain-text interoperability export; repr floats keep round trips exact."""
    layout = _format_layout(snaps.grid, snaps.blocks, snaps.time.values)
    time = layout.pop("time")
    meta = " ".join(f"{k}={v}" for k, v in layout.items())
    _write_table(path, [f"snapshots {meta}", f"time={time}"],
                 ["row"] + [f"snapshot{j}" for j in range(snaps.n_snapshots)],
                 [np.arange(snaps.n_rows), *snaps.data.T])


def read_snapshots_csv(path) -> SnapshotSet:
    comments, table = _read_table(path, "data")
    # metadata: the key=value words of the 'snapshots' and 'time' comments
    meta = dict(word.partition("=")[::2] for c in comments
                if c.startswith(("snapshots ", "time="))
                for word in c.split() if "=" in word)
    grid, blocks, total, n, time = _read_layout(meta, path, "metadata")
    if table.shape != (total, n + 1):  # row index, then the n snapshots
        raise FormatError(f"{path}: data is not {total} rows of {n} values")
    return SnapshotSet(table[:, 1:].copy(), grid, _time_values(time, n, path),
                       blocks)


def write_shifts(d, path, frame_names=None):
    """Shift CSV: one row per snapshot, one column per frame (space units)."""
    d = np.atleast_2d(np.asarray(d, dtype=float))
    names = frame_names or [f"frame{l}" for l in range(d.shape[0])]
    _write_table(path, ["shift per frame, space units; one row per snapshot"],
                 names, d)


def read_shifts(path):
    """Returns the (n_frames, n_snapshots) shift matrix from a shift CSV."""
    return _read_table(path, "shift")[1].T.copy()


def write_decomposition(dec: Decomposition, path, times=None):
    """times: one strictly increasing time per snapshot (default 0..n-1)."""
    spec, n = dec.shifts.spec, dec.shifts.n_snapshots
    times = _build(FormatError, path, TimeAxis,
                   np.arange(n) if times is None else times).values
    if times.size != n:
        raise FormatError(f"{path}: {times.size} times for {n} snapshots")
    header = _format_layout(dec.grid, dec.blocks, times)
    header.update(ranks=_join(f.n_modes for f in dec.frames),
                  shift_boundary=spec.boundary,
                  interp_degree=spec.interp_degree)
    arrays = [a for frame, amps in zip(dec.frames, dec.amplitudes)
              for a in (frame.modes, amps)]
    _write_binary(path, header, arrays + [dec.shifts.d])


def read_decomposition(path):
    """Returns (Decomposition, time axis)."""
    with open(path, "rb") as f:
        header = _read_header(f, path)
        grid, blocks, rows, n, times = _read_layout(header, path)
        ranks = _header_value(header, "ranks", path, _int_list)
        if min(ranks) < 0:
            raise FormatError(f"{path}: negative mode count in 'ranks'")
        spec = _build(FormatError, path, ShiftSpec,
                      _header_value(header, "shift_boundary", path),
                      _header_value(header, "interp_degree", path, int))
        # per frame: modes (rows, r) then amplitudes (r, n); then the shifts
        shapes = [s for r in ranks for s in ((rows, r), (r, n))]
        *arrays, d = _read_payload(f, shapes + [(len(ranks), n)], path)
    times = _time_values(times, n, path)
    dec = Decomposition(tuple(FrameBasis(m) for m in arrays[::2]),
                        tuple(arrays[1::2]), FrameShifts(d, spec), grid, blocks)
    return dec, times


def write_report(report, path):
    """JSON greedy report.  Timing fields are dropped so that repeated
    runs of the same configuration produce identical bytes."""
    d = report.to_dict()
    d.pop("runtime_seconds", None)
    d["stages"] = [{k: v for k, v in s.items() if k != "seconds"}
                   for s in d.get("stages", [])]
    with open(path, "w") as f:
        json.dump(d, f, indent=2, sort_keys=True)
        f.write("\n")


def write_curve(path, columns, names):
    """Small CSV table: columns is a list of equal-length 1-d arrays."""
    _write_table(path, [], names, columns)


def parse_windows(text) -> WindowSchedule:
    """Parse 'j0:j1@i0:i1,...' into a window schedule."""
    intervals = []
    for part in text.split(","):
        try:
            trange, _, xrange_ = part.partition("@")
            j0, j1 = (int(v) for v in trange.split(":"))
            i0, i1 = (int(v) for v in xrange_.split(":"))
        except ValueError:
            raise ConfigError(f"bad window entry '{part}'"
                              " (expected j0:j1@i0:i1)")
        intervals.append(((j0, j1), (i0, i1)))
    return _build(ConfigError, f"bad window schedule '{text}'",
                  WindowSchedule, intervals)


def format_windows(windows: WindowSchedule) -> str:
    return ",".join(f"{j0}:{j1}@{i0}:{i1}"
                    for (j0, j1), (i0, i1) in windows.entries)


@dataclass
class FrameConfig:
    """Resolved per-frame configuration: shift file XOR tracker recipe.
    The tracker fields are None on a shift-file frame."""

    shifts_path: Optional[str] = None
    track_block: Optional[str] = None
    statistic: Optional[str] = None
    windows: Optional[str] = None  # schedule text, kept as a WindowSchedule
    smooth: Optional[int] = None
    mask: tuple = ()

    def __post_init__(self):
        self.mask = tuple(self.mask)
        if (self.shifts_path is None) == (self.track_block is None):
            raise ConfigError("each frame needs either 'shifts' or 'track',"
                              " never both")
        if self.shifts_path is not None:
            tracker = [k for k in ("statistic", "windows", "smooth")
                       if getattr(self, k) is not None]
            if tracker:
                raise ConfigError(f"tracker keys {tracker} need 'track'")
            return
        self.statistic = self.statistic or "difference"
        self.smooth = self.smooth or 0
        if self.statistic not in STATISTICS:
            raise ConfigError(f"unknown tracking statistic '{self.statistic}'")
        if self.smooth < 0:
            raise ConfigError(f"smooth must be at least 0, got {self.smooth}")
        self.windows = parse_windows(self.windows) if self.windows else None


@dataclass
class RunConfig:
    """Fully resolved run configuration for the end-to-end pipeline: the
    greedy driver's own GreedyConfig plus what only the pipeline needs."""

    snapshots: str
    frames: tuple
    greedy: GreedyConfig
    scale_variables: bool = False
    boundary: Optional[str] = None  # None: follow the grid
    degree: int = ShiftSpec.interp_degree
    output_dir: str = "."

    def __post_init__(self):
        self.frames = tuple(self.frames)
        if not self.frames:
            raise ConfigError("no frame sections")
        if len(self.greedy.r0) != len(self.frames):
            raise ConfigError(f"r0 has {len(self.greedy.r0)} entries for"
                              f" {len(self.frames)} frames")
        _build(ConfigError, "[spod]", ShiftSpec,
               self.boundary or ShiftSpec.boundary, self.degree)


def _bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got '{text}'") from None


def _path(text, base):
    """Relative paths are taken from the config file's directory."""
    return os.path.normpath(os.path.join(base, text))


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


_REQUIRED = object()


class _Key(NamedTuple):
    """How one config key is parsed and written back.  An absent key is
    parsed from ``default`` text, is an error when that is _REQUIRED, and
    otherwise keeps the default of the object it sets."""

    parse: Callable
    format: Callable = str
    attr: Optional[str] = None  # attribute set, when named unlike the key
    default: object = None


_GREEDY_KEYS = {
    "r0": _Key(_int_list, _join, default=_REQUIRED),
    "tol": _Key(float, _fmt),
    "threads": _Key(int),
    "rank_tol": _Key(float, _fmt),
    "p_max": _Key(int),
}
_SHIFT_KEYS = {
    "boundary": _Key(str),
    "degree": _Key(int),
}
_FRAMES = "frame.N"
# section -> key -> _Key.  Defaults live in the objects the keys set:
# GreedyConfig, OptimizerOptions, RunConfig and FrameConfig.
_KEYS = {
    "input": {
        "snapshots": _Key(_path, os.path.abspath, default=_REQUIRED),
        "scale_variables": _Key(_bool),
    },
    "spod": {**_GREEDY_KEYS, **_SHIFT_KEYS},
    "optimizer": {
        "grad_tol": _Key(float, _fmt),
        "max_iters": _Key(int),
    },
    _FRAMES: {
        "shifts": _Key(_path, os.path.abspath, "shifts_path"),
        "track": _Key(str, attr="track_block"),
        "statistic": _Key(str),
        "windows": _Key(str, format_windows),
        "smooth": _Key(int),
        "mask": _Key(_names, _join),
    },
    "output": {"directory": _Key(_path, os.path.abspath, "output_dir", ".")},
}


def _read_section(cp, name, keys, base):
    """Parsed values of one section, by attribute name."""
    section = cp[name] if cp.has_section(name) else {}
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}")
    values = {}
    for key, k in keys.items():
        text = section.get(key) or k.default
        if text is _REQUIRED:
            raise ConfigError(f"missing [{name}] {key}")
        if text is None:
            continue
        try:
            values[k.attr or key] = (k.parse(text, base) if k.parse is _path
                                     else k.parse(text))
        except ValueError as e:
            raise ConfigError(f"[{name}] {key}: {e}") from None
    return values


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    base = os.path.dirname(os.path.abspath(path))
    found = {s for s in cp.sections() if s.startswith("frame.")}
    frame_sections = [f"frame.{l}" for l in range(len(found))]
    if found != set(frame_sections):
        raise ConfigError("frame sections must be numbered 0..Ns-1")
    unknown = set(cp.sections()) - set(_KEYS) - found
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")

    values = {name: _read_section(cp, name, keys, base)
              for name, keys in _KEYS.items() if name != _FRAMES}
    spod = values.pop("spod")
    run = {**values["input"], **values["output"],
           **{k: spod.pop(k) for k in _SHIFT_KEYS if k in spod}}
    frames = [_build(ConfigError, f"[{name}]", FrameConfig,
                     **_read_section(cp, name, _KEYS[_FRAMES], base))
              for name in frame_sections]
    optimizer = _build(ConfigError, "[optimizer]", OptimizerOptions,
                       **values["optimizer"])
    greedy = _build(ConfigError, "[spod]", GreedyConfig, optimizer=optimizer,
                    **spod)
    return RunConfig(frames=frames, greedy=greedy, **run)


def _format_section(obj, keys):
    """Key -> text for every attribute of obj that holds a value."""
    values = {key: getattr(obj, k.attr or key) for key, k in keys.items()}
    return {key: keys[key].format(v) for key, v in values.items()
            if v is not None and v != ()}


def write_manifest(cfg: RunConfig, path):
    """Echo the resolved configuration as a config file that reproduces
    the run (paths are written absolute).  Each key is read from the
    object that owns it."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["input"] = _format_section(cfg, _KEYS["input"])
    cp["spod"] = {**_format_section(cfg.greedy, _GREEDY_KEYS),
                  **_format_section(cfg, _SHIFT_KEYS)}
    cp["optimizer"] = _format_section(cfg.greedy.optimizer, _KEYS["optimizer"])
    for l, fc in enumerate(cfg.frames):
        cp[f"frame.{l}"] = _format_section(fc, _KEYS[_FRAMES])
    cp["output"] = _format_section(cfg, _KEYS["output"])
    with open(path, "w") as f:
        cp.write(f)
