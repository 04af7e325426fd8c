"""Space-time snapshot containers and error metrics.

A snapshot matrix stacks the grid values of one or more physical variables
vertically, one column per time instant.  All routines treat their inputs as
read-only and return new objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRID_BOUNDARIES = ("periodic", "non-periodic")


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with m nodes, spacing h and a boundary type.

    On a periodic domain the length is m*h (node m would alias node 0); on a
    non-periodic domain the nodes span [0, (m-1)*h] inclusively.
    """

    m: int
    h: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least two grid points, got m={self.m}")
        if not self.h > 0:
            raise ValueError(f"grid spacing must be positive, got h={self.h}")
        if self.boundary not in GRID_BOUNDARIES:
            raise ValueError(
                f"unknown boundary {self.boundary!r}, expected one of {GRID_BOUNDARIES}"
            )

    @property
    def length(self) -> float:
        if self.boundary == "periodic":
            return self.m * self.h
        return (self.m - 1) * self.h

    def coordinates(self) -> np.ndarray:
        return self.h * np.arange(self.m)


@dataclass(frozen=True)
class TimeAxis:
    """Strictly increasing snapshot times."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("time axis must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("snapshot times must be finite")
        if vals.size > 1 and not np.all(np.diff(vals) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class VariableBlock:
    """Contiguous row range [start, stop) of one variable inside the stack.
    The name is printable ASCII without spaces, ',' or ':', so that it
    reads back from a file header and from the CSV comments."""

    name: str
    start: int
    stop: int

    def __post_init__(self):
        if not (self.name.isascii() and self.name.isprintable()) or any(
                c in self.name for c in " ,:"):
            raise ValueError(f"block name {self.name!r} is not printable"
                             " ASCII without spaces, ',' or ':'")

    @property
    def rows(self) -> slice:
        return slice(self.start, self.stop)


def check_blocks(blocks, m: int, n_rows: int):
    """Raise ValueError unless the blocks have distinct names and tile the
    rows [0, n_rows) in order, m rows each."""
    names = [blk.name for blk in blocks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable block names in {names}")
    expect = 0
    for blk in blocks:
        if blk.start != expect or blk.stop - blk.start != m:
            raise ValueError(
                f"block {blk.name!r} spans [{blk.start}, {blk.stop}), expected "
                f"[{expect}, {expect + m}) for m={m}"
            )
        expect = blk.stop
    if expect != n_rows:
        raise ValueError(f"blocks cover {expect} rows but data has {n_rows}")


@dataclass
class SnapshotSet:
    """Stacked snapshot matrix plus grid, time axis and variable layout.

    data has shape (n_vars * m, n); blocks record the row range of each
    variable, all sharing one grid.  Columns are ordered by time.
    """

    data: np.ndarray
    grid: Grid1D
    time: TimeAxis
    blocks: list[VariableBlock] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if not isinstance(self.time, TimeAxis):
            self.time = TimeAxis(self.time)
        if self.data.ndim != 2:
            raise ValueError("snapshot data must be a 2-d array")
        if self.time.n != self.data.shape[1]:
            raise ValueError(
                f"time axis length {self.time.n} does not match "
                f"{self.data.shape[1]} snapshot columns"
            )
        if not self.blocks:
            if self.data.shape[0] % self.grid.m:
                raise ValueError(
                    f"{self.data.shape[0]} rows is not a multiple of m={self.grid.m}"
                )
            nv = self.data.shape[0] // self.grid.m
            self.blocks = [
                VariableBlock(f"var{b}", b * self.grid.m, (b + 1) * self.grid.m)
                for b in range(nv)
            ]
        check_blocks(self.blocks, self.grid.m, self.data.shape[0])

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def block(self, name: str) -> np.ndarray:
        for blk in self.blocks:
            if blk.name == name:
                return self.data[blk.rows]
        raise ValueError(f"no variable block {name!r}"
                         f" (have {self.block_names()})")

    def block_names(self) -> list[str]:
        return [blk.name for blk in self.blocks]


def _as_matrix(X) -> np.ndarray:
    if isinstance(X, SnapshotSet):
        return X.data
    return np.asarray(X, dtype=float)


def relative_error(X, Xt) -> float:
    """Relative squared error sum_j ||X_j - Xt_j||^2 / sum_j ||X_j||^2.

    This is the ratio of squared norms, not its square root: an approximant
    that misses half the energy of an orthogonal pair scores 0.5, and Xt = 0
    scores exactly 1.  Accepts SnapshotSet or plain matrices.
    """
    A = _as_matrix(X)
    B = _as_matrix(Xt)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    denom = np.sum(A * A)
    if denom == 0.0:
        raise ValueError("reference snapshot matrix is identically zero")
    diff = A - B
    return float(np.sum(diff * diff) / denom)


def scale_variables(snaps: SnapshotSet) -> tuple[SnapshotSet, list[float]]:
    """Rescale every variable block to the Frobenius norm of the first block.

    Returns the scaled copy and the applied multipliers (first entry is 1);
    dividing each block by its multiplier undoes the operation.  Zero-norm
    blocks are rejected: they cannot be equalized invertibly.
    """
    norms = []
    for blk in snaps.blocks:
        nrm = float(np.linalg.norm(snaps.data[blk.rows]))
        if nrm == 0.0:
            raise ValueError(f"variable block {blk.name!r} is identically zero")
        norms.append(nrm)
    target = norms[0]
    factors = [target / nrm for nrm in norms]
    scaled = snaps.data.copy()
    for blk, f in zip(snaps.blocks, factors):
        scaled[blk.rows] *= f
    out = SnapshotSet(scaled, snaps.grid, snaps.time, list(snaps.blocks))
    return out, factors


def center_rows(snaps: SnapshotSet) -> tuple[SnapshotSet, np.ndarray]:
    """Subtract the temporal mean of every row; returns (centered, means)."""
    mean = snaps.data.mean(axis=1)
    out = SnapshotSet(
        snaps.data - mean[:, None], snaps.grid, snaps.time, list(snaps.blocks)
    )
    return out, mean
