"""Shift estimation from snapshot data.

Fronts are located per snapshot as the argmax of a tracking statistic,
optionally restricted to a window that may change over time to keep
several transports apart.  Statistics:

- "difference" (default): the temporal difference matrix, column j being
  X_{j+1} - X_j.  Reliable for step-like fronts moving up to about two
  cells per snapshot; for a symmetric pulse its argmax sits on the pulse
  shoulder, a constant offset of roughly 0.7 pulse widths.
- "gradient": the spatial derivative magnitude of each column (steepest
  slope), one value per snapshot.
- "peak": the raw column argmax, the right choice for crest-shaped data.

center_shifts turns positions into shift sequences d_j = x_j - L/2; a
front is then centered by applying T(-d_j) under the constant-
extrapolation convention.  For periodic operators, which sample in the
opposite direction, negate the sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snapshots import Grid1D

STATISTICS = ("difference", "gradient", "peak")


@dataclass(frozen=True)
class WindowSchedule:
    """Time-dependent search windows: ((j0, j1), (i0, i1)) half-open index
    pairs; the window (i0, i1) is active for snapshots j0 <= j < j1."""

    entries: tuple

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(
            ((int(t0), int(t1)), (int(i0), int(i1)))
            for (t0, t1), (i0, i1) in entries
        ))
        if not self.entries:
            raise ValueError("window schedule is empty")
        prev_end = None
        for (t0, t1), (i0, i1) in self.entries:
            if not 0 <= t0 < t1:
                raise ValueError(f"empty or negative time interval [{t0}, {t1})")
            if i1 <= i0:
                raise ValueError(f"empty window [{i0}, {i1})")
            if prev_end is not None and t0 != prev_end:
                raise ValueError(
                    "time intervals must be ordered, non-overlapping and gap-free"
                )
            prev_end = t1

    def window_at(self, j: int) -> tuple:
        for (t0, t1), win in self.entries:
            if t0 <= j < t1:
                return win
        raise ValueError(f"no window covers snapshot {j}")


def _column_statistic(X: np.ndarray, grid: Grid1D, statistic: str) -> np.ndarray:
    """Matrix whose column j is searched for the front of snapshot j."""
    if statistic == "difference":
        return X[:, 1:] - X[:, :-1]
    if statistic == "peak":
        return X
    if statistic == "gradient":
        if grid.boundary == "periodic":
            slope = (np.roll(X, -1, axis=0) - np.roll(X, 1, axis=0)) / (2 * grid.h)
        else:
            slope = np.gradient(X, grid.h, axis=0)
        return np.abs(slope)
    raise ValueError(f"unknown statistic {statistic!r}, expected one of {STATISTICS}")


def track_front(block: np.ndarray, grid: Grid1D, windows: WindowSchedule | None = None,
                statistic: str = "difference", smooth: int = 0) -> np.ndarray:
    """Front positions (length n, space units) from one variable block.

    With the difference statistic only n-1 columns exist; the last
    position is replicated.  Argmax ties resolve to the smallest index.
    Under every statistic the windows must lie inside the grid and cover
    the n snapshots, and no more.  An identically zero block, or a window
    that is identically zero over its snapshots, holds no front: rejected.
    smooth > 1 applies a centered moving average of that width to the
    tracked positions.
    """
    X = np.asarray(block, dtype=float)
    if X.ndim != 2 or X.shape[0] != grid.m:
        raise ValueError(f"block shape {X.shape} does not match grid m={grid.m}")
    n = X.shape[1]
    if n < 2:
        raise ValueError("tracking needs at least two snapshots")
    if not X.any():
        raise ValueError("block is identically zero: no front to track")
    if windows is not None:
        for _, (i0, i1) in windows.entries:
            if not 0 <= i0 < i1 <= grid.m:
                raise ValueError(f"window [{i0}, {i1}) outside grid of size {grid.m}")
        if windows.entries[-1][0][1] > n:
            raise ValueError(f"window schedule runs past the {n} snapshots")
    wins = [windows.window_at(j) if windows else (0, grid.m) for j in range(n)]
    for (t0, t1), (i0, i1) in windows.entries if windows else ():
        if not X[i0:i1, t0:t1].any():
            raise ValueError(f"window [{i0}, {i1}) is identically zero for "
                             f"snapshots [{t0}, {t1}): no front to track")
    D = _column_statistic(X, grid, statistic)
    idx = np.empty(n, dtype=int)
    for j, (lo, hi) in enumerate(wins[:D.shape[1]]):
        idx[j] = lo + int(np.argmax(D[lo:hi, j]))
    idx[D.shape[1]:] = idx[D.shape[1] - 1]
    positions = grid.h * idx.astype(float)
    if smooth > 1:
        half = smooth // 2
        positions = np.array([
            positions[max(0, j - half):j + half + 1].mean() for j in range(n)
        ])
    return positions


def center_shifts(positions: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Shifts d_j = x_front(j) - L/2 that center the front at mid-domain."""
    positions = np.asarray(positions, dtype=float)
    L = grid.length
    if np.any(positions < 0) or np.any(positions > L):
        raise ValueError("front positions must lie inside [0, L]")
    return positions - 0.5 * L
