"""Discrete shift operators on a uniform 1-d grid.

Two boundary conventions, fixed by their worked integer examples:

- "periodic": (T(d) q)(x) = q(x + d) with node indices wrapped modulo m.
  A shift by +h maps [1, 2, 3, 4] to [2, 3, 4, 1].
- "constant": (T(d) q)(x) = q(x - d) with node indices clamped to the
  domain, i.e. constant extrapolation of the edge values.  A shift by +h
  maps [1, 2, 3, 4] to [1, 1, 2, 3]; by -h to [2, 3, 4, 4].

The sampling directions deliberately differ in sign: the periodic operator
moves content toward smaller x for d > 0, the constant-extrapolation one
toward larger x.  Shift sequences obtained from front tracking (positions
minus the domain midpoint) center a front under the constant convention;
negate them when driving periodic operators.

Shifts that are not grid multiples are interpolated with Lagrange
polynomials of degree 1 or 3.  Transposes are exact adjoints of the
discrete maps; with clamping this means boundary nodes accumulate the
weight of every stencil leg parked on them, which is not the same map as
shifting by -d.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .snapshots import Grid1D

if TYPE_CHECKING:
    from scipy import sparse

OPERATOR_BOUNDARIES = ("periodic", "constant")


@dataclass(frozen=True)
class ShiftSpec:
    """Boundary handling plus interpolation degree for fractional shifts."""

    boundary: str = "periodic"
    interp_degree: int = 3

    def __post_init__(self):
        if self.boundary not in OPERATOR_BOUNDARIES:
            raise ValueError(
                f"unknown operator boundary {self.boundary!r}, "
                f"expected one of {OPERATOR_BOUNDARIES}"
            )
        if self.interp_degree not in (1, 3):
            raise ValueError(
                f"interpolation degree {self.interp_degree} not supported (use 1 or 3)"
            )


@dataclass(frozen=True)
class ShiftStencil:
    """Sampling rule of one shift operator.

    Entry i of the shifted vector is sum_q weights[q] * v[wrap_or_clamp(i +
    offset + q)].  For grid-multiple shifts the weights collapse to [1.0].
    """

    offset: int
    weights: np.ndarray
    boundary: str


def build_stencil(d: float, grid: Grid1D, spec: ShiftSpec) -> ShiftStencil:
    """Decompose d into integer offset plus Lagrange interpolation weights.

    The shift is split as g = k + rho with rho in [0, 1), where g is the
    shift in mesh units along the sampling direction of the boundary
    convention (+d/h periodic, -d/h constant extrapolation).
    """
    if spec.boundary == "periodic":
        g = d / grid.h
    else:
        g = -d / grid.h
    k = int(np.floor(g))
    rho = g - k
    if rho >= 1.0:  # guard against floor rounding at the interval edge
        k += 1
        rho -= 1.0
    if rho == 0.0:
        return ShiftStencil(k, np.array([1.0]), spec.boundary)
    if spec.interp_degree == 1:
        return ShiftStencil(k, np.array([1.0 - rho, rho]), spec.boundary)
    # degree 3: nodes {k-1, k, k+1, k+2}, Lagrange basis evaluated at s = rho
    s = rho
    w = np.array(
        [
            -s * (s - 1.0) * (s - 2.0) / 6.0,
            (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0,
            -(s + 1.0) * s * (s - 2.0) / 2.0,
            (s + 1.0) * s * (s - 1.0) / 6.0,
        ]
    )
    return ShiftStencil(k - 1, w, spec.boundary)


def _node_indices(stencil: ShiftStencil, m: int) -> np.ndarray:
    """(m, n_weights) array of source node indices, wrapped or clamped."""
    base = (
        np.arange(m)[:, None]
        + stencil.offset
        + np.arange(stencil.weights.size)[None, :]
    )
    if stencil.boundary == "periodic":
        return np.mod(base, m)
    return np.clip(base, 0, m - 1)


def apply_shift(v, d: float, grid: Grid1D, spec: ShiftSpec):
    """Apply T(d) to a length-m vector or to each column of an (m, k) array."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != grid.m:
        raise ValueError(f"vector has {v.shape[0]} rows, grid has m={grid.m}")
    st = build_stencil(d, grid, spec)
    idx = _node_indices(st, grid.m)
    out = st.weights[0] * v[idx[:, 0]]
    for q in range(1, st.weights.size):
        out += st.weights[q] * v[idx[:, q]]
    return out


def apply_shift_transpose(v, d: float, grid: Grid1D, spec: ShiftSpec):
    """Apply the exact transpose of the map realized by apply_shift."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != grid.m:
        raise ValueError(f"vector has {v.shape[0]} rows, grid has m={grid.m}")
    st = build_stencil(d, grid, spec)
    m = grid.m
    if st.boundary == "periodic":
        # adjoint of a circulant gather is the gather with mirrored offsets
        pos = (
            np.arange(m)[:, None]
            - st.offset
            - np.arange(st.weights.size)[None, :]
        )
        idx = np.mod(pos, m)
        out = st.weights[0] * v[idx[:, 0]]
        for q in range(1, st.weights.size):
            out += st.weights[q] * v[idx[:, q]]
        return out
    # clamped stencils are not translation invariant: scatter explicitly
    idx = _node_indices(st, m)
    out = np.zeros_like(v, dtype=float)
    for q in range(st.weights.size):
        np.add.at(out, idx[:, q], st.weights[q] * v)
    return out


def dense_shift_matrix(d: float, grid: Grid1D, spec: ShiftSpec) -> np.ndarray:
    """Materialize T(d) as a dense (m, m) array.  Meant for tests and
    small problems; the solvers use the sparse form below."""
    st = build_stencil(d, grid, spec)
    idx = _node_indices(st, grid.m)
    M = np.zeros((grid.m, grid.m))
    rows = np.arange(grid.m)
    for q in range(st.weights.size):
        np.add.at(M, (rows, idx[:, q]), st.weights[q])
    return M


def shift_operator(d: float, grid: Grid1D, spec: ShiftSpec) -> sparse.csr_matrix:
    """T(d) as a CSR matrix, the workhorse for repeated applications."""
    from scipy import sparse  # local: keeps scipy out of start-up

    st = build_stencil(d, grid, spec)
    idx = _node_indices(st, grid.m)
    nw = st.weights.size
    rows = np.repeat(np.arange(grid.m), nw)
    vals = np.tile(st.weights, grid.m)
    op = sparse.coo_matrix(
        (vals, (rows, idx.ravel())), shape=(grid.m, grid.m)
    )
    return op.tocsr()
