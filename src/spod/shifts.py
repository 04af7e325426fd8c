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

import math
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


_MAX_CELLS = 2.0 ** 62  # largest |d / h|: offsets stay inside int64


def _stencils(d, grid: Grid1D, spec: ShiftSpec):
    """Integer offsets (k,) and Lagrange weights (k, n_weights) of T(d)
    for every shift of d, one shift or a 1-d sequence of k, plus the mask
    of grid multiples.

    Each shift is split as g = k + rho with rho in [0, 1), where g is the
    shift in mesh units along the sampling direction of the boundary
    convention (+d/h periodic, -d/h constant extrapolation).  If every
    shift is a grid multiple (rho = 0) n_weights is 1; otherwise those
    shifts carry the rho = 0 weights, a single 1 among exact zeros.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim > 1:
        raise ValueError(f"shifts of shape {d.shape}: need one shift or a 1-d sequence")
    d = d.reshape(-1)
    g = d / grid.h if spec.boundary == "periodic" else -d / grid.h
    bad = ~(np.abs(g) <= _MAX_CELLS)  # nan compares false
    if bad.any():
        raise ValueError(f"shift {d[bad][0]!r} is not finite or exceeds 2**62 cells")
    k = np.floor(g)
    rho = g - k
    edge = rho >= 1.0  # guard against floor rounding at the interval edge
    k = (k + edge).astype(np.int64)
    rho = np.where(edge, rho - 1.0, rho)
    exact = rho == 0.0
    if exact.all():
        return k, np.ones((d.size, 1)), exact
    if spec.interp_degree == 1:
        return k, np.stack([1.0 - rho, rho], axis=1), exact
    # degree 3: nodes {k-1, k, k+1, k+2}, Lagrange basis evaluated at s = rho
    s = rho
    w = np.stack(
        [
            -s * (s - 1.0) * (s - 2.0) / 6.0,
            (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0,
            -(s + 1.0) * s * (s - 2.0) / 2.0,
            (s + 1.0) * s * (s - 1.0) / 6.0,
        ],
        axis=1,
    )
    return k - 1, w, exact


def _check_one_shift(d):
    """Refuse d unless it is one shift, as the (m, m) helpers take."""
    if np.size(d) != 1:
        raise ValueError(f"shifts of shape {np.shape(d)}: need one shift")


def _node_indices(offset, n_weights: int, m: int, boundary: str) -> np.ndarray:
    """Source node indices in int32, wrapped or clamped, shaped offset.shape +
    (m, n_weights): leg q of row i reads node i + offset + q.  The offsets
    are reduced mod m, or clamped to [-m - n_weights, m], which moves no node."""
    legs = np.arange(m, dtype=np.int32)[:, None] + np.arange(n_weights, dtype=np.int32)
    if boundary == "periodic":  # both terms below m: one wrap is enough
        base = np.add.outer(np.mod(offset, m).astype(np.int32), legs % m)
        return np.subtract(base, m, out=base, where=base >= m)
    base = np.add.outer(np.clip(offset, -m - n_weights, m).astype(np.int32), legs)
    return np.clip(base, 0, m - 1, out=base)


def apply_shift(v, d, grid: Grid1D, spec: ShiftSpec):
    """Apply T(d) to every m-row variable block of v, shaped (nb*m,) or
    (nb*m, ...).  d is one shift for the whole array, or a 1-d sequence
    with one shift per entry of v's last axis (one per snapshot column)."""
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    m = grid.m
    if v.ndim == 0 or v.shape[0] % m:
        raise ValueError(f"array of shape {v.shape} is not a stack of m={m} row blocks")
    if d.ndim > 1 or d.ndim == 1 and (v.ndim < 2 or d.size != v.shape[-1]):
        raise ValueError(f"shifts of shape {d.shape} for an array of shape {v.shape}")
    offset, weights, _ = _stencils(d, grid, spec)
    mid = math.prod(v.shape[1:-1] if d.ndim else v.shape[1:])
    blocks = v.reshape(v.shape[0] // m, m * mid * d.size)
    itype = np.int32 if blocks.shape[1] < 2 ** 31 else np.int64  # flat indices
    idx = _node_indices(offset, weights.shape[1], m, spec.boundary).astype(
        itype, copy=False)
    columns = np.arange(mid * d.size, dtype=itype).reshape(mid, d.size)

    def leg(q):  # weight q of every column times its gathered source nodes
        flat = idx[:, :, q].T[:, None, :] * (mid * d.size) + columns
        out = np.take(blocks, flat, axis=1)
        out *= weights[:, q]
        return out

    out = leg(0)
    for q in range(1, weights.shape[1]):
        out += leg(q)
    return out.reshape(v.shape)


def apply_shift_transpose(v, d: float, grid: Grid1D, spec: ShiftSpec):
    """Apply the exact transpose of the map realized by apply_shift to a
    vector or to the columns of a 2-d array of m rows."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != grid.m:
        raise ValueError(f"array of shape {v.shape} is not a vector or a 2-d"
                         f" array of m={grid.m} rows")
    _check_one_shift(d)
    return shift_operator(d, grid, spec).T @ v


def node_map(d, grid: Grid1D, spec: ShiftSpec):
    """The source node of every row of the stack [T(d_1); ...; T(d_k)],
    as k*m intp indices, if every shift of d (one shift or a 1-d
    sequence of k) is a grid multiple; None otherwise.  Such a stack has
    a single 1 in each row, at the node given here: these are the
    indices of shift_operator(d, grid, spec), whose products apply_stack
    and apply_stack_transpose reproduce to the bit without scipy."""
    offset, weights, exact = _stencils(d, grid, spec)
    if not exact.all():
        return None
    return _node_indices(offset, 1, grid.m, spec.boundary).astype(np.intp).ravel()


def apply_stack(op, v, out=None) -> np.ndarray:
    """op v for a stacked operator op, a node_map or a sparse matrix.

    A node map gathers the nodes of v into out if given.  The +0.0 maps
    -0.0 to +0.0, as the CSR sum from zero does; the nodes lie in [0, m),
    so mode="clip" moves none of them and spares the copy of out that
    mode="raise" makes.  A sparse product ignores out."""
    if isinstance(op, np.ndarray):
        return np.take(np.add(v, 0.0), op, axis=0, out=out, mode="clip")
    return op @ v


def apply_stack_transpose(op_T, z, m: int, squared: bool = False) -> np.ndarray:
    """T^T z for a stacked operator T of m columns, z a vector or a 2-d
    array with one row per row of T.  op_T is T's node_map or a sparse
    form of T^T; squared uses T with every entry squared.

    A node map adds the rows of z to their nodes in row order, starting
    from +0.0, as the CSR product of T^T adds them; its entries, all 1,
    square to themselves."""
    if not isinstance(op_T, np.ndarray):
        if squared:  # for this call only: no copy is kept
            op_T = type(op_T)((op_T.data ** 2, op_T.indices, op_T.indptr),
                              shape=op_T.shape)
        return op_T @ z
    if z.ndim == 1:
        return np.bincount(op_T, weights=z, minlength=m)
    out = np.empty((m, z.shape[1]))
    for q, col in enumerate(z.T):
        out[:, q] = np.bincount(op_T, weights=col, minlength=m)
    return out


def dense_shift_matrix(d: float, grid: Grid1D, spec: ShiftSpec) -> np.ndarray:
    """Materialize T(d) as a dense (m, m) array.  Meant for tests and
    small problems; the solvers use the sparse form below."""
    _check_one_shift(d)
    offset, weights, _ = _stencils(d, grid, spec)
    idx = _node_indices(offset[0], weights.shape[1], grid.m, spec.boundary)
    M = np.zeros((grid.m, grid.m))
    np.add.at(M, (np.arange(grid.m)[:, None], idx), weights[0])  # legs in order
    return M


def shift_operator(d, grid: Grid1D, spec: ShiftSpec) -> sparse.csr_matrix:
    """T(d) as an (m, m) CSR matrix, the workhorse for repeated
    applications; for a 1-d sequence of k shifts the (k*m, m) stack
    [T(d_1); ...; T(d_k)].  Grid multiples store one entry per row."""
    from scipy import sparse  # local: keeps scipy out of start-up

    offset, weights, exact = _stencils(d, grid, spec)
    m, k, legs = grid.m, offset.size, weights.shape[1]
    idx = _node_indices(offset, legs, m, spec.boundary)
    vals = np.broadcast_to(weights[:, None, :], idx.shape)
    itype = np.int32 if idx.size < 2 ** 31 else np.int64  # row pointers
    if exact.all() or not exact.any():  # the same number of legs in every row
        vals, idx = vals.ravel(), idx.ravel()
        indptr = np.arange(0, idx.size + 1, legs, dtype=itype)
    else:  # drop the padding of exact shifts
        keep = (vals != 0.0) | ~exact[:, None, None]
        vals, idx = vals[keep], idx[keep]
        indptr = np.zeros(k * m + 1, dtype=itype)
        np.cumsum(np.where(exact, 1, legs).astype(itype).repeat(m), out=indptr[1:])
    op = sparse.csr_matrix((vals, idx, indptr), shape=(k * m, m))
    op.sum_duplicates()  # clamped legs that meet on a boundary node
    return op
