"""The multi-frame residual-minimization objective.

A decomposition approximates every snapshot by a sum over frames,

    X_j  ~=  sum_l  T(d^l_j) W^l a^l_j ,

where each frame l carries time-independent modes W^l (stacked over the
variable blocks), a shift sequence d^l_j, and per-snapshot amplitudes.
For fixed shifts the optimal amplitudes of snapshot j are the minimum-norm
least-squares solution a_j of K_j a ~= X_j, where the columns of the frame
matrix K_j are the shifted modes.  Substituting them leaves a reduced
objective in the modes alone,

    Jt(W) = - sum_j (K_j^T X_j) . a_j  =  - sum_j || U_j1^T X_j ||^2 ,

with U_j1 the left singular vectors of K_j spanning its numerical range;
the full squared residual is J = sum_j ||X_j||^2 + Jt.  The modes of all
frames are the columns of one matrix W = [W^1 ... W^L], the variables are
z = vec(W), and the gradient of Jt with respect to column c of W, a mode
of frame l, is

    -2 sum_j a_{c,j} T(d^l_j)^T (X_j - K_j a_j) ,

which matches central finite differences to the expected order (the
factor -2 is the usual derivative of a squared projection norm).  The
amplitudes come from the scaled Gram matrix K_j^T K_j (CholeskyQR with a
guard, Yamamoto et al., ETNA 44, 2015), or from an SVD where the guard fails.

Modes can be masked: the rows a frame's mask marks stay pinned to zero.
ReducedObjective holds the masks and enforces them by zeroing those rows
of the unpacked iterates and of the gradients rather than by eliminating
variables.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .shifts import (ShiftSpec, apply_shift, apply_stack, apply_stack_transpose,
                     node_map, shift_operator)
from .snapshots import Grid1D, SnapshotSet, check_blocks

GRAM_COND_MAX, RANK_MARGIN = 1e4, 1e3
RANK_TOL = 1e-10  # smallest singular value kept, relative to the largest
COVERAGE_FLOOR = 1e-8  # smallest coverage kept, relative to the largest


@dataclass(frozen=True)
class FrameShifts:
    """Shift sequences for all frames: d has shape (Ns, n), in space units."""

    d: np.ndarray
    spec: ShiftSpec

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        if d.ndim != 2:
            raise ValueError(f"shifts of shape {d.shape}: need one row per frame")
        object.__setattr__(self, "d", d)

    @property
    def n_frames(self) -> int:
        return self.d.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.d.shape[1]


@dataclass
class FrameBasis:
    """Modes of one frame, one column per mode."""

    modes: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=float)
        if self.modes.ndim != 2:
            raise ValueError("frame modes must form a 2-d array")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]


@dataclass
class Decomposition:
    frames: list  # list[FrameBasis]
    amplitudes: list  # list of (r_l, n) arrays
    shifts: FrameShifts
    grid: Grid1D
    blocks: list  # list[VariableBlock]

    def __post_init__(self):
        if len(self.frames) != self.shifts.n_frames:
            raise ValueError(
                f"{len(self.frames)} frames but {self.shifts.n_frames} shift rows"
            )
        if len(self.amplitudes) != len(self.frames):
            raise ValueError("one amplitude matrix per frame required")
        rows = len(self.blocks) * self.grid.m
        check_blocks(self.blocks, self.grid.m, rows)
        for l, (fb, A) in enumerate(zip(self.frames, self.amplitudes)):
            if fb.modes.shape[0] != rows:
                raise ValueError(f"frame {l} has {fb.modes.shape[0]} mode rows,"
                                 f" expected {rows}")
            if A.shape != (fb.n_modes, self.shifts.n_snapshots):
                raise ValueError(
                    f"amplitude shape {A.shape} does not match "
                    f"({fb.n_modes}, {self.shifts.n_snapshots})"
                )


def _least_squares(K: np.ndarray, XT: np.ndarray, rank_tol: float):
    """Minimum-norm least squares K[j]^T a_j ~= XT[j] for a stack of systems.

    K has shape (n, R, M), one row per mode, and XT shape (n, M); one
    stacked SVD of the transposes K[j]^T covers every system.  Singular
    values at or below rank_tol times the largest of their system count
    as zero, so an all-zero K[j] gives a_j = 0.  Returns the amplitudes
    (n, R), the residuals XT[j] - K[j]^T a_j (n, M) and the ranks (n,).
    """
    U, s, Vt = np.linalg.svd(K.transpose(0, 2, 1), full_matrices=False)
    keep = (s > rank_tol * s[:, :1]) & (s[:, :1] > 0.0)
    c = np.matmul(XT[:, None, :], U)[:, 0]
    c *= keep
    resid = np.matmul(U, c[:, :, None])[..., 0]
    np.subtract(XT, resid, out=resid)
    scaled = np.divide(c, s, out=np.zeros_like(c), where=keep)
    amps = np.matmul(scaled[:, None, :], Vt)[:, 0]
    return amps, resid, keep.sum(axis=1)


def _solve_amplitudes(K: np.ndarray, XT: np.ndarray, rank_tol: float):
    """Minimum-norm least squares K[j]^T a_j ~= XT[j], K shaped (n, R, M).

    With G = K[j] K[j]^T, D = sqrt(diag G), b_j = K[j] XT[j] and the eigh
    V diag(lam) V^T = D^-1 G D^-1, a_j = D^-1 V diag(lam)^-1 V^T D^-1 b_j
    if D > 0, cond = sqrt(lam_max / lam_min) <= GRAM_COND_MAX and s_min/s_max
    >= min(D) / (max(D) cond) > RANK_MARGIN * rank_tol: the SVD would keep
    every singular value too.  _least_squares solves the rest.  Returns
    a (n, R), the residuals (n, M), b, the ranks and the SVD solve count.
    """
    n, R = K.shape[:2]
    if R == 0:
        return np.zeros((n, 0)), XT.copy(), np.zeros((n, 0)), np.zeros(n, int), 0
    G = np.matmul(K, K.transpose(0, 2, 1))
    b = np.matmul(K, XT[:, :, None])[..., 0]
    d = np.sqrt(np.diagonal(G, axis1=1, axis2=2))
    fast = np.all((d > 0.0) & (d < np.inf), axis=1)
    d = d[fast]
    lam, V = np.linalg.eigh(G[fast] / (d[:, :, None] * d[:, None, :]))
    inv_cond = np.sqrt(np.maximum(lam[:, 0], 0.0) / lam[:, -1])
    ok = (inv_cond * GRAM_COND_MAX >= 1.0) & (
        inv_cond * d.min(axis=1) / d.max(axis=1) > RANK_MARGIN * rank_tol)
    fast[fast] = ok
    d, lam, V, slow = d[ok], lam[ok], V[ok], np.flatnonzero(~fast)
    A, ranks = np.empty((n, R)), np.full(n, R)
    y = np.matmul((b[fast] / d)[:, None, :], V)[:, 0] / lam
    A[fast] = np.matmul(V, y[:, :, None])[..., 0] / d
    A[slow], resid_slow, ranks[slow] = _least_squares(K[slow], XT[slow], rank_tol)
    resid = np.matmul(A[:, None, :], K)[:, 0]
    np.subtract(XT, resid, out=resid)
    resid[slow] = resid_slow
    return A, resid, b, ranks, slow.size


def optimal_amplitudes(K: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares amplitudes of one snapshot.

    Solves min_a ||K a - x|| picking the solution with smallest Euclidean
    norm; singular values at or below RANK_TOL times the largest are
    treated as zero.  An all-zero K returns zero amplitudes.
    """
    K = np.asarray(K, dtype=float)
    x = np.asarray(x, dtype=float)
    if K.ndim != 2 or x.shape != (K.shape[0],):
        raise ValueError(f"shape mismatch: K {K.shape}, x {x.shape}")
    return _solve_amplitudes(K.T[None], x[None], RANK_TOL)[0][0]


class ReducedObjective:
    """Reduced objective and gradient for fixed shifts and mode counts.

    Holds per frame l the stacked operator [T(d_1); ...; T(d_n)] of shape
    (n*m, m) as ops[l], its transpose as ops_T[l], and one contiguous copy
    of X^T, so that repeated evaluations (line searches) only pay operator
    products plus one batched Gram solve of all frame matrices K_j (an SVD
    where it is unsafe, counted in svd_fallback_solves).  A frame holds
    one set of arrays.  When every shift of the frame is a grid multiple,
    ops[l] and ops_T[l] are both its node_map, the n*m intp source nodes
    of the rows: the forward product is a gather, the transpose a
    bincount, and scipy is never imported.  Otherwise ops_T[l] is the CSR
    of the transpose of shift_operator(d^l), and ops[l] is its CSC view,
    whose forward product costs what the CSR one does.  apply_stack and
    apply_stack_transpose take either form.  Every form adds each output
    entry in ascending index order, so the products are those of CSR
    copies to the bit; call .tocsr() on a sparse form where CSR arrays
    are needed.  The operators and the data depend on the shifts alone:
    with_counts returns the same problem with other mode counts, sharing
    both.  Column c of W = [W^1 ... W^L] belongs to frame frame_of[c],
    frame l owns the columns frame_cols[l], and the flat variables are
    z = vec(W).
    value_and_gradient returns the full squared residual
    J = sum_j ||X_j - K_j a_j||^2, summed from the explicit residual
    rather than as ||X||^2 + Jt, which cancels to noise once the fit is
    close; J is the quantity the optimizer minimizes and the reduced part Jt
    is available from evaluate().

    n_evals counts the evaluations and rank_deficient_solves the snapshot
    solves whose K_j was numerically rank-deficient (the objective is not
    smooth across such rank changes); with_counts starts both at zero.
    """

    def __init__(self, snaps: SnapshotSet, shifts: FrameShifts, mode_counts,
                 masks=None, rank_tol: float = RANK_TOL):
        if shifts.n_snapshots != snaps.n_snapshots:
            raise ValueError(
                f"shifts cover {shifts.n_snapshots} snapshots, data has "
                f"{snaps.n_snapshots}"
            )
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.norm2 = float(np.sum(snaps.data * snaps.data))
        if self.norm2 == 0.0:  # relative errors divide by it
            raise ValueError("snapshot matrix is identically zero")
        if not np.isfinite(self.norm2):
            raise ValueError(
                "snapshot matrix holds NaN or infinite entries"
                if not np.isfinite(snaps.data).all() else
                "squared norm of the snapshot matrix overflows; rescale the data")
        self.XT = np.ascontiguousarray(snaps.data.T)  # one row per snapshot
        self.grid = snaps.grid
        self.n_blocks = len(snaps.blocks)
        self.rank_tol = rank_tol
        self.m_total = snaps.n_rows
        self.ops, self.ops_T = [], []
        for d_row in shifts.d:
            nodes = node_map(d_row, snaps.grid, shifts.spec)
            if nodes is None:  # fractional shifts: the CSR of T^T alone
                T_T = shift_operator(d_row, snaps.grid, shifts.spec).T.tocsr()
                self.ops.append(T_T.T)
                self.ops_T.append(T_T)
            else:
                self.ops.append(nodes)
                self.ops_T.append(nodes)
        self.masks = self._check_masks(masks)
        self._set_counts(mode_counts)

    def with_counts(self, mode_counts) -> "ReducedObjective":
        """The same problem with other mode counts and fresh counters; the
        data, masks, operators and X^T are shared."""
        other = copy.copy(self)
        other._set_counts(mode_counts)
        return other

    def _set_counts(self, mode_counts):
        if len(mode_counts) != len(self.ops):
            raise ValueError(
                f"{len(mode_counts)} mode counts for {len(self.ops)} frames")
        self.mode_counts = [int(r) for r in mode_counts]
        if any(r < 0 for r in self.mode_counts):
            raise ValueError("mode counts must be nonnegative")
        self.frame_of = np.repeat(np.arange(len(self.ops)), self.mode_counts)
        cols = np.cumsum([0] + self.mode_counts)
        self.frame_cols = [slice(a, b) for a, b in zip(cols, cols[1:])]
        self.n_evals = 0
        self.rank_deficient_solves = 0
        self.svd_fallback_solves = 0

    def _check_masks(self, masks):
        if masks is None:
            return [None] * len(self.ops)
        if len(masks) != len(self.ops):
            raise ValueError(f"{len(masks)} masks for {len(self.ops)} frames")
        masks = [None if mk is None else np.asarray(mk, dtype=bool) for mk in masks]
        for l, mk in enumerate(masks):
            if mk is not None and mk.shape != (self.m_total,):
                raise ValueError(f"mask of frame {l} has shape {mk.shape}, "
                                 f"expected ({self.m_total},)")
        return masks

    # --- flat variable layout -------------------------------------------
    def _stack(self, modes_list) -> np.ndarray:
        """W = [W^1 ... W^L] from one (m_total, r_l) array per frame."""
        if len(modes_list) != len(self.ops):
            raise ValueError(
                f"{len(modes_list)} mode blocks for {len(self.ops)} frames")
        blocks = [np.asarray(W, dtype=float) for W in modes_list]
        for W, r in zip(blocks, self.mode_counts):
            if W.shape != (self.m_total, r):
                raise ValueError(
                    f"mode block {W.shape} does not match ({self.m_total}, {r})")
        return np.hstack(blocks) if blocks else np.empty((self.m_total, 0))

    def pack(self, modes_list) -> np.ndarray:
        """z = vec(W) for one (m_total, r_l) array per frame."""
        return self._stack(modes_list).ravel(order="F")

    def unpack(self, z: np.ndarray) -> list:
        """The per-frame column blocks W^l of W = mat(z), masked rows zero."""
        size = self.m_total * self.frame_of.size
        if z.size != size:
            raise ValueError(f"variable vector has {z.size} entries, expected {size}")
        W = z.reshape((self.m_total, self.frame_of.size), order="F")
        out = [W[:, cl].copy() for cl in self.frame_cols]
        for Wl, mk in zip(out, self.masks):
            if mk is not None:
                Wl[mk] = 0.0
        return out

    # --- evaluation ------------------------------------------------------
    def evaluate(self, modes_list, need_gradient: bool = True):
        """Returns (Jt, gradients, amplitudes, residual).

        modes_list: one (m_total, r_l) array per frame, masked rows zero
        (as unpack leaves them).  gradients: per frame an
        (m_total, r_l) array, the column block frame_cols[l] of one
        gradient with respect to W (None unless requested); amplitudes:
        per frame an (r_l, n) array; residual: the (m_total, n) residuals
        X_j - K_j a_j, a transposed view of an (n, m_total) array.
        """
        W = self._stack(modes_list)
        self.n_evals += 1
        (n, m_total), R, nb, m = self.XT.shape, W.shape[1], self.n_blocks, self.grid.m
        # one gather target for all node-map products, allocated below K: a
        # fresh array per product lifted the heap top to glibc's trim
        # threshold, and each evaluation refaulted 8 MB of the wave pair
        Tw = np.empty(n * m)
        K = np.empty((n, R, nb, m))  # mode-major: K[j, c, k] = T(d_j) W[block k, c]
        for c, k in np.ndindex(R, nb):
            K[:, c, k] = apply_stack(self.ops[self.frame_of[c]],
                                     W[k * m:(k + 1) * m, c], out=Tw).reshape(n, m)
        del W, Tw  # freed before the solve: alive, W left glibc's heap 0.7 MB larger
        A, resid, b, ranks, n_svd = _solve_amplitudes(
            K.reshape(n, R, m_total), self.XT, self.rank_tol)
        del K  # freed before the gradient allocates its products
        self.svd_fallback_solves += n_svd
        self.rank_deficient_solves += int(np.count_nonzero(ranks < min(m_total, R)))

        grads = None
        if need_gradient:
            # column c, block k: sum_j a_cj T(d_j)^T [X_j - K_j a_j]_k
            resid_blocks = resid.reshape(n, nb, m)
            G, Z = np.empty((m_total, R), order="F"), np.empty((n, m))
            for c, k in np.ndindex(R, nb):
                np.multiply(resid_blocks[:, k], A[:, c, None], out=Z)
                G[k * m:(k + 1) * m, c] = apply_stack_transpose(
                    self.ops_T[self.frame_of[c]], Z.ravel(), m)
            G *= -2.0  # before masking, so that masked entries are +0.0
            for mk, cl in zip(self.masks, self.frame_cols):
                if mk is not None:
                    G[mk, cl] = 0.0
            grads = [G[:, cl] for cl in self.frame_cols]
        amps = [A[:, cl].T.copy() for cl in self.frame_cols]
        return -float(np.vdot(b, A)), grads, amps, resid.T

    def value_and_gradient(self, z: np.ndarray):
        """Optimizer callback: full squared residual J and its flat gradient."""
        return self.value_gradient_amplitudes(z)[:2]

    def value_gradient_amplitudes(self, z: np.ndarray):
        """J, its flat gradient, and the per-frame amplitudes and residual
        (as evaluate returns them) of one evaluation at the flat variables z."""
        _, grads, amps, resid = self.evaluate(self.unpack(z), need_gradient=True)
        g = np.concatenate([G.ravel(order="F") for G in grads]) if grads else np.zeros(0)
        r = resid.ravel(order="K")  # memory order: a view, not a copy
        return float(r @ r), g, amps, resid

    def variable_metric(self, amps) -> np.ndarray:
        """Diagonal L-BFGS metric M of the flat variables z = vec(W) for
        the per-frame amplitudes amps, shaped (r_l, n).

        Entry i of column k of W, a mode of frame l, has the coverage
        c = sum_j a_kj^2 ||T(d^l_j) e_i||^2 in every variable block: how
        strongly the residuals see it, and so the diagonal of the
        Gauss-Newton matrix up to the projection.  c is clamped at
        COVERAGE_FLOOR times its maximum, so that entries the shifts never
        reach stay finite, and M = min(c) / c lies in (0, 1].  Without a
        finite positive maximum of c, M is all ones.
        """
        m = self.grid.m
        C = np.empty((m, self.frame_of.size))  # coverage of one block
        for T, A, cl in zip(self.ops_T, amps, self.frame_cols, strict=True):
            C[:, cl] = apply_stack_transpose(T, np.repeat(A.T ** 2, m, axis=0), m,
                                             squared=True)
        c = np.tile(C, (self.n_blocks, 1)).ravel(order="F")
        top = c.max(initial=0.0)
        if not 0.0 < top < np.inf:
            return np.ones_like(c)
        c = np.maximum(c, COVERAGE_FLOOR * top)
        return c.min() / c

    def relative_error_of(self, value: float) -> float:
        """Map an objective value J to the relative squared error J / ||X||^2."""
        return max(value, 0.0) / self.norm2


def objective_and_gradient(snaps: SnapshotSet, frames, shifts: FrameShifts):
    """One-shot reduced objective Jt, per-mode gradients and amplitudes.

    For masked modes, or for repeated evaluations, construct a
    ReducedObjective instead, which takes the masks and caches the shift
    operators.
    """
    prob = ReducedObjective(snaps, shifts, [f.n_modes for f in frames])
    Jt, grads, amps, _ = prob.evaluate([f.modes for f in frames])
    return Jt, grads, amps


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Evaluate the decomposition: X~_j = sum_l T(d^l_j) W^l a^l_j."""
    out = np.zeros((len(dec.blocks) * dec.grid.m, dec.shifts.n_snapshots))
    for fb, A, d_row in zip(dec.frames, dec.amplitudes, dec.shifts.d):
        # fb.modes @ A is still in frame coordinates
        out += apply_shift(fb.modes @ A, d_row, dec.grid, dec.shifts.spec)
    return out
