"""Reduced objective, amplitudes, gradients, assembly, reconstruction."""

import numpy as np
import pytest

from spod.core import (GRAM_COND_MAX, RANK_TOL, Decomposition, FrameBasis,
                       FrameShifts,
                       ReducedObjective, _least_squares,
                       _solve_amplitudes, objective_and_gradient,
                       optimal_amplitudes, reconstruct)
from spod.generators import three_signal_default
from spod.shifts import (ShiftSpec, apply_stack, apply_stack_transpose,
                         dense_shift_matrix, node_map, shift_operator)
from spod.snapshots import Grid1D, SnapshotSet, VariableBlock

PER3 = ShiftSpec("periodic", 3)


def random_problem(m=16, n=7, n_s=2, n_blocks=1, seed=0, boundary="periodic"):
    rng = np.random.default_rng(seed)
    grid = Grid1D(m, 1.0 / m, boundary)
    blocks = tuple(VariableBlock(f"v{b}", b * m, (b + 1) * m)
                   for b in range(n_blocks))
    X = rng.standard_normal((n_blocks * m, n))
    snaps = SnapshotSet(X, grid, np.arange(n, dtype=float), blocks)
    spec = ShiftSpec("periodic" if boundary == "periodic" else "constant", 3)
    d = rng.uniform(-0.3, 0.3, size=(n_s, n))
    return snaps, FrameShifts(d, spec), rng


def brute_force_frame_matrix(snaps, shifts, modes_list, j):
    """Independent assembly: dense operators applied block by block."""
    m = snaps.grid.m
    cols = []
    for l, W in enumerate(modes_list):
        T = dense_shift_matrix(shifts.d[l, j], snaps.grid, shifts.spec)
        for k in range(W.shape[1]):
            col = np.concatenate([T @ W[b * m:(b + 1) * m, k]
                                  for b in range(len(snaps.blocks))])
            cols.append(col)
    if not cols:
        return np.zeros((snaps.n_rows, 0))
    return np.column_stack(cols)


def frame_ranks(snaps, shifts, modes_list):
    """The numerical rank of each brute-force K_j, as the amplitude solve
    finds it."""
    K = np.stack([brute_force_frame_matrix(snaps, shifts, modes_list, j).T
                  for j in range(snaps.n_snapshots)])
    return _solve_amplitudes(K, snaps.data.T, RANK_TOL)[3].tolist()


class TestAmplitudes:
    def test_against_pseudoinverse_and_normal_equations(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            m = rng.integers(4, 30)
            r = rng.integers(1, min(m, 8) + 1)
            K = rng.standard_normal((m, r))
            if trial % 3 == 0 and r >= 2:
                K[:, -1] = K[:, 0]  # force rank deficiency
            x = rng.standard_normal(m)
            a = optimal_amplitudes(K, x)
            np.testing.assert_allclose(a, np.linalg.pinv(K) @ x, atol=1e-10)
            # normal equations via pinv of K^T K give the same min-norm point
            a2 = np.linalg.pinv(K.T @ K) @ (K.T @ x)
            np.testing.assert_allclose(a, a2, atol=1e-8)

    def test_duplicate_column_splits_weight_evenly(self):
        w = np.array([1.0, 2.0, -1.0])
        K = np.column_stack([w, w])
        a = optimal_amplitudes(K, w)
        np.testing.assert_allclose(a, [0.5, 0.5], atol=1e-12)

    def test_minimum_norm_among_solutions(self):
        # any other exact solution of the duplicate-column system is longer
        w = np.array([3.0, -1.0, 2.0, 0.5])
        K = np.column_stack([w, w])
        a = optimal_amplitudes(K, 2.0 * w)
        for t in np.linspace(-1.0, 3.0, 13):
            other = np.array([t, 2.0 - t])
            np.testing.assert_allclose(K @ other, 2.0 * w, atol=1e-12)
            assert np.linalg.norm(a) <= np.linalg.norm(other) + 1e-12

    def test_zero_matrix_gives_zero_amplitudes(self):
        a = optimal_amplitudes(np.zeros((5, 3)), np.ones(5))
        np.testing.assert_array_equal(a, np.zeros(3))

    def test_empty_basis(self):
        a = optimal_amplitudes(np.zeros((5, 0)), np.ones(5))
        assert a.shape == (0,)


def svd_solve(K, XT):
    """_least_squares on a mode-major stack, one system at a time."""
    out = [_least_squares(K[j:j + 1], XT[j:j + 1], 1e-10)
           for j in range(K.shape[0])]
    return (np.vstack([o[0] for o in out]), np.vstack([o[1] for o in out]),
            np.concatenate([o[2] for o in out]))


def scaled_cond(Kj):
    """cond(K_j D^-1) of a mode-major K_j: its rows scaled to unit norm."""
    s = np.linalg.svd(Kj / np.linalg.norm(Kj, axis=1, keepdims=True),
                      compute_uv=False)
    return s[0] / s[-1]


class TestGramSolve:
    def test_matches_svd_on_well_conditioned_stacks(self):
        # the Gram path's error grows with cond(K_j D^-1)**2 * eps; these
        # stacks have cond < 10, so 1e-12 * cond * ||a_j|| bounds it
        rng = np.random.default_rng(21)
        for R in range(1, 7):
            n, M = 40, 60
            K = rng.standard_normal((n, R, M)) * rng.uniform(0.1, 10.0, (n, R, 1))
            XT = rng.standard_normal((n, M))
            A, resid, b, ranks, n_svd = _solve_amplitudes(K, XT, 1e-10)
            ref_a, ref_r, ref_ranks = svd_solve(K, XT)
            assert n_svd == 0
            np.testing.assert_array_equal(ranks, ref_ranks)
            np.testing.assert_array_equal(ranks, R)
            for j in range(n):
                scale = np.linalg.norm(ref_a[j]) * scaled_cond(K[j])
                assert np.linalg.norm(A[j] - ref_a[j]) <= 1e-12 * scale
                assert (np.linalg.norm(resid[j] - ref_r[j])
                        <= 1e-12 * np.linalg.norm(XT[j]))
            # Jt's terms b_j . a_j are the projected energies ||U_j1^T x_j||^2
            np.testing.assert_allclose(np.sum(b * A, axis=1),
                                       np.sum((XT - ref_r) ** 2, axis=1),
                                       rtol=1e-12)

    def guarded_stack(self):
        """Snapshots 0-3 fail the guard, snapshot 4 passes it."""
        rng = np.random.default_rng(22)
        M = 30
        u, v, w = np.linalg.qr(rng.standard_normal((M, 3)))[0].T
        theta = 2e-6  # two unit rows at this angle: cond(K D^-1) ~ 2 / theta
        K = np.stack([
            np.stack([u, np.zeros(M), w]),                        # zero column
            np.stack([u, w, u]),                                  # duplicate
            np.stack([u, np.cos(theta) * u + np.sin(theta) * v, w]),  # collinear
            np.stack([u, 1e-8 * v, w]),   # s_min/s_max near RANK_MARGIN * rank_tol
            np.stack([u, v, w]),
        ])
        XT = rng.standard_normal((5, M))
        return K, XT

    def test_guard_sends_deficient_and_ill_conditioned_systems_to_svd(self):
        K, XT = self.guarded_stack()
        assert scaled_cond(K[2]) == pytest.approx(1e6, rel=0.01)
        assert scaled_cond(K[2]) > 100 * GRAM_COND_MAX
        A, resid, b, ranks, n_svd = _solve_amplitudes(K, XT, 1e-10)
        assert n_svd == 4
        ref_a, ref_r, ref_ranks = svd_solve(K, XT)
        np.testing.assert_array_equal(ranks, [2, 2, 3, 3, 3])
        np.testing.assert_array_equal(ranks, ref_ranks)
        np.testing.assert_allclose(A[:4], ref_a[:4], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(resid[:4], ref_r[:4], rtol=1e-12,
                                   atol=1e-12)
        # minimum norm: the zero column gets nothing, the tied pair splits
        assert A[0, 1] == 0.0
        assert A[1, 0] == pytest.approx(A[1, 2], rel=1e-12)
        for j in range(5):
            np.testing.assert_allclose(
                A[j], np.linalg.pinv(K[j].T, rtol=1e-10) @ XT[j],
                rtol=1e-9, atol=1e-9 * np.linalg.norm(A[j]))

    def test_passing_snapshots_solve_as_in_an_all_passing_batch(self):
        # the four failing systems of guarded_stack among passing ones
        K_bad, XT_bad = self.guarded_stack()
        rng = np.random.default_rng(25)
        n, M = 10, K_bad.shape[2]
        slow = np.array([1, 4, 5, 7])
        fast = np.setdiff1d(np.arange(n), slow)
        K, XT = np.empty((n, 3, M)), np.empty((n, M))
        K[slow], XT[slow] = K_bad[:4], XT_bad[:4]
        K[fast] = np.concatenate([K_bad[4:], rng.standard_normal((5, 3, M))])
        XT[fast] = np.concatenate([XT_bad[4:], rng.standard_normal((5, M))])
        A, resid, b, ranks, n_svd = _solve_amplitudes(K, XT, 1e-10)
        A_ok, resid_ok, b_ok, ranks_ok, n_ok = _solve_amplitudes(
            np.ascontiguousarray(K[fast]), np.ascontiguousarray(XT[fast]), 1e-10)
        assert (n_svd, n_ok) == (4, 0)
        for ours, alone in [(A, A_ok), (resid, resid_ok), (b, b_ok),
                            (ranks, ranks_ok)]:
            assert np.array_equal(ours[fast], alone)
        np.testing.assert_array_equal(ranks[slow], [2, 2, 3, 3])
        for j in range(n):  # within the rounding of A K; bit-equal below
            scale = np.max(np.abs(XT[j]) + np.abs(A[j]) @ np.abs(K[j]))
            np.testing.assert_allclose(resid[j], XT[j] - A[j] @ K[j], rtol=0,
                                       atol=1e-12 * scale)
        assert np.array_equal(
            resid[fast], XT[fast] - np.matmul(A[fast, None, :], K[fast])[:, 0])

    def test_rank_tol_sets_the_rank_of_widely_spread_columns(self):
        # cond(K D^-1) = 1, yet s_min/s_max = 1e-12 < rank_tol: rank 2
        K = np.array([[[1.0, 0.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 0.0, 1.0]]])
        A, _, _, ranks, n_svd = _solve_amplitudes(K, np.ones((1, 3)), 1e-10)
        assert n_svd == 1 and ranks.tolist() == [2]
        np.testing.assert_array_equal(A, [[1.0, 0.0, 1.0]])

    def test_optimal_amplitudes_split_tied_columns_evenly(self):
        w = np.array([1.0, 2.0, -1.0, 0.5])
        for scale in (1.0, 1e-6, 1e6):
            a = optimal_amplitudes(np.column_stack([w, w]) * scale, w * scale)
            np.testing.assert_allclose(a, [0.5, 0.5], rtol=1e-12)

    def test_objective_counts_svd_fallback_solves(self):
        snaps, shifts, rng = random_problem(m=10, n=4, n_s=2, seed=23)
        d = shifts.d.copy()
        d[1, 2] = d[0, 2]  # K_2 alone has two equal columns
        shifts = FrameShifts(d, shifts.spec)
        prob = ReducedObjective(snaps, shifts, [1, 1])
        w = rng.standard_normal((snaps.n_rows, 1))
        assert frame_ranks(snaps, shifts, [w, w]) == [2, 2, 1, 2]
        prob.evaluate([w, w], need_gradient=False)
        prob.evaluate([w, w])
        assert prob.svd_fallback_solves == prob.rank_deficient_solves == 2
        fresh = prob.with_counts([1, 1])
        assert fresh.svd_fallback_solves == fresh.rank_deficient_solves == 0
        assert prob.svd_fallback_solves == prob.rank_deficient_solves == 2
        fresh.evaluate([w, rng.standard_normal((snaps.n_rows, 1))])
        assert fresh.svd_fallback_solves == fresh.rank_deficient_solves == 0


class TestObjective:
    def brute_force_value(self, snaps, shifts, modes_list):
        """J~ from the definition: project each column on range(K_j)."""
        total = 0.0
        for j in range(snaps.n_snapshots):
            K = brute_force_frame_matrix(snaps, shifts, modes_list, j)
            if K.shape[1] == 0:
                continue
            U, s, _ = np.linalg.svd(K, full_matrices=False)
            rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
            U1 = U[:, :rank]
            total -= float(np.linalg.norm(U1.T @ snaps.data[:, j]) ** 2)
        return total

    def test_value_matches_definition(self):
        snaps, shifts, rng = random_problem(m=12, n=6, n_s=2, n_blocks=2,
                                            seed=7)
        counts = [2, 1]
        modes = [rng.standard_normal((snaps.n_rows, r)) for r in counts]
        prob = ReducedObjective(snaps, shifts, counts)
        val, _, _, _ = prob.evaluate(modes, need_gradient=False)
        assert val == pytest.approx(self.brute_force_value(snaps, shifts, modes),
                                    abs=1e-10)

    def test_objective_equals_residual_norm(self):
        # norm2 + J~ must equal the actual squared residual with the
        # least-squares amplitudes filled in
        snaps, shifts, rng = random_problem(m=14, n=5, n_s=2, seed=8)
        counts = [2, 2]
        modes = [rng.standard_normal((snaps.n_rows, r)) for r in counts]
        prob = ReducedObjective(snaps, shifts, counts)
        val, _, amps, _ = prob.evaluate(modes, need_gradient=False)
        dec = Decomposition([FrameBasis(W) for W in modes], amps, shifts,
                            snaps.grid, list(snaps.blocks))
        resid = np.linalg.norm(snaps.data - reconstruct(dec), "fro") ** 2
        assert prob.norm2 + val == pytest.approx(resid, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        snaps, shifts, rng = random_problem(m=12, n=5, n_s=2, seed=9)
        counts = [1, 2]
        prob = ReducedObjective(snaps, shifts, counts)
        z0 = rng.standard_normal(sum(snaps.n_rows * r for r in counts))
        _, g = prob.value_and_gradient(z0)
        eps = 1e-6
        for _ in range(10):
            v = rng.standard_normal(z0.size)
            v /= np.linalg.norm(v)
            fp = prob.value_and_gradient(z0 + eps * v)[0]
            fm = prob.value_and_gradient(z0 - eps * v)[0]
            assert (fp - fm) / (2 * eps) == pytest.approx(g @ v, rel=1e-5,
                                                          abs=1e-7)

    def test_spec_surface_returns_value_gradients_amplitudes(self):
        snaps, shifts, rng = random_problem(m=10, n=4, n_s=2, seed=10)
        frames = [FrameBasis(rng.standard_normal((snaps.n_rows, 1)))
                  for _ in range(2)]
        val, grads, amps = objective_and_gradient(snaps, frames, shifts)
        assert val <= 0.0
        assert len(grads) == 2 and len(amps) == 2
        assert grads[0].shape == frames[0].modes.shape
        assert amps[0].shape == (1, snaps.n_snapshots)

    def test_rank_deficient_solves_counted_for_deficient_bases(self):
        snaps, shifts, rng = random_problem(m=10, n=4, n_s=1, seed=11)
        w = rng.standard_normal((snaps.n_rows, 1))
        modes = [np.hstack([w, w])]  # duplicate mode: K_j rank 1 of 2
        assert frame_ranks(snaps, shifts, modes) == [1] * snaps.n_snapshots
        prob = ReducedObjective(snaps, shifts, [2])
        prob.evaluate(modes, need_gradient=False)
        assert prob.rank_deficient_solves == snaps.n_snapshots

    def test_batched_projection_matches_per_snapshot_pinv(self):
        # frames share their mode, and their shifts agree at snapshot 3
        # only, so K_3 alone is rank-deficient
        snaps, shifts, rng = random_problem(m=12, n=6, n_s=2, n_blocks=2,
                                            seed=14)
        d = shifts.d.copy()
        d[1, 3] = d[0, 3]
        shifts = FrameShifts(d, shifts.spec)
        w = rng.standard_normal((snaps.n_rows, 1))
        frames = [FrameBasis(w), FrameBasis(w.copy())]
        prob = ReducedObjective(snaps, shifts, [1, 1])
        Jt, _, amps, resid = prob.evaluate([f.modes for f in frames])
        assert frame_ranks(snaps, shifts, [w, w]) == [2, 2, 2, 1, 2, 2]
        assert prob.rank_deficient_solves == 1

        ref_a = np.empty((2, snaps.n_snapshots))
        ref_r = np.empty_like(snaps.data)
        for j in range(snaps.n_snapshots):
            K = brute_force_frame_matrix(snaps, shifts,
                                         [f.modes for f in frames], j)
            ref_a[:, j] = np.linalg.pinv(K, rtol=1e-10) @ snaps.data[:, j]
            ref_r[:, j] = snaps.data[:, j] - K @ ref_a[:, j]
        ref_Jt = -np.sum((snaps.data - ref_r) ** 2)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        assert abs(Jt - ref_Jt) <= 1e-12 * abs(ref_Jt)
        assert close(np.vstack(amps), ref_a)
        assert close(resid, ref_r)

    @pytest.mark.parametrize("n_blocks, boundary",
                             [(1, "periodic"), (2, "non-periodic")])
    def test_amplitudes_solve_the_dense_frame_system(self, n_blocks, boundary):
        # frames in order, modes in order within a frame, each frame's
        # shift acting alike on every variable block of its modes
        snaps, shifts, rng = random_problem(m=10, n=5, n_s=2,
                                            n_blocks=n_blocks, seed=4,
                                            boundary=boundary)
        modes = [rng.standard_normal((snaps.n_rows, r)) for r in (2, 1)]
        _, _, amps, resid = ReducedObjective(snaps, shifts, [2, 1]).evaluate(
            modes, need_gradient=False)
        for j in range(snaps.n_snapshots):
            K = brute_force_frame_matrix(snaps, shifts, modes, j)
            a = np.linalg.lstsq(K, snaps.data[:, j], rcond=None)[0]
            np.testing.assert_allclose(np.concatenate([A[:, j] for A in amps]),
                                       a, atol=1e-10)
            np.testing.assert_allclose(resid[:, j], snaps.data[:, j] - K @ a,
                                       atol=1e-10)

    @pytest.mark.parametrize("n_s", [0, 2])  # no frames: W is (m_total, 0)
    def test_frames_without_modes_leave_the_data_as_residual(self, n_s):
        snaps, shifts, _ = random_problem(n_s=n_s)
        frames = [FrameBasis(np.zeros((snaps.n_rows, 0))) for _ in range(n_s)]
        Jt, grads, amps = objective_and_gradient(snaps, frames, shifts)
        assert Jt == 0.0
        assert [g.shape for g in grads] == [(snaps.n_rows, 0)] * n_s
        assert [A.shape for A in amps] == [(0, snaps.n_snapshots)] * n_s
        prob = ReducedObjective(snaps, shifts, [0] * n_s)
        _, _, _, resid = prob.evaluate([f.modes for f in frames])
        np.testing.assert_array_equal(resid, snaps.data)
        assert prob.value_and_gradient(np.zeros(0))[1].shape == (0,)

    def test_masked_rows_stay_zero_and_carry_no_gradient(self):
        snaps, shifts, rng = random_problem(m=8, n=4, n_s=2, n_blocks=2,
                                            seed=12)
        mask = np.zeros(snaps.n_rows, dtype=bool)
        mask[8:] = True  # pin the second block of frame 0
        prob = ReducedObjective(snaps, shifts, [1, 1], masks=[mask, None])
        z = rng.standard_normal(2 * snaps.n_rows)
        modes = prob.unpack(z)
        assert np.array_equal(modes[0][8:], np.zeros((8, 1)))
        _, g = prob.value_and_gradient(z)
        np.testing.assert_array_equal(g[8:16], 0.0)
        assert not np.any(np.signbit(g[8:16]))  # +0.0: zeroed after scaling
        assert np.any(g[:8] != 0.0)

    def test_masks_must_cover_every_row(self):
        snaps, shifts, _ = random_problem(m=32, n=4, n_s=2)
        msg = r"mask of frame 1 has shape \(31,\), expected \(32,\)"
        with pytest.raises(ValueError, match=msg):
            ReducedObjective(snaps, shifts, [1, 1],
                             masks=[None, np.zeros(31, dtype=bool)])

    def test_mode_blocks_must_match_the_frames_and_counts(self):
        # evaluate and pack share one check: a short list would leave
        # columns of K unset, a wide block would be cut to its counts
        snaps, shifts = three_signal_default(m=32, n=8)
        prob = ReducedObjective(snaps, shifts, [1, 1, 1])
        w = np.ones((snaps.n_rows, 1))
        wide = rf"mode block \({snaps.n_rows}, 2\) does not match"
        for modes, msg in [([w, w], "2 mode blocks for 3 frames"),
                           ([w, w, w, w], "4 mode blocks for 3 frames"),
                           ([w, np.hstack([w, w]), w], wide)]:
            with pytest.raises(ValueError, match=msg):
                prob.evaluate(modes)
            with pytest.raises(ValueError, match=msg):
                prob.pack(modes)
        assert prob.n_evals == 0

    def test_with_counts_shares_operators_and_data(self):
        snaps, shifts, rng = random_problem(m=12, n=5, n_s=2, n_blocks=2,
                                            seed=15)
        mask = np.zeros(snaps.n_rows, dtype=bool)
        mask[12:] = True
        base = ReducedObjective(snaps, shifts, [2, 1], masks=[mask, None])
        w = rng.standard_normal((snaps.n_rows, 1))
        base.evaluate([np.hstack([w, w]), w], need_gradient=False)
        assert base.n_evals == 1 and base.rank_deficient_solves > 0

        prob = base.with_counts([1, 2])
        assert prob.ops is base.ops and prob.ops_T is base.ops_T
        assert prob.XT is base.XT
        assert prob.masks is base.masks
        assert prob.n_evals == 0 and prob.rank_deficient_solves == 0
        assert prob.mode_counts == [1, 2] and base.mode_counts == [2, 1]
        z = rng.standard_normal(3 * snaps.n_rows)
        fresh = ReducedObjective(snaps, shifts, [1, 2], masks=[mask, None])
        f_shared, g_shared = prob.value_and_gradient(z)
        f_fresh, g_fresh = fresh.value_and_gradient(z)
        assert f_shared == f_fresh
        assert np.array_equal(g_shared, g_fresh)
        assert base.n_evals == 1

    def test_with_counts_validates_counts(self):
        snaps, shifts, _ = random_problem(seed=16)
        base = ReducedObjective(snaps, shifts, [1, 1])
        with pytest.raises(ValueError, match="3 mode counts for 2 frames"):
            base.with_counts([1, 1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            base.with_counts([1, -1])

    def test_relative_error_of(self):
        # maps the full residual cost J to J / ||X||^2, clipped at zero
        snaps, shifts, _ = random_problem(seed=13)
        prob = ReducedObjective(snaps, shifts, [1, 1])
        assert prob.relative_error_of(0.0) == 0.0
        assert prob.relative_error_of(prob.norm2) == pytest.approx(1.0)
        assert prob.relative_error_of(-1e-12) == 0.0


def whole_cell_problem(boundary, seed):
    """Two blocks, two frames, shifts of whole cells (some past the end
    of a non-periodic grid)."""
    m, n = 16, 6
    grid = Grid1D(m, 1.0 / m, boundary)
    rng = np.random.default_rng(seed)
    snaps = SnapshotSet(rng.standard_normal((2 * m, n)), grid,
                        np.arange(n, dtype=float),
                        (VariableBlock("u", 0, m), VariableBlock("v", m, 2 * m)))
    spec = PER3 if boundary == "periodic" else ShiftSpec("constant", 3)
    d = rng.integers(-20, 21, size=(2, n)) * grid.h
    return snaps, FrameShifts(d, spec)


def crossing_problem():
    from spod.generators import CrossingFrontsParams, crossing_fronts
    return crossing_fronts(CrossingFrontsParams(m=60, n=16))


def operator_arrays(prob):
    """The distinct arrays that own the memory behind ops and ops_T."""
    owners = {}
    for T in prob.ops + prob.ops_T:
        parts = (T,) if isinstance(T, np.ndarray) else (T.data, T.indices,
                                                         T.indptr)
        for part in parts:
            while part.base is not None:
                part = part.base
            owners[id(part)] = part
    return list(owners.values())


def csr_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


class TestTransposeOperators:
    """Each frame holds one set of arrays.  A frame whose shifts are all
    grid multiples holds its node map alone, as both ops[l] and ops_T[l];
    any other frame holds the CSR of T^T, with ops[l] its CSC view.  The
    products are those of fresh CSR copies of T and T^T to the bit."""

    @pytest.mark.parametrize("case,whole_cell", [
        (lambda: whole_cell_problem("periodic", 31), [True, True]),
        (lambda: whole_cell_problem("non-periodic", 32), [True, True]),
        (lambda: random_problem(m=12, n=5, n_blocks=2, seed=33)[:2],
         [False, False]),
        # frames 0-3 move with clamped cubic legs, frame 4 stands still
        (crossing_problem, [False, False, False, False, True]),
        # frames 0 and 1 mix rows of one and four entries
        (three_signal_default, [False, False, True]),
    ], ids=["periodic-whole-cell", "clamped-whole-cell", "multi-leg-cubic",
            "crossing-fronts", "three-signal"])
    def test_products_equal_those_of_a_csr_copy(self, case, whole_cell):
        from scipy import sparse
        snaps, shifts = case()
        counts = [1] * shifts.n_frames
        prob = ReducedObjective(snaps, shifts, counts)
        fresh = [shift_operator(d, snaps.grid, shifts.spec) for d in shifts.d]
        for T, T_T, S, nodes in zip(prob.ops, prob.ops_T, fresh, whole_cell,
                                    strict=True):
            if nodes:  # a single 1 per row, at the node the map holds
                assert T is T_T and T.dtype == np.intp
                assert np.array_equal(S.indptr, np.arange(S.shape[0] + 1))
                assert np.all(S.data == 1.0) and np.array_equal(T, S.indices)
                continue
            S_T = S.T.tocsr()
            for part in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(T, part), getattr(T_T, part))
                assert getattr(T_T, part).tobytes() == getattr(S_T, part).tobytes()
            assert isinstance(T_T, sparse.csr_matrix)
        ref = prob.with_counts(counts)
        ref.ops = fresh
        ref.ops_T = [S.T.tocsr() for S in fresh]
        z = np.random.default_rng(34).standard_normal(
            snaps.n_rows * shifts.n_frames)
        f, g, amps, _ = prob.value_gradient_amplitudes(z)
        f_ref, g_ref, amps_ref, _ = ref.value_gradient_amplitudes(z)
        assert f == f_ref and g.tobytes() == g_ref.tobytes()
        assert (prob.variable_metric(amps).tobytes()
                == ref.variable_metric(amps_ref).tobytes())

    @pytest.mark.parametrize("boundary", ["periodic", "non-periodic"])
    def test_node_map_products_equal_csr_products(self, boundary):
        # shifts up to 40 cells on 16 nodes: clamped rows past the end read
        # an edge node; inputs hold -0.0, NaN and inf.  Not -inf: where
        # inf - inf makes a NaN that meets another NaN, which of the two
        # a sum keeps varies between compiled loops
        snaps, shifts = whole_cell_problem(boundary, 35)
        grid, m = snaps.grid, snaps.grid.m
        d = np.concatenate([shifts.d[0], [40 * grid.h, -40 * grid.h]])
        S = shift_operator(d, grid, shifts.spec)
        nodes = node_map(d, grid, shifts.spec)
        rng = np.random.default_rng(36)
        special = [-0.0, 0.0, np.nan, np.inf, np.nan]
        V = rng.standard_normal((m, 3))
        V[:5, 0] = special
        Z = rng.standard_normal((S.shape[0], 3))
        Z[rng.permutation(S.shape[0])[:5], 1] = special
        Z[:, 2] = -0.0
        for v, z in [(V[:, 0], Z[:, 1]), (V, Z), (V[:, :0], Z[:, :0])]:
            assert apply_stack(nodes, v).tobytes() == (S @ v).tobytes()
            for squared in (False, True):  # the entries, all 1, square to 1
                assert (apply_stack_transpose(nodes, z, m, squared).tobytes()
                        == apply_stack_transpose(S.T.tocsr(), z, m,
                                                 squared).tobytes()
                        == (S.T @ z).tobytes())
        assert node_map(d + 0.5 * grid.h, grid, shifts.spec) is None
        assert node_map(np.append(d, 0.5 * grid.h), grid, shifts.spec) is None

    def test_bytes_held_are_one_array_set_per_frame(self):
        # the CSR of T^T for a moving frame, the node map for the
        # stationary one: half the bytes of its CSR
        snaps, shifts = crossing_problem()
        prob = ReducedObjective(snaps, shifts, [1] * shifts.n_frames)
        held = 0
        for d in shifts.d:
            S = shift_operator(d, snaps.grid, shifts.spec)
            exact = np.all(d == 0.0)
            held += (S.shape[0] * np.dtype(np.intp).itemsize if exact
                     else csr_bytes(S.T.tocsr()))
        assert sum(a.nbytes for a in operator_arrays(prob)) == held

    def test_setup_holds_at_most_two_stacks_beyond_what_it_keeps(self):
        # a stack is dropped before the next frame's is built: the traced
        # set-up peak stays below the bytes kept plus two of the largest
        import tracemalloc
        from spod.generators import crossing_fronts
        snaps, shifts = crossing_fronts()
        ReducedObjective(snaps, shifts, [1] * shifts.n_frames)  # imports
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            prob = ReducedObjective(snaps, shifts, [1] * shifts.n_frames)
            held, peak = (b - start for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        largest = max(csr_bytes(shift_operator(d, snaps.grid, shifts.spec))
                      for d in shifts.d)
        assert held >= prob.XT.nbytes + sum(a.nbytes
                                            for a in operator_arrays(prob))
        assert peak < held + 2 * largest


class TestGradientAssembly:
    # a non-periodic grid gets constant-boundary shifts
    @pytest.mark.parametrize("grid_boundary", ["periodic", "non-periodic"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_dense_reference(self, grid_boundary, r):
        # fractional shifts, two blocks, two frames: the gradient of mode k
        # of frame l is -2 sum_j a^l_kj T(d^l_j)^T (X_j - K_j a_j) per
        # block, with the amplitudes and residual of the same evaluation
        snaps, shifts, rng = random_problem(m=12, n=5, n_s=2, n_blocks=2,
                                            seed=21, boundary=grid_boundary)
        m, n = snaps.grid.m, snaps.n_snapshots
        assert np.all(shifts.d * m % 1.0 != 0.0)
        counts = [r, 1]
        modes = [rng.standard_normal((snaps.n_rows, k)) for k in counts]
        _, grads, amps, resid = ReducedObjective(snaps, shifts, counts).evaluate(
            modes)
        for l, (G, A) in enumerate(zip(grads, amps)):
            ref = np.zeros_like(G)
            for j in range(n):
                T = dense_shift_matrix(shifts.d[l, j], snaps.grid, shifts.spec)
                for b in range(2):
                    rows = slice(b * m, (b + 1) * m)
                    ref[rows] -= 2.0 * np.outer(T.T @ resid[rows, j], A[:, j])
            np.testing.assert_allclose(G, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())


class TestPacking:
    def test_round_trip_mode_major(self):
        snaps, shifts, rng = random_problem(m=6, n=4, n_s=2, seed=14)
        counts = [2, 1]
        prob = ReducedObjective(snaps, shifts, counts)
        modes = [rng.standard_normal((snaps.n_rows, r)) for r in counts]
        z = prob.pack(modes)
        assert z.shape == (snaps.n_rows * 3,)
        back = prob.unpack(z)
        for W, B in zip(modes, back):
            np.testing.assert_array_equal(W, B)
        # frame 0's first mode occupies the leading entries
        np.testing.assert_array_equal(z[:snaps.n_rows], modes[0][:, 0])


def brute_force_scale(snaps, shifts, amps):
    """Coverage scale from dense operators: c = sum_j a_kj^2 ||T_j e_i||^2
    per block, clamped at 1e-8 max(c), then c^-1/2 / max(c^-1/2)."""
    cols = []
    for l, A in enumerate(amps):
        sq = [dense_shift_matrix(shifts.d[l, j], snaps.grid, shifts.spec) ** 2
              for j in range(shifts.n_snapshots)]
        for k in range(A.shape[0]):
            c = sum(a * a * T.sum(axis=0) for a, T in zip(A[k], sq))
            cols.append(np.tile(c, len(snaps.blocks)))
    c = np.concatenate(cols)
    c = np.maximum(c, 1e-8 * c.max())
    return c ** -0.5 / np.max(c ** -0.5)


class TestVariableMetric:
    """The L-BFGS metric M is the square of the coverage scale s."""

    def test_matches_dense_coverage(self):
        snaps, shifts, rng = random_problem(m=12, n=5, n_s=2, n_blocks=2,
                                            seed=21)
        prob = ReducedObjective(snaps, shifts, [2, 1])
        amps = [rng.standard_normal((2, 5)), rng.standard_normal((1, 5))]
        M = prob.variable_metric(amps)
        assert M.shape == (snaps.n_rows * 3,)
        s = brute_force_scale(snaps, shifts, amps)
        np.testing.assert_allclose(M, s * s, rtol=1e-12)

    def test_whole_cell_periodic_shifts_scale_each_mode_by_its_amplitudes(self):
        m, n = 16, 6
        grid = Grid1D(m, 1.0 / m, "periodic")
        snaps = SnapshotSet(np.ones((2 * m, n)), grid, np.arange(n, dtype=float),
                            (VariableBlock("u", 0, m), VariableBlock("v", m, 2 * m)))
        rng = np.random.default_rng(22)
        d = rng.integers(-5, 6, size=(2, n)) * grid.h
        prob = ReducedObjective(snaps, FrameShifts(d, PER3), [2, 1])
        amps = [rng.standard_normal((2, n)), 3.0 * rng.standard_normal((1, n))]
        # every T(d_j) permutes the nodes, so ||T(d_j) e_i|| = 1
        per_mode = prob.variable_metric(amps).reshape(3, 2 * m)
        for row in per_mode:
            assert np.all(row == row[0])
        norms = np.concatenate([np.sum(A * A, axis=1) for A in amps]) ** -1.0
        np.testing.assert_allclose(per_mode[:, 0] / per_mode[0, 0],
                                   norms / norms[0], rtol=1e-12)
        assert per_mode.max() == 1.0

    def test_entries_no_shift_reaches_are_clamped(self):
        m, n, k = 16, 5, 3
        grid = Grid1D(m, 1.0 / m, "non-periodic")
        snaps = SnapshotSet(np.ones((m, n)), grid, np.arange(n, dtype=float))
        # constant-boundary shifts by k, k+1 or k+2 cells read only the
        # nodes below m - k
        d = (k + np.arange(n) % 3)[None, :] * grid.h
        prob = ReducedObjective(snaps, FrameShifts(d, ShiftSpec("constant", 3)),
                                [1])
        M = prob.variable_metric([np.ones((1, n))])
        assert np.all(np.isfinite(M)) and np.all(M > 0.0) and M.max() == 1.0
        np.testing.assert_array_equal(M[m - k:], 1.0)
        assert np.all(M[:m - k - 1] < 1e-6)  # s < 1e-3

    def test_amplitudes_must_match_the_frames(self):
        # the coverage matrix is filled frame by frame: none may be missing
        snaps, shifts, _ = random_problem(m=8, n=4, seed=23)
        prob = ReducedObjective(snaps, shifts, [1, 1])
        with pytest.raises(ValueError):
            prob.variable_metric([np.ones((1, 4))])

    def test_without_a_positive_coverage_the_metric_is_one(self):
        snaps, shifts, _ = random_problem(m=8, n=4, seed=23)
        prob = ReducedObjective(snaps, shifts, [1, 1])
        zeros = [np.zeros((1, 4)), np.zeros((1, 4))]
        np.testing.assert_array_equal(prob.variable_metric(zeros), 1.0)

    def test_amplitudes_come_with_the_value_and_gradient(self):
        snaps, shifts, rng = random_problem(m=10, n=5, seed=24)
        prob = ReducedObjective(snaps, shifts, [1, 2])
        modes = [rng.standard_normal((10, 1)), rng.standard_normal((10, 2))]
        z = prob.pack(modes)
        f, g, amps, resid = prob.value_gradient_amplitudes(z)
        assert (f, g.tolist()) == (prob.value_and_gradient(z)[0],
                                   prob.value_and_gradient(z)[1].tolist())
        _, _, amps_ref, resid_ref = prob.evaluate(modes, need_gradient=False)
        for A, B in zip(amps, amps_ref):
            np.testing.assert_array_equal(A, B)
        np.testing.assert_array_equal(resid, resid_ref)


class TestReconstruct:
    def test_no_frames_give_zero_matrix(self):
        # of the shape the blocks and shifts give, with no frame to size it
        grid = Grid1D(4, 0.25, "periodic")
        blocks = [VariableBlock("u", 0, 4), VariableBlock("v", 4, 8)]
        dec = Decomposition([], [], FrameShifts(np.zeros((0, 3)), PER3), grid,
                            blocks)
        out = reconstruct(dec)
        assert out.shape == (8, 3) and not out.any()

    def test_zero_amplitudes_give_zero_matrix(self):
        snaps, shifts, rng = random_problem(m=8, n=3, n_s=2, seed=15)
        frames = [FrameBasis(rng.standard_normal((snaps.n_rows, 2)))
                  for _ in range(2)]
        amps = [np.zeros((2, 3)) for _ in range(2)]
        dec = Decomposition(frames, amps, shifts, snaps.grid,
                            list(snaps.blocks))
        np.testing.assert_array_equal(reconstruct(dec),
                                      np.zeros((snaps.n_rows, 3)))

    def test_zero_mode_frame_adds_nothing(self):
        snaps, shifts, rng = random_problem(m=8, n=4, n_s=2, n_blocks=2,
                                            seed=18)
        W = rng.standard_normal((snaps.n_rows, 2))
        A = rng.standard_normal((2, 4))
        both = Decomposition([FrameBasis(W), FrameBasis(np.zeros((snaps.n_rows, 0)))],
                             [A, np.zeros((0, 4))], shifts, snaps.grid,
                             list(snaps.blocks))
        alone = Decomposition([FrameBasis(W)], [A],
                              FrameShifts(shifts.d[:1], shifts.spec),
                              snaps.grid, list(snaps.blocks))
        np.testing.assert_array_equal(reconstruct(both), reconstruct(alone))

    def test_single_frame_zero_shift_is_plain_product(self):
        snaps, _, rng = random_problem(m=8, n=4, n_s=1, seed=16)
        W = rng.standard_normal((snaps.n_rows, 2))
        A = rng.standard_normal((2, 4))
        shifts = FrameShifts(np.zeros((1, 4)), PER3)
        dec = Decomposition([FrameBasis(W)], [A], shifts, snaps.grid,
                            list(snaps.blocks))
        np.testing.assert_allclose(reconstruct(dec), W @ A, atol=1e-13)

    def test_matches_dense_operator_sum(self):
        snaps, shifts, rng = random_problem(m=9, n=4, n_s=2, n_blocks=2,
                                            seed=17)
        m = snaps.grid.m
        frames = [FrameBasis(rng.standard_normal((snaps.n_rows, r)))
                  for r in (1, 2)]
        amps = [rng.standard_normal((r, 4)) for r in (1, 2)]
        dec = Decomposition(frames, amps, shifts, snaps.grid,
                            list(snaps.blocks))
        out = reconstruct(dec)
        expected = np.zeros_like(out)
        for l, (fr, A) in enumerate(zip(frames, amps)):
            contrib = fr.modes @ A
            for j in range(4):
                T = dense_shift_matrix(shifts.d[l, j], snaps.grid, shifts.spec)
                for b in range(2):
                    rows = slice(b * m, (b + 1) * m)
                    expected[rows, j] += T @ contrib[rows, j]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestFrameBasis:
    def test_mask_zeroes_rows_in_the_objective(self):
        # a frame basis keeps its modes as given; the objective that holds
        # the masks zeroes the masked rows of every mode it unpacks
        grid = Grid1D(4, 0.25, "periodic")
        snaps = SnapshotSet(np.arange(1.0, 13.0).reshape(4, 3), grid,
                            np.arange(3.0))
        shifts = FrameShifts(np.zeros((1, 3)), PER3)
        mask = np.array([True, False, False, True])
        fb = FrameBasis(np.ones((4, 2)))
        np.testing.assert_array_equal(fb.modes, 1.0)
        prob = ReducedObjective(snaps, shifts, [2], masks=[mask])
        W, = prob.unpack(prob.pack([fb.modes]))
        np.testing.assert_array_equal(W[0], 0.0)
        np.testing.assert_array_equal(W[3], 0.0)
        np.testing.assert_array_equal(W[1:3], 1.0)
        np.testing.assert_array_equal(fb.modes, 1.0)  # unpack copies

    def test_shape_validation(self):
        for modes in (np.ones(4), np.ones((4, 2, 1))):
            with pytest.raises(ValueError, match="2-d"):
                FrameBasis(modes)
        grid = Grid1D(4, 0.25, "periodic")
        snaps = SnapshotSet(np.arange(1.0, 13.0).reshape(4, 3), grid,
                            np.arange(3.0))
        with pytest.raises(ValueError, match=r"has shape \(2,\), expected \(4,\)"):
            ReducedObjective(snaps, FrameShifts(np.zeros((1, 3)), PER3), [2],
                             masks=[np.array([True, False])])


class TestFrameShifts:
    def test_one_row_per_frame(self):
        assert FrameShifts(np.zeros(3), PER3).d.shape == (1, 3)
        # refused when built, not first in shift_operator
        with pytest.raises(ValueError,
                           match=r"shifts of shape \(2, 3, 1\): need one row"):
            FrameShifts(np.zeros((2, 3, 1)), PER3)


class TestDecompositionType:
    def test_shape_validation(self):
        grid = Grid1D(4, 0.25, "periodic")
        shifts = FrameShifts(np.zeros((1, 3)), PER3)
        frames = [FrameBasis(np.ones((4, 2)))]
        with pytest.raises(ValueError):
            Decomposition(frames, [np.zeros((3, 3))], shifts, grid,
                          [VariableBlock("var0", 0, 4)])

    def test_mode_rows_must_match_the_blocks(self):
        # written, such a decomposition would not read back, and
        # reconstruct would fail on its shape
        grid = Grid1D(4, 0.25, "periodic")
        shifts = FrameShifts(np.zeros((2, 3)), PER3)
        blocks = [VariableBlock("u", 0, 4), VariableBlock("v", 4, 8)]
        amps = [np.zeros((1, 3)), np.zeros((0, 3))]
        ok = [FrameBasis(np.ones((8, 1))), FrameBasis(np.zeros((8, 0)))]
        Decomposition(ok, amps, shifts, grid, blocks)
        for rows in (4, 9):
            frames = [ok[0], FrameBasis(np.zeros((rows, 0)))]
            with pytest.raises(ValueError,
                               match=f"frame 1 has {rows} mode rows, expected 8"):
                Decomposition(frames, amps, shifts, grid, blocks)

    @pytest.mark.parametrize("blocks,match", [
        ([VariableBlock("u", 0, 5)], r"'u' spans \[0, 5\), expected \[0, 4\)"),
        ([VariableBlock("u", 4, 8)], r"'u' spans \[4, 8\), expected \[0, 4\)"),
        ([VariableBlock("u", 0, 4), VariableBlock("u", 4, 8)],
         "duplicate variable block names"),
    ])
    def test_blocks_must_tile_the_grid(self, blocks, match):
        # the rule SnapshotSet keeps: written, such a decomposition would
        # not read back (a 5-row block on m = 4 with 5-row modes)
        grid = Grid1D(4, 0.25, "periodic")
        rows = max(b.stop for b in blocks)
        with pytest.raises(ValueError, match=match):
            Decomposition([FrameBasis(np.ones((rows, 1)))], [np.zeros((1, 3))],
                          FrameShifts(np.zeros((1, 3)), PER3), grid, blocks)
