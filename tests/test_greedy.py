"""Greedy mode addition: initialization, candidate selection, reports."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from spod.core import FrameShifts, ReducedObjective
from spod.greedy import (GreedyConfig, _seed_modes, _Solve,
                         back_shifted_matrix, halving_rungs,
                         initialize_frames, spod_decompose)
from spod.lbfgs import OptimizerOptions
from spod.shifts import ShiftSpec, apply_shift
from spod.snapshots import Grid1D, SnapshotSet, VariableBlock

PER3 = ShiftSpec("periodic", 3)


def two_transport_set(m=64, n=24, seed=0):
    """Two crossing bumps on a periodic grid, shifts known exactly."""
    grid = Grid1D(m, 1.0 / m, "periodic")
    x = grid.coordinates()
    t = np.arange(n, dtype=float) * grid.h * 2.0

    def bump(center, width):
        z = (x[:, None] - center[None, :] + 0.5) % 1.0 - 0.5
        return np.exp(-((z / width) ** 2))

    X = 1.0 * bump(0.3 + t, 0.05) + 0.7 * bump(0.7 - t, 0.08)
    snaps = SnapshotSet(X, grid, np.arange(n, dtype=float))
    d = np.vstack([-t, t])
    return snaps, FrameShifts(d, PER3)


def three_transport_set(m=64, n=24, speed=1.37):
    """Three bumps at fractional speeds, so that no solve is exact and,
    with a small grad_tol, the candidate solves run to their iteration
    cap."""
    grid = Grid1D(m, 1.0 / m, "periodic")
    x = grid.coordinates()
    t = np.arange(n, dtype=float) * grid.h * speed

    def bump(center, width):
        z = (x[:, None] - center[None, :] + 0.5) % 1.0 - 0.5
        return np.exp(-((z / width) ** 2))

    X = (bump(0.2 + t, 0.05) + 0.7 * bump(0.6 - t, 0.08)
         + 0.5 * bump(0.4 + 2 * t, 0.06))
    snaps = SnapshotSet(X, grid, np.arange(n, dtype=float))
    return snaps, FrameShifts(np.vstack([-t, t, -2 * t]), PER3)


def full_candidate_run(snaps, shifts, config):
    """The greedy run with every candidate solved to the cap in one
    run_to call of spod_decompose's own solve (_Solve): final modes and
    amplitudes, error history, chosen frames, and every candidate's
    modes, solve and start modes per greedy iteration."""
    base = ReducedObjective(snaps, shifts, config.r0, rank_tol=config.rank_tol)

    def solve(counts, init):
        sv = _Solve(base.with_counts(counts), init)
        sv.run_to(config.optimizer.max_iters, config.optimizer)
        return sv.prob.unpack(sv.z), sv, init

    modes, sv, _ = solve(config.r0, [f.modes for f in initialize_frames(
        snaps, shifts, config.r0)])
    history, chosen, rows = [sv.error], [], []
    p_max = snaps.n_snapshots if config.p_max is None else config.p_max
    while history[-1] > config.tol and len(chosen) < p_max:
        counts = [W.shape[1] for W in modes]
        resid = base.with_counts(counts).evaluate(modes, need_gradient=False)[3]
        row = []
        for i in range(shifts.n_frames):
            grown = [c + (l == i) for l, c in enumerate(counts)]
            w_new = _seed_modes(resid, snaps, shifts, i, 1)
            init = [W if l != i else np.hstack([W, w_new])
                    for l, W in enumerate(modes)]
            row.append(solve(grown, init))
        q = int(np.argmin([sv.error for _, sv, _ in row]))
        modes = row[q][0]
        history.append(row[q][1].error)
        chosen.append(q)
        rows.append(row)
    amps = base.with_counts([W.shape[1] for W in modes]).evaluate(
        modes, need_gradient=False)[2]
    return modes, amps, history, chosen, rows


class TestBackShift:
    def test_hand_assembled_columns(self):
        m, n = 16, 5
        grid = Grid1D(m, 1.0 / m, "periodic")
        rng = np.random.default_rng(1)
        X = rng.standard_normal((m, n))
        d = rng.uniform(-0.2, 0.2, size=(2, n))
        shifts = FrameShifts(d, PER3)
        B = back_shifted_matrix(X, shifts, 1, grid, 1)
        for j in range(n):
            expected = apply_shift(X[:, j], -d[1, j], grid, PER3)
            np.testing.assert_allclose(B[:, j], expected, atol=1e-13)

    def test_blockwise_application(self):
        m, n = 8, 3
        grid = Grid1D(m, 1.0 / m, "periodic")
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2 * m, n))
        shifts = FrameShifts(rng.uniform(-0.2, 0.2, size=(1, n)), PER3)
        B = back_shifted_matrix(X, shifts, 0, grid, 2)
        for j in range(n):
            for b in range(2):
                rows = slice(b * m, (b + 1) * m)
                expected = apply_shift(X[rows, j], -shifts.d[0, j], grid, PER3)
                np.testing.assert_allclose(B[rows, j], expected, atol=1e-13)

    def test_row_count_must_match_blocks(self):
        grid = Grid1D(8, 1.0 / 8, "periodic")
        X = np.ones((2 * grid.m, 3))
        shifts = FrameShifts(np.zeros((1, 3)), PER3)
        for n_blocks in (1, 3):
            with pytest.raises(ValueError):
                back_shifted_matrix(X, shifts, 0, grid, n_blocks)


def seed_case(m, n, rank=None, seed=0):
    """Data with singular values 1, 1/2, 1/4, ... (the first `rank` of
    them, if given) on an m-point periodic grid, and one frame of random
    shifts; with `rank`, every snapshot gets the same shift, so the
    back-shifted matrix keeps rank at most `rank`."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(m, 1.0 / m, "periodic")
    k = min(m, n) if rank is None else rank
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    X = U @ np.diag(0.5 ** np.arange(k)) @ V.T
    d = (np.full((1, n), 0.137) if rank is not None
         else rng.uniform(-0.3, 0.3, size=(1, n)))
    return SnapshotSet(X, grid, np.arange(n, dtype=float)), FrameShifts(d, PER3)


def eigensolve_seed(data, snaps, shifts, frame, r):
    """The seed by the eigensolve path of _seed_modes, restated: the cut
    and scale of the back-shifted matrix B, the top r eigenvectors V of
    B^T B, and the left singular vectors of B V."""
    B = back_shifted_matrix(data, shifts, frame, snaps.grid, len(snaps.blocks))
    peak = np.abs(B).max()
    if peak > 0:
        cut = float(np.finfo(float).tiny) ** 0.5 * float(peak)
        B[np.abs(B) < cut] = 0.0
        B /= peak
    V = np.linalg.eigh(B.T @ B)[1][:, :-r - 1:-1]
    return np.linalg.svd(B @ V, full_matrices=False)[0]


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one at every np.linalg.eigh call."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestSeedModes:
    # the seed rule against the SVD of the back-shifted matrix: a tall
    # (m_total >= n) and a wide case
    SHAPES = [(64, 20), (16, 40)]

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("r", [1, 3])
    def test_spans_the_leading_singular_vectors(self, m, n, r):
        snaps, shifts = seed_case(m, n)
        W = _seed_modes(snaps.data, snaps, shifts, 0, r)
        B = back_shifted_matrix(snaps.data, shifts, 0, snaps.grid, 1)
        U, s, _ = np.linalg.svd(B, full_matrices=False)
        assert s[r] < 0.9 * s[r - 1]  # a spectral gap after r
        assert W.shape == (m, r)
        np.testing.assert_allclose(W @ W.T, U[:, :r] @ U[:, :r].T, rtol=0,
                                   atol=1e-10)
        # leading first: column k spans the k-th singular vector
        np.testing.assert_allclose(np.abs(np.sum(W * U[:, :r], axis=0)), 1.0,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("zero", [False, True])
    def test_orthonormal_beyond_the_rank(self, m, n, zero):
        snaps, shifts = seed_case(m, n, rank=2)
        data = np.zeros_like(snaps.data) if zero else snaps.data
        B = back_shifted_matrix(data, shifts, 0, snaps.grid, 1)
        assert np.linalg.matrix_rank(B) == (0 if zero else 2)
        for r in (3, min(m, n)):
            W = _seed_modes(data, snaps, shifts, 0, r)
            assert W.shape == (m, r) and np.all(np.isfinite(W))
            np.testing.assert_allclose(W.T @ W, np.eye(r), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_scaled_data_gives_the_unscaled_seeds(self, m, n, factor):
        # the Gram matrix of data at 1e200 would overflow, at 1e-200
        # underflow, without the division by the largest magnitude
        snaps, shifts = seed_case(m, n)
        W = _seed_modes(snaps.data, snaps, shifts, 0, 3)
        with np.errstate(over="raise", under="raise"):
            V = _seed_modes(snaps.data * factor, snaps, shifts, 0, 3)
        signs = np.sign(np.sum(V * W, axis=0))
        np.testing.assert_allclose(V * signs, W, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor", [1.0, 1.7, 3e-5])
    def test_pulse_tails_do_not_underflow(self, factor):
        # the pulse tails reach below 1e-300: without the seed rule the
        # scaled back-shifted matrix or its Gram matrix underflows
        from spod.generators import WaveParams, wave_shifts, wave_snapshots
        params = WaveParams(m=256, n=32)  # shifts of whole cells
        snaps, shifts = wave_snapshots(params), wave_shifts(params)
        data = snaps.data * factor
        peak = np.abs(data).max()
        cut = np.sqrt(np.finfo(float).tiny) * peak
        assert np.any((data != 0.0) & (np.abs(data) < 1e-300 * factor))
        flushed = np.where(np.abs(data) < cut, 0.0, data)
        # r = 1 takes the power iteration, r = 2 the eigensolve
        for frame, r in itertools.product(range(shifts.n_frames), (1, 2)):
            with np.errstate(under="raise"):
                W = _seed_modes(data, snaps, shifts, frame, r)
            # the rule equals zeroing the small entries beforehand ...
            np.testing.assert_array_equal(
                W, _seed_modes(flushed, snaps, shifts, frame, r))
            # ... and keeps the leading singular vector of the raw data
            B = back_shifted_matrix(data, shifts, frame, snaps.grid, 2)
            u = np.linalg.svd(B, full_matrices=False)[0][:, :1]
            np.testing.assert_allclose(W[:, :1] @ W[:, :1].T, u @ u.T,
                                       rtol=0, atol=1e-12)

    def test_wave_seed_by_power_iteration(self, eigh_calls):
        # the wave pair's sigma_2/sigma_1 is about 0.16: a few power steps
        # certify the leading vector, and no Gram matrix is solved
        from spod.generators import WaveParams, wave_shifts, wave_snapshots
        params = WaveParams(m=512, n=128)
        snaps, shifts = wave_snapshots(params), wave_shifts(params)
        for frame in range(shifts.n_frames):
            W = _seed_modes(snaps.data, snaps, shifts, frame, 1)
            B = back_shifted_matrix(snaps.data, shifts, frame, snaps.grid, 2)
            u = np.linalg.svd(B, full_matrices=False)[0][:, 0]
            assert W.shape == (snaps.n_rows, 1)
            assert abs(np.linalg.norm(W) - 1.0) < 1e-14
            assert abs(W[:, 0] @ u) >= 1.0 - 1e-12
        assert eigh_calls == []

    @pytest.mark.parametrize("case", ["start orthogonal", "equal top pair",
                                      "zero"])
    def test_refused_certificate_falls_back_to_the_eigensolve(self, case,
                                                              eigh_calls):
        rng = np.random.default_rng(3)
        m, n = 48, 16
        if case == "start orthogonal":
            # columns (-1)^j p + q, q nearly orthogonal to p and half its
            # norm: sigma_2/sigma_1 = 1/2, and the leading right singular
            # vector, near (-1)^j/sqrt(n), is within 1.4e-4 of orthogonal
            # to the start ones/sqrt(n), so four steps stay near the second
            p, q = rng.standard_normal((2, m))
            q -= (q @ p) / (p @ p) * p
            q *= 0.5 * np.linalg.norm(p) / np.linalg.norm(q)
            q += 1e-4 * p
            X = np.outer(p, (-1.0) ** np.arange(n)) + q[:, None]
        elif case == "equal top pair":
            # sigma_1 = sigma_2: there is no gap to certify
            U = np.linalg.qr(rng.standard_normal((m, 3)))[0]
            V = np.linalg.qr(rng.standard_normal((n, 3)))[0]
            X = U @ np.diag([1.0, 1.0, 0.5]) @ V.T
        else:
            X = np.zeros((m, n))
        # one frame with zero shifts: the back-shifted matrix is X itself
        snaps = SnapshotSet(X, Grid1D(m, 1.0 / m, "periodic"),
                            np.arange(n, dtype=float))
        shifts = FrameShifts(np.zeros((1, n)), PER3)
        W = _seed_modes(snaps.data, snaps, shifts, 0, 1)
        assert len(eigh_calls) == 1
        np.testing.assert_array_equal(
            W, eigensolve_seed(snaps.data, snaps, shifts, 0, 1))

    def test_crossing_fronts_candidates_fall_back(self, eigh_calls):
        # the candidates' residuals have no certified leading vector
        # within the steps, so their seeds stay those of the eigensolve
        from spod.generators import CrossingFrontsParams, crossing_fronts
        snaps, shifts = crossing_fronts(CrossingFrontsParams(m=200, n=60))
        r0 = [1, 1, 1, 1, 0]
        config = GreedyConfig(r0=r0, tol=0.01, p_max=0,
                              optimizer=OptimizerOptions(max_iters=30))
        modes = [f.modes for f in spod_decompose(snaps, shifts,
                                                 config)[0].frames]
        resid = ReducedObjective(snaps, shifts, r0).evaluate(
            modes, need_gradient=False)[3]
        del eigh_calls[:]
        for i in range(shifts.n_frames):
            np.testing.assert_array_equal(
                _seed_modes(resid, snaps, shifts, i, 1),
                eigensolve_seed(resid, snaps, shifts, i, 1))
        assert len(eigh_calls) == 2 * shifts.n_frames


class TestInitialize:
    def test_recovers_transport_profile(self):
        # a single travelling bump back-shifts to a constant-in-time
        # profile, so the leading singular vector matches it closely
        m, n = 128, 16
        grid = Grid1D(m, 1.0 / m, "periodic")
        x = grid.coordinates()
        t = np.arange(n) * grid.h * 4.0
        z = (x[:, None] - 0.5 - t[None, :] + 0.5) % 1.0 - 0.5
        X = np.exp(-((z / 0.04) ** 2))
        snaps = SnapshotSet(X, grid, np.arange(n, dtype=float))
        shifts = FrameShifts(-t[None, :], PER3)
        frames = initialize_frames(snaps, shifts, [1])
        w = frames[0].modes[:, 0]
        profile = np.exp(-((((x - 0.5) + 0.5) % 1.0 - 0.5) / 0.04) ** 2)
        corr = abs(w @ profile) / (np.linalg.norm(w) * np.linalg.norm(profile))
        assert corr > 0.99

    def test_zero_count_gives_empty_frame(self):
        snaps, shifts = two_transport_set()
        frames = initialize_frames(snaps, shifts, [1, 0])
        assert frames[0].n_modes == 1
        assert frames[1].n_modes == 0

    def test_count_beyond_rank_rejected(self):
        snaps, shifts = two_transport_set(m=16, n=4)
        with pytest.raises(ValueError):
            initialize_frames(snaps, shifts, [5, 1])


class TestGreedyLoop:
    def test_two_transports_converge_without_iterations(self):
        snaps, shifts = two_transport_set()
        dec, rep = spod_decompose(snaps, shifts,
                                  GreedyConfig(r0=[1, 1], tol=1e-4))
        assert rep.termination == "tolerance"
        assert rep.converged
        assert rep.r_final == [1, 1]
        assert rep.chosen_frames == []
        assert len(rep.error_history) == 1
        assert rep.error_history[0] < 1e-4

    def test_starved_start_grows_one_mode_per_iteration(self):
        snaps, shifts = two_transport_set()
        cfg = GreedyConfig(r0=[1, 0], tol=1e-4)
        dec, rep = spod_decompose(snaps, shifts, cfg)
        assert rep.termination == "tolerance"
        assert sum(rep.r_final) == sum(cfg.r0) + len(rep.chosen_frames)
        for errors, q in zip(rep.candidate_errors, rep.chosen_frames):
            assert q == int(np.argmin(errors))
        # with warm starts the accepted error cannot increase
        assert all(b <= a + 1e-12 for a, b in
                   zip(rep.error_history, rep.error_history[1:]))

    def test_iteration_cap_reported(self):
        snaps, shifts = two_transport_set(m=32, n=10)
        cfg = GreedyConfig(r0=[1, 0], tol=1e-12, p_max=0)
        dec, rep = spod_decompose(snaps, shifts, cfg)
        assert rep.termination == "iteration cap"
        assert not rep.converged
        assert rep.r_final == [1, 0]

    def test_report_counts_the_modes_of_the_decomposition(self):
        snaps, shifts = two_transport_set(m=32, n=10)
        cfg = GreedyConfig(r0=[1, 0], tol=1e-12, p_max=1)
        dec, rep = spod_decompose(snaps, shifts, cfg)
        assert rep.r_final == [f.n_modes for f in dec.frames] == [
            A.shape[0] for A in dec.amplitudes]
        assert sum(rep.r_final) == 2

    def test_candidates_grow_past_the_snapshot_count(self, monkeypatch):
        # a candidate's new mode comes from the residual, so a frame may
        # hold more modes than there are snapshots
        import spod.greedy
        calls = []
        back_shift = spod.greedy.back_shifted_matrix

        def counting(*args, **kwargs):
            calls.append(args[2])
            return back_shift(*args, **kwargs)

        # every seed goes through the module's back_shifted_matrix
        monkeypatch.setattr(spod.greedy, "back_shifted_matrix", counting)
        snaps, shifts = three_transport_set(m=16, n=2)
        cfg = GreedyConfig(r0=[2, 0, 0], tol=1e-300, p_max=4)
        dec, rep = spod_decompose(snaps, shifts, cfg)
        assert rep.termination == "iteration cap"
        assert sum(rep.r_final) == 6
        assert calls == [0] + [0, 1, 2] * 4

    def test_rerun_is_deterministic(self):
        cases = [(two_transport_set(m=48, n=12, seed=3), [1, 0],
                  OptimizerOptions(max_iters=500), False),
                 # three frames: the candidates pass the halving rungs
                 (three_transport_set(), [1, 0, 0],
                  OptimizerOptions(max_iters=20), False),
                 (three_transport_set(), [1, 0, 0],
                  OptimizerOptions(max_iters=500, grad_tol=1e-3), True)]
        for (snaps, shifts), r0, opts, ends_early in cases:
            config = GreedyConfig(r0=r0, tol=1e-4, p_max=2, optimizer=opts)
            dec1, rep1 = spod_decompose(snaps, shifts, config)
            assert rep1.chosen_frames
            if ends_early:
                # both candidates left after the start-point rung end
                # before the rung at 125 iterations, so the winner is
                # ranked by its final value and the last round has no
                # solve left to run
                rung = halving_rungs(3, opts.max_iters)[-1]
                assert max(rep1.candidate_iterations[0]) < rung
                assert rep1.stages[1]["termination"] == "gradient"
            dec, rep = spod_decompose(snaps, shifts, config)
            assert rep.chosen_frames == rep1.chosen_frames
            assert rep.r_final == rep1.r_final
            assert rep.error_history == rep1.error_history
            assert rep.candidate_errors == rep1.candidate_errors
            assert rep.candidate_iterations == rep1.candidate_iterations
            assert rep.candidate_evaluations == rep1.candidate_evaluations
            for f, f1 in zip(dec.frames, dec1.frames):
                assert np.array_equal(f.modes, f1.modes)

    def test_amplitudes_reproduce_final_error(self):
        from spod.core import reconstruct
        from spod.snapshots import relative_error
        snaps, shifts = two_transport_set()
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1],
                                                              tol=1e-4))
        err = relative_error(snaps.data, reconstruct(dec))
        assert err == pytest.approx(rep.error_history[-1], rel=1e-6, abs=1e-12)

    def test_reported_error_is_the_explicit_residual(self):
        # at an error near 1e-16 the value ||X||^2 + Jt is cancellation
        # noise; the report must carry the error of the returned model
        from spod.core import reconstruct
        from spod.generators import WaveParams, wave_shifts, wave_snapshots
        from spod.snapshots import relative_error
        params = WaveParams(m=256, n=64)
        snaps = wave_snapshots(params)
        dec, rep = spod_decompose(snaps, wave_shifts(params),
                                  GreedyConfig(r0=[1, 1], tol=1e-6))
        err = relative_error(snaps.data, reconstruct(dec))
        assert rep.error_history[-1] == pytest.approx(err, rel=1e-6, abs=0.0)

    def test_wave_pair_wastes_no_trial_step(self):
        # the paper's wave pair: the first step's trial is capped at
        # 2J/|g|^2, so every evaluation after the start one is accepted
        from spod.generators import WaveParams, wave_shifts, wave_snapshots
        params = WaveParams()
        _, rep = spod_decompose(wave_snapshots(params), wave_shifts(params),
                                GreedyConfig(r0=[1, 1], tol=1e-6))
        stage, = rep.stages
        assert stage["termination"] == "gradient"
        assert stage["evaluations"] == stage["iterations"] + 1
        assert rep.error_history[-1] <= 1e-6

    def test_stage_converged_only_when_the_gradient_test_stops_it(self):
        # a solve stopped by max_iters ends its trace with termination
        # "iteration cap", and its stage must not read as converged
        from spod.generators import WaveParams, wave_shifts, wave_snapshots
        params = WaveParams(m=256, n=64)
        snaps, shifts = wave_snapshots(params), wave_shifts(params)
        _, capped = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1, 1], optimizer=OptimizerOptions(max_iters=1)))
        assert capped.stages[0]["termination"] == "iteration cap"
        assert capped.stages[0]["converged"] is False
        assert "line_search_ok" not in capped.stages[0]
        _, free = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1]))
        assert free.stages[0]["termination"] == "gradient"
        assert free.stages[0]["converged"] is True

    @pytest.mark.parametrize("masked", [False, True])
    def test_optimizer_failure_reported(self, monkeypatch, masked):
        # a non-finite start evaluation returns the seeds; masked, the
        # objective's unpack zeroes their masked rows
        snaps, shifts = two_transport_set(m=16, n=4)
        evaluate = ReducedObjective.value_gradient_amplitudes
        monkeypatch.setattr(ReducedObjective, "value_gradient_amplitudes",
                            lambda self, z: (np.nan, *evaluate(self, z)[1:]))
        mask = np.arange(16) < 8
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1]),
                                  masks=[mask, None] if masked else None)
        assert rep.termination == "optimizer failure"
        assert not rep.converged and rep.error_history == []
        seeds = initialize_frames(snaps, shifts, [1, 1])
        assert np.all(seeds[0].modes != 0.0)
        if masked:
            np.testing.assert_array_equal(dec.frames[0].modes[mask], 0.0)
            seeds[0].modes[mask] = 0.0
        for fa, fb in zip(dec.frames, seeds, strict=True):
            assert np.array_equal(fa.modes, fb.modes)

    def test_masks_hold_after_a_tolerance_stop(self):
        snaps, shifts = two_transport_set(m=32, n=8)
        mask = np.arange(32) < 16
        assert np.any(initialize_frames(snaps, shifts, [1, 1])[0].modes[:16])
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1], tol=0.5),
                                  masks=[mask, None])
        assert rep.termination == "tolerance"
        np.testing.assert_array_equal(dec.frames[0].modes[mask], 0.0)
        assert np.any(dec.frames[0].modes[~mask])

    def test_progress_callback_sees_every_stage(self):
        snaps, shifts = two_transport_set(m=32, n=10)
        seen = []
        spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 0], tol=5e-3),
                       progress=seen.append)
        assert seen[0]["stage"] == "initial"
        assert all(info["stage"] == "greedy" for info in seen[1:])

    def test_stages_count_svd_fallback_solves(self):
        snaps, shifts = two_transport_set(m=32, n=10)
        _, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1],
                                                            tol=1e-4))
        assert [st["svd_fallback_solves"] for st in rep.stages] == [0]
        # equal shift rows give both frames the same initial mode, so every
        # K_j has two equal columns and every snapshot solve takes the SVD
        same = FrameShifts(np.vstack([shifts.d[0], shifts.d[0]]), PER3)
        _, rep = spod_decompose(snaps, same, GreedyConfig(r0=[1, 1], p_max=0))
        st = rep.stages[0]
        assert st["svd_fallback_solves"] == st["rank_deficient_evals"] > 0

    def test_report_dict_is_json_ready(self):
        import json
        snaps, shifts = two_transport_set(m=32, n=10)
        _, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1],
                                                            tol=1e-4))
        text = json.dumps(rep.to_dict())
        assert "error_history" in text

    @pytest.mark.parametrize("cells", [0.0, 0.5])
    def test_one_operator_build_per_frame(self, monkeypatch, cells):
        # every frame asks for its node map once; only fractional frames
        # then build a CSR
        import spod.core
        snaps, shifts = two_transport_set()
        shifts = FrameShifts(shifts.d + cells * snaps.grid.h, shifts.spec)
        calls = {"node_map": 0, "shift_operator": 0}

        def counting(name):
            build = getattr(spod.core, name)

            def call(*args):
                calls[name] += 1
                return build(*args)
            return call

        for name in calls:
            monkeypatch.setattr(spod.core, name, counting(name))
        _, rep = spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 0], tol=1e-4))
        assert rep.chosen_frames  # candidate solves ran, each on its own objective
        assert calls == {"node_map": shifts.n_frames,
                         "shift_operator": shifts.n_frames if cells else 0}

    def test_stage_grad_norm_is_the_unscaled_gradient(self):
        snaps, shifts = three_transport_set(m=32, n=10)
        cfg = GreedyConfig(r0=[1, 1, 0], tol=1e-12, p_max=1,
                           optimizer=OptimizerOptions(max_iters=8))
        dec, rep = spod_decompose(snaps, shifts, cfg)
        stage = rep.stages[-1]
        assert stage["termination"] == "iteration cap"
        prob = ReducedObjective(snaps, shifts, rep.r_final)
        g = prob.value_and_gradient(prob.pack([f.modes for f in dec.frames]))[1]
        assert stage["grad_norm"] == pytest.approx(np.linalg.norm(g), rel=1e-12)

    def test_evaluations_count_every_gradient_evaluation(self, monkeypatch):
        # the start point's evaluation, which sets a solve's scale, counts
        snaps, shifts = three_transport_set(m=32, n=10)
        calls = []
        evaluate = ReducedObjective.evaluate

        def counting(self, modes_list, need_gradient=True):
            calls.append(need_gradient)
            return evaluate(self, modes_list, need_gradient)

        monkeypatch.setattr(ReducedObjective, "evaluate", counting)
        _, rep = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1, 1, 0], tol=1e-12, p_max=1,
            optimizer=OptimizerOptions(max_iters=8)))
        assert sum(calls) == (rep.stages[0]["evaluations"]
                              + sum(rep.candidate_evaluations[0]))

    def test_masked_entries_stay_zero(self, monkeypatch):
        from spod.core import reconstruct
        from spod.snapshots import relative_error
        snaps, shifts = three_transport_set(m=32, n=10)
        masks = [np.arange(32) < 8, None, np.arange(32) % 3 == 0]
        points, mode_lists = [], []
        value_gradient_amplitudes = ReducedObjective.value_gradient_amplitudes
        evaluate = ReducedObjective.evaluate

        def recording(self, z):
            points.append(z.copy())
            return value_gradient_amplitudes(self, z)

        def recording_modes(self, modes_list, need_gradient=True):
            mode_lists.append([W.copy() for W in modes_list])
            return evaluate(self, modes_list, need_gradient)

        monkeypatch.setattr(ReducedObjective, "value_gradient_amplitudes",
                            recording)
        monkeypatch.setattr(ReducedObjective, "evaluate", recording_modes)
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1, 1, 1], tol=1e-12, p_max=2,
            optimizer=OptimizerOptions(max_iters=15)), masks=masks)
        assert rep.r_final != [1, 1, 1] and points
        assert all(np.all(np.isfinite(z)) for z in points)
        # evaluate does not mask its modes: every caller passes them masked;
        # here every call is a solve's, as the incumbents' fits reuse them
        assert len(mode_lists) == len(points)
        for modes_list in mode_lists:
            for W, mask in zip(modes_list, masks):
                if mask is not None:
                    assert np.all(W[mask] == 0.0)
        for frame, mask in zip(dec.frames, masks):
            if mask is not None:
                assert frame.modes[mask].size and np.all(frame.modes[mask] == 0.0)
        err = relative_error(snaps.data, reconstruct(dec))
        assert rep.error_history[-1] == pytest.approx(err, rel=1e-9)

    @pytest.mark.parametrize("scale,bad,match", [
        (1.0, np.nan, "NaN or infinite entries"),
        (1.0, np.inf, "NaN or infinite entries"),
        (1e160, None, "squared norm of the snapshot matrix overflows"),
    ])
    def test_nonfinite_norm_rejected_before_any_solve(self, monkeypatch,
                                                      scale, bad, match):
        # refused before the seeds, whose eigensolve fails on NaN, and before
        # an overflowing norm could end the run as "optimizer failure"
        import warnings
        import spod.greedy
        calls = []
        monkeypatch.setattr(spod.greedy, "minimize",
                            lambda *a, **k: calls.append(a))
        snaps, shifts = two_transport_set(m=32, n=6)
        X = snaps.data * scale
        if bad is not None:
            X[3, 2] = bad
        data = SnapshotSet(X, snaps.grid, snaps.time.values, snaps.blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the norm raises no RuntimeWarning
            with pytest.raises(ValueError, match=match):
                spod_decompose(data, shifts, GreedyConfig(r0=[1, 1]))
        assert calls == []

    def test_zero_snapshots_rejected_before_any_solve(self, monkeypatch):
        import spod.greedy
        calls = []
        monkeypatch.setattr(spod.greedy, "minimize",
                            lambda *a, **k: calls.append(a))
        snaps, shifts = two_transport_set(m=32, n=6)
        zero = SnapshotSet(np.zeros_like(snaps.data), snaps.grid,
                           snaps.time.values, snaps.blocks)
        with pytest.raises(ValueError,
                           match="snapshot matrix is identically zero"):
            spod_decompose(zero, shifts, GreedyConfig(r0=[1, 1]))
        assert calls == []

    def test_r0_length_must_match_frames(self):
        snaps, shifts = two_transport_set(m=16, n=4)
        with pytest.raises(ValueError):
            spod_decompose(snaps, shifts, GreedyConfig(r0=[1, 1, 1]))


class TestHalving:
    def test_rung_schedule(self):
        assert halving_rungs(5, 30) == [0, 4, 8]
        assert halving_rungs(3, 20) == [0, 5]
        assert halving_rungs(2, 7) == []
        assert halving_rungs(1, 30) == []
        assert halving_rungs(9, 100) == [0, 7, 13, 25]

    def test_candidate_dropped_at_the_start_point(self):
        # its error is the squared residual of a value-only evaluation of
        # the incumbent plus the seed of the incumbent's residual
        snaps, shifts = three_transport_set()
        config = GreedyConfig(r0=[1, 1, 0], tol=1e-12, p_max=1,
                              optimizer=OptimizerOptions(max_iters=20))
        dec, rep = spod_decompose(snaps, shifts, config)
        config.p_max = 0
        incumbent = [f.modes for f in spod_decompose(snaps, shifts,
                                                     config)[0].frames]
        base = ReducedObjective(snaps, shifts, config.r0)
        resid = base.evaluate(incumbent, need_gradient=False)[3]
        iters, evals = rep.candidate_iterations[0], rep.candidate_evaluations[0]
        dropped = [i for i, k in enumerate(iters) if k == 0]
        assert len(dropped) == 1
        for i in dropped:
            assert evals[i] == 1
            w_new = _seed_modes(resid, snaps, shifts, i, 1)
            start = [W if l != i else np.hstack([W, w_new])
                     for l, W in enumerate(incumbent)]
            prob = base.with_counts([W.shape[1] for W in start])
            r = prob.evaluate(start, need_gradient=False)[3].ravel(order="K")
            assert rep.candidate_errors[0][i] == prob.relative_error_of(r @ r)

    @pytest.mark.parametrize("n_frames", [2, 3])
    def test_at_most_half_the_candidates_iterate(self, n_frames):
        snaps, shifts = three_transport_set(m=32, n=12)
        shifts = FrameShifts(shifts.d[:n_frames], shifts.spec)
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1] + [0] * (n_frames - 1), tol=1e-12, p_max=3,
            optimizer=OptimizerOptions(max_iters=20)))
        assert len(rep.candidate_iterations) == 3
        for iters in rep.candidate_iterations:
            if n_frames == 2:  # no rung: both candidates iterate
                assert all(k > 0 for k in iters)
            else:
                assert sum(k > 0 for k in iters) <= (len(iters) + 1) // 2

    def test_one_frame_runs_its_candidate_to_the_cap(self):
        assert halving_rungs(1, 7) == []
        # fractional shifts: the seeds are not the optimum of the frame
        snaps, shifts = three_transport_set(m=32, n=10)
        shifts = FrameShifts(shifts.d[:1], shifts.spec)
        dec, rep = spod_decompose(snaps, shifts, GreedyConfig(
            r0=[1], tol=1e-12, p_max=1,
            optimizer=OptimizerOptions(max_iters=7, grad_tol=0.0)))
        assert rep.chosen_frames == [0]
        assert rep.candidate_iterations == [[7]]
        assert rep.stages[1]["iterations"] == 7
        assert rep.candidate_evaluations == [[rep.stages[1]["evaluations"]]]

    def test_matches_solving_every_candidate_to_the_cap(self):
        snaps, shifts = three_transport_set()
        # grad_tol 1e-12: the scaled solve of the second iteration's winner
        # meets the default gradient test at 15 iterations
        config = GreedyConfig(r0=[1, 1, 0], tol=1e-12, p_max=2,
                              optimizer=OptimizerOptions(max_iters=20,
                                                         grad_tol=1e-12))
        dec, rep = spod_decompose(snaps, shifts, config)
        modes, amps, history, chosen, rows = full_candidate_run(snaps, shifts,
                                                                config)
        assert rep.chosen_frames == chosen == [2, 0]
        assert rep.error_history == history
        for l in range(shifts.n_frames):
            assert np.array_equal(dec.frames[l].modes, modes[l])
            assert np.array_equal(dec.amplitudes[l], amps[l])
        for p, row in enumerate(rows):
            q = chosen[p]
            errors, iters = rep.candidate_errors[p], rep.candidate_iterations[p]
            # 3 candidates: one drops out at its start point, one after 5
            # iterations, and the survivor runs to the cap of 20
            assert sorted(iters) == [0, 5, 20] and iters[q] == 20
            assert q == int(np.argmin(errors))
            for i, (_, sv, init) in enumerate(row):
                # a dropped error is the value of a solve run to its rung,
                # the start value at the rung at 0
                ref = _Solve(sv.prob.with_counts(sv.prob.mode_counts), init)
                ref.run_to(iters[i], config.optimizer)
                assert ref.iterations == iters[i]
                assert errors[i] == ref.error
                assert errors[i] >= errors[q]
            stage, (_, sv, _) = rep.stages[p + 1], row[q]
            assert stage["iterations"] == sv.iterations
            assert stage["evaluations"] == sv.prob.n_evals
            assert stage["termination"] == sv.state.termination
            assert rep.candidate_evaluations[p][q] == sv.prob.n_evals
            assert sum(rep.candidate_evaluations[p]) < sum(
                sv.prob.n_evals for _, sv, _ in row)


    @pytest.mark.parametrize("params", [
        {},
        {"front_amplitudes": (1.1, 0.85, 0.55, 0.55),
         "front_widths": (0.011, 0.011, 0.013, 0.009)},
    ])
    def test_crossing_fronts_keeps_the_winner(self, params):
        # the crossing-fronts benchmark settings on a coarser grid: a
        # change to the solver's trajectories that makes halving drop the
        # candidate that wins at the cap shows here
        from spod.generators import CrossingFrontsParams, crossing_fronts
        snaps, shifts = crossing_fronts(CrossingFrontsParams(m=200, n=60,
                                                             **params))
        config = GreedyConfig(r0=[1, 1, 1, 1, 0], tol=0.01,
                              optimizer=OptimizerOptions(max_iters=30))
        dec, rep = spod_decompose(snaps, shifts, config)
        modes, amps, history, chosen, rows = full_candidate_run(snaps, shifts,
                                                                config)
        assert chosen
        assert rep.chosen_frames == chosen
        assert rep.error_history == history
        for l in range(shifts.n_frames):
            assert np.array_equal(dec.frames[l].modes, modes[l])
            assert np.array_equal(dec.amplitudes[l], amps[l])
        for q, errors, iters in zip(chosen, rep.candidate_errors,
                                    rep.candidate_iterations):
            # 5 candidates: 2 drop out at their start point, 1 after 4
            # iterations, 1 after 8, and the winner runs to 30
            assert sorted(iters) == [0, 0, 4, 8, 30] and iters[q] == 30
            assert min(errors) == errors[q]

    def test_two_frames_match_solving_both_candidates_to_the_cap(self):
        # ranked by their start points alone, the second iteration would
        # keep frame 1, whose solve ends at a 30 % larger error
        from spod.generators import CrossingFrontsParams, crossing_fronts
        snaps, shifts = crossing_fronts(CrossingFrontsParams(m=200, n=60))
        shifts = FrameShifts(shifts.d[[1, 4]], shifts.spec)
        config = GreedyConfig(r0=[1, 1], tol=1e-12, p_max=2,
                              optimizer=OptimizerOptions(max_iters=10))
        dec, rep = spod_decompose(snaps, shifts, config)
        modes, amps, history, chosen, rows = full_candidate_run(snaps, shifts,
                                                                config)
        assert rep.chosen_frames == chosen == [1, 0]
        assert rep.error_history == history
        for l in range(shifts.n_frames):
            assert np.array_equal(dec.frames[l].modes, modes[l])
            assert np.array_equal(dec.amplitudes[l], amps[l])


class TestScaleRefresh:
    """Every SCALE_REFRESH iterations a solve takes its L-BFGS metric anew
    from its last evaluation's amplitudes; only the metric, gamma and the
    gradient target change."""

    OPTS = OptimizerOptions(max_iters=30, grad_tol=0.0)

    @staticmethod
    def solve():
        # runs 30 iterations to its cap without a line-search failure
        snaps, shifts = three_transport_set(m=32, n=10)
        counts = [1, 1, 1]
        return _Solve(ReducedObjective(snaps, shifts, counts),
                      [f.modes for f in initialize_frames(snaps, shifts, counts)])

    def test_only_the_metric_changes(self):
        sv = self.solve()
        sv.run_to(10, replace(self.OPTS, max_iters=10))  # no refresh at the cap
        assert sv.iterations == 10 and sv.state.termination == "iteration cap"
        st, z, n_evals = sv.state, sv.z, sv.prob.n_evals
        assert z is st.x
        metric = sv.prob.variable_metric(sv.last[1])
        sv.refresh(self.OPTS.grad_tol)
        new = sv.state
        assert sv.prob.n_evals == n_evals
        # x (z), f (J), g (dJ/dz) and the pairs stand as the same objects
        for name in ("x", "f", "g", "pairs", "termination"):
            assert getattr(new, name) is getattr(st, name), name
        assert sv.z is z and len(new.pairs) == 10
        assert np.array_equal(new.metric, metric)
        assert not np.array_equal(new.metric, st.metric)
        sigma, y, _ = new.pairs[-1]
        assert new.gamma == float(sigma @ y) / float(y @ (metric * y))
        assert new.gamma != st.gamma
        assert new.target == 0.0 and new.termination == "iteration cap"
        # a segment that takes no step after a refresh leaves z standing, so
        # the last evaluation, made at z, still serves the fit
        sv.state = replace(new, target=np.inf)
        sv.run_to(10, replace(self.OPTS, max_iters=10))
        assert sv.state.termination == "gradient"
        assert sv.z is z and sv.state.g is st.g
        sv.fit()
        assert sv.prob.n_evals == n_evals

    @staticmethod
    def recorded_values(sv):
        """J of every evaluation the solve makes, in order."""
        values, evaluate = [], sv.evaluate

        def recording(z):
            out = evaluate(z)
            values.append(out[0])
            return out

        sv.evaluate = recording
        return values

    def test_rungs_match_one_run_to(self):
        whole = self.solve()
        whole_values = self.recorded_values(whole)
        whole.run_to(30, self.OPTS)
        assert whole.iterations == 30 and not whole.ended
        cut = self.solve()
        cut_values = self.recorded_values(cut)
        for rung in (4, 10, 15, 30):  # on and off multiples of 10
            cut.run_to(rung, self.OPTS)
        assert cut.iterations == 30 and cut.state.termination == "iteration cap"
        assert cut_values == whole_values
        assert len(cut_values) == cut.prob.n_evals == whole.prob.n_evals
        assert np.array_equal(cut.z, whole.z)
        a, b = cut.state, whole.state
        assert (a.f, a.gamma, a.target) == (b.f, b.gamma, b.target)
        for name in ("x", "g", "metric"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for p, q in zip(a.pairs, b.pairs, strict=True):
            assert all(np.array_equal(u, v) for u, v in zip(p, q))

    def test_refreshes_make_no_evaluation(self, monkeypatch):
        import spod.greedy as greedy
        traces, minimize = [], greedy.minimize

        def recording(*args):
            x, trace = minimize(*args)
            traces.append(trace)
            return x, trace

        monkeypatch.setattr(greedy, "minimize", recording)
        sv, metrics = self.solve(), []
        refresh = sv.refresh

        def counting(grad_tol):
            refresh(grad_tol)
            metrics.append(sv.state.metric)

        sv.refresh = counting
        sv.run_to(30, self.OPTS)
        # segments 0-10, 10-20 and 20-30; no refresh at max_iters
        assert [t.iterations for t in traces] == [10, 10, 10]
        assert len(metrics) == 2
        # the second and third segments ran in the refreshed metrics
        for trace, metric in zip(traces[1:], metrics, strict=True):
            assert trace.state.metric is metric
        assert sv.prob.n_evals == sum(t.n_evals for t in traces) + 1

    def test_gradient_target_is_the_start_rule_until_the_first_refresh(self):
        grad_tol = 1e-3
        opts = replace(self.OPTS, grad_tol=grad_tol)
        sv = self.solve()
        fresh = ReducedObjective(*three_transport_set(m=32, n=10), [1, 1, 1])
        g0 = fresh.value_and_gradient(sv.z)[1]
        sv.run_to(9, opts)
        assert not sv.ended

        def rule():  # grad_tol times the metric norm of g0
            return grad_tol * float(np.sqrt(g0 @ (sv.state.metric * g0)))

        # the target start_state set from the start gradient and metric
        assert sv.state.target == rule()
        first = sv.state.target
        sv.run_to(10, opts)  # refreshed: the same rule in the new metric
        assert sv.state.target != first
        assert sv.state.target == rule()


class TestIncumbentFit:
    """The incumbent's amplitudes and residual are those of its solve's
    last evaluation whenever that was made at the final modes."""

    @staticmethod
    def counted_evaluations(monkeypatch):
        calls = []  # need_gradient of every ReducedObjective.evaluate call
        evaluate = ReducedObjective.evaluate

        def counting(self, modes_list, need_gradient=True):
            calls.append(need_gradient)
            return evaluate(self, modes_list, need_gradient)

        monkeypatch.setattr(ReducedObjective, "evaluate", counting)
        return calls

    @staticmethod
    def case(name):
        import spod
        if name == "wave":  # the benchmark's wave pair
            return spod.wave_snapshots(), spod.wave_shifts(), GreedyConfig(
                r0=[1, 1], tol=1e-6), None
        if name == "three-signal":
            snaps, shifts = spod.three_signal_default()
            return snaps, shifts, GreedyConfig(
                r0=[1, 0, 0], tol=1e-12, p_max=2,
                optimizer=OptimizerOptions(max_iters=20)), None
        snaps, shifts = spod.crossing_fronts(spod.CrossingFrontsParams(m=100, n=30))
        species = np.zeros(snaps.n_rows, dtype=bool)
        species[next(b for b in snaps.blocks if b.name == "species").rows] = True
        return snaps, shifts, GreedyConfig(
            r0=[1, 1, 1, 1, 0], tol=0.01, p_max=2,
            optimizer=OptimizerOptions(max_iters=10)), [None] + [species] * 4

    @staticmethod
    def assert_fresh_amplitudes(snaps, shifts, dec, rep, masks):
        prob = ReducedObjective(snaps, shifts, rep.r_final, masks=masks)
        amps = prob.evaluate([f.modes for f in dec.frames],
                             need_gradient=False)[2]
        for A, B in zip(dec.amplitudes, amps):
            assert np.array_equal(A, B)

    @pytest.mark.parametrize("name", ["wave", "three-signal", "crossing-masked"])
    def test_every_evaluation_is_a_counted_solve_evaluation(self, name,
                                                            monkeypatch):
        snaps, shifts, config, masks = self.case(name)
        calls = self.counted_evaluations(monkeypatch)
        dec, rep = spod_decompose(snaps, shifts, config, masks=masks)
        assert len(calls) == (rep.stages[0]["evaluations"]
                              + sum(map(sum, rep.candidate_evaluations)))
        if name != "wave":
            assert rep.chosen_frames  # the seeds of an iteration reused a fit
        monkeypatch.undo()
        self.assert_fresh_amplitudes(snaps, shifts, dec, rep, masks)

    def test_a_solve_stopped_at_a_rung_keeps_no_residual(self):
        snaps, shifts = three_transport_set(m=32, n=10)
        counts = [1, 1, 0]
        sv = _Solve(ReducedObjective(snaps, shifts, counts),
                    [f.modes for f in initialize_frames(snaps, shifts, counts)])
        opts = OptimizerOptions(max_iters=6)
        sv.run_to(3, opts)
        assert not sv.ended and sv.last is None  # it evaluates again
        sv.run_to(6, opts)
        n_evals = sv.prob.n_evals
        amps, resid = sv.fit()
        assert sv.prob.n_evals == n_evals  # the last evaluation's, at sv.z
        _, _, amps_ref, resid_ref = ReducedObjective(snaps, shifts, counts).evaluate(
            sv.prob.unpack(sv.z), need_gradient=False)
        for A, B in zip(amps, amps_ref):
            assert np.array_equal(A, B)
        assert np.array_equal(resid, resid_ref)

    def test_a_solve_stopped_at_its_start_point_keeps_it(self):
        # the gradient test holds at the start: z and dJ/dz are the ones
        # evaluated there, and the fit reuses that evaluation
        snaps, shifts = three_transport_set(m=32, n=10)
        counts = [1, 1, 0]
        init = [f.modes for f in initialize_frames(snaps, shifts, counts)]
        prob = ReducedObjective(snaps, shifts, counts)
        sv = _Solve(prob, init)
        sv.run_to(5, OptimizerOptions(max_iters=5, grad_tol=1e300))
        assert sv.iterations == 0 and sv.state.termination == "gradient"
        z0 = prob.pack(init)
        assert np.array_equal(sv.z, z0)
        f, g = ReducedObjective(snaps, shifts, counts).value_and_gradient(z0)
        assert sv.state.f == f and np.array_equal(sv.state.g, g)
        assert prob.n_evals == 1
        sv.fit()
        assert prob.n_evals == 1

    @pytest.mark.parametrize("name", ["two-frame", "crossing-masked"])
    def test_a_dropped_candidate_keeps_no_residual(self, name, monkeypatch):
        if name == "two-frame":  # both candidates run to the cap, one drops
            snaps, shifts = two_transport_set(m=32, n=10)
            config, masks = GreedyConfig(r0=[1, 0], tol=1e-12, p_max=2,
                                         optimizer=OptimizerOptions(max_iters=8)), None
        else:
            snaps, shifts, config, masks = self.case(name)
        solves, init = [], _Solve.__init__

        def recording(sv, *args):
            init(sv, *args)
            solves.append(sv)

        monkeypatch.setattr(_Solve, "__init__", recording)
        dec, rep = spod_decompose(snaps, shifts, config, masks=masks)
        n = shifts.n_frames
        assert rep.chosen_frames and len(solves) == 1 + n * len(rep.chosen_frames)
        for p, q in enumerate(rep.chosen_frames):
            row = solves[1 + n * p:1 + n * (p + 1)]
            assert all(sv.last is None for i, sv in enumerate(row) if i != q)

    def test_a_solve_ending_off_its_last_evaluation_is_evaluated_once_more(
            self, monkeypatch):
        # the initial solve ends by a line-search failure: its final
        # iterate precedes the failed trials, the last evaluated points
        snaps, shifts = two_transport_set(m=32, n=10)
        config = GreedyConfig(r0=[1, 0], tol=1e-12, p_max=2,
                              optimizer=OptimizerOptions(max_iters=8))
        calls = self.counted_evaluations(monkeypatch)
        dec, rep = spod_decompose(snaps, shifts, config)
        assert rep.stages[0]["termination"] == "line search failure"
        assert calls.count(False) == 1  # the one value-only evaluation
        assert calls.count(True) == (rep.stages[0]["evaluations"]
                                     + sum(map(sum, rep.candidate_evaluations)))
        monkeypatch.undo()
        self.assert_fresh_amplitudes(snaps, shifts, dec, rep, None)
        # two frames, no rung: the run equals the one whose seeds and
        # amplitudes come from fresh evaluations of every incumbent
        modes, amps, history, chosen, _ = full_candidate_run(snaps, shifts,
                                                             config)
        assert rep.chosen_frames and rep.chosen_frames == chosen
        assert rep.error_history == history
        for l in range(shifts.n_frames):
            assert np.array_equal(dec.frames[l].modes, modes[l])
            assert np.array_equal(dec.amplitudes[l], amps[l])


class TestConfigValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            GreedyConfig(r0=[-1, 1])

    @pytest.mark.parametrize("r0", [[0, 0, 0], [0], []])
    def test_counts_without_a_mode_rejected(self, r0):
        with pytest.raises(ValueError, match="at least one mode"):
            GreedyConfig(r0=r0)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            GreedyConfig(r0=[1], tol=0.0)

    @pytest.mark.parametrize("rank_tol", [float("nan"), -1.0, 1.0, 1.5])
    def test_rank_tol_validated(self, rank_tol):
        with pytest.raises(ValueError, match="rank_tol"):
            GreedyConfig(r0=[1], rank_tol=rank_tol)

    @pytest.mark.parametrize("threads", [0, 2, 2.0, -3])
    def test_threads_must_be_one(self, threads):
        with pytest.raises(ValueError, match="threads must be 1: candidates"
                                             " are solved one at a time"):
            GreedyConfig(r0=[1], threads=threads)

    @pytest.mark.parametrize("kwargs,match", [
        ({"r0": [1.7, 0.9]}, r"r0 entry must be an integer, got 1\.7"),
        ({"r0": [1, "2"]}, "r0 entry must be an integer, got '2'"),
        ({"r0": [1], "p_max": 1.5}, r"p_max must be an integer, got 1\.5"),
        ({"r0": [1], "threads": 2.5}, r"threads must be an integer, got 2\.5"),
    ])
    def test_counts_must_be_integers(self, kwargs, match):
        # as the config reader requires: truncated, [1.7, 0.9] would run
        # as [1, 0] and p_max = 1.5 as two greedy iterations
        with pytest.raises(ValueError, match=match):
            GreedyConfig(**kwargs)

    def test_integral_counts_become_ints(self):
        cfg = GreedyConfig(r0=np.array([2.0, 0.0]), p_max=np.int64(3),
                           threads=1.0)
        assert cfg.r0 == [2, 0] and cfg.p_max == 3 and cfg.threads == 1
        assert all(type(v) is int for v in (*cfg.r0, cfg.p_max, cfg.threads))
