"""Acceptance checks for the full pipeline.

One test per headline requirement; each prints a single PASS/FAIL line
with the measured numbers so a test log doubles as a results table.
The crossing-fronts run is the slow one (12 s of a 29 s tier-1 run); everything
else is seconds.
"""

import time

import numpy as np
import pytest

from spod.core import (
    Decomposition,
    FrameBasis,
    FrameShifts,
    ReducedObjective,
    optimal_amplitudes,
    objective_and_gradient,
    reconstruct,
)
from spod.generators import (
    WaveParams,
    crossing_fronts,
    periodic_gaussian,
    three_signal_default,
    wave_shifts,
    wave_snapshots,
)
from spod.greedy import (
    GreedyConfig,
    back_shifted_matrix,
    initialize_frames,
    spod_decompose,
)
from spod.lbfgs import OptimizerOptions
from spod.pod import modes_for_tolerance
from spod.shifts import ShiftSpec, apply_shift, apply_shift_transpose, dense_shift_matrix
from spod.snapshots import Grid1D, SnapshotSet, center_rows, relative_error
from spod.tracking import WindowSchedule, center_shifts, track_front


def _verdict(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + text)
    assert ok, text


@pytest.fixture(scope="module")
def wave():
    params = WaveParams()
    return params, wave_snapshots(params)


class TestAcceptance:
    def test_wave_pair_exact_with_two_modes(self, wave, capsys):
        params, snaps = wave
        t0 = time.perf_counter()
        dec, report = spod_decompose(snaps, wave_shifts(params),
                                     GreedyConfig(r0=[1, 1], tol=1e-6))
        seconds = time.perf_counter() - t0
        err = report.error_history[-1]
        ok = (err < 1e-6
              and sum(report.r_final) == 2
              and len(report.error_history) == 1  # initial solve only
              and report.chosen_frames == []
              and report.termination == "tolerance"
              and seconds < 60.0)
        _verdict(capsys, ok,
                 f"wave pair: error {err:.2e} < 1e-06 with"
                 f" {sum(report.r_final)} modes, no greedy iterations,"
                 f" {seconds:.1f} s")

    def test_pod_needs_over_100_modes_on_wave(self, wave, capsys):
        _, snaps = wave
        count = modes_for_tolerance(snaps.data, 0.01)
        spod_modes = 2
        ok = count > 100 and count >= 50 * spod_modes
        _verdict(capsys, ok,
                 f"pod baseline: {count} modes at 1% tolerance vs"
                 f" {spod_modes} shifted modes ({count / spod_modes:.0f}x)")

    def test_three_signals_reach_zero_cost_two_ways(self, capsys):
        snaps, shifts = three_signal_default()
        opts = OptimizerOptions(grad_tol=1e-10, max_iters=2000)
        _, report = spod_decompose(
            snaps, shifts,
            GreedyConfig(r0=[1, 1, 1], tol=1e-12, p_max=0, optimizer=opts))
        cost = report.error_history[-1]

        # two closed-form one-mode-per-frame solutions: the plain one,
        # and a recombination that moves a standing sine between frames
        x = snaps.grid.coordinates()
        L = snaps.grid.length
        t = snaps.time.values
        q1 = periodic_gaussian(2.0, 0.35, L)
        q2 = periodic_gaussian(4.0, 0.5, L)
        ones = np.ones_like(t)

        def build(profiles, amps):
            return Decomposition(
                tuple(FrameBasis(p[:, None]) for p in profiles),
                tuple(a[None, :] for a in amps),
                shifts, snaps.grid, tuple(snaps.blocks))

        plain = build([q1(x), q2(x), np.sin(x)], [ones, ones, np.cos(t)])
        mixed = build([q1(x) + np.sin(x), q2(x) + np.sin(x), -np.sin(x)],
                      [ones, ones, np.cos(t)])
        res_plain = relative_error(snaps.data, reconstruct(plain))
        res_mixed = relative_error(snaps.data, reconstruct(mixed))
        distinct = np.linalg.norm(np.sin(x) - (-np.sin(x))) > 1.0

        ok = cost < 1e-8 and res_plain < 1e-10 and res_mixed < 1e-10 \
            and distinct
        _verdict(capsys, ok,
                 f"three signals: optimized cost {cost:.2e}, analytic"
                 f" residuals {res_plain:.1e} / {res_mixed:.1e}"
                 " for two distinct solutions")

    def test_crossing_fronts_beat_pod_five_fold(self, capsys):
        snaps, shifts = crossing_fronts()
        config = GreedyConfig(r0=[1, 1, 1, 1, 0], tol=0.01,
                              p_max=snaps.n_snapshots)
        t0 = time.perf_counter()
        dec, report = spod_decompose(snaps, shifts, config)
        seconds = time.perf_counter() - t0

        total = sum(report.r_final)
        iters = len(report.chosen_frames)
        one_per_iter = (total == sum(config.r0) + iters
                        and len(report.error_history) == iters + 1)
        minimal = all(
            chosen == int(np.argmin(row))
            and report.error_history[i + 1] == pytest.approx(min(row))
            for i, (chosen, row) in enumerate(
                zip(report.chosen_frames, report.candidate_errors)))
        pod_count = modes_for_tolerance(center_rows(snaps)[0].data, 0.01)

        ok = (report.converged and total <= 8 and one_per_iter and minimal
              and pod_count >= 5 * total)
        _verdict(capsys, ok,
                 f"crossing fronts: {total} modes reach"
                 f" {report.error_history[-1]:.2e} vs centered POD"
                 f" {pod_count} modes ({pod_count / total:.1f}x), minimal"
                 f" candidate kept each iteration, {seconds:.0f} s")

    def test_gradient_matches_finite_differences(self, capsys):
        worst = 0.0
        directions = 0
        for m, n, n_s, n_blocks, seed in [(24, 9, 2, 1, 0),
                                          (16, 7, 3, 2, 1),
                                          (40, 11, 1, 1, 2)]:
            rng = np.random.default_rng(seed)
            grid = Grid1D(m, 1.0 / m, boundary="periodic")
            snaps = SnapshotSet(rng.standard_normal((n_blocks * m, n)),
                                grid, 0.1 * np.arange(n))
            shifts = FrameShifts(rng.uniform(-0.4, 0.4, size=(n_s, n)),
                                 ShiftSpec("periodic", 3))
            counts = [1 + (l % 2) for l in range(n_s)]
            prob = ReducedObjective(snaps, shifts, counts)
            z0 = rng.standard_normal(sum(snaps.n_rows * r for r in counts))
            _, g = prob.value_and_gradient(z0)
            # J is a few hundred here, so FD roundoff is ~1e-16 |J|/eps;
            # eps = 1e-5 keeps it below the 1e-5 relative target even on
            # directions with small directional derivative
            eps = 1e-5
            for _ in range(20):
                v = rng.standard_normal(z0.size)
                v /= np.linalg.norm(v)
                fd = (prob.value_and_gradient(z0 + eps * v)[0]
                      - prob.value_and_gradient(z0 - eps * v)[0]) / (2 * eps)
                rel = abs(fd - g @ v) / max(abs(fd), abs(g @ v), 1e-12)
                worst = max(worst, rel)
                directions += 1
        ok = worst < 1e-5
        _verdict(capsys, ok,
                 f"gradient check: worst relative deviation {worst:.1e}"
                 f" over {directions} directions on 3 instances")

    def test_minimum_norm_amplitudes_match_pseudoinverse(self, capsys):
        rng = np.random.default_rng(12)
        worst = 0.0
        for i in range(100):
            m = 5 + i % 20
            r = 1 + i % 5
            K = rng.standard_normal((m, r))
            if i % 4 == 0 and r >= 2:
                K[:, -1] = K[:, 0]  # rank deficient
            x = rng.standard_normal(m)
            a = optimal_amplitudes(K, x)
            ref = np.linalg.pinv(K) @ x
            worst = max(worst, np.abs(a - ref).max())

        v = rng.standard_normal(30)
        tied = optimal_amplitudes(np.column_stack([v, v]), v)
        even_split = np.abs(tied - 0.5).max() < 1e-12

        ok = worst < 1e-10 and even_split
        _verdict(capsys, ok,
                 f"amplitude solve: worst deviation {worst:.1e} from the"
                 " pseudoinverse on 100 instances, tied columns split"
                 f" {tied[0]:.3f}/{tied[1]:.3f}")

    def test_shift_operator_identities(self, capsys):
        rng = np.random.default_rng(4)
        worst_adjoint = 0.0
        for boundary, grid_boundary in [("periodic", "periodic"),
                                        ("constant", "non-periodic")]:
            grid = Grid1D(50, 0.02, boundary=grid_boundary)
            for degree in (1, 3):
                spec = ShiftSpec(boundary, degree)
                for d in rng.uniform(-0.5, 0.5, size=5):
                    v = rng.standard_normal(50)
                    w = rng.standard_normal(50)
                    lhs = apply_shift(v, d, grid, spec) @ w
                    rhs = v @ apply_shift_transpose(w, d, grid, spec)
                    worst_adjoint = max(worst_adjoint, abs(lhs - rhs))

        # grid-multiple periodic shifts are permutations: inner products
        # of integer-valued vectors are preserved without roundoff
        grid = Grid1D(32, 1.0 / 32, boundary="periodic")
        spec = ShiftSpec("periodic", 3)
        exact = True
        for k in (1, 5, 17):
            v = rng.integers(-9, 9, size=32).astype(float)
            w = rng.integers(-9, 9, size=32).astype(float)
            tv = apply_shift(v, k * grid.h, grid, spec)
            tw = apply_shift(w, k * grid.h, grid, spec)
            exact = exact and (tv @ tw == v @ w)

        sharp = Grid1D(4, 0.25, boundary="non-periodic")
        plus = np.array([[1.0, 0, 0, 0], [1, 0, 0, 0],
                         [0, 1, 0, 0], [0, 0, 1, 0]])
        minus = np.array([[0.0, 1, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, 1], [0, 0, 0, 1]])
        bitwise = all(
            np.array_equal(dense_shift_matrix(sharp.h, sharp,
                                              ShiftSpec("constant", deg)), plus)
            and np.array_equal(dense_shift_matrix(-sharp.h, sharp,
                                                  ShiftSpec("constant", deg)),
                               minus)
            for deg in (1, 3))

        ok = worst_adjoint < 1e-12 and exact and bitwise
        _verdict(capsys, ok,
                 f"shift operators: adjoint gap {worst_adjoint:.1e},"
                 " grid-multiple inner products exact, one-cell boundary"
                 " matrices bitwise correct")

    def test_single_frame_matches_pod_of_backshifted(self, capsys):
        rng = np.random.default_rng(21)
        m, n = 64, 20
        grid = Grid1D(m, 1.0 / m, boundary="periodic")
        snaps = SnapshotSet(rng.standard_normal((m, n)), grid,
                            0.05 * np.arange(n))
        shifts = FrameShifts(
            (rng.integers(-30, 30, size=(1, n)) * grid.h),
            ShiftSpec("periodic", 3))
        B = back_shifted_matrix(snaps.data, shifts, 0, grid, 1)
        sv = np.linalg.svd(B, compute_uv=False)
        norm2 = float(np.sum(snaps.data**2))

        worst = 0.0
        for r in (1, 3, 7):
            frames = initialize_frames(snaps, shifts, [r])
            jt = objective_and_gradient(snaps, frames, shifts)[0]
            spod_obj = norm2 + jt
            pod_obj = float(np.sum(B**2) - np.sum(sv[:r] ** 2))
            worst = max(worst, abs(spod_obj - pod_obj) / norm2)
        ok = worst < 1e-8
        _verdict(capsys, ok,
                 f"single frame: objective matches the back-shifted POD"
                 f" within {worst:.1e} at ranks 1, 3, 7")

    def test_trackers_recover_known_trajectories(self, capsys):
        # separated wave pulses: peak statistic plus window schedules
        params = WaveParams(m=256, n=64)
        snaps = wave_snapshots(params)
        true = wave_shifts(params)
        density = snaps.block("density")
        schedules = [
            WindowSchedule([((0, 32), (128, 256)), ((32, 64), (0, 128))]),
            WindowSchedule([((0, 33), (0, 129)), ((33, 64), (128, 256))]),
        ]
        worst = 0.0
        for frame, windows in enumerate(schedules):
            pos = track_front(density, snaps.grid, windows=windows,
                              statistic="peak")
            d = -center_shifts(pos, snaps.grid)  # periodic convention
            dev = (d - true.d[frame] + 0.5) % 1.0 - 0.5
            worst = max(worst, np.abs(dev).max() / snaps.grid.h)

        # moving step front in the crossing scenario, gradient statistic
        fronts, front_shifts = crossing_fronts()
        pos = track_front(fronts.block("species"), fronts.grid,
                          statistic="gradient")
        d = center_shifts(pos, fronts.grid)
        worst = max(worst,
                    np.abs(d - front_shifts.d[0]).max() / fronts.grid.h)

        ok = worst <= 1.0
        _verdict(capsys, ok,
                 f"front tracking: worst deviation {worst:.2f} mesh widths"
                 " across wave and crossing-front scenarios")
