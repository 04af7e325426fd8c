"""Tests for the synthetic scenario generators.

The travelling-wave columns are checked against independently rolled
copies of the initial profile, the PDE residual is checked on a mesh
refinement study, and the shift tables are pinned against the operator
conventions actually used by the decomposition.
"""

import numpy as np
import pytest

from spod.core import FrameShifts
from spod.generators import (
    CrossingFrontsParams,
    WaveParams,
    crossing_fronts,
    periodic_gaussian,
    three_signal_default,
    three_signal_shifts,
    three_signal_snapshots,
    wave_shifts,
    wave_snapshots,
)
from spod.greedy import GreedyConfig, spod_decompose
from spod.pod import modes_for_tolerance
from spod.shifts import ShiftSpec
from spod.snapshots import Grid1D, center_rows
from spod.tracking import center_shifts, track_front


def _zero(z):
    return np.zeros_like(np.asarray(z, dtype=float))


class TestWave:
    def test_shapes_blocks_grid(self):
        p = WaveParams(m=64, n=10, t_final=0.5)
        snaps = wave_snapshots(p)
        assert snaps.data.shape == (128, 10)
        assert snaps.block_names() == ["density", "velocity"]
        assert snaps.grid.boundary == "periodic"
        assert snaps.grid.h == pytest.approx(1.0 / 64)
        np.testing.assert_allclose(snaps.time.values,
                                   0.5 * np.arange(10) / 10)

    def test_time_zero_state(self):
        snaps = wave_snapshots(WaveParams())
        u0 = snaps.block("velocity")[:, 0]
        assert np.all(u0 == 0.0)
        rho0 = snaps.block("density")[:, 0]
        x = snaps.grid.coordinates()
        # both half pulses coincide at t = 0, restoring the full hump
        expected = np.exp(-(((x - 0.5 + 0.5) % 1.0 - 0.5) / 0.01) ** 2)
        np.testing.assert_allclose(rho0, expected, atol=1e-300)

    def test_columns_are_rolled_initial_profiles(self):
        # with the defaults c*t_j = 4j*h, so every column must be a
        # combination of exact circular rolls of the t = 0 density
        p = WaveParams()
        snaps = wave_snapshots(p)
        rho = snaps.block("density")
        u = snaps.block("velocity")
        rho0 = rho[:, 0]
        coef = p.speed / (2.0 * p.rho_ref)
        for j in [1, 7, 64, 128, 200, 255]:
            k = 4 * j
            left = np.roll(rho0, -k)   # profile moved by -k*h
            right = np.roll(rho0, k)
            np.testing.assert_allclose(rho[:, j], 0.5 * left + 0.5 * right,
                                       atol=1e-14)
            np.testing.assert_allclose(u[:, j], coef * (right - left),
                                       atol=1e-14)

    def test_energy_invariant(self):
        # rho^2 + (rho_ref/c)^2 u^2 sums to the initial pulse energy in
        # every column because the two movers are exact permutations
        p = WaveParams()
        snaps = wave_snapshots(p)
        rho = snaps.block("density")
        u = snaps.block("velocity")
        e = np.sum(rho**2, axis=0) + (p.rho_ref / p.speed) ** 2 * np.sum(u**2, axis=0)
        np.testing.assert_allclose(e, e[0], rtol=1e-12)

    def test_shift_table(self):
        p = WaveParams(m=32, n=6, t_final=0.3, speed=2.0)
        shifts = wave_shifts(p)
        t = 0.3 * np.arange(6) / 6
        assert shifts.d.shape == (2, 6)
        np.testing.assert_allclose(shifts.d[0], -2.0 * t)
        np.testing.assert_allclose(shifts.d[1], 2.0 * t)
        assert shifts.spec == ShiftSpec("periodic", 3)

    def test_pde_residual_refinement(self):
        # central difference residual of the linear acoustics system;
        # t_final chosen so c*dt is not a grid multiple, otherwise the
        # scheme is exact along characteristics and nothing converges
        def residual(m, n):
            p = WaveParams(m=m, n=n, t_final=0.3)
            snaps = wave_snapshots(p)
            rho = snaps.block("density")
            u = snaps.block("velocity")
            h = snaps.grid.h
            t = snaps.time.values
            dt = t[1] - t[0]

            def ddx(f):
                return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)

            dt_rho = (rho[:, 2:] - rho[:, :-2]) / (2 * dt)
            dt_u = (u[:, 2:] - u[:, :-2]) / (2 * dt)
            inner = slice(1, n - 1)
            r1 = dt_rho + p.rho_ref * ddx(u)[:, inner]
            r2 = dt_u + p.speed**2 / p.rho_ref * ddx(rho)[:, inner]
            scale = np.abs(dt_rho).max()
            return max(np.abs(r1).max(), np.abs(r2).max()) / scale

        levels = [residual(2048 * 2**k, 150 * 2**k) for k in range(3)]
        assert levels[-1] < 2.5e-3
        for coarse, fine in zip(levels, levels[1:]):
            assert 3.4 < coarse / fine < 4.6

    def test_param_validation(self):
        with pytest.raises(ValueError):
            WaveParams(m=1)
        with pytest.raises(ValueError):
            WaveParams(n=0)
        with pytest.raises(ValueError):
            WaveParams(width=0.0)
        with pytest.raises(ValueError):
            WaveParams(speed=-1.0)


class TestThreeSignal:
    def test_field_matches_definition(self):
        L = 2.0 * np.pi
        grid = Grid1D(32, L / 32, boundary="periodic")
        t = np.array([0.0, 0.4, 1.1])
        q1 = periodic_gaussian(2.0, 0.35, L)
        q2 = periodic_gaussian(4.0, 0.5, L)
        snaps = three_signal_snapshots(q1, q2, np.sin, grid, t)
        x = grid.coordinates()
        for j, tj in enumerate(t):
            expected = q1((x + tj) % L) + q2((x - tj) % L) + np.cos(tj) * np.sin(x)
            np.testing.assert_allclose(snaps.data[:, j], expected)

    def test_single_transport_recovered_in_one_mode(self):
        # only q1(x + t) present: a single frame shifted by +t_j holds
        # the whole field in one mode, while the opposite sign does not
        L = 2.0 * np.pi
        grid = Grid1D(128, L / 128, boundary="periodic")
        t = grid.h * np.arange(48)
        q1 = periodic_gaussian(2.0, 0.35, L)
        snaps = three_signal_snapshots(q1, _zero, _zero, grid, t)
        config = GreedyConfig(r0=[1], tol=1e-12, p_max=0)

        aligned = FrameShifts(np.vstack([t]), ShiftSpec("periodic", 3))
        _, report = spod_decompose(snaps, aligned, config)
        assert report.error_history[-1] < 1e-24

        flipped = FrameShifts(np.vstack([-t]), ShiftSpec("periodic", 3))
        _, report = spod_decompose(snaps, flipped, config)
        assert report.error_history[-1] > 0.1

    def test_standing_component_is_rank_one(self):
        grid = Grid1D(96, 2.0 * np.pi / 96, boundary="periodic")
        t = np.linspace(0.0, 2.0, 30)
        snaps = three_signal_snapshots(_zero, _zero, np.sin, grid, t)
        s = np.linalg.svd(snaps.data, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_requires_periodic_grid(self):
        grid = Grid1D(16, 1.0 / 15, boundary="non-periodic")
        with pytest.raises(ValueError, match="periodic"):
            three_signal_snapshots(_zero, _zero, _zero, grid, [0.0])

    def test_shift_table(self):
        t = np.array([0.0, 0.25, 0.5])
        shifts = three_signal_shifts(t)
        np.testing.assert_allclose(shifts.d, [[0.0, 0.25, 0.5],
                                              [0.0, -0.25, -0.5],
                                              [0.0, 0.0, 0.0]])
        assert shifts.spec.boundary == "periodic"

    def test_default_instance(self):
        snaps, shifts = three_signal_default(m=64, n=12)
        assert snaps.data.shape == (64, 12)
        assert snaps.grid.length == pytest.approx(2.0 * np.pi)
        np.testing.assert_allclose(snaps.time.values,
                                   snaps.grid.h * np.arange(12))
        assert shifts.d.shape == (3, 12)

    @pytest.mark.parametrize("m,n", [(0, 12), (1, 12), (64, 0)])
    def test_default_instance_sizes_validated(self, m, n):
        with pytest.raises(ValueError, match="need m >= 2 and n >= 1"):
            three_signal_default(m=m, n=n)


class TestCrossingFronts:
    def test_shapes_and_blocks(self):
        snaps, shifts = crossing_fronts()
        assert snaps.data.shape == (800, 120)
        assert snaps.block_names() == ["density", "species"]
        assert snaps.grid.boundary == "non-periodic"
        assert snaps.grid.length == pytest.approx(1.0)
        assert shifts.d.shape == (5, 120)
        assert shifts.spec == ShiftSpec("constant", 3)

    def test_shift_waypoints(self):
        p = CrossingFrontsParams()
        snaps, shifts = crossing_fronts(p)
        t = snaps.time.values
        d = shifts.d + 0.5 * snaps.grid.length  # back to positions
        assert d[0, 0] == pytest.approx(0.22)
        assert d[1, 0] == pytest.approx(0.28)
        # front and shock travel together after the merge
        merged = t > p.merge_time
        assert merged.any()
        np.testing.assert_allclose(d[0, merged], d[1, merged])
        # the reflected path turns around without touching the boundary
        assert 0.02 <= d[2].min() <= 0.03
        assert np.all(shifts.d[4] == 0.0)

    def test_deterministic(self):
        a, da = crossing_fronts()
        b, db = crossing_fronts()
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(da.d, db.d)

    def test_flat_configuration(self):
        # zeroing every moving and oscillating term leaves a constant
        # field, which must need one mode, or none after centering
        p = CrossingFrontsParams(front_amplitudes=(0.0, 0.0, 0.0, 0.0),
                                 species_amplitude=0.0,
                                 background_amplitude=0.0,
                                 oscillation_amplitude=0.0,
                                 base_level=1.0)
        snaps, _ = crossing_fronts(p)
        assert np.all(snaps.block("density") == 1.0)
        assert np.all(snaps.block("species") == 0.0)
        assert modes_for_tolerance(snaps.data, 1e-8) == 1
        centered, means = center_rows(snaps)
        assert modes_for_tolerance(centered.data, 1e-8) == 0

    def test_species_front_profile(self):
        snaps, _ = crossing_fronts()
        species = snaps.block("species")
        # sharp step: high on the left of the front, zero on the right
        assert species[0, :].min() > 0.999
        assert np.abs(species[-1, :]).max() < 1e-6
        assert species.min() >= 0.0 and species.max() <= 1.0 + 1e-12

    def test_constant_velocity_front_tracked_within_h(self):
        # ending before the merge leaves the primary front on a single
        # linear segment; the sharp species step locates it to half a cell
        p = CrossingFrontsParams(t_final=0.8, merge_time=0.85)
        snaps, shifts = crossing_fronts(p)
        t = snaps.time.values
        path = shifts.d[0] + 0.5 * snaps.grid.length
        np.testing.assert_allclose(path, 0.22 + 0.25 * t)
        pos = track_front(snaps.block("species"), snaps.grid,
                          statistic="gradient")
        d = center_shifts(pos, snaps.grid)
        assert np.abs(d - shifts.d[0]).max() <= snaps.grid.h

    def test_trajectory_leaving_domain_raises(self):
        with pytest.raises(ValueError, match="leaves the domain"):
            crossing_fronts(CrossingFrontsParams(t_final=2.0))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CrossingFrontsParams(m=1)
        with pytest.raises(ValueError):
            CrossingFrontsParams(n=1)
        with pytest.raises(ValueError):
            CrossingFrontsParams(front_amplitudes=(1.0, 2.0))
