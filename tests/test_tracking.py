"""Front tracking: window schedules, statistics, shift centering."""

import numpy as np
import pytest

from spod.snapshots import Grid1D
from spod.tracking import WindowSchedule, center_shifts, track_front


def step_front_matrix(m, n, start, cells_per_step, width=0.0):
    """Step dropping from 1 to 0 at a front moving right; width 0 is sharp."""
    grid = Grid1D(m, 1.0 / m, "non-periodic")
    x = np.arange(m)
    X = np.empty((m, n))
    for j in range(n):
        pos = start + cells_per_step * j
        if width == 0.0:
            X[:, j] = (x <= pos).astype(float)
        else:
            X[:, j] = 0.5 * (1.0 - np.tanh((x - pos) / width))
    return X, grid


class TestWindowSchedule:
    def test_lookup(self):
        ws = WindowSchedule([((0, 4), (0, 10)), ((4, 8), (10, 20))])
        assert ws.window_at(0) == (0, 10)
        assert ws.window_at(3) == (0, 10)
        assert ws.window_at(4) == (10, 20)
        with pytest.raises(ValueError):
            ws.window_at(8)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            WindowSchedule([((0, 4), (0, 10)), ((5, 8), (10, 20))])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            WindowSchedule([((0, 4), (0, 10)), ((3, 8), (10, 20))])

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            WindowSchedule([((0, 0), (0, 10))])
        with pytest.raises(ValueError):
            WindowSchedule([((0, 4), (10, 10))])

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            WindowSchedule([])


class TestDifferenceStatistic:
    def test_one_cell_per_step_recovered_within_h(self):
        X, grid = step_front_matrix(64, 20, start=10, cells_per_step=1)
        pos = track_front(X, grid, statistic="difference")
        true = grid.h * (10.0 + np.arange(20))
        assert pos.shape == (20,)
        # the last column is replicated: compare all but the final entry
        assert np.max(np.abs(pos[:-1] - true[:-1])) <= grid.h + 1e-12

    def test_stationary_field_gives_constant_index_zero(self):
        grid = Grid1D(16, 1.0 / 16, "non-periodic")
        X = np.ones((16, 6))
        pos = track_front(X, grid, statistic="difference")
        np.testing.assert_array_equal(pos, 0.0)

    def test_last_position_replicated(self):
        X, grid = step_front_matrix(32, 8, start=4, cells_per_step=2)
        pos = track_front(X, grid, statistic="difference")
        assert pos[-1] == pos[-2]


class TestPeakStatistic:
    def test_crest_recovered_exactly(self):
        m, n = 128, 12
        grid = Grid1D(m, 1.0 / m, "periodic")
        x = grid.coordinates()
        idx = 20 + 3 * np.arange(n)
        X = np.column_stack([np.exp(-((x - grid.h * i) / 0.03) ** 2)
                             for i in idx])
        pos = track_front(X, grid, statistic="peak")
        np.testing.assert_allclose(pos, grid.h * idx, atol=1e-14)


class TestGradientStatistic:
    def test_smooth_front_located(self):
        X, grid = step_front_matrix(128, 10, start=30, cells_per_step=2,
                                    width=3.0)
        pos = track_front(X, grid, statistic="gradient")
        true = grid.h * (30.0 + 2.0 * np.arange(10))
        assert np.max(np.abs(pos - true)) <= grid.h + 1e-12

    def test_periodic_wrap_differences(self):
        grid = Grid1D(32, 1.0 / 32, "periodic")
        x = grid.coordinates()
        X = np.column_stack([np.sin(2 * np.pi * x), np.sin(2 * np.pi * x)])
        pos = track_front(X, grid, statistic="gradient")
        assert pos.shape == (2,)


class TestWindows:
    def test_window_isolates_secondary_structure(self):
        # two crests; restrict to the right half to follow the weaker one
        m, n = 64, 6
        grid = Grid1D(m, 1.0 / m, "periodic")
        x = grid.coordinates()
        strong = np.exp(-((x - 0.25) / 0.05) ** 2)
        X = np.empty((m, n))
        idx = 40 + 2 * np.arange(n)
        for j in range(n):
            X[:, j] = strong + 0.5 * np.exp(-((x - grid.h * idx[j]) / 0.04) ** 2)
        ws = WindowSchedule([((0, n), (32, 64))])
        pos = track_front(X, grid, windows=ws, statistic="peak")
        np.testing.assert_allclose(pos, grid.h * idx, atol=1e-14)

    def test_uncovered_snapshot_rejected(self):
        X, grid = step_front_matrix(32, 8, 4, 1)
        ws = WindowSchedule([((0, 4), (0, 32))])
        with pytest.raises(ValueError):
            track_front(X, grid, windows=ws, statistic="peak")

    def test_schedule_beyond_data_rejected(self):
        X, grid = step_front_matrix(32, 8, 4, 1)
        ws = WindowSchedule([((0, 4), (0, 32)), ((4, 9), (0, 32))])
        with pytest.raises(ValueError, match="runs past the 8 snapshots"):
            track_front(X, grid, windows=ws, statistic="peak")
        ws = WindowSchedule([((0, 4), (0, 32)), ((4, 8), (0, 32))])
        assert track_front(X, grid, windows=ws, statistic="peak").shape == (8,)

    def test_window_outside_grid_rejected(self):
        X, grid = step_front_matrix(32, 4, 4, 1)
        ws = WindowSchedule([((0, 4), (8, 64))])
        with pytest.raises(ValueError):
            track_front(X, grid, windows=ws, statistic="peak")

    @pytest.mark.parametrize("boundary", ["periodic", "non-periodic"])
    @pytest.mark.parametrize("statistic", ["difference", "gradient", "peak"])
    def test_zero_window_has_no_front(self, statistic, boundary):
        # signal only in rows 0-7: the window [16, 32) holds no front
        grid = Grid1D(32, 1.0 / 32, boundary)
        X = np.zeros((32, 6))
        X[:8] = np.arange(1.0, 49.0).reshape(8, 6)
        ws = WindowSchedule([((0, 3), (0, 32)), ((3, 6), (16, 32))])
        with pytest.raises(ValueError, match=r"window \[16, 32\) is identically"
                           r" zero for snapshots \[3, 6\)"):
            track_front(X, grid, windows=ws, statistic=statistic)

    @pytest.mark.parametrize("statistic", ["difference", "gradient", "peak"])
    def test_schedule_errors_come_before_zero_windows(self, statistic):
        # the difference statistic has no column for the last snapshot,
        # whose window is checked all the same
        grid = Grid1D(32, 1.0 / 32, "periodic")
        X = np.zeros((32, 6))
        X[:8] = 1.0
        for entries, message in [
                ([((0, 6), (16, 64))], "outside grid"),
                ([((0, 7), (16, 32))], "runs past the 6"),
                ([((1, 6), (16, 32))], "no window covers snapshot 0"),
                ([((0, 5), (0, 32))], "no window covers snapshot 5"),
                ([((0, 5), (0, 32)), ((5, 6), (0, 99))],
                 r"window \[0, 99\) outside grid")]:
            with pytest.raises(ValueError, match=message):
                track_front(X, grid, windows=WindowSchedule(entries),
                            statistic=statistic)


class TestSmoothing:
    def test_moving_average_damps_jitter(self):
        m, n = 64, 30
        grid = Grid1D(m, 1.0 / m, "non-periodic")
        rng = np.random.default_rng(0)
        idx = 20 + np.arange(n) + rng.integers(-1, 2, size=n)
        x = np.arange(m)
        X = np.column_stack([(x <= i).astype(float) for i in idx])
        raw = track_front(X, grid, statistic="peak")
        smooth = track_front(X, grid, statistic="peak", smooth=5)
        true = grid.h * (20.0 + np.arange(n))
        assert (np.abs(smooth[3:-3] - true[3:-3]).mean()
                <= np.abs(raw[3:-3] - true[3:-3]).mean() + 1e-12)


class TestCenterShifts:
    def test_subtracts_half_domain(self):
        grid = Grid1D(10, 0.1, "periodic")
        pos = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(center_shifts(pos, grid),
                                   [-0.5, 0.0, 0.5])

    def test_positions_outside_domain_rejected(self):
        grid = Grid1D(10, 0.1, "periodic")
        with pytest.raises(ValueError):
            center_shifts(np.array([-0.1]), grid)
        with pytest.raises(ValueError):
            center_shifts(np.array([1.2]), grid)


class TestInputValidation:
    @pytest.mark.parametrize("statistic", ["difference", "gradient", "peak"])
    def test_zero_block_has_no_front(self, statistic):
        grid = Grid1D(32, 1.0 / 32, "non-periodic")
        with pytest.raises(ValueError, match="identically zero"):
            track_front(np.zeros((32, 6)), grid, statistic=statistic)

    def test_block_width_must_match_grid(self):
        grid = Grid1D(16, 1.0 / 16, "periodic")
        with pytest.raises(ValueError):
            track_front(np.ones((8, 4)), grid)

    def test_single_snapshot_rejected(self):
        grid = Grid1D(8, 1.0 / 8, "periodic")
        with pytest.raises(ValueError):
            track_front(np.ones((8, 1)), grid)

    def test_unknown_statistic_rejected(self):
        X, grid = step_front_matrix(16, 4, 2, 1)
        with pytest.raises(ValueError):
            track_front(X, grid, statistic="curvature")
