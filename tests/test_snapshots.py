"""Snapshot containers, block bookkeeping, scaling, centering, errors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spod.snapshots import (Grid1D, SnapshotSet, TimeAxis, VariableBlock,
                            center_rows, relative_error, scale_variables)


def make_set(data, blocks=(), boundary="periodic", h=0.1):
    data = np.asarray(data, dtype=float)
    m = data.shape[0] // max(1, len(blocks)) if blocks else data.shape[0]
    grid = Grid1D(m, h, boundary)
    return SnapshotSet(data, grid, np.arange(data.shape[1], dtype=float), blocks)


class TestGrid:
    def test_periodic_length_counts_the_wrap_cell(self):
        assert Grid1D(4, 0.25, "periodic").length == 1.0

    def test_bounded_length(self):
        assert Grid1D(5, 0.25, "non-periodic").length == 1.0

    def test_coordinates(self):
        np.testing.assert_allclose(Grid1D(4, 0.5, "periodic").coordinates(),
                                   [0.0, 0.5, 1.0, 1.5])

    @pytest.mark.parametrize("m,h,b", [(1, 0.1, "periodic"),
                                       (8, 0.0, "periodic"),
                                       (8, -1.0, "periodic"),
                                       (8, 0.1, "dirichlet")])
    def test_invalid_grid(self, m, h, b):
        with pytest.raises(ValueError):
            Grid1D(m, h, b)


class TestTimeAxis:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            TimeAxis(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            TimeAxis(np.array([1.0, 0.5]))

    @pytest.mark.parametrize("values", [
        [0.0, np.inf], [-np.inf, 0.0], [np.inf], [0.0, np.nan]])
    def test_finite_required(self, values):
        with pytest.raises(ValueError, match="finite"):
            TimeAxis(np.array(values))

    def test_n(self):
        assert TimeAxis(np.array([0.0, 0.5, 2.0])).n == 3


class TestBlocks:
    def test_default_block_spans_everything(self):
        s = make_set(np.zeros((6, 3)))
        assert [b.name for b in s.blocks] == ["var0"]
        assert s.blocks[0].rows == slice(0, 6)

    def test_partition_must_be_contiguous(self):
        blocks = (VariableBlock("a", 0, 4), VariableBlock("b", 5, 8))
        grid = Grid1D(4, 0.1, "periodic")
        with pytest.raises(ValueError):
            SnapshotSet(np.zeros((8, 2)), grid, np.arange(2.0), blocks)

    def test_blocks_must_share_the_grid_height(self):
        blocks = (VariableBlock("a", 0, 3), VariableBlock("b", 3, 8))
        grid = Grid1D(4, 0.1, "periodic")
        with pytest.raises(ValueError):
            SnapshotSet(np.zeros((8, 2)), grid, np.arange(2.0), blocks)

    def test_block_names_must_differ(self):
        blocks = (VariableBlock("a", 0, 4), VariableBlock("a", 4, 8))
        grid = Grid1D(4, 0.1, "periodic")
        with pytest.raises(ValueError, match="duplicate variable block names"):
            SnapshotSet(np.zeros((8, 2)), grid, np.arange(2.0), blocks)

    def test_block_lookup(self):
        blocks = (VariableBlock("rho", 0, 4), VariableBlock("u", 4, 8))
        s = make_set(np.arange(16.0).reshape(8, 2), blocks)
        np.testing.assert_array_equal(s.block("u"),
                                      np.arange(16.0).reshape(8, 2)[4:])
        assert s.block_names() == ["rho", "u"]
        with pytest.raises(ValueError):
            s.block("nope")


class TestRelativeError:
    def test_zero_for_identical(self):
        X = np.random.default_rng(0).standard_normal((5, 4))
        assert relative_error(X, X) == 0.0

    def test_squared_scale(self):
        X = np.eye(3)
        assert relative_error(X, 0.5 * X) == pytest.approx(0.25)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.ones((2, 3)))

    def test_accepts_snapshot_sets(self):
        s = make_set(np.ones((4, 2)))
        assert relative_error(s, s) == 0.0


class TestScaling:
    def two_block_set(self, norm_b=2.0):
        blocks = (VariableBlock("a", 0, 2), VariableBlock("b", 2, 4))
        data = np.zeros((4, 2))
        data[0, 0] = 1.0        # block a: norm 1
        data[2, 0] = norm_b     # block b: norm norm_b
        return make_set(data, blocks)

    def test_second_block_rescaled_to_first(self):
        scaled, factors = scale_variables(self.two_block_set(2.0))
        assert factors[0] == 1.0
        assert factors[1] == pytest.approx(0.5)
        a = np.linalg.norm(scaled.block("a"))
        b = np.linalg.norm(scaled.block("b"))
        assert a == pytest.approx(b)

    def test_dividing_by_the_factors_restores_the_data(self):
        s = self.two_block_set(3.7)
        scaled, factors = scale_variables(s)
        back = scaled.data.copy()
        for blk, f in zip(scaled.blocks, factors):
            back[blk.rows] /= f
        np.testing.assert_allclose(back, s.data, atol=1e-15)

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            scale_variables(self.two_block_set(0.0))

    @given(st.integers(2, 5), st.integers(1, 4),
           st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    def test_norms_equalized(self, m, n, s1, s2):
        blocks = (VariableBlock("a", 0, m), VariableBlock("b", m, 2 * m))
        rng = np.random.default_rng(42)
        data = np.vstack([s1 * rng.standard_normal((m, n)),
                          s2 * rng.standard_normal((m, n))])
        snaps = make_set(data, blocks)
        scaled, _ = scale_variables(snaps)
        assert np.linalg.norm(scaled.block("a")) == pytest.approx(
            np.linalg.norm(scaled.block("b")))


class TestCentering:
    def test_means_removed(self):
        s = make_set(np.random.default_rng(1).standard_normal((6, 5)) + 3.0)
        centered, means = center_rows(s)
        np.testing.assert_allclose(centered.data.mean(axis=1), 0.0, atol=1e-14)
        np.testing.assert_allclose(centered.data + means[:, None], s.data)

    def test_idempotent(self):
        s = make_set(np.random.default_rng(2).standard_normal((4, 3)))
        once, _ = center_rows(s)
        twice, extra = center_rows(once)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-15)
        np.testing.assert_allclose(extra, 0.0, atol=1e-15)


class TestValidation:
    def test_data_must_be_2d(self):
        grid = Grid1D(4, 0.1, "periodic")
        with pytest.raises(ValueError):
            SnapshotSet(np.zeros(4), grid, np.arange(1.0))

    def test_time_length_must_match(self):
        grid = Grid1D(4, 0.1, "periodic")
        with pytest.raises(ValueError):
            SnapshotSet(np.zeros((4, 3)), grid, np.arange(2.0))
