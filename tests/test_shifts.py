"""Shift operators: stencils, worked examples, adjoints, exactness."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spod.shifts import (ShiftSpec, apply_shift, apply_shift_transpose,
                         dense_shift_matrix, shift_operator)
from spod.snapshots import Grid1D


def grid(m=8, h=0.25, boundary="periodic"):
    return Grid1D(m, h, boundary)


PER1 = ShiftSpec("periodic", 1)
PER3 = ShiftSpec("periodic", 3)
CON1 = ShiftSpec("constant", 1)
CON3 = ShiftSpec("constant", 3)

SPECS = pytest.mark.parametrize("boundary,spec", [
    ("periodic", PER1), ("periodic", PER3),
    ("non-periodic", CON1), ("non-periodic", CON3),
])

# shifts in mesh units: grid multiples mixed with fractional shifts, and
# a row of grid multiples only
MIXED_CELLS = np.array([0.0, 2.0, -0.4, 3.0, 1.75, -5.0, -2.3, 0.5])
EXACT_CELLS = np.array([0.0, 2.0, -3.0, 7.0, -1.0])


class TestWorkedExamples:
    """Hand-computed 4-point fixtures pinning the sampling conventions."""

    v = np.array([1.0, 2.0, 3.0, 4.0])
    g4p = Grid1D(4, 0.25, "periodic")
    g4c = Grid1D(4, 1.0 / 3.0, "non-periodic")

    def test_periodic_plus_h_samples_ahead(self):
        out = apply_shift(self.v, self.g4p.h, self.g4p, PER1)
        assert np.array_equal(out, [2.0, 3.0, 4.0, 1.0])

    def test_periodic_minus_h(self):
        out = apply_shift(self.v, -self.g4p.h, self.g4p, PER1)
        assert np.array_equal(out, [4.0, 1.0, 2.0, 3.0])

    def test_constant_plus_h_drags_left_value(self):
        out = apply_shift(self.v, self.g4c.h, self.g4c, CON1)
        assert np.array_equal(out, [1.0, 1.0, 2.0, 3.0])

    def test_constant_minus_h(self):
        out = apply_shift(self.v, -self.g4c.h, self.g4c, CON1)
        assert np.array_equal(out, [2.0, 3.0, 4.0, 4.0])

    def test_constant_matrices_match_reference_bit_for_bit(self):
        # one-cell shifts: first/last row duplicated, identity shifted
        h = self.g4c.h
        T_plus = np.array([
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ], dtype=float)
        T_minus = np.array([
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ], dtype=float)
        assert np.array_equal(dense_shift_matrix(h, self.g4c, CON1), T_plus)
        assert np.array_equal(dense_shift_matrix(-h, self.g4c, CON1), T_minus)
        # integer powers: T(kh) = T(h)^k
        assert np.array_equal(dense_shift_matrix(2 * h, self.g4c, CON1),
                              T_plus @ T_plus)
        assert np.array_equal(dense_shift_matrix(-2 * h, self.g4c, CON1),
                              T_minus @ T_minus)

    def test_constant_half_cell_averages_neighbours(self):
        # linear interpolation: T(h/2) = (T(0) + T(h)) / 2
        h = self.g4c.h
        expected = 0.5 * (np.eye(4) + dense_shift_matrix(h, self.g4c, CON1))
        assert np.array_equal(dense_shift_matrix(0.5 * h, self.g4c, CON1),
                              expected)

    def test_periodic_matrix_is_permutation_for_grid_multiples(self):
        T = dense_shift_matrix(2 * self.g4p.h, self.g4p, PER3)
        assert np.array_equal(T, np.roll(np.eye(4), -2, axis=0))


class TestStencils:
    # on a periodic grid of 8 nodes no two legs of one row meet, so each
    # row of the dense matrix holds the stencil weights of that shift
    def test_zero_shift_is_identity(self):
        v = np.arange(8.0)
        assert np.array_equal(apply_shift(v, 0.0, grid(), PER3), v)
        assert np.array_equal(dense_shift_matrix(0.0, grid(), PER3), np.eye(8))

    def test_degree1_weights(self):
        g = grid()
        for row in dense_shift_matrix(0.3 * g.h, g, PER1):
            np.testing.assert_allclose(sorted(row[row != 0.0]), [0.3, 0.7])

    def test_degree3_has_four_points(self):
        T = dense_shift_matrix(0.37 * grid().h, grid(), PER3)
        assert np.all(np.count_nonzero(T, axis=1) == 4)

    @given(st.floats(-10.0, 10.0), st.sampled_from((1, 3)))
    def test_weights_sum_to_one(self, d, degree):
        spec = ShiftSpec("periodic", degree)
        T = dense_shift_matrix(d, grid(), spec)
        np.testing.assert_allclose(T.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @given(st.floats(-3.0, 3.0))
    def test_constant_vector_is_invariant(self, d):
        for g, spec in [(grid(), PER3), (grid(boundary="non-periodic"), CON3),
                        (grid(), PER1), (grid(boundary="non-periodic"), CON1)]:
            out = apply_shift(np.ones(g.m), d, g, spec)
            np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_cubic_exactness_in_the_interior(self):
        # degree-3 interpolation reproduces cubics away from the boundary
        m, h = 40, 0.1
        g = Grid1D(m, h, "non-periodic")
        x = g.coordinates()

        def p(z):
            return 1.0 - 2.0 * z + 0.7 * z ** 2 + 0.3 * z ** 3

        # the bounded-domain convention samples at x - d
        for d in (0.3 * h, -1.7 * h, 2.45 * h):
            out = apply_shift(p(x), d, g, CON3)
            inner = slice(5, m - 5)
            np.testing.assert_allclose(out[inner], p(x - d)[inner],
                                       rtol=0, atol=1e-12)

    def test_linear_exactness_degree1(self):
        g = grid(16, 0.5, "non-periodic")
        x = g.coordinates()
        v = 2.0 * x + 1.0
        out = apply_shift(v, 0.77 * g.h, g, CON1)
        np.testing.assert_allclose(out[2:-2], (2.0 * (x - 0.77 * g.h) + 1.0)[2:-2],
                                   atol=1e-12)


class TestOperators:
    @SPECS
    def test_matrix_matches_apply(self, boundary, spec):
        rng = np.random.default_rng(3)
        g = grid(m=17, boundary=boundary)
        for d in rng.uniform(-5 * g.h, 5 * g.h, size=6):
            T = dense_shift_matrix(d, g, spec)
            v = rng.standard_normal(g.m)
            np.testing.assert_allclose(T @ v, apply_shift(v, d, g, spec),
                                       atol=1e-14)

    @SPECS
    def test_sparse_matches_dense(self, boundary, spec):
        g = grid(m=13, boundary=boundary)
        for d in np.linspace(-3.3 * g.h, 3.3 * g.h, 7):
            A = shift_operator(d, g, spec).toarray()
            np.testing.assert_allclose(A, dense_shift_matrix(d, g, spec),
                                       atol=1e-15)

    @SPECS
    def test_adjoint_identity(self, boundary, spec):
        rng = np.random.default_rng(11)
        g = grid(m=50, boundary=boundary)
        for _ in range(25):
            d = rng.uniform(-8 * g.h, 8 * g.h)
            v = rng.standard_normal(g.m)
            w = rng.standard_normal(g.m)
            lhs = apply_shift(v, d, g, spec) @ w
            rhs = v @ apply_shift_transpose(w, d, g, spec)
            assert abs(lhs - rhs) < 1e-12

    def test_transpose_matches_dense_transpose(self):
        rng = np.random.default_rng(5)
        for boundary, spec in [("periodic", PER3), ("non-periodic", CON3)]:
            g = grid(m=12, boundary=boundary)
            d = 1.4 * g.h
            T = dense_shift_matrix(d, g, spec)
            w = rng.standard_normal(g.m)
            np.testing.assert_allclose(apply_shift_transpose(w, d, g, spec),
                                       T.T @ w, atol=1e-14)

    def test_constant_transpose_is_not_reverse_shift(self):
        # the clamped operator is not orthogonal: T(d)^T != T(-d)
        g = grid(m=6, boundary="non-periodic")
        T = dense_shift_matrix(g.h, g, CON1)
        R = dense_shift_matrix(-g.h, g, CON1)
        assert not np.array_equal(T.T, R)

    def test_periodic_grid_multiple_preserves_inner_products(self):
        g = grid(m=32)
        rng = np.random.default_rng(7)
        # integer-valued vectors make the permuted sums exact
        v = rng.integers(-50, 50, size=g.m).astype(float)
        w = rng.integers(-50, 50, size=g.m).astype(float)
        for k in (1, 5, -9, 16):
            d = k * g.h
            Tv = apply_shift(v, d, g, PER3)
            Tw = apply_shift(w, d, g, PER3)
            assert Tv @ Tw == v @ w
            assert np.array_equal(np.sort(Tv), np.sort(v))

    def test_periodic_transpose_is_inverse_for_grid_multiples(self):
        g = grid(m=16)
        v = np.random.default_rng(0).standard_normal(g.m)
        out = apply_shift_transpose(apply_shift(v, 3 * g.h, g, PER3),
                                    3 * g.h, g, PER3)
        np.testing.assert_allclose(out, v, atol=1e-15)

    @SPECS
    @pytest.mark.parametrize("cells", [MIXED_CELLS, EXACT_CELLS])
    def test_per_column_shifts_match_scalar_calls(self, boundary, spec, cells):
        g = grid(m=17, boundary=boundary)
        d_row = cells * g.h
        V = np.random.default_rng(4).standard_normal((g.m, d_row.size))
        out = apply_shift(V, d_row, g, spec)
        for c, d in enumerate(d_row):
            assert np.array_equal(out[:, c], apply_shift(V[:, c], d, g, spec))

    @SPECS
    def test_stacked_blocks_match_per_block_calls(self, boundary, spec):
        g = grid(m=11, boundary=boundary)
        d_row = MIXED_CELLS * g.h
        V = np.random.default_rng(6).standard_normal((2 * g.m, d_row.size))
        for d in (d_row[4], d_row):
            out = apply_shift(V, d, g, spec)
            for b in range(2):
                rows = slice(b * g.m, (b + 1) * g.m)
                assert np.array_equal(out[rows], apply_shift(V[rows], d, g, spec))

    @SPECS
    @pytest.mark.parametrize("cells", [MIXED_CELLS, EXACT_CELLS])
    def test_sequence_operator_is_stack_of_scalar_operators(self, boundary,
                                                             spec, cells):
        from scipy import sparse

        g = grid(m=13, boundary=boundary)
        d_row = cells * g.h
        op = shift_operator(d_row, g, spec)
        ref = sparse.vstack([shift_operator(d, g, spec) for d in d_row],
                            format="csr")
        assert op.shape == (d_row.size * g.m, g.m)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, part), getattr(ref, part))
        assert np.all(op.data != 0.0)
        if cells is EXACT_CELLS:
            assert op.nnz == d_row.size * g.m

    def test_wrong_shift_count_rejected(self):
        g = grid(m=9)
        V = np.ones((g.m, 3))
        for d in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                apply_shift(V, d, g, PER3)
        with pytest.raises(ValueError):
            apply_shift(np.ones(g.m), np.zeros(g.m), g, PER3)
        with pytest.raises(ValueError):
            apply_shift(np.ones((g.m + 1, 3)), 0.0, g, PER3)
        # the transpose takes a vector or the columns of an (m, k) array
        for v, d in [(np.ones((g.m, 2, 2)), 0.0), (np.ones(g.m + 1), 0.5 * g.h)]:
            with pytest.raises(ValueError, match="is not a vector or a 2-d"):
                apply_shift_transpose(v, d, g, PER3)
        with pytest.raises(ValueError):
            shift_operator(np.zeros((2, 3)), g, PER3)
        # the (m, m) helpers take one shift, not T of the first of several
        for d in ([0.1, 0.3], np.zeros(0)):
            match = re.escape(f"shifts of shape {np.shape(d)}: need one shift")
            with pytest.raises(ValueError, match=match):
                dense_shift_matrix(d, g, PER3)
            with pytest.raises(ValueError, match=match):
                apply_shift_transpose(np.ones(g.m), d, g, PER3)

    def test_zero_columns_keep_their_shape(self):
        g = grid(m=9)
        assert apply_shift(np.ones((2 * g.m, 0)), 0.3, g, PER3).shape == (2 * g.m, 0)
        assert apply_shift(np.ones((g.m, 0)), np.zeros(0), g, PER3).shape == (g.m, 0)

    def test_matrix_columns_accepted(self):
        g = grid(m=9)
        rng = np.random.default_rng(2)
        V = rng.standard_normal((g.m, 4))
        out = apply_shift(V, 1.3 * g.h, g, PER3)
        for c in range(4):
            np.testing.assert_allclose(out[:, c],
                                       apply_shift(V[:, c], 1.3 * g.h, g, PER3))


# on a periodic grid of M16 = 16 nodes: fractional shifts (in mesh units)
# whose cubic stencils start 15 or 14 nodes ahead mod 16, so that their
# legs pass 16 twice; grid multiples with those offsets; and shifts by
# 2**40 cells, a multiple of 16
M16 = 16
WRAP_CELLS = np.array([0.25, 0.5 - M16, 3 * M16 + 0.75, M16 - 0.5,
                       2 * M16 - 0.75, -0.5])
EXACT_WRAP_CELLS = np.array([M16 - 1.0, M16 - 2.0, -1.0, -2.0, 5 * M16 - 1.0])
HUGE_CELLS = np.array([2.0 ** 40, -2.0 ** 40, 2.0 ** 40 + 0.5, -2.0 ** 40 - 0.25])
INDEX_CASES = pytest.mark.parametrize("spec,cells", [
    pytest.param(PER3, WRAP_CELLS, id="wrap"),
    pytest.param(PER3, EXACT_WRAP_CELLS, id="exact-wrap"),
    pytest.param(PER3, np.r_[WRAP_CELLS, EXACT_WRAP_CELLS], id="mixed-wrap"),
    *[pytest.param(spec, cells, id=f"{spec.boundary}{spec.interp_degree}-{name}")
      for spec in (PER1, PER3, CON1, CON3)
      for name, cells in [("huge", HUGE_CELLS), ("huge-exact", HUGE_CELLS[:2]),
                          ("mixed-huge", np.r_[MIXED_CELLS, HUGE_CELLS])]],
])


class TestIndexArithmetic:
    """Offsets are reduced mod m or clamped before the int32 node sums."""

    def grid_for(self, spec):
        return grid(m=M16, boundary="periodic" if spec.boundary == "periodic"
                    else "non-periodic")

    @INDEX_CASES
    def test_operator_is_canonical_int32(self, spec, cells):
        from scipy import sparse

        g = self.grid_for(spec)
        op = shift_operator(cells * g.h, g, spec)
        assert op.indices.dtype == op.indptr.dtype == np.int32
        # a fresh matrix checks its format instead of trusting a flag
        fresh = sparse.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)
        fresh.check_format(full_check=True)
        assert fresh.has_canonical_format

    @INDEX_CASES
    def test_rows_and_applications_match_the_dense_matrices(self, spec, cells):
        g = self.grid_for(spec)
        d_row = cells * g.h
        A = shift_operator(d_row, g, spec).toarray()
        V = np.random.default_rng(8).standard_normal((g.m, d_row.size))
        out = apply_shift(V, d_row, g, spec)
        for j, d in enumerate(d_row):
            T = dense_shift_matrix(d, g, spec)
            np.testing.assert_allclose(A[j * g.m:(j + 1) * g.m], T, rtol=0,
                                       atol=1e-15)
            np.testing.assert_allclose(out[:, j], T @ V[:, j], rtol=0, atol=1e-13)
            np.testing.assert_allclose(apply_shift(V[:, j], d, g, spec),
                                       T @ V[:, j], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("spec", [PER1, PER3])
    def test_periodic_shift_is_a_roll_then_a_sub_cell_shift(self, spec):
        # an oracle without the operators' index arithmetic: dyadic shifts
        # on h = 1/4 make every split into k + rho exact
        g = self.grid_for(spec)
        v = np.random.default_rng(9).standard_normal(g.m)
        for cells in np.r_[WRAP_CELLS, EXACT_WRAP_CELLS, HUGE_CELLS]:
            k = int(np.floor(cells))
            expected = apply_shift(np.roll(v, -k), (cells - k) * g.h, g, spec)
            assert np.array_equal(apply_shift(v, cells * g.h, g, spec), expected)
            op = shift_operator(cells * g.h, g, spec)
            np.testing.assert_allclose(op @ v, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("spec", [CON1, CON3])
    def test_constant_shift_beyond_the_domain_reads_one_edge(self, spec):
        g = self.grid_for(spec)
        v = np.random.default_rng(10).standard_normal(g.m)
        # +d reads to the left, so every leg parks on node 0; -d on node m-1
        for cells, edge in zip(HUGE_CELLS, [0, -1, 0, -1]):
            out = apply_shift(v, cells * g.h, g, spec)
            np.testing.assert_allclose(out, v[edge], rtol=1e-15, atol=0)
            if cells == int(cells):
                assert np.all(out == v[edge])


class TestValidation:
    def test_bad_boundary_rejected(self):
        with pytest.raises(ValueError):
            ShiftSpec("reflecting", 3)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            ShiftSpec("periodic", 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.parametrize("spec", [PER3, CON1])
    def test_non_finite_and_huge_shifts_rejected(self, bad, spec):
        g = grid(m=8)
        with pytest.raises(ValueError, match="not finite or exceeds"):
            dense_shift_matrix(bad, g, spec)
        with pytest.raises(ValueError, match="not finite or exceeds"):
            apply_shift(np.ones(g.m), bad, g, spec)
        with pytest.raises(ValueError, match="not finite or exceeds"):
            shift_operator(bad, g, spec)
        row = np.array([0.1, bad, 0.0])
        with pytest.raises(ValueError, match="not finite or exceeds"):
            apply_shift(np.ones((g.m, 3)), row, g, spec)
        with pytest.raises(ValueError, match="not finite or exceeds"):
            shift_operator(row, g, spec)

    def test_large_finite_shift_accepted(self):
        # 1e18 cells is inside the int64 index range and a multiple of m
        g = grid(m=8)
        v = np.arange(8.0)
        assert np.array_equal(apply_shift(v, 1e18 * g.h, g, PER3), v)

    def test_boundary_mismatch_tolerated_by_grid(self):
        # the operator boundary is a property of the shift spec, not the grid
        g = grid(boundary="non-periodic")
        out = apply_shift(np.ones(g.m), 0.5 * g.h, g, CON1)
        assert out.shape == (g.m,)
