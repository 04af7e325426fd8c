"""POD baseline: truncation, decay curves, mode counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spod.pod import modes_for_tolerance, truncation_curve


def random_matrix(m=12, n=8, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n))


def truncate(X, r):
    """Best rank-r approximation of X by a truncated SVD."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return U[:, :r] @ (s[:r, None] * Vt[:r])


class TestCurve:
    def test_shapes_and_endpoints(self):
        X = random_matrix(10, 6)
        sv, squared, root = truncation_curve(X)
        assert sv.shape == (6,)
        assert squared.shape == root.shape == (7,)
        assert squared[0] == pytest.approx(1.0)
        assert squared[-1] == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(root, np.sqrt(squared))

    def test_monotone_decreasing(self):
        _, squared, root = truncation_curve(random_matrix(seed=5))
        assert np.all(np.diff(squared) <= 1e-15)
        assert np.all(np.diff(root) <= 1e-12)

    def test_matches_truncation_errors(self):
        X = random_matrix(9, 7, seed=6)
        _, squared, _ = truncation_curve(X)
        total = np.linalg.norm(X, "fro") ** 2
        for r in range(8):
            err = np.linalg.norm(X - truncate(X, r), "fro") ** 2
            assert squared[r] == pytest.approx(err / total, abs=1e-12)


    def test_singular_values_match_direct_svd(self):
        X = random_matrix(seed=3)
        sv, _, _ = truncation_curve(X)
        np.testing.assert_allclose(sv, np.linalg.svd(X, compute_uv=False),
                                   rtol=1e-13)

    def test_wide_matrix_has_one_entry_per_rank(self):
        X = random_matrix(4, 9, seed=2)
        sv, squared, root = truncation_curve(X)
        assert sv.shape == (4,)
        assert squared.shape == root.shape == (5,)
        assert squared[-1] == pytest.approx(0.0, abs=1e-14)

    def test_zero_matrix_has_zero_error_at_every_rank(self):
        sv, squared, root = truncation_curve(np.zeros((5, 3)))
        np.testing.assert_array_equal(sv, 0.0)
        np.testing.assert_array_equal(squared, np.zeros(4))
        np.testing.assert_array_equal(root, np.zeros(4))

class TestModeCount:
    def test_counts_on_the_root_scale(self):
        # singular values 2, 1: keeping one mode leaves norm fraction
        # sqrt(1/5) ~ 0.447, so tol 0.5 needs 1 mode and tol 0.4 needs 2
        X = np.diag([2.0, 1.0])
        assert modes_for_tolerance(X, 0.5) == 1
        assert modes_for_tolerance(X, 0.4) == 2

    def test_rank_one_matrix(self):
        X = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        assert modes_for_tolerance(X, 1e-6) == 1

    def test_nonzero_matrix_needs_at_least_one_mode(self):
        assert modes_for_tolerance(random_matrix(), 1.0) == 1

    def test_zero_matrix_needs_none(self):
        assert modes_for_tolerance(np.zeros((4, 4)), 0.5) == 0

    def test_invalid_tolerance(self):
        for tol in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                modes_for_tolerance(random_matrix(), tol)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_monotone_in_tolerance(self, a, b):
        X = random_matrix(8, 8, seed=9)
        lo, hi = sorted((a, b))
        assert modes_for_tolerance(X, hi) <= modes_for_tolerance(X, lo)

    def test_count_achieves_the_tolerance(self):
        X = random_matrix(15, 10, seed=11)
        tol = 0.3
        k = modes_for_tolerance(X, tol)
        frac = (np.linalg.norm(X - truncate(X, k), "fro")
                / np.linalg.norm(X, "fro"))
        assert frac < tol
        if k > 0:
            frac1 = (np.linalg.norm(X - truncate(X, k - 1), "fro")
                     / np.linalg.norm(X, "fro"))
            assert frac1 >= tol
