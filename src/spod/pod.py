"""Classical POD baseline via truncated SVD."""
from __future__ import annotations

import numpy as np

from .snapshots import _as_matrix


def truncation_curve(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values plus the truncation error for every rank.

    Returns (singular_values, squared_ratio, root_ratio) where entry r of
    the ratio arrays (length min(m,n)+1) is the relative error of the
    rank-r truncation: squared_ratio[r] = sum_{k>r} s_k^2 / sum_k s_k^2
    and root_ratio = sqrt(squared_ratio).
    """
    X = _as_matrix(X)
    s = np.linalg.svd(X, compute_uv=False)
    energy = s * s
    total = float(energy.sum())
    tail = np.concatenate([np.cumsum(energy[::-1])[::-1], [0.0]])
    if total == 0.0:
        squared = np.zeros(s.size + 1)
    else:
        squared = np.maximum(tail / total, 0.0)
    return s, squared, np.sqrt(squared)


def modes_for_tolerance(X, tol: float) -> int:
    """Smallest rank whose truncation error stays below tol.

    The tolerance is read on the root scale: rank r is accepted once
    sqrt(sum_{k>r} s_k^2 / sum_k s_k^2) < tol, i.e. tol bounds the
    relative Frobenius-norm error of the truncation.  (relative_error
    reports the squared ratio; mode counts quoted for "1% accuracy" are
    root-scale.)  The inequality is strict, so tol = 1 returns 1 for any
    nonzero X, and only the identically zero matrix yields 0.
    """
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"tolerance must lie in (0, 1], got {tol}")
    _, _, root = truncation_curve(X)
    if root[0] == 0.0:  # zero matrix: rank 0 already exact
        return 0
    # root[0] is exactly 1 for nonzero X and root[-1] is 0, so the strict
    # comparison always has a first hit at some rank >= 1
    return int(np.nonzero(root < tol)[0][0])
