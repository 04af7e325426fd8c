"""Smoke test of scripts/shift_fingerprint.py, the bit-identity oracle.

The script is run by hand before and after a refactoring, so a package
change that breaks it would only show then.  This test runs its cheapest
part, the three-signal run, saves it and compares the file with itself.
"""

import importlib.util
import os
import sys

import numpy as np

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "scripts")


def _load_script(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # it puts bench/ on the path
    spec = importlib.util.spec_from_file_location(
        "shift_fingerprint", os.path.join(SCRIPTS, "shift_fingerprint.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_signal_run_saves_mixed_row_operators(monkeypatch, tmp_path,
                                                    capsys):
    fp = _load_script(monkeypatch)
    out = fp.three_signal_run()  # raises if no operator mixes row lengths
    assert fp.mixed_row_frames(out) == [0, 1]
    row_lengths = np.diff(out["three-signal/stacked0.indptr"])
    assert set(row_lengths.tolist()) == {1, 4}
    assert out["three-signal/data"].shape == (128, 48)
    # how each stage ended: the one three-signal stage meets the gradient test
    assert out["three-signal/stage_termination"].tolist() == ["gradient"]
    grad_norm = out["three-signal/stage_grad_norm"]
    assert grad_norm.dtype == float and grad_norm.shape == (1,)

    path = str(tmp_path / "fp.npz")
    np.savez(path, **out)
    assert fp.compare(path, path) == 0
    assert capsys.readouterr().out.endswith(f"{len(out)} arrays, 0 differ\n")


def test_saved_operators_are_the_objectives(monkeypatch):
    # the fingerprint checks the operators the solver multiplies with: the
    # CSR forms of a fractional frame's two views, and for a whole-cell
    # frame the indices of a stack of single 1s, which its node map holds
    from spod import three_signal_default
    from spod.core import ReducedObjective

    fp = _load_script(monkeypatch)
    snaps, shifts = three_signal_default()
    out = fp.shift_arrays("three-signal", snaps, shifts)
    prob = ReducedObjective(snaps, shifts, [1] * shifts.n_frames)
    whole_cell = []
    for l in range(shifts.n_frames):
        T, T_T = prob.ops[l], prob.ops_T[l]
        saved = {f"{op}.{part}": out[f"three-signal/{op}{l}.{part}"]
                 for op in ("stacked", "stacked_T")
                 for part in ("indptr", "indices", "data")}
        if isinstance(T, np.ndarray):
            assert T is T_T  # one copy per frame
            rows = np.arange(saved["stacked.indptr"].size)
            assert np.array_equal(saved["stacked.indptr"], rows)
            assert np.all(saved["stacked.data"] == 1.0)
            assert np.array_equal(saved["stacked.indices"], T)
            whole_cell.append(l)
            continue
        for op, M in (("stacked", T.tocsr()), ("stacked_T", T_T.tocsr())):
            for part in ("indptr", "indices", "data"):
                assert fp._bit_equal(getattr(M, part), saved[f"{op}.{part}"])
        assert np.shares_memory(T_T.data, T.data)  # one copy per frame
    assert whole_cell == [2]  # beside the two mixed-row frames


def test_compare_is_bitwise(monkeypatch, tmp_path, capsys):
    # np.array_equal would pass -0.0 against 0.0 and fail NaN against NaN
    fp = _load_script(monkeypatch)
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    np.savez(a, x=np.array([0.0, np.nan]))
    np.savez(b, x=np.array([-0.0, np.nan]))
    assert fp.compare(a, a) == 0
    assert fp.compare(a, b) == 1
    assert "differs: x" in capsys.readouterr().out
