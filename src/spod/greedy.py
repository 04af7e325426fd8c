"""Greedy mode-addition driver around the reduced objective.

The driver optimizes the modes for the initial mode-count vector r0, then
repeatedly tries adding one mode to every frame, keeps the frame whose
enlarged problem yields the smallest relative error, and stops once the
error drops to the tolerance or the iteration cap is hit.  Candidate
solves warm-start from the incumbent plus one new mode initialized from
the back-shifted residual; a flag switches to cold starts from fresh
back-shifted-snapshot SVDs.

A run builds one ReducedObjective: its shift operators and data depend
on the shifts alone, so every solve takes it with its own mode counts
through with_counts.  A solve yields the modes, their error and the
stage record; the incumbent's amplitudes and residual come from one
value-only evaluation, which serves the next warm start and, on the
last incumbent, the returned Decomposition.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Decomposition, FrameBasis, FrameShifts, ReducedObjective
from .lbfgs import OptimizerAbort, OptimizerOptions, minimize
from .shifts import apply_shift
from .snapshots import SnapshotSet


@dataclass
class GreedyConfig:
    r0: list
    tol: float = 0.01
    p_max: Optional[int] = None  # default: one iteration per snapshot
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    rank_tol: float = 1e-10
    warm_start: bool = True
    threads: int = 1

    def __post_init__(self):
        self.r0 = [int(v) for v in self.r0]
        if any(v < 0 for v in self.r0):
            raise ValueError("initial mode counts must be nonnegative")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.p_max is not None and self.p_max < 0:
            raise ValueError("iteration cap must be nonnegative")
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")
        if not 0.0 <= self.rank_tol < 1.0:
            raise ValueError(f"rank_tol must lie in [0, 1), got {self.rank_tol}")


@dataclass
class GreedyReport:
    r0: list
    r_final: list
    error_history: list      # after the initial solve, then per accepted iteration
    candidate_errors: list   # per iteration: one error per frame
    chosen_frames: list
    termination: str         # "tolerance" | "iteration cap" | "optimizer failure"
    converged: bool
    stages: list             # accepted solves: iterations, evals, grad norm, ...
    runtime_seconds: float

    def to_dict(self) -> dict:
        return {
            "r0": list(self.r0),
            "r_final": list(self.r_final),
            "error_history": [float(e) for e in self.error_history],
            "candidate_errors": [[float(e) for e in row]
                                 for row in self.candidate_errors],
            "chosen_frames": [int(q) for q in self.chosen_frames],
            "termination": self.termination,
            "converged": bool(self.converged),
            "stages": self.stages,
            "runtime_seconds": float(self.runtime_seconds),
        }


def back_shifted_matrix(data: np.ndarray, shifts: FrameShifts, frame: int,
                        grid, n_blocks: int) -> np.ndarray:
    """Columns T(-d^l_j) X_j: the snapshots moved into the frame's own
    coordinates, shifted blockwise like everything else."""
    if data.shape[0] != n_blocks * grid.m:
        raise ValueError(
            f"data has {data.shape[0]} rows, expected {n_blocks} blocks of m={grid.m}"
        )
    return apply_shift(data, -shifts.d[frame], grid, shifts.spec)


def initialize_frames(snaps: SnapshotSet, shifts: FrameShifts, r0,
                      masks=None) -> list:
    """Initial frame bases from SVDs of the back-shifted snapshot matrices.

    Frame l receives the leading r0[l] left singular vectors of
    [T(-d^l_1) X_1, ..., T(-d^l_n) X_n]; masks are applied afterwards.
    """
    if len(r0) != shifts.n_frames:
        raise ValueError(f"{len(r0)} mode counts for {shifts.n_frames} frames")
    limit = min(snaps.n_rows, snaps.n_snapshots)
    frames = []
    for l, r in enumerate(r0):
        r = int(r)
        if not 0 <= r <= limit:
            raise ValueError(f"r0[{l}] = {r} exceeds min(m_total, n) = {limit}")
        mask = masks[l] if masks is not None else None
        if r == 0:
            frames.append(FrameBasis(np.zeros((snaps.n_rows, 0)), mask))
            continue
        B = back_shifted_matrix(snaps.data, shifts, l, snaps.grid, len(snaps.blocks))
        U = np.linalg.svd(B, full_matrices=False)[0]
        frames.append(FrameBasis(U[:, :r], mask))
    return frames


def spod_decompose(snaps: SnapshotSet, shifts: FrameShifts, config: GreedyConfig,
                   masks=None, progress=None):
    """Run the full greedy decomposition; returns (Decomposition, GreedyReport).

    masks is an optional per-frame list of boolean row masks (entries
    pinned to zero).  progress, if given, is called with a dict after the
    initial solve and after every greedy iteration.
    """
    t_start = time.perf_counter()
    base = ReducedObjective(snaps, shifts, config.r0, masks=masks,
                            rank_tol=config.rank_tol)
    p_max = config.p_max if config.p_max is not None else snaps.n_snapshots
    history, cand_hist, chosen, stages = [], [], [], []

    def solve(label, counts, init):
        """Optimized modes, their relative error and the stage record."""
        t0 = time.perf_counter()
        prob = base.with_counts(counts)
        z, trace = minimize(prob.value_and_gradient, prob.pack(init),
                            config.optimizer)
        modes = prob.unpack(z)
        return modes, prob.relative_error_of(trace.values[-1]), {
            "label": label,
            "r": prob.mode_counts,
            "iterations": trace.iterations,
            "evaluations": trace.n_evals,
            "objective": float(trace.values[-1]),
            "grad_norm": float(trace.grad_norms[-1]),
            "termination": trace.termination,
            "converged": trace.termination == "gradient",
            "rank_deficient_evals": len(prob.rank_events),
            "svd_fallback_solves": prob.svd_fallback_solves,
            "seconds": time.perf_counter() - t0,
        }

    def fit(modes):
        """Amplitudes and residual of the incumbent modes."""
        prob = base.with_counts([W.shape[1] for W in modes])
        return prob.evaluate(modes, need_gradient=False)[2:]

    def finish(modes, termination, amps=None):
        frames = [FrameBasis(W, None if masks is None else masks[l])
                  for l, W in enumerate(modes)]
        dec = Decomposition(frames, fit(modes)[0] if amps is None else amps,
                            shifts, snaps.grid, list(snaps.blocks))
        report = GreedyReport(
            r0=list(config.r0), r_final=[W.shape[1] for W in modes],
            error_history=history, candidate_errors=cand_hist,
            chosen_frames=chosen, termination=termination,
            converged=termination == "tolerance", stages=stages,
            runtime_seconds=time.perf_counter() - t_start,
        )
        return dec, report

    frames0 = initialize_frames(snaps, shifts, config.r0, masks)
    try:
        modes, err, stage = solve("initial", config.r0, [f.modes for f in frames0])
    except OptimizerAbort:
        return finish([f.modes for f in frames0], "optimizer failure",
                      [np.zeros((f.n_modes, snaps.n_snapshots)) for f in frames0])
    history.append(err)
    stages.append(stage)
    if progress:
        progress({"stage": "initial", "r": list(stage["r"]), "error": err})

    amps = None
    while err > config.tol and len(chosen) < p_max:
        if config.warm_start:
            amps, resid = fit(modes)

        def run_candidate(i):
            counts = [W.shape[1] for W in modes]
            counts[i] += 1
            if config.warm_start:
                B = back_shifted_matrix(resid, shifts, i, snaps.grid,
                                        len(snaps.blocks))
                w_new = np.linalg.svd(B, full_matrices=False)[0][:, :1]
                init = [W if l != i else np.hstack([W, w_new])
                        for l, W in enumerate(modes)]
            else:
                init = [f.modes for f in initialize_frames(snaps, shifts,
                                                           counts, masks)]
            return solve(f"iteration {len(chosen) + 1}", counts, init)

        try:
            if config.threads > 1:
                with ThreadPoolExecutor(max_workers=config.threads) as pool:
                    results = list(pool.map(run_candidate, range(shifts.n_frames)))
            else:
                results = [run_candidate(i) for i in range(shifts.n_frames)]
        except OptimizerAbort:
            return finish(modes, "optimizer failure", amps)

        errors = [e for _, e, _ in results]
        q = int(np.argmin(errors))  # argmin takes the lowest index on ties
        modes, err, stage = results[q]
        history.append(err)
        cand_hist.append(errors)
        chosen.append(q)
        stages.append(stage)
        if progress:
            progress({"stage": "greedy", "p": len(chosen), "r": list(stage["r"]),
                      "error": err, "candidate_errors": errors, "chosen": q})

    return finish(modes, "tolerance" if err <= config.tol else "iteration cap")
