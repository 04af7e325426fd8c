"""Greedy mode-addition driver around the reduced objective.

The driver optimizes the modes for the initial mode-count vector r0, then
repeatedly tries adding one mode to every frame, keeps the frame whose
enlarged problem yields the smallest relative error, and stops once the
error drops to the tolerance or the iteration cap is hit.  Candidate
solves warm-start from the incumbent plus one new mode initialized from
the back-shifted residual; a flag switches to cold starts from fresh
back-shifted-snapshot SVDs.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Decomposition, FrameBasis, FrameShifts, ReducedObjective, _FramePlan
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


def _stage_info(label: str, r, trace, prob, seconds: float) -> dict:
    return {
        "label": label,
        "r": [int(v) for v in r],
        "iterations": trace.iterations,
        "evaluations": trace.n_evals,
        "objective": float(trace.values[-1]),
        "grad_norm": float(trace.grad_norms[-1]),
        "termination": trace.termination,
        "converged": trace.termination == "gradient",
        "rank_deficient_evals": len(prob.rank_events),
        "seconds": float(seconds),
    }


def spod_decompose(snaps: SnapshotSet, shifts: FrameShifts, config: GreedyConfig,
                   masks=None, progress=None):
    """Run the full greedy decomposition; returns (Decomposition, GreedyReport).

    masks is an optional per-frame list of boolean row masks (entries
    pinned to zero).  progress, if given, is called with a dict after the
    initial solve and after every greedy iteration.
    """
    t_start = time.perf_counter()
    n_s = shifts.n_frames
    r = [int(v) for v in config.r0]
    if len(r) != n_s:
        raise ValueError(f"r0 has {len(r)} entries for {n_s} frames")
    p_max = config.p_max if config.p_max is not None else snaps.n_snapshots

    # the sparse operators depend only on the shifts, never on the mode
    # counts, so one plan set serves every solve of the run
    plans = [_FramePlan(shifts.d[l], snaps.grid, shifts.spec) for l in range(n_s)]

    def objective(counts):
        return ReducedObjective(snaps, shifts, counts, masks=masks,
                                rank_tol=config.rank_tol, plans=plans)

    def solve(counts, init_modes):
        t0 = time.perf_counter()
        prob = objective(counts)
        z, trace = minimize(prob.value_and_gradient, prob.pack(init_modes),
                            config.optimizer)
        return (prob.unpack(z), float(trace.values[-1]), trace, prob,
                time.perf_counter() - t0)

    def finish(modes_list, termination, history, cand_hist, chosen, stages):
        prob = objective([W.shape[1] for W in modes_list])
        _, _, amps, _ = prob.evaluate(modes_list, need_gradient=False)
        frames = [
            FrameBasis(W, masks[l] if masks is not None else None)
            for l, W in enumerate(modes_list)
        ]
        dec = Decomposition(frames, amps, shifts, snaps.grid, list(snaps.blocks))
        report = GreedyReport(
            r0=list(config.r0), r_final=[W.shape[1] for W in modes_list],
            error_history=history, candidate_errors=cand_hist,
            chosen_frames=chosen, termination=termination,
            converged=termination == "tolerance", stages=stages,
            runtime_seconds=time.perf_counter() - t_start,
        )
        return dec, report

    frames0 = initialize_frames(snaps, shifts, r, masks)
    try:
        modes, value, trace, prob, secs = solve(r, [f.modes for f in frames0])
    except OptimizerAbort:
        zero_amps = [np.zeros((f.n_modes, snaps.n_snapshots)) for f in frames0]
        dec = Decomposition(frames0, zero_amps, shifts, snaps.grid,
                            list(snaps.blocks))
        report = GreedyReport(list(config.r0), [f.n_modes for f in frames0],
                              [], [], [], "optimizer failure", False, [],
                              time.perf_counter() - t_start)
        return dec, report

    err = prob.relative_error_of(value)
    history = [err]
    cand_hist, chosen, stages = [], [], [_stage_info("initial", r, trace, prob, secs)]
    if progress:
        progress({"stage": "initial", "r": list(r), "error": err})

    p = 0
    failed = False
    while err > config.tol and p < p_max:
        if config.warm_start:
            cur = objective([W.shape[1] for W in modes])
            resid = cur.evaluate(modes, need_gradient=False)[3]

        def run_candidate(i):
            counts = list(r)
            counts[i] += 1
            if config.warm_start:
                B = back_shifted_matrix(resid, shifts, i, snaps.grid,
                                        len(snaps.blocks))
                w_new = np.linalg.svd(B, full_matrices=False)[0][:, :1]
                init = [W if l != i else np.hstack([W, w_new])
                        for l, W in enumerate(modes)]
            else:
                fresh = initialize_frames(snaps, shifts, counts, masks)
                init = [f.modes for f in fresh]
            return solve(counts, init)

        try:
            if config.threads > 1:
                with ThreadPoolExecutor(max_workers=config.threads) as pool:
                    results = list(pool.map(run_candidate, range(n_s)))
            else:
                results = [run_candidate(i) for i in range(n_s)]
        except OptimizerAbort:
            failed = True
            break

        errors = [res[3].relative_error_of(res[1]) for res in results]
        q = int(np.argmin(errors))  # argmin takes the lowest index on ties
        modes, value, trace, prob, secs = results[q]
        r[q] += 1
        err = errors[q]
        history.append(err)
        cand_hist.append(errors)
        chosen.append(q)
        stages.append(_stage_info(f"iteration {p + 1}", r, trace, prob, secs))
        p += 1
        if progress:
            progress({"stage": "greedy", "p": p, "r": list(r), "error": err,
                      "candidate_errors": errors, "chosen": q})

    if failed:
        termination = "optimizer failure"
    elif err <= config.tol:
        termination = "tolerance"
    else:
        termination = "iteration cap"
    return finish(modes, termination, history, cand_hist, chosen, stages)
