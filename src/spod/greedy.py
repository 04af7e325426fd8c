"""Greedy mode-addition driver around the reduced objective.

The driver optimizes the modes for the initial mode-count vector r0, then
repeatedly tries adding one mode to every frame, keeps the frame whose
enlarged problem yields the smallest relative error, and stops once the
error drops to the tolerance or the iteration cap is hit.  The initial
modes are the leading left singular vectors of each frame's back-shifted
snapshots; a candidate starts from the incumbent plus one new mode, the
leading left singular vector of the frame's back-shifted residual.  Both
come from _seed_modes, with the back-shifted matrix B scaled so that no
product of its entries overflows or falls into slow subnormal arithmetic
(the wave pulse tails reach 1e-323; see _seed_modes).  A one-mode seed,
which every candidate and every r0 entry of 1 asks for, is first sought
by power iteration (Halko, Martinsson & Tropp, SIAM Review 53, 2011):
a few products with B and B^T from v = ones/sqrt(n), kept only once a
residual bound with a Frobenius-norm gap certifies its angle to the
leading singular vector below 1e-12 (_leading_vector).  Otherwise, and
for r > 1, the seed comes by the method of snapshots (Sirovich, Q. Appl.
Math. 45, 1987): one eigensolve of the snapshot Gram matrix B^T B, then
the thin SVD of B V, V its top eigenvectors.  On the wave-pair benchmark
(seeds 0-10) both initial seeds are certified after one step.  Every
crossing-fronts seed falls back (seeds 0-40 and the acceptance
configuration), and so do the three-signal seeds: the initial ones have
sigma_2/sigma_1 of 0.34-0.79, too slow a decay for four steps, and the
candidates' residuals have |B|_F^2 - sigma_1^2 of 1.1-2.9 sigma_1^2, so
the certificate has no positive gap.  The sign of a mode is arbitrary.

Every solve (the initial one and each candidate) runs L-BFGS on z with
the diagonal metric M of ReducedObjective.variable_metric (spod.lbfgs),
the coverage rule for the amplitudes of the start point's own
evaluation: an entry that the shifts let few residuals see has little
curvature and gets a larger step.  After every SCALE_REFRESH iterations
of the whole solve, short of max_iters, M is taken anew from the
amplitudes of the solve's last evaluation, so that it follows the
amplitudes as they move; the iterate, the gradient and the pairs stand,
and a refresh costs no evaluation.  The solve stops once
sqrt(dJ/dz.M dJ/dz) <= grad_tol sqrt(g0.M g0), g0 = dJ/dz at the start
point and M the current metric; a stage's grad_norm is |dJ/dz|.

The candidates of one greedy iteration are solved by successive
halving.  With N >= 3 candidates and the cap B = max_iters there
are E = ceil(log2 N) rungs, at 0, ceil(B/2^E), ..., ceil(B/4)
iterations: every surviving candidate runs on to the rung, then the
better half, ceil(n/2) of n ranked by (error, frame), goes on; the last
one runs to B, as one or two candidates do (no rung).  The rung at 0
ranks the candidates by their start point's error, which every solve
evaluates anyway for its metric, so a candidate dropped there costs
one evaluation and no iteration: the lowest rung of a
successive-halving bracket (Jamieson & Talwalkar, AISTATS 2016; Li et
al., JMLR 18, 2018).  A candidate whose solve ends
early (gradient test, line-search failure) is ranked by its final value
and not run further.  L-BFGS values never rise, so the survivor's final
error is at most every dropped candidate's error at its rung, and the
choice equals the argmin of the candidate errors.  A dropped candidate's
error therefore comes from a truncated solve or is its start point's;
candidate_iterations says how far each candidate ran.  A solve counts
the iterations between refreshes over the whole solve, not per call, and
is continued exactly as one uninterrupted solve would go on, so whenever
the candidate that wins at B survives the rungs, every output is the one
of solving all candidates to B.  Halving
can drop a candidate that would overtake the survivor after its rung
(24 of the 76 sub-problems of scripts/candidate_rule_study.py); on the
crossing-fronts benchmark seeds 0-10 and the acceptance configuration
(max_iters = 500) it does not, as the README records.

A run builds one ReducedObjective, which holds the frame masks and whose
unpack, the path of every seed and iterate, zeroes the masked rows; its
operators and data depend on the shifts alone, so every solve takes it
with its own mode counts through with_counts.  A solve yields the modes,
their error and stage record (read from its SolverState), and the
amplitudes and residual that serve the next warm start and the returned
Decomposition: its last evaluation's where that was made at the final
modes, else those of one more, value-only, evaluation.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (RANK_TOL, Decomposition, FrameBasis, FrameShifts,
                   ReducedObjective)
from .lbfgs import (OptimizerAbort, OptimizerOptions, as_count, minimize,
                    start_state)
from .shifts import apply_shift
from .snapshots import SnapshotSet

# entries of a peak-scaled back-shifted matrix below this are set to zero,
# so that products of two kept entries stay normal floats; a Python float,
# so that the cut of a peak below about 1e-154 rounds into the subnormal
# range (the rule then holds to within that rounding) instead of raising
# under np.errstate(under="raise")
_SQRT_TINY = float(np.finfo(float).tiny) ** 0.5
# a one-mode seed by power iteration: at most _POWER_STEPS steps, kept once
# its certified angle to the leading singular vector is below _ANGLE_TOL
_POWER_STEPS = 4
_ANGLE_TOL = 1e-12
SCALE_REFRESH = 10  # iterations of a solve between refreshes of its metric


@dataclass
class GreedyConfig:
    r0: list
    tol: float = 0.01
    p_max: Optional[int] = None  # default: one iteration per snapshot
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    rank_tol: float = RANK_TOL
    threads: int = 1

    def __post_init__(self):
        self.r0 = [as_count(v, "r0 entry") for v in self.r0]
        if self.p_max is not None:
            self.p_max = as_count(self.p_max, "p_max")
        self.threads = as_count(self.threads, "threads")
        if any(v < 0 for v in self.r0):
            raise ValueError("initial mode counts must be nonnegative")
        if not any(self.r0):
            raise ValueError("initial mode counts must include at least one mode")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.p_max is not None and self.p_max < 0:
            raise ValueError("iteration cap must be nonnegative")
        if self.threads != 1:
            raise ValueError("threads must be 1: candidates are solved one at a time")
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
    # per iteration, per frame: how far each candidate's solve ran
    candidate_iterations: list = field(default_factory=list)
    candidate_evaluations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def back_shifted_matrix(data: np.ndarray, shifts: FrameShifts, frame: int,
                        grid, n_blocks: int) -> np.ndarray:
    """Columns T(-d^l_j) X_j: the snapshots moved into the frame's own
    coordinates, shifted blockwise like everything else."""
    if data.shape[0] != n_blocks * grid.m:
        raise ValueError(
            f"data has {data.shape[0]} rows, expected {n_blocks} blocks of m={grid.m}"
        )
    return apply_shift(data, -shifts.d[frame], grid, shifts.spec)


def _seed_modes(data: np.ndarray, snaps: SnapshotSet, shifts: FrameShifts,
                frame: int, r: int) -> np.ndarray:
    """The leading r left singular vectors of the frame's
    back_shifted_matrix B of data.  At r = 1 that is _leading_vector's
    certified power iteration when it succeeds.  Otherwise, and for
    r > 1, they are the left singular vectors of the thin product B V,
    V the top r eigenvectors of B^T B, for every shape of B; a refused
    power attempt leaves B as it was, so this result does not depend on
    it.  They are orthonormal even when r exceeds rank(B).

    B is divided by its largest magnitude, after its entries below
    _SQRT_TINY times that magnitude are set to zero: every kept entry of
    the scaled B is then at least sqrt(tiny), so no product in the Gram
    matrix underflows into subnormal arithmetic.  The Gram norm is at
    least 1, and each of its entries moves by at most k sqrt(tiny) (k
    the length of the inner products; 3e-151 at k = 2048), far below the
    backward error of eigh, eps times that norm.  The power path works on
    the same cut and scaled B.  data is not changed."""
    B = back_shifted_matrix(data, shifts, frame, snaps.grid, len(snaps.blocks))
    peak = max(B.max(), -B.min())  # no full-size |B|
    if peak > 0:
        cut = _SQRT_TINY * float(peak)
        B[(B < cut) & (B > -cut)] = 0.0
        B /= peak
    if r == 1:
        u = _leading_vector(B)
        if u is not None:
            return u[:, None]
    V = np.linalg.eigh(B.T @ B)[1][:, :-r - 1:-1]
    return np.linalg.svd(B @ V, full_matrices=False)[0]


def _leading_vector(B: np.ndarray) -> Optional[np.ndarray]:
    """The leading left singular vector of B by power iteration from
    v = ones/sqrt(n), or None when _POWER_STEPS steps do not certify it.

    A step takes u = B v / sigma, sigma = |B v|, and z = B^T u; then
    B^T B v - sigma^2 v = sigma (z - sigma v).  Since sigma <= sigma_1,
    every singular value but the first is at most
    s = sqrt(|B|_F^2 - sigma^2), so the other eigenvalues of B^T B lie at
    least (sigma - s)(sigma + s) from sigma^2, and the angle of v to the
    leading right singular vector has a sine of at most res/gap,
    res = |z - sigma v| and gap = sigma - s (a residual bound in the
    manner of Wedin, BIT 12, 1972); the angle of u = B v / sigma to the
    leading left one is no larger.  u is returned once gap > 0 and
    res <= _ANGLE_TOL gap."""
    n = B.shape[1]
    v = np.full(n, n ** -0.5)
    fro2 = np.linalg.norm(B) ** 2
    for _ in range(_POWER_STEPS):
        w = B @ v
        sigma = np.linalg.norm(w)
        if not sigma > 0:  # B v = 0, or not finite
            return None
        u = w / sigma
        z = B.T @ u
        res = np.linalg.norm(z - sigma * v)
        gap = sigma - np.sqrt(max(fro2 - sigma * sigma, 0.0))
        if gap > 0 and res <= _ANGLE_TOL * gap:
            return u
        v = z / np.linalg.norm(z)
    return None


def initialize_frames(snaps: SnapshotSet, shifts: FrameShifts, r0) -> list:
    """Initial frame bases from the back-shifted snapshot matrices.

    Frame l receives the leading r0[l] left singular vectors of
    [T(-d^l_1) X_1, ..., T(-d^l_n) X_n].
    """
    if len(r0) != shifts.n_frames:
        raise ValueError(f"{len(r0)} mode counts for {shifts.n_frames} frames")
    limit = min(snaps.n_rows, snaps.n_snapshots)
    frames = []
    for l, r in enumerate(r0):
        r = int(r)
        if not 0 <= r <= limit:
            raise ValueError(f"r0[{l}] = {r} exceeds min(m_total, n) = {limit}")
        if r == 0:
            frames.append(FrameBasis(np.zeros((snaps.n_rows, 0))))
            continue
        frames.append(FrameBasis(_seed_modes(snaps.data, snaps, shifts, l, r)))
    return frames


def halving_rungs(n_candidates: int, max_iters: int) -> list:
    """Iteration counts at which the worse half of the candidates drops
    out: 0, the start point, then ceil(B/2^k) for k = E, ..., 2 with
    E = ceil(log2 N); none for one or two candidates, whose only rung
    would rank them by their start points alone."""
    n_rungs = (n_candidates - 1).bit_length()
    if n_rungs < 2:
        return []
    return [0] + [-(-max_iters // 2 ** k) for k in range(n_rungs, 1, -1)]


class _Solve:
    """One L-BFGS solve, run on in segments through minimize, each
    continuing from state, the SolverState where the last one stopped.
    z is the packed start point until the first segment evaluates it
    (dJ/dz there is g0) and takes the metric from its amplitudes; then z
    is state.x.  refresh sets a new metric after every SCALE_REFRESH
    iterations of the whole solve, short of max_iters.  prob.n_evals
    counts every evaluation: prob is the solve's own copy."""

    def __init__(self, prob: ReducedObjective, init):
        self.prob = prob
        self.z = prob.pack(init)
        self.state = self.g0 = self.last = None
        self.iterations, self.seconds = 0, 0.0

    def evaluate(self, z):
        """J and dJ/dz at z; the amplitudes and residual go to last with z."""
        self.last = None  # freed before this evaluation allocates
        f, g, amps, resid = self.prob.value_gradient_amplitudes(z)
        self.last = z, amps, resid
        return f, g

    @property
    def ended(self) -> bool:
        """True once the solve stopped before its iteration cap."""
        return self.state is not None and self.state.termination != "iteration cap"

    @property
    def error(self) -> float:
        return self.prob.relative_error_of(self.state.f)

    def run_to(self, iterations: int, opts: OptimizerOptions):
        """Continue the solve until it has run `iterations` in all."""
        t0 = time.perf_counter()
        if self.state is None:
            f, self.g0 = self.evaluate(self.z)
            self.state = start_state(self.z, f, self.g0, opts.grad_tol,
                                     self.prob.variable_metric(self.last[1]))
        while True:  # one segment per stretch between refreshes
            stop = min(iterations,
                       SCALE_REFRESH * (self.iterations // SCALE_REFRESH + 1))
            trace = minimize(self.evaluate, self.state,
                             replace(opts, max_iters=stop - self.iterations))[1]
            self.state, self.z = trace.state, trace.state.x
            self.iterations += trace.iterations
            if self.ended:
                break
            if (trace.iterations and self.iterations % SCALE_REFRESH == 0
                    and self.iterations < opts.max_iters):
                self.refresh(opts.grad_tol)
            if self.iterations >= iterations:
                break
        if not self.ended and self.iterations < opts.max_iters:
            self.last = None  # stopped at a rung: evaluates again or is dropped
        self.seconds += time.perf_counter() - t0

    def refresh(self, grad_tol: float):
        """Take the metric M anew from the amplitudes of the last evaluation
        (at z, unless the line search kept an earlier trial), gamma from the
        newest pair in M and the gradient target grad_tol sqrt(g0.M g0);
        the iterate, the gradient and the pairs stand, and nothing is evaluated."""
        metric, st = self.prob.variable_metric(self.last[1]), self.state
        gamma = st.gamma
        if st.pairs:
            sigma, y, _ = st.pairs[-1]
            gamma = float(sigma @ y) / float(y @ (metric * y))
        target = grad_tol * float(np.sqrt(self.g0 @ (metric * self.g0)))
        self.state = replace(st, metric=metric, gamma=gamma, target=target)

    def fit(self):
        """Amplitudes and residual at the final modes: the last evaluation's
        if it was made there, else a value-only one's, after the stage record."""
        if self.last is not None and np.array_equal(self.last[0], self.z):
            return self.last[1:]
        self.last = None
        return self.prob.evaluate(self.prob.unpack(self.z), need_gradient=False)[2:]

    def result(self, label):
        """Optimized modes, their relative error and the stage record."""
        prob, st = self.prob, self.state
        return prob.unpack(self.z), self.error, {
            "label": label,
            "r": prob.mode_counts,
            "iterations": self.iterations,
            "evaluations": prob.n_evals,
            "objective": st.f,
            "grad_norm": float(np.linalg.norm(st.g)),
            "termination": st.termination,
            "converged": st.termination == "gradient",
            "rank_deficient_evals": len(prob.rank_events),
            "svd_fallback_solves": prob.svd_fallback_solves,
            "seconds": self.seconds,
        }


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
    max_iters = config.optimizer.max_iters
    history, cand_hist, chosen, stages = [], [], [], []
    cand_iters, cand_evals = [], []

    def finish(modes, termination, amps):
        dec = Decomposition([FrameBasis(W) for W in modes], amps, shifts, snaps.grid, list(snaps.blocks))
        report = GreedyReport(
            r0=list(config.r0), r_final=[W.shape[1] for W in modes],
            error_history=history, candidate_errors=cand_hist,
            chosen_frames=chosen, termination=termination,
            converged=termination == "tolerance", stages=stages,
            runtime_seconds=time.perf_counter() - t_start,
            candidate_iterations=cand_iters, candidate_evaluations=cand_evals,
        )
        return dec, report

    seeds = base.unpack(base.pack(  # unpack zeroes the masked rows
        [f.modes for f in initialize_frames(snaps, shifts, config.r0)]))
    incumbent = _Solve(base.with_counts(config.r0), seeds)
    try:
        incumbent.run_to(max_iters, config.optimizer)
    except OptimizerAbort:
        return finish(seeds, "optimizer failure",
                      [np.zeros((W.shape[1], snaps.n_snapshots)) for W in seeds])
    modes, err, stage = incumbent.result("initial")
    history.append(err)
    stages.append(stage)
    if progress:
        progress({"stage": "initial", "r": list(stage["r"]), "error": err})

    while err > config.tol and len(chosen) < p_max:
        amps, resid = incumbent.fit()

        def candidate(i):
            counts = [W.shape[1] for W in modes]
            counts[i] += 1
            w_new = _seed_modes(resid, snaps, shifts, i, 1)
            init = [W if l != i else np.hstack([W, w_new])
                    for l, W in enumerate(modes)]
            return _Solve(base.with_counts(counts), init)

        solves = [candidate(i) for i in range(shifts.n_frames)]
        alive = list(range(shifts.n_frames))
        try:
            for rung in halving_rungs(len(alive), max_iters) + [max_iters]:
                for i in alive:  # a solve that has ended stays as it is
                    solves[i].run_to(rung, config.optimizer)
                alive.sort(key=lambda i: (solves[i].error, i))
                for i in alive[(len(alive) + 1) // 2:]:
                    solves[i].last = None  # dropped: its fit is never read
                del alive[(len(alive) + 1) // 2:]
        except OptimizerAbort:
            return finish(modes, "optimizer failure", amps)

        q, incumbent = alive[0], solves[alive[0]]
        errors = [sv.error for sv in solves]
        modes, err, stage = incumbent.result(f"iteration {len(chosen) + 1}")
        history.append(err)
        cand_hist.append(errors)
        cand_iters.append([sv.iterations for sv in solves])
        cand_evals.append([sv.prob.n_evals for sv in solves])
        chosen.append(q)
        stages.append(stage)
        if progress:
            progress({"stage": "greedy", "p": len(chosen), "r": list(stage["r"]),
                      "error": err, "candidate_errors": errors, "chosen": q})

    return finish(modes, "tolerance" if err <= config.tol else "iteration cap",
                  incumbent.fit()[0])
