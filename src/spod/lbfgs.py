"""Limited-memory BFGS with a strong-Wolfe line search and a diagonal metric.

Implemented here rather than wrapped from a library because the callers
want a full per-iteration trace (objective, gradient norm, accepted step
size, search slope) plus a stopping rule relative to the initial gradient
norm; external L-BFGS wrappers hide those internals behind their own
tolerances.  The Wolfe constants, the memory, the step cap and the search
budget are the module constants below; a caller sets only the stopping
rule (OptimizerOptions).  A solve stopped at its iteration cap can be
continued from the SolverState its trace holds, and goes on exactly as
one uninterrupted solve would; start_state builds the state of a solve
from a start point the caller has already evaluated.

The state holds a positive diagonal metric M (all ones for a fresh
start): the two-loop recursion starts from gamma M, gamma = s.y / y.M y,
steepest descent is -M g and every gradient norm is sqrt(g.M g).  That is
L-BFGS on u = x / sqrt(M) run in x (Nocedal & Wright, Numerical
Optimization, 2nd ed., secs. 6.1 and 7.2), so a caller may set a new M
between calls and map nothing (Gilbert & Lemarechal, Math. Prog. 45, 1989).

A step with curvature pairs first tries alpha = 1.  A step without them
(the first iteration and every steepest-descent restart) first tries
min(1, 1/|g|_M, 2f/|g|_M^2) when f > 0: along p = -M g the slope is
-|g|_M^2, and a quadratic model that stays nonnegative has its minimizer
at or below 2f/|g|_M^2 (Nocedal & Wright, sec. 3.5).  That cap assumes
an objective f >= 0, such as a sum of squares; at f <= 0 the first trial
is min(1, 1/|g|_M).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


MAX_STEP = 1e10             # largest step the line search brackets out to
SEARCH_EVALS = 30           # evaluation budget per line search
MEMORY = 10                 # (s, y) pairs kept for the two-loop recursion
SUFFICIENT_DECREASE = 1e-4  # Wolfe c1
CURVATURE = 0.9             # Wolfe c2


class OptimizerAbort(RuntimeError):
    """Raised when the objective is non-finite at the starting point."""


def as_count(value, name: str) -> int:
    """value as an int; a value that is not a whole number is refused."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OptimizerOptions:
    # relative to the start point's gradient norm, both in the metric
    # norm of the state (a greedy solve refreshes that metric)
    grad_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "max_iters",
                           as_count(self.max_iters, "max_iters"))
        if self.max_iters < 0 or not 0.0 <= self.grad_tol < np.inf:
            raise ValueError("need max_iters >= 0 and a finite grad_tol >= 0")


@dataclass(frozen=True)
class SolverState:
    """Where a solve stands at the end of one minimize() call: the iterate,
    its value and gradient, the (s, y, 1/s.y) pairs (oldest first), the
    positive diagonal metric M, the initial-Hessian scale gamma and the
    target for the gradient's M-norm, set at the start point.  Only a
    state whose termination is "iteration cap" goes on when passed back
    to minimize().  minimize() never writes into these arrays."""

    x: np.ndarray
    f: float
    g: np.ndarray
    pairs: tuple
    metric: np.ndarray
    gamma: float
    target: float
    termination: str


@dataclass
class OptimizerTrace:
    """Per-iteration history of one minimize() run.

    values[k] is the objective at the k-th accepted iterate (values[0] at
    x0) and grad_norms[k] the M-norm of its gradient; step_sizes[k] and
    slopes[k] are the accepted step and the search slope g.p of iteration
    k, so the sufficient-decrease inequality
    values[k+1] <= values[k] + c1*step_sizes[k]*slopes[k] is assertable
    directly from the trace.  A trace covers one call: a continued solve's
    values[0] is the value it resumed from, and its n_evals and iterations
    count only that call's work.  state is where the call ended; minimize
    sets it on every return, also for an empty variable vector.
    """

    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    slopes: list = field(default_factory=list)
    termination: str = ""
    n_evals: int = 0
    state: SolverState | None = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)


def _cubic_step(lo, f_lo, g_lo, hi, f_hi, g_hi):
    """Minimizer of the cubic through both endpoint values and slopes;
    falls back to bisection when degenerate or outside the safe interior."""
    if lo == hi:
        return float(lo)
    d1 = g_lo + g_hi - 3.0 * (f_lo - f_hi) / (lo - hi)
    radicand = d1 * d1 - g_lo * g_hi
    if radicand < 0.0:
        return 0.5 * (lo + hi)
    d2 = np.sqrt(radicand) * np.sign(hi - lo)
    denom = g_hi - g_lo + 2.0 * d2
    if denom == 0.0:
        return 0.5 * (lo + hi)
    alpha = hi - (hi - lo) * (g_hi + d2 - d1) / denom
    lo_, hi_ = min(lo, hi), max(lo, hi)
    pad = 0.1 * (hi_ - lo_)
    if not np.isfinite(alpha) or alpha < lo_ + pad or alpha > hi_ - pad:
        return 0.5 * (lo + hi)
    return float(alpha)


def _wolfe_search(ev, x, f0, g0, p, alpha0):
    """Strong-Wolfe line search along p, one loop over a bracket (lo, hi)
    (Nocedal & Wright, Alg. 3.5-3.6): hi is None while the step doubles
    from alpha0, and each later trial is a cubic step inside the bracket.

    Returns (alpha, x_new, f_new, g_new, ok).  ok is False only when no
    step satisfying the sufficient-decrease condition was found; a step
    meeting sufficient decrease but not the curvature condition within the
    evaluation budget is still returned with ok=True (the caller guards
    the memory update by the curvature of the actual pair).
    """
    slope0 = float(g0 @ p)
    lo, f_lo, gs_lo, g_lo = 0.0, f0, slope0, g0
    hi = f_hi = gs_hi = None
    alpha = alpha0
    for _ in range(SEARCH_EVALS):
        bracketed = hi is not None
        if bracketed:
            alpha = _cubic_step(lo, f_lo, gs_lo, hi, f_hi, gs_hi)
        f, g = ev(x + alpha * p)
        gs = float(g @ p)
        if not np.isfinite(f) or f > f0 + SUFFICIENT_DECREASE * alpha * slope0 or (
            f >= f_lo and (bracketed or lo > 0.0)  # not tested on the first trial
        ):
            hi, f_hi, gs_hi = alpha, f, gs
            continue
        if abs(gs) <= -CURVATURE * slope0:
            return alpha, x + alpha * p, f, g, True
        if (gs * (hi - lo) if bracketed else gs) >= 0.0:
            hi, f_hi, gs_hi = lo, f_lo, gs_lo  # the minimizer lies behind alpha
        lo, f_lo, gs_lo, g_lo = alpha, f, gs, g
        if hi is None:
            if alpha >= MAX_STEP:
                break
            alpha = min(2.0 * alpha, MAX_STEP)
        elif bracketed and abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
            break
    # out of budget or room: keep lo if it is below f0, or below the c1
    # line once a bracket exists
    bound = f0 if hi is None else f0 + SUFFICIENT_DECREASE * lo * slope0
    if lo > 0.0 and f_lo < bound:
        return lo, x + lo * p, f_lo, g_lo, True
    return 0.0, x, f0, g0, False


def _norm(v, metric):
    """The norm sqrt(v.M v) of v in the diagonal metric M."""
    return float(np.sqrt(v @ (metric * v)))


def _two_loop(g, pairs, gamma, metric):
    q = g.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        coeffs.append(a)
        q -= a * y
    q *= gamma * metric
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def start_state(x, f, g, grad_tol: float, metric=None) -> SolverState:
    """The state of a solve that has not yet taken a step from x, where the
    objective is f with gradient g, in the diagonal metric M (default all
    ones); its gradient target is grad_tol times the M-norm of g.  Raises
    OptimizerAbort if f or g is not finite."""
    f, g = float(f), np.asarray(g, dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise OptimizerAbort(
            "objective returned a non-finite value at the start point"
        )
    metric = np.ones_like(g) if metric is None else metric
    return SolverState(x, f, g, (), metric, 1.0,
                       grad_tol * _norm(g, metric), "iteration cap")


def minimize(fg, x0, opts: OptimizerOptions | None = None):
    """Minimize a smooth function given a value-and-gradient callback.

    fg(x) must return (value, gradient); the first-trial cap of the
    module docstring assumes value >= 0, and otherwise at worst shortens
    a trial that the line search then doubles.  Returns (x, trace); on a
    line search failure the best iterate found so far is returned with
    trace.termination "line search failure"; trace.termination is
    "gradient" once the gradient test stops the solve and "iteration cap"
    when max_iters does.  trace.n_evals counts the calls of fg.  A
    non-finite value or gradient at the starting point raises; non-finite
    trial points during the search are retreated from automatically.

    x0 is a start point, or the trace.state of an earlier call: that solve
    then runs up to opts.max_iters more iterations with the iterates,
    values, steps and evaluations one uninterrupted call would have made,
    keeping its gradient target (opts.grad_tol is not used) and calling fg
    only for new trial points.  A state that ended by the gradient test or
    by a line-search failure is returned as it is, with no call of fg.  A
    fresh start point goes through start_state, so minimize(fg, x, opts)
    is minimize(fg, start_state(x, *fg(x), opts.grad_tol), opts) with
    the start evaluation counted.
    """
    opts = opts or OptimizerOptions()
    trace = OptimizerTrace()

    def ev(x):
        f, g = fg(x)
        trace.n_evals += 1
        return float(f), np.asarray(g, dtype=float)

    if not isinstance(x0, SolverState):
        x = np.asarray(x0, dtype=float).copy()
        x0 = start_state(x, *ev(x), opts.grad_tol)
    x, f, g, metric = x0.x, x0.f, x0.g, x0.metric
    trace.values.append(f)
    trace.grad_norms.append(_norm(g, metric))
    if x0.termination != "iteration cap":
        trace.termination, trace.state = x0.termination, x0
        return x.copy(), trace
    pairs = deque(x0.pairs, maxlen=MEMORY)  # the oldest pair drops out
    gamma, target = x0.gamma, x0.target

    status = "iteration cap"
    for _ in range(opts.max_iters):
        gnorm = trace.grad_norms[-1]
        if gnorm <= target:
            status = "gradient"
            break
        p = -_two_loop(g, pairs, gamma, metric) if pairs else -metric * g
        if g @ p >= 0.0:  # stale curvature info: restart from steepest descent
            pairs.clear()
            p = -metric * g
        slope = float(g @ p)
        cap = -2.0 * f / slope if f > 0.0 else 1.0  # slope -|g|_M^2 at p = -M g
        alpha0 = 1.0 if pairs else min(1.0, 1.0 / max(gnorm, 1e-30), cap)
        alpha, x_new, f_new, g_new, ok = _wolfe_search(ev, x, f, g, p, alpha0)
        if not ok:
            status = "line search failure"
            break
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        # the curvature guard of the variables u = x / sqrt(M)
        if sy > 1e-12 * _norm(s, 1.0 / metric) * _norm(y, metric):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ (metric * y))
        x, f, g = x_new, f_new, g_new
        trace.values.append(f)
        trace.grad_norms.append(_norm(g, metric))
        trace.step_sizes.append(alpha)
        trace.slopes.append(slope)
    if status == "iteration cap" and trace.grad_norms[-1] <= target:
        status = "gradient"
    trace.termination = status
    trace.state = SolverState(x, f, g, tuple(pairs), metric, gamma, target, status)
    return x.copy(), trace
