"""Limited-memory BFGS with a strong-Wolfe line search.

Implemented here rather than wrapped from a library because the callers
want a full per-iteration trace (objective, gradient norm, accepted step
size, search slope) plus a stopping rule relative to the initial gradient
norm; external L-BFGS wrappers hide those internals behind their own
tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


MAX_STEP = 1e10     # largest step the line search brackets out to
SEARCH_EVALS = 30   # evaluation budget per line search


class OptimizerAbort(RuntimeError):
    """Raised when the objective is non-finite at the starting point."""


@dataclass(frozen=True)
class OptimizerOptions:
    memory: int = 10
    grad_tol: float = 1e-6          # relative to the initial gradient norm
    max_iters: int = 500
    sufficient_decrease: float = 1e-4
    curvature: float = 0.9

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if not 0.0 < self.sufficient_decrease < self.curvature < 1.0:
            raise ValueError(
                "need 0 < sufficient_decrease < curvature < 1, got "
                f"{self.sufficient_decrease} and {self.curvature}"
            )
        if self.max_iters < 0 or not 0.0 <= self.grad_tol < np.inf:
            raise ValueError("need max_iters >= 0 and a finite grad_tol >= 0")


@dataclass
class OptimizerTrace:
    """Per-iteration history of one minimize() run.

    values[k] is the objective at the k-th accepted iterate (values[0] at
    x0); step_sizes[k] and slopes[k] are the accepted step and the search
    slope g.p of iteration k, so the sufficient-decrease inequality
    values[k+1] <= values[k] + c1*step_sizes[k]*slopes[k] is assertable
    directly from the trace.
    """

    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    slopes: list = field(default_factory=list)
    termination: str = ""
    n_evals: int = 0

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)

    @property
    def success(self) -> bool:
        """True unless a line search failed: an iteration cap counts."""
        return self.termination in ("gradient", "iteration cap")


class _Eval:
    """Wraps the callback: counts calls and returns (float, float array)."""

    def __init__(self, fg):
        self.fg = fg
        self.count = 0

    def __call__(self, x):
        f, g = self.fg(x)
        self.count += 1
        return float(f), np.asarray(g, dtype=float)


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


def _wolfe_search(ev, x, f0, g0, p, alpha0, opts):
    """Strong-Wolfe line search (bracket then zoom).

    Returns (alpha, x_new, f_new, g_new, ok).  ok is False only when no
    step satisfying the sufficient-decrease condition was found; a step
    meeting sufficient decrease but not the curvature condition within the
    evaluation budget is still returned with ok=True (the caller guards
    the memory update by the curvature of the actual pair).
    """
    c1 = opts.sufficient_decrease
    c2 = opts.curvature
    slope0 = float(g0 @ p)

    def phi(alpha):
        f, g = ev(x + alpha * p)
        return f, g, float(g @ p)

    def zoom(lo, f_lo, g_lo_s, gvec_lo, hi, f_hi, g_hi_s, spent):
        while spent < SEARCH_EVALS:
            alpha = _cubic_step(lo, f_lo, g_lo_s, hi, f_hi, g_hi_s)
            f, gvec, gs = phi(alpha)
            spent += 1
            if not np.isfinite(f) or f > f0 + c1 * alpha * slope0 or f >= f_lo:
                hi, f_hi, g_hi_s = alpha, f, gs
                continue
            if abs(gs) <= -c2 * slope0:
                return alpha, f, gvec, True
            if gs * (hi - lo) >= 0.0:
                hi, f_hi, g_hi_s = lo, f_lo, g_lo_s
            lo, f_lo, g_lo_s, gvec_lo = alpha, f, gs, gvec
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                break
        # budget exhausted: fall back to the best sufficient-decrease point
        if f_lo < f0 + c1 * lo * slope0 and lo > 0.0:
            return lo, f_lo, gvec_lo, True
        return lo, f_lo, gvec_lo, False

    alpha_prev, f_prev, gs_prev = 0.0, f0, slope0
    gvec_prev = g0
    alpha = alpha0
    spent = 0
    first = True
    while spent < SEARCH_EVALS:
        f, gvec, gs = phi(alpha)
        spent += 1
        if not np.isfinite(f) or f > f0 + c1 * alpha * slope0 or (
            not first and f >= f_prev
        ):
            a, fv, gv, ok = zoom(
                alpha_prev, f_prev, gs_prev, gvec_prev, alpha, f, gs, spent
            )
            return a, x + a * p, fv, gv, ok
        if abs(gs) <= -c2 * slope0:
            return alpha, x + alpha * p, f, gvec, True
        if gs >= 0.0:
            a, fv, gv, ok = zoom(
                alpha, f, gs, gvec, alpha_prev, f_prev, gs_prev, spent
            )
            return a, x + a * p, fv, gv, ok
        alpha_prev, f_prev, gs_prev, gvec_prev = alpha, f, gs, gvec
        first = False
        if alpha >= MAX_STEP:
            break
        alpha = min(2.0 * alpha, MAX_STEP)
    # ran out of budget while still descending: keep the last finite point
    if np.isfinite(f_prev) and alpha_prev > 0.0 and f_prev < f0:
        return alpha_prev, x + alpha_prev * p, f_prev, gvec_prev, True
    return 0.0, x, f0, g0, False


def _two_loop(g, pairs, gamma):
    q = g.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        coeffs.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize(fg, x0, opts: OptimizerOptions | None = None):
    """Minimize a smooth function given a value-and-gradient callback.

    fg(x) must return (value, gradient).  Returns (x, trace); on a line
    search failure the best iterate found so far is returned with
    trace.success False.  A non-finite value or gradient at the starting
    point raises; non-finite trial points during the search are retreated
    from automatically.
    """
    opts = opts or OptimizerOptions()
    x = np.asarray(x0, dtype=float).copy()
    trace = OptimizerTrace()
    if x.size == 0:
        trace.termination = "gradient"
        return x, trace
    ev = _Eval(fg)
    f, g = ev(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise OptimizerAbort(
            "objective returned a non-finite value at the start point"
        )
    gnorm0 = float(np.linalg.norm(g))
    target = opts.grad_tol * gnorm0
    trace.values.append(f)
    trace.grad_norms.append(gnorm0)

    pairs: list = []
    gamma = 1.0
    status = "iteration cap"
    for _ in range(opts.max_iters):
        gnorm = trace.grad_norms[-1]
        if gnorm <= target:
            status = "gradient"
            break
        p = _two_loop(g, pairs, gamma) if pairs else g.copy()
        p = -p
        slope = float(g @ p)
        if slope >= 0.0:  # stale curvature info: restart from steepest descent
            pairs.clear()
            p = -g
            slope = float(g @ p)
        alpha0 = 1.0 if pairs else min(1.0, 1.0 / max(gnorm, 1e-30))
        alpha, x_new, f_new, g_new, ok = _wolfe_search(ev, x, f, g, p, alpha0, opts)
        if not ok:
            status = "line search failure"
            break
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > opts.memory:
                pairs.pop(0)
            gamma = sy / float(y @ y)
        x, f, g = x_new, f_new, g_new
        trace.values.append(f)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.step_sizes.append(alpha)
        trace.slopes.append(slope)
    if status == "iteration cap" and trace.grad_norms[-1] <= target:
        status = "gradient"
    trace.termination = status
    trace.n_evals = ev.count
    return x, trace
