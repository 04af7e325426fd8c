"""Quasi-Newton minimizer: convergence, trace contract, failure modes."""

import dataclasses

import numpy as np
import pytest

from spod import lbfgs
from spod.lbfgs import (OptimizerAbort, OptimizerOptions, OptimizerTrace,
                        SolverState, minimize)


def quadratic(A, b):
    def fg(x):
        r = A @ x - b
        return 0.5 * float(r @ r), A.T @ r
    return fg


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


def cusp(x):
    """sqrt|x| in 1-d: every trial step from 0 rises above f(0) = 0."""
    a = abs(x[0])
    g = 0.5 * np.sign(x[0]) / np.sqrt(a) if a else 1.0
    return float(np.sqrt(a)), np.array([g])


def iterates(fg, x0, opts):
    """The states of the solve minimize(fg, x0, opts) at its start point and
    after each iteration, stepped one minimize call per iteration (a resumed
    solve goes on as the uninterrupted one, TestResume)."""
    trace = minimize(fg, x0, dataclasses.replace(opts, max_iters=0))[1]
    states = [trace.state]
    while len(states) <= opts.max_iters and trace.termination == "iteration cap":
        trace = minimize(fg, trace.state, OptimizerOptions(max_iters=1))[1]
        if trace.iterations:
            states.append(trace.state)
    return states


def slopes(states):
    """g_k.(x_{k+1} - x_k) of each iteration: its accepted step times the
    slope g_k.p_k of its search."""
    return [float(a.g @ (b.x - a.x)) for a, b in zip(states, states[1:])]


def same(a, b):
    """a and b hold the same bits: type, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(a, b):
    """Every SolverState field of a and b agrees bit for bit."""
    for fd in dataclasses.fields(SolverState):
        u, v = getattr(a, fd.name), getattr(b, fd.name)
        if fd.name == "pairs":
            assert len(u) == len(v)
            assert all(same(p, q) for pu, pv in zip(u, v)
                       for p, q in zip(pu, pv)), fd.name
        else:
            assert same(u, v), fd.name


class TestConvergence:
    def test_quadratic_reaches_analytic_minimum(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 8))
        b = rng.standard_normal(12)
        fg = quadratic(A, b)
        x, trace = minimize(fg, np.zeros(8), OptimizerOptions(grad_tol=1e-8))
        x_star = np.linalg.lstsq(A, b, rcond=None)[0]
        np.testing.assert_allclose(x, x_star, atol=1e-6)
        assert trace.termination == "gradient"

    def test_rosenbrock_2d(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimizerOptions(grad_tol=1e-10, max_iters=2000))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_rosenbrock_10d(self):
        x0 = np.full(10, -1.0)
        x, trace = minimize(rosenbrock, x0,
                            OptimizerOptions(grad_tol=1e-9, max_iters=5000))
        np.testing.assert_allclose(x, np.ones(10), atol=1e-5)

    def test_already_at_minimum(self):
        fg = quadratic(np.eye(3), np.zeros(3))
        x, trace = minimize(fg, np.zeros(3), OptimizerOptions())
        assert trace.iterations == 0
        assert trace.termination == "gradient"


class TestTraceContract:
    def test_sufficient_decrease_holds_at_every_iterate(self):
        # every accepted step satisfies the Armijo inequality
        # f_{k+1} <= f_k + c1 g_k.(x_{k+1} - x_k)
        opts = OptimizerOptions(max_iters=300)
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), opts)
        states = iterates(rosenbrock, np.array([-1.2, 1.0]), opts)
        assert len(states) == trace.iterations + 1
        assert_same_state(states[-1], trace.state)
        c1 = lbfgs.SUFFICIENT_DECREASE
        for a, b, slope in zip(states, states[1:], slopes(states)):
            assert b.f <= a.f + c1 * slope + 1e-12 * abs(a.f)

    def test_values_decrease(self):
        states = iterates(rosenbrock, np.array([0.5, 2.0]),
                          OptimizerOptions(max_iters=100))
        assert len(states) > 2
        assert all(b.f <= a.f for a, b in zip(states, states[1:]))

    def test_slopes_are_descent(self):
        states = iterates(rosenbrock, np.array([2.0, -1.0]),
                          OptimizerOptions(max_iters=100))
        assert len(states) > 2
        assert all(s < 0 for s in slopes(states))

    def test_eval_count(self):
        calls = [0]
        base = quadratic(np.eye(2), np.ones(2))

        def fg(x):
            calls[0] += 1
            return base(x)

        _, trace = minimize(fg, np.zeros(2), OptimizerOptions())
        assert trace.n_evals == calls[0]

    def test_trace_holds_counts_and_its_state(self):
        assert [fd.name for fd in dataclasses.fields(OptimizerTrace)] == [
            "iterations", "n_evals", "state"]
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimizerOptions(max_iters=3))
        assert not any(isinstance(getattr(trace, fd.name), list)
                       for fd in dataclasses.fields(OptimizerTrace))
        with pytest.raises(AttributeError):
            trace.termination = "gradient"

    def test_termination_is_read_from_the_state(self):
        at_minimum = quadratic(np.eye(3), np.zeros(3))
        ended = minimize(cusp, np.zeros(1), OptimizerOptions())[1].state
        cases = [
            (at_minimum, np.zeros(3), OptimizerOptions(), "gradient"),
            (rosenbrock, np.array([-1.2, 1.0]), OptimizerOptions(max_iters=3),
             "iteration cap"),
            (cusp, np.zeros(1), OptimizerOptions(), "line search failure"),
            (cusp, ended, OptimizerOptions(), "line search failure"),
            (lambda x: (0.0, x), np.zeros(0), OptimizerOptions(), "gradient"),
        ]
        for fg, x0, opts, ending in cases:
            trace = minimize(fg, x0, opts)[1]
            assert trace.termination == ending
            assert trace.termination is trace.state.termination


class TestTermination:
    def test_iteration_cap(self):
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimizerOptions(max_iters=3))
        assert trace.iterations <= 3
        assert trace.termination == "iteration cap"

    def test_relative_gradient_tolerance(self):
        # scale the function: the stopping test must scale with it
        A = np.diag([1.0, 3.0])
        b = np.array([1.0, 1.0])
        for scale in (1.0, 1e8):
            def fg(x, s=scale):
                f, g = quadratic(A, b)(x)
                return s * f, s * g
            _, trace = minimize(fg, np.zeros(2),
                                OptimizerOptions(grad_tol=1e-8))
            assert trace.termination == "gradient"

    def test_nonfinite_start_aborts(self):
        def fg(x):
            return float("nan"), np.zeros_like(x)
        with pytest.raises(OptimizerAbort):
            minimize(fg, np.zeros(2), OptimizerOptions())

    def test_flat_floor_ends_without_crash(self):
        # objective already at machine floor: line search cannot improve
        def fg(x):
            return 1e-18 * float(x @ x), 2e-18 * x
        x, trace = minimize(fg, np.ones(3), OptimizerOptions(grad_tol=1e-30))
        assert trace.termination in ("gradient", "line search failure",
                                     "iteration cap")

    def test_empty_variable_vector(self):
        def fg(x):
            return 0.0, x
        x, trace = minimize(fg, np.zeros(0), OptimizerOptions())
        assert x.size == 0
        assert trace.termination == "gradient"
        # the start point is evaluated and ends the solve by the gradient
        # test: its target is zero, and so is the gradient norm
        assert isinstance(trace.state, SolverState)
        assert trace.state.x.size == 0 and trace.state.termination == "gradient"
        assert trace.n_evals == 1 and trace.iterations == 0
        trace = minimize(fg, np.zeros(0), OptimizerOptions(max_iters=0))[1]
        assert trace.termination == "gradient" and trace.n_evals == 1


def recorded(fg):
    """fg plus the list of points it was called at (1-d problems)."""
    points = []

    def wrapped(x):
        points.append(float(x[0]))
        return fg(x)
    return wrapped, points


def parabola(x):
    return float((x[0] - 50.0) ** 2), 2.0 * (x - 50.0)


def first_alpha(f, g, metric):
    """The first trial step of an iteration without pairs:
    min(1, 1/|g|_M, 2f/|g|_M^2), the last term only for f > 0."""
    gg = float(g @ (metric * g))
    alpha = min(1.0, 1.0 / np.sqrt(gg))
    return min(alpha, 2.0 * f / gg) if f > 0.0 else alpha


class TestLineSearch:
    """Each branch of the strong-Wolfe search, driven through minimize on
    1-d problems whose trial points are known in closed form."""

    def test_expansion_accepted_by_curvature(self):
        # first search: alpha0 = 1/|g| = 0.01, below the cap 2f/|g|^2 =
        # 0.5, doubles until x = 8 meets the curvature condition; the
        # second search takes the Newton step
        f0, g0 = parabola(np.zeros(1))
        assert first_alpha(f0, g0, np.ones(1)) == 0.01 < 2.0 * f0 / 100.0 ** 2
        fg, points = recorded(parabola)
        x, trace = minimize(fg, np.zeros(1), OptimizerOptions())
        assert points == [0.0, 1.0, 2.0, 4.0, 8.0, 50.0]
        assert trace.n_evals == 6 and trace.iterations == 2
        states = iterates(parabola, np.zeros(1), OptimizerOptions())
        assert [st.x[0] for st in states] == [0.0, 8.0, 50.0]
        assert x[0] == 50.0
        assert trace.termination == "gradient"

    # the sharper cone takes zoom steps on both sides of its minimum, so
    # the bracket's side test swaps its ends
    @pytest.mark.parametrize("tip,n_evals,x_end,step", [
        (1.0, 9, 50.9015, 50.9117), (1e-2, 11, 50.1075, 50.1076)])
    def test_overshoot_then_zoom(self, tip, n_evals, x_end, step):
        def cone(x):
            r = np.sqrt(tip + (x[0] - 50.0) ** 2)
            return float(r), (x - 50.0) / r
        fg, points = recorded(cone)
        x, trace = minimize(fg, np.zeros(1), OptimizerOptions(max_iters=1))
        assert trace.iterations == 1
        # the doubling passes the minimum at x ~ 64 with a lower value and
        # a positive slope: the bracket is (64, 32), and the cubic steps
        # inside it end at one that meets both Wolfe conditions
        assert trace.n_evals == n_evals
        np.testing.assert_allclose(points[7], 64.0, rtol=1e-3)
        f_over, g_over = cone(np.array([points[7]]))
        assert f_over < cone(np.array([points[6]]))[0] and g_over[0] > 0.0
        assert 32.0 < x[0] < 64.0
        np.testing.assert_allclose(x[0], x_end, atol=1e-4)
        # the one step from x = 0 along p = -g(0)
        np.testing.assert_allclose(x[0] / -cone(np.zeros(1))[1][0], step,
                                   atol=1e-4)
        assert trace.termination == "iteration cap"

    def test_retreat_from_non_finite_region(self):
        def walled(x):
            if x[0] < 10.0:
                return parabola(x)
            return np.inf, np.full_like(x, np.nan)
        fg, points = recorded(walled)
        x, trace = minimize(fg, np.zeros(1), OptimizerOptions(max_iters=3))
        # the second search overshoots into the wall at x = 50 and zooms
        # back towards x = 10, which the third search cannot pass
        assert points[5] == 50.0
        assert trace.n_evals == 65
        assert trace.termination == "line search failure"
        assert trace.iterations == 2
        np.testing.assert_allclose(x[0], 10.0, atol=1e-6)
        assert x[0] < 10.0
        states = iterates(walled, np.zeros(1), OptimizerOptions(max_iters=3))
        assert len(states) == 3
        assert all(b.f < a.f for a, b in zip(states, states[1:]))

    def test_unbounded_descent_keeps_last_step(self):
        # the slope never flattens: each search spends its budget doubling
        # and the budget fallback keeps the last step, 2**29
        def fg(x):
            return -float(x[0]), -np.ones_like(x)
        _, trace = minimize(fg, np.zeros(1), OptimizerOptions(max_iters=2))
        assert trace.n_evals == 1 + 2 * lbfgs.SEARCH_EVALS
        assert trace.termination == "iteration cap"
        # p = -g = 1 at every iterate: each step is 2**29 long
        states = iterates(fg, np.zeros(1), OptimizerOptions(max_iters=2))
        assert [st.x[0] for st in states] == [0.0, 2.0 ** 29, 2.0 ** 30]

    def test_cusp_fails_after_budget(self):
        # every trial step rises above f(0) = 0: no sufficient decrease
        x, trace = minimize(cusp, np.zeros(1), OptimizerOptions())
        assert trace.iterations == 0
        assert trace.n_evals == 1 + lbfgs.SEARCH_EVALS
        assert trace.termination == "line search failure"
        assert x[0] == 0.0


class TestFirstTrialStep:
    """Without curvature pairs the first trial point is x - alpha M g with
    alpha = first_alpha; each case says which term binds (the parabola of
    TestLineSearch is the case where 1/|g| does)."""

    def test_zero_residual_least_squares_takes_the_cap(self):
        # f = |A x - b|^2 / 2 vanishes at its minimum: a quadratic along
        # -M g that stays nonnegative has its minimizer at or below 2f/|g|^2
        rng = np.random.default_rng(8)
        A = 3.0 * rng.standard_normal((12, 8))
        fg = quadratic(A, A @ (0.1 * rng.standard_normal(8)))
        metric = rng.uniform(0.5, 1.0, 8)
        x0 = np.zeros(8)
        f0, g0 = fg(x0)
        alpha = first_alpha(f0, g0, metric)
        gg = g0 @ (metric * g0)
        assert alpha == 2.0 * f0 / gg < 1.0 / np.sqrt(gg)
        points = []

        def recording(x):
            points.append(x.copy())
            return fg(x)
        minimize(recording, lbfgs.start_state(x0, f0, g0, 1e-6, metric),
                 OptimizerOptions(max_iters=1))
        np.testing.assert_allclose(points[0], x0 - alpha * metric * g0,
                                   rtol=1e-14)

    def test_negative_value_keeps_one_over_the_gradient_norm(self):
        # f(0) = -20: 2|f|/|g|^2 = 0.004 would bind, and a cap taken at
        # f < 0 would step backwards; the first trial is x = 0.01 * 100
        def below(x):
            f, g = parabola(x)
            return f - 2520.0, g
        fg, points = recorded(below)
        minimize(fg, np.zeros(1), OptimizerOptions(max_iters=1))
        assert points[:2] == [0.0, 1.0]

    def test_steepest_descent_restart_takes_the_cap(self, monkeypatch):
        # the two-loop direction forced uphill at iteration 4 clears the
        # pairs; the restart's first trial is capped like a first step
        two_loop, calls, seen = lbfgs._two_loop, [0], []
        evaluated = []

        def uphill_once(g, pairs, gamma, metric):
            calls[0] += 1
            q = two_loop(g, pairs, gamma, metric)
            if calls[0] == 4:
                seen.append((len(evaluated), g.copy()))
                return -q
            return q

        def fg(x):
            f, g = rosenbrock(x)
            evaluated.append((x.copy(), f, g))
            return f, g
        monkeypatch.setattr(lbfgs, "_two_loop", uphill_once)
        minimize(fg, np.full(10, -1.0), OptimizerOptions(1e-9, 5))
        (k, g), = seen
        x, f = next((x, f) for x, f, gx in evaluated[:k]
                    if np.array_equal(gx, g))
        alpha = first_alpha(f, g, np.ones(10))
        assert alpha == 2.0 * f / (g @ g) < 1.0 / np.sqrt(g @ g)
        np.testing.assert_allclose(evaluated[k][0], x - alpha * g,
                                   rtol=1e-14)


def random_quadratic():
    rng = np.random.default_rng(4)
    return quadratic(rng.standard_normal((14, 10)), rng.standard_normal(14))


def counting(fg):
    """fg plus the list of (copies of) the points it was called at."""
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        return fg(x)
    return wrapped, calls


def same_calls(a, b):
    return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))


class TestResume:
    """A solve cut after k1 iterations and resumed goes on bit for bit as
    the uninterrupted solve: the same calls of fg, in the same order, and
    the same end state.  grad_tol is the first call's (the resumed call's
    123.0 would stop it at once)."""

    PROBLEMS = {
        "rosenbrock-10d": (rosenbrock, np.full(10, -1.0),
                           OptimizerOptions(grad_tol=1e-9, max_iters=60)),
        "quadratic": (random_quadratic(), np.zeros(10),
                      OptimizerOptions(grad_tol=1e-12, max_iters=40)),
    }

    @pytest.mark.parametrize("k1", [0, 1, 3, 7])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_split_matches_one_solve(self, name, k1):
        fg, x0, opts = self.PROBLEMS[name]
        fg, calls = counting(fg)
        x_ref, ref = minimize(fg, x0, opts)
        calls_ref = calls[:]
        del calls[:]
        x, first = minimize(fg, x0, OptimizerOptions(opts.grad_tol, k1))
        assert first.iterations == k1 and first.termination == "iteration cap"
        x, second = minimize(fg, first.state,
                             OptimizerOptions(123.0, opts.max_iters - k1))
        assert same(x, x_ref)
        assert same_calls(calls, calls_ref)
        assert_same_state(second.state, ref.state)
        assert first.iterations + second.iterations == ref.iterations
        assert first.n_evals + second.n_evals == ref.n_evals == len(calls)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_start_state_is_the_fresh_start(self, name):
        # a caller that evaluated the start point itself passes its value
        # and gradient through start_state and saves that one evaluation
        fg, x0, opts = self.PROBLEMS[name]
        fg, calls = counting(fg)
        x_ref, ref = minimize(fg, x0, opts)
        calls_ref = calls[1:]
        state = lbfgs.start_state(x0.copy(), *fg(x0), opts.grad_tol)
        del calls[:]
        x, trace = minimize(fg, state, opts)
        assert same(x, x_ref)
        assert same_calls(calls, calls_ref)
        assert_same_state(trace.state, ref.state)
        assert trace.iterations == ref.iterations
        assert trace.n_evals == len(calls) == ref.n_evals - 1

    def test_start_state_rejects_a_nonfinite_start(self):
        for f, g in ((float("nan"), np.zeros(2)), (1.0, np.array([0.0, np.inf]))):
            with pytest.raises(OptimizerAbort):
                lbfgs.start_state(np.zeros(2), f, g, 1e-6)

    def test_split_right_after_a_steepest_descent_restart(self, monkeypatch):
        # a two-loop direction forced uphill once, at iteration 4, makes the
        # solve clear its pairs and take a steepest-descent step; the cut
        # falls right after that step, with one fresh pair in memory
        two_loop, calls = lbfgs._two_loop, [0]

        def uphill_once(g, pairs, gamma, metric):
            calls[0] += 1
            q = two_loop(g, pairs, gamma, metric)
            return -q if calls[0] == 4 else q

        monkeypatch.setattr(lbfgs, "_two_loop", uphill_once)
        fg, points = counting(rosenbrock)
        opts = OptimizerOptions(grad_tol=1e-9, max_iters=30)
        x_ref, ref = minimize(fg, np.full(10, -1.0), opts)
        points_ref = points[:]
        calls[0] = 0
        del points[:]
        x, first = minimize(fg, np.full(10, -1.0), OptimizerOptions(1e-9, 5))
        assert calls[0] == 4
        assert len(first.state.pairs) == 1  # cleared, then the restart's pair
        x, second = minimize(fg, first.state, OptimizerOptions(1e-9, 25))
        assert same(x, x_ref)
        assert same_calls(points, points_ref)
        assert_same_state(second.state, ref.state)
        assert first.iterations + second.iterations == ref.iterations
        assert first.n_evals + second.n_evals == ref.n_evals

    def test_ended_solves_resume_without_calls(self):
        cases = [(quadratic(np.eye(3), np.ones(3)), np.zeros(3), "gradient"),
                 (cusp, np.zeros(1), "line search failure")]
        for fg, x0, ending in cases:
            fg, calls = counting(fg)
            x, trace = minimize(fg, x0, OptimizerOptions(max_iters=50))
            assert trace.termination == ending
            before = len(calls)
            x2, again = minimize(fg, trace.state, OptimizerOptions(max_iters=50))
            assert len(calls) == before
            assert again.n_evals == 0 and again.iterations == 0
            assert again.state is trace.state
            assert np.array_equal(x2, x)

    def test_returned_point_is_not_the_state(self):
        x, trace = minimize(rosenbrock, np.full(4, -1.0),
                            OptimizerOptions(max_iters=3))
        x[:] = 7.0
        assert not np.any(trace.state.x == 7.0)


def badly_scaled_quadratic():
    """|A x - b|^2 / 2 with column norms from 1e-2 to 1e2, and the Jacobi
    metric M = 1 / diag(A^T A) that undoes that scaling."""
    rng = np.random.default_rng(6)
    A = rng.standard_normal((14, 10)) * np.logspace(-2, 2, 10)
    return quadratic(A, rng.standard_normal(14)), 1.0 / np.sum(A * A, axis=0)


class TestMetric:
    """A diagonal metric M is the change of variables u = x / sqrt(M): the
    solve in x with metric M makes, iterate for iterate, the evaluations of
    the solve in u with the identity metric, its reference."""

    @staticmethod
    def problem(name):
        """fg, x0, options and metric."""
        if name == "quadratic":
            fg, metric = badly_scaled_quadratic()
            return fg, np.zeros(10), OptimizerOptions(grad_tol=1e-8), metric
        metric = np.random.default_rng(7).permutation(np.logspace(-1, 1, 10))
        return (rosenbrock, np.full(10, -1.0),
                OptimizerOptions(grad_tol=1e-9, max_iters=30), metric)

    @pytest.mark.parametrize("name", ["quadratic", "rosenbrock-10d"])
    def test_metric_is_a_change_of_variables(self, name):
        fg, x0, opts, metric = self.problem(name)
        s = np.sqrt(metric)
        xs, us = [], []

        def fg_x(x):
            xs.append(x.copy())
            return fg(x)

        def fg_u(u):  # the reference: the problem in u, x = s * u
            us.append(s * u)
            f, g = fg(s * u)
            return f, s * g

        f0, g0 = fg(x0)
        start_x = lbfgs.start_state(x0, f0, g0, opts.grad_tol, metric)
        start_u = lbfgs.start_state(x0 / s, f0, s * g0, opts.grad_tol)
        x, tx = minimize(fg_x, start_x, opts)
        u, tu = minimize(fg_u, start_u, opts)
        assert tx.iterations == tu.iterations > 0
        assert tx.n_evals == tu.n_evals == len(xs) == len(us)
        assert tx.termination == tu.termination
        if name == "quadratic":
            assert tx.termination == "gradient"

        def close(a, b, rtol=1e-12):  # relative to the largest magnitude
            a, b = np.asarray(a), np.asarray(b)
            return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))

        assert all(close(a, b) for a, b in zip(xs, us))
        assert close(x, s * u)
        # iterate for iterate: the values, the gradients' norms in each
        # solve's metric, the steps and their slopes g_k.(x_{k+1} - x_k)
        px, pu = iterates(fg_x, start_x, opts), iterates(fg_u, start_u, opts)
        assert len(px) == len(pu) == tx.iterations + 1
        assert close([st.f for st in px], [st.f for st in pu])
        assert close([np.sqrt(st.g @ (metric * st.g)) for st in px],
                     [np.linalg.norm(st.g) for st in pu])
        assert close(slopes(px), slopes(pu))
        # a cubic step divides by a difference of slopes: the quadratic's
        # one such step agrees to 1.1e-11 while its iterate agrees to 1e-14
        assert close(np.diff([st.x for st in px], axis=0),
                     s * np.diff([st.x for st in pu], axis=0), rtol=1e-10)
        assert np.array_equal(tx.state.metric, metric)
        assert close(tx.state.target, tu.state.target)


class TestOptions:
    def test_stopping_rule_validated(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_iters=-1)
        for grad_tol in (np.inf, np.nan):
            with pytest.raises(ValueError):
                OptimizerOptions(grad_tol=grad_tol)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), float("inf"),
                                           "3", None])
    def test_iteration_cap_must_be_an_integer(self, max_iters):
        # refused when built, not first inside the solve, in range()
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            OptimizerOptions(max_iters=max_iters)

    def test_integral_iteration_cap_becomes_an_int(self):
        for max_iters in (3.0, np.int64(3)):
            opts = OptimizerOptions(max_iters=max_iters)
            assert opts.max_iters == 3 and type(opts.max_iters) is int
