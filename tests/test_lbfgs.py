"""Quasi-Newton minimizer: convergence, trace contract, failure modes."""

import numpy as np
import pytest

from spod import lbfgs
from spod.lbfgs import OptimizerAbort, OptimizerOptions, SolverState, minimize


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
    def test_sufficient_decrease_assertable(self):
        # every accepted step satisfies the Armijo inequality, which the
        # trace must expose: f_{k+1} <= f_k + c1 * alpha_k * slope_k
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimizerOptions(max_iters=300))
        c1 = lbfgs.SUFFICIENT_DECREASE
        assert len(trace.values) == trace.iterations + 1
        assert len(trace.step_sizes) == trace.iterations
        assert len(trace.slopes) == trace.iterations
        for k in range(trace.iterations):
            bound = trace.values[k] + c1 * trace.step_sizes[k] * trace.slopes[k]
            assert trace.values[k + 1] <= bound + 1e-12 * abs(trace.values[k])

    def test_values_decrease(self):
        _, trace = minimize(rosenbrock, np.array([0.5, 2.0]),
                            OptimizerOptions(max_iters=100))
        assert all(b <= a for a, b in zip(trace.values, trace.values[1:]))

    def test_slopes_are_descent(self):
        _, trace = minimize(rosenbrock, np.array([2.0, -1.0]),
                            OptimizerOptions(max_iters=100))
        assert all(s < 0 for s in trace.slopes)

    def test_eval_count(self):
        calls = [0]
        base = quadratic(np.eye(2), np.ones(2))

        def fg(x):
            calls[0] += 1
            return base(x)

        _, trace = minimize(fg, np.zeros(2), OptimizerOptions())
        assert trace.n_evals == calls[0]


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
        assert trace.n_evals == 6
        assert trace.step_sizes == [0.08, 1.0]
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
        # the doubling passes the minimum at x ~ 64 with a lower value and
        # a positive slope: the bracket is (64, 32), and the cubic steps
        # inside it end at one that meets both Wolfe conditions
        assert trace.n_evals == n_evals
        np.testing.assert_allclose(points[7], 64.0, rtol=1e-3)
        f_over, g_over = cone(np.array([points[7]]))
        assert f_over < cone(np.array([points[6]]))[0] and g_over[0] > 0.0
        assert 32.0 < x[0] < 64.0
        np.testing.assert_allclose(x[0], x_end, atol=1e-4)
        np.testing.assert_allclose(trace.step_sizes, [step], atol=1e-4)
        assert trace.termination == "iteration cap"

    def test_retreat_from_non_finite_region(self):
        def fg(x):
            if x[0] < 10.0:
                return parabola(x)
            return np.inf, np.full_like(x, np.nan)
        fg, points = recorded(fg)
        x, trace = minimize(fg, np.zeros(1), OptimizerOptions(max_iters=3))
        # the second search overshoots into the wall at x = 50 and zooms
        # back towards x = 10, which the third search cannot pass
        assert points[5] == 50.0
        assert trace.n_evals == 65
        assert trace.termination == "line search failure"
        assert trace.iterations == 2
        np.testing.assert_allclose(x[0], 10.0, atol=1e-6)
        assert x[0] < 10.0
        assert all(b < a for a, b in zip(trace.values, trace.values[1:]))

    def test_unbounded_descent_keeps_last_step(self):
        # the slope never flattens: each search spends its budget doubling
        # and the budget fallback keeps the last step, 2**29
        def fg(x):
            return -float(x[0]), -np.ones_like(x)
        _, trace = minimize(fg, np.zeros(1), OptimizerOptions(max_iters=2))
        assert trace.n_evals == 1 + 2 * lbfgs.SEARCH_EVALS
        assert trace.step_sizes == [2.0 ** 29, 2.0 ** 29]
        assert trace.termination == "iteration cap"

    def test_cusp_fails_after_budget(self):
        # every trial step rises above f(0) = 0: no sufficient decrease
        def fg(x):
            a = abs(x[0])
            g = 0.5 * np.sign(x[0]) / np.sqrt(a) if a else 1.0
            return float(np.sqrt(a)), np.array([g])
        x, trace = minimize(fg, np.zeros(1), OptimizerOptions())
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
    """fg plus a one-element list counting its calls."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fg(x)
    return wrapped, calls


def split_solve(fg, x0, opts, k1):
    """The solve cut after k1 iterations and resumed to opts.max_iters: the
    end point and the two traces joined as one (the resumed trace's
    values[0] repeats the point it resumed from)."""
    x, first = minimize(fg, x0, OptimizerOptions(opts.grad_tol, k1))
    assert isinstance(first.state, SolverState)
    x, second = minimize(fg, first.state,
                         OptimizerOptions(123.0, opts.max_iters - k1))
    assert second.values[0] == first.values[-1]
    assert second.grad_norms[0] == first.grad_norms[-1]
    joined = {
        "values": first.values + second.values[1:],
        "grad_norms": first.grad_norms + second.grad_norms[1:],
        "step_sizes": first.step_sizes + second.step_sizes,
        "slopes": first.slopes + second.slopes,
        "n_evals": first.n_evals + second.n_evals,
        "termination": second.termination,
    }
    return x, joined


class TestResume:
    """A solve cut after k1 iterations and resumed goes on bit for bit as
    the uninterrupted solve; grad_tol is the first call's (the resumed
    call's 123.0 would stop it at once)."""

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
        calls_ref = calls[0]
        x, joined = split_solve(fg, x0, opts, k1)
        assert np.array_equal(x, x_ref)
        for key in ("values", "grad_norms", "step_sizes", "slopes"):
            assert joined[key] == getattr(ref, key), key
        assert joined["n_evals"] == ref.n_evals == calls[0] - calls_ref
        assert joined["termination"] == ref.termination

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_start_state_is_the_fresh_start(self, name):
        # a caller that evaluated the start point itself passes its value
        # and gradient through start_state and saves that one evaluation
        fg, x0, opts = self.PROBLEMS[name]
        fg, calls = counting(fg)
        x_ref, ref = minimize(fg, x0, opts)
        state = lbfgs.start_state(x0.copy(), *fg(x0), opts.grad_tol)
        calls[0] = 0
        x, trace = minimize(fg, state, opts)
        assert np.array_equal(x, x_ref)
        for key in ("values", "grad_norms", "step_sizes", "slopes",
                    "termination"):
            assert getattr(trace, key) == getattr(ref, key), key
        assert trace.n_evals == calls[0] == ref.n_evals - 1

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
        opts = OptimizerOptions(grad_tol=1e-9, max_iters=30)
        x_ref, ref = minimize(rosenbrock, np.full(10, -1.0), opts)
        calls[0] = 0
        x, first = minimize(rosenbrock, np.full(10, -1.0),
                            OptimizerOptions(1e-9, 5))
        assert calls[0] == 4
        assert len(first.state.pairs) == 1  # cleared, then the restart's pair
        x, second = minimize(rosenbrock, first.state, OptimizerOptions(1e-9, 25))
        assert np.array_equal(x, x_ref)
        assert first.step_sizes + second.step_sizes == ref.step_sizes
        assert first.values + second.values[1:] == ref.values
        assert first.n_evals + second.n_evals == ref.n_evals

    def test_ended_solves_resume_without_calls(self):
        def cusp(x):
            a = abs(x[0])
            g = 0.5 * np.sign(x[0]) / np.sqrt(a) if a else 1.0
            return float(np.sqrt(a)), np.array([g])
        cases = [(quadratic(np.eye(3), np.ones(3)), np.zeros(3), "gradient"),
                 (cusp, np.zeros(1), "line search failure")]
        for fg, x0, ending in cases:
            fg, calls = counting(fg)
            x, trace = minimize(fg, x0, OptimizerOptions(max_iters=50))
            assert trace.termination == ending
            before = calls[0]
            x2, again = minimize(fg, trace.state, OptimizerOptions(max_iters=50))
            assert calls[0] == before
            assert again.n_evals == 0 and again.iterations == 0
            assert again.termination == ending
            assert again.values == trace.values[-1:]
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
        x, tx = minimize(fg_x, lbfgs.start_state(x0, f0, g0, opts.grad_tol,
                                                 metric), opts)
        u, tu = minimize(fg_u, lbfgs.start_state(x0 / s, f0, s * g0,
                                                 opts.grad_tol), opts)
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
        for key in ("values", "grad_norms", "slopes"):
            assert close(getattr(tx, key), getattr(tu, key)), key
        # a cubic step divides by a difference of slopes: the quadratic's
        # one such step agrees to 1.1e-11 while its iterate agrees to 1e-14
        assert close(tx.step_sizes, tu.step_sizes, rtol=1e-10)
        assert np.array_equal(tx.state.metric, metric)


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
