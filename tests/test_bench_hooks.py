"""The benchmark's tracer wraps package attributes by name; each must exist,
and each result it reads must hold what it reads.

bench/worker.py install() replaces functions and methods of the package
by timed wrappers at the attributes their callers resolve, and an attrs
callback reads counts off each call's arguments and result.  A rename or
removal in the package would only show in a traced benchmark run, so
these tests run install() against a stub tracer that checks every
attribute it is asked to wrap, keeps the callbacks and changes nothing,
then apply the callbacks to the calls of a real decomposition.
"""

import importlib.util
import inspect
import os

import spod.greedy
from spod.core import ReducedObjective
from spod.generators import three_signal_default
from spod.greedy import GreedyConfig
from spod.lbfgs import OptimizerOptions

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


class _CheckingTracer:
    def __init__(self):
        self.wrapped = []
        self.attrs = {}

    def wrap(self, owner, attr, name, attrs=None):
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {getattr(owner, '__name__', owner)}.{attr} is not callable")
        self.wrapped.append(name)
        if attrs:
            self.attrs[name] = attrs


def installed(monkeypatch):
    """The stub tracer after bench/worker.py install() ran against it."""
    monkeypatch.syspath_prepend(BENCH)  # worker imports its sibling workloads
    spec = importlib.util.spec_from_file_location(
        "bench_worker", os.path.join(BENCH, "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    tracer = _CheckingTracer()
    worker.install(tracer)
    return tracer


def test_every_wrapped_attribute_exists(monkeypatch):
    assert installed(monkeypatch).wrapped


def recording(monkeypatch, owner, attr, calls):
    """Replace owner.attr by a wrapper that appends (args, kwargs, result)
    of every call to calls."""
    fn = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    monkeypatch.setattr(owner, attr, wrapped)


def test_callbacks_read_real_results(monkeypatch):
    attrs = installed(monkeypatch).attrs
    assert {"core.evaluate", "greedy.spod_decompose",
            "lbfgs.minimize"} <= set(attrs)
    signature = inspect.signature(ReducedObjective.evaluate)
    solves, evals = [], []
    recording(monkeypatch, spod.greedy, "minimize", solves)
    recording(monkeypatch, ReducedObjective, "evaluate", evals)
    snaps, shifts = three_signal_default(m=32, n=12)
    config = GreedyConfig(r0=[1, 0, 0], tol=1e-6, p_max=1,
                          optimizer=OptimizerOptions(grad_tol=1e-8, max_iters=25))
    result = spod.greedy.spod_decompose(snaps, shifts, config)
    report = result[1]
    assert len(report.chosen_frames) == 1  # p_max: one greedy iteration

    run = attrs["greedy.spod_decompose"]((snaps, shifts, config), {}, result)
    assert run == {
        "iterations": 1,
        "kept_evals": sum(st["evaluations"] for st in report.stages),
        "rank_deficient_evals": sum(st["rank_deficient_evals"]
                                    for st in report.stages)}

    # the kept solves' iterations are among those of all minimize calls
    assert solves
    read = [attrs["lbfgs.minimize"](*call) for call in solves]
    for r, (_, _, (_, trace)) in zip(read, solves):
        assert type(r["iterations"]) is int and type(r["evals"]) is int
        assert r["capped"] is (trace.state.termination == "iteration cap")
    assert sum(r["iterations"] for r in read) >= sum(
        st["iterations"] for st in report.stages)
    assert any(r["capped"] for r in read)

    read = [attrs["core.evaluate"](args, kwargs, result)
            for args, kwargs, result in evals]
    assert [r["gradient"] for r in read] == [
        signature.bind(*args, **kwargs).arguments.get("need_gradient", True)
        for args, kwargs, _ in evals]
    assert {r["gradient"] for r in read} == {True, False}
