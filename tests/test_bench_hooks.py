"""The benchmark's tracer wraps package attributes by name; each must exist.

bench/worker.py install() replaces functions and methods of the package
by timed wrappers at the attributes their callers resolve.  A rename or
removal in the package would only show in a traced benchmark run, so
this test runs install() against a stub tracer that checks every
attribute it is asked to wrap and changes nothing.
"""

import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


class _CheckingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, attrs=None):
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {getattr(owner, '__name__', owner)}.{attr} is not callable")
        self.wrapped.append(name)


def test_every_wrapped_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # worker imports its sibling workloads
    spec = importlib.util.spec_from_file_location(
        "bench_worker", os.path.join(BENCH, "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    tracer = _CheckingTracer()
    worker.install(tracer)
    assert tracer.wrapped
