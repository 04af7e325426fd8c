"""Benchmark worker: one fresh interpreter per call, started by run.py.

    python worker.py setup WORKLOAD SEED DIR
    python worker.py run   WORKLOAD SEED SECONDS DIR
    python worker.py trace WORKLOAD SEED SECONDS DIR TRACE_FILE

The package under test is imported from the checkout's src/ (run.py puts
it on PYTHONPATH) and receives only the generated arrays and files.
Every result is one JSON object per stdout line; run.py reads them.

setup  times `import spod` plus input generation (and, for the pipeline,
       writing its config), and `import spod.cli` on its own.
run    repeats the workload until SECONDS would be exceeded, timing and
       gating every repeat, then reports the peak resident memory.
trace  repeats the workload untraced for half of SECONDS, then once with
       spans around the public functions of every layer, and derives the
       per-layer metrics from those spans.
"""

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

LIBRARY = ("wave-pair", "crossing-fronts")


def emit(kind, **fields):
    print(json.dumps({"kind": kind, **fields}), flush=True)


class RepeatTimeout(BaseException):
    """Raised by the interval timer when one repeat exceeds its limit."""


def _alarm(signum, frame):
    raise RepeatTimeout()


@contextlib.contextmanager
def time_limit(seconds):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def repeat_for(seconds, once, warmups=0):
    """Call once() `warmups` times, then until `seconds` have passed
    (at least once).  Stops early after a time-out."""
    records = []
    start = None
    while True:
        if len(records) == warmups:
            start = time.perf_counter()
        rec = once()
        rec["warmup"] = start is None
        records.append(rec)
        if rec["reason"] == "time-out":
            return records
        if start is not None and time.perf_counter() - start >= seconds:
            return records


# --- library workloads ----------------------------------------------------

def library_inputs(workload, seed):
    import spod
    from spod.lbfgs import OptimizerOptions

    if workload == "wave-pair":
        params = spod.WaveParams(**wl.wave_params(seed))
        config = spod.GreedyConfig(r0=[1, 1], tol=wl.WAVE_TOL,
                                   threads=wl.GREEDY_THREADS)
        return spod.wave_snapshots(params), spod.wave_shifts(params), config
    params = spod.CrossingFrontsParams(**wl.crossing_params(seed))
    snaps, shifts = spod.crossing_fronts(params)
    config = spod.GreedyConfig(
        r0=[1, 1, 1, 1, 0], tol=wl.CROSSING_TOL, threads=wl.GREEDY_THREADS,
        optimizer=OptimizerOptions(max_iters=wl.CROSSING_MAX_ITERS))
    return snaps, shifts, config


def library_gate(workload, snaps, dec, report):
    """(ok, modes_total, residual, reason) from an explicit reconstruction."""
    import numpy as np
    import spod.core
    from spod.snapshots import relative_error

    residual = relative_error(snaps.data, spod.core.reconstruct(dec))
    modes = sum(report.r_final)
    if workload == "wave-pair":
        if residual > wl.WAVE_TOL:
            return False, modes, residual, f"residual {residual:.3e}"
        if modes != 2 or report.chosen_frames:
            return False, modes, residual, f"r_final {report.r_final}"
        return True, modes, residual, ""
    if residual > wl.CROSSING_TOL:
        return False, modes, residual, f"residual {residual:.3e}"
    if modes > wl.CROSSING_MAX_MODES:
        return False, modes, residual, f"r_final {report.r_final}"
    for q, row in zip(report.chosen_frames, report.candidate_errors):
        if q != int(np.argmin(row)):
            return False, modes, residual, f"frame {q} is not the argmin"
    return True, modes, residual, ""


def library_repeat(workload, inputs):
    import spod.greedy

    snaps, shifts, config = inputs
    t0 = time.perf_counter()
    try:
        with time_limit(wl.REPEAT_LIMIT_S[workload]):
            dec, report = spod.greedy.spod_decompose(snaps, shifts, config)
    except RepeatTimeout:
        return {"seconds": time.perf_counter() - t0, "ok": False,
                "reason": "time-out"}
    seconds = time.perf_counter() - t0
    ok, modes, residual, reason = library_gate(workload, snaps, dec, report)
    return {"seconds": seconds, "ok": ok, "modes_total": modes,
            "residual": residual, "reason": reason}


# --- cli pipeline -----------------------------------------------------------

def cli_pass(seed, workdir, step, around=contextlib.nullcontext):
    """One pass of the pipeline in a fresh directory, timed inside
    around().  step(name, argv, cwd, seconds) runs one subcommand within
    `seconds` and returns (exit code, stdout)."""
    d = tempfile.mkdtemp(dir=workdir)
    with open(os.path.join(d, "run.cfg"), "w") as f:
        f.write(wl.cli_config(seed))
    outputs, steps = {}, {}
    rec = {"ok": True, "reason": ""}
    t0 = time.perf_counter()
    deadline = t0 + wl.REPEAT_LIMIT_S["cli-pipeline"]
    with around():
        for name, argv in wl.cli_chain(seed):
            s0 = time.perf_counter()
            try:
                if s0 >= deadline:
                    raise RepeatTimeout()
                code, out = step(name, argv, d, deadline - s0)
            except (RepeatTimeout, subprocess.TimeoutExpired):
                rec.update(ok=False, reason="time-out")
                break
            steps[name] = time.perf_counter() - s0
            outputs[name] = out
            if code != 0:
                rec.update(ok=False, reason=f"{name} exited with {code}")
                break
    rec["seconds"] = time.perf_counter() - t0
    rec["steps"] = steps
    if rec["ok"]:
        ok, modes, residual, reason = wl.cli_gate(outputs)
        rec.update(ok=ok, modes_total=modes, residual=residual, reason=reason)
    return rec, d


def subprocess_step(name, argv, cwd, seconds):
    proc = subprocess.run([sys.executable, "-m", "spod.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=seconds)
    return proc.returncode, proc.stdout


def inprocess_step(tracer=None):
    import spod.cli

    def step(name, argv, cwd, seconds):
        out = io.StringIO()
        span = tracer.span("cli." + name) if tracer else contextlib.nullcontext()
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    time_limit(seconds), span:
                code = spod.cli.run_cli(argv)
        finally:
            os.chdir(old)
        return code, out.getvalue()
    return step


def cli_repeat(seed, workdir, step):
    rec, d = cli_pass(seed, workdir, step)
    shutil.rmtree(d)
    return rec


# --- tracing --------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent, root) kept in memory.

    wrap() replaces a module or class attribute by a function that opens
    a span around the original; attrs(args, kwargs, result) may return
    extra fields for the span.  A missing attribute raises, so a renamed
    function fails the traced run instead of reading as zero time.
    restore() puts every original back.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patched = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self.stack[-1] if self.stack else None,
               "root": self.spans[self.stack[0]]["name"] if self.stack
               else name}
        self.spans.append(rec)
        self.stack.append(index)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr, name, attrs=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if attrs:
                rec.update(attrs(args, kwargs, result))
            return result

        self.patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _size(path):
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


IO_FUNCTIONS = {  # name: (kind, index of the path argument)
    "read_snapshots": ("read", 0), "read_snapshots_csv": ("read", 0),
    "read_shifts": ("read", 0), "read_decomposition": ("read", 0),
    "write_snapshots": ("write", 1), "write_snapshots_csv": ("write", 1),
    "write_shifts": ("write", 1), "write_decomposition": ("write", 1),
    "write_report": ("write", 1), "write_curve": ("write", 0),
    "load_config": ("config", 0), "write_manifest": ("config", 1),
}


def install(tracer):
    """Wrap the public functions at the attributes their callers resolve."""
    import spod.cli
    import spod.core
    import spod.greedy
    import spod.io

    def decompose_attrs(args, kwargs, result):
        report = result[1]
        return {"iterations": len(report.chosen_frames),
                "kept_evals": sum(s["evaluations"] for s in report.stages),
                "rank_deficient_evals": sum(s["rank_deficient_evals"]
                                            for s in report.stages)}

    def minimize_attrs(args, kwargs, result):
        trace = result[1]
        return {"iterations": trace.iterations, "evals": trace.n_evals,
                "capped": trace.termination == "iteration cap"}

    def evaluate_attrs(args, kwargs, result):
        grad = args[2] if len(args) > 2 else kwargs.get("need_gradient", True)
        return {"gradient": bool(grad)}

    for mod in (spod.greedy, spod.cli):
        tracer.wrap(mod, "spod_decompose", "greedy.spod_decompose",
                    decompose_attrs)
    tracer.wrap(spod.greedy, "minimize", "lbfgs.minimize", minimize_attrs)
    tracer.wrap(spod.greedy, "initialize_frames", "greedy.initialize_frames")
    tracer.wrap(spod.greedy, "back_shifted_matrix",
                "greedy.back_shifted_matrix")
    tracer.wrap(spod.core.ReducedObjective, "evaluate", "core.evaluate",
                evaluate_attrs)
    tracer.wrap(spod.core, "shift_operator", "shifts.shift_operator")
    for mod in (spod.core, spod.greedy):
        tracer.wrap(mod, "apply_shift", "shifts.apply_shift")
    for mod in (spod.core, spod.cli):
        tracer.wrap(mod, "reconstruct", "core.reconstruct")
    tracer.wrap(spod.cli, "track_front", "tracking.track_front")
    tracer.wrap(spod.cli, "modes_for_tolerance", "pod.modes_for_tolerance")
    tracer.wrap(spod.cli, "truncation_curve", "pod.truncation_curve")
    for fn, (kind, pos) in IO_FUNCTIONS.items():
        tracer.wrap(spod.io, fn, f"io.{kind}.{fn}",
                    lambda a, k, r, pos=pos: _size(a[pos] if len(a) > pos
                                                   else None))


def self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, untraced_s, probe):
    """Per-layer metrics from the spans under the root 'run'; reconstruct
    time also counts the library gate's reconstruction."""
    selfs = self_times(spans)
    run = [(s, t) for s, t in zip(spans, selfs) if s["root"] == "run"]

    def dur(s):
        return s["end"] - s["start"]

    def named(prefix):
        return [s for s, _ in run if s["name"].startswith(prefix)]

    def total(prefix):
        return sum(dur(s) for s in named(prefix))

    def self_total(prefix):
        return sum(t for s, t in run if s["name"].startswith(prefix))

    def mean_ms(items):
        return 1000 * sum(map(dur, items)) / len(items) if items else 0.0

    evals = named("core.evaluate")
    solves = named("lbfgs.minimize")
    decomposes = named("greedy.spod_decompose")
    lbfgs_evals = sum(s["evals"] for s in solves)
    iterations = sum(s["iterations"] for s in solves)
    root = next(s for s, _ in run if s["name"] == "run")
    run_s = dur(root)
    return {
        "shifts.operator_calls": len(named("shifts.shift_operator")),
        "shifts.operator_s": total("shifts.shift_operator"),
        "shifts.apply_calls": len(named("shifts.apply_shift")),
        "shifts.apply_s": total("shifts.apply_shift"),
        "core.evals": len(evals),
        "core.eval_s": total("core.evaluate"),
        "core.eval_ms": mean_ms([s for s in evals if s["gradient"]]),
        "core.eval_nograd_ms": mean_ms([s for s in evals
                                        if not s["gradient"]]),
        "core.vg_ms": probe["vg_ms"],
        "core.value_ms": probe["value_ms"],
        "core.grad_ms": probe["vg_ms"] - probe["value_ms"],
        "core.reconstruct_s": sum(dur(s) for s in spans
                                  if s["name"] == "core.reconstruct"),
        "core.rank_deficient_evals": sum(s["rank_deficient_evals"]
                                         for s in decomposes),
        "lbfgs.solves": len(solves),
        "lbfgs.iterations": iterations,
        "lbfgs.evals": lbfgs_evals,
        "lbfgs.iters_per_eval": iterations / lbfgs_evals if lbfgs_evals else 0.0,
        "lbfgs.capped_solves": sum(s["capped"] for s in solves),
        "lbfgs.self_s": self_total("lbfgs.minimize"),
        "greedy.iterations": sum(s["iterations"] for s in decomposes),
        "greedy.candidate_solves": len(solves) - len(decomposes),
        "greedy.kept_eval_share": (sum(s["kept_evals"] for s in decomposes)
                                   / lbfgs_evals if lbfgs_evals else 0.0),
        "greedy.self_s": self_total("greedy.spod_decompose"),
        "greedy.init_s": total("greedy.initialize_frames"),
        "greedy.backshift_s": total("greedy.back_shifted_matrix"),
        "tracking.calls": len(named("tracking.")),
        "tracking.s": total("tracking."),
        "pod.calls": len(named("pod.")),
        "pod.s": total("pod."),
        "io.read_s": total("io.read."),
        "io.write_s": total("io.write."),
        "io.bytes_read": sum(s["bytes"] for s in named("io.read.")),
        "io.bytes_written": sum(s["bytes"] for s in named("io.write.")),
        "io.config_s": total("io.config."),
        "trace.run_s": run_s,
        "trace.unattributed_s": next(t for s, t in run if s is root),
        "trace.overhead_s": run_s - untraced_s,
    }


def probe_objective(snaps, shifts, modes, rank_tol, reps=5):
    """Median milliseconds of value_and_gradient and of a value-only
    evaluate at the final modes."""
    from spod.core import ReducedObjective

    prob = ReducedObjective(snaps, shifts, [W.shape[1] for W in modes],
                            rank_tol=rank_tol)
    z = prob.pack(modes)

    def clock(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1000 * statistics.median(times)

    return {"vg_ms": clock(lambda: prob.value_and_gradient(z)),
            "value_ms": clock(lambda: prob.evaluate(modes,
                                                    need_gradient=False))}


def trace_library(workload, seed, seconds):
    import spod.greedy

    inputs = library_inputs(workload, seed)
    untraced = repeat_for(seconds / 2, lambda: library_repeat(workload, inputs),
                          warmups=1)
    tracer = Tracer()
    install(tracer)
    try:
        with time_limit(wl.REPEAT_LIMIT_S[workload]), tracer.span("run"):
            dec, report = spod.greedy.spod_decompose(*inputs)
        with tracer.span("gate"):
            ok, _, _, reason = library_gate(workload, inputs[0], dec, report)
    finally:
        tracer.restore()
    probe = probe_objective(inputs[0], inputs[1],
                            [f.modes for f in dec.frames],
                            inputs[2].rank_tol)
    return tracer, untraced, probe, ok, reason


def trace_cli(seed, seconds, workdir):
    import spod.io

    untraced = repeat_for(seconds / 2, lambda: cli_repeat(
        seed, workdir, inprocess_step()))
    tracer = Tracer()
    install(tracer)
    try:
        rec, d = cli_pass(seed, workdir, inprocess_step(tracer),
                          lambda: tracer.span("run"))
    finally:
        tracer.restore()
    probe = {"vg_ms": 0.0, "value_ms": 0.0}
    if rec["ok"]:
        snaps = spod.io.read_snapshots(os.path.join(d, "data", "wave.snap"))
        dec, _ = spod.io.read_decomposition(
            os.path.join(d, "out", "decomposition.bin"))
        probe = probe_objective(snaps, dec.shifts,
                                [f.modes for f in dec.frames], 1e-10)
    shutil.rmtree(d)
    return tracer, untraced, probe, rec["ok"], rec["reason"]


# --- entry points ---------------------------------------------------------

def do_setup(workload, seed, workdir):
    t0 = time.perf_counter()
    import spod  # noqa: F401
    t1 = time.perf_counter()
    import spod.cli  # noqa: F401
    t2 = time.perf_counter()
    if workload in LIBRARY:
        library_inputs(workload, seed)
    else:
        with open(os.path.join(workdir, "run.cfg"), "w") as f:
            f.write(wl.cli_config(seed))
    t3 = time.perf_counter()
    emit("setup", setup_s=(t1 - t0) + (t3 - t2), import_cli_s=t2 - t0,
         spod_file=spod.__file__, versions=versions())


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def do_run(workload, seed, seconds, workdir):
    if workload in LIBRARY:
        inputs = library_inputs(workload, seed)
        # the first repeat in a process runs measurably slower (page
        # faults on first-touch memory): run it, gate it, do not time it
        records = repeat_for(seconds, lambda: library_repeat(workload, inputs),
                             warmups=1)
        who = resource.RUSAGE_SELF
    else:
        records = repeat_for(seconds, lambda: cli_repeat(
            seed, workdir, subprocess_step))
        who = resource.RUSAGE_CHILDREN  # the largest pipeline command
    for rec in records:
        emit("repeat", **rec)
    emit("rss", peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024)


def do_trace(workload, seed, seconds, workdir, trace_file):
    if workload in LIBRARY:
        tracer, untraced, probe, ok, reason = trace_library(
            workload, seed, seconds)
    else:
        tracer, untraced, probe, ok, reason = trace_cli(seed, seconds,
                                                        workdir)
    timed = [r["seconds"] for r in untraced if not r["warmup"]]
    good = [r["seconds"] for r in untraced if r["ok"] and not r["warmup"]]
    metrics = layer_metrics(tracer.spans, statistics.median(good or timed),
                            probe)
    with open(trace_file, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "untraced_s": [r["seconds"] for r in untraced],
                   "metrics": metrics, "spans": tracer.spans}, f)
    failed = sum(not r["ok"] for r in untraced) + (not ok)
    emit("trace", ok=failed == 0, reason=reason, attempted=len(untraced) + 1,
         failed=failed, metrics=metrics)


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        do_setup(workload, seed, argv[3])
    elif mode == "run":
        do_run(workload, seed, float(argv[3]), argv[4])
    elif mode == "trace":
        do_trace(workload, seed, float(argv[3]), argv[4], argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
