"""sPOD benchmark command.

    python3 bench/run.py --workload wave-pair --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The package is used from the
checkout's src/ as it stands (pure Python, nothing to build).  Every
measurement runs in a fresh worker process (bench/worker.py); this
process only starts workers, enforces their time limits and turns their
records into metrics.  With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer ones; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md for the workloads and the meaning of every metric.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 20
BLAS_THREADS = 1  # at most nproc; one thread keeps the timings steady
CLI_COMMANDS = [name for name, _ in wl.cli_chain(0)]


def call_worker(root, env, args, timeout):
    """Run one worker in its own session; returns (records, exit code or
    None after a time-out, stderr).  A time-out kills the whole session,
    so pipeline commands the worker started end with it."""
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=root,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    return records, code, err


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "not a git checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spod", "__init__.py")):
        return fail(f"no package source at {src}/spod; run from the root"
                    " of a checkout")
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(dir=out_dir)
    try:
        return measure(args, root, env, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, env, out_dir, work):
    w, seed = args.workload, str(args.seed)
    limit = wl.REPEAT_LIMIT_S[w]

    # the first import in a fresh checkout compiles bytecode: not timed
    setups = []
    for _ in range(SETUP_REPEATS + 1):
        recs, code, err = call_worker(root, env, ["setup", w, seed, work],
                                      timeout=120)
        if code != 0 or not recs:
            return fail(f"setup failed (exit {code}):\n{err}")
        setups.append(recs[0])
    rec = setups.pop(0)
    if not os.path.abspath(rec["spod_file"]).startswith(root + os.sep):
        return fail(f"spod imported from {rec['spod_file']}, not {root}")
    stamp = {"python": platform.python_version(), **rec["versions"],
             "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
             "git_commit": git_commit(root),
             "greedy_threads": wl.GREEDY_THREADS}
    setup_s = [r["setup_s"] for r in setups]
    import_s = [r["import_cli_s"] for r in setups]

    if args.trace:
        metrics, attempted, failed = traced(args, root, env, out_dir, work,
                                            import_s)
        samples = {}
    else:
        recs, code, err = call_worker(
            root, env, ["run", w, seed, str(args.seconds), work],
            timeout=args.seconds + 2 * limit + 10)
        repeats = [r for r in recs if r["kind"] == "repeat"]
        rss = [r["peak_rss_mb"] for r in recs if r["kind"] == "rss"]
        attempted = len(repeats) + (code != 0)
        failed = sum(not r["ok"] for r in repeats) + (code != 0)
        if code != 0:
            print(f"worker exit {code}:\n{err}", file=sys.stderr)
        for r in repeats:
            if not r["ok"]:
                print(f"failed run: {r['reason']}", file=sys.stderr)
        good = [r for r in repeats if r["ok"] and not r["warmup"]]
        # a failed run never counts as a fast one: with no good run the
        # time reported is the limit
        samples = {
            "run_s": [r["seconds"] for r in good] or [limit],
            "setup_s": setup_s,
            "modes_total": [r["modes_total"] for r in good]
            or [r.get("modes_total", 0) for r in repeats] or [0],
            "peak_rss_mb": rss or [0.0],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}

    units = metric_units(root, args.trace)
    for name, unit in units.items():
        if name in samples:
            q1, q3 = quartiles(samples[name])
            print(f"{name:28s} {metrics[name]:12.6g} {unit:6s}"
                  f" q1 {q1:.6g} q3 {q3:.6g} samples {len(samples[name])}")
        else:
            print(f"{name:28s} {metrics[name]:12.6g} {unit}")
    print("env " + json.dumps(stamp, sort_keys=True))
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def metric_units(root, trace):
    """Name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def traced(args, root, env, out_dir, work, import_s):
    w = args.workload
    limit = wl.REPEAT_LIMIT_S[w]
    attempted = failed = 0
    steps = {name: 0.0 for name in CLI_COMMANDS}
    if w == "cli-pipeline":
        # wall time per subcommand, as fresh processes, from one pass
        recs, code, err = call_worker(
            root, env, ["run", w, str(args.seed), "1", work],
            timeout=2 * limit + 10)
        repeats = [r for r in recs if r["kind"] == "repeat"]
        attempted += len(repeats) + (code != 0)
        failed += sum(not r["ok"] for r in repeats) + (code != 0)
        for name in CLI_COMMANDS:
            values = [r["steps"][name] for r in repeats if name in r["steps"]]
            steps[name] = statistics.median(values) if values else 0.0
    trace_file = os.path.join(out_dir,
                              f"trace-{w}-seed{args.seed}.json")
    recs, code, err = call_worker(
        root, env, ["trace", w, str(args.seed), str(args.seconds), work,
                    trace_file],
        timeout=args.seconds / 2 + 3 * limit + 10)
    result = next((r for r in recs if r["kind"] == "trace"), None)
    if result is None:
        print(f"trace worker exit {code}:\n{err}", file=sys.stderr)
        return dict.fromkeys(metric_units(root, 1), 0.0), attempted + 1, \
            failed + 1
    if not result["ok"]:
        print(f"traced run failed: {result['reason']}", file=sys.stderr)
    metrics = dict(result["metrics"])
    metrics["cli.import_s"] = statistics.median(import_s)
    for name in CLI_COMMANDS:
        metrics[f"cli.{name}_s"] = steps[name]
    return (metrics, attempted + result["attempted"],
            failed + result["failed"])


if __name__ == "__main__":
    sys.exit(main())
