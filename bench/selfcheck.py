"""Quick self-check of the benchmark (about a minute and a half).

    python3 bench/selfcheck.py

Run from the checkout root.  For every workload it makes one short
untraced and one short traced run and asserts that the last stdout line
has exactly the result keys, that every metric BENCHMARK.json names for
that mode is printed with its unit and that every gate passed.  On the
traced runs it asserts that every layer the workload exercises reads
non-zero, and that under 1 % of the traced run time falls outside every
wrapped function.  It also checks that the benchmark refuses, without
printing a result, to run in a directory that holds no package source.
"""

import json
import os
import tempfile
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from run import metric_units  # noqa: E402

RUN = os.path.join(HERE, "run.py")

# Per-layer metrics that must be non-zero on each workload: a wrapped
# function that is renamed, or no longer resolved where it is wrapped,
# would otherwise read as a layer that takes no time.
LIBRARY_LAYERS = ["shifts.operator_calls", "shifts.apply_calls",
                  "core.evals", "core.eval_s", "core.vg_ms",
                  "core.value_ms", "core.reconstruct_s", "lbfgs.solves",
                  "lbfgs.iterations", "lbfgs.evals", "greedy.init_s",
                  "greedy.backshift_s", "greedy.self_s"]
NONZERO = {
    "wave-pair": LIBRARY_LAYERS,
    "crossing-fronts": LIBRARY_LAYERS + ["greedy.iterations",
                                         "greedy.candidate_solves",
                                         "lbfgs.capped_solves"],
    "cli-pipeline": LIBRARY_LAYERS + [
        "tracking.calls", "tracking.s", "pod.calls", "pod.s", "io.read_s",
        "io.write_s", "io.bytes_read", "io.bytes_written", "io.config_s",
        "cli.import_s"] + [f"cli.{name}_s" for name, _ in wl.cli_chain(0)],
}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check(workload, trace):
    proc = run(".", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = metric_units(".", trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (got, expected)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        zero = [k for k in NONZERO[workload] if not values[k]]
        assert not zero, f"{workload}: layers read zero: {zero}"
        assert values["trace.unattributed_s"] \
            < 0.01 * values["trace.run_s"], values
    else:
        assert all(v > 0 for v in values.values()), values
    print(f"ok  {workload} trace={trace} attempted={result['attempted']}",
          flush=True)


def check_refuses_without_source():
    os.makedirs(".bench_out", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_out") as bare:
        proc = run(bare, wl.WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the package source", flush=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    check_refuses_without_source()
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)


if __name__ == "__main__":
    main()
