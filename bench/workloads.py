"""Workload definitions: seeded scenario parameters, gates and limits.

Standard library only, so run.py can use it without importing the
package under test.  Seed 0 gives the default scenario parameters; any
other seed draws them from the ranges documented in bench/README.md.
"""

import random

WORKLOADS = ("wave-pair", "crossing-fronts", "cli-pipeline")

# Wall-clock limit of one repeat (one decomposition, or one pass of the
# pipeline); exceeding it counts as a failed run.  Typical repeats take
# 0.7 s, 10-13 s and 4 s.
REPEAT_LIMIT_S = {"wave-pair": 30.0, "crossing-fronts": 45.0,
                  "cli-pipeline": 30.0}

GREEDY_THREADS = 1
WAVE_TOL = 1e-6
CROSSING_TOL = 0.01
CROSSING_MAX_ITERS = 30
CROSSING_MAX_MODES = 8
CLI_TOL = 1e-6

# Windows of the README chain (default scenario, t_final = 1).
README_WINDOWS = ("0:32@512:1024,32:64@0:512",
                  "0:33@0:513,33:64@512:1024")
CLI_M, CLI_N = 1024, 64


def wave_params(seed):
    """WaveParams keyword overrides: pulse width and a whole-cell move of
    the pulse centre (both pulses stay on grid points for every seed)."""
    if seed == 0:
        return {}
    rng = random.Random(seed)
    return {"width": round(rng.uniform(0.008, 0.012), 6),
            "center": 0.5 + rng.randint(-64, 64) / 1024}


def crossing_params(seed):
    """CrossingFrontsParams overrides: each front amplitude and width
    scaled by a factor drawn from [0.9, 1.1]."""
    if seed == 0:
        return {}
    rng = random.Random(seed)
    amps = (1.2, 0.8, 0.6, 0.5)
    widths = (0.010, 0.012, 0.012, 0.010)
    return {"front_amplitudes": tuple(round(a * rng.uniform(0.9, 1.1), 6)
                                      for a in amps),
            "front_widths": tuple(round(w * rng.uniform(0.9, 1.1), 6)
                                  for w in widths)}


def cli_t_final(seed):
    """Final time of the generated wave.  Only 1, 2 and 3 keep the two
    pulses either coincident or at least 32 cells apart at every one of
    the 64 snapshots, which the peak tracker needs to stay exact."""
    return 1.0 if seed == 0 else random.Random(seed).choice((1.0, 2.0, 3.0))


def _half_windows(t_final, sign):
    """Window schedule that searches the half of the periodic density
    block holding the pulse moving with direction sign."""
    entries, current, start = [], None, 0
    for j in range(CLI_N):
        idx = (CLI_M // 2 + sign * round(CLI_M * t_final * j / CLI_N)) % CLI_M
        half = (CLI_M // 2, CLI_M) if idx >= CLI_M // 2 else (0, CLI_M // 2)
        if half != current:
            if current:
                entries.append(f"{start}:{j}@{current[0]}:{current[1]}")
            current, start = half, j
    entries.append(f"{start}:{CLI_N}@{current[0]}:{current[1]}")
    return ",".join(entries)


def cli_windows(seed):
    """(frame 0, frame 1) tracker windows: the README's for seed 0."""
    if seed == 0:
        return README_WINDOWS
    t_final = cli_t_final(seed)
    return _half_windows(t_final, 1), _half_windows(t_final, -1)


def cli_config(seed):
    """Run configuration of the pipeline: frame 0 from the tracked CSV,
    frame 1 from a tracker recipe."""
    return f"""[input]
snapshots = data/wave.snap

[spod]
r0 = 1,1
tol = {CLI_TOL!r}
threads = {GREEDY_THREADS}

[frame.0]
shifts = data/frame0.csv

[frame.1]
track = density
statistic = peak
windows = {cli_windows(seed)[1]}

[output]
directory = out
"""


def cli_chain(seed):
    """(subcommand, argv) steps of the pipeline, run from its directory."""
    generate = ["generate", "wave", "--n", str(CLI_N), "--out", "data"]
    if seed != 0:
        generate += ["--t-final", repr(cli_t_final(seed))]
    return [
        ("generate", generate),
        ("track", ["track", "data/wave.snap", "--statistic", "peak",
                   "--windows", cli_windows(seed)[0],
                   "--out", "data/frame0.csv"]),
        ("spod", ["spod", "--config", "run.cfg"]),
        ("reconstruct", ["reconstruct", "out/decomposition.bin",
                         "--out", "out/recon.snap"]),
        ("error", ["error", "data/wave.snap", "out/recon.snap"]),
        ("pod", ["pod", "data/wave.snap", "--tol", "0.01",
                 "--curve", "pod_curve.csv"]),
        ("export-curves", ["export-curves", "data/wave.snap",
                           "--report", "out/report.json",
                           "--outdir", "curves"]),
    ]


def cli_gate(outputs):
    """Gate of one pipeline pass from each step's stdout: returns
    (ok, modes_total, residual, reason)."""
    try:
        residual = float(outputs["error"].strip().splitlines()[-1])
        line = next(s for s in outputs["spod"].splitlines()
                    if s.startswith("modes per frame:"))
        modes = [int(v) for v in line.split(":", 1)[1].strip(" []").split(",")]
    except (KeyError, IndexError, StopIteration, ValueError):
        return False, 0, float("inf"), "unparsable pipeline output"
    if residual > CLI_TOL:
        return False, sum(modes), residual, f"error {residual:.3e} > {CLI_TOL}"
    if modes != [1, 1]:
        return False, sum(modes), residual, f"modes per frame {modes}"
    return True, sum(modes), residual, ""
