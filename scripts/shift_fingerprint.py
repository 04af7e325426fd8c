"""Fingerprint of every shift-dependent result on the benchmark scenarios.

    PYTHONPATH=src python scripts/shift_fingerprint.py OUT.npz [--seeds 0-10]
    python scripts/shift_fingerprint.py --compare A.npz B.npz [--rtol X]
        [--up-to-sign]

The first form decomposes the wave-pair and crossing-fronts scenarios of
bench/workloads.py with the package found on the path, for every seed
given (default 0: the default scenarios), and saves the input snapshot
matrix ("data"), the error history, candidate errors with each
candidate's iteration and evaluation counts, modes, amplitudes,
reconstruction, the shift matrix, every frame's back-shifted snapshot
matrix and the indptr/indices/data of every frame's stacked sparse
operator shift_operator(d, grid, spec) ("stacked") and of its CSR
transpose ("stacked_T"), the two operators ReducedObjective multiplies
with per frame.  For a frame with a fractional shift it keeps the CSR
of the transpose and uses its CSC view as the stack, so the CSR forms
of its ops[l] and ops_T[l] are "stacked" and "stacked_T"; for a frame
of grid-multiple shifts it keeps the node map alone, which equals the
"stacked" indices, with every "stacked" entry a 1 in a row of its own
(tests/test_fingerprint.py checks both).  They are built from the
public shift_operator alone, so the
same script runs on checkouts before and after a refactoring of the
objective.  The operators depend only on the shifts, the grid and the
shift spec, and the bench seeds change the
pulse and front shapes, not the shifts: so a seed's operator arrays are
saved only when its shifts, grid or spec differ from those of a seed
already saved, and otherwise its shift matrix ties it to the seed whose
operators were saved.  Seed 0 keys start with "wave/" and "crossing/",
seed S keys with "wave@S/" and "crossing@S/".  It also
saves the work of each run: every stage's iterations, evaluations,
rank-deficient snapshot solves and SVD fallback solves, the chosen frames,
the final mode counts, and the number of ReducedObjective.evaluate calls
with the SVD fallback solves they made, dropped candidates' included;
and how every stage ended: its termination ("stage_termination", such
as "gradient" or "iteration cap") and the norm of dJ/dz at its end
("stage_grad_norm"), so that a comparison shows a change in how the
stages stop.
It runs the seed-0 crossing-fronts scenario twice more: with the
"species" rows masked in frames 1-4 (keys "crossing-masked/"), which
puts the mask path under the check, and with every row of frame 4
masked (keys "crossing-fallback/").  The benchmark scenarios make no
amplitude-solve fallback; in the second run the candidates of frame 4
start with an all-zero mode, whose snapshots the amplitude solve sends
to the SVD fallback, which puts the split between the Gram solve and
the fallback under the check (the script fails if that run makes no
fallback solve).  It runs the three-signal scenario with the settings
of tests/test_acceptance.py (keys "three-signal/") and saves its
operators: rounding leaves 7 of its frame-0 and frame-1 shifts a few
1e-15 cells off the grid, so those operators mix rows of 1 and 4 stored
entries, which puts the mixed-row branch of shift_operator under the
check (the script fails if no saved three-signal operator has rows of
two lengths).  Last, it runs the seed-0
cli-pipeline chain of bench/workloads.py in-process in a temporary
directory and saves the bytes of every .csv, .cfg and .json output, with
that directory replaced by a fixed token.  The second form reports every
array that is not bit-for-bit equal (same dtype, shape and bytes, so
-0.0 differs from 0.0 and a NaN equals itself) between two
fingerprints, with a line diff for each differing text output, so two
checkouts can be compared after a refactoring that must change neither a
result, nor the work that produced it, nor the bytes of a file it writes.
With --rtol, a float array of equal shape whose largest elementwise
difference is at most rtol times its largest magnitude (in either file)
passes; every differing float array is still printed with that relative
difference.  Integer and string arrays (work counts, chosen frames, final
mode counts, stage terminations, operator indices, text outputs) are
always compared exactly, and a differing one is printed with both values
when it is small.  With
--up-to-sign, the sign of every mode, which the method leaves arbitrary,
is fixed before comparing in both files: a mode column whose
largest-magnitude entry is negative is negated, and so is its row of
amplitudes.  Without it a flipped mode is a difference.
"""

import argparse
import contextlib
import difflib
import io
import os
import re
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import workloads as wl  # noqa: E402


def scenarios(seed=0):
    import spod
    from spod.lbfgs import OptimizerOptions

    params = spod.WaveParams(**wl.wave_params(seed))
    yield "wave", spod.wave_snapshots(params), spod.wave_shifts(params), \
        spod.GreedyConfig(r0=[1, 1], tol=wl.WAVE_TOL, threads=wl.GREEDY_THREADS)
    snaps, shifts = spod.crossing_fronts(
        spod.CrossingFrontsParams(**wl.crossing_params(seed)))
    yield "crossing", snaps, shifts, spod.GreedyConfig(
        r0=[1, 1, 1, 1, 0], tol=wl.CROSSING_TOL, threads=wl.GREEDY_THREADS,
        optimizer=OptimizerOptions(max_iters=wl.CROSSING_MAX_ITERS))


def counted_decompose(snaps, shifts, config, masks=None):
    """spod_decompose plus the number of ReducedObjective.evaluate calls
    and the number of SVD fallback solves those calls made."""
    from spod.core import ReducedObjective
    from spod.greedy import spod_decompose

    calls = fallbacks = 0
    evaluate = ReducedObjective.evaluate

    def counting(self, *args, **kwargs):
        nonlocal calls, fallbacks
        calls += 1
        before = self.svd_fallback_solves
        out = evaluate(self, *args, **kwargs)
        fallbacks += self.svd_fallback_solves - before
        return out

    ReducedObjective.evaluate = counting
    try:
        dec, report = spod_decompose(snaps, shifts, config, masks=masks)
    finally:
        ReducedObjective.evaluate = evaluate
    return dec, report, calls, fallbacks


def run_arrays(name, snaps, shifts, config, masks=None) -> dict:
    """Results and work counts of one decomposition, keyed under name."""
    from spod.core import reconstruct

    dec, report, calls, fallbacks = counted_decompose(snaps, shifts, config,
                                                      masks)
    out = {
        "error_history": np.array(report.error_history),
        "candidate_errors": np.array(report.candidate_errors),
        "candidate_iterations": np.array(report.candidate_iterations),
        "candidate_evaluations": np.array(report.candidate_evaluations),
        "chosen_frames": np.array(report.chosen_frames),
        "r_final": np.array(report.r_final),
        "evaluate_calls": np.array(calls),
        "svd_fallback_solves": np.array(fallbacks),
        "reconstruct": reconstruct(dec),
        "data": snaps.data,
    }
    for key in ("iterations", "evaluations", "rank_deficient_evals",
                "svd_fallback_solves", "termination", "grad_norm"):
        out[f"stage_{key}"] = np.array([st[key] for st in report.stages])
    for l, (frame, amps) in enumerate(zip(dec.frames, dec.amplitudes)):
        out[f"modes{l}"] = frame.modes
        out[f"amplitudes{l}"] = amps
    return {f"{name}/{k}": v for k, v in out.items()}


def masked_runs() -> dict:
    """The seed-0 crossing-fronts run with the species rows masked in
    frames 1-4, and with every row of frame 4 masked."""
    _, (_, snaps, shifts, config) = scenarios(0)
    species = np.zeros(snaps.n_rows, dtype=bool)
    species[next(b for b in snaps.blocks if b.name == "species").rows] = True
    out = run_arrays("crossing-masked", snaps, shifts, config,
                     [None] + [species] * (shifts.n_frames - 1))
    whole = np.ones(snaps.n_rows, dtype=bool)
    out.update(run_arrays("crossing-fallback", snaps, shifts, config,
                          [None] * (shifts.n_frames - 1) + [whole]))
    if not out["crossing-fallback/svd_fallback_solves"]:
        raise RuntimeError("the crossing-fallback run made no SVD fallback solve")
    return out


def shift_arrays(name, snaps, shifts, save_operators=True) -> dict:
    """The shift matrix and every frame's back-shifted snapshot matrix,
    with every frame's stacked shift operator and its CSR transpose if
    save_operators."""
    from spod.greedy import back_shifted_matrix
    from spod.shifts import shift_operator

    out = {f"{name}/shifts": shifts.d}
    for l in range(shifts.n_frames):
        out[f"{name}/backshift{l}"] = back_shifted_matrix(
            snaps.data, shifts, l, snaps.grid, len(snaps.blocks))
        if not save_operators:
            continue
        stacked = shift_operator(shifts.d[l], snaps.grid, shifts.spec)
        for op, M in (("stacked", stacked), ("stacked_T", stacked.T.tocsr())):
            for part in ("indptr", "indices", "data"):
                out[f"{name}/{op}{l}.{part}"] = getattr(M, part)
    return out


def fingerprint(seed, operators_saved) -> dict:
    """Arrays of one seed; operators_saved holds the (shifts, grid, spec)
    of every seed whose operators are already saved, and grows."""
    out = {}
    for name, snaps, shifts, config in scenarios(seed):
        if seed:
            name = f"{name}@{seed}"
        out.update(run_arrays(name, snaps, shifts, config))
        operators = (shifts.d.shape, shifts.d.tobytes(), snaps.grid, shifts.spec)
        out.update(shift_arrays(name, snaps, shifts,
                                operators not in operators_saved))
        operators_saved.add(operators)
    return out


def mixed_row_frames(out) -> list:
    """Frames whose saved three-signal operator has rows of two lengths."""
    return [l for l in range(len(out["three-signal/shifts"]))
            if np.unique(np.diff(out[f"three-signal/stacked{l}.indptr"])).size > 1]


def three_signal_run() -> dict:
    """The three-signal run of tests/test_acceptance.py, with its shift
    matrix, back-shifted matrices and operators."""
    import spod
    from spod.lbfgs import OptimizerOptions

    snaps, shifts = spod.three_signal_default()
    config = spod.GreedyConfig(
        r0=[1, 1, 1], tol=1e-12, p_max=0,
        optimizer=OptimizerOptions(grad_tol=1e-10, max_iters=2000))
    out = run_arrays("three-signal", snaps, shifts, config)
    out.update(shift_arrays("three-signal", snaps, shifts))
    if not mixed_row_frames(out):
        raise RuntimeError("no three-signal operator has rows of two lengths")
    return out


TEXT_OUTPUTS = (".csv", ".cfg", ".json")


def cli_outputs() -> dict:
    """Text outputs of the seed-0 cli-pipeline chain, as uint8 arrays."""
    from spod.cli import run_cli

    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "run.cfg"), "w") as f:
            f.write(wl.cli_config(0))
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for name, argv in wl.cli_chain(0):
                    if run_cli(argv) != 0:
                        raise RuntimeError(f"cli step '{name}' failed")
        finally:
            os.chdir(cwd)
        run_dirs = sorted({d, os.path.realpath(d)}, key=len, reverse=True)
        for root, _, files in os.walk(d):
            for name in files:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, d)
                if rel == "run.cfg" or not name.endswith(TEXT_OUTPUTS):
                    continue  # the input, or a binary output
                with open(path, "rb") as f:
                    data = f.read()
                for run_dir in run_dirs:
                    data = data.replace(run_dir.encode(), b"<run>")
                out[f"cli/{rel}"] = np.frombuffer(data, dtype=np.uint8)
    return out


def _text_diff(a, b):
    lines = difflib.unified_diff(a.tobytes().decode().splitlines(),
                                 b.tobytes().decode().splitlines(),
                                 lineterm="", n=0)
    return list(lines)[2:]  # without the ---/+++ file lines


def _bit_equal(x, y):
    return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _relative_difference(a, b):
    """Largest elementwise |a - b| over the largest magnitude of a or b."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return float(np.max(np.abs(a - b)) / scale) if scale > 0 else 0.0


def _values(x):
    return x.tolist() if x.size <= 20 else f"shape {x.shape}"


def _sign_fixed(f, k):
    """f[k], but a mode column times the sign of its largest-magnitude
    entry (the first one on ties) and an amplitude row times its mode's."""
    match = re.fullmatch(r"(.*)/(modes|amplitudes)(\d+)", k)
    if match is None:
        return f[k]
    W = f[f"{match[1]}/modes{match[3]}"]
    peak = W[np.argmax(np.abs(W), axis=0), np.arange(W.shape[1])]
    sign = np.where(peak < 0, -1.0, 1.0)
    return f[k] * (sign if match[2] == "modes" else sign[:, None])


def compare(a_path: str, b_path: str, rtol=None, up_to_sign=False) -> int:
    a, b = np.load(a_path), np.load(b_path)
    get = _sign_fixed if up_to_sign else (lambda f, k: f[k])
    bad = sorted(set(a.files) ^ set(b.files))
    for k in bad:
        print(f"differs: {k} (in one file only)")
    differ = [k for k in sorted(set(a.files) & set(b.files))
              if not _bit_equal(get(a, k), get(b, k))]
    n_differ = len(bad) + len(differ)
    for k in differ:
        x, y = get(a, k), get(b, k)
        within = False
        if x.dtype.kind == y.dtype.kind == "f" and x.shape == y.shape:
            rel = _relative_difference(x, y)
            within = rtol is not None and rel <= rtol
            beyond = "" if within or rtol is None else ", beyond rtol"
            print(f"differs: {k} (largest relative difference {rel:.3e}{beyond})")
        elif k.startswith("cli/"):
            print(f"differs: {k}")
            for line in _text_diff(x, y):
                print(f"    {line}")
        else:
            print(f"differs: {k}: {_values(x)} vs {_values(y)}")
        if not within:
            bad.append(k)
    tail = "" if rtol is None else f", {len(bad)} beyond rtol {rtol:g}"
    print(f"{len(a.files)} arrays, {n_differ} differ{tail}")
    return 1 if bad else 0


def _seeds(text):
    """'0-10' or '0,3,5' -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", help="OUT.npz, or A.npz B.npz with --compare")
    ap.add_argument("--compare", action="store_true")
    ap.add_argument("--rtol", type=float,
                    help="with --compare: tolerance for float arrays")
    ap.add_argument("--up-to-sign", action="store_true",
                    help="with --compare: fix each mode's sign by its "
                         "largest-magnitude entry, flipping its amplitudes too")
    ap.add_argument("--seeds", type=_seeds, default=[0],
                    help="scenario seeds, such as 0-10 or 0,3 (default 0)")
    args = ap.parse_args()
    if args.compare:
        if len(args.paths) != 2:
            ap.error("--compare takes two fingerprints")
        return compare(*args.paths, rtol=args.rtol, up_to_sign=args.up_to_sign)
    if len(args.paths) != 1:
        ap.error("give one output path")
    if args.rtol is not None or args.up_to_sign:
        ap.error("--rtol and --up-to-sign go with --compare")
    out = {**cli_outputs(), **masked_runs(), **three_signal_run()}
    operators_saved = set()
    for seed in args.seeds:
        out.update(fingerprint(seed, operators_saved))
    np.savez(args.paths[0], **out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
