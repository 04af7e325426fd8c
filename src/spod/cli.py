"""Command-line pipeline.

Subcommands: generate, track, pod, spod, reconstruct, error,
export-curves.  Running with flags only (``spod --config run.cfg``)
defaults to the spod subcommand.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 convergence failure.  Diagnostics
go to stderr; results and file paths to stdout.
"""

import argparse
import os
import sys

import numpy as np

from . import generators, io
from .core import FrameShifts, reconstruct
from .greedy import spod_decompose
from .pod import modes_for_tolerance, truncation_curve
from .shifts import ShiftSpec
from .snapshots import SnapshotSet, center_rows, relative_error, scale_variables
from .tracking import STATISTICS, center_shifts, track_front


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for data
    # errors, so route usage problems through an exception instead
    def error(self, message):
        raise _Usage(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="spod", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="write a synthetic scenario")
    g.add_argument("scenario",
                   choices=["wave", "three-signal", "crossing-fronts"])
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--t-final", type=float, default=None)
    g.set_defaults(func=_cmd_generate)

    t = sub.add_parser("track", help="estimate shifts from a variable block")
    t.add_argument("snapshots")
    t.add_argument("--block", default=None,
                   help="variable block name (default: first block)")
    t.add_argument("--statistic", choices=list(STATISTICS), default=None)
    t.add_argument("--windows", default=None,
                   help="window schedule j0:j1@i0:i1,... (index pairs)")
    t.add_argument("--smooth", type=int, default=None)
    t.add_argument("--negate", choices=["auto", "yes", "no"], default="auto",
                   help="negate centered positions; 'auto' negates on "
                        "periodic grids so the CSV feeds T(d) directly")
    t.add_argument("--out", required=True, help="shift CSV path")
    t.set_defaults(func=_cmd_track)

    d = sub.add_parser("pod", help="POD baseline: mode counts and SV decay")
    d.add_argument("snapshots")
    d.add_argument("--tol", type=float, default=None,
                   help="print minimal modes for this root-scale tolerance")
    d.add_argument("--curve", default=None, help="write SV-decay CSV here")
    d.add_argument("--center", action=argparse.BooleanOptionalAction,
                   default=True, help="row-mean centering (default: centered)")
    d.set_defaults(func=_cmd_pod)

    s = sub.add_parser("spod", help="greedy shifted decomposition from a config")
    s.add_argument("--config", required=True)
    s.set_defaults(func=_cmd_spod)

    r = sub.add_parser("reconstruct", help="decomposition -> snapshot file")
    r.add_argument("decomposition")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_reconstruct)

    e = sub.add_parser("error", help="squared relative Frobenius error")
    e.add_argument("reference")
    e.add_argument("test")
    e.set_defaults(func=_cmd_error)

    c = sub.add_parser("export-curves",
                       help="error-vs-modes tables for POD and sPOD")
    c.add_argument("snapshots")
    c.add_argument("--report", required=True, help="greedy report JSON")
    c.add_argument("--outdir", required=True)
    c.add_argument("--center", action=argparse.BooleanOptionalAction,
                   default=True)
    c.set_defaults(func=_cmd_export_curves)
    return p


def _cmd_generate(args) -> int:
    kw = {k: getattr(args, k) for k in ("m", "n", "t_final")  # flags given
          if getattr(args, k) is not None}
    try:  # generation reads no file, so a ValueError comes from a flag
        if args.scenario == "wave":
            params = generators.WaveParams(**kw)
            snaps = generators.wave_snapshots(params)
            shifts = generators.wave_shifts(params)
        elif args.scenario == "three-signal":
            if "t_final" in kw:
                raise _Usage("generate three-signal: takes no --t-final")
            snaps, shifts = generators.three_signal_default(**kw)
        else:
            params = generators.CrossingFrontsParams(**kw)
            snaps, shifts = generators.crossing_fronts(params)
    except ValueError as e:
        raise _Usage(f"generate {args.scenario}: {e}") from None

    os.makedirs(args.out, exist_ok=True)
    snap_path = os.path.join(args.out, args.scenario + ".snap")
    shift_path = os.path.join(args.out, "true_shifts.csv")
    io.write_snapshots(snaps, snap_path)
    io.write_shifts(shifts.d, shift_path)
    print(snap_path)
    print(shift_path)
    return 0


def _tracked_shifts(fc, snaps, negate):
    """The shift row of a tracker recipe (FrameConfig), negated on
    request so that it feeds T(d) under the operator's sign rule."""
    positions = track_front(snaps.block(fc.track_block), snaps.grid,
                            windows=fc.windows, statistic=fc.statistic,
                            smooth=fc.smooth)
    d = center_shifts(positions, snaps.grid)
    return -d if negate else d


def _cmd_track(args) -> int:
    snaps = io.read_snapshots(args.snapshots)
    fc = io.FrameConfig(track_block=args.block or snaps.blocks[0].name,
                        statistic=args.statistic, windows=args.windows,
                        smooth=args.smooth)
    negate = (snaps.grid.boundary == "periodic") if args.negate == "auto" \
        else args.negate == "yes"
    d = _tracked_shifts(fc, snaps, negate)
    io.write_shifts(d[None, :], args.out, frame_names=[fc.track_block])
    print(args.out)
    return 0


def _cmd_pod(args) -> int:
    if args.tol is None and args.curve is None:
        raise _Usage("pod: give --tol and/or --curve")
    if args.tol is not None and not 0.0 < args.tol <= 1.0:
        raise _Usage(f"pod: --tol must lie in (0, 1], got {args.tol:g}")
    snaps = io.read_snapshots(args.snapshots)
    X = center_rows(snaps)[0].data if args.center else snaps.data
    if args.tol is not None:
        count = modes_for_tolerance(X, args.tol)
        print(f"modes for tolerance {args.tol:g}: {count}")
    if args.curve is not None:
        sv, squared, root = truncation_curve(X)
        sv = np.append(sv, 0.0)  # aligned with "modes kept" rows
        io.write_curve(args.curve,
                       [np.arange(squared.size), sv, squared, root],
                       ["modes_kept", "next_singular_value",
                        "residual_energy_fraction", "residual_norm_fraction"])
        print(args.curve)
    return 0


def _resolve_frames(cfg, snaps) -> FrameShifts:
    """Read or track every frame's shifts and bundle them."""
    boundary = cfg.boundary or ("periodic" if snaps.grid.boundary == "periodic"
                                else "constant")
    rows = []
    for l, fc in enumerate(cfg.frames):
        if fc.shifts_path is not None:
            mat = io.read_shifts(fc.shifts_path)
            if mat.shape[1] != snaps.n_snapshots:
                raise io.FormatError(
                    f"{fc.shifts_path}: {mat.shape[1]} rows for"
                    f" {snaps.n_snapshots} snapshots")
            if mat.shape[0] != 1:
                raise io.ConfigError(
                    f"frame {l}: shift file must have one column,"
                    f" found {mat.shape[0]}")
            rows.append(mat[0])
        else:
            if fc.track_block not in snaps.block_names():
                raise io.ConfigError(
                    f"frame {l}: no variable block '{fc.track_block}'")
            rows.append(_tracked_shifts(fc, snaps, boundary == "periodic"))
    return FrameShifts(np.vstack(rows), ShiftSpec(boundary, cfg.degree))


def _frame_masks(cfg, snaps):
    if not any(fc.mask for fc in cfg.frames):
        return None
    blocks = {blk.name: blk for blk in snaps.blocks}
    masks = []
    for l, fc in enumerate(cfg.frames):
        mask = np.zeros(snaps.n_rows, dtype=bool)
        for name in fc.mask:
            if name not in blocks:
                raise io.ConfigError(f"frame {l}: no variable block '{name}'")
            mask[blocks[name].rows] = True
        masks.append(mask)
    return masks


def _cmd_spod(args) -> int:
    cfg = io.load_config(args.config)
    snaps = io.read_snapshots(cfg.snapshots)
    if cfg.scale_variables:
        snaps, factors = scale_variables(snaps)
        print(f"variable scaling factors: {factors}", file=sys.stderr)
    shifts = _resolve_frames(cfg, snaps)
    masks = _frame_masks(cfg, snaps)

    def progress(info):
        if info["stage"] == "initial":
            print(f"initial solve: r={info['r']} error={info['error']:.3e}",
                  file=sys.stderr)
        else:
            print(f"iteration {info['p']}: frame {info['chosen']} ->"
                  f" r={info['r']} error={info['error']:.3e}", file=sys.stderr)

    dec, report = spod_decompose(snaps, shifts, cfg.greedy, masks=masks,
                                 progress=progress)
    if cfg.scale_variables:  # modes back in the input's units
        for frame in dec.frames:
            for blk, factor in zip(snaps.blocks, factors):
                frame.modes[blk.rows] /= factor
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    io.write_decomposition(dec, os.path.join(out, "decomposition.bin"),
                           times=snaps.time.values)
    io.write_report(report, os.path.join(out, "report.json"))
    io.write_shifts(shifts.d, os.path.join(out, "resolved_shifts.csv"))
    io.write_manifest(cfg, os.path.join(out, "manifest.cfg"))
    err = report.error_history[-1] if report.error_history else float("nan")
    print(f"termination: {report.termination}")
    print(f"relative error: {err:.6e}")
    print(f"modes per frame: {report.r_final}")
    for st in report.stages:  # results that depend on the solver settings
        if st["termination"] == "iteration cap" or st["rank_deficient_evals"]:
            print(f"warning: {st['label']} solve ended by {st['termination']}"
                  f" with {st['rank_deficient_evals']} rank-deficient"
                  " snapshot solves", file=sys.stderr)
    print(f"runtime: {report.runtime_seconds:.1f} s", file=sys.stderr)
    return 0 if report.converged else 3


def _cmd_reconstruct(args) -> int:
    dec, times = io.read_decomposition(args.decomposition)
    data = reconstruct(dec)
    snaps = SnapshotSet(data, dec.grid, times, tuple(dec.blocks))
    io.write_snapshots(snaps, args.out)
    print(args.out)
    return 0


def _cmd_error(args) -> int:
    ref = io.read_snapshots(args.reference)
    test = io.read_snapshots(args.test)
    print(f"{relative_error(ref.data, test.data):.12e}")
    return 0


def _cmd_export_curves(args) -> int:
    import json

    snaps = io.read_snapshots(args.snapshots)
    with open(args.report) as f:
        report = json.load(f)
    try:
        base = sum(report["r0"])
        errors = np.asarray(report["error_history"], dtype=float)
        if errors.ndim != 1:
            raise ValueError("error_history is not a flat list")
    except (KeyError, TypeError, ValueError) as e:
        raise io.FormatError(f"{args.report}: not a spod report with lists 'r0' and "
                             f"'error_history' ({type(e).__name__}: {e})") from None
    os.makedirs(args.outdir, exist_ok=True)

    X = center_rows(snaps)[0].data if args.center else snaps.data
    _, squared, root = truncation_curve(X)
    pod_path = os.path.join(args.outdir, "pod_curve.csv")
    io.write_curve(pod_path, [np.arange(squared.size), squared, root],
                   ["modes", "relative_error_energy", "relative_error_norm"])

    modes = [base + i for i in range(errors.size)]
    spod_path = os.path.join(args.outdir, "spod_curve.csv")
    io.write_curve(spod_path,
                   [np.asarray(modes), errors, np.sqrt(errors)],
                   ["modes", "relative_error_energy", "relative_error_norm"])
    print(pod_path)
    print(spod_path)
    return 0


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["spod"] + argv  # bare flags mean the spod subcommand
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except io.ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:  # io.FormatError is a ValueError
        print(f"data error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
