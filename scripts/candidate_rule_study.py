"""How often the greedy fan-out picks another frame than full solves do.

    PYTHONPATH=src python scripts/candidate_rule_study.py [--verbose]

spod_decompose solves the candidates of a greedy iteration by successive
halving.  This script runs it on 76 sub-problems with at least three
frames, and beside it the same greedy loop under two other rules:

- "full": every candidate is solved to the cap and the one with the
  lowest error is kept (the reference halving tries to match);
- "keep-one": with three or more candidates, only the one with the
  lowest start-point error is solved (ties go to the lower frame); one
  or two candidates are solved to the cap, as under halving.

The sub-problems:

- every 3-, 4- and 5-frame subset of crossing_fronts(m=200, n=60), each
  with r0 all ones or with its last entry 0, at max_iters 10 and 30
  (64 runs);
- three bumps at fractional speeds (the three_transport_set of
  tests/test_greedy.py) with four r0 and caps of 10, 20 and 30 (12 runs).

Every run uses p_max = 3 and tol = 1e-12, so it makes three greedy
iterations unless a solve fails.  A rule disagrees with "full" when its
chosen frames differ; the script prints every disagreement with the
first iteration at which the choice differs, and the ratio of the rule's
final error to that of "full".  A new fan-out rule should disagree with
full solves less often than halving does.
"""

import argparse
import itertools
import time

import numpy as np

from spod.core import FrameShifts, ReducedObjective
from spod.generators import CrossingFrontsParams, crossing_fronts
from spod.greedy import (GreedyConfig, _seed_modes, _Solve, initialize_frames,
                         spod_decompose)
from spod.lbfgs import OptimizerAbort, OptimizerOptions
from spod.shifts import ShiftSpec
from spod.snapshots import Grid1D, SnapshotSet


def three_transport_set(m=64, n=24, speed=1.37):
    """Three bumps at fractional speeds on a periodic grid."""
    grid = Grid1D(m, 1.0 / m, "periodic")
    x = grid.coordinates()
    t = np.arange(n, dtype=float) * grid.h * speed

    def bump(center, width):
        z = (x[:, None] - center[None, :] + 0.5) % 1.0 - 0.5
        return np.exp(-((z / width) ** 2))

    X = (bump(0.2 + t, 0.05) + 0.7 * bump(0.6 - t, 0.08)
         + 0.5 * bump(0.4 + 2 * t, 0.06))
    snaps = SnapshotSet(X, grid, np.arange(n, dtype=float))
    return snaps, FrameShifts(np.vstack([-t, t, -2 * t]),
                              ShiftSpec("periodic", 3))


def cases():
    """(name, snaps, shifts, r0, max_iters) of every sub-problem."""
    snaps, shifts = crossing_fronts(CrossingFrontsParams(m=200, n=60))
    for k in (3, 4, 5):
        for frames in itertools.combinations(range(shifts.n_frames), k):
            sub = FrameShifts(shifts.d[list(frames)], shifts.spec)
            for r0 in ([1] * k, [1] * (k - 1) + [0]):
                for cap in (10, 30):
                    yield (f"crossing{list(frames)}", snaps, sub, r0, cap)
    snaps, shifts = three_transport_set()
    for r0 in ([1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0]):
        for cap in (10, 20, 30):
            yield "three-transport", snaps, shifts, r0, cap


def fan_out(snaps, shifts, config, keep_one):
    """The greedy loop of spod_decompose with every candidate solved to
    the cap (keep_one False), or with only the best start point of three
    or more candidates solved (keep_one True): chosen frames, final error."""
    base = ReducedObjective(snaps, shifts, config.r0, rank_tol=config.rank_tol)
    opts, cap = config.optimizer, config.optimizer.max_iters
    seeds = base.unpack(base.pack(
        [f.modes for f in initialize_frames(snaps, shifts, config.r0)]))
    incumbent = _Solve(base.with_counts(config.r0), seeds)
    incumbent.run_to(cap, opts)
    modes, err, _ = incumbent.result("initial")
    chosen = []
    while err > config.tol and len(chosen) < config.p_max:
        resid = incumbent.fit()[1]
        solves = []
        for i in range(shifts.n_frames):
            counts = [W.shape[1] for W in modes]
            counts[i] += 1
            w_new = _seed_modes(resid, snaps, shifts, i, 1)
            init = [W if l != i else np.hstack([W, w_new])
                    for l, W in enumerate(modes)]
            solves.append(_Solve(base.with_counts(counts), init))
        alive = list(range(shifts.n_frames))
        if keep_one and len(alive) >= 3:
            for sv in solves:
                sv.run_to(0, opts)
            alive = [min(alive, key=lambda i: (solves[i].error, i))]
        for i in alive:
            solves[i].run_to(cap, opts)
        q = min(alive, key=lambda i: (solves[i].error, i))
        incumbent = solves[q]
        modes, err, _ = incumbent.result(f"iteration {len(chosen) + 1}")
        chosen.append(q)
    return chosen, err


def first_difference(a, b):
    """1-based greedy iteration of the first differing choice, or None."""
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k + 1
    return None if len(a) == len(b) else min(len(a), len(b)) + 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--verbose", action="store_true",
                    help="print every run, not only the disagreements")
    args = ap.parse_args()

    rules = ("halving", "keep-one")
    tally = {rule: {"runs": 0, "disagree": 0, "at_first": 0, "ratios": []}
             for rule in rules}
    failures = 0
    t0 = time.perf_counter()
    for name, snaps, shifts, r0, cap in cases():
        config = GreedyConfig(r0=list(r0), tol=1e-12, p_max=3,
                              optimizer=OptimizerOptions(max_iters=cap))
        _, rep = spod_decompose(snaps, shifts, config)
        try:
            runs = {"full": fan_out(snaps, shifts, config, keep_one=False),
                    "keep-one": fan_out(snaps, shifts, config, keep_one=True)}
        except OptimizerAbort:
            runs = None
        if runs is None or rep.termination == "optimizer failure":
            failures += 1
            print(f"{name} r0={r0} cap={cap}: optimizer failure")
            continue
        runs["halving"] = rep.chosen_frames, rep.error_history[-1]
        full_chosen, full_err = runs["full"]
        for rule in rules:
            chosen, err = runs[rule]
            at = first_difference(chosen, full_chosen)
            ratio = err / full_err
            t = tally[rule]
            t["runs"] += 1
            t["ratios"].append(ratio)
            if at is not None:
                t["disagree"] += 1
                t["at_first"] += at == 1
            if at is not None or args.verbose:
                print(f"{name} r0={r0} cap={cap} {rule}: chose {chosen},"
                      f" full {full_chosen}"
                      + (f", first differs at iteration {at}"
                         if at is not None else "")
                      + f", final error ratio {ratio:.4g}")
    print()
    for rule in rules:
        t = tally[rule]
        ratios = np.array(t["ratios"])
        print(f"{rule}: disagrees with full solves in {t['disagree']} of"
              f" {t['runs']} runs ({t['at_first']} at iteration 1);"
              f" final error ratio to full: worst {ratios.max():.3g},"
              f" best {ratios.min():.3g}, median {np.median(ratios):.4g}")
    if failures:
        print(f"{failures} runs ended in an optimizer failure")
    print(f"{time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
