"""Shifted proper orthogonal decomposition by residual minimization.

Decomposes space-time snapshot matrices into co-moving frames, each a
low-rank set of spatial modes with time-dependent amplitudes, shifted by
prescribed time-dependent offsets before superposition.
"""

from .core import (Decomposition, FrameBasis, FrameShifts,
                   objective_and_gradient, optimal_amplitudes, reconstruct)
from .generators import (CrossingFrontsParams, WaveParams, crossing_fronts,
                         periodic_gaussian, three_signal_default,
                         three_signal_shifts, three_signal_snapshots,
                         wave_shifts, wave_snapshots)
from .greedy import (GreedyConfig, GreedyReport, back_shifted_matrix,
                     initialize_frames, spod_decompose)
from .lbfgs import OptimizerOptions, OptimizerTrace, minimize
from .pod import modes_for_tolerance, truncation_curve
from .shifts import (ShiftSpec, apply_shift, apply_shift_transpose,
                     dense_shift_matrix, shift_operator)
from .snapshots import (Grid1D, SnapshotSet, TimeAxis, VariableBlock,
                        center_rows, relative_error, scale_variables)
from .tracking import WindowSchedule, center_shifts, track_front

__all__ = [
    "CrossingFrontsParams", "Decomposition", "FrameBasis", "FrameShifts",
    "Grid1D", "GreedyConfig", "GreedyReport", "OptimizerOptions",
    "OptimizerTrace", "ShiftSpec", "SnapshotSet", "TimeAxis",
    "VariableBlock", "WaveParams", "WindowSchedule", "apply_shift",
    "apply_shift_transpose", "back_shifted_matrix", "center_rows",
    "center_shifts", "crossing_fronts", "dense_shift_matrix",
    "initialize_frames", "minimize", "modes_for_tolerance",
    "objective_and_gradient", "optimal_amplitudes", "periodic_gaussian",
    "reconstruct", "relative_error", "scale_variables", "shift_operator",
    "spod_decompose", "three_signal_default", "three_signal_shifts",
    "three_signal_snapshots", "track_front", "truncation_curve",
    "wave_shifts", "wave_snapshots",
]

__version__ = "0.1.0"
