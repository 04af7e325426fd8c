"""Synthetic transport scenarios with known shift trajectories.

Every generator returns the snapshot set together with the frame shifts
that produced it, so experiments can be run end to end without an
external data source.  All scenarios are deterministic functions of
their parameter dataclasses.

Sign conventions match the shift operators: a profile travelling to the
right with speed c appears in a frame with shift d_j = -c*t_j under the
periodic convention (T(d) samples at x + d), while the constant
extrapolation operators use d_j = +c*t_j directly.
"""

from dataclasses import dataclass

import numpy as np

from .core import FrameShifts
from .shifts import ShiftSpec
from .snapshots import Grid1D, SnapshotSet, VariableBlock


def _wrap_centered(z, length):
    # map to [-length/2, length/2) so pulse profiles stay localized
    return (z + 0.5 * length) % length - 0.5 * length


@dataclass(frozen=True)
class WaveParams:
    """Travelling acoustic pulse pair on a periodic domain.

    The initial density hump splits into a left and a right moving copy;
    velocity carries the same two profiles with opposite signs.  With the
    defaults, c * t_j is an exact grid multiple for every snapshot.
    """

    m: int = 1024
    n: int = 256
    t_final: float = 1.0
    speed: float = 1.0
    rho_ref: float = 1.0
    center: float = 0.5
    width: float = 0.01

    def __post_init__(self):
        if self.m < 2 or self.n < 1:
            raise ValueError("need m >= 2 and n >= 1")
        if self.speed <= 0 or self.width <= 0 or self.rho_ref <= 0:
            raise ValueError("speed, width and rho_ref must be positive")


def wave_snapshots(params: WaveParams = WaveParams()):
    """Sample the pulse pair; density and velocity stacked as two blocks."""
    m, n = params.m, params.n
    grid = Grid1D(m, 1.0 / m, boundary="periodic")
    x = grid.coordinates()[:, None]
    t = params.t_final * np.arange(n) / n
    c, rho_ref = params.speed, params.rho_ref

    def pulse(z):
        return np.exp(-((_wrap_centered(z - params.center, grid.length)
                         / params.width) ** 2))

    plus = pulse(x + c * t)   # left mover
    minus = pulse(x - c * t)  # right mover
    rho = 0.5 * plus + 0.5 * minus
    u = (c / (2.0 * rho_ref)) * (minus - plus)

    blocks = (VariableBlock("density", 0, m), VariableBlock("velocity", m, 2 * m))
    return SnapshotSet(np.vstack([rho, u]), grid, t, blocks)


def wave_shifts(params: WaveParams = WaveParams()):
    """Frame shifts of the pulse pair: frame 0 is the right mover (-c*t),
    frame 1 the left mover (+c*t)."""
    t = params.t_final * np.arange(params.n) / params.n
    d = np.vstack([-params.speed * t, params.speed * t])
    return FrameShifts(d, ShiftSpec("periodic", 3))


def three_signal_snapshots(q1, q2, q3, grid: Grid1D, times):
    """Sample q1(x+t) + q2(x-t) + cos(t) q3(x) on a periodic grid.

    The q_i are callables evaluated on arrays: q1 and q2 receive (m, n)
    arrays of arguments wrapped into [0, L), so plain (non-periodic)
    profiles act as if they were periodized, and q3 receives the (m, 1)
    grid column.  Single variable block.
    """
    if grid.boundary != "periodic":
        raise ValueError("three-signal scenario requires a periodic grid")
    t = np.asarray(times, dtype=float)
    x = grid.coordinates()[:, None]
    L = grid.length
    data = q1((x + t) % L) + q2((x - t) % L) + np.cos(t) * q3(x)
    return SnapshotSet(data, grid, t)


def three_signal_shifts(times):
    """The frame shifts (t, -t, 0) matching the three transports."""
    t = np.asarray(times, dtype=float)
    d = np.vstack([t, -t, np.zeros_like(t)])
    return FrameShifts(d, ShiftSpec("periodic", 3))


def periodic_gaussian(center, width, length):
    """Gaussian bump wrapped onto a circle of circumference `length`."""

    def profile(z):
        return np.exp(-((_wrap_centered(np.asarray(z) - center, length)
                         / width) ** 2))

    return profile


def three_signal_default(m: int = 128, n: int = 48):
    """Canned instance on [0, 2*pi): two Gaussians plus a sine.

    Snapshot times are grid multiples (t_j = j*h), but (h*j)/h rounds: in
    frames 0 and 1, 7 of the 48 default shifts miss j cells by 1.8e-15 to
    7.1e-15, and those snapshots get four cubic weights, each within that
    miss of a permutation's.  The other shifts are exact permutations.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    L = 2.0 * np.pi
    grid = Grid1D(m, L / m, boundary="periodic")
    t = grid.h * np.arange(n)
    q1 = periodic_gaussian(2.0, 0.35, L)
    q2 = periodic_gaussian(4.0, 0.5, L)
    snaps = three_signal_snapshots(q1, q2, np.sin, grid, t)
    return snaps, three_signal_shifts(t)


@dataclass(frozen=True)
class CrossingFrontsParams:
    """Multi-front scenario on a bounded domain with crossing trajectories.

    Four localized structures move along piecewise linear paths: a steep
    step front and a pulse that merge at `merge_time` and continue
    together, a pulse born at the merge that travels back, reflects at
    `reflect_time`, and a fourth pulse born at `rebirth_time`.  A pulsing
    stationary hump and a standing oscillation provide non-transported
    background.  A second variable block carries a sharper copy of the
    step front only.
    """

    m: int = 400
    n: int = 120
    t_final: float = 1.0
    merge_time: float = 0.4
    reflect_time: float = 0.775
    rebirth_time: float = 0.85
    ramp_width: float = 0.02
    front_amplitudes: tuple = (1.2, 0.8, 0.6, 0.5)
    front_widths: tuple = (0.010, 0.012, 0.012, 0.010)
    species_amplitude: float = 1.0
    species_width: float = 0.008
    background_amplitude: float = 1.6
    background_modulation: float = 0.55
    oscillation_amplitude: float = 1.8
    base_level: float = 0.0

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError("need m >= 2 and n >= 2")
        if len(self.front_amplitudes) != 4 or len(self.front_widths) != 4:
            raise ValueError("expected four front amplitudes and widths")


def _step(z, w):
    return 0.5 * (1.0 + np.tanh(z / w))


def _bump(z, w):
    return np.exp(-((z / w) ** 2))


def crossing_fronts(params: CrossingFrontsParams = CrossingFrontsParams()):
    """Return (snapshots, shifts) for the crossing-fronts scenario.

    Shifts center each trajectory (five frames: four moving, one zero).
    Raises if any trajectory leaves the domain, since the constant
    extrapolation operators cannot represent structure that exits.
    """
    p = params
    grid = Grid1D(p.m, 1.0 / (p.m - 1), boundary="non-periodic")
    x = grid.coordinates()[:, None]
    t = np.linspace(0.0, p.t_final, p.n)
    tm, tr, t4 = p.merge_time, p.reflect_time, p.rebirth_time

    p_front = np.where(t < tm, 0.22 + 0.25 * t, 0.32 + 0.9 * (t - tm))
    p_shock = np.where(t < tm, 0.28 + 0.10 * t, 0.32 + 0.9 * (t - tm))
    p_refl = np.where(t < tr, 0.32 - 0.8 * (t - tm), 0.02 + 0.8 * (t - tr))
    p_rerefl = 0.2 - 0.7 * (t - t4)
    paths = np.vstack([p_front, p_shock, p_refl, p_rerefl])
    if paths.min() < 0.0 or paths.max() > grid.length:
        raise ValueError("a front trajectory leaves the domain")

    def ramp(t0):
        return 0.5 * (1.0 + np.tanh((t - t0) / p.ramp_width))

    a3, a4 = ramp(tm), ramp(t4)
    amp, wid = p.front_amplitudes, p.front_widths

    rho = (
        p.base_level
        + amp[0] * _step(-(x - p_front), wid[0])
        + amp[1] * _bump(x - p_shock, wid[1])
        + amp[2] * a3 * _bump(x - p_refl, wid[2])
        + amp[3] * a4 * _bump(x - p_rerefl, wid[3])
        + p.background_amplitude
        * (1.0 + p.background_modulation * np.sin(2.0 * np.pi * t))
        * _bump(x - 0.2, 0.05)
        + p.oscillation_amplitude
        * np.cos(4.0 * np.pi * t) * np.sin(5.0 * np.pi * x)
    )
    species = p.species_amplitude * _step(-(x - p_front), p.species_width)

    blocks = (VariableBlock("density", 0, p.m),
              VariableBlock("species", p.m, 2 * p.m))
    snaps = SnapshotSet(np.vstack([rho, species]), grid, t, blocks)
    d = np.vstack([paths - 0.5 * grid.length, np.zeros(p.n)])
    return snaps, FrameShifts(d, ShiftSpec("constant", 3))
