"""Pulse-sequence experiments: angle-resolved Ramsey, state tomography,
detuning sweeps, and gain sweeps.

Pulses are instantaneous ideal rotations (right-hand rule about equatorial
axes); squeezing toggles instantaneously between pulse and evolution windows.
A Ramsey run prepares |pi/2, phi> with a pi/2 pulse about the
``-x cos(phi) + y sin(phi)`` axis, evolves, then applies a second pi/2 pulse
about an axis rotating at the modulation frequency, which yields fringes
without detuning the pulses.

The Ramsey fringe is evaluated in closed form over the whole time grid.  The
first pulse leaves (sx, sy) = (sin phi, cos phi); free evolution maps it to
``(x, y) = frame_rotation(r, t) @ transverse_propagator_xy(r, t) @ (sin phi,
cos phi)``; the second pulse, at azimuth ``-pi/2 - theta`` with ``theta = 2 pi
omega_mod t``, reads ``sz = cos(theta) x - sin(theta) y``.  :func:`run_sequence`
stays the general pulse-by-pulse oracle it is checked against.

Effective decay constants at finite squeezer detuning follow the measured
procedure: the fringe signal and its quadrature partner (the second pulse's
axis a quarter turn behind) are demodulated into the frame co-rotating with
both the modulation and the squeezer, and the envelope magnitude is fit to a
single exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blochdyn import (
    BlochState,
    DecayRates,
    frame_rotation,
    transverse_propagator_xy,
)
from .errors import DegenerateFitError
# fit_exp stays bound here too; perfbench's tracer self-test wraps it at this name.
from .estimation import fit_exp, fit_exp_stack  # noqa: F401
from .reservoir import eta_curve
from ._table import csv_table
from . import blochdyn

__all__ = [
    "BlochTrajectory",
    "DetuningSweepPoint",
    "GainSweepPoint",
    "Pulse",
    "PulseSequence",
    "RamseyTrace",
    "apply_rotation",
    "detuning_sweep",
    "gain_sweep",
    "ramsey",
    "read_component",
    "run_sequence",
    "tomography_trajectory",
]


def apply_rotation(s: BlochState, angle: float, azimuth: float) -> BlochState:
    """Rigid rotation of the Bloch vector about the equatorial axis at
    ``azimuth`` (radians from +x), right-hand rule."""
    n = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    v = s.as_array()
    c, si = math.cos(angle), math.sin(angle)
    out = c * v + si * np.cross(n, v) + (1.0 - c) * np.dot(n, v) * n
    return BlochState.from_array(out)


def read_component(s: BlochState, axis: str) -> float:
    """Tomographic readout: rotate the chosen component onto z, then read z.

    'z' reads directly; 'x' uses a pi/2 pulse about -y and 'y' a pi/2 pulse
    about +x, with signs arranged so the returned value equals the Bloch
    component itself.
    """
    if axis == "z":
        return s.sz
    if axis == "x":
        return apply_rotation(s, 0.5 * math.pi, -0.5 * math.pi).sz
    if axis == "y":
        return apply_rotation(s, 0.5 * math.pi, 0.0).sz
    raise ValueError(f"unknown readout axis {axis!r}")


@dataclass(frozen=True)
class Pulse:
    """Instantaneous rotation at ``time`` (us)."""

    angle: float
    azimuth: float
    time: float

    def __post_init__(self):
        if not 0.0 < self.angle <= 2.0 * math.pi:
            raise ValueError("rotation angle must lie in (0, 2 pi]")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses, a squeezing window, and a final measurement basis."""

    pulses: tuple[Pulse, ...]
    squeezing_window: tuple[float, float] | None = None
    measurement_basis: str = "z"

    def __post_init__(self):
        times = [p.time for p in self.pulses]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("pulse time offsets must be nondecreasing")
        if self.squeezing_window is not None:
            on, off = self.squeezing_window
            if off < on:
                raise ValueError("squeezing window must have off >= on")
        if self.measurement_basis not in ("z", "x", "y"):
            raise ValueError(f"unknown measurement basis {self.measurement_basis!r}")


def _sz_relax(sz: float, r: DecayRates, dt):
    """<sz> after relaxing for ``dt`` (scalar or array)."""
    sz_ss = r.gamma / r.rate_z if r.rate_z else sz
    return sz_ss + (sz - sz_ss) * np.exp(-r.rate_z * np.asarray(dt))


def _evolve_lab(s: BlochState, r: DecayRates, t0: float, t1: float) -> BlochState:
    """Free evolution between absolute times, reported in lab components.

    The co-rotating frame is anchored at t = 0, so segments compose
    correctly across pulses.
    """
    dt = t1 - t0
    xy = frame_rotation(r, t1) @ (
        transverse_propagator_xy(r, dt) @ (frame_rotation(r, -t0) @ np.array([s.sx, s.sy]))
    )
    return BlochState(sx=float(xy[0]), sy=float(xy[1]), sz=float(_sz_relax(s.sz, r, dt)))


def _evolve_with_window(
    s: BlochState,
    rates: DecayRates,
    t0: float,
    t1: float,
    window: tuple[float, float] | None,
) -> BlochState:
    """Evolve across [t0, t1], squeezed inside the window, plain vacuum
    (same gamma, gamma_phi) outside."""
    vacuum = replace(rates, N=0.0, M_abs=0.0)
    if window is None:
        return _evolve_lab(s, vacuum, t0, t1)
    cuts = sorted({t0, t1, min(max(window[0], t0), t1), min(max(window[1], t0), t1)})
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        inside = window[0] <= a and b <= window[1]
        s = _evolve_lab(s, rates if inside else vacuum, a, b)
    return s


def run_sequence(seq: PulseSequence, rates: DecayRates) -> float:
    """Execute a pulse sequence from the ground state and read out.

    Returns the measured component right after the final pulse.
    """
    s = BlochState(0.0, 0.0, 1.0)
    t = 0.0
    for pulse in seq.pulses:
        s = _evolve_with_window(s, rates, t, pulse.time, seq.squeezing_window)
        s = apply_rotation(s, pulse.angle, pulse.azimuth)
        t = pulse.time
    return read_component(s, seq.measurement_basis)


@dataclass(frozen=True)
class RamseyTrace:
    """<sz>(t) of an angle-resolved Ramsey run."""

    phi: float
    omega_mod: float
    times: np.ndarray
    sz_values: np.ndarray
    squeezing_on: bool

    def __post_init__(self):
        if np.any(np.abs(self.sz_values) > 1.0 + 1e-9):
            raise ValueError("|<sz>| must not exceed 1")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def to_csv(self) -> str:
        return csv_table("ramsey-trace-v1", "t_us,sz", self.times, self.sz_values)


def _fringe(r: DecayRates, phi: float, omega_mod: float, t: np.ndarray, squeezing_on: bool):
    """Fringe and its quadrature partner as ``I + iQ = exp(i theta) (x + i y)``.

    I is the fringe of the module docstring; Q is read with the second pulse's
    axis a quarter turn behind, ``sin(theta) x + cos(theta) y``.  With
    squeezing off, evolution uses N = M = 0 at the same gamma and gamma_phi.
    """
    if not squeezing_on:
        r = replace(r, N=0.0, M_abs=0.0)
    s0 = np.array([math.sin(phi), math.cos(phi)])
    x, y = (frame_rotation(r, t) @ transverse_propagator_xy(r, t) @ s0).T
    return np.exp(2j * math.pi * omega_mod * t) * (x + 1j * y)


def ramsey(
    r: DecayRates,
    phi: float,
    omega_mod: float,
    t_samples,
    squeezing_on: bool = True,
) -> RamseyTrace:
    """Angle-resolved Ramsey trace.

    ``omega_mod`` is the modulation frequency of the second pi/2 pulse in
    ordinary MHz.  With squeezing off, evolution uses N = M = 0 at the same
    gamma and gamma_phi, giving a phase-uniform decay at T2*.  The fringe is
    the closed form of the module docstring, evaluated over all samples at
    once.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    return RamseyTrace(
        phi=phi,
        omega_mod=omega_mod,
        times=t_samples,
        sz_values=_fringe(r, phi, omega_mod, t_samples, squeezing_on).real,
        squeezing_on=squeezing_on,
    )


@dataclass(frozen=True)
class BlochTrajectory:
    """Tomographically read Bloch vector under squeezed-vacuum decay."""

    times: np.ndarray
    states: tuple[BlochState, ...]
    prep: tuple[float, float]

    def to_csv(self) -> str:
        xyz = [s.as_array() for s in self.states]
        return csv_table("bloch-trajectory-v1", "t_us,sx,sy,sz", self.times, xyz)


def tomography_trajectory(
    r: DecayRates,
    prep: tuple[float, float],
    t_samples,
    drive: np.ndarray | None = None,
) -> BlochTrajectory:
    """Bloch-vector trajectory from a prepared state |theta, phi>.

    Readout is ideal tomography (the rotate-then-read bookkeeping is the
    ``read_component`` helper, verified to agree exactly).  An optional weak
    drive adds its torque; with a drive the trajectory is integrated
    numerically, otherwise the closed-form propagator is used.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    theta, phi = prep
    s0 = BlochState.from_angles(theta, phi)
    if drive is None:
        prop = frame_rotation(r, t_samples) @ transverse_propagator_xy(r, t_samples)
        s = np.column_stack([prop @ s0.as_array()[:2], _sz_relax(s0.sz, r, t_samples)])
        states = tuple(BlochState.from_array(row) for row in s)
    else:
        from .numerics import integrate_ode

        sol = integrate_ode(
            lambda t, y: blochdyn.bloch_rhs(y, r, drive),
            s0.as_array(),
            (0.0, float(t_samples[-1]) if t_samples[-1] > 0 else 1e-9),
            tol=1e-10,
            t_eval=t_samples,
        )
        states = tuple(BlochState.from_array(y) for y in sol.y)
    return BlochTrajectory(times=t_samples, states=states, prep=(theta, phi))


@dataclass(frozen=True)
class DetuningSweepPoint:
    """One fitted detuning point and the in-phase Ramsey trace it was fit from."""

    delta: float
    T_eff: float
    converged: bool
    message: str = ""
    trace: RamseyTrace | None = field(default=None, repr=False, compare=False)


def _demodulated_envelope(r, phi, omega_mod, t_samples):
    """In-phase Ramsey trace and |transverse coherence| in the frame rotating
    with modulation and squeezer, reconstructed from the fringe and its
    quadrature partner (both read from one evaluation of (sx, sy))."""
    iq = _fringe(r, phi, omega_mod, t_samples, True)
    omega_rel = 2.0 * math.pi * (omega_mod - r.delta)  # rad/us, lab fringe rate
    trace = RamseyTrace(phi, omega_mod, t_samples, iq.real, squeezing_on=True)
    return trace, np.abs(iq * np.exp(-1j * omega_rel * t_samples))


def detuning_sweep(
    r_base: DecayRates,
    deltas,
    phi: float,
    t_samples,
    omega_mod: float = 5.0,
) -> list[DetuningSweepPoint]:
    """Effective decay constants versus squeezer detuning (MHz).

    Each point simulates the modulated Ramsey trace, transforms into the
    co-rotating frame, and fits the envelope magnitude to a single
    exponential; the envelopes of all points are fitted as one stack
    (:func:`~sqbloch.estimation.fit_exp_stack`), with the result a point
    would get on its own.  Fit failures are reported per point; the sweep
    continues.
    Every point carries its in-phase trace, ``ramsey(r, phi, omega_mod,
    t_samples)`` at that detuning, as ``trace``.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    deltas = [float(delta) for delta in deltas]
    if not deltas:
        return []
    traces, envelopes = zip(
        *(
            _demodulated_envelope(replace(r_base, delta=delta), phi, omega_mod, t_samples)
            for delta in deltas
        )
    )
    points = []
    for delta, trace, fit in zip(deltas, traces, fit_exp_stack(t_samples, np.array(envelopes))):
        if isinstance(fit, DegenerateFitError):
            T_eff, converged, message = math.nan, False, str(fit)
        elif fit.no_decay:
            T_eff, converged, message = math.inf, True, "no decay"
        else:
            T_eff, converged = fit.T, fit.converged
            message = "" if converged else "fit did not converge"
        points.append(DetuningSweepPoint(delta, T_eff, converged, message, trace))
    return points


@dataclass(frozen=True)
class GainSweepPoint:
    N: float
    M: float
    Tx: float
    Ty: float
    Tz: float
    M_minus_N: float


def gain_sweep(
    n_values, eta: float, T1: float, T_phi: float
) -> list[GainSweepPoint]:
    """Axis timescales versus squeezer gain, parameterized by measured N.

    M follows the attenuated ideal-source curve M = sqrt(N^2 + eta N); at
    eta = 1 the (N, M - N) relation is the minimum-uncertainty line.
    """
    points = []
    for n in n_values:
        n = float(n)
        m = n + eta_curve(n, eta)
        ts = blochdyn.axis_timescales(
            DecayRates.from_times(T1=T1, T_phi=T_phi, N=n, M=m)
        )
        points.append(
            GainSweepPoint(N=n, M=m, Tx=ts.Tx, Ty=ts.Ty, Tz=ts.Tz, M_minus_N=m - n)
        )
    return points


def detuning_sweep_to_csv(points: list[DetuningSweepPoint]) -> str:
    rows = [(p.delta, p.T_eff, p.converged) for p in points]
    return csv_table("detuning-sweep-v1", "delta_mhz,T_eff_us,converged", rows)


def gain_sweep_to_csv(points: list[GainSweepPoint]) -> str:
    rows = [(p.N, p.M, p.Tx, p.Ty, p.Tz, p.M_minus_N) for p in points]
    return csv_table("gain-sweep-v1", "N,M,Tx_us,Ty_us,Tz_us,M_minus_N", rows)
