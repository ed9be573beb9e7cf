"""Pulse-sequence experiments: angle-resolved Ramsey, state tomography,
detuning sweeps, and gain sweeps.

Pulses are instantaneous ideal rotations (right-hand rule about equatorial
axes); squeezing toggles instantaneously between pulse and evolution windows.
Every routine is closed form, with no ODE integrated in this module, and
takes the squeezer state from the rates alone: for "squeezer off", pass
rates with N = M = 0 (``replace(r, N=0.0, M_abs=0.0)``).
A Ramsey run prepares |pi/2, phi> with a pi/2 pulse about the
``-x cos(phi) + y sin(phi)`` axis, evolves, then applies a second pi/2 pulse
about an axis rotating at the modulation frequency, which yields fringes
without detuning the pulses.

The Ramsey fringe is evaluated in closed form over the whole time grid.  The
first pulse leaves (sx, sy) = (sin phi, cos phi); free evolution maps it to
``(x~, y~) = transverse_propagator_xy(r, t) @ (sin phi, cos phi)`` in the
squeezer's frame, the lab's ``x + i y = exp(-2 pi i delta t) (x~ + i y~)``;
the second pulse, at azimuth ``-pi/2 - 2 pi omega_mod t``, reads ``sz =
Re(exp(2 pi i (omega_mod - delta) t) (x~ + i y~))``.  :func:`run_sequence`
stays the general pulse-by-pulse oracle it is checked against.

Effective decay constants at finite squeezer detuning follow the measured
procedure: the fringe signal and its quadrature partner (the second pulse's
axis a quarter turn behind) give the transverse coherence in the frame
co-rotating with both the modulation and the squeezer, and its magnitude,
the envelope, is fit to a single exponential.

Every routine returns the arrays it computes: a Ramsey trace, a trajectory,
the (phase, detuning) grids of a detuning sweep and the rows of a gain sweep.
Their file formats live in :mod:`sqbloch.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blochdyn import (
    BlochState,
    DecayRates,
    frame_rotation,
    transverse_propagator_xy,
)
from .errors import DegenerateFitError
from .estimation import fit_exp
from .reservoir import eta_curve
from . import blochdyn

__all__ = [
    "Pulse",
    "PulseSequence",
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


def _fringe(r: DecayRates, phis, deltas, omega_mod: float, t: np.ndarray):
    """Fringe and its quadrature partner, ``I + iQ = exp(2 pi i (omega_mod -
    d) t) (x~ + i y~)`` of the module docstring, over the (phase, detuning,
    time) grid, shape ``(len(phis), len(deltas), len(t))``; detuning ``d`` of
    the array ``deltas`` runs the rates ``replace(r, delta=d)``.

    Q is read with the second pulse's axis a quarter turn behind; the carrier
    has unit modulus, so ``|I + iQ|`` is the envelope ``|x~ + i y~|``.  Every
    phase shares one propagator grid and one carrier row per detuning.
    """
    prop = transverse_propagator_xy(r, t, deltas)
    carrier = np.exp(2j * math.pi * (omega_mod - deltas)[:, None] * t)
    iq = np.empty((len(phis), len(deltas), t.size), dtype=complex)
    for row, phi in zip(iq, phis):
        xy = prop @ np.array([math.sin(phi), math.cos(phi)])
        np.multiply(carrier, xy[..., 0] + 1j * xy[..., 1], out=row)
    if np.any(np.abs(iq.real) > 1.0 + 1e-9):
        raise ValueError("|<sz>| must not exceed 1")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return iq


def ramsey(r: DecayRates, phi: float, omega_mod: float, t_samples) -> np.ndarray:
    """Angle-resolved Ramsey trace: the array of <sz> over ``t_samples``.

    ``omega_mod`` is the modulation frequency of the second pi/2 pulse in
    ordinary MHz.  For the squeezer off, pass rates with N = M = 0, e.g.
    ``replace(r, N=0.0, M_abs=0.0)``: the same gamma and gamma_phi give a
    phase-uniform decay at T2*.  The fringe is the closed form of the module
    docstring, evaluated over all samples at once.  Raises ValueError if the
    samples are not strictly increasing or some |<sz>| exceeds 1.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    return _fringe(r, [phi], np.array([r.delta]), omega_mod, t_samples)[0, 0].real


def tomography_trajectory(r: DecayRates, prep: tuple[float, float], t_samples) -> np.ndarray:
    """Bloch vectors (sx, sy, sz) from |theta, phi>, as a (len(t_samples), 3) array.

    Readout is ideal tomography (the rotate-then-read bookkeeping is the
    ``read_component`` helper, verified to agree exactly), every sample in
    closed form; driven dynamics live in :mod:`sqbloch.blochdyn`.  Raises
    ValueError if some sample leaves the Bloch ball (norm^2 above 1).
    """
    t_samples = np.asarray(t_samples, dtype=float)
    s0 = BlochState.from_angles(*prep)
    prop = frame_rotation(r, t_samples) @ transverse_propagator_xy(r, t_samples)
    s = np.column_stack([prop @ s0.as_array()[:2], _sz_relax(s0.sz, r, t_samples)])
    norm_sq = (s**2).sum(axis=1)
    if np.any(norm_sq > 1.0 + 1e-9):  # BlochState's bound, on every sample
        raise ValueError(f"Bloch vector norm^2 = {norm_sq.max():.6g} exceeds 1")
    return s


def detuning_sweep(
    r_base: DecayRates,
    deltas,
    phis,
    t_samples,
    omega_mod: float = 5.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective decay constants versus squeezer detuning (MHz), for each
    preparation phase of ``phis``: ``(traces, T_eff, converged)`` of shapes
    ``(P, D, n)``, ``(P, D)`` and ``(P, D)`` for P phases, D detunings and n
    samples, in the order of ``phis`` and ``deltas``.

    Each point simulates the modulated Ramsey trace and its quadrature
    partner, and fits their magnitude, the envelope of the module docstring,
    to a single exponential.  The traces of every (phase, detuning) point
    come from one propagator grid, and all envelopes are fitted as one stack
    (:func:`~sqbloch.estimation.fit_exp`), with the result a point would get
    on its own.  ``traces[i, j]`` is the in-phase trace
    ``ramsey(replace(r, delta=deltas[j]), phis[i], omega_mod, t_samples)``.
    A point whose fit fails has ``T_eff = nan`` and ``converged = False``;
    the sweep continues.  A flat envelope (no decay) has ``T_eff = inf`` and
    ``converged = True``.  Empty ``deltas`` or ``phis`` give zero-size axes.
    Raises ValueError as :func:`ramsey` does.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    deltas = np.array([float(delta) for delta in deltas])
    phis = [float(phi) for phi in phis]
    iq = _fringe(r_base, phis, deltas, omega_mod, t_samples)
    fits = fit_exp(t_samples, np.abs(iq).reshape(-1, t_samples.size))
    T_eff = np.full(len(fits), math.nan)
    converged = np.zeros(len(fits), dtype=bool)
    for k, fit in enumerate(fits):  # a flat envelope's fit has T = inf, converged
        if not isinstance(fit, DegenerateFitError):
            T_eff[k], converged[k] = fit.T, fit.converged
    return iq.real, T_eff.reshape(iq.shape[:2]), converged.reshape(iq.shape[:2])


def gain_sweep(n_values, eta: float, T1: float, T_phi: float) -> np.ndarray:
    """Axis timescales versus squeezer gain, parameterized by measured N: an
    ``(len(n_values), 6)`` array whose columns are ``N, M, Tx, Ty, Tz, M - N``.

    M follows the attenuated ideal-source curve M = sqrt(N^2 + eta N); at
    eta = 1 the (N, M - N) relation is the minimum-uncertainty line.
    """
    n_values = [float(n) for n in n_values]
    rows = np.empty((len(n_values), 6))
    for row, n in zip(rows, n_values):
        m = n + eta_curve(n, eta)
        ts = blochdyn.axis_timescales(DecayRates.from_times(T1=T1, T_phi=T_phi, N=n, M=m))
        row[:] = n, m, ts.Tx, ts.Ty, ts.Tz, m - n
    return rows
