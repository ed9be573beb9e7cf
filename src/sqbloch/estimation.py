"""Inverse pipeline: decay constants from traces, then reservoir moments.

Fits wrap the damped Gauss-Newton kernel with decay-specific initialization
(offset from the trace tail, time constant from a log-linear regression,
amplitude from the first sample), which removes initial-guess sensitivity on
the trace shapes this package produces; each fit model comes with its
closed-form derivative.  Moment extraction follows the
measured-timescale route: pure dephasing is subtracted from the transverse
time, then (Tz, Tx~) invert the axis-timescale map for (N, M), with the
thermal floor folded into the T1 calibration and subtracted from N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentInputsError, NotSqueezedError, UnphysicalRatesError
from .numerics import FitResult, fit_least_squares
from .reservoir import SqueezedReservoir, WignerGrid, variances, wigner_grid_for

__all__ = [
    "ExpFit",
    "MomentEstimate",
    "SinusoidFit",
    "estimate_moments",
    "fit_damped_sinusoid",
    "fit_exp",
    "infer_eta",
    "moments_from_decays",
    "reconstruct_wigner",
    "subtract_dephasing",
]

MIN_SAMPLES = 8  # fewest samples the decay fitters accept


@dataclass(frozen=True)
class ExpFit:
    """Single-exponential fit a exp(-t/T) + c; ``no_decay`` marks flat traces."""

    amplitude: float
    T: float
    offset: float
    T_stderr: float
    converged: bool
    no_decay: bool = False


@dataclass(frozen=True)
class SinusoidFit:
    """Damped sinusoid fit a exp(-t/T) sin(w t + phase) + c at fixed w."""

    amplitude: float
    T: float
    phase: float
    offset: float
    T_stderr: float
    converged: bool


def _envelope(t, T):
    # Clipping keeps trial steps with sign-flipped time constants finite.
    return np.exp(np.clip(-t / T, -700.0, 700.0))


def _envelope_dT(t, T):
    """The envelope and its T derivative ``envelope * t / T**2``, which is
    zero wherever the clip is active."""
    e = _envelope(t, T)
    x = t / T
    return e, np.where(np.abs(x) <= 700.0, e * x / T, 0.0)


def _T_stderr(res: FitResult) -> float:
    """Linearized standard error of the time constant, parameter 1 of each
    fit model (0 without a covariance or with a negative variance)."""
    if res.covariance is not None and res.covariance[1, 1] >= 0.0:
        return float(math.sqrt(res.covariance[1, 1]))
    return 0.0


def _exp_model(t, p):
    return p[0] * _envelope(t, p[1]) + p[2]


def _exp_jac(t, p):
    """Derivative of :func:`_exp_model` in (a, T, c)."""
    e, de = _envelope_dT(t, p[1])
    return np.column_stack([e, p[0] * de, np.ones_like(t)])


def _sine_model(t, p, w):
    return p[0] * _envelope(t, p[1]) * np.sin(w * t + p[2]) + p[3]


def _sine_jac(t, p, w):
    """Derivative of :func:`_sine_model` in (a, T, phase, c) at fixed w."""
    e, de = _envelope_dT(t, p[1])
    arg = w * t + p[2]
    s = np.sin(arg)
    return np.column_stack([e * s, p[0] * de * s, p[0] * e * np.cos(arg), np.ones_like(t)])


def _validate_trace(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size:
        raise ValueError("time and value arrays must have equal length")
    if t.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    for name, values in (("t", t), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return t, y


def fit_exp(t, y) -> ExpFit:
    """Fit a trace to ``a exp(-t/T) + c``.

    A trace with no resolvable decay returns T = inf with ``no_decay`` set.
    """
    t, y = _validate_trace(t, y)
    spread = float(np.ptp(y))
    if spread <= 1e-10 * max(1.0, float(np.abs(y).max())):
        return ExpFit(
            amplitude=0.0,
            T=math.inf,
            offset=float(np.mean(y)),
            T_stderr=0.0,
            converged=True,
            no_decay=True,
        )

    tail = max(2, t.size // 10)
    offset0 = float(np.mean(y[-tail:]))
    amp0 = float(y[0] - offset0)
    resid = np.abs(y - offset0)
    mask = resid > 1e-3 * resid.max()
    if mask.sum() >= 2:
        slope = np.polyfit(t[mask], np.log(resid[mask]), 1)[0]
        tau0 = -1.0 / slope if slope < 0.0 else float(t[-1] - t[0])
    else:
        tau0 = float(t[-1] - t[0])
    if amp0 == 0.0:
        amp0 = float(np.sign(y[np.argmax(resid)] - offset0) * resid.max())

    res = fit_least_squares(_exp_model, t, y, [amp0, tau0, offset0], jac=_exp_jac)
    return ExpFit(
        amplitude=float(res.params[0]),
        T=float(res.params[1]),
        offset=float(res.params[2]),
        T_stderr=_T_stderr(res),
        converged=res.converged,
    )


def fit_damped_sinusoid(t, y, omega_mod: float) -> SinusoidFit:
    """Fit ``a exp(-t/T) sin(w t + phase) + c`` with w fixed by ``omega_mod``
    (ordinary MHz).

    The returned amplitude is nonnegative and the phase normalized to
    [0, 2 pi).
    """
    t, y = _validate_trace(t, y)
    if omega_mod <= 0.0:
        raise ValueError("omega_mod must be positive")
    w = 2.0 * math.pi * omega_mod

    c0 = float(np.mean(y))
    z = (y - c0) * np.exp(-1j * w * t)
    half = t.size // 2
    z1 = np.abs(np.mean(z[:half]))
    z2 = np.abs(np.mean(z[half:]))
    if z1 > 0.0 and 0.0 < z2 < z1:
        dt = float(np.mean(t[half:]) - np.mean(t[:half]))
        tau0 = dt / math.log(z1 / z2)
    else:
        tau0 = float(t[-1] - t[0])
    phase0 = float(np.angle(np.mean(z[:half]))) + 0.5 * math.pi
    amp0 = 2.0 * z1 if z1 > 0.0 else float(np.ptp(y)) / 2.0

    res = fit_least_squares(
        lambda tt, p: _sine_model(tt, p, w), t, y, [amp0, tau0, phase0, c0],
        jac=lambda tt, p: _sine_jac(tt, p, w),
    )
    amp, tau, phase, c = (float(v) for v in res.params)
    if amp < 0.0:
        amp, phase = -amp, phase + math.pi
    phase = phase % (2.0 * math.pi)
    return SinusoidFit(
        amplitude=amp,
        T=tau,
        phase=phase,
        offset=c,
        T_stderr=_T_stderr(res),
        converged=res.converged,
    )


def subtract_dephasing(T_measured: float, T_phi: float) -> float:
    """Radiative time from a measured transverse time: 1/T~ = 1/T - 1/T_phi."""
    if T_measured <= 0.0 or T_phi <= 0.0:
        raise ValueError("times must be positive")
    if math.isinf(T_phi):
        return T_measured
    rate = 1.0 / T_measured - 1.0 / T_phi
    if rate <= 0.0:
        raise UnphysicalRatesError(
            f"T = {T_measured:.6g} us is not faster than T_phi = {T_phi:.6g} us: "
            "nonpositive radiative rate"
        )
    return 1.0 / rate


@dataclass(frozen=True)
class MomentEstimate:
    """Reservoir moments recovered from decay constants.

    ``N`` has the thermal floor subtracted; ``N_uncorrected`` keeps the raw
    inversion because the correction convention is not uniquely pinned by
    measured data.
    """

    N: float
    M: float
    N_th: float = 0.0
    eta_inferred: float | None = None
    N_uncorrected: float | None = None

    def __post_init__(self):
        if self.N < 0.0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        if self.M**2 > self.N * (self.N + 1.0) + 1e-9:
            warnings.warn(
                f"estimated moments (N={self.N:.4g}, M={self.M:.4g}) violate "
                "|M|^2 <= N(N+1) (possible within measurement error)",
                stacklevel=2,
            )


def moments_from_decays(
    T1: float, Tz: float, Tx_tilde: float, N_th: float = 0.0
) -> MomentEstimate:
    """Invert (Tz, Tx~) for the reservoir moments.

    The thermal floor rescales the measured T1 to its intrinsic value by
    (2 N_th + 1) and is subtracted from the recovered N as an additive
    contribution.  Ty is deliberately not an input; it serves as an
    independent consistency check downstream.
    """
    if min(T1, Tz, Tx_tilde) <= 0.0:
        raise ValueError("all timescales must be positive")
    if N_th < 0.0:
        raise ValueError("N_th must be nonnegative")
    t1_int = T1 * (2.0 * N_th + 1.0)
    n_raw = 0.5 * (t1_int / Tz - 1.0)
    m = n_raw + 0.5 - t1_int / Tx_tilde
    n = n_raw - N_th
    if not math.isfinite(m * m + n * n):
        raise UnphysicalRatesError(f"moments N = {n:.6g}, M = {m:.6g} overflow their squares")
    if n < -1e-12:
        raise InconsistentInputsError(
            f"inversion gives N = {n:.6g} < 0 (Tz = {Tz:.6g}, T1 = {T1:.6g})"
        )
    n = max(n, 0.0)
    eta = None
    if n > 0.0 and m > n:
        eta = infer_eta(n, m)
    return MomentEstimate(
        N=n, M=m, N_th=N_th, eta_inferred=eta, N_uncorrected=n_raw
    )


def estimate_moments(
    T1: float, T_phi: float, Tx: float, Tz: float, N_th: float = 0.0
) -> MomentEstimate:
    """Measured-timescale route: dephasing subtraction then moment inversion."""
    return moments_from_decays(T1, Tz, subtract_dephasing(Tx, T_phi), N_th)


def infer_eta(n: float, m: float) -> float:
    """Transmission that degrades an ideal squeezed source to (N, M):
    solves M = sqrt(N^2 + eta N)."""
    if n <= 0.0:
        raise ValueError("eta is undefined at N = 0")
    if m <= n:
        raise NotSqueezedError(f"M = {m:.6g} <= N = {n:.6g}: not a squeezed state")
    eta = (m**2 - n**2) / n
    if eta > 1.0 + 1e-9:
        warnings.warn(
            f"inferred eta = {eta:.4g} > 1: moments exceed the ideal-source "
            "bound",
            stacklevel=2,
        )
    return eta


def reconstruct_wigner(
    me: MomentEstimate, n_points: int = 241, n_sigmas: float = 5.0
) -> WignerGrid:
    """Wigner distribution of the reservoir state implied by an estimate."""
    v = variances(SqueezedReservoir(N=me.N, M=me.M))
    return wigner_grid_for(v, n_points=n_points, n_sigmas=n_sigmas)
