"""Inverse pipeline: decay constants from traces, then reservoir moments.

Fits wrap the damped Gauss-Newton kernel with decay-specific initialization;
each fit model comes with its closed-form derivative.  Exponential fits start
from an early-window guess, computed for a whole stack of traces in one array
pass: offset and noise from the last quarter of each trace, time constant
from the log-residual slope over the samples up to where the residual reaches
the noise, amplitude from the first sample.  Keeping the noise-dominated tail
out of the slope lets finite-shot traces fit as exact ones do.  Moment
extraction follows the measured-timescale route: pure dephasing is subtracted
from the transverse time, then (Tz, Tx~) invert the axis-timescale map for
(N, M), with the thermal floor folded into the T1 calibration and subtracted
from N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    InconsistentInputsError,
    NotSqueezedError,
    UnphysicalRatesError,
)
from .numerics import FitResult, fit_least_squares, fit_least_squares_stack
from .reservoir import SqueezedReservoir, WignerGrid, variances, wigner_grid_for

__all__ = [
    "ExpFit",
    "MomentEstimate",
    "SinusoidFit",
    "estimate_moments",
    "fit_damped_sinusoid",
    "fit_exp",
    "fit_exp_stack",
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
    x = -t / T
    return np.exp(np.minimum(np.maximum(x, -700.0, out=x), 700.0, out=x), out=x)


def _envelope_dT(t, T):
    """The envelope and its T derivative ``envelope * t / T**2``, which is
    zero wherever the clip is active."""
    x = t / T
    e = np.negative(x)  # -(t / T) is -t / T exactly
    np.exp(np.minimum(np.maximum(e, -700.0, out=e), 700.0, out=e), out=e)
    return e, np.where(np.abs(x) <= 700.0, e * x / T, 0.0)


def _T_stderr(res: FitResult) -> float:
    """Linearized standard error of the time constant, parameter 1 of each
    fit model (0 without a covariance or with a negative variance)."""
    if res.covariance is not None and res.covariance[1, 1] >= 0.0:
        return float(math.sqrt(res.covariance[1, 1]))
    return 0.0


# The exponential model and its Jacobian take one parameter vector (a, T, c)
# or a stack of them, shape (rows, 3), for rows of values over ``t``.


def _exp_model(t, p):
    return p[..., 0, None] * _envelope(t, p[..., 1, None]) + p[..., 2, None]


def _exp_jac(t, p):
    """Derivative of :func:`_exp_model` in (a, T, c), C-contiguous."""
    e, de = _envelope_dT(t, p[..., 1, None])
    j = np.empty(e.shape + (3,))
    j[..., 0] = e
    np.multiply(p[..., 0, None], de, out=j[..., 1])
    j[..., 2] = 1.0
    return j


def _sine_model(t, p, w):
    return p[0] * _envelope(t, p[1]) * np.sin(w * t + p[2]) + p[3]


def _sine_jac(t, p, w):
    """Derivative of :func:`_sine_model` in (a, T, phase, c) at fixed w."""
    e, de = _envelope_dT(t, p[1])
    arg = w * t + p[2]
    s = np.sin(arg)
    j = np.empty((t.size, 4))
    np.multiply(e, s, out=j[:, 0])
    np.multiply(p[0] * de, s, out=j[:, 1])
    np.multiply(p[0] * e, np.cos(arg), out=j[:, 2])
    j[:, 3] = 1.0
    return j


def _validate_trace(t, y):
    """``t`` and ``y`` as float arrays; ``y`` is one trace over ``t`` or a
    ``(rows, t.size)`` stack of them."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (t.size,):
        raise ValueError("time and value arrays must have equal length")
    if t.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    for name, values in (("t", t), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    if (t[1:] <= t[:-1]).any():
        raise ValueError("sample times must be strictly increasing")
    return t, y


def _exp_guess(t, y):
    """Initial (a, T, c) of :func:`fit_exp` for every row of a ``(rows, n)``
    stack, as a ``(rows, 3)`` array, and the ``(rows,)`` mask of rows with no
    resolvable decay, whose guess is not used.

    The offset c and the noise sigma come from the last quarter of the
    samples.  T is -1 / slope of the least-squares line through
    log|y - c| over the early window, which runs up to and including the
    first sample whose residual falls below max(3 sigma, 1e-3 max residual),
    so the noise-dominated tail stays out of it; samples of zero residual
    are left out.  A window of fewer than 2 such samples, or a slope that
    is not negative, gives the sampled span instead.  The amplitude is the
    first sample less c, or the signed largest residual where that is 0.
    Every reduction runs along the contiguous last axis, so a row's guess
    has the same bytes alone as in any stack.
    """
    y = np.ascontiguousarray(y)
    rows, n = y.shape
    k = max(2, n // 4)
    s = t - t[0]
    guess = np.empty((rows, 3))
    # A window of fewer than 2 samples divides by zero (T falls back to the
    # span), and a trace near the float limit overflows (the fit refuses its
    # non-finite guess): neither may warn.
    with np.errstate(all="ignore"):
        lo, hi = np.minimum.reduce(y, axis=-1), np.maximum.reduce(y, axis=-1)
        flat = hi - lo <= 1e-10 * np.maximum(np.maximum(-lo, hi), 1.0)  # max |y|, at least 1
        c0 = guess[:, 2]
        np.divide(np.add.reduce(y[:, -k:], axis=-1), k, out=c0)
        dev = y[:, -k:] - c0[:, None]
        sigma = np.sqrt(np.add.reduce(dev * dev, axis=-1) / k)
        resid = np.abs(y - c0[:, None])
        rmax = np.maximum.reduce(resid, axis=-1)
        below = resid < np.maximum(3.0 * sigma, 1e-3 * rmax)[:, None]
        # The window: no sample before it is below the floor.
        use = np.empty_like(below)
        use[:, 0] = True
        np.logical_not(np.logical_or.accumulate(below[:, :-1], axis=-1), out=use[:, 1:])
        use &= resid > 0.0
        # Masked sums of 1, s, s^2, log r and s log r, in one reduction.
        w = np.empty((rows, 5, n))
        w[:, 0] = use
        np.multiply(s, use, out=w[:, 1])
        np.multiply(w[:, 1], s, out=w[:, 2])
        np.log(np.where(use, resid, 1.0), out=w[:, 3])
        np.multiply(w[:, 3], s, out=w[:, 4])
        m, st, stt, sl, stl = np.add.reduce(w, axis=-1).T
        slope = (m * stl - st * sl) / (m * stt - st * st)
        guess[:, 1] = np.where((m >= 2.0) & (slope < 0.0), -1.0 / slope, s[-1])
        amp0 = guess[:, 0]
        np.subtract(y[:, 0], c0, out=amp0)
        zero = amp0 == 0.0
        if zero.any():
            peak = y[zero, np.argmax(resid[zero], axis=-1)]
            amp0[zero] = np.sign(peak - c0[zero]) * rmax[zero]
    return guess, flat


def _exp_fit(y, res: FitResult | None) -> ExpFit:
    """The :class:`ExpFit` of a least-squares result, or of a flat trace
    ``y`` without one."""
    if res is None:
        return ExpFit(
            amplitude=0.0,
            T=math.inf,
            offset=float(np.mean(y)),
            T_stderr=0.0,
            converged=True,
            no_decay=True,
        )
    return ExpFit(
        amplitude=float(res.params[0]),
        T=float(res.params[1]),
        offset=float(res.params[2]),
        T_stderr=_T_stderr(res),
        converged=res.converged,
    )


def fit_exp(t, y) -> ExpFit:
    """Fit a trace to ``a exp(-t/T) + c``.

    The fit starts from the early-window guess of :func:`_exp_guess`: the
    offset from the last quarter of the samples, T from the log-residual
    slope over the samples up to where the residual reaches the tail's
    noise, and the amplitude from the first sample.  A trace with no
    resolvable decay returns T = inf with ``no_decay`` set.
    """
    t, y = _validate_trace(t, y)
    guess, flat = _exp_guess(t, y[None])
    if flat[0]:
        return _exp_fit(y, None)
    return _exp_fit(y, fit_least_squares(_exp_model, t, y, guess[0], jac=_exp_jac))


def fit_exp_stack(t, y) -> list[ExpFit | DegenerateFitError]:
    """:func:`fit_exp` of every row of a ``(rows, t.size)`` stack, with the
    decaying rows fitted in one :func:`~sqbloch.numerics.fit_least_squares_stack`
    call.

    The early-window guesses of all rows come from one array pass
    (:func:`_exp_guess`), and each row gets the guess and the result
    :func:`fit_exp` gives it alone.  A row whose fit fails gets the
    :class:`DegenerateFitError` that :func:`fit_exp` would raise, returned
    rather than raised; the other rows are unaffected.  A ``ValueError``
    from the inputs is raised for the whole stack.
    """
    t, y = _validate_trace(t, y)
    if y.ndim != 2:
        raise ValueError(f"expected a (rows, {t.size}) stack, got shape {y.shape}")
    guesses, flat = _exp_guess(t, y)
    decaying = np.flatnonzero(~flat)
    fits = {}
    if decaying.size:
        stack = fit_least_squares_stack(
            _exp_model, t, y[decaying], guesses[decaying], jac=_exp_jac
        )
        fits = dict(zip(decaying.tolist(), stack))
    out: list[ExpFit | DegenerateFitError] = []
    for b, row in enumerate(y):
        fit = fits.get(b)
        out.append(fit if isinstance(fit, DegenerateFitError) else _exp_fit(row, fit))
    return out


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

    c0 = float(y.mean())
    z = (y - c0) * np.exp(-1j * w * t)
    half = t.size // 2
    z_early = z[:half].mean()
    z1 = np.abs(z_early)
    z2 = np.abs(z[half:].mean())
    if z1 > 0.0 and 0.0 < z2 < z1:
        dt = float(np.mean(t[half:]) - np.mean(t[:half]))
        tau0 = dt / math.log(z1 / z2)
    else:
        tau0 = float(t[-1] - t[0])
    phase0 = float(np.angle(z_early)) + 0.5 * math.pi
    amp0 = 2.0 * z1 if z1 > 0.0 else float(y.max() - y.min()) / 2.0

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
