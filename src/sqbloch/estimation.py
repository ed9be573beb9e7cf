"""Inverse pipeline: decay constants from traces, then reservoir moments.

:func:`fit_exp` and :func:`fit_damped_sinusoid` fit one trace or a stack of
them by one path (:func:`_fit`): each model comes with its closed-form
derivative, and the initial guesses of all rows come from one array pass.
Both return a :class:`DecayFit`, and a flat trace fits to T = inf in both.
Exponential fits start from an early-window guess: offset and noise from the
last quarter of each trace, time constant from the log-residual slope over
the samples up to where the residual reaches the noise, amplitude from the
first sample, so that finite-shot traces fit as exact ones do.  Moment
extraction follows the measured-timescale route: pure dephasing is
subtracted from the transverse time, then (Tz, Tx~) invert the
axis-timescale map for (N, M), with the thermal floor folded into the T1
calibration and subtracted from N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

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
    "DecayFit",
    "MomentEstimate",
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
class DecayFit:
    """Fit of a decaying trace: a exp(-t/T) + c, or, with ``phase`` set, the
    damped sinusoid a exp(-t/T) sin(w t + phase) + c at fixed w.  A flat
    trace has T = inf, a = 0 and c its mean."""

    amplitude: float
    T: float
    offset: float
    T_stderr: float
    converged: bool
    phase: float | None = None


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


def _params(p):
    """The parameters each model and Jacobian take: one vector as floats (the
    cheapest ufunc operands), or a ``(rows, k)`` stack as ``(rows, 1)`` columns."""
    return p.tolist() if p.ndim == 1 else p.T[..., None]


def _exp_model(t, p):
    a, T, c = _params(p)
    return a * _envelope(t, T) + c


def _exp_jac(t, p):
    """Derivative of :func:`_exp_model` in (a, T, c), C-contiguous."""
    a, T, _ = _params(p)
    e, de = _envelope_dT(t, T)
    j = np.empty(e.shape + (3,))
    j[..., 0] = e
    np.multiply(a, de, out=j[..., 1])
    j[..., 2] = 1.0
    return j


def _sine_model(t, p, w):
    a, T, phase, c = _params(p)
    return a * _envelope(t, T) * np.sin(w * t + phase) + c


def _sine_jac(t, p, w):
    """Derivative of :func:`_sine_model` in (a, T, phase, c), C-contiguous."""
    a, T, phase, _ = _params(p)
    e, de = _envelope_dT(t, T)
    arg = w * t + phase
    s = np.sin(arg)
    j = np.empty(e.shape + (4,))
    np.multiply(e, s, out=j[..., 0])
    np.multiply(a * de, s, out=j[..., 1])
    np.multiply(a * e, np.cos(arg), out=j[..., 2])
    j[..., 3] = 1.0
    return j


def _validate_trace(t, y):
    """``t`` and ``y`` as float arrays; ``y`` is one trace over ``t`` or a
    ``(rows, t.size)`` stack of them."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim > 2 or y.shape[-1:] != (t.size,):
        raise ValueError(f"expected a trace or a (rows, {t.size}) stack, got shape {y.shape}")
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
    stack, as a ``(rows, 3)`` array.

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
    return guess


def _exp_fit(res: FitResult) -> DecayFit:
    """The :class:`DecayFit` of an exponential least-squares result."""
    return DecayFit(*res.params.tolist(), _T_stderr(res), res.converged)


def _sine_guess(t, y, w):
    """Initial (a, T, phase, c) of :func:`fit_damped_sinusoid` at angular
    frequency ``w`` for every row of a ``(rows, n)`` stack.  c is the mean.
    Demodulated at w, y - c has means z1 over the first half of the samples
    and z2 over the second: the phase is arg z1 + pi/2, the amplitude 2 |z1|
    (half the peak-to-peak where z1 = 0), and T the decay from |z1| to |z2|
    over the halves' mean-time gap, or the span where |z2| is not in
    (0, |z1|).  Reductions run along the last axis and each log is a scalar
    ``math.log``, so a row's guess has the same bytes alone as in any stack."""
    y = np.ascontiguousarray(y)
    rows, n = y.shape
    half = n // 2
    guess = np.empty((rows, 4))
    with np.errstate(all="ignore"):  # a trace near the float limit may overflow
        span = t[-1] - t[0]
        dt = np.add.reduce(t[half:]) / (n - half) - np.add.reduce(t[:half]) / half
        c0 = guess[:, 3]
        np.divide(np.add.reduce(y, axis=-1), n, out=c0)
        z = (y - c0[:, None]) * np.exp(-1j * w * t)
        z1 = np.add.reduce(z[:, :half], axis=-1) / half
        np.add(np.angle(z1), 0.5 * math.pi, out=guess[:, 2])
        z1 = np.abs(z1)
        z2 = np.abs(np.add.reduce(z[:, half:], axis=-1) / (n - half))
        guess[:, 1] = [dt / math.log(e / l) if e > 0.0 and 0.0 < l < e else span
                       for e, l in zip(z1.tolist(), z2.tolist())]
        np.multiply(z1, 2.0, out=guess[:, 0])
        quiet = ~(z1 > 0.0)
        if quiet.any():
            guess[quiet, 0] = np.ptp(y[quiet], axis=-1) / 2.0
    return guess


def _sine_fit(res: FitResult) -> DecayFit:
    """The :class:`DecayFit` of a damped-sinusoid result: amplitude >= 0,
    phase in [0, 2 pi)."""
    amp, tau, phase, c = res.params.tolist()
    if amp < 0.0:
        amp, phase = -amp, phase + math.pi
    return DecayFit(amp, tau, c, _T_stderr(res), res.converged, phase % (2.0 * math.pi))


def _fit(t, y, model, jac, guess, result, no_guess: str):
    """Fit a trace ``y`` over ``t``, or each row of a ``(rows, t.size)`` stack,
    to ``model`` with Jacobian ``jac``.  A flat row, whose range is at most
    1e-10 max(max |y|, 1), has no resolvable decay: its fit is T = inf,
    amplitude 0 and its mean as offset, with no least-squares loop.
    ``guess(t, Y)`` gives every row's initial parameters; a row whose guess is
    not finite fails with the text ``no_guess``; the others get
    ``result(res)`` of their one least-squares loop.  A stack returns each
    row's fit or error; a trace, fitted by the one-row
    :func:`fit_least_squares` to the same bytes, raises its error."""
    t, y = _validate_trace(t, y)
    rows = y.reshape(-1, t.size)
    with np.errstate(over="ignore"):  # the range of a trace near the float limit
        lo, hi = np.minimum.reduce(rows, axis=-1), np.maximum.reduce(rows, axis=-1)
        flat = hi - lo <= 1e-10 * np.maximum(np.maximum(-lo, hi), 1.0)  # max |y|, at least 1
    guesses = guess(t, rows)
    finite = np.logical_and.reduce(np.isfinite(guesses), axis=1)
    fits: list = [
        DecayFit(0.0, math.inf, float(np.mean(row)), 0.0, True) if f
        else None if ok else DegenerateFitError(no_guess)
        for row, f, ok in zip(rows, flat.tolist(), finite.tolist())
    ]
    if y.ndim == 1:
        (fit,) = fits
        if fit is None:
            return result(fit_least_squares(model, t, y, guesses[0], jac=jac))
        if isinstance(fit, DegenerateFitError):
            raise fit
        return fit
    live = np.flatnonzero(~flat & finite)
    stack = fit_least_squares_stack(model, t, y[live], guesses[live], jac=jac)
    for b, res in zip(live.tolist(), stack):
        fits[b] = res if isinstance(res, DegenerateFitError) else result(res)
    return fits


def fit_exp(t, y):
    """Fit a trace to ``a exp(-t/T) + c`` from the early-window guess of
    :func:`_exp_guess`.

    A flat trace returns T = inf (see :func:`_fit`); a trace whose guess is
    not finite (its sums overflow), or whose fit fails, raises
    :class:`DegenerateFitError`.  A ``(rows, t.size)`` stack is fitted in one
    loop and returns each row's :class:`DecayFit`, or its error.
    """
    return _fit(t, y, _exp_model, _exp_jac, _exp_guess, _exp_fit,
                "exponential fit: the initial guess (a, T, c) is not finite")


def fit_damped_sinusoid(t, y, omega_mod: float):
    """Fit ``a exp(-t/T) sin(w t + phase) + c`` with w fixed by ``omega_mod``
    (ordinary MHz).

    The returned amplitude is nonnegative and the phase normalized to
    [0, 2 pi).  A flat trace, failures and a ``(rows, t.size)`` stack are as
    in :func:`fit_exp`; a flat trace's fit has no phase.
    """
    if omega_mod <= 0.0:
        raise ValueError("omega_mod must be positive")
    w = 2.0 * math.pi * omega_mod
    return _fit(t, y, partial(_sine_model, w=w), partial(_sine_jac, w=w),
                partial(_sine_guess, w=w), _sine_fit,
                "damped-sinusoid fit: the initial guess (a, T, phase, c) is not finite")


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
