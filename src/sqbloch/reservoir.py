"""Itinerant squeezed-vacuum reservoir: moments, bounds, loss, and Wigner map.

The reservoir is summarized by its photon-number moment ``N`` and two-photon
moment ``M`` (stored complex; squeezing of a physical state requires
``|M|^2 <= N(N+1)``).  All variance and Wigner formulas use ``|M|`` with the
squeezed axis fixed along Q; the squeezing phase only matters dynamically and
is handled as a detuning/rotation in :mod:`sqbloch.blochdyn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureVariances",
    "SqueezedReservoir",
    "WignerGrid",
    "attenuate",
    "eta_curve",
    "ideal_M",
    "thermal_from_population",
    "variances",
    "wigner",
    "wigner_grid_for",
]

_PHYSICALITY_SLACK = 1e-12


@dataclass(frozen=True)
class SqueezedReservoir:
    """Broadband squeezed vacuum characterized by moments (N, M).

    ``omega0`` is the squeezer center frequency in GHz, ``bandwidth`` in MHz,
    and ``N_th`` the thermal photon floor of the environment.
    """

    N: float
    M: complex
    omega0: float = 0.0
    bandwidth: float = 13.0
    N_th: float = 0.0

    def __post_init__(self):
        if self.N < 0.0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        if self.N_th < 0.0:
            raise ValueError(f"N_th must be nonnegative, got {self.N_th}")
        if self.bandwidth <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if abs(self.M) ** 2 > self.N * (self.N + 1.0) + _PHYSICALITY_SLACK:
            raise ValueError(
                f"unphysical moments: |M|^2 = {abs(self.M) ** 2:.6g} exceeds "
                f"N(N+1) = {self.N * (self.N + 1.0):.6g}"
            )

    @property
    def M_abs(self) -> float:
        return abs(self.M)


@dataclass(frozen=True)
class QuadratureVariances:
    """Gaussian quadrature variances; vacuum gives (1, 1)."""

    sigmaI_sq: float
    sigmaQ_sq: float

    def __post_init__(self):
        if self.sigmaI_sq <= 0.0 or self.sigmaQ_sq <= 0.0:
            raise ValueError("variances must be strictly positive")
        if self.sigmaI_sq * self.sigmaQ_sq < 1.0 - _PHYSICALITY_SLACK:
            raise ValueError(
                f"uncertainty product {self.sigmaI_sq * self.sigmaQ_sq:.6g} < 1"
            )


def variances(r: SqueezedReservoir) -> QuadratureVariances:
    """Quadrature variances sigma_I^2 = 2(N+|M|+1/2), sigma_Q^2 = 2(N-|M|+1/2)."""
    m = r.M_abs
    return QuadratureVariances(
        sigmaI_sq=2.0 * (r.N + m + 0.5),
        sigmaQ_sq=2.0 * (r.N - m + 0.5),
    )


def ideal_M(n: float) -> float:
    """Largest |M| allowed at mean photon number ``n``: sqrt(n(n+1))."""
    if n < 0.0:
        raise ValueError(f"N must be nonnegative, got {n}")
    return math.sqrt(n * (n + 1.0))


def attenuate(
    r: SqueezedReservoir, eta: float, n_environment: float = 0.0
) -> SqueezedReservoir:
    """Beam-splitter loss with power transmission ``eta``.

    ``N' = eta*N + (1-eta)*n_environment`` and ``M' = eta*M``; center frequency
    and bandwidth are unchanged.  The default cold environment admixes vacuum.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if n_environment < 0.0:
        raise ValueError("environment photon number must be nonnegative")
    return replace(
        r, N=eta * r.N + (1.0 - eta) * n_environment, M=eta * r.M
    )


def eta_curve(n_measured: float, eta: float) -> float:
    """M - N at measured photon number ``n_measured``, assuming an ideal
    minimum-uncertainty source degraded only by transmission ``eta``."""
    if n_measured < 0.0:
        raise ValueError(f"N must be nonnegative, got {n_measured}")
    return math.sqrt(n_measured**2 + eta * n_measured) - n_measured


def thermal_from_population(p_e: float) -> float:
    """Thermal photon number from the equilibrium excited-state population.

    Inverts the thermal steady state p_e = N_th / (2 N_th + 1).
    """
    if not 0.0 <= p_e < 0.5:
        raise ValueError(
            f"equilibrium excited-state population must lie in [0, 0.5), got {p_e}"
        )
    return p_e / (1.0 - 2.0 * p_e)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner distribution sampled on a rectangular (I, Q) grid.

    Gaussian states only, so the values are nonnegative everywhere."""

    I_axis: np.ndarray
    Q_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.I_axis.size, self.Q_axis.size):
            raise ValueError("values must be shaped (len(I_axis), len(Q_axis))")
        if np.any(self.values < 0.0):
            raise ValueError("Wigner values must be nonnegative for Gaussian states")

    def integral(self) -> float:
        """Trapezoidal integral of the distribution over the grid."""
        return float(
            np.trapezoid(np.trapezoid(self.values, self.Q_axis, axis=1), self.I_axis)
        )

    def to_csv(self) -> str:
        """CSV: header row of Q values, first column I values, body W values.

        Every number is printed as ``"%.9g" % x`` prints it."""
        header = ",".join(map("%.9g".__mod__, self.Q_axis.tolist()))
        parts = ["#schema=wigner-grid-v1\n," + header + "\n"]
        # A few thousand cells per block bound the encoder's temporaries.
        step = max(1, _BLOCK_CELLS // (self.Q_axis.size + 1))
        for k in range(0, self.I_axis.size, step):
            block = np.column_stack((self.I_axis[k : k + step], self.values[k : k + step]))
            parts.append(_format_rows(block))
        return "".join(parts)


# --- Vectorised "%.9g" ---------------------------------------------------------
#
# A double x with 1e-14 <= |x| < 1e31 has a decimal exponent e in [-14, 30], so
# y = |x| * 10**(8 - e) takes one multiplication or division by an exact power
# of ten (10**22 is the largest double that is one): y is the exact product
# rounded once.  Below 2**30 every k + 1/2 is a double and rounding is
# monotone, so y lies on the same side of k + 1/2 as the exact product, and
# rint(y) is the correctly rounded 9-digit mantissa that "%.9g" prints (Gay's
# algorithm, round half to even) unless y is exactly halfway.  Those cells,
# and every cell outside the range (0, -0.0, subnormals, inf, nan), are
# formatted one at a time.

_BLOCK_CELLS = 4096
_PLACES = (10 ** np.arange(8, -1, -1, dtype=np.int32))[:, None]
# Row e + 16 of these tables serves exponent e.  |x| * _UP / _DOWN is
# |x| * 10**(8 - e) with one rounding for e in [-14, 30]; the rows for
# e = -16, -15, 31 and 32 only steer the log10 correction.
_UP = np.array([float(10 ** max(8 - e, 0)) for e in range(-16, 33)])
_DOWN = np.array([float(10 ** max(e - 8, 0)) for e in range(-16, 33)])
_EXPONENTS = np.array([list(b"e%+03d" % e) for e in range(-16, 33)], np.uint8).T


def _decimal9(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """9-digit mantissas ``m`` in [1e8, 1e9) and exponents ``e`` with ``|x|``
    rounded to ``m * 10**(e - 8)``, and ``ok``, False for the cells the
    arithmetic cannot round correctly (there m = 1e8 and e = 0)."""
    a = np.abs(x)
    ok = (a >= 1e-14) & (a < 1e31)
    a = np.where(ok, a, 1.0)
    row = np.floor(np.log10(a)).astype(np.intp) + 16
    y = a * _UP[row] / _DOWN[row]
    row += (y >= 1e9).astype(np.intp) - (y < 1e8)  # log10 near a power of ten
    y = a * _UP[row] / _DOWN[row]
    m = np.rint(y)
    ok &= (row >= 2) & (row <= 46) & (y >= 1e8) & (y < 1e9)  # e in [-14, 30]
    ok &= np.abs(y - m) < 0.5  # not halfway (y - m is exact)
    carry = m == 1e9
    m = np.where(carry | ~ok, 1e8, m).astype(np.int32)
    return m, np.where(ok, row - 16 + carry, 0), ok


def _format_rows(rows: np.ndarray) -> str:
    """``"%.9g" % x`` of every entry of a 2-D array, joined by "," within a
    row and ended by a newline after each row."""
    x = rows.ravel()
    m, e, ok = _decimal9(x)
    q = m // _PLACES  # (9, cells): the leading 1..9 digits
    digits = q.copy()
    digits[1:] -= 10 * q[:-1]
    nonzero_tail = (q[:-1] * _PLACES[:-1] != m).view(np.uint8)
    n_sig = 1 + nonzero_tail.sum(axis=0, dtype=np.uint8)
    # Fixed notation for -4 <= e < 9, with -e zeros before the digits when
    # e < 0 ("0.00ddd"); else one digit before the point and an exponent.
    sci = (e < -4) | (e >= 9)
    n_lead = np.where(sci, 0, np.maximum(-e, 0))
    n_int = np.where(sci, 1, np.maximum(e + 1, 1))  # characters before the point
    length = np.maximum(n_int, n_lead + n_sig)  # without the point
    point = length > n_int
    neg = x < 0
    size = neg + length + point + 4 * sci + 1
    # Cells left to Python are laid out as "1" or "-1" below, and their own
    # text, never shorter, is written over that last.
    fallback = {k: ("%.9g" % x[k]).encode() for k in np.flatnonzero(~ok)}
    for k, text in fallback.items():
        size[k] = len(text) + 1
    end = np.cumsum(size)  # each cell ends with its separator
    start = end - size
    base = start + neg
    trash = end[-1]

    buf = np.empty(trash + 1, np.uint8)  # the extra byte takes cut digits
    buf[start[neg]] = ord("-")
    c = np.arange(5)[:, None]
    lead = n_lead > 0
    buf[np.where(c <= n_lead[lead], base[lead] + c, trash)] = ord("0")  # "0.000"
    j = np.arange(9)[:, None]
    slot = base + n_lead + j + (j >= n_int - n_lead)
    buf[np.where(j < length - n_lead, slot, trash)] = (digits + ord("0")).astype(np.uint8)
    buf[np.where(point, base + n_int, trash)] = ord(".")
    at = (base + length + point)[sci]
    buf[at + np.arange(4)[:, None]] = np.take(_EXPONENTS, e[sci] + 16, axis=1)
    sep = np.full(rows.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    buf[end - 1] = sep.ravel()
    for k, text in fallback.items():
        buf[start[k] : end[k] - 1] = np.frombuffer(text, np.uint8)
    return buf[:-1].tobytes().decode("ascii")


def wigner(
    v: QuadratureVariances,
    i_axis: np.ndarray,
    q_axis: np.ndarray,
) -> WignerGrid:
    """Gaussian Wigner distribution with the squeezed axis along Q.

    W(I, Q) = 2/(pi sqrt(sigma_I^2 sigma_Q^2)) exp(-2I^2/sigma_I^2 - 2Q^2/sigma_Q^2),
    normalized so vacuum gives W0 = (2/pi) exp(-2(I^2+Q^2)) and the integral
    over the plane is 1.
    """
    i_axis = np.asarray(i_axis, dtype=float)
    q_axis = np.asarray(q_axis, dtype=float)
    norm = 2.0 / (math.pi * math.sqrt(v.sigmaI_sq * v.sigmaQ_sq))
    ii = i_axis[:, None]
    qq = q_axis[None, :]
    values = norm * np.exp(-2.0 * ii**2 / v.sigmaI_sq - 2.0 * qq**2 / v.sigmaQ_sq)
    return WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)


def wigner_grid_for(
    v: QuadratureVariances, n_points: int = 241, n_sigmas: float = 5.0
) -> WignerGrid:
    """Wigner grid spanning ``n_sigmas`` standard deviations on each axis.

    The distribution's standard deviation along I is sigma_I/2 in this
    convention (vacuum: 1/2).
    """
    if n_points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    half_i = n_sigmas * math.sqrt(v.sigmaI_sq) / 2.0
    half_q = n_sigmas * math.sqrt(v.sigmaQ_sq) / 2.0
    i_axis = np.linspace(-half_i, half_i, n_points)
    q_axis = np.linspace(-half_q, half_q, n_points)
    return wigner(v, i_axis, q_axis)
