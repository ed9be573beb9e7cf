"""Itinerant squeezed-vacuum reservoir: moments, bounds, loss, and Wigner map.

The reservoir is summarized by its photon-number moment ``N`` and two-photon
moment ``M`` (stored complex; squeezing of a physical state requires
``|M|^2 <= N(N+1)``).  All variance and Wigner formulas use ``|M|`` with the
squeezed axis fixed along Q; the squeezing phase only matters dynamically and
is handled as a detuning/rotation in :mod:`sqbloch.blochdyn`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._table import _block_rows, _format_table
from .errors import NumericalFailure, UnphysicalRatesError

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

    ``omega0`` is the squeezer center frequency in GHz and ``bandwidth`` in
    MHz; the environment's thermal floor is not part of the state, and enters
    only :func:`~sqbloch.estimation.moments_from_decays` (``N_th``).
    """

    N: float
    M: complex
    omega0: float = 0.0
    bandwidth: float = 13.0

    def __post_init__(self):
        values = {"N": self.N, "|M|": abs(self.M), "bandwidth": self.bandwidth}
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.N < 0.0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        if self.bandwidth <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        # A product, not **, so a huge |M| squares to inf instead of raising.
        if self.M_abs * self.M_abs > self.N * (self.N + 1.0) + _PHYSICALITY_SLACK:
            raise ValueError(
                f"unphysical moments: |M|^2 = {self.M_abs * self.M_abs:.6g} exceeds "
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
    """Quadrature variances sigma_I^2 = 2(N+|M|+1/2), sigma_Q^2 = 2(N-|M|+1/2).

    Finite moments can still overflow sigma_I^2 (N = 1e308); that raises
    :class:`UnphysicalRatesError`.  sigma_Q^2 <= sigma_I^2 needs no check.
    """
    m = r.M_abs
    sigma_i_sq = 2.0 * (r.N + m + 0.5)
    if not math.isfinite(sigma_i_sq):
        raise UnphysicalRatesError(
            f"quadrature variance sigma_I^2 = 2(N + |M| + 1/2) is not finite "
            f"at N = {r.N:.6g}, |M| = {m:.6g}"
        )
    return QuadratureVariances(sigmaI_sq=sigma_i_sq, sigmaQ_sq=2.0 * (r.N - m + 0.5))


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
    try:
        return math.sqrt(n_measured**2 + eta * n_measured) - n_measured
    except OverflowError:
        raise NumericalFailure(f"M - N at N = {n_measured:.6g} overflows") from None


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

    def csv_blocks(self) -> Iterator[str]:
        """CSV, in blocks of whole rows of at most ``_BLOCK_CELLS`` cells (one
        row where a row is wider): header row of Q values, first column I
        values, body W values, each printed as ``"%.9g" % x`` prints it.

        An axis along which the values are bitwise even (every grid of
        :func:`wigner_grid_for` is even along both) is encoded up to its
        middle sample, and the rest repeats that text in mirror order, so an
        even grid encodes one quadrant; any other axis is encoded in full.
        """
        values = np.asarray(self.values, dtype=float)
        n, width = values.shape
        bits = values.view(np.uint64)
        rows = (n + 1) // 2 if np.array_equal(bits, bits[::-1]) else n
        cols = (width + 1) // 2 if np.array_equal(bits, bits[:, ::-1]) else width
        # Both axes in one encoder call, one cell a line.
        axes = np.concatenate([self.Q_axis, self.I_axis])[:, None]
        cells = "".join(_format_table(axes)).splitlines()
        yield "#schema=wigner-grid-v1\n," + ",".join(cells[:width]) + "\n"
        # Each encoded row's values, without the I cell; "" with no Q.
        texts = "".join(_format_table(values[:rows, :cols])).splitlines() if cols else [""] * rows
        if cols < width:
            # Mirrored as text: encoding full-width half rows took 4.5 ms
            # against 3.4 ms (241-point grid, minimum of 40 timing runs).
            texts = [t + "," + ",".join(t.split(",")[width - cols - 1 :: -1]) for t in texts]
        texts += texts[: n - rows][::-1]
        step = _block_rows(width + 1)
        for k in range(0, n, step):
            rows_k = zip(cells[width + k : width + k + step], texts[k : k + step])
            yield "".join(f"{i},{t}\n" for i, t in rows_k)

    def to_csv(self) -> str:
        """The joined text of :meth:`csv_blocks`."""
        return "".join(self.csv_blocks())


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
    ii, qq = i_axis[:, None], q_axis[None, :]
    values = norm * np.exp(-2.0 * ii**2 / v.sigmaI_sq - 2.0 * qq**2 / v.sigmaQ_sq)
    return WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)


def wigner_grid_for(
    v: QuadratureVariances, n_points: int = 241, n_sigmas: float = 5.0
) -> WignerGrid:
    """Wigner grid spanning ``n_sigmas`` standard deviations on each axis.

    The distribution's standard deviation along I is sigma_I/2 in this
    convention (vacuum: 1/2).  Each axis is exactly antisymmetric,
    ``axis == -axis[::-1]``, with a centre sample of +0.0 when ``n_points``
    is odd, so the values are bitwise even in I and in Q (``(-x)**2 == x**2``)
    and :meth:`WignerGrid.csv_blocks` encodes one quadrant only.
    """
    if n_points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    half_i = n_sigmas * math.sqrt(v.sigmaI_sq) / 2.0
    half_q = n_sigmas * math.sqrt(v.sigmaQ_sq) / 2.0
    axes = []
    for half in (half_i, half_q):
        a = np.linspace(-half, half, n_points)
        axes.append(0.5 * (a - a[::-1]))  # a[k] - a[n-1-k] flips sign exactly
    return wigner(v, *axes)
