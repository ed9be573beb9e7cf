"""Two-level radiative dynamics in a broadband squeezed reservoir.

Resonant dynamics follow the phase-sensitive Bloch equations

    d<sx>/dt = -gamma (N - M + 1/2) <sx> - gamma_phi <sx>
    d<sy>/dt = -gamma (N + M + 1/2) <sy> - gamma_phi <sy>
    d<sz>/dt = -gamma (2N + 1) <sz> + gamma

so the ground state sits at ``<sz> = +1`` and the squeezed (slow) axis is x.
Detuned squeezing is handled through the closed-form polarization propagator
in the frame co-rotating with the squeezer; detunings are stored in ordinary
MHz and multiplied by 2*pi exactly once, where they enter the propagator
matrix.  Time is in microseconds, rates in inverse microseconds.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, UnphysicalRatesError

__all__ = [
    "AxisTimescales",
    "BlochState",
    "DecayRates",
    "axis_timescales",
    "bloch_rhs",
    "decay_eigenrates",
    "frame_rotation",
    "polarization_propagator",
    "steady_state",
    "transverse_propagator_xy",
]


@dataclass(frozen=True)
class BlochState:
    """Expectation values (<sx>, <sy>, <sz>) on or inside the Bloch ball."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        norm_sq = self.sx**2 + self.sy**2 + self.sz**2
        if norm_sq > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector norm^2 = {norm_sq:.6g} exceeds 1")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochState":
        """Pure state at latitude ``theta`` from +z and longitude ``phi``."""
        return cls(
            sx=math.sin(theta) * math.cos(phi),
            sy=math.sin(theta) * math.sin(phi),
            sz=math.cos(theta),
        )

    @classmethod
    def from_array(cls, s) -> "BlochState":
        return cls(sx=float(s[0]), sy=float(s[1]), sz=float(s[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])


@dataclass(frozen=True)
class DecayRates:
    """Radiative and dephasing rates of the two-level system.

    ``gamma`` is the radiative rate 1/T1 in 1/us, ``gamma_phi`` the pure
    dephasing rate, ``N``/``M_abs`` the reservoir moments seen by the qubit
    and ``delta`` the squeezer-qubit detuning in MHz.  A moment pair outside
    the physicality bound |M|^2 <= N(N+1) is tolerated with a warning because
    fitted estimates may violate it within their errors.  Rates that give an
    infinite or NaN axis rate (an overflowing 1/T or gamma (2N + 1), or a NaN
    rate) raise :class:`UnphysicalRatesError` naming them.
    """

    gamma: float
    gamma_phi: float = 0.0
    N: float = 0.0
    M_abs: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.gamma < 0.0 or self.gamma_phi < 0.0:
            raise ValueError("rates must be nonnegative")
        if self.N < 0.0 or self.M_abs < 0.0:
            raise ValueError("moments must be nonnegative")
        if not math.isfinite(self.rate_y + self.rate_z):
            raise UnphysicalRatesError(
                f"rates gamma = {self.gamma:.6g}, gamma_phi = {self.gamma_phi:.6g} at "
                f"N = {self.N:.6g}, |M| = {self.M_abs:.6g} give a non-finite decay rate"
            )
        if self.M_abs**2 > self.N * (self.N + 1.0) + 1e-9:
            warnings.warn(
                f"moments (N={self.N:.4g}, M={self.M_abs:.4g}) violate "
                "|M|^2 <= N(N+1); proceeding (fit-derived values may do this)",
                stacklevel=3,
            )

    @classmethod
    def from_times(
        cls,
        T1: float,
        T_phi: float = math.inf,
        N: float = 0.0,
        M: float = 0.0,
        delta: float = 0.0,
    ) -> "DecayRates":
        """Rates from the vacuum T1 and pure-dephasing time (us; inf: none)."""
        if T1 <= 0.0:
            raise ValueError("T1 must be positive")
        if T_phi <= 0.0:
            raise ValueError("T_phi must be positive")
        return cls(gamma=1.0 / T1, gamma_phi=1.0 / T_phi, N=N, M_abs=M, delta=delta)

    @property
    def gamma_N(self) -> float:
        """Phase-insensitive transverse rate gamma (N + 1/2) + gamma_phi."""
        return self.gamma * (self.N + 0.5) + self.gamma_phi

    @property
    def gamma_M(self) -> float:
        """Phase-sensitive transverse rate gamma |M|."""
        return self.gamma * self.M_abs

    @property
    def rate_x(self) -> float:
        return self.gamma * (self.N - self.M_abs + 0.5) + self.gamma_phi

    @property
    def rate_y(self) -> float:
        return self.gamma * (self.N + self.M_abs + 0.5) + self.gamma_phi

    @property
    def rate_z(self) -> float:
        return self.gamma * (2.0 * self.N + 1.0)


def _generator(r: DecayRates, drive=None) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of ``ds/dt = A s + b``: the axis rates on the diagonal, the
    torque Omega x s of an optional Rabi vector ``drive`` (rad/us), b = (0, 0, gamma)."""
    if r.delta != 0.0:
        raise ValueError("Bloch equations require delta = 0; use polarization_propagator")
    a = np.diag([-r.rate_x, -r.rate_y, -r.rate_z])
    if drive is not None:
        wx, wy, wz = np.asarray(drive, dtype=float)
        a += [[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]]
    return a, np.array([0.0, 0.0, r.gamma])


def bloch_rhs(s: BlochState | np.ndarray, r: DecayRates, drive=None) -> np.ndarray:
    """Time derivative ``A s + b`` of the Bloch vector for resonant squeezing.

    ``drive`` is an optional Rabi vector in rad/us entering as the torque
    Omega x s.  Detuned squeezing must go through the polarization
    propagator instead (ValueError here).  Plain 3-arrays are accepted
    alongside :class:`BlochState` so integrator stage values (which may sit
    slightly outside the ball) can be evaluated.
    """
    a, b = _generator(r, drive)
    v = s.as_array() if isinstance(s, BlochState) else np.asarray(s, dtype=float)
    return a @ v + b


@dataclass(frozen=True)
class AxisTimescales:
    """Decay times (us) along the Bloch axes.

    ``Tx``/``Ty`` include pure dephasing; ``Tx_tilde``/``Ty_tilde`` are the
    radiative-only transverse times.  ``Tz`` never contains dephasing.
    """

    Tx: float
    Ty: float
    Tz: float
    Tx_tilde: float
    Ty_tilde: float


def axis_timescales(r: DecayRates) -> AxisTimescales:
    """Closed-form axis decay times for resonant squeezing.

    Vacuum limit: Tx_tilde = Ty_tilde = 2 T1 and Tz = T1.
    """
    if r.gamma <= 0.0:
        raise UnphysicalRatesError("gamma must be positive for finite timescales")
    denom_x = r.N - r.M_abs + 0.5
    if denom_x <= 0.0:
        raise UnphysicalRatesError(
            f"N - M + 1/2 = {denom_x:.6g} <= 0: transverse rate is nonpositive"
        )
    return AxisTimescales(
        Tx=1.0 / r.rate_x,
        Ty=1.0 / r.rate_y,
        Tz=1.0 / r.rate_z,
        Tx_tilde=1.0 / (r.gamma * denom_x),
        Ty_tilde=1.0 / (r.gamma * (r.N + r.M_abs + 0.5)),
    )


def decay_eigenrates(r: DecayRates) -> tuple[complex, complex]:
    """Eigen decay rates Gamma_N +/- sqrt(Gamma_M^2 - (2 pi delta)^2).

    The square root turns imaginary for |2 pi delta| > Gamma_M (underdamped
    regime).  The negatives of the returned values are the eigenvalues of the
    polarization propagator generator.
    """
    root = _kappa(r, r.delta)
    return (r.gamma_N + root, r.gamma_N - root)


def _kappa(r: DecayRates, delta: float) -> complex:
    """``sqrt(G_M^2 - (2 pi delta)^2)``, imaginary when underdamped."""
    try:
        kappa_sq = r.gamma_M**2 - (2.0 * math.pi * float(delta)) ** 2
    except OverflowError:
        kappa_sq = -math.inf
    if math.isinf(kappa_sq):  # also when 2 pi delta itself overflows: inf ** 2 does not raise
        raise NumericalFailure(f"kappa^2 overflows at delta = {delta:.6g} MHz")
    return cmath.sqrt(kappa_sq)


def _closed_form(r: DecayRates, deltas: np.ndarray, t, b: np.ndarray) -> np.ndarray:
    """``exp(-G_N t) (cosh(kappa t) 1 + sinh(kappa t)/kappa b)`` with
    ``kappa^2 = G_M^2 - (2 pi delta)^2``: one 2x2 map per detuning (MHz) of
    ``deltas`` and entry of ``t``, shape ``(len(deltas),) + t.shape + (2, 2)``;
    ``b`` stacks one 2x2 matrix per detuning."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("propagation time must be nonnegative")
    kappa = np.array([_kappa(r, delta) for delta in deltas], dtype=complex)
    # cosh and sinh overflow past Re(kappa t) ~ 710, where exp(-G_N t) is 0.
    if np.any(kappa.real * np.max(t, initial=0.0) > 700.0):
        raise NumericalFailure("closed-form propagator overflows: Re(kappa) t exceeds 700")
    lead = (len(kappa),) + (1,) * t.ndim
    kappa, b, t = kappa.reshape(lead + (1, 1)), b.reshape(lead + (2, 2)), t[..., None, None]
    z = kappa * t
    # cosh(z) and sinh(z) / kappa keep double precision as z -> 0; only
    # kappa = 0, where every z is 0, needs the limit sinh(kappa t) / kappa = t.
    shc = np.where(z == 0, t, np.sinh(z) / np.where(kappa == 0, 1, kappa))
    return np.exp(-r.gamma_N * t) * (np.cosh(z) * np.eye(2) + shc * b)


def polarization_propagator(r: DecayRates, t) -> np.ndarray:
    """Closed-form propagator of the polarizations (sigma+~, sigma-~).

    Matrix exponential of ``[[-G_N - i D, G_M], [G_M, -G_N + i D]] * t`` with
    ``D = 2 pi delta`` (squeezing phase absorbed into the frame, so G_M is
    real).  Exact for this linear system.  In the Bloch convention of this
    package (ground state at <sz> = +1) the polarizations correspond to
    ``sigma+~ = (sx~ - i sy~)/2`` and its conjugate.  An array ``t`` gives a
    stack of propagators.
    """
    delta_rad = 2.0 * math.pi * r.delta
    b = np.array([[-1j * delta_rad, r.gamma_M], [r.gamma_M, 1j * delta_rad]])
    return _closed_form(r, [r.delta], t, b)[0]


def transverse_propagator_xy(r: DecayRates, t, deltas=None) -> np.ndarray:
    """Real map of (sx~, sy~) in the frame co-rotating with the squeezer.

    Derived from the same closed form as :func:`polarization_propagator`;
    at delta = 0 it is diag(exp(-t/Tx), exp(-t/Ty)).  Lab-frame components
    are recovered by rotating the output by ``-2 pi delta t`` about z (see
    :func:`frame_rotation`).  An array ``t`` gives a stack of maps.  A
    sequence ``deltas`` (MHz) stacks the maps of ``replace(r, delta=d)`` for
    each ``d`` along a new leading axis.
    """
    d = np.array([r.delta] if deltas is None else deltas, dtype=float)
    c = np.array([[[r.gamma_M, -x], [x, -r.gamma_M]] for x in 2.0 * math.pi * d])
    m = _closed_form(r, d, t, c).real
    return m if deltas is not None else m[0]


def frame_rotation(r: DecayRates, t) -> np.ndarray:
    """Rotation taking co-rotating-frame (sx~, sy~) to lab components at
    ``t``; an array ``t`` gives a stack of rotations."""
    ang = -2.0 * math.pi * r.delta * np.asarray(t, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def steady_state(r: DecayRates, drive: np.ndarray | None = None) -> BlochState:
    """Fixed point of the resonant Bloch equations, optionally driven.

    Without drive this is (0, 0, 1/(2N+1)); the undriven steady state is
    unaffected by detuning.  With a drive it solves ``A s = -b`` for the
    generator of :func:`bloch_rhs` and, like it, raises ValueError at delta != 0.
    """
    if drive is None:
        if r.rate_z <= 0.0:
            raise ValueError("steady state undefined for zero rates")
        return BlochState(sx=0.0, sy=0.0, sz=r.gamma / r.rate_z)
    a, b = _generator(r, drive)
    try:
        s = np.linalg.solve(a, -b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("steady-state system is singular (zero rates?)") from exc
    return BlochState.from_array(s)
