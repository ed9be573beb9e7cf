"""Transmon-cavity polaritons and their squeezed-reservoir master equation.

The transmon is diagonalized exactly in the charge basis (no Duffing
approximation), the Jaynes-Cummings-style coupling uses the rotating-wave
form ``g (b~^dag a + b~ a^dag)`` with the transmon lowering operator
normalized so <0|b~|1> = 1, and the dressed transition elements ``A_ij`` come
from the cavity quadrature expressed in the eigenbasis.

The dissipative generator implements the four squeezed-reservoir families per
transition -- (N+1)-type, N-type, and the two phase-carrying M-types -- in
the interaction picture of the system Hamiltonian, where the M phase factors
reduce to ``exp(-+ 2 i (2 pi delta_ij) t)`` with ``delta_ij`` the squeezer
detuning from transition (i, j).  Only the transition inside the squeezing
bandwidth sees (N, M); every other transition decays into plain vacuum.
Energies are in GHz, rates in 1/us, times in us.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .blochdyn import DecayRates
from .errors import MultiTransitionError, UnphysicalRatesError
from .numerics import eigh, hermitian_defect
from .reservoir import SqueezedReservoir

__all__ = [
    "MasterEquationRHS",
    "PolaritonSystem",
    "TransmonCavityParams",
    "apply_master_equation",
    "bloch_from_density",
    "build_hamiltonian",
    "density_from_bloch",
    "diagonalize_polaritons",
    "master_equation_rhs",
    "transmon_levels",
    "two_level_reduction",
]

GHZ_TO_RAD_PER_US = 2.0 * math.pi * 1e3  # ordinary GHz -> rad/us


@dataclass(frozen=True)
class TransmonCavityParams:
    """Circuit parameters in GHz plus basis cutoffs.

    ``n_transmon`` transmon levels are kept after charge-basis
    diagonalization with charge states |-n_charge .. n_charge>, and the
    cavity Fock space is truncated at ``n_photon`` states.
    """

    E_C: float = 0.208
    E_J: float = 23.27
    omega_c: float = 6.0456
    g: float = 0.126
    n_transmon: int = 5
    n_photon: int = 6
    n_charge: int = 20

    def __post_init__(self):
        if min(self.n_transmon, self.n_photon, self.n_charge) < 3:
            raise ValueError("cutoffs must be at least 3")
        for name in ("E_C", "E_J", "omega_c", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} must be finite")
        if self.E_C <= 0.0 or self.E_J <= 0.0:
            raise ValueError("E_C and E_J must be positive")
        if 2 * self.n_charge + 1 < self.n_transmon:
            raise ValueError("charge cutoff too small for requested levels")
        if self.E_J / self.E_C < 20.0:
            warnings.warn(
                f"E_J/E_C = {self.E_J / self.E_C:.1f} < 20: outside the "
                "transmon regime",
                stacklevel=3,
            )

    @property
    def dim(self) -> int:
        return self.n_transmon * self.n_photon


def transmon_levels(p: TransmonCavityParams) -> tuple[np.ndarray, np.ndarray]:
    """Charge-basis transmon: energies (GHz, ground at 0) and lowering operator.

    The Hamiltonian ``4 E_C n^2 - E_J cos(phi)`` is diagonalized on charge
    states at zero offset charge; the lowering operator is built from the
    charge matrix elements between eigenstates and normalized so
    ``<0|b~|1> = 1``.
    """
    charges = np.arange(-p.n_charge, p.n_charge + 1, dtype=float)
    dim = charges.size
    h = np.diag(4.0 * p.E_C * charges**2).astype(complex)
    # cos(phi) couples neighboring charge states with amplitude 1/2.
    off = -0.5 * p.E_J * np.ones(dim - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    dec = eigh(h)
    energies = dec.eigenvalues[: p.n_transmon] - dec.eigenvalues[0]
    vectors = dec.eigenvectors[:, : p.n_transmon]

    n_op = vectors.conj().T @ np.diag(charges) @ vectors
    n01 = n_op[0, 1]
    if abs(n01) < 1e-12:
        raise UnphysicalRatesError("vanishing 0-1 charge matrix element")
    lowering = np.triu(n_op, k=1) / n01
    return energies, lowering


def _fock_lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1).astype(complex)


def build_hamiltonian(p: TransmonCavityParams) -> np.ndarray:
    """Transmon-cavity Hamiltonian (GHz) with rotating-wave coupling.

    ``H = H_t (x) 1 + 1 (x) w_c a^dag a + g (b~^dag a + b~ a^dag)`` on the
    transmon (x) photon product basis, row-major with the photon index fastest.
    """
    eps_t, b = transmon_levels(p)
    a = _fock_lowering(p.n_photon)
    eye_t = np.eye(p.n_transmon, dtype=complex)
    eye_c = np.eye(p.n_photon, dtype=complex)
    h = np.kron(np.diag(eps_t).astype(complex), eye_c)
    h += p.omega_c * np.kron(eye_t, a.conj().T @ a)
    h += p.g * (np.kron(b.conj().T, a) + np.kron(b, a.conj().T))
    return h


@dataclass(frozen=True)
class PolaritonSystem:
    """Dressed eigensystem of the transmon-cavity Hamiltonian.

    ``energies`` are in GHz, ascending, with the ground state at 0.  ``A``
    holds the cavity-quadrature transition elements A_ij for i < j (zero on
    and below the diagonal; parity forbids A_ii).  ``labels`` tag each level
    by its dominant bare character: 'g' for the ground state, '-'/'+' for the
    single-excitation polaritons, 't{i}p{n}' otherwise.
    """

    energies: np.ndarray
    A: np.ndarray
    labels: tuple[str, ...]

    def transition_frequency(self, i: int, j: int) -> float:
        """|energy difference| of transition (i, j) in GHz."""
        return abs(float(self.energies[j] - self.energies[i]))

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


def _bare_labels(p: TransmonCavityParams, vectors: np.ndarray) -> tuple[str, ...]:
    labels = []
    for k in range(vectors.shape[1]):
        bare = int(np.argmax(np.abs(vectors[:, k]) ** 2))
        ti, ph = divmod(bare, p.n_photon)
        if (ti, ph) == (0, 0):
            labels.append("g")
        else:
            labels.append(f"t{ti}p{ph}")
    # The two single-excitation dressed states become the polariton pair.
    one_exc = [k for k, lab in enumerate(labels) if lab in ("t0p1", "t1p0")]
    if len(one_exc) == 2:
        labels[min(one_exc)] = "-"
        labels[max(one_exc)] = "+"
    return tuple(labels)


def diagonalize_polaritons(
    h: np.ndarray, p: TransmonCavityParams
) -> PolaritonSystem:
    """Diagonalize the transmon-cavity Hamiltonian into polaritons.

    Returns dressed energies (ground-state offset removed) and the cavity
    quadrature ``a + a^dag`` expressed in the eigenbasis, keeping the upper
    triangle as the transition elements A_ij.
    """
    dec = eigh(h)
    energies = dec.eigenvalues - dec.eigenvalues[0]
    a = _fock_lowering(p.n_photon)
    quad = np.kron(np.eye(p.n_transmon, dtype=complex), a + a.conj().T)
    tilde = dec.eigenvectors.conj().T @ quad @ dec.eigenvectors
    return PolaritonSystem(
        energies=energies,
        A=np.triu(tilde, k=1),
        labels=_bare_labels(p, dec.eigenvectors),
    )


def _transition(ps: PolaritonSystem, pair: tuple[int, int] | None) -> tuple[int, int]:
    """``pair`` (default: ground to lower polariton), checked to be a
    radiatively active transition i < j between levels of ``ps``."""
    i, j = pair if pair is not None else (0, ps.index_of("-"))
    if not 0 <= i < j < ps.energies.size:
        raise ValueError(f"invalid transition pair {(i, j)}")
    if ps.A[i, j] == 0.0:
        raise UnphysicalRatesError(f"transition {(i, j)} is radiatively dark")
    return i, j


def two_level_reduction(
    ps: PolaritonSystem,
    gamma01_base: float,
    r: SqueezedReservoir,
    transition: tuple[int, int] | None = None,
) -> DecayRates:
    """Reduce a dressed transition inside the squeezing bandwidth to
    two-level decay rates.

    ``gamma01_base`` is the bare radiative rate (1/us) that the transition
    element rescales: gamma = |A_ij|^2 gamma01_base.  The detuning is the
    squeezer center frequency minus the transition frequency, in MHz.  By
    default the ground to lower-polariton transition is used.

    Raises
    ------
    MultiTransitionError
        If another radiatively active transition lies within 5x the
        squeezing bandwidth of the selected one.
    """
    i, j = _transition(ps, transition)
    omega_sel = ps.transition_frequency(i, j)

    guard_mhz = 5.0 * r.bandwidth
    a_scale = abs(ps.A[i, j])
    # Every other transition (m < n, row-major), skipping the dark ones
    # (a NaN element is not skipped, as a NaN offset never trips the guard).
    rows, cols = np.triu_indices(ps.energies.size, k=1)
    offset_mhz = np.abs(np.abs(ps.energies[cols] - ps.energies[rows]) - omega_sel) * 1e3
    bright = ~(np.abs(ps.A[rows, cols]) < 1e-3 * a_scale)
    crowding = np.flatnonzero(
        bright & (offset_mhz < guard_mhz) & ~((rows == i) & (cols == j))
    )
    if crowding.size:
        k = crowding[0]
        m, n = int(rows[k]), int(cols[k])
        raise MultiTransitionError(
            f"transition {(m, n)} sits {offset_mhz[k]:.1f} MHz from the "
            f"selected one; need >= {guard_mhz:.0f} MHz for a "
            "two-level reduction"
        )

    return DecayRates(
        gamma=abs(ps.A[i, j]) ** 2 * gamma01_base,
        gamma_phi=0.0,
        N=r.N,
        M_abs=r.M_abs,
        delta=(r.omega0 - omega_sel) * 1e3,
    )


@dataclass(frozen=True, eq=False)
class MasterEquationRHS:
    """Assembled dissipative generator of the multi-level master equation.

    The generator acts in the interaction picture of the system Hamiltonian,
    so resonant squeezing gives a static M term.  Every jump operator is a
    single dressed-basis matrix unit, so it is stored as three dense parts.
    ``transfer[i, j]`` is the rate at which the (N+1) and N sandwiches move
    population j into level i (real, stored complex so the mat-vec needs no
    cast); ``decay[a, b]`` is the anticommutator part -(g_a + g_b), with g_k
    half the column sum ``transfer[:, k]``, so population leaves level k at
    2 g_k; ``m_pair`` holds ``(a, b, weight, phase)`` for the squeezed
    transition's M* and M sandwiches (empty without M), each moving
    ``rho[b, a]`` into entry (a, b) at ``weight * exp(i phase t)``, phase in
    rad/us.  Immutable after assembly and safe to evaluate concurrently.
    """

    dimension: int
    transfer: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)
    m_pair: tuple[tuple[int, int, complex, float], ...] = field(repr=False)


def master_equation_rhs(
    ps: PolaritonSystem,
    r: SqueezedReservoir,
    gamma_map: float | dict[tuple[int, int], float],
    squeezed_transition: tuple[int, int] | None = None,
) -> MasterEquationRHS:
    """Assemble the squeezed-reservoir dissipator for the dressed levels.

    ``gamma_map`` gives the bare per-transition rate(s) multiplying
    |A_ij|^2; a scalar applies uniformly.  Squeezing moments (N, M) act only
    on ``squeezed_transition`` (default: ground to lower polariton); all
    other transitions decay into plain vacuum.  Rates are normalized so a
    vacuum transition's population decays at |A_ij|^2 gamma_ij, matching the
    two-level T1 convention.  A ``squeezed_transition`` that is not a
    radiatively active pair i < j of levels raises ``ValueError``, as does a
    squeezed reservoir (N > 0 or M != 0) whose pair gets no positive rate.
    """
    dim = ps.energies.size
    i, j = _transition(ps, squeezed_transition)

    rows, cols = np.triu_indices(dim, k=1)
    if isinstance(gamma_map, dict):
        pairs = zip(rows.tolist(), cols.tolist())
        base = np.array([float(gamma_map.get(ij, 0.0)) for ij in pairs])
    else:
        base = float(gamma_map)
    rate = base * np.abs(ps.A[rows, cols]) ** 2
    keep = ~(rate <= 0.0)  # keeps NaN rates, so they surface in the RHS
    rows, cols, rate = rows[keep], cols[keep], rate[keep]
    hit = np.flatnonzero((rows == i) & (cols == j))
    if not hit.size and (r.N > 0.0 or r.M != 0.0):
        raise ValueError(
            f"squeezed transition {(i, j)} has no positive rate to carry "
            f"N = {r.N:.6g}, |M| = {r.M_abs:.6g}"
        )

    # (N+1)-type: (rate/2)(N+1)(2 S- rho S+ - {S+ S-, rho}) with S- = |i><j|;
    # the sandwich moves population j -> i.  Only the squeezed pair sees N.
    c = 0.5 * rate
    c[hit] *= r.N + 1.0
    transfer = np.zeros((dim, dim), dtype=complex)
    transfer[rows, cols] = 2.0 * c
    gdiag = np.bincount(cols, weights=c, minlength=dim)

    m_pair = ()
    if hit.size:
        rate_sq = rate[hit[0]]
        if r.N > 0.0:
            c_n = 0.5 * rate_sq * r.N
            transfer[j, i] = 2.0 * c_n
            gdiag[i] += c_n
        if r.M != 0.0:
            u = ps.A[i, j] ** 2 / abs(ps.A[i, j]) ** 2  # unit-modulus gauge factor
            detuning = r.omega0 - ps.transition_frequency(i, j)
            two_delta = 2.0 * GHZ_TO_RAD_PER_US * detuning
            # M-type pair; S+- squared vanishes so only sandwiches remain.
            c_star = 0.5 * rate_sq * np.conj(r.M) * u
            c_m = 0.5 * rate_sq * r.M * np.conj(u)
            m_pair = ((i, j, 2.0 * c_star, two_delta), (j, i, 2.0 * c_m, -two_delta))

    return MasterEquationRHS(
        dimension=dim,
        transfer=transfer,
        decay=-(gdiag[:, None] + gdiag[None, :]).astype(complex),
        m_pair=m_pair,
    )


def apply_master_equation(
    rhs: MasterEquationRHS, rho: np.ndarray, t: float
) -> np.ndarray:
    """Evaluate d(rho)/dt at time ``t`` (us) for a valid density matrix.

    ``rho`` must be Hermitian with unit trace; a wrong shape, a Hermiticity
    defect above 1e-9 or a trace off by more than 1e-6 raises ``ValueError``,
    as does a NaN entry, which fails both checks.
    The result is the decay mask times ``rho``, plus the transfer matrix
    applied to the populations on the diagonal, plus the two phase-rotated
    M entries.  The output is Hermitian and traceless to machine precision.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (rhs.dimension, rhs.dimension):
        raise ValueError(
            f"rho must be {rhs.dimension}x{rhs.dimension}, got {rho.shape}"
        )
    # Written so that NaN fails each check: NaN compares False.
    if not hermitian_defect(rho) <= 1e-9:
        raise ValueError("rho must be Hermitian")
    diag = rho.diagonal()
    trace = diag.sum()
    if not (abs(trace.real - 1.0) <= 1e-6 and abs(trace.imag) <= 1e-9):
        raise ValueError("rho must have unit trace")

    drho = rhs.decay * rho
    # The diagonal of a fresh C-ordered array is every (dim+1)-th flat entry.
    drho.reshape(-1)[:: rhs.dimension + 1] += rhs.transfer @ diag
    for a, b, weight, phase in rhs.m_pair:
        drho[a, b] += weight * cmath.exp(1j * phase * t) * rho[b, a]
    return drho


def density_from_bloch(s, dim: int, i: int = 0, j: int = 1) -> np.ndarray:
    """Embed a Bloch vector as a density matrix on levels (i, j) of a
    ``dim``-level system, with level ``i`` at <sz> = +1."""
    sx, sy, sz = float(s[0]), float(s[1]), float(s[2])
    rho = np.zeros((dim, dim), dtype=complex)
    rho[i, i] = 0.5 * (1.0 + sz)
    rho[j, j] = 0.5 * (1.0 - sz)
    rho[i, j] = 0.5 * (sx - 1j * sy)
    rho[j, i] = 0.5 * (sx + 1j * sy)
    return rho


def bloch_from_density(rho: np.ndarray, i: int = 0, j: int = 1) -> np.ndarray:
    """Bloch components of the (i, j) block, level ``i`` at <sz> = +1."""
    return np.array(
        [
            (rho[i, j] + rho[j, i]).real,
            (1j * (rho[i, j] - rho[j, i])).real,
            (rho[i, i] - rho[j, j]).real,
        ]
    )
