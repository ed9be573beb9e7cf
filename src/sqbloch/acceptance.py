"""Acceptance checks tying the simulator to the reference operating point.

Each criterion is a no-argument callable returning a :class:`CriterionResult`
with the computed-versus-expected details; its number and name are written
once, in its ``_criterion`` decorator, which appends it to ``CRITERIA``; the
criteria are defined in number order, and :func:`run_all` executes the list.
The pytest acceptance module and the ``validate`` CLI subcommand both consume
these, so the gate is a single implementation.

Reference operating point: T1 = 0.65 us, T_phi = 6.6 us, N = 0.88, M = 1.08,
modulation 5 MHz, squeezing bandwidth 13 MHz, thermal floor from a 1.8%
equilibrium excited-state population.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import blochdyn, estimation, polariton, protocols, reservoir
from .blochdyn import DecayRates
from .numerics import eigh, fit_least_squares, integrate_ode

__all__ = ["CriterionResult", "run_all", "spectrum_verdict", "CRITERIA"]

T1 = 0.65
T_PHI = 6.6
N_OP = 0.88
M_OP = 1.08
OMEGA_MOD = 5.0
BANDWIDTH = 13.0
# The paper's polariton spectrum: g -> - transition and splitting, with tolerances.
F_MINUS_GHZ = 5.8989
F_MINUS_TOL_MHZ = 15.0
SPLITTING_MHZ = 255.0
SPLITTING_TOL_MHZ = 10.0


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool = True
    details: list[str] = field(default_factory=list)

    def check(self, ok: bool, detail: str) -> None:
        self.passed = self.passed and bool(ok)
        self.details.append(f"{'ok' if ok else 'FAIL'}: {detail}")

    def summary_line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.number}: {self.name}"


CRITERIA = []


def _criterion(number: int, name: str):
    """Make ``check(res)`` a criterion: a no-argument callable returning the
    filled :class:`CriterionResult`, with ``number`` and ``name`` attached,
    and append it to ``CRITERIA``."""

    def wrap(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            res = CriterionResult(number, name)
            check(res)
            return res

        run.number, run.name = number, name
        CRITERIA.append(run)
        return run

    return wrap


def _fit_ramsey_t(rates: DecayRates, phi: float, t_max: float) -> float:
    t = np.linspace(0.0, t_max, 241)
    sz = protocols.ramsey(rates, phi, OMEGA_MOD, t)
    return estimation.fit_damped_sinusoid(t, sz, OMEGA_MOD).T


@_criterion(1, "vacuum Ramsey envelope decays at 2 T1")
def criterion_1_vacuum_limit(res: CriterionResult) -> None:
    rates = DecayRates.from_times(T1=T1)
    t2 = _fit_ramsey_t(rates, 0.5 * math.pi, 5.0)
    res.check(
        abs(t2 - 2.0 * T1) / (2.0 * T1) <= 1e-3,
        f"fitted T2 = {t2:.6f} us vs 2 T1 = {2.0 * T1:.6f} us (tol 0.1%)",
    )


@_criterion(2, "T2* with pure dephasing")
def criterion_2_t2_star(res: CriterionResult) -> None:
    rates = DecayRates.from_times(T1=T1, T_phi=T_PHI)
    t2s = _fit_ramsey_t(rates, 0.5 * math.pi, 5.0)
    res.check(abs(t2s - 1.086) <= 1e-3, f"fitted T2* = {t2s:.6f} us vs 1.086 us")
    res.check(1.04 <= t2s <= 1.12, "T2* inside the quoted 1.08(4) us interval")


@_criterion(3, "squeezed-vacuum timescales at the operating point")
def criterion_3_squeezed_timescales(res: CriterionResult) -> None:
    ts = blochdyn.axis_timescales(
        DecayRates.from_times(T1=T1, T_phi=T_PHI, N=N_OP, M=M_OP)
    )
    res.check(
        abs(ts.Tx_tilde - 2.17) <= 5e-3,
        f"Tx~ = {ts.Tx_tilde:.4f} us (expected 2.17 us from the moment pair)",
    )
    res.check(
        abs(ts.Ty_tilde - 0.264) <= 5e-4,
        f"Ty~ = {ts.Ty_tilde:.4f} us (expected 0.264 us)",
    )
    res.check(
        abs(ts.Tz - 0.2355) <= 5e-5, f"Tz = {ts.Tz:.5f} us (expected 0.2355 us)"
    )
    # Agreement with the quoted radiative times at one rounding digit: Tx~
    # within half a unit of the 2.2 us quote, Ty~ at one significant digit.
    res.check(
        abs(ts.Tx_tilde - 2.2) <= 0.05,
        f"Tx~ = {ts.Tx_tilde:.4f} us rounds to the quoted 2.2 us",
    )
    res.check(
        round(ts.Ty_tilde, 1) == round(0.29, 1),
        f"Ty~ = {ts.Ty_tilde:.4f} us agrees with the quoted 0.29 us at one digit",
    )
    # Measured-timescale machinery: simulating at the quoted radiative times
    # (2.2 us / 0.29 us) and refitting must return the measured Tx/Ty within
    # 2%.  The moment pair below reproduces exactly those radiative rates.
    rate_x, rate_y = 1.0 / 2.2, 1.0 / 0.29
    n_eq = 0.5 * ((rate_x + rate_y) * T1 - 1.0)
    m_eq = 0.5 * (rate_y - rate_x) * T1
    rates_eq = DecayRates.from_times(T1=T1, T_phi=T_PHI, N=n_eq, M=m_eq)
    tx = _fit_ramsey_t(rates_eq, 0.5 * math.pi, 5.0)
    ty = _fit_ramsey_t(rates_eq, math.pi, 1.5)
    res.check(abs(tx - 1.65) <= 2e-3, f"fitted Tx = {tx:.4f} us (expected 1.65 us)")
    res.check(abs(ty - 0.278) <= 2e-3, f"fitted Ty = {ty:.4f} us (expected 0.278 us)")
    res.check(
        abs(tx - 1.67) / 1.67 <= 0.02, "Tx within 2% of the measured 1.67 us"
    )
    res.check(
        abs(ty - 0.28) / 0.28 <= 0.02, "Ty within 2% of the measured 0.28 us"
    )


@_criterion(4, "squeezed-vacuum steady state")
def criterion_4_steady_state(res: CriterionResult) -> None:
    rates = DecayRates.from_times(T1=T1, T_phi=T_PHI, N=N_OP, M=M_OP)
    ss = blochdyn.steady_state(rates)
    res.check(abs(ss.sz - 0.3623) <= 1e-4, f"<sz>_ss = {ss.sz:.5f} (expected 0.3623)")
    res.check(
        abs(ss.sz - 0.36) / 0.36 <= 0.01, "<sz>_ss within 1% of the quoted 0.36"
    )
    traj = protocols.tomography_trajectory(
        rates, (0.67 * math.pi, 0.83 * math.pi), [30.0]
    )
    res.check(
        abs(traj[-1, 0]) < 1e-6,
        f"<sx> -> {traj[-1, 0]:.2e} (below 1e-6)",
    )


@_criterion(5, "effective decay constants vs squeezer detuning")
def criterion_5_detuning_sweep(res: CriterionResult) -> None:
    rates = DecayRates.from_times(T1=T1, N=N_OP, M=M_OP)  # radiative only
    gm_mhz = rates.gamma_M / (2.0 * math.pi)
    asym = 2.0 * T1 / (2.0 * N_OP + 1.0)
    half = [0.05, 0.1, 0.264, 0.5, 1.0, 5.0 * gm_mhz, 2.0, 10.0 * gm_mhz, 3.5]
    deltas = [0.0] + half + [-d for d in half]
    t_x = np.linspace(0.0, 6.0, 241)
    t_y = np.linspace(0.0, 2.5, 241)
    # One sweep per axis, since the two time grids differ.
    _, (tx,), _ = protocols.detuning_sweep(rates, deltas, [0.5 * math.pi], t_x)
    _, (ty,), _ = protocols.detuning_sweep(rates, deltas, [math.pi], t_y)
    tx = dict(zip(deltas, tx.tolist()))
    ty = dict(zip(deltas, ty.tolist()))

    sym_err = max(
        max(abs(tx[d] - tx[-d]) / tx[d] for d in half),
        max(abs(ty[d] - ty[-d]) / ty[d] for d in half),
    )
    res.check(sym_err <= 1e-6, f"curves symmetric in delta (rel err {sym_err:.1e})")

    def eigenrate_t(delta_mhz: float, sign: float) -> float:
        """1/rate of the slow (+1) or fast (-1) eigenmode at this detuning."""
        fast, slow = blochdyn.decay_eigenrates(replace(rates, delta=delta_mhz))
        return 1.0 / (slow if sign > 0.0 else fast).real

    # Extrema on resonance: exact for the eigenrate curves.  The fitted Tx
    # shares the maximum; the fitted Ty carries a documented fit-procedure
    # dip just off resonance (slow-mode tail), so its minimum is only
    # required to sit inside the squeezing-influence window |delta| <= gM/2pi.
    res.check(
        all(eigenrate_t(0.0, +1.0) >= eigenrate_t(d, +1.0) for d in half)
        and all(eigenrate_t(0.0, -1.0) <= eigenrate_t(d, -1.0) for d in half),
        "eigenrate curves attain their extrema at delta = 0",
    )
    res.check(
        all(tx[0.0] >= v for v in tx.values()),
        "fitted Tx is maximal at delta = 0",
    )
    ty_argmin = min(ty, key=ty.get)
    res.check(
        abs(ty_argmin) <= gm_mhz and ty[0.0] < asym,
        f"fitted Ty minimum at delta = {ty_argmin:.3f} MHz inside the "
        f"|delta| <= gamma M / 2 pi = {gm_mhz:.3f} MHz window",
    )
    res.check(
        tx[0.0] > 2.0 * T1,
        f"Tx(0) = {tx[0.0]:.4f} us exceeds 2 T1 = {2.0 * T1:.2f} us",
    )

    worst_pred = max(
        abs(eigenrate_t(d, s) - asym) / asym
        for d in deltas
        if abs(d) >= 5.0 * gm_mhz
        for s in (+1.0, -1.0)
    )
    res.check(
        worst_pred <= 0.02,
        f"eigenrate curves within 2% of 2T1/(2N+1) = {asym:.4f} us beyond "
        f"5 gamma M / 2 pi (worst {worst_pred:.2e})",
    )

    # Full-curve agreement against the closed-form route: the same fit applied
    # to each detuning's own propagator envelopes must reproduce the pipeline.
    ref, dual_err = [0.0] + half, 0.0
    for fitted, e0, t in ((tx, [1.0, 0.0], t_x), (ty, [0.0, 1.0], t_y)):
        maps = blochdyn.transverse_propagator_xy(rates, t, ref)
        env = np.linalg.norm(maps @ e0, axis=-1)
        for d, fit in zip(ref, estimation.fit_exp(t, env)):
            if isinstance(fit, Exception):
                raise fit
            dual_err = max(dual_err, abs(fitted[d] - fit.T) / fitted[d])
    res.check(
        dual_err <= 1e-6,
        f"pipeline matches direct closed-form envelope fits (rel err {dual_err:.1e})",
    )
    res.check(
        abs(tx[0.0] - eigenrate_t(0.0, +1.0)) <= 1e-6
        and abs(ty[0.0] - eigenrate_t(0.0, -1.0)) <= 1e-6,
        "resonant point matches the exact eigenrates",
    )
    fit_bias_5x = max(
        abs(tx[5.0 * gm_mhz] - asym) / asym, abs(ty[5.0 * gm_mhz] - asym) / asym
    )
    fit_bias_10x = max(
        abs(tx[10.0 * gm_mhz] - asym) / asym, abs(ty[10.0 * gm_mhz] - asym) / asym
    )
    res.check(
        fit_bias_5x <= 0.08,
        f"fitted curves within the 8% fit tolerance of the asymptote at "
        f"5 gamma M / 2 pi (worst {fit_bias_5x:.3f})",
    )
    res.check(
        fit_bias_10x <= 0.02,
        f"fitted curves within 2% of the asymptote by 10 gamma M / 2 pi "
        f"(worst {fit_bias_10x:.3f})",
    )
    # Squeezing helps only inside a finite window around resonance.
    res.check(
        all(tx[d] > 2.0 * T1 for d in (0.0, 0.05, 0.1))
        and all(tx[d] < 2.0 * T1 for d in deltas if abs(d) >= 0.264),
        "Tx exceeds 2 T1 only inside a finite window around delta = 0",
    )


@functools.cache
def _circuit_system() -> polariton.PolaritonSystem:
    """The reference circuit's polaritons, built once per process."""
    params = polariton.TransmonCavityParams()
    return polariton.diagonalize_polaritons(polariton.build_hamiltonian(params), params)


def _resonant_reservoir(system: polariton.PolaritonSystem) -> reservoir.SqueezedReservoir:
    """Operating-point squeezing, resonant with the ground to lower-polariton transition."""
    return reservoir.SqueezedReservoir(
        N=N_OP,
        M=M_OP,
        omega0=system.transition_frequency(0, system.index_of("-")),
        bandwidth=BANDWIDTH,
    )


def spectrum_verdict(system: polariton.PolaritonSystem):
    """The g->- and g->+ transition frequencies (GHz) and the polariton
    splitting (MHz) of ``system``, and whether the g->- frequency and the
    splitting each lie within tolerance of the paper's values."""
    f_minus = system.transition_frequency(0, system.index_of("-"))
    f_plus = system.transition_frequency(0, system.index_of("+"))
    splitting = (f_plus - f_minus) * 1e3
    ok = (abs(f_minus - F_MINUS_GHZ) * 1e3 <= F_MINUS_TOL_MHZ,
          abs(splitting - SPLITTING_MHZ) <= SPLITTING_TOL_MHZ)
    return (f_minus, f_plus, splitting), ok


@_criterion(6, "polariton spectrum at the circuit parameters")
def criterion_6_polariton_spectrum(res: CriterionResult) -> None:
    (f_minus, _, splitting), (ok_freq, ok_split) = spectrum_verdict(_circuit_system())
    res.check(
        ok_freq,
        f"g->- transition {f_minus:.4f} GHz within {F_MINUS_TOL_MHZ:g} MHz of {F_MINUS_GHZ:g} GHz",
    )
    res.check(
        ok_split,
        f"polariton splitting {splitting:.1f} MHz within {SPLITTING_TOL_MHZ:g} MHz "
        f"of {SPLITTING_MHZ:g} MHz",
    )


@_criterion(7, "multi-level master equation reduces to the Bloch dynamics")
def criterion_7_master_equation_reduction(res: CriterionResult) -> None:
    system = _circuit_system()
    i_minus = system.index_of("-")
    resv = _resonant_reservoir(system)
    base = 2.0 * math.pi * 0.24 / abs(system.A[0, i_minus]) ** 2
    rates = polariton.two_level_reduction(system, base, resv)
    rhs = polariton.master_equation_rhs(system, resv, base)
    dim = rhs.dimension

    s0 = np.array([0.6, -0.3, 0.5]) * 0.9
    sol = integrate_ode(
        lambda t, y: polariton.apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
        polariton.density_from_bloch(s0, dim, j=i_minus).ravel(),
        (0.0, 5.0),
        tol=1e-10,
        t_eval=np.linspace(0.0, 5.0, 11),
    )
    ts = blochdyn.axis_timescales(rates)
    sz_ss = blochdyn.steady_state(rates).sz
    worst = 0.0
    for tk, yk in zip(sol.t, sol.y):
        got = polariton.bloch_from_density(yk.reshape(dim, dim), j=i_minus)
        exp_xy = blochdyn.transverse_propagator_xy(rates, tk) @ s0[:2]
        exp_z = sz_ss + (s0[2] - sz_ss) * math.exp(-tk / ts.Tz)
        worst = max(
            worst, float(np.abs(got - np.array([exp_xy[0], exp_xy[1], exp_z])).max())
        )
    res.check(
        worst <= 1e-6,
        f"Bloch components agree to {worst:.2e} over 5 us (tol 1e-6) at the "
        f"calibrated gamma/2pi = 240 kHz (T1 = {1.0 / rates.gamma:.4f} us)",
    )


@_criterion(8, "attenuation model accounts for the measured moments")
def criterion_8_attenuation_moments(res: CriterionResult) -> None:
    eta = estimation.infer_eta(N_OP, M_OP)
    res.check(0.40 <= eta <= 0.50, f"inferred eta = {eta:.4f} inside [0.40, 0.50]")
    m_minus_n = reservoir.eta_curve(N_OP, 0.5)
    res.check(
        abs(m_minus_n - 0.20) <= 0.03,
        f"eta = 0.5 curve gives M - N = {m_minus_n:.4f} at N = 0.88 "
        "(within 0.03 of 0.20)",
    )


@_criterion(9, "thermal-floor calibration")
def criterion_9_thermal_calibration(res: CriterionResult) -> None:
    n_th = reservoir.thermal_from_population(0.018)
    res.check(
        abs(n_th - 0.0187) <= 1e-4 and n_th <= 0.019,
        f"N_th = {n_th:.5f} (expected 0.0187, bound 0.019)",
    )
    t1_int = T1 * (2.0 * n_th + 1.0)
    res.check(t1_int <= 0.675, f"intrinsic T1 = {t1_int:.4f} us <= 0.675 us")


@_criterion(10, "property-suite backstop")
def criterion_10_property_backstop(res: CriterionResult) -> None:
    """Deterministic spot checks of the module property suites; the broad
    randomized versions run in the per-module tests."""

    # Estimation round trip at three seeded operating points.
    worst = 0.0
    for n, frac in [(0.3, 0.5), (1.5, 0.9), (2.8, 0.2)]:
        m = frac * reservoir.ideal_M(n)
        rates = DecayRates.from_times(T1=T1, T_phi=T_PHI, N=n, M=m)
        ts = blochdyn.axis_timescales(rates)
        t_x = np.linspace(0.0, min(4.0 * ts.Tx, 20.0), 256)
        tx = estimation.fit_damped_sinusoid(
            t_x,
            protocols.ramsey(rates, 0.5 * math.pi, OMEGA_MOD, t_x),
            OMEGA_MOD,
        ).T
        t_z = np.linspace(0.0, 5.0 * ts.Tz, 128)
        traj = protocols.tomography_trajectory(rates, (math.pi, 0.0), t_z)
        tz = estimation.fit_exp(t_z, traj[:, 2]).T
        est = estimation.estimate_moments(T1, T_PHI, tx, tz)
        worst = max(worst, abs(est.N - n) / max(n, 1.0), abs(est.M - m) / max(m, 1.0))
    res.check(worst <= 1e-3, f"estimation round trip to 1e-3 (worst {worst:.1e})")

    # Master equation preserves trace and Hermiticity on a seeded state.
    system = _circuit_system()
    rhs = polariton.master_equation_rhs(system, _resonant_reservoir(system), 1.0)
    rng = np.random.default_rng(11)
    g = rng.standard_normal((rhs.dimension, rhs.dimension))
    g = g + 1j * rng.standard_normal(g.shape)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    drho = polariton.apply_master_equation(rhs, rho, 0.2)
    res.check(
        abs(np.trace(drho)) <= 1e-12 * np.abs(rho).max(),
        f"trace preservation ({abs(np.trace(drho)):.1e})",
    )
    res.check(
        np.abs(drho - drho.conj().T).max() <= 1e-12 * max(np.abs(drho).max(), 1e-300),
        "Hermiticity preservation",
    )

    # Propagator semigroup.
    rates = DecayRates.from_times(T1=T1, T_phi=T_PHI, N=N_OP, M=M_OP, delta=0.3)
    p1 = blochdyn.polarization_propagator(rates, 0.7)
    p2 = blochdyn.polarization_propagator(rates, 1.9)
    p12 = blochdyn.polarization_propagator(rates, 2.6)
    res.check(
        np.abs(p12 - p2 @ p1).max() <= 1e-10, "propagator semigroup to 1e-10"
    )

    # Eigensolver reconstruction.
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    dec = eigh(h)
    rebuild = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    res.check(
        np.abs(rebuild - h).max() <= 1e-9 * np.linalg.norm(h),
        "eigensolver reconstruction to 1e-9",
    )

    # Fit round trip.
    t = np.linspace(0.0, 5.0, 64)
    y = 1.7 * np.exp(-t / 0.9) + 0.2
    fit = fit_least_squares(
        estimation._exp_model, t, y, [1.0, 1.5, 0.0], jac=estimation._exp_jac
    )
    res.check(
        bool(
            fit.converged
            and abs(fit.params[0] - 1.7) <= 1.7e-6
            and abs(fit.params[1] - 0.9) <= 0.9e-6
        ),
        "least-squares round trip to 1e-6 relative",
    )


@_criterion(11, "steady <sy> scales linearly with the weak drive")
def criterion_11_drive_scaling(res: CriterionResult) -> None:
    """Substitute for the non-reproducible remnant <sy> = 0.07: the steady
    transverse coherence is linear in the weak drive amplitude."""
    rates = DecayRates.from_times(T1=T1, T_phi=T_PHI, N=N_OP, M=M_OP)
    omegas = 2.0 * math.pi * np.array([0.001, 0.002, 0.005, 0.01, 0.02])  # 1-20 kHz
    sy = np.array(
        [
            blochdyn.steady_state(rates, drive=np.array([w, 0.0, 0.0])).sy
            for w in omegas
        ]
    )
    slope = float(sy @ omegas / (omegas @ omegas))
    worst = float(np.abs(sy - slope * omegas).max() / np.abs(slope * omegas).min())
    res.check(
        worst <= 0.01,
        f"linear to {worst:.2e} over 1-20 kHz (slope {slope:.4f} per rad/us, "
        f"|sy| at 10 kHz = {abs(slope) * 2.0 * math.pi * 0.01:.4f})",
    )


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion."""
    return [c() for c in CRITERIA]
