import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch.blochdyn import (
    BlochState,
    DecayRates,
    _kappa,
    axis_timescales,
    bloch_rhs,
    decay_eigenrates,
    polarization_propagator,
    steady_state,
    transverse_propagator_xy,
)
from sqbloch.errors import NumericalFailure, UnphysicalRatesError
from sqbloch.numerics import integrate_ode

SQUEEZED_RATES = DecayRates.from_times(T1=0.65, T_phi=6.6, N=0.88, M=1.08)
SQUEEZED_RADIATIVE = DecayRates.from_times(T1=0.65, N=0.88, M=1.08)
VACUUM = DecayRates.from_times(T1=0.65)


def rates_strategy(max_detuning=0.0):
    """Physical rate sets: M = f * sqrt(N(N+1))."""

    def build(args):
        t1, t_phi, n, f, delta = args
        return DecayRates.from_times(
            T1=t1, T_phi=t_phi, N=n, M=f * math.sqrt(n * (n + 1.0)), delta=delta
        )

    return st.tuples(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-max_detuning, max_value=max_detuning),
    ).map(build)


class TestBlochState:
    def test_ball_bound_enforced(self):
        with pytest.raises(ValueError):
            BlochState(1.0, 1.0, 1.0)

    def test_from_angles(self):
        s = BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi)
        assert s.sz == pytest.approx(math.cos(0.67 * math.pi))
        assert (s.as_array() ** 2).sum() == pytest.approx(1.0)


def test_no_dephasing_is_positive_zero():
    # T_phi = inf gives gamma_phi = 1 / inf, which IEEE division makes +0.0.
    gamma_phi = DecayRates.from_times(T1=1.0).gamma_phi
    assert gamma_phi == 0.0 and math.copysign(1.0, gamma_phi) == 1.0


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: DecayRates(gamma=math.inf), id="gamma-inf"),
        pytest.param(lambda: DecayRates(gamma=math.nan), id="gamma-nan"),
        pytest.param(lambda: DecayRates(gamma=1.0, gamma_phi=math.inf), id="gamma_phi-inf"),
        pytest.param(lambda: DecayRates(gamma=1.0, gamma_phi=math.nan), id="gamma_phi-nan"),
        pytest.param(lambda: DecayRates.from_times(T1=5e-324), id="T1-subnormal"),
        pytest.param(lambda: DecayRates.from_times(T1=1e-300, N=1e10), id="gamma-2N+1-overflows"),
    ],
)
def test_non_finite_rates_raise(build):
    # Every rate passes the sign checks; an infinite or NaN axis rate is refused
    # when the rates are built, naming them, instead of propagating as NaN.
    with pytest.raises(UnphysicalRatesError, match="give a non-finite decay rate"):
        build()


class TestBlochRhs:
    def test_vacuum_fixed_point(self):
        rates = DecayRates.from_times(T1=0.65)
        ds = bloch_rhs(BlochState(0.0, 0.0, 1.0), rates)
        assert np.abs(ds).max() == pytest.approx(0.0, abs=1e-14)

    def test_squeezed_x_rate(self):
        ds = bloch_rhs(BlochState(1.0, 0.0, 0.0), SQUEEZED_RADIATIVE)
        assert ds[0] == pytest.approx(-0.4615, abs=1e-4)

    def test_all_rates_zero(self):
        rates = DecayRates(gamma=0.0)
        ds = bloch_rhs(BlochState(0.3, -0.2, 0.5), rates)
        assert np.all(ds == 0.0)

    def test_drive_torque(self):
        rates = DecayRates(gamma=0.0)
        omega = np.array([0.7, 0.0, 0.0])
        s = BlochState(0.0, 0.0, 1.0)
        ds = bloch_rhs(s, rates, drive=omega)
        assert ds == pytest.approx(np.cross(omega, s.as_array()))

    def test_rejects_detuned_rates(self):
        rates = DecayRates.from_times(T1=0.65, delta=1.0)
        with pytest.raises(ValueError, match="delta"):
            bloch_rhs(BlochState(1.0, 0.0, 0.0), rates)

    def test_matches_written_out_equations(self):
        omega = np.array([0.3, -0.1, 0.2])
        v = np.array([0.4, -0.5, 0.6])
        r = SQUEEZED_RATES
        expected = np.array([-r.rate_x * v[0], -r.rate_y * v[1], -r.rate_z * v[2] + r.gamma])
        assert np.array_equal(bloch_rhs(v, r), expected)
        assert bloch_rhs(v, r, drive=omega) == pytest.approx(
            expected + np.cross(omega, v), abs=1e-15
        )


class TestAxisTimescales:
    def test_vacuum_limit(self):
        ts = axis_timescales(VACUUM)
        assert ts.Tx_tilde == pytest.approx(1.3)
        assert ts.Ty_tilde == pytest.approx(1.3)
        assert ts.Tz == pytest.approx(0.65)
        assert ts.Tx == pytest.approx(1.3)

    def test_reference_radiative_times(self):
        ts = axis_timescales(SQUEEZED_RATES)
        assert ts.Tx_tilde == pytest.approx(2.1667, abs=1e-4)
        assert ts.Ty_tilde == pytest.approx(0.26423, abs=1e-5)
        assert ts.Tz == pytest.approx(0.23551, abs=1e-5)
        # Dephasing adds to the transverse rates only.
        assert ts.Tx == pytest.approx(1.0 / (1.0 / ts.Tx_tilde + 1.0 / 6.6))
        assert ts.Ty == pytest.approx(1.0 / (1.0 / ts.Ty_tilde + 1.0 / 6.6))
        assert ts.Tx == pytest.approx(1.6311787, abs=1e-6)
        assert ts.Ty == pytest.approx(0.2540566, abs=1e-6)

    def test_t2_star(self):
        ts = axis_timescales(DecayRates.from_times(T1=0.65, T_phi=6.6))
        assert ts.Tx == pytest.approx(1.086, abs=1e-3)
        assert ts.Ty == pytest.approx(ts.Tx)

    def test_unphysical_rates_guard(self):
        with pytest.warns(UserWarning, match="violate") as record:
            bad = DecayRates(gamma=1.0, N=0.1, M_abs=0.7)
        assert record[0].filename == __file__  # the caller, not the generated __init__
        with pytest.raises(UnphysicalRatesError):
            axis_timescales(bad)

    @given(rates_strategy())
    @settings(max_examples=60)
    def test_dephasing_rate_addition(self, rates):
        ts = axis_timescales(rates)
        assert 1.0 / ts.Tx == pytest.approx(
            1.0 / ts.Tx_tilde + rates.gamma_phi, rel=1e-12
        )
        assert 1.0 / ts.Ty == pytest.approx(
            1.0 / ts.Ty_tilde + rates.gamma_phi, rel=1e-12
        )


class TestDecayEigenrates:
    def test_resonant(self):
        lp, lm = decay_eigenrates(SQUEEZED_RATES)
        assert lp == pytest.approx(SQUEEZED_RATES.gamma_N + SQUEEZED_RATES.gamma_M)
        assert lm == pytest.approx(SQUEEZED_RATES.gamma_N - SQUEEZED_RATES.gamma_M)

    def test_thermal_bath(self):
        rates = DecayRates.from_times(T1=0.65, N=0.5)
        lp, lm = decay_eigenrates(rates)
        assert lp == lm == pytest.approx(rates.gamma_N)

    def test_large_detuning_limit(self):
        rates = DecayRates.from_times(T1=0.65, T_phi=6.6, N=0.88, M=1.08, delta=50.0)
        lp, lm = decay_eigenrates(rates)
        assert lp.real == pytest.approx(rates.gamma_N)
        assert lm.real == pytest.approx(rates.gamma_N)
        assert lp.imag != 0.0

    @pytest.mark.parametrize("delta", [1.0, 3.7, 50.0])
    def test_underdamped_real_parts_are_gamma_n(self, delta):
        # complex ** 0.5 goes through polar form and leaves kappa a real part
        # of a few 1e-16 past the exceptional point; the square root is
        # exactly imaginary there.
        r = DecayRates.from_times(T1=0.65, N=0.88, M=1.08, delta=delta)
        assert _kappa(r, r.delta).real == 0.0
        lp, lm = decay_eigenrates(r)
        assert lp.real == lm.real == r.gamma_N

    @pytest.mark.parametrize("delta", [1e154, np.float64(-1e300), 1e308],
                             ids=["square", "numpy-square", "product"])
    def test_kappa_overflow_is_named(self, delta):
        # The square of 2 pi delta overflows, or 2 pi delta itself does.
        with pytest.raises(NumericalFailure, match="^kappa\\^2 overflows at delta = "):
            _kappa(SQUEEZED_RATES, delta)

    @given(rates_strategy(max_detuning=5.0))
    @settings(max_examples=60)
    def test_matches_propagator_generator(self, rates):
        delta_rad = 2.0 * math.pi * rates.delta
        gen = np.array(
            [
                [-rates.gamma_N - 1j * delta_rad, rates.gamma_M],
                [rates.gamma_M, -rates.gamma_N + 1j * delta_rad],
            ]
        )
        expected = np.linalg.eigvals(gen)
        got = np.array([-v for v in decay_eigenrates(rates)])
        scale = max(1.0, float(np.abs(expected).max()))
        pairings = (
            max(abs(expected[0] - got[0]), abs(expected[1] - got[1])),
            max(abs(expected[0] - got[1]), abs(expected[1] - got[0])),
        )
        assert min(pairings) <= 1e-10 * scale


class TestPolarizationPropagator:
    def test_identity_at_zero_time(self):
        p = polarization_propagator(SQUEEZED_RATES, 0.0)
        assert np.abs(p - np.eye(2)).max() <= 1e-14

    def test_resonant_axis_decays(self):
        t = 0.8
        m = transverse_propagator_xy(SQUEEZED_RATES, t)
        assert m[0, 0] == pytest.approx(
            math.exp(-(SQUEEZED_RATES.gamma_N - SQUEEZED_RATES.gamma_M) * t), rel=1e-12
        )
        assert m[1, 1] == pytest.approx(
            math.exp(-(SQUEEZED_RATES.gamma_N + SQUEEZED_RATES.gamma_M) * t), rel=1e-12
        )
        assert abs(m[0, 1]) <= 1e-14 and abs(m[1, 0]) <= 1e-14

    def test_matches_ode_integration(self):
        rates = DecayRates.from_times(T1=0.65, T_phi=6.6, N=0.88, M=1.08, delta=0.4)
        delta_rad = 2.0 * math.pi * rates.delta
        gen = np.array(
            [
                [-rates.gamma_N - 1j * delta_rad, rates.gamma_M],
                [rates.gamma_M, -rates.gamma_N + 1j * delta_rad],
            ]
        )
        y0 = np.array([0.5 + 0.0j, 0.5 + 0.0j])  # sx = 1 polarization pair
        sol = integrate_ode(
            lambda t, y: gen @ y, y0, (0.0, 2.0), tol=1e-11, t_eval=[0.7, 2.0]
        )
        for tk, yk in zip(sol.t, sol.y):
            exact = polarization_propagator(rates, tk) @ y0
            assert np.abs(yk - exact).max() <= 1e-9

    def test_real_map_consistent_with_complex_map(self):
        rates = DecayRates.from_times(T1=0.5, T_phi=8.0, N=1.2, M=1.4, delta=-0.3)
        sx0, sy0 = 0.6, -0.7
        t = 1.3
        # sigma+~ = (sx~ - i sy~)/2 in the ground-at-+z convention.
        pair0 = np.array([(sx0 - 1j * sy0) / 2.0, (sx0 + 1j * sy0) / 2.0])
        pair = polarization_propagator(rates, t) @ pair0
        via_complex = np.array(
            [(pair[0] + pair[1]).real, (1j * (pair[0] - pair[1])).real]
        )
        via_real = transverse_propagator_xy(rates, t) @ np.array([sx0, sy0])
        assert np.abs(via_complex - via_real).max() <= 1e-12

    @given(
        rates_strategy(max_detuning=2.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_semigroup(self, rates, t1, t2):
        p1 = polarization_propagator(rates, t1)
        p2 = polarization_propagator(rates, t2)
        p12 = polarization_propagator(rates, t1 + t2)
        assert np.abs(p12 - p2 @ p1).max() <= 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            polarization_propagator(SQUEEZED_RATES, -0.1)

    @staticmethod
    def _generators(r):
        """The ``b`` of the polarization map and of the real (sx~, sy~) map."""
        d = 2.0 * math.pi * r.delta
        return (
            np.array([[-1j * d, r.gamma_M], [r.gamma_M, 1j * d]]),
            np.array([[r.gamma_M, -d], [d, -r.gamma_M]]),
        )

    @pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-12, -1e-13])
    def test_near_exceptional_point_matches_series(self, eps):
        # Within 1e-12 of |2 pi delta| = Gamma_M, |kappa t| stays below 1e-4,
        # where cosh z = 1 + z^2/2 and sinh(kappa t)/kappa = t (1 + z^2/6)
        # hold to double precision: the propagators must agree with that
        # series form.
        r = replace(SQUEEZED_RATES, delta=SQUEEZED_RATES.gamma_M / (2.0 * math.pi) * (1.0 + eps))
        t = np.linspace(0.0, 6.0, 241)[:, None, None]
        kappa = complex(r.gamma_M**2 - (2.0 * math.pi * r.delta) ** 2) ** 0.5
        z = kappa * t
        assert 0.0 < np.abs(z).max() < 1e-4
        pol_b, xy_b = self._generators(r)
        ch, shc = 1.0 + z * z / 2.0, t * (1.0 + z * z / 6.0)
        series = [np.exp(-r.gamma_N * t) * (ch * np.eye(2) + shc * b) for b in (pol_b, xy_b)]
        assert np.abs(polarization_propagator(r, t[:, 0, 0]) - series[0]).max() <= 2.3e-16
        assert np.abs(transverse_propagator_xy(r, t[:, 0, 0]) - series[1].real).max() <= 2.3e-16

    @pytest.mark.parametrize(
        "r",
        [
            DecayRates(gamma=1.0 / 0.65, gamma_phi=0.15, N=0.3),
            # 2 pi * 0.25 and Gamma_M = pi are the same double: kappa = 0 with M != 0.
            DecayRates(gamma=math.pi, gamma_phi=0.15, N=0.6, M_abs=0.5, delta=0.25),
        ],
        ids=["M=0", "critical"],
    )
    def test_kappa_zero_is_the_linear_limit(self, r):
        # kappa = 0 takes sinh(kappa t)/kappa = t exactly, bit for bit.
        t = np.linspace(0.0, 5.0, 101)
        pol_b, xy_b = self._generators(r)
        decay = np.exp(-r.gamma_N * t)[:, None, None]
        tt = t[:, None, None]
        assert np.array_equal(polarization_propagator(r, t), decay * (np.eye(2) + tt * pol_b))
        assert np.array_equal(transverse_propagator_xy(r, t), decay * (np.eye(2) + tt * xy_b))


class TestSteadyState:
    def test_vacuum(self):
        s = steady_state(VACUUM)
        assert (s.sx, s.sy, s.sz) == (0.0, 0.0, pytest.approx(1.0))

    def test_reference_moments(self):
        s = steady_state(SQUEEZED_RATES)
        assert s.sz == pytest.approx(0.3623, abs=1e-4)
        assert s.sx == 0.0 and s.sy == 0.0

    def test_zero_rates_singular(self):
        with pytest.raises(ValueError):
            steady_state(DecayRates(gamma=0.0))
        with pytest.raises(ValueError):
            steady_state(DecayRates(gamma=0.0), drive=np.zeros(3))

    def test_weak_drive_remnant_coherence(self):
        omega_r = 2.0 * math.pi * 0.01  # 10 kHz in rad/us
        s = steady_state(SQUEEZED_RATES, drive=np.array([omega_r, 0.0, 0.0]))
        # Remnant transverse coherence of order Omega_R * T1.
        assert 0.1 * omega_r * 0.65 <= abs(s.sy) <= omega_r * 0.65
        assert s.sz == pytest.approx(0.3623, abs=1e-3)

    def test_driven_rejects_detuning_as_bloch_rhs_does(self):
        detuned = DecayRates.from_times(T1=0.65, N=0.88, M=1.08, delta=0.5)
        drive = np.array([0.3, 0.0, 0.0])
        with pytest.raises(ValueError) as from_rhs:
            bloch_rhs(np.zeros(3), detuned, drive)
        with pytest.raises(ValueError) as from_steady:
            steady_state(detuned, drive=drive)
        assert str(from_steady.value) == str(from_rhs.value)
        assert "delta = 0" in str(from_rhs.value)

    def test_undriven_detuned_is_closed_form(self):
        detuned = DecayRates.from_times(T1=0.65, N=0.88, M=1.08, delta=0.5)
        s = steady_state(detuned)
        assert (s.sx, s.sy, s.sz) == (0.0, 0.0, detuned.gamma / detuned.rate_z)

    def test_driven_matches_rhs_zero(self):
        omega = np.array([0.3, -0.1, 0.2])
        s = steady_state(SQUEEZED_RATES, drive=omega)
        ds = bloch_rhs(s, SQUEEZED_RATES, drive=omega)
        assert np.abs(ds).max() <= 1e-12


class TestTrajectories:
    def _integrate(self, rates, s0, t_eval, tol=1e-10):
        return integrate_ode(
            lambda t, y: bloch_rhs(y, rates),
            s0.as_array(),
            (0.0, float(t_eval[-1])),
            tol=tol,
            t_eval=t_eval,
        )

    def test_vacuum_bloch_within_ten_tol_of_analytic(self):
        rates = VACUUM
        tol = 1e-10
        t_eval = np.linspace(0.0, 2.0, 21)
        sol = integrate_ode(
            lambda t, y: bloch_rhs(y, rates),
            [0.7, -0.1, 0.0],
            (0.0, 2.0),
            tol=tol,
            t_eval=t_eval,
        )
        lam_t = 0.5 * rates.gamma
        exact = np.column_stack(
            [
                0.7 * np.exp(-lam_t * t_eval),
                -0.1 * np.exp(-lam_t * t_eval),
                1.0 - np.exp(-rates.gamma * t_eval),
            ]
        )
        assert np.abs(sol.y - exact).max() <= 10.0 * tol

    def test_axis_decays_match_timescales(self):
        ts = axis_timescales(SQUEEZED_RATES)
        t_eval = np.linspace(0.0, 1.0, 11)
        for s0, tau, idx in [
            (BlochState(1.0, 0.0, 0.0), ts.Tx, 0),
            (BlochState(0.0, 1.0, 0.0), ts.Ty, 1),
        ]:
            sol = self._integrate(SQUEEZED_RATES, s0, t_eval)
            expected = np.exp(-t_eval / tau)
            assert np.abs(sol.y[:, idx] - expected).max() <= 1e-6

    def test_z_relaxation_rate(self):
        ts = axis_timescales(SQUEEZED_RATES)
        sz_ss = steady_state(SQUEEZED_RATES).sz
        t_eval = np.linspace(0.0, 1.0, 11)
        for sz0 in (-1.0, 1.0):
            sol = self._integrate(SQUEEZED_RATES, BlochState(0.0, 0.0, sz0), t_eval)
            expected = sz_ss + (sz0 - sz_ss) * np.exp(-t_eval / ts.Tz)
            assert np.abs(sol.y[:, 2] - expected).max() <= 1e-6

    def test_convergence_to_steady_state(self):
        rates = SQUEEZED_RATES
        ts = axis_timescales(rates)
        horizon = 20.0 * max(ts.Tx, ts.Ty, ts.Tz)
        sol = self._integrate(
            rates, BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi), [horizon]
        )
        target = steady_state(rates).as_array()
        assert np.abs(sol.y[-1] - target).max() <= 1e-6

    def test_driven_trajectory_reaches_driven_steady_state(self):
        omega = np.array([2.0 * math.pi * 0.01, 0.0, 0.0])
        sol = integrate_ode(
            lambda t, y: bloch_rhs(y, SQUEEZED_RATES, omega),
            BlochState(0.0, 0.0, 1.0).as_array(),
            (0.0, 25.0),
            tol=1e-10,
            t_eval=[25.0],
        )
        target = steady_state(SQUEEZED_RATES, drive=omega)
        assert sol.y[-1] == pytest.approx(target.as_array(), abs=1e-6)

    @given(
        rates_strategy(),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=20, deadline=None)
    def test_bloch_ball_contraction(self, rates, theta, phi):
        s0 = BlochState.from_angles(theta, phi)
        sol = self._integrate(rates, s0, np.linspace(0.0, 2.0, 9), tol=1e-9)
        norms = np.linalg.norm(sol.y, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)
