import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch.blochdyn import (
    BlochState,
    DecayRates,
    axis_timescales,
    frame_rotation,
    polarization_propagator,
    steady_state,
    transverse_propagator_xy,
)
from sqbloch.errors import DegenerateFitError
from sqbloch.estimation import fit_damped_sinusoid, fit_exp
from sqbloch.protocols import (
    Pulse,
    PulseSequence,
    apply_rotation,
    detuning_sweep,
    detuning_sweep_to_csv,
    gain_sweep,
    gain_sweep_to_csv,
    ramsey,
    read_component,
    run_sequence,
    tomography_trajectory,
)
from sqbloch.reservoir import ideal_M

SQUEEZED = DecayRates.from_times(T1=0.65, T_phi=6.6, N=0.88, M=1.08)
VACUUM_RATES = DecayRates.from_times(T1=0.65, T_phi=6.6)
GROUND = BlochState(0.0, 0.0, 1.0)
# Detuning regimes of the closed-form propagator.  gamma_M = pi * 0.5 and
# 2 pi delta = 2 pi * 0.25 are the same double, so CRITICAL has kappa = 0.
CRITICAL = DecayRates(gamma=math.pi, gamma_phi=0.15, N=0.6, M_abs=0.5, delta=0.25)
REGIMES = {
    "resonant": SQUEEZED,
    "overdamped": replace(SQUEEZED, delta=0.1),
    "critical": CRITICAL,
    "underdamped": replace(SQUEEZED, delta=1.3),
    "negative": replace(SQUEEZED, delta=-0.7),
}

states = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
).map(lambda a: BlochState.from_angles(*a))

angles = st.floats(min_value=1e-3, max_value=2.0 * math.pi)
azimuths = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestApplyRotation:
    def test_two_half_turns_are_identity(self):
        s = BlochState.from_angles(1.1, 0.4)
        out = apply_rotation(apply_rotation(s, math.pi, 0.7), math.pi, 0.7)
        assert out.as_array() == pytest.approx(s.as_array(), abs=1e-12)

    def test_quarter_turn_about_x(self):
        out = apply_rotation(GROUND, 0.5 * math.pi, 0.0)
        assert out.as_array() == pytest.approx([0.0, -1.0, 0.0], abs=1e-12)

    def test_prep_from_ground(self):
        # theta rotation about the azimuth phi + pi/2 axis prepares |theta, phi>.
        theta, phi = 0.67 * math.pi, 0.83 * math.pi
        out = apply_rotation(GROUND, theta, phi + 0.5 * math.pi)
        expected = BlochState.from_angles(theta, phi)
        assert out.as_array() == pytest.approx(expected.as_array(), abs=1e-12)
        assert out.sz == pytest.approx(-0.5090, abs=1e-4)

    @given(states, angles, azimuths)
    @settings(max_examples=100)
    def test_norm_preserved(self, s, angle, azimuth):
        out = apply_rotation(s, angle, azimuth)
        assert out.purity() == pytest.approx(s.purity(), abs=1e-12)


class TestReadComponent:
    @given(states)
    @settings(max_examples=100)
    def test_rotation_readout_equals_direct(self, s):
        assert read_component(s, "x") == pytest.approx(s.sx, abs=1e-12)
        assert read_component(s, "y") == pytest.approx(s.sy, abs=1e-12)
        assert read_component(s, "z") == s.sz

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            read_component(GROUND, "w")


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            PulseSequence(
                pulses=(Pulse(1.0, 0.0, 1.0), Pulse(1.0, 0.0, 0.5)),
            )
        with pytest.raises(ValueError, match="angle"):
            Pulse(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="angle"):
            Pulse(7.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="basis"):
            PulseSequence(pulses=(), measurement_basis="q")

    def test_measurement_basis_readout(self):
        # Prep then read through the rotation bookkeeping for each basis.
        prep = Pulse(0.67 * math.pi, 0.83 * math.pi + 0.5 * math.pi, 0.0)
        expected = BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi)
        for basis, value in (
            ("x", expected.sx),
            ("y", expected.sy),
            ("z", expected.sz),
        ):
            seq = PulseSequence(pulses=(prep,), measurement_basis=basis)
            got = run_sequence(seq, DecayRates(gamma=0.0))
            assert got == pytest.approx(value, abs=1e-12)

    def test_window_splitting_matches_manual_composition(self):
        # Squeezing only in [0.2, 0.6] of a 1 us evolution.
        seq = PulseSequence(
            pulses=(
                Pulse(0.5 * math.pi, 0.5 * math.pi, 0.0),
                Pulse(0.5 * math.pi, -0.5 * math.pi - 2.0 * math.pi * 5.0 * 1.0, 1.0),
            ),
            squeezing_window=(0.2, 0.6),
        )
        got = run_sequence(seq, SQUEEZED)

        from sqbloch.protocols import _evolve_lab

        vacuum = replace(SQUEEZED, N=0.0, M_abs=0.0)
        s = apply_rotation(GROUND, 0.5 * math.pi, 0.5 * math.pi)
        s = _evolve_lab(s, vacuum, 0.0, 0.2)
        s = _evolve_lab(s, SQUEEZED, 0.2, 0.6)
        s = _evolve_lab(s, vacuum, 0.6, 1.0)
        s = apply_rotation(s, 0.5 * math.pi, -0.5 * math.pi - 2.0 * math.pi * 5.0)
        assert got == pytest.approx(s.sz, abs=1e-12)


class TestRamsey:
    def test_vacuum_trace_closed_form(self):
        t = np.linspace(0.0, 5.0, 101)
        tr = ramsey(VACUUM_RATES, 0.3, 5.0, t, squeezing_on=False)
        lam = 1.0 / axis_timescales(VACUUM_RATES).Tx
        w = 2.0 * math.pi * 5.0
        expected = -np.exp(-lam * t) * np.sin(w * t - 0.3)
        assert np.abs(tr.sz_values - expected).max() <= 1e-12

    def test_vacuum_uniform_t2_star(self):
        t = np.linspace(0.0, 5.0, 201)
        fits = [
            fit_damped_sinusoid(
                t, ramsey(VACUUM_RATES, phi, 5.0, t, squeezing_on=False).sz_values, 5.0
            )
            for phi in (0.0, 0.9, 0.5 * math.pi, math.pi)
        ]
        for f in fits:
            assert f.T == pytest.approx(1.086, abs=2e-3)

    def test_squeezed_axis_envelopes(self):
        ts = axis_timescales(SQUEEZED)
        t_long = np.linspace(0.0, 5.0, 201)
        fx = fit_damped_sinusoid(
            t_long, ramsey(SQUEEZED, 0.5 * math.pi, 5.0, t_long).sz_values, 5.0
        )
        assert fx.T == pytest.approx(ts.Tx, rel=1e-8)
        t_short = np.linspace(0.0, 1.5, 201)
        fy = fit_damped_sinusoid(
            t_short, ramsey(SQUEEZED, math.pi, 5.0, t_short).sz_values, 5.0
        )
        assert fy.T == pytest.approx(ts.Ty, rel=1e-8)

    def test_zero_rates_undamped_unit_sinusoid(self):
        rates = DecayRates(gamma=0.0)
        t = np.linspace(0.0, 2.0, 101)
        tr = ramsey(rates, 0.7, 5.0, t)
        w = 2.0 * math.pi * 5.0
        expected = -np.sin(w * t - 0.7)
        assert np.abs(tr.sz_values - expected).max() <= 1e-12

    def test_phase_mirror(self):
        t = np.linspace(0.0, 3.0, 64)
        a = ramsey(SQUEEZED, 0.4, 5.0, t).sz_values
        b = ramsey(SQUEEZED, 0.4 + math.pi, 5.0, t).sz_values
        assert np.abs(a + b).max() <= 1e-12

    def test_csv(self):
        t = np.linspace(0.0, 1.0, 9)
        text = ramsey(SQUEEZED, 0.0, 5.0, t).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "#schema=ramsey-trace-v1"
        assert lines[1] == "t_us,sz"
        assert len(lines) == 11


def _ramsey_oracle(r, phi, omega_mod, t, squeezing_on):
    """The Ramsey sequence run pulse by pulse through ``run_sequence``."""
    out = []
    for tk in t:
        theta = 2.0 * math.pi * omega_mod * tk
        seq = PulseSequence(
            pulses=(
                Pulse(0.5 * math.pi, math.pi - phi, 0.0),
                Pulse(0.5 * math.pi, -0.5 * math.pi - theta, tk),
            ),
            squeezing_window=(0.0, tk) if squeezing_on else None,
        )
        out.append(run_sequence(seq, r))
    return np.array(out)


class TestClosedFormOracle:
    def test_critical_point_is_exact(self):
        assert CRITICAL.gamma_M == 2.0 * math.pi * CRITICAL.delta

    @pytest.mark.parametrize("squeezing_on", [True, False])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_ramsey_matches_run_sequence(self, regime, squeezing_on):
        r = REGIMES[regime]
        t = np.linspace(0.0, 3.0, 61)
        for phi in (0.0, 0.4, 0.5 * math.pi, math.pi, 4.0):
            got = ramsey(r, phi, 5.0, t, squeezing_on).sz_values
            expected = _ramsey_oracle(r, phi, 5.0, t, squeezing_on)
            assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_array_propagators_stack_scalar_calls(self, regime):
        r = REGIMES[regime]
        # Includes t = 0 and samples on the small-|kappa t| series branch.
        t = np.array([0.0, 1e-9, 3e-7, 0.01, 0.5, 2.0, 4.5])
        for f in (transverse_propagator_xy, frame_rotation, polarization_propagator):
            stack = f(r, t)
            assert stack.shape == (t.size, 2, 2)
            scalar = np.array([f(r, float(tk)) for tk in t])
            assert np.abs(stack - scalar).max() <= 1e-15
            assert f(r, 0.7).shape == (2, 2)
            assert f(r, t.reshape(7, 1)).shape == (7, 1, 2, 2)

    def test_rejects_negative_time_in_array(self):
        with pytest.raises(ValueError, match="nonnegative"):
            transverse_propagator_xy(SQUEEZED, np.array([0.0, -1e-3]))

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_tomography_matches_segment_evolution(self, regime):
        from sqbloch.protocols import _evolve_lab

        r = REGIMES[regime]
        s0 = BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi)
        t = np.linspace(0.0, 3.0, 31)
        traj = tomography_trajectory(r, (0.67 * math.pi, 0.83 * math.pi), t)
        for tk, s in zip(t, traj.states):
            expected = _evolve_lab(s0, r, 0.0, tk).as_array()
            assert np.abs(s.as_array() - expected).max() <= 1e-12


class TestTomography:
    def test_initial_state_exact(self):
        traj = tomography_trajectory(SQUEEZED, (0.67 * math.pi, 0.83 * math.pi), [0.0, 1.0])
        expected = BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi)
        assert traj.states[0].as_array() == pytest.approx(expected.as_array(), abs=1e-12)

    def test_vacuum_relaxation(self):
        rates = DecayRates.from_times(T1=0.65)
        t = np.linspace(0.0, 3.0, 31)
        traj = tomography_trajectory(rates, (math.pi, 0.0), t)
        sz = np.array([s.sz for s in traj.states])
        assert np.abs(sz - (1.0 - 2.0 * np.exp(-t / 0.65))).max() <= 1e-12

    def test_late_time_steady_state(self):
        traj = tomography_trajectory(SQUEEZED, (0.67 * math.pi, 0.83 * math.pi), [30.0])
        s = traj.states[-1]
        assert abs(s.sx) <= 1e-6
        assert abs(s.sy) <= 1e-6
        assert s.sz == pytest.approx(0.3623, abs=1e-4)

    def test_driven_trajectory_reaches_driven_steady_state(self):
        omega = np.array([2.0 * math.pi * 0.01, 0.0, 0.0])
        traj = tomography_trajectory(SQUEEZED, (0.0, 0.0), [25.0], drive=omega)
        target = steady_state(SQUEEZED, drive=omega)
        assert traj.states[-1].as_array() == pytest.approx(
            target.as_array(), abs=1e-6
        )

    def test_csv(self):
        traj = tomography_trajectory(SQUEEZED, (0.5, 0.5), np.linspace(0.0, 1.0, 5))
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "#schema=bloch-trajectory-v1"
        assert lines[1] == "t_us,sx,sy,sz"
        assert len(lines) == 7


class TestDetuningSweep:
    RADIATIVE = DecayRates.from_times(T1=0.65, N=0.88, M=1.08)

    def test_resonant_point_recovers_axis_times(self):
        ts = axis_timescales(self.RADIATIVE)
        tx = detuning_sweep(self.RADIATIVE, [0.0], 0.5 * math.pi, np.linspace(0, 6, 241))
        ty = detuning_sweep(self.RADIATIVE, [0.0], math.pi, np.linspace(0, 2.5, 241))
        assert tx[0].T_eff == pytest.approx(ts.Tx_tilde, rel=1e-8)
        assert ty[0].T_eff == pytest.approx(ts.Ty_tilde, rel=1e-8)

    def test_symmetric_in_detuning(self):
        pts = detuning_sweep(
            self.RADIATIVE, [-0.8, -0.2, 0.2, 0.8], 0.5 * math.pi, np.linspace(0, 6, 121)
        )
        by_delta = {p.delta: p.T_eff for p in pts}
        assert by_delta[0.2] == pytest.approx(by_delta[-0.2], rel=1e-7)
        assert by_delta[0.8] == pytest.approx(by_delta[-0.8], rel=1e-7)

    def test_no_decay_point_reported(self):
        rates = DecayRates(gamma=0.0)
        pts = detuning_sweep(rates, [0.0], 0.5 * math.pi, np.linspace(0, 2, 64))
        assert math.isinf(pts[0].T_eff)
        assert pts[0].message == "no decay"

    def test_points_carry_their_in_phase_trace(self):
        t = np.linspace(0.0, 3.0, 61)
        for p in detuning_sweep(SQUEEZED, [-0.4, 0.0, 0.9], math.pi, t):
            expected = ramsey(replace(SQUEEZED, delta=p.delta), math.pi, 5.0, t)
            assert np.array_equal(p.trace.sz_values, expected.sz_values)
            assert np.array_equal(p.trace.times, t)

    @pytest.mark.parametrize(
        "phi, delta", [(0.5 * math.pi, -0.9), (0.5 * math.pi, 0.7), (math.pi, -0.2)]
    )
    def test_converged_flag_stable_under_one_ulp(self, phi, delta):
        # Finite-detuning envelopes are not pure exponentials; the fit stops
        # at a numerical optimum whose gradient sits at the noise of the
        # central differences, so a strict gradient test flipped here.
        from sqbloch.protocols import _demodulated_envelope

        t = np.linspace(0.0, 5.0, 201)
        _, env = _demodulated_envelope(replace(SQUEEZED, delta=delta), phi, 5.0, t)
        nudged = env.copy()
        nudged[0] = np.nextafter(nudged[0], np.inf)
        a, b = fit_exp(t, env), fit_exp(t, nudged)
        assert a.converged and b.converged
        assert b.T == pytest.approx(a.T, rel=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_resonant_point_of_a_seeded_sweep_matches_closed_form(self, seed):
        # Direct rates drawn as the benchmark's sweep workload draws them,
        # on a 7-point grid whose middle point is exactly zero.
        rng = np.random.default_rng([seed, 20261018])
        n = rng.uniform(0.3, 1.5)
        rates = DecayRates.from_times(
            T1=rng.uniform(0.4, 0.9),
            T_phi=rng.uniform(4.0, 10.0),
            N=n,
            M=rng.uniform(0.5, 1.0) * ideal_M(n),
        )
        deltas = rng.uniform(1.0, 2.5) * np.array([-1.0, -2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3, 1.0])
        t = np.linspace(0.0, 5.0, 201)
        ts = axis_timescales(rates)
        for phi, expected in ((0.5 * math.pi, ts.Tx), (math.pi, ts.Ty)):
            pts = detuning_sweep(rates, deltas, phi, t)
            assert [p.delta for p in pts] == list(deltas)
            assert pts[3].converged and pts[3].message == ""
            assert pts[3].T_eff == pytest.approx(expected, rel=1e-6)

    def test_failing_point_keeps_its_place_and_message(self, monkeypatch):
        # One point's envelope is scaled past an amplitude at which the model
        # turns non-finite, so its fit fails; every point must come back, in
        # grid order, as fitting each envelope on its own reports it.
        from sqbloch import estimation, protocols

        model = estimation._exp_model
        monkeypatch.setattr(
            estimation,
            "_exp_model",
            lambda t, p: np.where(p[..., 0, None] > 50.0, np.nan, model(t, p)),
        )
        envelope = protocols._demodulated_envelope

        def scaled(r, phi, omega_mod, t):
            trace, env = envelope(r, phi, omega_mod, t)
            return trace, env * (1000.0 if r.delta == 0.3 else 1.0)

        monkeypatch.setattr(protocols, "_demodulated_envelope", scaled)
        deltas = [-0.9, 0.3, 0.0, 1.4, 0.6]
        t = np.linspace(0.0, 5.0, 201)
        pts = detuning_sweep(SQUEEZED, deltas, 0.5 * math.pi, t)
        assert [p.delta for p in pts] == deltas
        for p in pts:
            _, env = scaled(replace(SQUEEZED, delta=p.delta), 0.5 * math.pi, 5.0, t)
            try:
                fit = fit_exp(t, env)
            except DegenerateFitError as exc:
                assert math.isnan(p.T_eff) and not p.converged
                assert p.message == str(exc) == "model returned non-finite residuals"
                assert p.delta == 0.3
            else:
                assert (p.T_eff, p.converged, p.message) == (fit.T, True, "")

    def test_csv(self):
        pts = detuning_sweep(self.RADIATIVE, [0.0, 0.5], 0.5 * math.pi, np.linspace(0, 4, 81))
        lines = detuning_sweep_to_csv(pts).strip().split("\n")
        assert lines[0] == "#schema=detuning-sweep-v1"
        assert len(lines) == 4


class TestGainSweep:
    def test_vacuum_point(self):
        pt = gain_sweep([0.0], 0.5, 0.65, 6.6)[0]
        assert pt.M == 0.0
        assert pt.Tx == pytest.approx(1.086, abs=1e-3)
        assert pt.Ty == pytest.approx(pt.Tx)
        assert pt.Tz == pytest.approx(0.65)

    def test_reference_point_half_transmission(self):
        from sqbloch.estimation import subtract_dephasing

        pt = gain_sweep([0.88], 0.5, 0.65, 6.6)[0]
        assert pt.M_minus_N == pytest.approx(0.222, abs=1e-3)
        assert subtract_dephasing(pt.Tx, 6.6) == pytest.approx(0.65 / 0.278, abs=2e-3)

    def test_unit_transmission_is_minimum_uncertainty_line(self):
        pts = gain_sweep([0.3, 1.0, 2.5], 1.0, 0.65, 6.6)
        for pt in pts:
            assert pt.M == pytest.approx(ideal_M(pt.N), rel=1e-12)

    def test_csv(self):
        lines = gain_sweep_to_csv(gain_sweep([0.0, 1.0], 0.5, 0.65, 6.6)).strip().split("\n")
        assert lines[0] == "#schema=gain-sweep-v1"
        assert lines[1].startswith("N,M,Tx_us")
        assert len(lines) == 4
