import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch._table import csv_blocks
from sqbloch.blochdyn import (
    BlochState,
    DecayRates,
    axis_timescales,
    frame_rotation,
    polarization_propagator,
    transverse_propagator_xy,
)
from sqbloch.errors import DegenerateFitError
from sqbloch.estimation import fit_damped_sinusoid, fit_exp
from sqbloch.protocols import (
    Pulse,
    PulseSequence,
    apply_rotation,
    detuning_sweep,
    gain_sweep,
    ramsey,
    read_component,
    run_sequence,
    tomography_trajectory,
)
from sqbloch.reservoir import eta_curve, ideal_M

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
        norm_sq = (out.as_array() ** 2).sum()
        assert norm_sq == pytest.approx((s.as_array() ** 2).sum(), abs=1e-12)


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
        tr = ramsey(VACUUM_RATES, 0.3, 5.0, t)
        lam = 1.0 / axis_timescales(VACUUM_RATES).Tx
        w = 2.0 * math.pi * 5.0
        expected = -np.exp(-lam * t) * np.sin(w * t - 0.3)
        assert np.abs(tr - expected).max() <= 1e-12

    def test_vacuum_uniform_t2_star(self):
        t = np.linspace(0.0, 5.0, 201)
        fits = [
            fit_damped_sinusoid(t, ramsey(VACUUM_RATES, phi, 5.0, t), 5.0)
            for phi in (0.0, 0.9, 0.5 * math.pi, math.pi)
        ]
        for f in fits:
            assert f.T == pytest.approx(1.086, abs=2e-3)

    def test_squeezed_axis_envelopes(self):
        ts = axis_timescales(SQUEEZED)
        t_long = np.linspace(0.0, 5.0, 201)
        fx = fit_damped_sinusoid(
            t_long, ramsey(SQUEEZED, 0.5 * math.pi, 5.0, t_long), 5.0
        )
        assert fx.T == pytest.approx(ts.Tx, rel=1e-8)
        t_short = np.linspace(0.0, 1.5, 201)
        fy = fit_damped_sinusoid(
            t_short, ramsey(SQUEEZED, math.pi, 5.0, t_short), 5.0
        )
        assert fy.T == pytest.approx(ts.Ty, rel=1e-8)

    def test_zero_rates_undamped_unit_sinusoid(self):
        rates = DecayRates(gamma=0.0)
        t = np.linspace(0.0, 2.0, 101)
        tr = ramsey(rates, 0.7, 5.0, t)
        w = 2.0 * math.pi * 5.0
        expected = -np.sin(w * t - 0.7)
        assert np.abs(tr - expected).max() <= 1e-12

    def test_phase_mirror(self):
        t = np.linspace(0.0, 3.0, 64)
        a = ramsey(SQUEEZED, 0.4, 5.0, t)
        b = ramsey(SQUEEZED, 0.4 + math.pi, 5.0, t)
        assert np.abs(a + b).max() <= 1e-12

    def test_csv(self):
        t = np.linspace(0.0, 1.0, 9)
        text = "".join(csv_blocks("ramsey-trace-v1", "t_us,sz", t, ramsey(SQUEEZED, 0.0, 5.0, t)))
        lines = text.strip().split("\n")
        assert lines[0] == "#schema=ramsey-trace-v1"
        assert lines[1] == "t_us,sz"
        assert len(lines) == 11

    @pytest.mark.parametrize("t", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
    def test_rejects_non_increasing_times(self, t):
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            ramsey(SQUEEZED, 0.4, 5.0, t)

    def test_rejects_growing_fringe(self):
        # |M| > sqrt(N(N+1)) makes the x quadrature grow past the Bloch ball.
        with pytest.warns(UserWarning, match="violate"):
            growing = DecayRates(gamma=1.0, N=0.0, M_abs=1.0)
        with pytest.raises(ValueError, match=r"\|<sz>\| must not exceed 1"):
            ramsey(growing, 0.5 * math.pi, 5.0, np.linspace(0.0, 5.0, 201))


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
        r_ramsey = r if squeezing_on else replace(r, N=0.0, M_abs=0.0)
        t = np.linspace(0.0, 3.0, 61)
        for phi in (0.0, 0.4, 0.5 * math.pi, math.pi, 4.0):
            got = ramsey(r_ramsey, phi, 5.0, t)
            expected = _ramsey_oracle(r, phi, 5.0, t, squeezing_on)
            assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_array_propagators_stack_scalar_calls(self, regime):
        r = REGIMES[regime]
        # Includes t = 0 and samples where |kappa t| is tiny.
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
        for tk, s in zip(t, traj):
            expected = _evolve_lab(s0, r, 0.0, tk).as_array()
            assert np.abs(s - expected).max() <= 1e-12


class TestTomography:
    def test_initial_state_exact(self):
        traj = tomography_trajectory(SQUEEZED, (0.67 * math.pi, 0.83 * math.pi), [0.0, 1.0])
        expected = BlochState.from_angles(0.67 * math.pi, 0.83 * math.pi)
        assert traj[0] == pytest.approx(expected.as_array(), abs=1e-12)

    def test_vacuum_relaxation(self):
        rates = DecayRates.from_times(T1=0.65)
        t = np.linspace(0.0, 3.0, 31)
        traj = tomography_trajectory(rates, (math.pi, 0.0), t)
        sz = traj[:, 2]
        assert np.abs(sz - (1.0 - 2.0 * np.exp(-t / 0.65))).max() <= 1e-12

    def test_late_time_steady_state(self):
        traj = tomography_trajectory(SQUEEZED, (0.67 * math.pi, 0.83 * math.pi), [30.0])
        sx, sy, sz = traj[-1]
        assert abs(sx) <= 1e-6
        assert abs(sy) <= 1e-6
        assert sz == pytest.approx(0.3623, abs=1e-4)

    def test_csv(self):
        t = np.linspace(0.0, 1.0, 5)
        traj = tomography_trajectory(SQUEEZED, (0.5, 0.5), t)
        text = "".join(csv_blocks("bloch-trajectory-v1", "t_us,sx,sy,sz", t, traj))
        lines = text.strip().split("\n")
        assert lines[0] == "#schema=bloch-trajectory-v1"
        assert lines[1] == "t_us,sx,sy,sz"
        assert len(lines) == 7

    def test_rejects_state_outside_bloch_ball(self):
        with pytest.warns(UserWarning, match="violate"):
            growing = DecayRates(gamma=1.0, N=0.0, M_abs=1.0)
        with pytest.raises(ValueError, match=r"Bloch vector norm\^2 = .* exceeds 1"):
            tomography_trajectory(growing, (0.5 * math.pi, 0.0), np.linspace(0.0, 5.0, 201))


def _point_envelope(r, phi, omega_mod, t):
    """One sweep point's demodulated envelope, computed on its own from the
    point's propagators (the route ``detuning_sweep`` took before it shared
    one propagator grid)."""
    s0 = np.array([math.sin(phi), math.cos(phi)])
    x, y = (frame_rotation(r, t) @ transverse_propagator_xy(r, t) @ s0).T
    iq = np.exp(2j * math.pi * omega_mod * t) * (x + 1j * y)
    omega_rel = 2.0 * math.pi * (omega_mod - r.delta)
    return np.abs(iq * np.exp(-1j * omega_rel * t))


def _scaled_row_stack(row, factor):
    """``fit_exp`` with one row of the envelope stack scaled."""
    from sqbloch.estimation import fit_exp

    def stack(t, y):
        y = y.copy()
        y[row] *= factor
        return fit_exp(t, y)

    return stack


class TestDetuningSweep:
    RADIATIVE = DecayRates.from_times(T1=0.65, N=0.88, M=1.08)

    def test_resonant_point_recovers_axis_times(self):
        ts = axis_timescales(self.RADIATIVE)
        _, tx, _ = detuning_sweep(self.RADIATIVE, [0.0], [0.5 * math.pi], np.linspace(0, 6, 241))
        _, ty, _ = detuning_sweep(self.RADIATIVE, [0.0], [math.pi], np.linspace(0, 2.5, 241))
        assert tx[0, 0] == pytest.approx(ts.Tx_tilde, rel=1e-8)
        assert ty[0, 0] == pytest.approx(ts.Ty_tilde, rel=1e-8)

    def test_symmetric_in_detuning(self):
        deltas = [-0.8, -0.2, 0.2, 0.8]
        _, (T_eff,), _ = detuning_sweep(
            self.RADIATIVE, deltas, [0.5 * math.pi], np.linspace(0, 6, 121)
        )
        by_delta = dict(zip(deltas, T_eff))
        assert by_delta[0.2] == pytest.approx(by_delta[-0.2], rel=1e-7)
        assert by_delta[0.8] == pytest.approx(by_delta[-0.8], rel=1e-7)

    def test_no_decay_point_reported(self):
        rates = DecayRates(gamma=0.0)
        _, T_eff, converged = detuning_sweep(
            rates, [0.0], [0.5 * math.pi], np.linspace(0, 2, 64)
        )
        assert math.isinf(T_eff[0, 0])
        assert converged[0, 0]

    def test_rejects_non_increasing_times(self):
        t = np.array([0.0, 2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            detuning_sweep(SQUEEZED, [0.0, 0.5], [0.5 * math.pi, math.pi], t)

    def test_points_carry_their_in_phase_trace(self):
        t = np.linspace(0.0, 3.0, 61)
        deltas = [-0.4, 0.0, 0.9]
        (traces,), _, _ = detuning_sweep(SQUEEZED, deltas, [math.pi], t)
        assert traces.shape == (len(deltas),) + t.shape
        for delta, trace in zip(deltas, traces):
            expected = ramsey(replace(SQUEEZED, delta=delta), math.pi, 5.0, t)
            assert np.array_equal(trace, expected)

    @pytest.mark.parametrize(
        "phi, delta", [(0.5 * math.pi, -0.9), (0.5 * math.pi, 0.7), (math.pi, -0.2)]
    )
    def test_converged_flag_stable_under_one_ulp(self, phi, delta):
        # Finite-detuning envelopes are not pure exponentials; the fit stops
        # at a numerical optimum whose gradient sits at the noise of the
        # central differences, so a strict gradient test flipped here.
        t = np.linspace(0.0, 5.0, 201)
        env = _point_envelope(replace(SQUEEZED, delta=delta), phi, 5.0, t)
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
        _, T_eff, converged = detuning_sweep(rates, deltas, [0.5 * math.pi, math.pi], t)
        assert T_eff.shape == converged.shape == (2, len(deltas))
        for T_row, conv_row, expected in zip(T_eff, converged, (ts.Tx, ts.Ty), strict=True):
            assert conv_row[3]
            assert T_row[3] == pytest.approx(expected, rel=1e-6)

    def test_failing_point_keeps_its_place(self, monkeypatch):
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
        deltas = [-0.9, 0.3, 0.0, 1.4, 0.6]
        monkeypatch.setattr(protocols, "fit_exp", _scaled_row_stack(1, 1000.0))
        t = np.linspace(0.0, 5.0, 201)
        _, (T_eff,), (converged,) = detuning_sweep(SQUEEZED, deltas, [0.5 * math.pi], t)
        assert T_eff.shape == converged.shape == (len(deltas),)
        for delta, T, conv in zip(deltas, T_eff.tolist(), converged.tolist()):
            env = _point_envelope(replace(SQUEEZED, delta=delta), 0.5 * math.pi, 5.0, t)
            try:
                fit = fit_exp(t, env * (1000.0 if delta == 0.3 else 1.0))
            except DegenerateFitError as exc:
                assert math.isnan(T) and not conv
                assert str(exc) == "model returned non-finite residuals"
                assert delta == 0.3
            else:
                assert (T, conv) == (fit.T, True)

    def test_csv(self):
        deltas = [0.0, 0.5]
        _, (T_eff,), (converged,) = detuning_sweep(
            self.RADIATIVE, deltas, [0.5 * math.pi], np.linspace(0, 4, 81)
        )
        text = "".join(csv_blocks(
            "detuning-sweep-v1", "delta_mhz,T_eff_us,converged", deltas, T_eff, converged
        ))
        lines = text.strip().split("\n")
        assert lines[0] == "#schema=detuning-sweep-v1"
        assert len(lines) == 4


class TestDetuningSweepGrid:
    """One call computes every (phase, detuning) point on one propagator grid;
    each point must be what it was when computed on its own."""

    # On CRITICAL's rates delta = 0.25 is the exact kappa = 0 point (the
    # linear limit); |delta| below it is overdamped and above it underdamped.
    DELTAS = [0.0, 0.1, 0.25, -0.25, -0.18, 1.3, -0.7]
    PHIS = [0.5 * math.pi, math.pi, 0.3]

    @pytest.mark.parametrize("omega_mod", [5.0, 3.0])
    def test_every_point_matches_its_own_computation(self, omega_mod):
        t = np.linspace(0.0, 4.0, 161)
        traces, T_eff, converged = detuning_sweep(
            CRITICAL, self.DELTAS, self.PHIS, t, omega_mod=omega_mod
        )
        shape = (len(self.PHIS), len(self.DELTAS))
        assert traces.shape == shape + t.shape
        assert T_eff.shape == converged.shape == shape
        for i, phi in enumerate(self.PHIS):
            for j, delta in enumerate(self.DELTAS):
                r = replace(CRITICAL, delta=delta)
                assert traces[i, j].tobytes() == ramsey(r, phi, omega_mod, t).tobytes()
                fit = fit_exp(t, _point_envelope(r, phi, omega_mod, t))
                assert (T_eff[i, j], converged[i, j]) == (fit.T, fit.converged)

    def test_failing_row_leaves_the_others_unchanged(self, monkeypatch):
        from sqbloch import estimation, protocols

        model = estimation._exp_model
        monkeypatch.setattr(
            estimation,
            "_exp_model",
            lambda t, p: np.where(p[..., 0, None] > 50.0, np.nan, model(t, p)),
        )
        t = np.linspace(0.0, 4.0, 161)
        traces, T_eff, converged = detuning_sweep(CRITICAL, self.DELTAS, self.PHIS, t)
        # Row 9 of the (phase, detuning) stack: the second phase, third detuning.
        monkeypatch.setattr(protocols, "fit_exp", _scaled_row_stack(9, 1000.0))
        f_traces, f_T_eff, f_converged = detuning_sweep(CRITICAL, self.DELTAS, self.PHIS, t)
        assert f_traces.tobytes() == traces.tobytes()
        assert math.isnan(f_T_eff[1, 2]) and not f_converged[1, 2]
        others = np.ones(T_eff.shape, dtype=bool)
        others[1, 2] = False
        assert f_T_eff[others].tobytes() == T_eff[others].tobytes()
        assert np.array_equal(f_converged[others], converged[others])

    def test_empty_deltas_or_phases(self):
        t = np.linspace(0.0, 4.0, 41)
        for deltas, phis in (([], self.PHIS), (self.DELTAS, []), ([], [])):
            traces, T_eff, converged = detuning_sweep(CRITICAL, deltas, phis, t)
            assert traces.shape == (len(phis), len(deltas), t.size)
            assert T_eff.shape == converged.shape == (len(phis), len(deltas))
            assert converged.dtype == bool

    def test_rejects_growing_fringe(self):
        with pytest.warns(UserWarning, match="violate"):
            growing = DecayRates(gamma=1.0, N=0.0, M_abs=1.0)
        with pytest.raises(ValueError, match=r"\|<sz>\| must not exceed 1"):
            detuning_sweep(growing, [0.0, 0.3], self.PHIS, np.linspace(0.0, 5.0, 201))

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError, match="propagation time must be nonnegative"):
            detuning_sweep(CRITICAL, self.DELTAS, self.PHIS, np.array([-0.1, 0.0, 0.5, 1.0]))


class TestGainSweep:
    def test_vacuum_point(self):
        N, M, Tx, Ty, Tz, _ = gain_sweep([0.0], 0.5, 0.65, 6.6)[0]
        assert M == 0.0
        assert Tx == pytest.approx(1.086, abs=1e-3)
        assert Ty == pytest.approx(Tx)
        assert Tz == pytest.approx(0.65)

    def test_reference_point_half_transmission(self):
        from sqbloch.estimation import subtract_dephasing

        N, M, Tx, Ty, Tz, M_minus_N = gain_sweep([0.88], 0.5, 0.65, 6.6)[0]
        assert M_minus_N == pytest.approx(0.222, abs=1e-3)
        assert subtract_dephasing(Tx, 6.6) == pytest.approx(0.65 / 0.278, abs=2e-3)

    def test_unit_transmission_is_minimum_uncertainty_line(self):
        rows = gain_sweep([0.3, 1.0, 2.5], 1.0, 0.65, 6.6)
        assert rows.shape == (3, 6)
        for N, M in rows[:, :2]:
            assert M == pytest.approx(ideal_M(N), rel=1e-12)

    def test_columns_are_the_closed_form_timescales(self):
        n_values = [0.0, 0.4, 1.7]
        rows = gain_sweep(n_values, 0.5, 0.65, 6.6)
        for row, n in zip(rows, n_values):
            m = n + eta_curve(n, 0.5)
            ts = axis_timescales(DecayRates.from_times(T1=0.65, T_phi=6.6, N=n, M=m))
            assert row.tolist() == [n, m, ts.Tx, ts.Ty, ts.Tz, m - n]
        assert gain_sweep([], 0.5, 0.65, 6.6).shape == (0, 6)

    def test_csv(self):
        rows = gain_sweep([0.0, 1.0], 0.5, 0.65, 6.6)
        header = "N,M,Tx_us,Ty_us,Tz_us,M_minus_N"
        lines = "".join(csv_blocks("gain-sweep-v1", header, rows)).strip().split("\n")
        assert lines[0] == "#schema=gain-sweep-v1"
        assert lines[1].startswith("N,M,Tx_us")
        assert len(lines) == 4
