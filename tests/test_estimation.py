import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch.blochdyn import DecayRates, axis_timescales
from sqbloch.cli import _json_text
from sqbloch.errors import (
    InconsistentInputsError,
    NotSqueezedError,
    UnphysicalRatesError,
)
from sqbloch.estimation import (
    MomentEstimate,
    estimate_moments,
    fit_damped_sinusoid,
    fit_exp,
    infer_eta,
    moments_from_decays,
    reconstruct_wigner,
    subtract_dephasing,
)
from sqbloch.protocols import ramsey, tomography_trajectory
from sqbloch.reservoir import eta_curve, ideal_M


class TestFitExp:
    def test_recovers_t2_star_trace(self):
        t = np.linspace(0.0, 5.0, 80)
        y = 0.8 * np.exp(-t / 1.086) + 0.1
        fit = fit_exp(t, y)
        assert fit.converged
        assert fit.T == pytest.approx(1.086, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.8, rel=1e-6)
        assert fit.offset == pytest.approx(0.1, rel=1e-5)

    def test_constant_trace_flags_no_decay(self):
        t = np.linspace(0.0, 5.0, 20)
        fit = fit_exp(t, np.full_like(t, 0.5))
        assert fit.no_decay
        assert math.isinf(fit.T)
        assert fit.offset == pytest.approx(0.5)

    def test_negative_amplitude_trace(self):
        t = np.linspace(0.0, 4.0, 50)
        y = -0.6 * np.exp(-t / 0.8) + 0.36
        fit = fit_exp(t, y)
        assert fit.T == pytest.approx(0.8, rel=1e-6)
        assert fit.amplitude == pytest.approx(-0.6, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="8 samples"):
            fit_exp([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])

    @given(
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-0.3, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, a, tau, c):
        t = np.linspace(0.0, 4.0 * tau, 64)
        fit = fit_exp(t, a * np.exp(-t / tau) + c)
        assert fit.T == pytest.approx(tau, rel=1e-6)


class TestFitDampedSinusoid:
    def test_ramsey_vacuum_phase_and_t2(self):
        rates = DecayRates.from_times(T1=0.65, T_phi=6.6)
        t = np.linspace(0.0, 5.0, 201)
        tr = ramsey(rates, 0.5 * math.pi, 5.0, t)
        fit = fit_damped_sinusoid(t, tr, 5.0)
        assert fit.T == pytest.approx(1.086, abs=1e-3)
        assert fit.phase == pytest.approx(0.5 * math.pi, abs=1e-6)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-6)

    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=-0.2, max_value=0.4),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, a, tau, phase, c):
        w = 2.0 * math.pi * 5.0
        t = np.linspace(0.0, 5.0, 256)
        y = a * np.exp(-t / tau) * np.sin(w * t + phase) + c
        fit = fit_damped_sinusoid(t, y, 5.0)
        assert fit.T == pytest.approx(tau, rel=1e-5)
        assert fit.amplitude == pytest.approx(a, rel=1e-5)
        assert math.cos(fit.phase) == pytest.approx(math.cos(phase), abs=1e-5)
        assert math.sin(fit.phase) == pytest.approx(math.sin(phase), abs=1e-5)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            fit_damped_sinusoid(np.linspace(0, 1, 16), np.zeros(16), 0.0)


@pytest.mark.parametrize("fit", [fit_exp, lambda t, y: fit_damped_sinusoid(t, y, 5.0)],
                         ids=["exp", "sinusoid"])
@pytest.mark.parametrize("name, bad", [("t", math.nan), ("t", math.inf), ("y", math.nan)])
def test_fitters_reject_non_finite_samples(fit, name, bad):
    # The last sample keeps t strictly increasing up to the bad value.
    t = np.linspace(0.0, 2.0, 40)
    y = np.exp(-t) * np.sin(2.0 * math.pi * 5.0 * t)
    {"t": t, "y": y}[name][-1] = bad
    with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
        fit(t, y)


class TestSubtractDephasing:
    def test_reference_values(self):
        assert subtract_dephasing(1.67, 6.6) == pytest.approx(2.236, abs=1e-3)
        assert subtract_dephasing(0.28, 6.6) == pytest.approx(0.292, abs=1e-3)

    def test_infinite_t_phi_identity(self):
        assert subtract_dephasing(1.5, math.inf) == 1.5

    def test_nonpositive_rate_error(self):
        with pytest.raises(UnphysicalRatesError):
            subtract_dephasing(6.6, 6.6)
        with pytest.raises(UnphysicalRatesError):
            subtract_dephasing(8.0, 6.6)

    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_inverse_of_rate_addition(self, t_tilde, t_phi):
        t_measured = 1.0 / (1.0 / t_tilde + 1.0 / t_phi)
        assert subtract_dephasing(t_measured, t_phi) == pytest.approx(
            t_tilde, rel=1e-12
        )


class TestMomentsFromDecays:
    def test_reference_inversion(self):
        ts = axis_timescales(DecayRates.from_times(T1=0.65, N=0.88, M=1.08))
        est = moments_from_decays(0.65, ts.Tz, ts.Tx_tilde)
        assert est.N == pytest.approx(0.88, rel=1e-12)
        assert est.M == pytest.approx(1.08, rel=1e-12)

    def test_vacuum(self):
        est = moments_from_decays(0.65, 0.65, 1.3)
        assert est.N == 0.0
        assert est.M == pytest.approx(0.0, abs=1e-15)
        assert est.eta_inferred is None

    def test_thermal_correction(self):
        # Vacuum-condition inputs at a thermal floor: the correction zeroes N
        # and reports the intrinsic T1.
        n_th = 0.019
        t1_int = 0.65 * (2.0 * n_th + 1.0)
        tz = t1_int / (2.0 * n_th + 1.0)
        tx_tilde = t1_int / (n_th + 0.5)
        est = moments_from_decays(0.65, tz, tx_tilde, N_th=n_th)
        assert est.N == pytest.approx(0.0, abs=1e-12)
        assert est.M == pytest.approx(0.0, abs=1e-12)
        assert est.N_uncorrected == pytest.approx(n_th, rel=1e-9)
        assert t1_int == pytest.approx(0.675, abs=1e-3)

    def test_inconsistent_inputs(self):
        with pytest.raises(InconsistentInputsError):
            moments_from_decays(0.65, 0.9, 1.3)

    def test_estimate_moments_composition(self):
        ts = axis_timescales(DecayRates.from_times(T1=0.65, T_phi=6.6, N=0.88, M=1.08))
        est = estimate_moments(0.65, 6.6, ts.Tx, ts.Tz)
        assert est.N == pytest.approx(0.88, rel=1e-10)
        assert est.M == pytest.approx(1.08, rel=1e-10)

    def test_json(self):
        # moments.json carries asdict(est) through the CLI's JSON encoding.
        est = moments_from_decays(0.65, 0.2355072, 2.1666667)
        payload = json.loads(_json_text("moments.json", asdict(est)))
        assert payload["N"] == pytest.approx(0.88, abs=1e-4)
        assert payload["eta_inferred"] == pytest.approx(0.445, abs=1e-2)


class TestInferEta:
    def test_reference_point(self):
        eta = infer_eta(0.88, 1.08)
        assert eta == pytest.approx(0.445, abs=1e-3)
        assert 0.40 <= eta <= 0.50

    def test_ideal_source(self):
        assert infer_eta(1.0, ideal_M(1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_errors(self):
        with pytest.raises(NotSqueezedError):
            infer_eta(1.0, 1.0)
        with pytest.raises(ValueError):
            infer_eta(0.0, 0.5)

    @given(
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_inverse_of_eta_curve(self, n, eta):
        m = n + eta_curve(n, eta)
        assert infer_eta(n, m) == pytest.approx(eta, rel=1e-10, abs=1e-12)


class TestReconstructWigner:
    def test_vacuum(self):
        grid = reconstruct_wigner(MomentEstimate(N=0.0, M=0.0), n_points=41)
        assert grid.values[20, 20] == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_reference_aspect_ratio(self):
        grid = reconstruct_wigner(MomentEstimate(N=0.88, M=1.08), n_points=81)
        # Half widths follow sqrt of the variances: ratio sqrt(4.92/0.60).
        ratio = grid.I_axis[-1] / grid.Q_axis[-1]
        assert ratio == pytest.approx(math.sqrt(4.92 / 0.60), rel=1e-12)
        assert ratio == pytest.approx(2.86, abs=5e-3)

    def test_normalization(self):
        grid = reconstruct_wigner(MomentEstimate(N=0.88, M=1.08), n_points=241)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_unphysical_estimate_rejected(self):
        with pytest.warns(UserWarning):
            bad = MomentEstimate(N=0.1, M=0.8)
        with pytest.raises(ValueError):
            reconstruct_wigner(bad)


class TestFullRoundTrip:
    """Forward simulation -> fits -> dephasing subtraction -> moments."""

    def _roundtrip(self, n, m, t1, t_phi):
        rates = DecayRates.from_times(T1=t1, T_phi=t_phi, N=n, M=m)
        ts = axis_timescales(rates)
        omega_mod = 5.0

        t_x = np.linspace(0.0, min(4.0 * ts.Tx, 20.0), 256)
        trace_x = ramsey(rates, 0.5 * math.pi, omega_mod, t_x)
        tx = fit_damped_sinusoid(t_x, trace_x, omega_mod).T

        t_z = np.linspace(0.0, 5.0 * ts.Tz, 128)
        traj = tomography_trajectory(rates, (math.pi, 0.0), t_z)
        tz = fit_exp(t_z, traj[:, 2]).T

        est = estimate_moments(t1, t_phi, tx, tz)
        return est

    def test_reference_point(self):
        est = self._roundtrip(0.88, 1.08, 0.65, 6.6)
        assert est.N == pytest.approx(0.88, rel=1e-3)
        assert est.M == pytest.approx(1.08, rel=1e-3)

    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=0.98),
    )
    @settings(max_examples=15, deadline=None)
    def test_randomized_recovery(self, n, m_frac):
        m = m_frac * ideal_M(n)
        est = self._roundtrip(n, m, 0.65, 6.6)
        assert est.N == pytest.approx(n, rel=1e-3, abs=1e-3)
        assert est.M == pytest.approx(m, rel=1e-3, abs=1e-3)
