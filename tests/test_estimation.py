import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch import estimation
from sqbloch.blochdyn import DecayRates, axis_timescales
from sqbloch.cli import _json_text, _rates, load_config
from sqbloch.errors import (
    DegenerateFitError,
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

    def test_constant_trace_has_no_decay(self):
        t = np.linspace(0.0, 5.0, 20)
        fit = fit_exp(t, np.full_like(t, 0.5))
        assert fit == estimation.DecayFit(0.0, math.inf, 0.5, 0.0, True)

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


def _fit_bytes(fit):
    """Every byte of a stacked fit's outcome: the error text, or each field."""
    if isinstance(fit, DegenerateFitError):
        return ("failed", str(fit))
    return tuple(float(v).hex() if isinstance(v, float) else v for v in asdict(fit).values())


def _edge_rows(t):
    """Rows that reach each branch of the stacked exponential guess, by name."""
    return {
        "decay": 0.8 * np.exp(-t / 1.1) + 0.1,
        "noisy decay": 0.8 * np.exp(-t / 1.1)
        + 0.1
        + 0.01 * np.random.default_rng(7).standard_normal(t.size),
        # Residual 0 everywhere, so a floor of 0 that no sample drops below.
        "flat": np.full(t.size, 0.25),
        # The first sample equals the offset: the amplitude comes from the
        # largest residual, and the window holds no sample of nonzero residual.
        "a0 zero": np.where((t > 0.0) & (t < 0.5), 0.25 + 0.5 * np.exp(-t), 0.25),
        # Exactly at the offset from the second sample on: a window of one
        # sample of nonzero residual.
        "one-sample window": np.where(t == 0.0, 0.7, 0.0),
        # Below the floor from the second sample on: the window ends with it.
        "two-sample window": np.exp(-t / 0.01),
        # Exact zeros after six decaying samples end the window.
        "zeros after the window": np.where(t < 0.7, 0.25 + 0.5 * np.exp(-t / 0.5), 0.25),
    }


def _reference_guess(t, y):
    """The early-window guess of one trace, written out sample by sample
    with ``np.polyfit`` for the slope."""
    k = max(2, t.size // 4)
    c = y[-k:].mean()
    resid = np.abs(y - c)
    floor = max(3.0 * y[-k:].std(), 1e-3 * resid.max())
    below = np.flatnonzero(resid < floor)
    end = below[0] + 1 if below.size else t.size
    window = [i for i in range(end) if resid[i] > 0.0]
    tau = t[-1] - t[0]
    if len(window) >= 2:
        slope = np.polyfit(t[window], np.log(resid[window]), 1)[0]
        if slope < 0.0:
            tau = -1.0 / slope
    a = y[0] - c
    if a == 0.0:
        a = np.sign(y[np.argmax(resid)] - c) * resid.max()
    return a, tau, c


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExpGuess:
    """The guess of :func:`fit_exp`, one array pass over a stack of rows."""

    t = np.linspace(0.0, 5.0, 41)

    def test_edge_rows_alone_match_the_stack(self):
        rows = _edge_rows(self.t)
        y = np.array(list(rows.values()))
        guesses = estimation._exp_guess(self.t, y)
        assert guesses.shape == (len(rows), 3)
        for b in range(len(y)):
            alone = estimation._exp_guess(self.t, y[b : b + 1])
            assert alone.tobytes() == guesses[b].tobytes(), b
        # Reversed, and within a larger stack of seeded noisy decays.
        rng = np.random.default_rng(11)
        noisy = (
            rng.uniform(0.2, 1.0, (30, 1)) * np.exp(-self.t / rng.uniform(0.1, 3.0, (30, 1)))
            + rng.uniform(-0.5, 0.5, (30, 1))
            + rng.uniform(0.0, 0.05, (30, 1)) * rng.standard_normal((30, self.t.size))
        )
        big = np.vstack([noisy[:13], y[::-1], noisy[13:]])
        big_guesses = estimation._exp_guess(self.t, big)
        assert big_guesses[13 : 13 + len(y)][::-1].tobytes() == guesses.tobytes()
        for b, row in enumerate(noisy):
            alone = estimation._exp_guess(self.t, row[None])
            assert alone.tobytes() == big_guesses[b if b < 13 else b + len(y)].tobytes()

    def test_matches_a_row_by_row_reference(self):
        rng = np.random.default_rng(12)
        y = np.vstack(
            [
                np.array(list(_edge_rows(self.t).values())),
                rng.uniform(0.2, 1.0, (40, 1)) * np.exp(-self.t / rng.uniform(0.1, 3.0, (40, 1)))
                + rng.uniform(0.0, 0.05, (40, 1)) * rng.standard_normal((40, self.t.size)),
            ]
        )
        guesses = estimation._exp_guess(self.t, y)
        for b, (row, got) in enumerate(zip(y, guesses)):
            assert got == pytest.approx(_reference_guess(self.t, row), rel=1e-9, abs=1e-15), b

    def test_edge_rows_fit_alone_as_in_the_stack(self):
        rows = _edge_rows(self.t)
        y = np.array(list(rows.values()))
        fits = fit_exp(self.t, y)
        for (name, row), fit in zip(rows.items(), fits):
            if isinstance(fit, DegenerateFitError):
                with pytest.raises(DegenerateFitError) as exc:
                    fit_exp(self.t, row)
                alone = exc.value
            else:
                alone = fit_exp(self.t, row)
            assert _fit_bytes(alone) == _fit_bytes(fit), name

    def test_overflowing_row_is_a_degenerate_fit(self):
        # The last quarter's sum overflows, so the guess's offset is inf:
        # fit_exp raises DegenerateFitError for the trace, and returns it
        # for that row of a stack and fits the others as alone.
        overflow = np.where(self.t < 3.0, 1.0, 1.7e308)
        with pytest.raises(DegenerateFitError, match="initial guess .* is not finite"):
            fit_exp(self.t, overflow)
        decay = 0.25 + 0.7 * np.exp(-self.t / 0.8)
        fits = fit_exp(self.t, np.array([decay, overflow, decay[::-1]]))
        assert isinstance(fits[1], DegenerateFitError)
        assert str(fits[1]) == "exponential fit: the initial guess (a, T, c) is not finite"
        assert _fit_bytes(fits[0]) == _fit_bytes(fit_exp(self.t, decay))
        assert _fit_bytes(fits[2]) == _fit_bytes(fit_exp(self.t, decay[::-1]))

    def test_edge_row_guesses(self):
        rows = _edge_rows(self.t)
        y = np.array(list(rows.values()))
        guesses = estimation._exp_guess(self.t, y)
        flat = [isinstance(fit, estimation.DecayFit) and fit.T == math.inf
                for fit in fit_exp(self.t, y)]
        got = {name: (tuple(g), f) for name, g, f in zip(rows, guesses.tolist(), flat)}
        span = 5.0
        assert got["flat"] == ((0.0, span, 0.25), True)
        # The offset is the mean of the last quarter, 10 of the 41 samples.
        assert got["decay"][0][2] == np.add.reduce(rows["decay"][-10:]) / 10
        # The largest residual, at the second sample, with its sign.
        assert got["a0 zero"][0] == (rows["a0 zero"][1] - 0.25, span, 0.25)
        assert got["one-sample window"][0] == (0.7, span, 0.0)
        # The sample that ends the window sets the slope with the first.
        assert got["two-sample window"][0][1] == pytest.approx(0.01, rel=1e-9)
        assert got["zeros after the window"][0][1] == pytest.approx(0.5, rel=1e-12)
        # A guess: the tail mean sits above the true offset of a trace this
        # short, which steepens the slope.
        assert got["decay"][0][1] == pytest.approx(1.1, rel=0.2)
        assert got["noisy decay"][0][1] == pytest.approx(1.1, rel=0.25)
        assert not any(f for name, (_, f) in got.items() if name != "flat")

    def test_overflowing_tail_never_drops_below_its_floor(self):
        # The tail mean overflows to inf, so every residual and the floor are
        # inf: the guess is made without a warning, with the sampled span,
        # alone as in a stack.
        row = np.where(self.t < 3.0, 1.0, 1.7e308)
        y = np.array([row, _edge_rows(self.t)["decay"]])
        guesses = estimation._exp_guess(self.t, y)
        alone = estimation._exp_guess(self.t, row[None])
        assert alone.tobytes() == guesses[0].tobytes()
        assert guesses[0, 1] == 5.0 and guesses[0, 2] == math.inf


def _probe_z_traces(seed):
    """The z traces of one seed of the benchmark's noisy ``inverse`` probe
    (``Inverse.generate_probe`` in ``perfbench/workloads.py``), rebuilt with
    numpy alone: 32 inputs, each drawing its shot count in [200, 5000], then
    T1, T_phi, n, m and n_th, then the binomial projection noise of the x
    trace and of the z trace, each value written to 9 significant digits.
    Yields the input index, t, z and the true 1/Gamma_z."""
    rng = np.random.default_rng([3, seed, 1])
    t = np.linspace(0.0, 5.0, 201)
    t_read = np.array([float(f"{v:.9g}") for v in t])
    for k in range(32):
        shots = int(rng.integers(200, 5000, endpoint=True))
        t1 = rng.uniform(0.5, 0.8)
        t_phi = rng.uniform(5.0, 10.0)
        n = rng.uniform(0.3, 1.2)
        m = rng.uniform(0.5, 1.0) * math.sqrt(n * (n + 1.0))
        n_th = rng.uniform(0.0, 0.03)
        gamma = 1.0 / (t1 * (2.0 * n_th + 1.0))
        n_bath = n + n_th
        tx = 1.0 / (gamma * (n_bath - m + 0.5) + 1.0 / t_phi)
        rz = gamma * (2.0 * n_bath + 1.0)
        sx = np.exp(-t / tx) * np.cos(2.0 * math.pi * 5.0 * t)
        sz = gamma / rz + (-1.0 - gamma / rz) * np.exp(-rz * t)
        noisy = []
        for trace in (sx, sz):
            p_excited = np.clip(0.5 * (1.0 - trace), 0.0, 1.0)
            noisy.append(1.0 - 2.0 * rng.binomial(shots, p_excited) / shots)
        yield k, t_read, np.array([float(f"{v:.9g}") for v in noisy[1]]), 1.0 / rz


# Fitted Tz over the true 1/Gamma_z on the 640 traces spans 0.948-1.064.
NOISY_TZ_BAND = (0.94, 1.07)


@pytest.mark.parametrize("seed", range(1, 21))
def test_noisy_z_traces_fit_a_positive_tz(seed):
    # The tail of these traces is projection noise; a guess fitted over it
    # once sent 7 of the 640 to Tz near -2e5 us, flagged converged.
    for k, t, z, tz in _probe_z_traces(seed):
        fit = fit_exp(t, z)
        assert math.isfinite(fit.T) and fit.T > 0.0, (seed, k, fit.T)
        assert NOISY_TZ_BAND[0] <= fit.T / tz <= NOISY_TZ_BAND[1], (seed, k, fit.T / tz)


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

    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_overflowing_trace_is_a_degenerate_fit(self, big):
        # The trace's mean overflows, so the guess's offset is not finite:
        # a DegenerateFitError naming the fit, with no numpy warning.
        t = np.linspace(0.0, 4.0, 160)
        y = np.where(t < 3.0, 1.0, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError) as exc:
                fit_damped_sinusoid(t, y, 5.0)
        assert str(exc.value) == (
            "damped-sinusoid fit: the initial guess (a, T, phase, c) is not finite"
        )


def _sine_rows(t):
    """Rows of a damped-sinusoid stack, by name: the Ramsey fringes of the
    bundled config's phases, squeezer off and on, seeded noisy copies of
    them, and rows that reach each way a row can fail."""
    cfg = load_config(None)
    on = _rates(cfg)
    off = replace(on, N=0.0, M_abs=0.0)
    rows = {
        f"{tag} phi = {phi_pi} pi": ramsey(rates, phi_pi * math.pi, cfg.omega_mod_mhz, t)
        for phi_pi in cfg.phi_grid_pi
        for rates, tag in ((off, "off"), (on, "on"))
    }
    rng = np.random.default_rng(31)
    for name in list(rows)[::3]:
        rows[f"noisy {name}"] = rows[name] + 0.02 * rng.standard_normal(t.size)
    fringe = rows["off phi = 0.5 pi"]
    rows |= {
        "flat": np.full(t.size, 0.25),
        # The mean overflows, so the guess is not finite.
        "guess overflows": np.where(t < 3.0, 1.0, 1.7e308),
        # Finite residuals whose squares sum past the float limit.
        "residuals overflow": 1e300 * np.exp(-t) * np.sin(2.0 * math.pi * 5.0 * t),
        # Picked out by their offset guess in _failing_sine: a model that is
        # non-finite at the guess, and a Jacobian whose sign is flipped.
        "non-finite model": fringe - 100.0,
        "no descent": fringe + 100.0,
    }
    return rows


def _failing_sine(monkeypatch):
    """Make the rows whose offset guess is in (-200, -50) non-finite, and
    flip the Jacobian of those in (50, 200), so that no step descends."""
    model, jac = estimation._sine_model, estimation._sine_jac
    monkeypatch.setattr(
        estimation, "_sine_model",
        lambda t, p, w: np.where(
            (-200.0 < p[..., 3, None]) & (p[..., 3, None] < -50.0), np.nan, model(t, p, w)
        ),
    )
    monkeypatch.setattr(
        estimation, "_sine_jac",
        lambda t, p, w: jac(t, p, w) * np.where(
            (50.0 < p[..., 3]) & (p[..., 3] < 200.0), -1.0, 1.0
        )[..., None, None],
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_sinusoid_rows_are_their_single_trace_fits(monkeypatch):
    _failing_sine(monkeypatch)
    t = np.linspace(0.0, 5.0, 201)
    rows = _sine_rows(t)
    names = list(rows)
    # The failing rows go in the middle of the stack.
    names[8:8] = names[-5:]
    del names[-5:]
    fits = fit_damped_sinusoid(t, np.array([rows[k] for k in names]), 5.0)
    assert len(fits) == len(names)
    got = dict(zip(names, fits))
    for name, fit in got.items():
        if isinstance(fit, DegenerateFitError):
            with pytest.raises(DegenerateFitError) as exc:
                fit_damped_sinusoid(t, rows[name], 5.0)
            alone = exc.value
        else:
            alone = fit_damped_sinusoid(t, rows[name], 5.0)
        assert _fit_bytes(fit) == _fit_bytes(alone), name
    failed = {k: str(v) for k, v in got.items() if isinstance(v, DegenerateFitError)}
    assert failed.keys() == {
        "guess overflows", "residuals overflow", "non-finite model", "no descent"
    }
    assert failed["guess overflows"] == (
        "damped-sinusoid fit: the initial guess (a, T, phase, c) is not finite"
    )
    assert failed["residuals overflow"].startswith(
        "squared residuals overflow at the initial guess (largest |residual| "
    )
    assert failed["non-finite model"] == "model returned non-finite residuals"
    assert failed["no descent"].startswith("no descent direction found (gradient norm ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fit, decay", [
    (fit_exp, lambda t, tau: 0.7 * np.exp(-t / tau) + 0.1),
    (lambda t, y: fit_damped_sinusoid(t, y, 5.0),
     lambda t, tau: 0.4 * np.exp(-t / tau) * np.sin(2.0 * math.pi * 5.0 * t + 0.3) - 0.2),
], ids=["exp", "sinusoid"])
def test_flat_trace_has_no_decay_alone_and_in_a_stack(fit, decay):
    # A range of 1e-12 is within the flatness rule: T = inf, amplitude 0 and
    # the trace's mean as offset, alone and as a row of a stack whose other
    # rows fit as alone.
    t = np.linspace(0.0, 2.0, 201)
    flat = 0.2 + 1e-12 * np.sin(3.0 * t)
    no_decay = estimation.DecayFit(0.0, math.inf, float(np.mean(flat)), 0.0, True)
    assert fit(t, flat) == no_decay
    rows = np.array([decay(t, 0.6), decay(t, 1.3), flat, decay(t, 2.1)])
    fits = fit(t, rows)
    assert fits[2] == no_decay
    for b in (0, 1, 3):
        assert math.isfinite(fits[b].T)
        assert _fit_bytes(fits[b]) == _fit_bytes(fit(t, rows[b])), b


@pytest.mark.parametrize("fit",[fit_exp, lambda t, y: fit_damped_sinusoid(t, y, 5.0)],
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
