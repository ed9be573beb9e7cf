import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sqbloch.blochdyn import (
    BlochState,
    axis_timescales,
    bloch_rhs,
    frame_rotation,
    steady_state,
    transverse_propagator_xy,
)
from sqbloch import cli
from sqbloch.errors import MultiTransitionError
from sqbloch.numerics import hermitian_defect, integrate_ode
from sqbloch.polariton import (
    PolaritonSystem,
    TransmonCavityParams,
    apply_master_equation,
    bloch_from_density,
    build_hamiltonian,
    density_from_bloch,
    diagonalize_polaritons,
    master_equation_rhs,
    transmon_levels,
    two_level_reduction,
)
from sqbloch.reservoir import SqueezedReservoir

CIRCUIT = TransmonCavityParams()


@pytest.fixture(scope="module")
def circuit_system():
    return diagonalize_polaritons(build_hamiltonian(CIRCUIT), CIRCUIT)


def resonant_reservoir(ps, n=0.88, m=1.08):
    return SqueezedReservoir(
        N=n, M=m, omega0=ps.transition_frequency(0, ps.index_of("-")), bandwidth=13.0
    )


def calibrated_base(ps, gamma_over_2pi_mhz=0.24):
    return 2.0 * math.pi * gamma_over_2pi_mhz / abs(ps.A[0, ps.index_of("-")]) ** 2


def reference_master_equation(ps, r, gamma_map, squeezed_transition, rho, t):
    """d(rho)/dt summed transition by transition from the physics, without
    the assembled generator.  Each transition i < j couples through the jump
    operator c = A_ij |i><j| at its bare rate gamma_ij, into the squeezed
    vacuum (N, M) if it is the squeezed one and into plain vacuum otherwise;
    in the interaction picture M rotates at twice the squeezer detuning."""
    dim = ps.energies.size
    sq = squeezed_transition or (0, ps.index_of("-"))

    def d(x, y):  # x rho y^dag - {y^dag x, rho} / 2
        yd = y.conj().T
        return x @ rho @ yd - 0.5 * (yd @ x @ rho + rho @ yd @ x)

    drho = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(i + 1, dim):
            if isinstance(gamma_map, dict):
                gamma = gamma_map.get((i, j), 0.0)
            else:
                gamma = gamma_map
            c = np.zeros((dim, dim), dtype=complex)
            c[i, j] = ps.A[i, j]
            cd = c.conj().T
            n, m = (r.N, r.M) if (i, j) == sq else (0.0, 0.0)
            two_delta = 4.0 * math.pi * 1e3 * (r.omega0 - ps.transition_frequency(i, j))
            m_t = m * np.exp(-1j * two_delta * t)
            drho += gamma * (
                (n + 1.0) * d(c, c) + n * d(cd, cd) + np.conj(m_t) * d(c, cd) + m_t * d(cd, c)
            )
    return drho


def oracle_case(ps, name):
    """(system, reservoir, gamma_map, squeezed_transition, t) for one oracle
    case; "complex-gauge" rephases the dressed states of ``ps`` so the
    nonzero A_ij are complex, which the real circuit Hamiltonian never gives."""
    if name == "complex-gauge":
        theta = np.linspace(0.0, 2.5, ps.energies.size)
        a = ps.A * np.exp(1j * (theta[None, :] - theta[:, None]))
        ps = PolaritonSystem(energies=ps.energies, A=a, labels=ps.labels)
    i_minus, i_plus = ps.index_of("-"), ps.index_of("+")
    base = calibrated_base(ps)
    detuned = SqueezedReservoir(
        N=0.88,
        M=1.08 * np.exp(0.7j),
        omega0=ps.transition_frequency(0, i_minus) + 0.3e-3,
        bandwidth=13.0,
    )
    if name == "resonant-t0":
        return ps, resonant_reservoir(ps), base, None, 0.0
    if name in ("detuned", "complex-gauge"):
        return ps, detuned, base, None, 1.3
    if name == "dict-gamma":
        gamma = {
            (0, i_minus): base,
            (0, i_plus): 0.0,
            (i_minus, 4): 0.7 * base,
            (1, 5): 2.0,
        }
        return ps, detuned, gamma, None, 0.45
    assert name == "squeezed-plus"
    r = SqueezedReservoir(
        N=0.5, M=0.6j, omega0=ps.transition_frequency(0, i_plus) - 1e-3, bandwidth=1.0
    )
    return ps, r, 1.3, (0, i_plus), 0.8


class TestTransmonLevels:
    def test_asymptotic_transition_frequency(self):
        eps, _ = transmon_levels(CIRCUIT)
        duffing = math.sqrt(8.0 * CIRCUIT.E_J * CIRCUIT.E_C) - CIRCUIT.E_C
        assert abs(eps[1] - duffing) / duffing <= 0.02

    def test_lowering_normalization_and_shape(self):
        _, b = transmon_levels(CIRCUIT)
        assert b[0, 1] == pytest.approx(1.0)
        assert np.abs(np.tril(b)).max() == 0.0

    def test_anharmonic_ladder(self):
        eps, _ = transmon_levels(CIRCUIT)
        # Negative anharmonicity: spacing shrinks up the ladder.
        spacings = np.diff(eps)
        assert np.all(np.diff(spacings) < 0.0)


class TestBuildHamiltonian:
    def test_uncoupled_tensor_sum(self):
        p = TransmonCavityParams(n_transmon=4, n_photon=4, n_charge=12, g=0.0)
        eps, _ = transmon_levels(p)
        h = build_hamiltonian(p)
        expected = np.sort(
            np.add.outer(eps, p.omega_c * np.arange(p.n_photon)).ravel()
        )
        got = np.sort(np.linalg.eigvalsh(h))
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, abs(expected[-1]))

    def test_two_level_jc_oracle(self):
        p = TransmonCavityParams(n_transmon=3, n_photon=3, n_charge=12)
        eps, _ = transmon_levels(p)
        h = build_hamiltonian(p)
        omega_q = eps[1]
        mean = 0.5 * (omega_q + p.omega_c)
        half = math.sqrt(p.g**2 + 0.25 * (omega_q - p.omega_c) ** 2)
        evals = np.linalg.eigvalsh(h)
        evals -= evals[0]
        # Single-excitation JC doublet built from the same bare frequencies.
        assert abs(evals[1] - (mean - half)) <= 1e-9
        assert abs(evals[2] - (mean + half)) <= 1e-9

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            TransmonCavityParams(n_photon=2)
        with pytest.raises(ValueError):
            TransmonCavityParams(n_transmon=10, n_charge=4)

    @pytest.mark.parametrize("name", ["E_C", "E_J", "omega_c", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_circuit_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"{name} = .* must be finite"):
            TransmonCavityParams(**{name: value})

    def test_transmon_regime_warning(self):
        with pytest.warns(UserWarning, match="transmon regime") as record:
            TransmonCavityParams(E_J=1.0, E_C=0.208)
        assert record[0].filename == __file__  # the caller, not the generated __init__


class TestDiagonalizePolaritons:
    def test_reference_transition_frequency(self, circuit_system):
        f = circuit_system.transition_frequency(0, circuit_system.index_of("-"))
        assert abs(f - 5.8989) * 1e3 <= 15.0  # MHz

    def test_reference_polariton_splitting(self, circuit_system):
        f_minus = circuit_system.transition_frequency(0, circuit_system.index_of("-"))
        f_plus = circuit_system.transition_frequency(0, circuit_system.index_of("+"))
        assert abs((f_plus - f_minus) * 1e3 - 255.0) <= 10.0  # MHz

    def test_labels(self, circuit_system):
        assert circuit_system.labels[0] == "g"
        assert circuit_system.labels[1] == "-"
        assert circuit_system.labels[2] == "+"

    def test_bare_ladder_at_zero_coupling(self):
        p = TransmonCavityParams(n_transmon=3, n_photon=4, n_charge=12, g=0.0)
        ps = diagonalize_polaritons(build_hamiltonian(p), p)
        coupled = [
            (i, j, abs(ps.A[i, j]))
            for i in range(ps.energies.size)
            for j in range(i + 1, ps.energies.size)
            if abs(ps.A[i, j]) > 1e-9
        ]
        # One photon exchanged per coupled pair: the transition frequency is
        # exactly the cavity frequency and |A| walks the sqrt(n) ladder.
        assert len(coupled) == p.n_transmon * (p.n_photon - 1)
        for i, j, a in coupled:
            assert ps.transition_frequency(i, j) == pytest.approx(p.omega_c, abs=1e-9)
            assert min(abs(a - math.sqrt(n)) for n in range(1, p.n_photon)) <= 1e-9
        ladder = sorted(a for _, _, a in coupled)
        expected = sorted(
            math.sqrt(n) for n in range(1, p.n_photon) for _ in range(p.n_transmon)
        )
        assert ladder == pytest.approx(expected, abs=1e-9)

    def test_diagonal_elements_vanish(self, circuit_system):
        assert np.abs(np.diag(circuit_system.A)).max() == 0.0

    def test_energy_offset_and_order(self, circuit_system):
        assert circuit_system.energies[0] == 0.0
        assert np.all(np.diff(circuit_system.energies) >= 0.0)

    def test_cutoff_convergence(self):
        base = diagonalize_polaritons(build_hamiltonian(CIRCUIT), CIRCUIT)
        bigger = TransmonCavityParams(n_transmon=8, n_photon=12, n_charge=30)
        assert bigger.dim == 96
        refined = diagonalize_polaritons(build_hamiltonian(bigger), bigger)
        assert refined.labels[1:3] == base.labels[1:3] == ("-", "+")
        for k in (1, 2):
            shift_mhz = abs(base.energies[k] - refined.energies[k]) * 1e3
            assert shift_mhz < 1.0

    def test_json_serialization(self, circuit_system):
        out = {}
        cli._cmd_polariton(replace(cli.load_config(None), polariton_params=CIRCUIT), out)
        payload = json.loads(cli._json_text("polariton.json", out["polariton.json"]))
        assert payload["labels"][:3] == ["g", "-", "+"]
        assert len(payload["energies_ghz"]) == CIRCUIT.dim
        assert payload["A_abs"][0][1] == pytest.approx(
            abs(circuit_system.A[0, 1]), rel=1e-9
        )


class TestTwoLevelReduction:
    def test_resonant_detuning_zero(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        rates = two_level_reduction(circuit_system, calibrated_base(circuit_system), r)
        assert rates.delta == 0.0
        assert rates.N == 0.88 and rates.M_abs == 1.08

    def test_calibrated_t1(self, circuit_system):
        r = resonant_reservoir(circuit_system, n=0.0, m=0.0)
        rates = two_level_reduction(circuit_system, calibrated_base(circuit_system), r)
        # gamma/2pi = 240 kHz corresponds to T1 = 0.663 us; Tz = T1 in vacuum.
        ts = axis_timescales(rates)
        assert ts.Tz == pytest.approx(1.0 / (2.0 * math.pi * 0.24), rel=1e-9)
        assert ts.Tz == pytest.approx(0.663, abs=1e-3)

    def test_alternative_transition(self, circuit_system):
        # High-lying transitions crowd g->+ within ~6 MHz, so only a very
        # narrow squeezer makes this reduction valid.
        i_plus = circuit_system.index_of("+")
        f_plus = circuit_system.transition_frequency(0, i_plus)
        r = SqueezedReservoir(N=0.5, M=0.6, omega0=f_plus + 0.001, bandwidth=1.0)
        rates = two_level_reduction(
            circuit_system, 1.0, r, transition=(0, i_plus)
        )
        assert rates.delta == pytest.approx(1.0)  # MHz
        assert rates.gamma == pytest.approx(abs(circuit_system.A[0, i_plus]) ** 2)

    def test_bandwidth_overlap_rejected(self, circuit_system):
        r = SqueezedReservoir(
            N=0.88,
            M=1.08,
            omega0=circuit_system.transition_frequency(0, 1),
            bandwidth=120.0,  # 5 x 120 MHz swallows the 255 MHz splitting
        )
        with pytest.raises(MultiTransitionError):
            two_level_reduction(circuit_system, 1.0, r)

    def test_guard_names_first_crowding_transition(self):
        # g -> - at 5 GHz.  (0, 2) sits 20 MHz away and (1, 4) 5 MHz away,
        # both bright; (2, 4) is 15 MHz away but dark.  The guard names
        # the first offender in row-major order.
        energies = np.array([0.0, 5.0, 5.02, 5.03, 10.005])
        a = np.zeros((5, 5), dtype=complex)
        a[0, 1], a[0, 2], a[1, 4], a[2, 4] = 1.0, 0.5j, 0.3, 1e-4
        ps = PolaritonSystem(energies=energies, A=a, labels=("g", "-", "+", "t2p0", "t1p2"))
        r = SqueezedReservoir(N=0.5, M=0.6, omega0=5.0, bandwidth=13.0)
        with pytest.raises(
            MultiTransitionError,
            match=r"^transition \(0, 2\) sits 20\.0 MHz from the selected one; "
            r"need >= 65 MHz for a two-level reduction$",
        ):
            two_level_reduction(ps, 1.0, r)
        a[0, 2] = 0.0
        with pytest.raises(MultiTransitionError, match=r"^transition \(1, 4\) sits 5\.0 MHz"):
            two_level_reduction(ps, 1.0, r)
        a[1, 4] = 0.0
        assert two_level_reduction(ps, 1.0, r).gamma == 1.0


class TestMasterEquation:
    def test_trace_and_hermiticity_preservation(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        rhs = master_equation_rhs(circuit_system, r, calibrated_base(circuit_system))
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = rng.standard_normal((rhs.dimension, rhs.dimension)) + 1j * rng.standard_normal(
                (rhs.dimension, rhs.dimension)
            )
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            drho = apply_master_equation(rhs, rho, 0.37)
            assert abs(np.trace(drho)) <= 1e-12 * np.abs(rho).max()
            assert np.abs(drho - drho.conj().T).max() <= 1e-12 * np.abs(drho).max()

    def test_vacuum_decay_to_ground(self, circuit_system):
        r = resonant_reservoir(circuit_system, n=0.0, m=0.0)
        rhs = master_equation_rhs(circuit_system, r, calibrated_base(circuit_system))
        dim = rhs.dimension
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[2, 2] = 0.4  # upper polariton
        rho0[4, 4] = 0.6  # two-excitation level
        sol = integrate_ode(
            lambda t, y: apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
            rho0.ravel(),
            (0.0, 40.0),
            tol=1e-9,
            t_eval=[40.0],
        )
        rho_end = sol.y[-1].reshape(dim, dim)
        assert rho_end[0, 0].real == pytest.approx(1.0, abs=1e-5)

    def test_two_level_block_matches_bloch_rhs(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        base = calibrated_base(circuit_system)
        rates = two_level_reduction(circuit_system, base, r)
        rhs = master_equation_rhs(circuit_system, r, base)
        s = np.array([0.55, -0.35, 0.4])
        rho = density_from_bloch(s, rhs.dimension)
        drho = apply_master_equation(rhs, rho, 0.0)
        got = bloch_from_density(drho)
        expected = bloch_rhs(BlochState.from_array(s), rates)
        assert np.abs(got - expected).max() <= 1e-8

    def test_full_evolution_matches_blochdyn(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        base = calibrated_base(circuit_system)
        rates = two_level_reduction(circuit_system, base, r)
        rhs = master_equation_rhs(circuit_system, r, base)
        dim = rhs.dimension
        s0 = np.array([0.6, -0.3, 0.5]) * 0.9
        sol = integrate_ode(
            lambda t, y: apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
            density_from_bloch(s0, dim).ravel(),
            (0.0, 5.0),
            tol=1e-10,
            t_eval=np.linspace(0.0, 5.0, 11),
        )
        # Step counts of this dim-30 solve before its stage products were
        # formed in place (numpy 2.4, OpenBLAS, x86-64).
        assert (sol.n_rhs, sol.n_accepted, sol.n_rejected) == (457, 76, 0)
        ts = axis_timescales(rates)
        sz_ss = steady_state(rates).sz
        for tk, yk in zip(sol.t, sol.y):
            got = bloch_from_density(yk.reshape(dim, dim))
            exp_xy = transverse_propagator_xy(rates, tk) @ s0[:2]
            exp_z = sz_ss + (s0[2] - sz_ss) * math.exp(-tk / ts.Tz)
            assert np.abs(got - np.array([exp_xy[0], exp_xy[1], exp_z])).max() <= 1e-6

    def test_solver_keeps_every_rhs_input_exactly_hermitian(self):
        # The stage sums act entrywise with real coefficients, so a Hermitian
        # state and Hermitian stages give a Hermitian stage input, bit for
        # bit; hermitian_defect's zero test then skips both |.| passes.
        params = TransmonCavityParams(n_transmon=8, n_photon=12)
        ps = diagonalize_polaritons(build_hamiltonian(params), params)
        i_minus = ps.index_of("-")
        base = calibrated_base(ps)
        defects = []
        for delta_mhz in (0.0, 0.7):
            r = SqueezedReservoir(
                N=0.88, M=1.08 * np.exp(0.7j),
                omega0=ps.transition_frequency(0, i_minus) + delta_mhz * 1e-3, bandwidth=13.0,
            )
            rhs = master_equation_rhs(ps, r, base)
            dim = rhs.dimension

            def f(t, y):
                rho = y.reshape(dim, dim)
                defects.append(hermitian_defect(rho))
                return apply_master_equation(rhs, rho, t).ravel()

            rho0 = density_from_bloch([0.4, -0.2, 0.3], dim, j=i_minus).ravel()
            integrate_ode(f, rho0, (0.0, 5.0), tol=1e-10, t_eval=np.linspace(0.0, 5.0, 11))
        assert dim == 96 and len(defects) > 500
        assert set(defects) == {0.0}

    def test_error_norm_product_form_keeps_the_solve(self, circuit_system, monkeypatch):
        # numerics._error_norm multiplies the complex error by 1/scale; with
        # the parent's quotient form put back, a dim-30 complex solve must
        # take the same steps and give the same bytes.
        from sqbloch import numerics

        r = resonant_reservoir(circuit_system)
        rhs = master_equation_rhs(circuit_system, r, calibrated_base(circuit_system))
        dim = rhs.dimension
        rho0 = density_from_bloch(np.array([0.6, -0.3, 0.5]) * 0.9, dim).ravel()

        def solve():
            return integrate_ode(
                lambda t, y: apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
                rho0, (0.0, 5.0), tol=1e-10, t_eval=np.linspace(0.0, 5.0, 11),
            )

        def quotient_form(err, abs_y0, abs_y1, tol):
            scale = tol + tol * np.maximum(abs_y0, abs_y1)
            return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))

        product = solve()
        monkeypatch.setattr(numerics, "_error_norm", quotient_form)
        quotient = solve()
        assert product.y.dtype == complex and product.y.tobytes() == quotient.y.tobytes()
        counters = (product.n_rhs, product.n_accepted, product.n_rejected)
        assert counters == (quotient.n_rhs, quotient.n_accepted, quotient.n_rejected)

    def test_detuned_m_phase_matches_propagator(self, circuit_system):
        delta_mhz = 0.3
        i_minus = circuit_system.index_of("-")
        r = SqueezedReservoir(
            N=0.88,
            M=1.08,
            omega0=circuit_system.transition_frequency(0, i_minus) + delta_mhz * 1e-3,
            bandwidth=13.0,
        )
        base = calibrated_base(circuit_system)
        rates = two_level_reduction(circuit_system, base, r)
        assert rates.delta == pytest.approx(delta_mhz, abs=1e-9)
        rhs = master_equation_rhs(circuit_system, r, base)
        dim = rhs.dimension
        s0 = np.array([0.8, 0.0, 0.0])
        sol = integrate_ode(
            lambda t, y: apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
            density_from_bloch(s0, dim).ravel(),
            (0.0, 2.0),
            tol=1e-10,
            t_eval=[0.9, 2.0],
        )
        for tk, yk in zip(sol.t, sol.y):
            got = bloch_from_density(yk.reshape(dim, dim))[:2]
            expected = frame_rotation(rates, tk) @ (
                transverse_propagator_xy(rates, tk) @ s0[:2]
            )
            assert np.abs(got - expected).max() <= 1e-7

    def test_rejects_invalid_rho(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        rhs = master_equation_rhs(circuit_system, r, 1.0)
        bad_shape = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            apply_master_equation(rhs, bad_shape, 0.0)
        dim = rhs.dimension
        non_herm = np.zeros((dim, dim), dtype=complex)
        non_herm[0, 1] = 1.0
        non_herm[0, 0] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            apply_master_equation(rhs, non_herm, 0.0)
        bad_trace = np.zeros((dim, dim), dtype=complex)
        bad_trace[0, 0] = 2.0
        with pytest.raises(ValueError, match="trace"):
            apply_master_equation(rhs, bad_trace, 0.0)
        # The Hermiticity bound is a relative defect of 1e-9.
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = 0.99e-9
        apply_master_equation(rhs, rho, 0.0)
        rho[0, 1] = 1.01e-9
        with pytest.raises(ValueError, match="Hermitian"):
            apply_master_equation(rhs, rho, 0.0)

    @pytest.mark.parametrize("entries", [[(0, 1), (1, 0)], [(1, 1)]],
                             ids=["off-diagonal-pair", "diagonal"])
    def test_rejects_nan_rho(self, circuit_system, entries):
        # NaN fails both checks; the defect of such a rho is NaN.
        rhs = master_equation_rhs(circuit_system, resonant_reservoir(circuit_system), 1.0)
        rho = np.zeros((rhs.dimension, rhs.dimension), dtype=complex)
        rho[0, 0] = 1.0
        for ij in entries:
            rho[ij] = math.nan
        with pytest.raises(ValueError, match="^rho must be Hermitian$"):
            apply_master_equation(rhs, rho, 0.0)

    def test_term_bookkeeping(self, circuit_system):
        r = resonant_reservoir(circuit_system)
        rhs = master_equation_rhs(circuit_system, r, 1.0)
        # Only the squeezed (0, 1) transition has an N sandwich (below the
        # diagonal) and the M pair.
        assert np.argwhere(np.tril(rhs.transfer)).tolist() == [[1, 0]]
        assert [(a, b) for a, b, _, _ in rhs.m_pair] == [(0, 1), (1, 0)]
        # Resonant squeezing: all M phases are static.
        assert all(phase == 0.0 for _, _, _, phase in rhs.m_pair)
        # Population leaves level k at the column sum of transfer.
        g = 0.5 * rhs.transfer.sum(axis=0)
        assert np.abs(rhs.decay + g[:, None] + g[None, :]).max() <= 1e-12

    @pytest.mark.parametrize(
        "case", ["resonant-t0", "detuned", "dict-gamma", "squeezed-plus", "complex-gauge"]
    )
    def test_matches_term_by_term_reference(self, circuit_system, case):
        ps, r, gamma, sq, t = oracle_case(circuit_system, case)
        rhs = master_equation_rhs(ps, r, gamma, squeezed_transition=sq)
        assert len(rhs.m_pair) == 2
        assert any(phase != 0.0 for *_, phase in rhs.m_pair) == (case != "resonant-t0")
        if case == "dict-gamma":
            assert np.argwhere(np.triu(rhs.transfer)).tolist() == [[0, 1], [1, 4], [1, 5]]
        rng = np.random.default_rng(11)
        dim = rhs.dimension
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        got = apply_master_equation(rhs, rho, t)
        expected = reference_master_equation(ps, r, gamma, sq, rho, t)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(rho).max()

    def test_terms_pinned_on_uncoupled_circuit(self):
        # At g = 0 the dressed levels are bare product states, ordered g,
        # t1p0, t0p1, t2p0, t1p1, t0p2, t2p1, t1p2, t2p2, and the cavity
        # quadrature links (t, n) to (t, n + 1) with |A|^2 = n + 1.
        p = TransmonCavityParams(n_transmon=3, n_photon=3, n_charge=12, g=0.0)
        ps = diagonalize_polaritons(build_hamiltonian(p), p)
        r = SqueezedReservoir(
            N=0.5, M=0.6, omega0=ps.transition_frequency(0, 2) + 1e-3, bandwidth=1.0
        )
        rhs = master_equation_rhs(ps, r, 1.0, squeezed_transition=(0, 2))
        two_delta = 2.0 * (2.0 * math.pi * 1e3) * 1e-3  # rad/us
        # (N+1) coefficients 0.75 on (0, 2), then 0.5, 1, 0.5, 1, 1 on the
        # vacuum transitions; N coefficient 0.25 on (0, 2); M, M* 0.3.
        # transfer holds twice each coefficient, g_k sums those leaving k.
        transfer = np.zeros((9, 9))
        for (i, j), rate in {
            (0, 2): 1.5,
            (2, 0): 0.5,
            (1, 4): 1.0,
            (2, 5): 2.0,
            (3, 6): 1.0,
            (4, 7): 2.0,
            (6, 8): 2.0,
        }.items():
            transfer[i, j] = rate
        g = np.array([0.25, 0.0, 0.75, 0.0, 0.5, 1.0, 0.5, 1.0, 1.0])
        assert np.abs(rhs.transfer - transfer).max() <= 1e-12
        assert np.abs(rhs.decay + g[:, None] + g[None, :]).max() <= 1e-12
        assert [(a, b) for a, b, _, _ in rhs.m_pair] == [(0, 2), (2, 0)]
        weights = [complex(w) for _, _, w, _ in rhs.m_pair]
        assert weights == pytest.approx([0.6, 0.6], abs=1e-12)
        phases = [phase for *_, phase in rhs.m_pair]
        assert phases == pytest.approx([two_delta, -two_delta], abs=1e-9)

    @pytest.mark.parametrize(
        "g, pair, gamma_map, message",
        [
            (CIRCUIT.g, (1, 0), 1.0, "invalid transition pair (1, 0)"),
            (CIRCUIT.g, (0, CIRCUIT.dim), 1.0, f"invalid transition pair (0, {CIRCUIT.dim})"),
            (CIRCUIT.g, (2, 2), 1.0, "invalid transition pair (2, 2)"),
            # At g = 0 the cavity quadrature does not link g to t1p0 at all.
            (0.0, (0, 1), 1.0, "transition (0, 1) is radiatively dark"),
            # The map rates (0, 2) only, so the squeezed (0, 1) pair drops out
            # of the generator and would take N and M with it.
            (
                CIRCUIT.g,
                None,
                {(0, 2): 1.0},
                "squeezed transition (0, 1) has no positive rate to carry "
                "N = 0.88, |M| = 1.08",
            ),
        ],
        ids=["reversed", "past-last", "diagonal", "dark", "unrated"],
    )
    def test_invalid_squeezed_transition_rejected(
        self, circuit_system, g, pair, gamma_map, message
    ):
        ps = circuit_system
        if g != CIRCUIT.g:
            p = replace(CIRCUIT, g=g)
            ps = diagonalize_polaritons(build_hamiltonian(p), p)
        r = resonant_reservoir(ps)
        with pytest.raises(ValueError) as assembly:
            master_equation_rhs(ps, r, gamma_map, squeezed_transition=pair)
        assert str(assembly.value) == message
        if not isinstance(gamma_map, dict):  # the reduction shares the pair rules
            with pytest.raises(ValueError) as reduction:
                two_level_reduction(ps, 1.0, r, transition=pair)
            assert str(reduction.value) == message
