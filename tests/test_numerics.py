import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqbloch import estimation, numerics, polariton
from sqbloch.blochdyn import DecayRates, frame_rotation, transverse_propagator_xy
from sqbloch.errors import DegenerateFitError, NonFiniteDerivativeError, StiffnessError
from sqbloch.numerics import (
    eigh,
    fit_least_squares,
    fit_least_squares_stack,
    hermitian_defect,
    integrate_ode,
)
from sqbloch.reservoir import SqueezedReservoir


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _eigh_loop_oracle(h):
    """Decomposition as :func:`eigh` made it with a loop over degenerate
    clusters, each sorted on its own, before one stable sort replaced it."""
    n = h.shape[0]
    eigenvalues, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    lead = np.argmax(np.abs(vectors), axis=0)
    cluster_tol = max(1e-9 * max(np.abs(eigenvalues).max(), 1.0), 1e-300)
    i = 0
    while i < n:
        j = i + 1
        while j < n and eigenvalues[j] - eigenvalues[j - 1] <= cluster_tol:
            j += 1
        if j - i > 1:
            sub = i + np.argsort(lead[i:j], kind="stable")
            vectors[:, i:j] = vectors[:, sub]
            eigenvalues[i:j] = eigenvalues[sub]
            lead[i:j] = lead[sub]
        i = j
    z = vectors[lead, np.arange(n)]
    nonzero = z != 0.0
    z = z[nonzero]
    vectors[:, nonzero] *= np.conj(z) / np.hypot(z.real, z.imag)
    return eigenvalues, vectors


class TestEigh:
    def test_scalar(self):
        dec = eigh(np.array([[3.5]]))
        assert dec.eigenvalues == pytest.approx([3.5])
        assert dec.eigenvectors[0, 0] == pytest.approx(1.0)

    def test_pauli_x(self):
        dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert dec.eigenvectors[:, 0] == pytest.approx([s, -s])
        assert dec.eigenvectors[:, 1] == pytest.approx([s, s])

    def test_reconstruction_4x4(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        dec = eigh(h)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.abs(rebuilt - h).max() <= 1e-9 * np.linalg.norm(h)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_unitarity(self, seed, n):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, n)
        dec = eigh(h)
        v = dec.eigenvectors
        norm = np.linalg.norm(h)
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-9
        for k in range(n):
            resid = h @ v[:, k] - dec.eigenvalues[k] * v[:, k]
            assert np.linalg.norm(resid) <= 1e-9 * max(norm, 1.0)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12 * max(norm, 1.0))
        assert abs(dec.eigenvalues.sum() - np.trace(h).real) <= 1e-9 * max(norm, 1.0)
        # Phase gauge: each column's largest-magnitude component is real > 0.
        lead = v[np.abs(v).argmax(axis=0), np.arange(n)]
        assert np.all(lead.real > 0.0)
        assert np.abs(lead.imag).max() <= 1e-15

    def test_degenerate_ordering_deterministic(self):
        h = np.diag([2.0, 2.0, 1.0]).astype(complex)
        dec = eigh(h)
        assert dec.eigenvalues == pytest.approx([1.0, 2.0, 2.0])
        # Degenerate pair ordered by row index of the dominant component.
        assert abs(dec.eigenvectors[0, 1]) == pytest.approx(1.0)
        assert abs(dec.eigenvectors[1, 2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_cluster_order_matches_loop_oracle(self, seed):
        # Exact clusters of 3 and more levels, each eigenspace spread by a
        # random unitary: the whole matrix's on even seeds, one over blocks
        # of a second partition of the rows on odd ones, which localises the
        # vectors and puts equal leading rows inside a cluster.
        rng = np.random.default_rng(seed)
        levels = np.repeat([-1.5, 0.2, 2.0, 3.1, 4.0], [3, 1, 4, 3, 5])
        n = levels.size
        if seed % 2 == 0:
            mix = random_unitary(rng, n)
        else:
            mix = np.zeros((n, n), dtype=complex)
            for block in np.split(rng.permutation(n), [5, 9, 14]):
                mix[np.ix_(block, block)] = random_unitary(rng, block.size)
        h = mix @ np.diag(levels) @ mix.conj().T
        h = 0.5 * (h + h.conj().T)
        dec = eigh(h)
        want_values, want_vectors = _eigh_loop_oracle(h)
        assert dec.eigenvalues.tobytes() == want_values.tobytes()
        assert dec.eigenvectors.tobytes() == want_vectors.tobytes()
        assert dec.eigenvectors.flags.c_contiguous == want_vectors.flags.c_contiguous

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_rejects_non_finite(self, bad):
        h = np.eye(3, dtype=complex)
        h[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigh(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_defect(self):
        assert hermitian_defect(np.zeros((2, 2))) == 0.0
        assert hermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0

        def reference(m):
            scale = np.abs(m).max()
            return 0.0 if scale == 0.0 else float(np.abs(m - m.conj().T).max() / scale)

        rng = np.random.default_rng(11)
        hermitian = random_hermitian(rng, 7)
        near = hermitian.copy()
        near[2, 5] += 3e-13 * (1.0 - 2.0j)
        imag_only = hermitian.copy()
        imag_only[4, 4] += 2.5e-11j  # a diagonal entry must be real
        imag_only[1, 3] = complex(imag_only[1, 3].real, -imag_only[3, 1].imag * 0.5)
        cases = [hermitian, near, imag_only, np.zeros((5, 5), dtype=complex),
                 rng.standard_normal((4, 4))]
        for m in cases:
            assert hermitian_defect(m) == reference(m)
        assert hermitian_defect(hermitian) == 0.0
        assert hermitian_defect(near) > 0.0 and hermitian_defect(imag_only) > 0.0


class TestIntegrateOde:
    def test_scalar_exponential(self):
        sol = integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0), tol=1e-10, t_eval=[1.0])
        assert sol.y[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_null_dynamics(self):
        sol = integrate_ode(
            lambda t, y: np.zeros_like(y), [2.0, -1.0], (0.0, 3.0), tol=1e-9,
            t_eval=np.linspace(0, 3, 7),
        )
        assert np.all(sol.y == np.array([2.0, -1.0]))

    def test_linear_system_matches_matrix_exponential(self):
        # 2x2 block with distinct decay rates plus rotation; closed form from
        # the eigendecomposition of the generator.
        a = np.array([[-0.3, 1.7], [-1.7, -1.1]])
        tol = 1e-9
        t_eval = np.linspace(0.0, 4.0, 33)
        sol = integrate_ode(lambda t, y: a @ y, [1.0, 0.5], (0.0, 4.0), tol=tol, t_eval=t_eval)
        evals, vecs = np.linalg.eig(a)
        c = np.linalg.solve(vecs, np.array([1.0, 0.5], dtype=complex))
        for tk, yk in zip(sol.t, sol.y):
            exact = (vecs @ (c * np.exp(evals * tk))).real
            assert np.abs(yk - exact).max() <= 10 * tol

    def test_complex_state(self):
        w = 2.0 * np.pi * 3.0
        sol = integrate_ode(
            lambda t, y: 1j * w * y, [1.0 + 0.0j], (0.0, 1.0), tol=1e-10, t_eval=[0.5, 1.0]
        )
        assert sol.y[0][0] == pytest.approx(np.exp(1j * w * 0.5), abs=1e-8)
        assert sol.y[1][0] == pytest.approx(np.exp(1j * w), abs=1e-8)

    def test_single_precision_complex_start_solves_in_double(self):
        # A complex64 start is promoted to complex128 as a float32 one is to
        # float64, so its solve is the complex128 solve, byte for byte.
        w = 2.0 * np.pi * 3.0
        t_eval = np.linspace(0.0, 1.0, 9)

        def solve(dtype):
            return integrate_ode(
                lambda t, y: 1j * w * y, np.ones(1, dtype), (0.0, 1.0), tol=1e-8, t_eval=t_eval
            )

        single, double = solve(np.complex64), solve(np.complex128)
        assert single.y.dtype == double.y.dtype == np.complex128
        assert single.y.tobytes() == double.y.tobytes()
        counters = ("n_rhs", "n_accepted", "n_rejected")
        assert [getattr(single, c) for c in counters] == [getattr(double, c) for c in counters]
        assert abs(single.y[-1, 0] - np.exp(1j * w)) < 5e-8

    def test_dense_output_accuracy(self):
        tol = 1e-9
        t_eval = np.linspace(0.0, 2.0, 101)
        sol = integrate_ode(lambda t, y: -y, [1.0], (0.0, 2.0), tol=tol, t_eval=t_eval)
        assert np.abs(sol.y[:, 0] - np.exp(-t_eval)).max() <= 10 * tol

    def test_t_eval_output_pinned_and_counters(self):
        # A kick at t = 1 makes the step control reject steps.  The pinned
        # samples are the integrator's output before its step bookkeeping
        # and counters changed (numpy 2.4, OpenBLAS, x86-64).
        calls = 0

        def f(t, y):
            nonlocal calls
            calls += 1
            return np.array([y[1], -4.0 * y[0]]) + (t > 1.0) * np.array([0.0, 3.0])

        t_eval = np.linspace(0.0, 2.0, 5)
        sol = integrate_ode(f, [1.0, 0.0], (0.0, 2.0), tol=1e-8, t_eval=t_eval)
        pinned = [
            ["0x1.0000000000000p+0", "0x0.0p+0"],
            ["0x1.14a280f27d13cp-1", "-0x1.aed548f3f413cp+0"],
            ["-0x1.aa22656e771efp-2", "-0x1.d18f48facd075p+0"],
            ["-0x1.4a5a078b9c0e5p-1", "0x1.f5be59929e9f3p-1"],
            ["0x1.a2455b6509f1cp-2", "0x1.70538f3dd7c8dp+1"],
        ]
        assert sol.t.tolist() == t_eval.tolist()
        assert [[v.hex() for v in row] for row in sol.y] == pinned
        assert sol.n_rhs == calls == 685
        assert (sol.n_accepted, sol.n_rejected) == (88, 26)
        assert sol.n_rhs == 1 + 6 * (sol.n_accepted + sol.n_rejected)

    def test_complex_state_pinned_and_counters(self):
        # Criterion 7's dim-30 circuit with a complex M: a complex state whose
        # stage sums run on the float view.  The pinned samples (rho[0, 1]
        # and rho[0, 0] at t = 2.5 and 5 us) are the integrator's output
        # when that view was introduced (numpy 2.4, OpenBLAS, x86-64).
        params = polariton.TransmonCavityParams()
        ps = polariton.diagonalize_polaritons(polariton.build_hamiltonian(params), params)
        i_minus = ps.index_of("-")
        r = SqueezedReservoir(
            N=0.88, M=1.08 * np.exp(0.7j), omega0=ps.transition_frequency(0, i_minus),
            bandwidth=13.0,
        )
        rhs = polariton.master_equation_rhs(
            ps, r, 2.0 * math.pi * 0.24 / abs(ps.A[0, i_minus]) ** 2
        )
        dim = rhs.dimension
        rho0 = polariton.density_from_bloch(np.array([0.6, -0.3, 0.5]) * 0.9, dim, j=i_minus)
        sol = integrate_ode(
            lambda t, y: polariton.apply_master_equation(rhs, y.reshape(dim, dim), t).ravel(),
            rho0.ravel(),
            (0.0, 5.0),
            tol=1e-10,
            t_eval=np.linspace(0.0, 5.0, 11),
        )
        assert (dim, i_minus) == (30, 1) and sol.y.dtype == complex
        pinned = {
            5: ["0x1.017c5520a3df5p-4", "-0x1.77996fec71985p-6", "0x1.5cc119fef3c0cp-1"],
            10: ["0x1.4c584140bf48ep-6", "-0x1.e542d5c1a77a7p-8", "0x1.5cc0ed735c64bp-1"],
        }
        for k, hexes in pinned.items():
            rho = sol.y[k].reshape(dim, dim)
            got = [rho[0, 1].real, rho[0, 1].imag, rho[0, 0].real]
            assert [v.hex() for v in got] == hexes, k
        assert (sol.n_rhs, sol.n_accepted, sol.n_rejected) == (499, 83, 0)

    def test_dense_output_matches_per_sample_solves(self):
        # The adaptive steps do not depend on t_eval, so a sample's value is
        # fixed by the step it falls in: 2,001 samples (about 50 per step)
        # must each equal a solve that asks for that sample alone.
        def f(t, y):
            return np.array([y[1], -9.0 * y[0] - 0.4 * y[1]])

        t_eval = np.linspace(0.0, 2.0, 2001)
        sol = integrate_ode(f, [1.0, 0.0], (0.0, 2.0), tol=1e-6, t_eval=t_eval)
        assert sol.y.shape == (2001, 2) and sol.n_accepted < 100
        for k in [*range(0, 2001, 16), 2000]:
            alone = integrate_ode(f, [1.0, 0.0], (0.0, 2.0), tol=1e-6, t_eval=t_eval[k : k + 1])
            assert alone.y[0].tobytes() == sol.y[k].tobytes(), k

    def test_error_norm_matches_quotient_form(self):
        # The parent form divided the error by the real scale; the product
        # with the reciprocal must give the same bytes, specials included.
        def quotient_form(err, abs_y0, abs_y1, tol):
            scale = tol + tol * np.maximum(abs_y0, abs_y1)
            return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))

        rng = np.random.default_rng([31, 20261019])
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -2.5]
        cases = 0
        with np.errstate(all="ignore"):
            for re, im in itertools.product(specials, repeat=2):
                for complex_err in (True, False):
                    n = int(rng.integers(1, 30))
                    err = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 2, n)
                    if complex_err:
                        err = err + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-14, 2, n)
                    err[rng.integers(n)] = complex(re, im) if complex_err else re
                    err[rng.integers(n)] = 0.0
                    abs_y0 = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-6, 3, n)
                    abs_y1 = np.abs(rng.standard_normal(n))
                    abs_y1[0] = rng.choice([0.0, np.inf, 1.0])
                    tol = float(rng.choice([1e-12, 1e-9, 1e-6, 1e-320]))
                    expected = quotient_form(err.copy(), abs_y0, abs_y1, tol)
                    got = numerics._error_norm(err.copy(), abs_y0, abs_y1, tol)
                    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
                    cases += 1
        assert cases == 128

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_zero_initial_state(self, tol):
        # A state below the tolerance scale must not shrink the first step
        # below the step-size floor.
        t_eval = np.linspace(0.0, 1.0, 6)
        sol = integrate_ode(lambda t, y: np.cos(t) + 0.0 * y, [0.0], (0.0, 1.0), tol=tol,
                            t_eval=t_eval)
        assert np.abs(sol.y[:, 0] - np.sin(t_eval)).max() <= 10 * tol
        assert sol.n_rejected == 0 and sol.n_accepted < 40

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0), tol=0.0, t_eval=[1.0])
        with pytest.raises(ValueError):
            integrate_ode(lambda t, y: -y, [1.0], (1.0, 1.0), t_eval=[1.0])

    @staticmethod
    def _counted(f):
        """``f`` and the list of its calls, failing past one step's 7 calls."""
        calls = []

        def rhs(t, y):
            calls.append(t)
            assert len(calls) <= 7, "the solver went on past its first step"
            return f(t, y)

        return rhs, calls

    @pytest.mark.parametrize("y0", [[math.nan], [1.0, math.inf], [complex(0.5, math.nan)]],
                             ids=["nan", "inf", "complex-nan"])
    def test_non_finite_initial_state_raises_before_any_rhs_call(self, y0):
        rhs, calls = self._counted(lambda t, y: -y)
        with pytest.raises(ValueError, match="^y0 holds a non-finite value$"):
            integrate_ode(rhs, y0, (0.0, 1.0), t_eval=[1.0])
        assert calls == []

    def test_nan_tol_raises_before_any_rhs_call(self):
        rhs, calls = self._counted(lambda t, y: -y)
        with pytest.raises(ValueError, match="^tol must be positive$"):
            integrate_ode(rhs, [1.0], (0.0, 1.0), tol=math.nan, t_eval=[1.0])
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_initial_derivative_raises_at_once(self, bad):
        rhs, calls = self._counted(lambda t, y: np.full_like(y, bad))
        with pytest.raises(NonFiniteDerivativeError, match="^f\\(t0, y0\\) is not finite"):
            integrate_ode(rhs, [1.0, 0.5], (0.0, 1.0), t_eval=[1.0])
        assert 1 <= len(calls) <= 7

    def test_mid_solve_nan_is_named_not_stiffness(self):
        # f turns NaN at t = 0.5: each step from there is rejected on a NaN
        # error estimate until the step size underflows.
        calls = []

        def f(t, y):
            calls.append(t)
            return -y if t < 0.5 else np.full_like(y, math.nan)

        with pytest.raises(NonFiniteDerivativeError, match="^f is not finite past t=0.5: step"):
            integrate_ode(f, [1.0], (0.0, 1.0), t_eval=[1.0])
        assert len(calls) < 1000  # no spin through the step budget

    def test_stiff_underflow_is_named_stiffness(self):
        # Finite error estimates that force the step below its floor.
        with pytest.raises(StiffnessError, match="^step size underflow at t="):
            integrate_ode(lambda t, y: -1e20 * (y - np.cos(t)), [1.0], (0.0, 1.0), t_eval=[1.0])

    def test_stiffness_error(self):
        # Derivative blows up at t -> 1; the step size collapses.
        def f(t, y):
            return y / (1.0 - t)

        with pytest.raises((StiffnessError, OverflowError, FloatingPointError)):
            with np.errstate(over="raise", invalid="raise"):
                integrate_ode(f, [1.0], (0.0, 1.0), tol=1e-9, t_eval=[1.0])


def _exp_model(t, p):
    return p[0] * np.exp(-t / p[1])


def _exp_jac(t, p):
    e = np.exp(-t / p[1])
    return np.stack([e, p[0] * e * t / p[1] ** 2], axis=1)


def _exp_offset_model(t, p):
    return p[0] * np.exp(-t / p[1]) + p[2]


def _exp_offset_jac(t, p):
    e = np.exp(-t / p[1])
    return np.stack([e, p[0] * e * t / p[1] ** 2, np.ones_like(t)], axis=1)


def _damped_sine_model(t, p):
    return p[0] * np.exp(-t / p[1]) * np.sin(p[2] * t + p[3]) + p[4]


def _damped_sine_jac(t, p):
    e = np.exp(-t / p[1])
    s = np.sin(p[2] * t + p[3])
    c = p[0] * e * np.cos(p[2] * t + p[3])
    return np.stack(
        [e * s, p[0] * e * s * t / p[1] ** 2, c * t, c, np.ones_like(t)], axis=1
    )


class TestFitLeastSquares:
    def test_exact_exponential_recovery(self):
        t = np.linspace(0.0, 5.0, 50)
        y = _exp_model(t, [2.0, 1.5])
        res = fit_least_squares(_exp_model, t, y, [1.0, 1.0], jac=_exp_jac)
        assert res.converged
        assert res.params == pytest.approx([2.0, 1.5], rel=1e-6)
        assert res.residual_norm <= 1e-8

    def test_constant_data_degenerate_amplitude(self):
        t = np.linspace(0.0, 5.0, 40)
        y = np.full_like(t, 0.5)
        res = fit_least_squares(_exp_offset_model, t, y, [0.3, 1.0, 0.0], jac=_exp_offset_jac)
        assert abs(res.params[0]) <= 1e-6
        assert res.params[2] == pytest.approx(0.5, abs=1e-6)

    def test_damped_sinusoid_recovery(self):
        true = np.array([0.8, 1.3, 2.0 * np.pi * 5.0, 0.7, 0.1])
        t = np.linspace(0.0, 3.0, 200)
        y = _damped_sine_model(t, true)
        res = fit_least_squares(_damped_sine_model, t, y, true * 1.05, jac=_damped_sine_jac)
        assert res.converged
        assert res.params == pytest.approx(true, rel=1e-6)

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.4, max_value=4.0),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_exponential_with_offset(self, a, tau, c):
        t = np.linspace(0.0, 3.0 * tau, 60)
        y = _exp_offset_model(t, [a, tau, c])
        res = fit_least_squares(
            _exp_offset_model, t, y, [a * 1.2, tau * 0.8, c + 0.05], jac=_exp_offset_jac
        )
        assert res.converged
        assert res.params[0] == pytest.approx(a, rel=1e-6, abs=1e-7)
        assert res.params[1] == pytest.approx(tau, rel=1e-6)
        assert res.params[2] == pytest.approx(c, rel=1e-6, abs=1e-7)

    def test_deterministic(self):
        t = np.linspace(0.0, 5.0, 50)
        y = _exp_model(t, [2.0, 1.5]) + 0.01 * np.sin(17.0 * t)
        r1 = fit_least_squares(_exp_model, t, y, [1.0, 1.0], jac=_exp_jac)
        r2 = fit_least_squares(_exp_model, t, y, [1.0, 1.0], jac=_exp_jac)
        assert np.array_equal(r1.params, r2.params)
        assert r1.iterations == r2.iterations

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            fit_least_squares(_exp_model, [0.0], [1.0], [1.0, 1.0], jac=_exp_jac)

    def test_non_finite_guess_rejected(self):
        with pytest.raises(ValueError):
            fit_least_squares(_exp_model, [0.0, 1.0], [1.0, 0.5], [np.nan, 1.0], jac=_exp_jac)

    def test_degenerate_model_raises(self):
        # Model ignores its parameters entirely and cannot match the data:
        # zero Jacobian with a non-vanishing gradient... the gradient is zero
        # too, so instead use a model whose residuals are non-finite away
        # from the start to exercise the damping-recovery failure path.
        def bad(t, p):
            return np.where(t > 0, np.nan, 1.0) * p[0]

        def bad_jac(t, p):
            return np.where(t > 0, np.nan, 1.0)[:, None]

        with pytest.raises(DegenerateFitError):
            fit_least_squares(bad, np.linspace(0, 1, 10), np.ones(10), [1.0], jac=bad_jac)

    def test_covariance_shape(self):
        t = np.linspace(0.0, 5.0, 50)
        y = _exp_model(t, [2.0, 1.5])
        res = fit_least_squares(_exp_model, t, y, [1.0, 1.0], jac=_exp_jac)
        assert res.covariance is not None
        assert res.covariance.shape == (2, 2)


# Every closed-form derivative handed to fit_least_squares, as (model, jac,
# parameters from (a, T, phase, c, w), whether the envelope is clipped).
# Parameter 1 is the time constant in each; the fixed-frequency sinusoid
# runs at the 5 MHz operating-point modulation.
JACOBIAN_CASES = {
    "fit_exp": (
        estimation._exp_model, estimation._exp_jac,
        lambda a, tau, phase, c, w: [a, tau, c], True,
    ),
    "fit_damped_sinusoid": (
        lambda t, p: estimation._sine_model(t, p, 31.4),
        lambda t, p: estimation._sine_jac(t, p, 31.4),
        lambda a, tau, phase, c, w: [a, tau, phase, c], True,
    ),
    "exp": (_exp_model, _exp_jac, lambda a, tau, phase, c, w: [a, tau], False),
    "exp_offset": (
        _exp_offset_model, _exp_offset_jac, lambda a, tau, phase, c, w: [a, tau, c], False,
    ),
    "damped_sine": (
        _damped_sine_model, _damped_sine_jac,
        lambda a, tau, phase, c, w: [a, tau, w, phase, c], False,
    ),
}


class TestJacobians:
    @pytest.mark.parametrize("name", list(JACOBIAN_CASES))
    @given(
        a=st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: abs(v) >= 0.1),
        log_tau=st.floats(min_value=-3.0, max_value=2.0),
        phase=st.floats(min_value=-np.pi, max_value=2.0 * np.pi),
        c=st.floats(min_value=-1.0, max_value=1.0),
        w=st.floats(min_value=0.5, max_value=60.0),
        t_max=st.floats(min_value=0.5, max_value=10.0),
        n=st.integers(min_value=8, max_value=64),
    )
    # The clip is active beyond t = 0.7 here.
    @example(a=0.7, log_tau=-3.0, phase=0.4, c=0.1, w=31.4, t_max=10.0, n=201)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_central_difference(self, name, a, log_tau, phase, c, w, t_max, n):
        model, jac, params, clipped = JACOBIAN_CASES[name]
        tau = 10.0**log_tau
        p = np.array(params(a, tau, phase, c, w))
        t = np.linspace(0.0, t_max, n)
        j = jac(t, p)
        assert j.dtype == np.float64 and j.flags.c_contiguous
        assert j.shape == (t.size, p.size)
        f = model(t, p)
        for i in range(p.size):
            # Central difference at a step relative to the parameter.  It is
            # good only to its rounding, eps * |f| / step, so the error is
            # relative to the column or to |f| per unit of the parameter.
            size = max(abs(p[i]), 1e-2)
            up, down = p.copy(), p.copy()
            up[i] += 1e-6 * size
            down[i] -= 1e-6 * size
            fd = (model(t, up) - model(t, down)) / (up[i] - down[i])
            scale = max(np.abs(j[:, i]).max(), np.abs(f).max() / size)
            assert np.abs(j[:, i] - fd).max() <= 1e-6 * scale, (name, i)
        if clipped:
            active = np.abs(t / tau) > 700.0
            assert np.all(j[active, 1] == 0.0)

    def test_fit_exp_pays_no_model_calls_for_derivatives(self, monkeypatch):
        # fit_exp on an exact trace, from its own initial guess: one jac call
        # at the start and at most one per iteration, and one model call per
        # trial step (at most one damping retry per iteration on average).
        calls = {"model": 0, "jac": 0}
        results = []

        def counted(model, t, y, guess, *, jac):
            def counted_model(tt, p):
                calls["model"] += 1
                return model(tt, p)

            def counted_jac(tt, p):
                calls["jac"] += 1
                return jac(tt, p)

            results.append(fit_least_squares(counted_model, t, y, guess, jac=counted_jac))
            return results[-1]

        monkeypatch.setattr(estimation, "fit_least_squares", counted)
        t = np.linspace(0.0, 5.0, 201)
        fit = estimation.fit_exp(t, 0.6 * np.exp(-t / 0.8) + 0.3)
        (res,) = results
        assert res.converged and fit.T == pytest.approx(0.8, rel=1e-9)
        assert 1 <= calls["jac"] <= res.iterations + 1
        assert calls["model"] <= 2 * (res.iterations + 1)

    def test_jacobian_shape_checked(self):
        t = np.linspace(0.0, 5.0, 50)
        y = _exp_model(t, [2.0, 1.5])
        with pytest.raises(ValueError, match="shape"):
            fit_least_squares(_exp_model, t, y, [1.0, 1.0], jac=lambda tt, p: _exp_jac(tt, p).T)


def _sweep_envelopes(seed, n_points=7):
    """The demodulated envelopes of a seeded sweep-detuning run: direct rates
    drawn as the benchmark draws them, 201 samples over 5 us, a grid
    symmetric about zero detuning."""
    rng = np.random.default_rng([seed, 20261018])
    n = rng.uniform(0.3, 1.5)
    rates = DecayRates.from_times(
        T1=rng.uniform(0.4, 0.9),
        T_phi=rng.uniform(4.0, 10.0),
        N=n,
        M=rng.uniform(0.5, 1.0) * math.sqrt(n * (n + 1.0)),
    )
    phi = (0.5 * math.pi, math.pi)[seed % 2]
    t = np.linspace(0.0, 5.0, 201)
    deltas = rng.uniform(1.0, 2.5) * np.linspace(-1.0, 1.0, n_points)
    s0 = np.array([math.sin(phi), math.cos(phi)])
    envelopes = []
    for d in deltas:
        r = replace(rates, delta=d)
        x, y = (frame_rotation(r, t) @ transverse_propagator_xy(r, t) @ s0).T
        iq = np.exp(2j * math.pi * 5.0 * t) * (x + 1j * y)
        envelopes.append(np.abs(iq * np.exp(-1j * (2.0 * math.pi * (5.0 - d)) * t)))
    return t, np.array(envelopes)


# Rows that fail on purpose, picked out by their initial guess: an amplitude
# above 50 makes the model non-finite, and an offset below -50 flips the sign
# of the Jacobian, so that every step climbs and no damping gives descent.
def _failing_model(t, p, model=estimation._exp_model):
    return np.where(p[..., 0, None] > 50.0, np.nan, model(t, p))


def _failing_jac(t, p):
    flip = np.where(p[..., 2] < -50.0, -1.0, 1.0)
    return estimation._exp_jac(t, p) * flip[..., None, None]


def _outcome(res):
    """Every byte of a stack entry: the failure text, or each result field."""
    if isinstance(res, DegenerateFitError):
        return ("failed", str(res))
    cov = None if res.covariance is None else res.covariance.tobytes()
    return (res.params.tobytes(), res.residual_norm, res.converged, res.iterations, cov)


def _fit_each_row_as_alone(t, y, guesses):
    """The stacked fit of ``y`` under :func:`_failing_model`, after checking
    that each row's entry has the bytes of that row fitted alone, and of the
    one-row :func:`fit_least_squares` (its result, or its error raised)."""
    guesses = np.asarray(guesses, dtype=float)
    stack = fit_least_squares_stack(_failing_model, t, y, guesses, jac=_failing_jac)
    assert len(stack) == len(y)
    for b, res in enumerate(stack):
        alone = fit_least_squares_stack(
            _failing_model, t, y[b : b + 1], guesses[b : b + 1], jac=_failing_jac
        )
        assert _outcome(res) == _outcome(alone[0]), b
        if isinstance(res, DegenerateFitError):
            with pytest.raises(DegenerateFitError) as exc:
                fit_least_squares(_failing_model, t, y[b], guesses[b], jac=_failing_jac)
            single = exc.value
        else:
            single = fit_least_squares(_failing_model, t, y[b], guesses[b], jac=_failing_jac)
        assert _outcome(single) == _outcome(res), b
    return stack


def _fit_alone(t, y, guesses, b):
    """Row ``b`` of the exponential stack ``y`` fitted on its own."""
    (res,) = fit_least_squares_stack(
        estimation._exp_model, t, y[b : b + 1], guesses[b : b + 1], jac=estimation._exp_jac
    )
    return res


class TestFitLeastSquaresStack:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_row_does_not_depend_on_its_stack(self, seed):
        t, y = _sweep_envelopes(seed)
        guesses = estimation._exp_guess(t, y)
        assert (np.ptp(y, axis=1) > 1e-3).all()  # no row is flat
        guesses = list(guesses)
        # Two rows that fail, in the middle: one non-finite at its guess, one
        # with no descent direction.
        y = np.insert(y, 3, [0.3 * np.exp(-t / 0.7) + 0.1, 0.5 * np.exp(-t) - 100.0], axis=0)
        guesses[3:3] = [[100.0, 0.5, 0.1], [0.4, 0.8, -99.0]]
        stack = _fit_each_row_as_alone(t, y, guesses)
        assert str(stack[3]) == "model returned non-finite residuals"
        assert str(stack[4]).startswith("no descent direction found (gradient norm ")
        assert sum(isinstance(res, DegenerateFitError) for res in stack) == 2

    def test_rows_out_of_iterations_beside_rows_that_converge(self, monkeypatch):
        # With 6 iterations allowed, some rows of this sweep converge and the
        # others run out: those report converged False at _MAX_ITER.
        monkeypatch.setattr(numerics, "_MAX_ITER", 6)
        t, y = _sweep_envelopes(6)
        guesses = estimation._exp_guess(t, y)
        stack = _fit_each_row_as_alone(t, y, guesses)
        assert {res.converged for res in stack} == {True, False}
        for res in stack:
            assert res.iterations <= 6
            assert res.converged or res.iterations == 6

    def test_every_row_non_finite_at_its_guess(self):
        t, y = _sweep_envelopes(7, n_points=3)
        guesses = [[100.0 + b, 0.5, 0.1] for b in range(len(y))]
        stack = _fit_each_row_as_alone(t, y, guesses)
        assert [str(res) for res in stack] == ["model returned non-finite residuals"] * len(y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squared_residuals_fail_at_the_guess(self):
        # Every residual of the middle row is finite, but their squares sum
        # past the float limit: that row fails at its guess with an error
        # naming the overflow, without a numpy warning, and the others fit
        # as alone.
        t, y = _sweep_envelopes(5)
        guesses = estimation._exp_guess(t, y)
        y = np.insert(y, 2, 1e300 * np.exp(-t), axis=0)
        guesses = np.insert(guesses, 2, [1.0, 1.0, 0.0], axis=0)
        stack = _fit_each_row_as_alone(t, y, guesses)
        assert str(stack[2]) == (
            "squared residuals overflow at the initial guess (largest |residual| 1.000e+300)"
        )
        assert sum(isinstance(res, DegenerateFitError) for res in stack) == 1

    def test_singular_row_takes_no_step(self, monkeypatch):
        # np.linalg.solve fails on every stack of several rows, so each round
        # solves row by row, and on the one row whose guess sits 1e3 below
        # its data (|b| near 2e5, against at most a few hundred for the
        # others): that row gets a NaN step, takes none and fails, and every
        # other row fits as alone.
        t, y = _sweep_envelopes(3)
        guesses = estimation._exp_guess(t, y)
        y = np.insert(y, 3, y[3] + 1e3, axis=0)
        guesses = np.insert(guesses, 3, guesses[3], axis=0)
        alone = [_fit_alone(t, y, guesses, b) for b in range(len(y))]
        solve = np.linalg.solve

        def failing_solve(a, b):
            if len(a) > 1 or np.abs(b).max() > 1e4:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        stack = fit_least_squares_stack(
            estimation._exp_model, t, y, guesses, jac=estimation._exp_jac
        )
        assert alone[3].converged
        assert str(stack[3]).startswith("no descent direction found (gradient norm ")
        for b in range(len(y)):
            if b != 3:
                assert _outcome(stack[b]) == _outcome(alone[b]), b

    def test_row_whose_covariance_fails_gets_none(self, monkeypatch):
        # np.linalg.pinv fails on the stack of fitted rows, and on the fourth
        # row retried alone: that row's covariance is None, and every other
        # outcome, that row's fit included, is as alone.
        t, y = _sweep_envelopes(4)
        guesses = estimation._exp_guess(t, y)
        alone = [_fit_alone(t, y, guesses, b) for b in range(len(y))]
        pinv, one_row = np.linalg.pinv, itertools.count()

        def failing_pinv(a):
            if len(a) > 1 or next(one_row) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return pinv(a)

        monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
        stack = fit_least_squares_stack(
            estimation._exp_model, t, y, guesses, jac=estimation._exp_jac
        )
        assert alone[3].covariance is not None
        assert stack[3].covariance is None
        assert _outcome(replace(stack[3], covariance=alone[3].covariance)) == _outcome(alone[3])
        for b in range(len(y)):
            if b != 3:
                assert _outcome(stack[b]) == _outcome(alone[b]), b

    def test_as_many_samples_as_parameters_has_no_covariance(self):
        # Three samples for (a, T, c): each fit is exact and its covariance
        # cannot be formed.
        t = np.array([0.0, 0.5, 1.5])
        params = np.array([[0.7, 0.8, 0.1], [0.5, 1.2, -0.2], [-0.4, 0.3, 0.6]])
        stack = _fit_each_row_as_alone(t, estimation._exp_model(t, params), 1.1 * params)
        assert all(res.covariance is None and res.converged for res in stack)

    def test_iterations_differ_across_the_stack(self):
        # The rows stop at different rounds, so rows leave the loop while
        # others go on.
        t, y = _sweep_envelopes(5)
        guesses = estimation._exp_guess(t, y)
        stack = fit_least_squares_stack(
            estimation._exp_model, t, y, guesses, jac=estimation._exp_jac
        )
        assert all(res.converged for res in stack)
        assert len({res.iterations for res in stack}) > 1

    def test_shapes_checked(self):
        t = np.linspace(0.0, 5.0, 50)
        y = np.ones((2, 50))
        with pytest.raises(ValueError, match="stack"):
            fit_least_squares_stack(_exp_model, t, y, [1.0, 1.0], jac=_exp_jac)
        with pytest.raises(ValueError, match="stack"):
            fit_least_squares_stack(_exp_model, t, y[:, :40], [[1.0, 1.0]] * 2, jac=_exp_jac)
        assert fit_least_squares_stack(_exp_model, t, y[:0], np.ones((0, 2)), jac=_exp_jac) == []


class TestFitExpStack:
    @pytest.mark.parametrize("seed", [6, 7])
    def test_matches_fit_exp_row_by_row(self, seed, monkeypatch):
        monkeypatch.setattr(estimation, "_exp_model", _failing_model)
        t, y = _sweep_envelopes(seed)
        # A flat row and a row whose model is non-finite at its guess (its
        # amplitude guess is above 50), in the middle.
        y = np.insert(y, 3, [np.full(t.size, 0.25), 300.0 * np.exp(-t / 0.9)], axis=0)
        fits = estimation.fit_exp(t, y)
        assert len(fits) == len(y)
        assert fits[3] == estimation.DecayFit(0.0, math.inf, 0.25, 0.0, True)
        assert str(fits[4]) == "model returned non-finite residuals"
        for b, (row, fit) in enumerate(zip(y, fits)):
            if isinstance(fit, DegenerateFitError):
                with pytest.raises(DegenerateFitError, match=f"^{fit}$"):
                    estimation.fit_exp(t, row)
            else:
                assert fit == estimation.fit_exp(t, row), b

    @pytest.mark.parametrize("fit", [estimation.fit_exp,
                                     lambda t, y: estimation.fit_damped_sinusoid(t, y, 5.0)],
                             ids=["exp", "sinusoid"])
    def test_rejects_a_3d_stack(self, fit):
        t = np.linspace(0.0, 5.0, 50)
        with pytest.raises(ValueError, match=r"^expected a trace or a \(rows, 50\) stack"):
            fit(t, np.exp(-t)[None, None])
