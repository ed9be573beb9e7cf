import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch.reservoir import (
    QuadratureVariances,
    SqueezedReservoir,
    WignerGrid,
    attenuate,
    eta_curve,
    ideal_M,
    thermal_from_population,
    variances,
    wigner,
    wigner_grid_for,
)
from sqbloch._table import _decimal9, _format_rows
from sqbloch.errors import UnphysicalRatesError

# Reference operating point: N = 0.88, M = 1.08.
OPERATING = SqueezedReservoir(N=0.88, M=1.08)


def physical_reservoirs():
    """Strategy for valid (N, |M|) pairs: |M| = f * ideal_M(N), f in [0, 1]."""
    return st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).map(lambda nf: SqueezedReservoir(N=nf[0], M=nf[1] * ideal_M(nf[0])))


class TestSqueezedReservoir:
    def test_rejects_unphysical_moments(self):
        with pytest.raises(ValueError, match="unphysical"):
            SqueezedReservoir(N=0.5, M=1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"N": math.nan}, {"M": complex(0.0, math.inf)}, {"bandwidth": math.inf}],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            SqueezedReservoir(**{"N": 0.5, "M": 0.1, **kwargs})

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            SqueezedReservoir(N=-0.1, M=0.0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            SqueezedReservoir(N=0.0, M=0.0, bandwidth=0.0)

    def test_complex_m_allowed(self):
        r = SqueezedReservoir(N=1.0, M=1.0j)
        assert r.M_abs == 1.0


class TestVariances:
    @pytest.mark.parametrize("n, m", [(1e308, 0.0), (1e308, 1e308), (8.99e307, 8.99e307)])
    def test_overflow_raises(self, n, m):
        # Finite moments whose sigma_I^2 = 2(N + |M| + 1/2) overflows.
        r = SqueezedReservoir(N=n, M=m)
        with pytest.raises(UnphysicalRatesError, match=r"sigma_I\^2 = .* is not finite"):
            variances(r)

    def test_largest_finite_variance(self):
        v = variances(SqueezedReservoir(N=8.98e307, M=0.0))
        assert v.sigmaI_sq == v.sigmaQ_sq == 2.0 * (8.98e307 + 0.5)

    def test_vacuum(self):
        v = variances(SqueezedReservoir(N=0.0, M=0.0))
        assert (v.sigmaI_sq, v.sigmaQ_sq) == (1.0, 1.0)

    def test_reference_moments(self):
        v = variances(OPERATING)
        assert v.sigmaI_sq == pytest.approx(4.92)
        assert v.sigmaQ_sq == pytest.approx(0.60)

    def test_ideal_squeezing_at_n_one(self):
        v = variances(SqueezedReservoir(N=1.0, M=math.sqrt(2.0)))
        assert v.sigmaI_sq == pytest.approx(5.8284, abs=1e-4)
        assert v.sigmaQ_sq == pytest.approx(0.1716, abs=1e-4)

    @given(physical_reservoirs())
    @settings(max_examples=80)
    def test_uncertainty_identity(self, r):
        v = variances(r)
        product = v.sigmaI_sq * v.sigmaQ_sq
        expected = (2.0 * r.N + 1.0) ** 2 - 4.0 * r.M_abs**2
        assert product == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert product >= 1.0 - 1e-9

    def test_uncertainty_saturated_at_ideal_m(self):
        r = SqueezedReservoir(N=0.7, M=ideal_M(0.7))
        v = variances(r)
        assert v.sigmaI_sq * v.sigmaQ_sq == pytest.approx(1.0, abs=1e-12)


class TestIdealM:
    def test_values(self):
        assert ideal_M(0.0) == 0.0
        assert ideal_M(0.88) == pytest.approx(1.2862, abs=1e-4)
        assert ideal_M(1.0) == pytest.approx(1.41421, abs=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ideal_M(-1.0)


class TestAttenuate:
    def test_identity_at_unit_eta(self):
        out = attenuate(OPERATING, 1.0)
        assert out == OPERATING

    def test_vacuum_fixed_point(self):
        vac = SqueezedReservoir(N=0.0, M=0.0)
        out = attenuate(vac, 0.37)
        assert out.N == 0.0 and out.M == 0.0

    def test_half_transmission_of_ideal_source(self):
        source = SqueezedReservoir(N=1.76, M=math.sqrt(1.76 * 2.76))
        out = attenuate(source, 0.5)
        assert out.N == pytest.approx(0.88)
        assert out.M_abs == pytest.approx(1.102, abs=1e-3)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            attenuate(OPERATING, 0.0)
        with pytest.raises(ValueError):
            attenuate(OPERATING, 1.2)

    @given(
        physical_reservoirs(),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_composition(self, r, a, b):
        once = attenuate(attenuate(r, a), b)
        combined = attenuate(r, a * b)
        assert once.N == pytest.approx(combined.N, rel=1e-12, abs=1e-15)
        assert once.M == pytest.approx(combined.M, rel=1e-12, abs=1e-15)

    @given(physical_reservoirs(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=80)
    def test_preserves_physicality(self, r, eta):
        out = attenuate(r, eta)  # constructor enforces the bound
        assert out.M_abs**2 <= out.N * (out.N + 1.0) + 1e-9


class TestEtaCurve:
    def test_values(self):
        assert eta_curve(0.0, 0.5) == 0.0
        assert eta_curve(0.88, 0.5) == pytest.approx(0.222, abs=1e-3)
        assert eta_curve(0.88, 1.0) == pytest.approx(0.406, abs=1e-3)

    @given(st.floats(min_value=1e-6, max_value=5.0), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60)
    def test_matches_attenuated_ideal_source(self, n, eta):
        n_in = n / eta
        source = SqueezedReservoir(N=n_in, M=ideal_M(n_in))
        out = attenuate(source, eta)
        assert out.M_abs - out.N == pytest.approx(eta_curve(n, eta), rel=1e-9, abs=1e-12)


class TestThermalFromPopulation:
    def test_values(self):
        assert thermal_from_population(0.0) == 0.0
        assert thermal_from_population(0.018) == pytest.approx(0.01867, abs=1e-5)
        assert thermal_from_population(0.018) <= 0.019
        assert thermal_from_population(0.25) == pytest.approx(0.5)

    def test_rejects_unphysical_population(self):
        with pytest.raises(ValueError):
            thermal_from_population(0.5)
        with pytest.raises(ValueError):
            thermal_from_population(-0.01)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60)
    def test_roundtrip(self, n_th):
        p = n_th / (2.0 * n_th + 1.0)
        assert thermal_from_population(p) == pytest.approx(n_th, rel=1e-12, abs=1e-12)


class TestWigner:
    def test_vacuum_peak(self):
        grid = wigner_grid_for(QuadratureVariances(1.0, 1.0), n_points=41)
        center = grid.values[20, 20]
        assert center == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_squeezed_peak(self):
        grid = wigner_grid_for(QuadratureVariances(4.92, 0.60), n_points=41)
        assert grid.values[20, 20] == pytest.approx(0.3705, abs=1e-4)

    def test_normalization(self):
        grid = wigner_grid_for(QuadratureVariances(4.92, 0.60), n_points=241, n_sigmas=5.0)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_four_sigma_integral_bound(self):
        grid = wigner_grid_for(QuadratureVariances(1.0, 1.0), n_points=121, n_sigmas=4.0)
        assert 0.98 <= grid.integral() <= 1.0

    def test_nonnegative_and_symmetric(self):
        grid = wigner_grid_for(QuadratureVariances(4.92, 0.60), n_points=51)
        assert np.all(grid.values >= 0.0)
        assert np.array_equal(grid.values, grid.values[::-1, :])
        assert np.array_equal(grid.values, grid.values[:, ::-1])

    @pytest.mark.parametrize("n_points", [2, 3, 40, 41, 241])
    @pytest.mark.parametrize(
        "v",
        [
            QuadratureVariances(1.0, 1.0),
            QuadratureVariances(4.92, 0.60),
            variances(SqueezedReservoir(N=3.0, M=ideal_M(3.0))),
            variances(SqueezedReservoir(N=0.37, M=0.21)),
        ],
    )
    def test_grid_is_exactly_even(self, v, n_points):
        # Both axes are exactly antisymmetric (== compares every nonzero
        # sample's bits), so the values are even in I and in Q bit for bit,
        # and an odd grid's centre sample is +0.0.
        grid = wigner_grid_for(v, n_points=n_points)
        bits = grid.values.view(np.uint64)
        for axis in (grid.I_axis, grid.Q_axis):
            assert np.array_equal(axis, -axis[::-1])
        assert np.array_equal(bits, bits[::-1, :])
        assert np.array_equal(bits, bits[:, ::-1])
        if n_points % 2:
            centre = n_points // 2
            assert grid.I_axis[centre] == 0.0 and grid.Q_axis[centre] == 0.0
            assert math.copysign(1.0, grid.I_axis[centre]) == 1.0  # printed "0"
            assert math.copysign(1.0, grid.Q_axis[centre]) == 1.0
        rows = np.column_stack((grid.I_axis, grid.values))
        header = "," + ",".join("%.9g" % q for q in grid.Q_axis.tolist()) + "\n"
        text = "#schema=wigner-grid-v1\n" + header + _per_value_rows(rows)
        assert grid.to_csv() == text

    def test_csv_roundtrip(self):
        grid = wigner_grid_for(QuadratureVariances(1.0, 1.0), n_points=5)
        text = grid.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "#schema=wigner-grid-v1"
        header = lines[1].split(",")
        assert header[0] == ""
        assert [float(x) for x in header[1:]] == pytest.approx(list(grid.Q_axis))
        row = lines[2].split(",")
        assert float(row[0]) == pytest.approx(grid.I_axis[0])
        assert float(row[1]) == pytest.approx(grid.values[0, 0], rel=1e-8)

    def test_csv_matches_per_value_format(self):
        i_axis = np.array([-3.25, -0.0, 0.0, 1e-310, 7.0 / 3.0])
        q_axis = np.array([-1.5e300, -2.0 / 3.0, 0.0, 4.9e-324, 123456789.123, 1e22])
        values = np.abs(np.outer(i_axis, q_axis)) + np.array([0.0, 1e-300, 5e-324, 0.1, 2.5, 1e300])
        values[0, 0] = 0.0
        grid = WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)
        lines = ["#schema=wigner-grid-v1", "," + ",".join(f"{q:.9g}" for q in q_axis)]
        for i, row in zip(i_axis, values):
            lines.append(f"{i:.9g}," + ",".join(f"{w:.9g}" for w in row))
        assert grid.to_csv() == "\n".join(lines) + "\n"
        realistic = wigner_grid_for(QuadratureVariances(4.92, 0.60), n_points=41)
        assert realistic.to_csv().splitlines()[2] == ",".join(
            f"{x:.9g}" for x in [realistic.I_axis[0], *realistic.values[0]]
        )

    def test_explicit_axes(self):
        g = wigner(QuadratureVariances(1.0, 1.0), np.array([0.0]), np.array([0.0, 1.0]))
        assert g.values.shape == (1, 2)

    @pytest.mark.parametrize("size_q", [0, 2, 7, 41])
    @pytest.mark.parametrize("size_i", [1, 2, 40, 41])
    @pytest.mark.parametrize("kind_i", ["antisymmetric", "shifted", "centre -0", "random"])
    @pytest.mark.parametrize("kind_q", ["antisymmetric", "random"])
    def test_values_equal_the_full_formula(self, size_i, size_q, kind_i, kind_q):
        # On antisymmetric, shifted, -0-centred and random axes alike, every
        # value's bits are the full broadcast formula's.
        rng = np.random.default_rng(7 * size_i + size_q)

        def axis(kind, size):
            a = np.linspace(-2.5, 2.5, size) * rng.uniform(0.5, 2.0)
            a = 0.5 * (a - a[::-1])
            if kind == "shifted" and size:
                a[-1] = np.nextafter(a[-1], 3.0)  # one ulp off the mirror of a[0]
            elif kind == "centre -0" and size % 2:
                a[size // 2] = -0.0  # still == its negation
            elif kind == "random":
                a = rng.normal(size=size)
            return a

        v = QuadratureVariances(4.92, 0.60)
        i_axis, q_axis = axis(kind_i, size_i), axis(kind_q, size_q)
        full = _broadcast_formula(v, i_axis, q_axis)
        values = wigner(v, i_axis, q_axis).values
        assert values.shape == full.shape
        assert np.array_equal(values.view(np.uint64), full.view(np.uint64))

    @pytest.mark.parametrize("kind", ["grid", "shifted", "random"])
    @pytest.mark.parametrize(
        "v",
        [
            QuadratureVariances(1.0, 1.0),
            variances(OPERATING),
            variances(SqueezedReservoir(N=3.0, M=(1.0 - 1e-9) * ideal_M(3.0))),
        ],
        ids=["vacuum", "operating", "near-ideal"],
    )
    def test_grid_keeps_the_formula_bits(self, v, kind):
        # The exponent, exponentiated and scaled in place, holds the bits of
        # norm * np.exp(...) on the 241-point grid and off its symmetry: a
        # grid larger than numpy's 8192-element ufunc buffer, which the
        # small grids above never fill.
        grid = wigner_grid_for(v)
        i_axis, q_axis = grid.I_axis.copy(), grid.Q_axis.copy()
        if kind == "shifted":
            i_axis[-1] = np.nextafter(i_axis[-1], np.inf)
            q_axis[0] = np.nextafter(q_axis[0], -np.inf)
        elif kind == "random":
            rng = np.random.default_rng(37)
            i_axis, q_axis = rng.normal(size=241) * i_axis[-1], rng.normal(size=240)
        values = wigner(v, i_axis, q_axis).values
        full = _broadcast_formula(v, i_axis, q_axis)
        assert np.array_equal(values.view(np.uint64), full.view(np.uint64))

    def test_one_grid_sized_array(self):
        # The grid's one float array (464,648 bytes at 241 points) plus the
        # nonnegativity mask and the iterator buffers stay under 1.25 grids.
        v = variances(OPERATING)
        wigner_grid_for(v)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            grid = wigner_grid_for(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.nbytes == 464_648
        assert peak <= 1.25 * grid.values.nbytes

    @pytest.mark.parametrize("n", [1e160, 1e200, 1e300])
    def test_overflowing_normalization_raises(self, n):
        # sigma_I^2 and sigma_Q^2 are finite, their product is not, so the
        # normalization 2/(pi sqrt(...)) would be 0 and the grid all zeros.
        v = variances(SqueezedReservoir(N=n, M=0.0))
        assert math.isfinite(v.sigmaI_sq) and math.isfinite(v.sigmaQ_sq)
        with pytest.raises(UnphysicalRatesError, match=r"sigma_I\^2 sigma_Q\^2 = .* overflows"):
            wigner(v, np.array([0.0]), np.array([0.0]))
        with pytest.raises(UnphysicalRatesError, match="overflows"):
            wigner_grid_for(v)


def _broadcast_formula(v, i_axis, q_axis) -> np.ndarray:
    """The Wigner values as one broadcast expression."""
    norm = 2.0 / (math.pi * math.sqrt(v.sigmaI_sq * v.sigmaQ_sq))
    ii, qq = i_axis[:, None], q_axis[None, :]
    return norm * np.exp(-2.0 * ii**2 / v.sigmaI_sq - 2.0 * qq**2 / v.sigmaQ_sq)


def _per_value_rows(rows) -> str:
    """The reference encoding: one Python "%.9g" per value."""
    return "".join(",".join("%.9g" % v for v in row) + "\n" for row in np.asarray(rows).tolist())


def _float_bits():
    """Any float64, drawn as a 64-bit pattern: NaNs, infinities, subnormals."""
    return st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
    )


def _fast_range():
    """Magnitudes the vectorised encoder formats itself, either sign."""
    return st.tuples(
        st.booleans(), st.floats(min_value=1e-14, max_value=1e31, exclude_max=True)
    ).map(lambda sv: -sv[1] if sv[0] else sv[1])


class TestCsvEncoder:
    """``_table._format_rows`` against Python's correctly rounded "%.9g"."""

    @given(st.lists(_float_bits(), min_size=1, max_size=12))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_any_bit_pattern(self, values):
        assert _format_rows(np.array([values])) == _per_value_rows([values])

    @given(st.lists(_fast_range(), min_size=1, max_size=12))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_fast_range(self, values):
        assert _format_rows(np.array([values])) == _per_value_rows([values])

    @pytest.mark.parametrize(
        "x",
        [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-14, math.nextafter(1e-14, 0.0), math.nextafter(1e-14, 1.0),
            -1e-14, 9.999999995e-5, 99999999.95, 999999999.5, 999999999.4,
            1e9, 1e16, 1e22, 1e30, math.nextafter(1e31, 0.0), 1e31,
            math.inf, -math.inf, math.nan,
            # The layout switches: e = -5 | -4 (fixed from 1e-4) and 8 | 9.
            1.23456789e-5, 1.2e-5, 1e-5, 1e-4, 1.5e-4, 1.23456789e-4,
            123456789.0, 100000000.0, 123456789.4, 1234567890.0, 1.5e9,
            0.1, 0.5, 1.0, -1.0, 2.0 / 3.0, -7.0 / 3.0, 12345.0, 1e8,
            # Mantissas that round up to 1e9 carry into the exponent.
            9999999996.0, 0.99999999987, 9.9999999996e-5, 99999999.97,
        ],
    )
    def test_hand_picked(self, x):
        assert _format_rows(np.array([[x, -x]])) == _per_value_rows([[x, -x]])

    @pytest.mark.parametrize(
        "x, fast, text",
        [
            # The double below 1.000000005 scales to exactly 100000000.5, so
            # rint cannot tell which way to round; its upper neighbour can.
            (1.000000005, False, "1"),
            (math.nextafter(1.000000005, 2.0), True, "1.00000001"),
            (123456789.5, False, "123456790"),  # exact ties round half to even
            (123456788.5, False, "123456788"),
        ],
    )
    def test_halfway_takes_the_fallback(self, x, fast, text):
        _, _, ok = _decimal9(np.array([x]))
        assert ok[0] == fast
        assert _format_rows(np.array([[x]])) == text + "\n" == _per_value_rows([[x]])

    def test_powers_of_ten_take_the_fast_path(self):
        # log10 rounds the doubles just below a power of ten up to it; one
        # correction step keeps them exact and vectorised.  (The double
        # 1e-14 lies below 10**-14, outside the range.)
        powers = [float(f"1e{k}") for k in range(-13, 31)]
        x = np.array(
            [y for p in powers for y in (math.nextafter(p, 0.0), p, math.nextafter(p, 2 * p))]
        )
        _, _, ok = _decimal9(x)
        assert ok.all()
        assert _format_rows(x[None, :]) == _per_value_rows([x])

    @pytest.mark.parametrize(
        "v",
        [
            QuadratureVariances(1.0, 1.0),
            QuadratureVariances(4.92, 0.60),
            variances(SqueezedReservoir(N=3.0, M=ideal_M(3.0))),
            variances(SqueezedReservoir(N=2.0, M=0.0)),
        ],
    )
    def test_full_grids(self, v):
        grid = wigner_grid_for(v)
        header = ",".join("%.9g" % q for q in grid.Q_axis.tolist())
        body = _per_value_rows(np.column_stack((grid.I_axis, grid.values)))
        assert grid.to_csv() == "#schema=wigner-grid-v1\n," + header + "\n" + body
        # Every cell but the exact zeros on the axes takes the vectorised path.
        _, _, ok = _decimal9(np.column_stack((grid.I_axis, grid.values)).ravel())
        assert np.count_nonzero(~ok) == np.count_nonzero(grid.I_axis == 0.0)
