import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq import _series_py
from spineq.errors import DomainError
from spineq.specfun import (SeriesResult, complex_gamma, gauss_2f1,
                            gauss_2f1_info, kummer_phi, kummer_phi_info,
                            parabolic_d, reciprocal_gamma)

from conftest import assert_rel


def central_diff(f, z, h=1e-5):
    return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.int64).tolist()


def _assert_grid_matches_scalar(grid, scalar, z):
    values, terms, estimates = grid
    for i, zi in enumerate(z):
        value, n, est = scalar(complex(zi))
        assert _bits(values[i]) == _bits(value), f"value at z = {zi!r}"
        assert terms[i] == n, f"terms at z = {zi!r}"
        assert _bits(estimates[i]) == _bits(est), f"estimate at z = {zi!r}"


def _pfaff_image(theta):
    z = cmath.exp(1j * theta)
    return z / (z - 1.0)


_unit = st.floats(-1, 1, allow_nan=False)  # hits +-0.0 and the ends
_param = st.builds(complex, _unit, _unit)
_gamma = st.builds(complex, st.floats(0.5, 2), _unit)


class TestGridKernels:
    """The grid kernels against the scalar loops, bit for bit."""

    @given(_param, _param, _gamma,
           st.lists(st.builds(complex, st.floats(-0.95, 0.95), st.floats(-0.3, 0.3)),
                    min_size=1, max_size=8),
           st.lists(st.floats(1.2, 5.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_hyp2f1_grid(self, a, b, c, zs, thetas):
        # Pfaff images of unit-circle points, as gauss_2f1 passes them on
        z = np.array(zs + [0j, complex(-0.0, -0.0)] + [_pfaff_image(t) for t in thetas])
        _assert_grid_matches_scalar(_series_py.hyp2f1_grid(a, b, c, z),
                                    lambda x: _series_py.hyp2f1_series(a, b, c, x), z)

    @given(_param, _gamma,
           st.lists(st.builds(complex, st.floats(-6, 6), st.floats(-6, 6)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_hyp1f1_grid(self, a, c, zs):
        z = np.array(zs + [complex(0.0, -0.0)])
        _assert_grid_matches_scalar(_series_py.hyp1f1_grid(a, c, z),
                                    lambda x: _series_py.hyp1f1_series(a, c, x), z)

    def test_cap_hit_element(self):
        # 2500j is where entry 16 on [-50, 50] runs out of terms
        z = np.array([0.5j, 2500.100001j, -3.0])
        grid = _series_py.hyp1f1_grid(0.5j, 0.5, z)
        assert grid[1][1] == -1
        _assert_grid_matches_scalar(grid, lambda x: _series_py.hyp1f1_series(0.5j, 0.5, x), z)
        # F(1, 1; 1.5; 1) diverges: its terms fall off like k^-1/2
        z = np.array([1.0, 0.25])
        grid = _series_py.hyp2f1_grid(1, 1, 1.5, z)
        assert grid[1][0] == -1
        _assert_grid_matches_scalar(grid, lambda x: _series_py.hyp2f1_series(1, 1, 1.5, x), z)

    def test_specfun_arrays_take_the_scalar_branches(self):
        theta = np.linspace(1.2, 5.0, 7)
        z = np.concatenate([np.exp(1j * theta), [0.3, -0.2j, 0.99j]]).astype(object)
        a, b, c = 0.3 + 0.1j, -0.4j, 1.2 + 0.2j  # Re(c - a - b) > 0.05: slow series at 0.99j
        got = gauss_2f1(a, b, c, z)
        assert all(type(v) is complex for v in got)
        assert _bits(got.tolist()) == _bits([gauss_2f1(a, b, c, x) for x in z])
        got = kummer_phi(a, c, 4 * z)
        assert _bits(got.tolist()) == _bits([kummer_phi(a, c, 4 * x) for x in z])
        got = parabolic_d(a, 3 * z)
        assert _bits(got.tolist()) == _bits([parabolic_d(a, 3 * x) for x in z])

    def test_specfun_arrays_raise_the_scalar_errors(self):
        z = np.array([0.5, 1.5 + 0j], dtype=object)
        with pytest.raises(DomainError, match="branch cut"):
            gauss_2f1(0.2, 0.3, 1.1, z)
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, -3, z)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3 + 1j, -0.7, 1.5, 0.0) == 1.0

    def test_log_closed_form(self):
        # F(1,1;2;z) = -ln(1-z)/z
        assert_rel(gauss_2f1(1, 1, 2, 0.5), -math.log(0.5) / 0.5, 1e-13)

    def test_binomial_closed_form(self):
        # F(2,b;b;z) = (1-z)^-2 for any b
        assert_rel(gauss_2f1(2, 0.77, 0.77, 0.25), 0.75 ** -2, 1e-13)

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, 0, 0.5)
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, -3, 0.5)

    def test_branch_cut_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.3, 0.4, 1.2, 1.5)

    def test_series_metadata(self):
        info = gauss_2f1_info(0.3, 0.4, 1.2, 0.5)
        assert isinstance(info, SeriesResult)
        assert info.terms_used > 0
        assert info.truncation_estimate <= 1e-15

    def test_pfaff_transformation_random(self, rng):
        # F(a,b;c;z) = (1-z)^-a F(a, c-b; c; z/(z-1)), both sides in-domain
        for _ in range(100):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1))
            assert_rel(lhs, rhs, 1e-9, scale=1 + abs(lhs))

    def test_unit_circle_point(self):
        # argument on the unit circle handled through the Pfaff route
        z = -cmath.exp(-2j * 0.7)
        val = gauss_2f1(0.9 + 0.8j, 0.2 - 0.5j, 0.8 - 0.5j, z)
        assert cmath.isfinite(val)

    def test_derivative_relation(self):
        a, b, c = 0.4 + 0.2j, 1.1, 1.7 - 0.3j
        f = lambda z: gauss_2f1(a, b, c, z)
        got = central_diff(f, 0.3)
        want = a * b / c * gauss_2f1(a + 1, b + 1, c + 1, 0.3)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))

    def test_contiguous_relation_random(self, rng):
        # (c-a) F(a-1,b;c;z) + (2a-c+(b-a)z) F(a,b;c;z) + a(z-1) F(a+1,b;c;z) = 0
        for _ in range(100):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            r = ((c - a) * gauss_2f1(a - 1, b, c, z)
                 + (2 * a - c + (b - a) * z) * gauss_2f1(a, b, c, z)
                 + a * (z - 1) * gauss_2f1(a + 1, b, c, z))
            assert abs(r) <= 1e-10 * (1 + abs(gauss_2f1(a, b, c, z)))


class TestKummerPhi:
    def test_at_zero(self):
        assert kummer_phi(0.3 + 1j, 1.5, 0.0) == 1.0

    def test_exponential_closed_form(self):
        assert_rel(kummer_phi(1.7, 1.7, 1.0), math.e, 1e-13)

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_phi(1, -2, 0.5)

    def test_kummer_transformation_specific(self):
        a, g, z = 1 + 1j, 2.5, 3j
        lhs = kummer_phi(a, g, z)
        rhs = cmath.exp(z) * kummer_phi(g - a, g, -z)
        assert_rel(lhs, rhs, 1e-12, scale=1 + abs(lhs))

    def test_kummer_transformation_random(self, rng):
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            lhs = kummer_phi(a, g, z)
            rhs = cmath.exp(z) * kummer_phi(g - a, g, -z)
            assert_rel(lhs, rhs, 1e-9, scale=1 + abs(lhs))

    def test_derivative_relation(self):
        a, g = 0.8 - 0.4j, 1.9
        f = lambda z: kummer_phi(a, g, z)
        got = central_diff(f, 0.7)
        want = a / g * kummer_phi(a + 1, g + 1, 0.7)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))

    def test_metadata_invariant(self):
        info = kummer_phi_info(0.5, 1.5, 2.0 + 1j)
        assert info.truncation_estimate <= 1e-15


class TestComplexGamma:
    def test_one(self):
        assert_rel(complex_gamma(1.0), 1.0, 1e-14)

    def test_half(self):
        assert_rel(complex_gamma(0.5), math.sqrt(math.pi), 1e-13)

    def test_modulus_one_plus_i(self):
        # |Gamma(1+i)|^2 = pi / sinh(pi)
        got = abs(complex_gamma(1 + 1j)) ** 2
        assert_rel(got, math.pi / math.sinh(math.pi), 1e-12)

    def test_recurrence_random(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            lhs = complex_gamma(z + 1)
            rhs = z * complex_gamma(z)
            assert_rel(lhs, rhs, 1e-12, scale=abs(lhs) + abs(rhs))

    def test_pole_rejected(self):
        for z in (0, -1, -5):
            with pytest.raises(DomainError):
                complex_gamma(z)
        assert reciprocal_gamma(0) == 0
        assert reciprocal_gamma(-3) == 0

    @pytest.mark.parametrize("fn, args", [
        (complex_gamma, (math.nan,)), (complex_gamma, (math.inf,)),
        (reciprocal_gamma, (math.nan,)), (parabolic_d, (math.nan, 1)),
        (gauss_2f1, (1, 1, math.nan, 0.1)), (kummer_phi, (1, math.inf, 0.1))])
    def test_non_finite_argument_rejected(self, fn, args):
        # not the bare ValueError or OverflowError of rounding it
        with pytest.raises(DomainError, match="not finite"):
            fn(*args)


class TestParabolicD:
    def test_d0(self):
        assert_rel(parabolic_d(0, 2.0), math.exp(-1.0), 1e-13)

    def test_d1(self):
        assert_rel(parabolic_d(1, 1.0), math.exp(-0.25), 1e-13)

    def test_recurrence_complex(self):
        # D_{p+1}(z) - z D_p(z) + p D_{p-1}(z) = 0
        p, z = 0.5 + 0.3j, 1 + 1j
        r = parabolic_d(p + 1, z) - z * parabolic_d(p, z) + p * parabolic_d(p - 1, z)
        assert abs(r) <= 1e-10 * (1 + abs(parabolic_d(p, z)))

    def test_recurrence_random(self, rng):
        for _ in range(50):
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = parabolic_d(p + 1, z) - z * parabolic_d(p, z) + p * parabolic_d(p - 1, z)
            scale = 1 + abs(parabolic_d(p, z)) + abs(parabolic_d(p + 1, z))
            assert abs(r) <= 1e-10 * scale

    def test_derivative_relation(self):
        # D_p'(z) = (z/2) D_p(z) - D_{p+1}(z)
        p = 0.7 - 0.2j
        f = lambda z: parabolic_d(p, z)
        got = central_diff(f, 0.9)
        want = 0.45 * parabolic_d(p, 0.9) - parabolic_d(p + 1, 0.9)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))
