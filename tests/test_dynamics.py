import cmath
import contextlib
import io
import json
import math
import re
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq import catalog, dynamics, numutil
from spineq.darboux import darboux_params_mu_route
from spineq.dynamics import (BlochState, bloch_propagate, constant_field_propagator,
                             evolution_constant_direction, evolution_from_q,
                             field_from_q, hamiltonian_check, propagate,
                             se_residual, se_residuals, stationary_solutions,
                             CSV_HEADER, POLE_BAND, Trajectory)
from spineq.errors import (AccuracyError, DomainError, FieldParseError, IntegrationError,
                           SingularityError, SpinEqError)
from spineq.fields import (CatalogField, ConstField, ExprField, check_poles, field_callable,
                           parse_field_spec)
from spineq.numutil import central_difference, fd_derivative
from spineq.reductions import ReductionPlan, reduce_field, transform_matrix
from spineq.spinors import (CVec3, Spinor, anticonjugate_arr, frame,
                            l_vector_arr, sigma_dot)

from conftest import assert_rel, bloch_vector_path


class TestPropagate:
    def test_zero_field_is_constant(self):
        traj = propagate(ConstField((0, 0, 0)), Spinor(0.6, 0.8j), (0, 5), 1e-10)
        assert_rel(traj.states, np.tile([0.6, 0.8j], (len(traj.times), 1)), 1e-11)

    def test_diagonal_field_phases(self):
        f = 0.7
        traj = propagate(ConstField((0, 0, f)), Spinor(0.5, 1.0), (0, 3), 1e-11,
                         n_nodes=51)
        want = np.stack([0.5 * np.exp(-1j * f * traj.times),
                         1.0 * np.exp(1j * f * traj.times)], axis=1)
        assert_rel(traj.states, want, 1e-9)

    def test_norm_conservation_real_field(self):
        spec = parse_field_spec("F1 = cos(t); F2 = 0.4*sin(3*t); F3 = 1 - 0.2*t")
        tol = 1e-9
        traj = propagate(spec, Spinor(1, 0.5), (0, 6), tol)
        drift = np.max(np.abs(traj.norms() - traj.norms()[0]))
        assert drift <= 10 * tol

    def test_rabi_matches_rotating_frame_closed_form(self):
        f, Omega, F3 = 0.7, 1.3, 0.4
        spec = parse_field_spec(
            f"F1 = {f}*cos({Omega}*t); F2 = {f}*sin({Omega}*t); F3 = {F3}")
        V0 = np.array([0.8, 0.1 - 0.4j])
        traj = propagate(spec, V0, (0, 5), 1e-12, n_nodes=101)
        plan = ReductionPlan.make(CVec3(0, 0, 1), lambda t: Omega * t / 2,
                                  lambda t: Omega / 2)
        Fred = reduce_field(spec, plan, 0.0).as_array()
        for i, t in enumerate(traj.times):
            lab = np.linalg.inv(transform_matrix(plan, t)) @ (
                constant_field_propagator(Fred, t) @ V0)
            assert np.max(np.abs(lab - traj.states[i])) <= 1e-8

    def test_self_convergence(self):
        spec = parse_field_spec("F1 = cos(3*t); F3 = sin(2*t)")
        ref = propagate(spec, Spinor(1, 0), (0, 20), 1e-13, n_nodes=41)
        loose = propagate(spec, Spinor(1, 0), (0, 20), 1e-6, n_nodes=41)
        tight = propagate(spec, Spinor(1, 0), (0, 20), 1e-10, n_nodes=41)
        err_loose = np.max(np.abs(loose.states - ref.states))
        err_tight = np.max(np.abs(tight.states - ref.states))
        assert err_tight < err_loose
        assert err_tight < 1e-8

    def test_singularity_reported(self):
        spec = parse_field_spec("F3 = 1/(t - 0.5)")
        with pytest.raises((IntegrationError, SpinEqError)):
            propagate(spec, Spinor(1, 0), (0, 1), 1e-10)

    def test_tol_floor(self):
        with pytest.raises(DomainError):
            propagate(ConstField((0, 0, 1)), Spinor(1, 0), (0, 1), 1e-14)

    @pytest.mark.parametrize("V0", [[math.nan, 0], [1, complex(0, math.inf)]])
    def test_non_finite_start_rejected(self, V0):
        with pytest.raises(DomainError, match="not finite"):
            propagate(ConstField((0, 0, 1)), V0, (0, 1), 1e-10)

    def test_csv_export(self, tmp_path):
        traj = propagate(ConstField((0, 0, 1)), Spinor(1, 0), (0, 1), 1e-10,
                         n_nodes=11)
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            traj.to_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12
        assert len(lines[1].split(",")) == 12

    def test_csv_rows_format_each_value_as_before(self):
        # the row format string against formatting value by value, with
        # signed zeros and a non-finite field sample
        import io
        traj = propagate(parse_field_spec("F1 = 0.3; F3 = t"), Spinor(1, 1j), (-1, 1),
                         1e-8, n_nodes=9)
        fs = traj.field_samples.copy()
        fs[0] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(float("inf"), -1e-300)]
        traj = Trajectory(traj.times, traj.states, fs, traj.est_error)
        fh = io.StringIO()
        traj.to_csv(fh)
        want = [CSV_HEADER]
        for t, v, f, n in zip(traj.times, traj.states, traj.field_samples, traj.norms()):
            row = [t, v[0].real, v[0].imag, v[1].real, v[1].imag, f[0].real, f[0].imag,
                   f[1].real, f[1].imag, f[2].real, f[2].imag, n]
            want.append(",".join("%.16e" % x for x in row))
        assert fh.getvalue() == "\n".join(want) + "\n"
        first = fh.getvalue().splitlines()[1].split(",")
        assert first[5] == first[8] == "-0.0000000000000000e+00"
        assert first[9] == "inf"


class TestDeclaredPoles:
    def test_params_override_is_checked(self):
        # the pole of entry 20 moves from pi/2 to pi/4 when the spec's w = 2
        # overrides the entry's default
        spec = CatalogField(20, {"w": 2.0})
        with pytest.raises(DomainError) as ei:
            propagate(spec, [1, 0], (0.2, 1.5), n_nodes=7)
        assert str(ei.value) == (
            "window [0.2, 1.5] contains declared field poles at [0.7853981633974483]")
        with pytest.raises(DomainError, match="declared field poles"):
            bloch_propagate(spec, BlochState(np.array([1.0, 0, 0]), 0.0, 1.0),
                            (0.2, 1.5), n_nodes=7)

    @pytest.mark.parametrize("text, pole", [("F3 = 1/(t - 0.505)", 0.505),
                                            ("F3 = tan(3*t)", math.pi / 6),
                                            ("F1 = 2/sinh(0.5 - t/4)", 2.0),
                                            ("F3 = cot(-(2*t - 1))", 0.5)])
    def test_dsl_poles_are_declared(self, text, pole):
        with pytest.raises(DomainError) as ei:
            propagate(parse_field_spec(text), [1, 0], (0.0, 1.0) if pole < 1 else (1, 3),
                      n_nodes=3)
        assert str(ei.value).endswith(f"poles at [{pole!r}]")

    def test_unbound_parameter_is_a_parse_error(self):
        # the field's code names the first unbound parameter before the
        # pole check could read a divisor
        spec = parse_field_spec("F3 = q/t + 1/(t - r)")
        with pytest.raises(FieldParseError, match="unknown identifier 'q'"):
            propagate(spec, [1, 0], (-1, 1), n_nodes=5)
        # a divisor with an unbound parameter declares nothing
        check_poles(ExprField(parse_field_spec("F3 = 1/(t - r)").defs), (-1.0, 1.0))

    def test_const_field_runs_the_generated_code(self):
        check_poles(ConstField((0, 0, 1)), (-1.0, 1.0))
        # its samples are the values themselves, and a value that is not
        # finite raises at once, as in a DSL field, where the solver once
        # spent its whole budget of right-hand-side calls on NaN
        times = np.linspace(0, 1, 4)
        value = (0.3 + 0.1j, -0.0, 1.1 - 0.05j)
        assert np.array_equal(field_callable(ConstField(value))(times), np.tile(value, (4, 1)))
        with pytest.raises(SingularityError, match="field component singular at t = 0.0"):
            propagate(ConstField((math.nan, 0, 1)), [1, 0], (0, 1), n_nodes=3)

    def test_repeat_check_walks_once_and_a_changed_spec_again(self):
        spec = ExprField(parse_field_spec("F3 = 1/(t - r)").defs, {"r": 5.0})
        check_poles(spec, (0.0, 1.0))
        propagate(spec, [1, 0], (0, 1), n_nodes=3)
        # its params changed in place since: checked again
        spec.params["r"] = 0.5
        with pytest.raises(DomainError, match=r"declared field poles at \[0.5\]"):
            propagate(spec, [1, 0], (0, 1), n_nodes=3)
        other = ExprField(spec.defs, {"r": 5.0})
        check_poles(other, (0.0, 1.0))
        check_poles(other, (0.0, 2.0))
        with pytest.raises(DomainError, match="declared field poles"):
            bloch_propagate(ExprField(spec.defs, {"r": 1.5}),
                            BlochState(np.array([1.0, 0, 0]), 0.0, 1.0), (0, 2), n_nodes=3)


class TestResiduals:
    """se_residuals, on stencil samples, against the per-row formula: the
    central difference of each row's 1-D samples, then the norms, kept here
    as the reference.  The same bits, row for row."""

    @staticmethod
    def per_row(samples, F, h):
        h = np.broadcast_to(h, (len(samples), 1))[:, 0]
        return np.array([np.linalg.norm(1j * central_difference(*s[:4], k) - sigma_dot(f) @ s[4])
                         / max(np.linalg.norm(s[4]), 1e-30) for s, f, k in zip(samples, F, h)])

    @staticmethod
    def draw(rng, n, exponents=(-140, 140)):
        # one magnitude per row, so that the reference's squares stay within
        # the double range at steps of 1e-2 and above
        scale = 10.0 ** rng.uniform(*exponents, size=(n, 1, 1))
        samples = scale * (rng.normal(size=(n, 5, 2)) + 1j * rng.normal(size=(n, 5, 2)))
        return samples, rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_bit_identical_to_per_row_formula(self, n):
        rng = np.random.default_rng([n, 10])
        samples, F = self.draw(rng, n)
        # one step for all rows, and one per row
        for h in (0.03, 10.0 ** rng.uniform(-2, 0, size=(n, 1))):
            got = se_residuals(samples, F, h)
            want = self.per_row(samples, F, h)
            assert got.shape == (n,)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("exponent", [160, 200, 300])
    def test_rows_past_the_square_range_scale_out(self, exponent):
        # the squared norms overflow; the relative residual does not depend
        # on the scale, so the rows scaled down give it to rounding
        samples, F = self.draw(np.random.default_rng([exponent, 11]), 50, (0, 0))
        big = 10.0 ** (exponent - 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = se_residuals(big * samples, F, 0.1)
        np.testing.assert_allclose(got, se_residuals(samples, F, 0.1), rtol=1e-14)

    @pytest.mark.parametrize("c", [1e306, 1e307, 1e308])
    def test_rows_past_the_difference_range_scale_out(self, c):
        # samples within the double range whose central difference is not:
        # each row is differenced again over its largest |part|
        rng = np.random.default_rng([int(math.log10(c)), 12])
        samples = c * (rng.uniform(-1, 1, size=(50, 5, 2)) + 1j * rng.uniform(-1, 1, (50, 5, 2)))
        F = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        h = np.full((50, 1), 1e-5)
        with np.errstate(all="ignore"):
            assert not np.isfinite(central_difference(*samples.swapaxes(0, 1)[:4], h)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = se_residuals(samples, F, h)
        np.testing.assert_allclose(got, se_residuals(samples / c, F, h), rtol=1e-14)

    def test_non_finite_rows_stay_non_finite(self):
        samples = np.ones((4, 5, 2), dtype=complex)
        samples[1, 0, 0] = np.inf  # a side sample
        samples[2, 4, 1] = np.nan  # the centre
        samples[3] *= 1e200        # squares past the double range, at a field that is not finite
        F = np.ones((4, 3), dtype=complex)
        F[3, 2] = np.nan
        got = se_residuals(samples, F, 1e-5)
        assert np.isfinite(got).tolist() == [True, False, False, False]

    @pytest.mark.parametrize("c", [1e306, 1e308])
    def test_stencil_past_the_difference_range_scales_out(self, c):
        # u = c exp(-i t) (1, 0) solves the equation in F = (0, 0, 1); the
        # central difference of c-sized values overflows
        def u_fn(t, c=c):
            return c * cmath.exp(-1j * t) * np.array([1, 0])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [se_residual(u_fn, lambda t: np.array([0, 0, 1]), t) for t in (0.0, 0.3, -2.0)]
        want = [se_residual(lambda t: u_fn(t, 1.0), lambda t: np.array([0, 0, 1]), t)
                for t in (0.0, 0.3, -2.0)]
        # both are the difference's truncation error, about 1e-11
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert max(got) <= 1e-9


class TestStationary:
    def test_z_field(self):
        sols = stationary_solutions(CVec3(0, 0, 1))
        by_lam = {round(l.real): v for l, v in sols}
        assert_rel(by_lam[1].as_array(), [1, 0], 1e-14)
        assert_rel(by_lam[-1].as_array(), [0, 1], 1e-14)

    def test_x_field(self):
        sols = stationary_solutions(CVec3(1, 0, 0))
        by_lam = {round(l.real): v for l, v in sols}
        assert_rel(by_lam[1].as_array(), np.array([1, 1]) / math.sqrt(2), 1e-14)

    def test_null_field(self):
        sols = stationary_solutions(CVec3(1, 1j, 0))
        assert len(sols) == 1
        lam, v = sols[0]
        assert lam == 0
        assert np.max(np.abs(sigma_dot(CVec3(1, 1j, 0)) @ v.as_array())) < 1e-13

    def test_each_is_a_solution(self, rng):
        F = CVec3(0.4, -0.3, 0.8)
        for lam, v in stationary_solutions(F):
            def u_fn(t, lam=lam, v=v):
                return cmath.exp(-1j * lam * t) * v.as_array()

            worst = max(se_residual(u_fn, lambda t: F.as_array(), t)
                        for t in np.linspace(0, 2, 7))
            assert worst <= 1e-9

    @pytest.mark.parametrize("F, lam", [((1e308, 0, 1), 1e308),
                                        ((-1e308, 1e308, 0), 1.4142135623730951e308),
                                        ((3e-200, 0, 4e-200), 5e-200)])
    def test_squares_past_the_double_range(self, F, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (l1, v1), (l2, v2) = stationary_solutions(F)
        assert abs(l1 - lam) <= 4e-16 * lam and abs(l2 + lam) <= 4e-16 * lam
        S = sigma_dot(np.array(F, dtype=complex))
        for l, v in ((l1, v1), (l2, v2)):
            va = v.as_array()
            assert np.max(np.abs(S @ va - l * va)) <= 1e-15 * abs(l)

    @pytest.mark.parametrize("F", [(np.inf, 0, 1), (0, np.nan, 0)])
    def test_non_finite_field_raises_domain_error(self, F):
        with pytest.raises(DomainError, match="not finite"):
            stationary_solutions(F)


class TestConstantFieldPropagator:
    @pytest.mark.parametrize("F, t", [((1000j, 0, 1), 1.0), ((1, 0, 1), 1000j),
                                      ((1e308, 0, 1), 10.0), ((1e308, 1e308j, 0), 1.0)])
    def test_past_the_double_range_raises_domain_error(self, F, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="past the double range"):
                constant_field_propagator(F, t)

    @pytest.mark.parametrize("F, t", [((np.inf, 0, 1), 1.0), ((1, 0, 1), np.nan)])
    def test_non_finite_input_raises_domain_error(self, F, t):
        with pytest.raises(DomainError, match="not finite"):
            constant_field_propagator(F, t)

    def test_overflowing_square_is_scaled(self):
        F = (1e308, 0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U = constant_field_propagator(F, 1.0)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-15
        with mpmath.workprec(200):
            Fm = [mpmath.mpf(x) for x in F]
            k = mpmath.sqrt(sum(x * x for x in Fm))
            c, sk = mpmath.cos(k), mpmath.sin(k) / k
            S = sigma_dot(np.array(F, dtype=complex))
            want = np.array([[complex(c * (i == j) - 1j * sk * mpmath.mpc(S[i, j]))
                              for j in range(2)] for i in range(2)])
        assert np.max(np.abs(U - want)) <= 1e-15

    @pytest.mark.parametrize("F, t", [((0.3, 0.1j, 1), 0.7), ((1, 1j, 0), 2.0),
                                      ((1e-200, 0, 0), 2.0), ((2, -1, 0.5j), -1.5),
                                      ((1e150, 0, 1e150), 1e-150)])
    def test_ordinary_input_keeps_its_bits(self, F, t):
        Fv = np.asarray(F, dtype=complex)
        s, f2 = sigma_dot(Fv), Fv @ Fv
        if abs(f2) < 1e-300:
            want = np.eye(2, dtype=complex) - 1j * t * s
        else:
            lam = cmath.sqrt(f2)
            want = (np.eye(2, dtype=complex) * cmath.cos(lam * t)
                    - 1j * cmath.sin(lam * t) / lam * s)
        got = constant_field_propagator(F, t)
        assert got.tobytes() == want.tobytes()


class TestFieldFromQ:
    def test_zero_path(self):
        times = np.linspace(0, 1, 101)
        q = np.zeros((101, 3), dtype=complex)
        F = field_from_q(times, q)
        assert np.max(np.abs(F)) <= 1e-12

    def test_tangent_path_gives_constant_field(self):
        w = 1.2
        times = np.linspace(0, 1.0, 401)
        q = np.stack([np.zeros_like(times), np.zeros_like(times),
                      np.tan(w * times / 2)], axis=1).astype(complex)
        F = field_from_q(times, q)
        want = np.tile([0, 0, w / 2], (len(times), 1))
        assert_rel(F, want, 1e-8)

    def test_unit_branch_rotating(self):
        w = 0.9
        times = np.linspace(0, 2.0, 401)
        q = np.stack([np.cos(w * times), np.sin(w * times),
                      np.zeros_like(times)], axis=1).astype(complex)
        F = field_from_q(times, q, unit=True)
        want = np.tile([0, 0, w], (len(times), 1))
        assert_rel(F, want, 1e-8)

    def test_source_field_comes_back_on_a_zero_path(self):
        times = np.linspace(0, 1, 101)
        spec = parse_field_spec("F1 = cos(t); F2 = 0.3i*t; F3 = exp(-t)")
        fn = field_callable(spec)
        F = field_from_q(times, np.zeros((101, 3), dtype=complex), F1=spec)
        assert np.array_equal(F, np.array([fn(t) for t in times]))

    def test_branch_errors(self):
        times = np.linspace(0, 1, 101)
        q = np.zeros((101, 3), dtype=complex)
        q[:, 2] = 1j
        with pytest.raises(DomainError):
            field_from_q(times, q)  # q^2 = -1
        q2 = np.zeros((101, 3), dtype=complex)
        with pytest.raises(DomainError):
            field_from_q(times, q2, unit=True)
        # a NaN time, inside the grid or at its end
        for bad in ([0, 0.1, math.nan, 0.3, 0.4, 0.5], [0, 0.1, 0.2, 0.3, 0.4, math.nan]):
            with pytest.raises(DomainError, match="strictly increasing"):
                field_from_q(bad, np.zeros((6, 3), dtype=complex))


def _evolution_residual(times, R, F):
    h = times[1] - times[0]
    Rd = fd_derivative(R, h)
    out = np.empty(len(times))
    for i in range(len(times)):
        res = 1j * Rd[i] - sigma_dot(F[i]) @ R[i]
        out[i] = np.linalg.norm(res) / max(np.linalg.norm(R[i]), 1e-30)
    return out[2:-2]


class TestEvolutionFromQ:
    def test_constant_zero_path(self):
        times = np.linspace(0, 1, 11)
        q = np.zeros((11, 3), dtype=complex)
        R = evolution_from_q(times, q)
        for Ri in R:
            assert_rel(Ri, np.eye(2), 1e-14)

    def test_tangent_path_closed_form(self):
        w = 1.1
        times = np.linspace(0, 1.2, 241)
        q = np.stack([np.zeros_like(times), np.zeros_like(times),
                      np.tan(w * times / 2)], axis=1).astype(complex)
        R = evolution_from_q(times, q)
        for t, Ri in zip(times, R):
            want = (np.eye(2) * math.cos(w * t / 2)
                    - 1j * math.sin(w * t / 2) * np.array([[1, 0], [0, -1]]))
            assert_rel(Ri, want, 1e-10)

    def test_generic_branch_solves_its_equation(self):
        times = np.linspace(0, 2.0, 801)
        q = np.stack([0.3 * np.sin(times), 0.2 * times,
                      0.4 * np.cos(2 * times)], axis=1).astype(complex)
        F = field_from_q(times, q)
        R = evolution_from_q(times, q)
        assert_rel(R[0], np.eye(2), 1e-12)
        assert np.max(_evolution_residual(times, R, F)) <= 1e-6

    def test_unit_branch_solves_its_equation(self):
        w = 0.8
        times = np.linspace(0, 2.0, 801)
        q = np.stack([np.cos(w * times), np.sin(w * times),
                      np.zeros_like(times)], axis=1).astype(complex)
        F = field_from_q(times, q, unit=True)
        R = evolution_from_q(times, q, unit=True)
        for t, Ri in zip(times, R):
            want = (np.eye(2) * math.cos(w * t)
                    - 1j * math.sin(w * t) * np.array([[1, 0], [0, -1]]))
            assert_rel(Ri, want, 1e-10)
        assert np.max(_evolution_residual(times, R, F)) <= 1e-6

    def test_determinant_conserved(self):
        times = np.linspace(0, 2.0, 401)
        q = np.stack([0.3 * np.sin(times), 0.2 * times,
                      0.4 * np.cos(2 * times)], axis=1).astype(complex)
        R = evolution_from_q(times, q)
        dets = np.array([np.linalg.det(Ri) for Ri in R])
        assert np.max(np.abs(dets - dets[0])) <= 1e-10


def _evolution_by_node(times, q, unit):
    """evolution_from_q node by node, one 2x2 product per node: the
    reference for the batched products' bits."""
    q0 = q[0]
    out = np.empty((len(times), 2, 2), dtype=complex)
    if unit:
        for i in range(len(times)):
            out[i] = sigma_dot(q[i]) @ sigma_dot(q0)
        return out
    q02 = q0 @ q0
    m0 = np.eye(2) + 1j * sigma_dot(q0)
    for i in range(len(times)):
        denom = cmath.sqrt((1.0 + q[i] @ q[i]) * (1.0 + q02))
        out[i] = (np.eye(2) - 1j * sigma_dot(q[i])) @ m0 / denom
    return out


class TestEvolutionFromQByNode:
    """evolution_from_q's batched branches against the node-by-node ones,
    bit for bit, on seeded paths of 2 to 400 nodes."""

    @staticmethod
    def _paths(seed, count):
        rng = np.random.default_rng(seed)
        for k in range(count):
            n = int(rng.integers(2, 401))
            q = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            if k % 3 == 1:
                q[:, 1] = 0.0  # a path in the (F1, 0, F3) plane
            if k % 3 == 2:
                q = q.real.astype(complex)
            yield np.linspace(0.0, float(rng.uniform(0.1, 5.0)), n), q

    def test_general_branch(self):
        for times, q in self._paths(7, 40):
            got = evolution_from_q(times, q)
            assert got.tobytes() == _evolution_by_node(times, q, False).tobytes()

    def test_unit_branch(self):
        for times, q in self._paths(8, 40):
            q = q / np.sqrt(np.sum(q * q, axis=1))[:, None]
            got = evolution_from_q(times, q, unit=True)
            assert got.tobytes() == _evolution_by_node(times, q, True).tobytes()

    @pytest.mark.parametrize("rows", [3, 7])
    def test_a_path_of_another_length_is_refused(self, rows):
        # node by node, 3 rows raised IndexError and 7 rows returned 5 nodes
        with pytest.raises(DomainError, match=re.escape("q must have shape (n_times, 3)")):
            evolution_from_q(np.linspace(0.0, 1.0, 5), np.zeros((rows, 3), dtype=complex))

    def test_the_first_node_with_q2_minus_one_is_named(self):
        times = np.linspace(0.0, 1.0, 11)
        q = np.full((11, 3), 0.2 + 0.1j)
        q[[3, 6]] = (1j, 0.0, 0.0)
        with pytest.raises(DomainError, match=re.escape(
                f"q^2 = -1 encountered at t = {times[3]}")):
            evolution_from_q(times, q)


class TestEvolutionConstantDirection:
    def test_diagonal(self):
        f = 0.9
        R = evolution_constant_direction(lambda t: f, 0.0, 1.3)
        want = np.diag([cmath.exp(-1j * f * 1.3), cmath.exp(1j * f * 1.3)])
        assert_rel(R, want, 1e-12)

    def test_transverse(self):
        f = 0.9
        R = evolution_constant_direction(lambda t: f, math.pi / 2, 0.7)
        want = (np.eye(2) * math.cos(f * 0.7)
                - 1j * math.sin(f * 0.7) * np.array([[0, 1], [1, 0]]))
        assert_rel(R, want, 1e-12)

    def test_time_dependent_amplitude(self):
        # q = 2t: the phase is the integral t^2, residual against the
        # evolution equation with F = q (sin L, 0, cos L)
        lam = 0.4

        def R_fn(t):
            return evolution_constant_direction(lambda s: 2 * s, lam, t)

        axis = np.array([math.sin(lam), 0.0, math.cos(lam)])

        def F_fn(t):
            return 2 * t * axis

        h = 1e-5
        for t in (0.3, 0.8, 1.4):
            Rd = (R_fn(t - 2 * h) - 8 * R_fn(t - h) + 8 * R_fn(t + h)
                  - R_fn(t + 2 * h)) / (12 * h)
            res = 1j * Rd - sigma_dot(F_fn(t)) @ R_fn(t)
            assert np.linalg.norm(res) <= 1e-8

    @pytest.mark.parametrize("lam", [0.3 + 5j, 0.3 + 20j])
    def test_complex_lam_matches_mpmath_expm(self, lam):
        # the axis (sin lam, 0, cos lam) squares to 1, but not in floating
        # point: at 0.3 + 20i it evaluates to about -8 - 1.6i
        R = evolution_constant_direction(lambda s: 0.9, lam, 0.7)
        with mpmath.workdps(60):
            lm = mpmath.mpc(lam)
            S = mpmath.matrix([[mpmath.cos(lm), mpmath.sin(lm)],
                               [mpmath.sin(lm), -mpmath.cos(lm)]])
            want = mpmath.expm(-1j * mpmath.mpf(0.9) * mpmath.mpf(0.7) * S)
            want = np.array([[complex(want[i, j]) for j in range(2)] for i in range(2)])
        assert np.max(np.abs(R - want)) <= 1e-13 * np.max(np.abs(want))

    def test_lam_past_the_double_range_raises_domain_error(self, capsys):
        # sin(lam) and cos(lam) overflow: neither an OverflowError nor a warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="past the double range at t = 1.0"):
                evolution_constant_direction(lambda s: 1.0, 0.3 + 800j, 1.0)
        assert caught == []
        assert capsys.readouterr() == ("", "")

    @staticmethod
    def _raises_quietly(capsys, error, q, t):
        """evolution_constant_direction(q, 0.4, t) raises error, with no
        warning and nothing on stdout or stderr; returns the error."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error) as info:
                evolution_constant_direction(q, 0.4, t)
        assert caught == []
        assert capsys.readouterr() == ("", "")
        return info.value

    def test_pole_raises_singularity_at_the_node(self, capsys):
        # the first rule's centre is the pole
        err = self._raises_quietly(capsys, SingularityError, lambda s: 1 / (s - 0.5), 1.0)
        assert err.t == 0.5

    def test_overflowing_q_raises_singularity_at_the_node(self, capsys):
        err = self._raises_quietly(capsys, SingularityError, lambda s: math.exp(s * s), 30.0)
        assert 26.7 < err.t < 30  # math.exp overflows past sqrt(709.78)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_raises_domain_error(self, capsys, t):
        self._raises_quietly(capsys, DomainError, lambda s: 1.0, t)

    def test_nan_q_raises_singularity(self, capsys):
        err = self._raises_quietly(capsys, SingularityError, lambda s: math.nan, 1.0)
        assert err.t == 0.5

    def test_unresolved_phase_raises_accuracy_error(self, capsys):
        # 400 intervals of 0.25 each hold 400 periods of cos(1e4 s)
        self._raises_quietly(capsys, AccuracyError, lambda s: math.cos(1e4 * s), 100.0)

    def test_phase_past_the_double_range_raises_domain_error(self, capsys):
        err = self._raises_quietly(capsys, DomainError, lambda s: 1000j, 1.0)
        assert "past the double range at t = 1.0" in str(err)


class TestBloch:
    def test_precession_about_z(self):
        f = 0.6
        path = bloch_propagate(ConstField((0, 0, f)),
                               BlochState(np.array([1.0, 0, 0]), 0.0, 1.0),
                               (0, 4), 1e-11, n_nodes=81)
        want = np.stack([np.cos(2 * f * path.times),
                         np.sin(2 * f * path.times),
                         np.zeros_like(path.times)], axis=1)
        assert_rel(path.n, want, 1e-9)

    def test_damping_parallel_to_n_keeps_n(self):
        # G parallel to n, K = 0: the direction is stationary
        path = bloch_propagate(ConstField((0, 0, 0.5j)),
                               BlochState(np.array([0.0, 0, 1.0]), 0.0, 1.0),
                               (0, 3), 1e-11, n_nodes=31)
        assert_rel(path.n, np.tile([0, 0, 1.0], (31, 1)), 1e-10)
        # and the amplitude grows like exp(G.n t)
        assert_rel(path.N, np.exp(0.5 * path.times), 1e-8)

    def test_matches_spinor_trajectory(self):
        spec = parse_field_spec(
            "F1 = 0.5 + 0.1i; F2 = 0.3*sin(t); F3 = 0.4*cos(t) + 0.2i")
        V0 = np.array([1.0, 0.3 + 0.2j])
        traj = propagate(spec, V0, (0, 3), 1e-12, n_nodes=301)
        n_spin = bloch_vector_path(traj)
        state0 = BlochState(n_spin[0], 0.0, math.sqrt(traj.norms()[0]))
        path = bloch_propagate(spec, state0, (0, 3), 1e-12, n_nodes=301)
        assert np.max(np.abs(path.n - n_spin)) <= 1e-6
        # amplitude law: N^2 = (V,V)
        assert np.max(np.abs(path.N ** 2 - traj.norms())) <= 1e-6

    def test_norm_law_along_trajectory(self):
        spec = parse_field_spec("F1 = 0.5 + 0.1i; F3 = 0.4 + 0.2i")
        traj = propagate(spec, np.array([1.0, 0.3 + 0.2j]), (0, 3), 1e-12,
                         n_nodes=401)
        n2 = traj.norms()
        h = traj.times[1] - traj.times[0]
        lhs = fd_derivative(n2, h)
        n_path = bloch_vector_path(traj)
        G = traj.field_samples.imag
        rhs = 2.0 * n2 * np.sum(G * n_path, axis=1)
        assert np.max(np.abs(lhs - rhs)[2:-2]) <= 1e-6

    def test_non_unit_start_rejected(self):
        with pytest.raises(DomainError):
            bloch_propagate(ConstField((0, 0, 1)),
                            BlochState(np.array([1.0, 1.0, 0]), 0.0, 1.0),
                            (0, 1), 1e-10)

    @pytest.mark.parametrize("n0, alpha, N", [
        ([math.nan, 0, 0], 0.0, 1.0),
        ([1.0, math.inf, 0], 0.0, 1.0),
        ([1.0, 0, 0], math.nan, 1.0),
        ([1.0, 0, 0], 0.0, math.inf),
        ([1.0, 0, 0], 0.0, 0.0),
    ])
    def test_non_finite_start_rejected(self, n0, alpha, N):
        with pytest.raises(DomainError):
            bloch_propagate(ConstField((0, 0, 1)), BlochState(np.array(n0), alpha, N),
                            (0, 1), 1e-10)

    def test_cross_is_np_cross_bit_for_bit(self):
        # the right-hand side's K x n in Python floats, against np.cross on
        # 10**4 seeded pairs with signed zeros, subnormals, infinities and
        # NaN; a NaN compares as a NaN, any other value by its bits
        rng = np.random.default_rng(20241019)
        shape = (2, 10 ** 4, 3)
        a, b = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf,
                            -math.inf, math.nan, 1.0, -1.0])
        for v in (a, b):
            mask = rng.random(v.shape) < 0.3
            v[mask] = rng.choice(special, mask.sum())
        with np.errstate(all="ignore"):
            want = np.array([np.cross(x, y) for x, y in zip(a, b)])
        got = np.array([dynamics._cross(*x, *y) for x, y in zip(a.tolist(), b.tolist())])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
        assert np.signbit(want[want == 0]).any()  # the draw makes signed zeros


class TestHamiltonianForm:
    def test_zero_coupling(self):
        f = 0.8
        rep = hamiltonian_check(lambda t: f, lambda t: 0.0, 0.3, 0.2, (0, 2),
                                1e-11, n_nodes=51)
        assert np.max(np.abs(rep.q - 0.3)) <= 1e-10
        assert_rel(rep.p, 0.2 - 2 * f * rep.times, 1e-9)

    def test_energy_conserved_constant_coefficients(self):
        rep = hamiltonian_check(lambda t: 0.4, lambda t: 0.7, 0.2, 0.3,
                                (0, 5), 1e-11, n_nodes=801)
        assert not rep.truncated
        assert np.max(np.abs(rep.H - rep.H[0])) <= 1e-8

    def test_matches_angle_form(self):
        rep = hamiltonian_check(lambda t: 0.4 + 0.1 * math.sin(t),
                                lambda t: 0.7 + 0.2 * math.cos(t),
                                0.2, 0.3, (0, 4), 1e-11, n_nodes=801)
        assert rep.angle_mismatch <= 1e-6

    def test_second_order_equation_residual(self):
        rep = hamiltonian_check(lambda t: 0.4, lambda t: 0.7, 0.2, 0.3,
                                (0, 2), 1e-11, n_nodes=2001)
        assert rep.theta_eq_residual <= 1e-5

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError, match="t1 != t0"):
            hamiltonian_check(lambda t: 0.4, lambda t: 0.7, 0.2, 0.3, (1, 1))

    def test_event_before_the_second_node(self):
        # the event fires in the first step, before t = 0.104: the angle form
        # is not solved, over a window that would have length zero
        def g(t):
            return -1.6905871615537926 - 1.880825565050287e-05 * math.sin(t)

        rep = hamiltonian_check(lambda t: -0.0009252960676574985, g, -0.9680704389257996,
                                -1.570249615954165, (0.0, 2.2846487775497524),
                                1.554259223623244e-11, n_nodes=23)
        assert rep.truncated and rep.t_stop == 0.0
        assert rep.times.tolist() == [0.0] and rep.q.tolist() == [-0.9680704389257996]
        assert rep.theta.tolist() == [math.acos(-0.9680704389257996)]
        assert rep.Phi.tolist() == [1.570249615954165]
        assert rep.angle_mismatch <= 1e-15 and math.isnan(rep.theta_eq_residual)

    def test_pole_truncation_flag(self):
        # strong constant drive pushes q to +-1
        rep = hamiltonian_check(lambda t: 2.0, lambda t: 1e-3, 0.0, 0.5,
                                (0, 40), 1e-10, n_nodes=101)
        assert rep.truncated or abs(rep.q).max() < 1.0

    def test_bad_q0(self):
        with pytest.raises(DomainError):
            hamiltonian_check(lambda t: 1, lambda t: 1, 1.5, 0.0, (0, 1))

    @pytest.mark.parametrize("q0", [0.9999995, -0.9999995])
    def test_start_inside_the_pole_band(self, q0):
        # the truncating event cannot fall from inside its band: the solve
        # ran through the pole and reported an angle mismatch of pi
        assert 1 - abs(q0) < POLE_BAND
        with pytest.raises(DomainError, match=f"got q0 = {q0}"):
            hamiltonian_check(lambda t: 0.0, lambda t: 1.0, q0, -math.pi / 2, (0, 1))

    @pytest.mark.parametrize("f, g", [(1e308, 1.0), (1.0, 1e308), (-1e308, 1e308)])
    def test_angle_past_the_double_range_is_a_failed_solve(self, f, g):
        # p leaves the double range in the first stages: math.sin raised a
        # bare ValueError there
        with pytest.raises(IntegrationError, match="canonical integration failed"):
            hamiltonian_check(lambda t: f, lambda t: g, 0.2, 0.3, (0, 1), n_nodes=5)


# +-0, subnormals, +-1e308, +-inf, NaN and ordinary values; the ordinary ones
# stop at 10, since a constant f near 1e5 and above turns p so fast that the
# solve crawls to RHS_BUDGET, about 10 s, before its IntegrationError
_FIELD_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                                           math.inf, -math.inf, math.nan]),
                          st.floats(-10.0, 10.0))


class TestHamiltonianTypedFailures:
    @given(f=_FIELD_VALUES, g=_FIELD_VALUES,
           q0=st.floats(-(1.0 - POLE_BAND), 1.0 - POLE_BAND),
           p0=st.floats(-4.0, 4.0), t0=st.floats(-2.0, 2.0),
           length=st.floats(0.1, 2.0), backward=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_finite_report_or_typed_error(self, f, g, q0, p0, t0, length, backward):
        # each call returns finite q, p, H, theta and Phi or raises a
        # SpinEqError, and says nothing on stderr
        window = (t0, t0 - length if backward else t0 + length)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rep = hamiltonian_check(lambda t: f, lambda t: g, q0, p0, window, n_nodes=21)
            except SpinEqError:
                pass
            else:
                assert all(np.isfinite(a).all() for a in (rep.q, rep.p, rep.H, rep.theta,
                                                          rep.Phi))
        assert [str(w.message) for w in caught] == []
        assert err.getvalue() == ""


class TestConservationLaws:
    def test_l_vector_evolution(self):
        # d/dt of the three bilinear vectors along a complex-field trajectory
        spec = parse_field_spec(
            "F1 = 0.5 + 0.2i; F2 = 0.3*sin(t); F3 = 0.4*cos(t) + 0.1i")
        traj = propagate(spec, np.array([1.0, 0.3 - 0.5j]), (0, 2), 1e-12,
                         n_nodes=801)
        h = traj.times[1] - traj.times[0]
        V = traj.states
        Vb = anticonjugate_arr(V)
        F = traj.field_samples
        n2 = traj.norms()

        L_vv = l_vector_arr(V, V)
        L_vb_v = l_vector_arr(Vb, V)
        L_v_vb = l_vector_arr(V, Vb)

        want_vv = (1j * (F.conj() - F) * n2[:, None]
                   + np.cross(F + F.conj(), L_vv))
        want_vbv = 2.0 * np.cross(F, L_vb_v)
        want_vvb = 2.0 * np.cross(F.conj(), L_v_vb)
        sl = slice(2, -2)
        assert np.max(np.abs(fd_derivative(L_vv, h) - want_vv)[sl]) <= 1e-5
        assert np.max(np.abs(fd_derivative(L_vb_v, h) - want_vbv)[sl]) <= 1e-5
        assert np.max(np.abs(fd_derivative(L_v_vb, h) - want_vvb)[sl]) <= 1e-5

    def test_l_vector_derivative_identities(self):
        # with V' = -i (sigma.F) V these hold pointwise to roundoff:
        # L^{v,v'} = -i (V,V) F + [F x L^{v,v}],  L^{vbar,v'} = [F x L^{vbar,v}]
        spec = parse_field_spec("F1 = 0.5 + 0.2i; F3 = 0.4 + 0.1i")
        traj = propagate(spec, np.array([1.0, 0.3 - 0.5j]), (0, 2), 1e-12,
                         n_nodes=101)
        V = traj.states
        F = traj.field_samples
        n2 = traj.norms()
        vdot = np.empty_like(V)
        for i in range(len(V)):
            vdot[i] = -1j * (sigma_dot(F[i]) @ V[i])
        Vb = anticonjugate_arr(V)
        lhs1 = l_vector_arr(V, vdot)
        want1 = -1j * n2[:, None] * F + np.cross(F, l_vector_arr(V, V))
        assert np.max(np.abs(lhs1 - want1)) <= 1e-11
        lhs2 = l_vector_arr(Vb, vdot)
        want2 = np.cross(F, l_vector_arr(Vb, V))
        assert np.max(np.abs(lhs2 - want2)) <= 1e-11

    def test_triad_evolution(self):
        # e1' = 2 e2 (K.n) - 2 n (K.e2 + G.e1)   [n-coefficient from the
        #       L-vector evolution; the printed form's (K.n) there is
        #       inconsistent with it]
        # e2' = 2 n (K.e1 - G.e2) - 2 e1 (K.n)
        # n'  = 2 e1 (K.e2 + G.e1) + 2 e2 (G.e2 - K.e1)
        spec = parse_field_spec(
            "F1 = 0.5 + 0.2i; F2 = 0.3*sin(t); F3 = 0.4*cos(t) + 0.1i")
        traj = propagate(spec, np.array([1.0, 0.3 - 0.5j]), (0, 2), 1e-12,
                         n_nodes=801)
        h = traj.times[1] - traj.times[0]
        K, G = traj.field_samples.real, traj.field_samples.imag
        e1 = np.empty((len(traj.times), 3))
        e2 = np.empty_like(e1)
        nn = np.empty_like(e1)
        for i in range(len(traj.times)):
            a, b, c = frame(Spinor.from_array(traj.states[i]))
            e1[i], e2[i], nn[i] = a.as_array().real, b.as_array().real, c.as_array().real

        def dot(x, y):
            return np.sum(x * y, axis=1)[:, None]

        want_e1 = 2 * e2 * dot(K, nn) - 2 * nn * (dot(K, e2) + dot(G, e1))
        want_e2 = 2 * nn * (dot(K, e1) - dot(G, e2)) - 2 * e1 * dot(K, nn)
        want_n = 2 * e1 * (dot(K, e2) + dot(G, e1)) + 2 * e2 * (dot(G, e2) - dot(K, e1))
        sl = slice(2, -2)
        assert np.max(np.abs(fd_derivative(e1, h) - want_e1)[sl]) <= 1e-5
        assert np.max(np.abs(fd_derivative(e2, h) - want_e2)[sl]) <= 1e-5
        assert np.max(np.abs(fd_derivative(nn, h) - want_n)[sl]) <= 1e-5

    def test_propagator_determinant_conserved(self):
        spec = parse_field_spec(
            "F1 = 0.5 + 0.2i; F2 = 0.3*sin(t); F3 = 0.4*cos(t) + 0.1i")
        cols = [propagate(spec, np.array(e, dtype=complex), (0, 3), 1e-12,
                          n_nodes=61) for e in ([1, 0], [0, 1])]
        R = np.stack([np.stack([a, b], axis=1)
                      for a, b in zip(cols[0].states, cols[1].states)])
        dets = np.array([np.linalg.det(Ri) for Ri in R])
        assert np.max(np.abs(dets - dets[0])) <= 1e-10


class TestSolveBudget:
    """Every solve runs through numutil.dop853 and so shares its work budget."""

    SOLVES = {
        "propagate": lambda: propagate(ConstField((0.3, 0, 1.0)), [1, 0], (0, 200)),
        "bloch_propagate": lambda: bloch_propagate(
            ConstField((0.3, 0, 1.0)), BlochState(np.array([1.0, 0, 0]), 0.0, 1.0),
            (0, 200)),
        "hamiltonian_check": lambda: hamiltonian_check(
            lambda t: 0.4, lambda t: 0.7, 0.2, 0.3, (0, 200)),
        "darboux_params_mu_route": lambda: darboux_params_mu_route(
            lambda t: 0.3 + 0.1 * math.sin(t), 0.8, 0.4, (0, 200)),
    }

    @pytest.mark.parametrize("name", SOLVES)
    def test_past_the_budget_raises(self, monkeypatch, name):
        monkeypatch.setattr(numutil, "RHS_BUDGET", 1000)
        with pytest.raises(IntegrationError, match="after 1000 right-hand-side calls"):
            self.SOLVES[name]()


# the three solvers on a node grid, and grids each one rejects
_GRIDS = {
    "propagate": lambda **grid: propagate(ConstField((1, 0, 0.5)), [1, 0], (0, 1), **grid),
    "bloch_propagate": lambda **grid: bloch_propagate(
        ConstField((1, 0, 0.5)), BlochState(np.array([1.0, 0, 0]), 0.0, 1.0), (0, 1),
        **grid),
    "hamiltonian_check": lambda **grid: hamiltonian_check(
        lambda t: 0.4, lambda t: 0.7, 0.2, 0.3, (0, 1), **grid),
}
_BAD_GRIDS = {
    "no-nodes": ({"n_nodes": 0}, r"n_nodes = 0 must be an integer >= 2"),
    "one-node": ({"n_nodes": 1}, r"n_nodes = 1 must be an integer >= 2"),
    "fractional": ({"n_nodes": 2.5}, r"n_nodes = 2.5 must be an integer >= 2"),
}


class TestSolveInputs:
    """Each solver checks its window and tol with numutil.solve_window before
    it builds an array: a non-finite one, or a tol below MIN_TOL, raises
    DomainError at once, where the solve would spin until the budget ran
    out."""

    SOLVES = {
        "propagate": lambda w, tol: propagate(ConstField((1, 0, 0.5)), [1, 0], w, tol=tol,
                                              n_nodes=5),
        "bloch_propagate": lambda w, tol: bloch_propagate(
            ConstField((1, 0, 0.5)), BlochState(np.array([1.0, 0, 0]), 0.0, 1.0), w,
            tol=tol, n_nodes=5),
        "hamiltonian_check": lambda w, tol: hamiltonian_check(
            lambda t: 0.4, lambda t: 0.7, 0.2, 0.3, w, tol=tol, n_nodes=5),
        "darboux_params_mu_route": lambda w, tol: darboux_params_mu_route(
            lambda t: 0.3, 0.8, 0.4, w, tol=tol),
    }
    INPUTS = {
        "t1-inf": ((0.0, math.inf), 1e-10, r"window \[0.0, inf\] is not finite"),
        "t0-nan": ((math.nan, 1.0), 1e-10, r"window \[nan, 1.0\] is not finite"),
        "tol-nan": ((0.0, 1.0), math.nan, "tol = nan is not finite"),
        "tol-inf": ((0.0, 1.0), math.inf, "tol = inf is not finite"),
        # the one floor of every solve, where DOP853 would run at tol / 4
        "tol-negative": ((0.0, 1.0), -1.0, "tol = -1.0 below the supported minimum 1e-13"),
        "tol-zero": ((0.0, 1.0), 0.0, "tol = 0.0 below the supported minimum 1e-13"),
        "tol-tiny": ((0.0, 1.0), 1e-20, "tol = 1e-20 below the supported minimum 1e-13"),
        "window-too-long": ((-1e308, 1e308), 1e-10,
                            r"window \[-1e\+308, 1e\+308\] is longer than the double range"),
    }

    # the two solvers of a real state check their own scalars, and the
    # values of their functions, before the stepper sees them
    REAL_INPUTS = {
        "hamiltonian-p0-nan": (lambda: hamiltonian_check(
            lambda t: 0.0, lambda t: 1.0, 0.5, math.nan, (0, 1)), "p0 = nan is not finite"),
        "hamiltonian-p0-inf": (lambda: hamiltonian_check(
            lambda t: 0.0, lambda t: 1.0, 0.5, math.inf, (0, 1)), "p0 = inf is not finite"),
        "hamiltonian-q0-nan": (lambda: hamiltonian_check(
            lambda t: 0.0, lambda t: 1.0, math.nan, 0.3, (0, 1)), "q0 = nan is not finite"),
        "hamiltonian-f-nan": (lambda: hamiltonian_check(
            lambda t: math.nan, lambda t: 1.0, 0.5, 0.3, (0, 1)),
            r"f\(t\) = nan is not finite at t = 0.0"),
        "hamiltonian-g-inf": (lambda: hamiltonian_check(
            lambda t: 0.3, lambda t: math.inf, 0.5, 0.3, (0, 1)),
            r"g\(t\) = inf is not finite at t = 0.0"),
        "hamiltonian-q0-complex": (lambda: hamiltonian_check(
            lambda t: 0.0, lambda t: 1.0, 0.5 + 0.1j, 0.3, (0, 1)),
            r"q0 = \(0.5\+0.1j\) is not real"),
        "hamiltonian-f-complex": (lambda: hamiltonian_check(
            lambda t: 0.3 + 0.1j, lambda t: 1.0, 0.5, 0.3, (0, 1)),
            r"f\(t\) = \(0.3\+0.1j\) is not real at t = 0.0"),
        "hamiltonian-g-numpy-complex": (lambda: hamiltonian_check(
            lambda t: 0.3, lambda t: np.complex128(1 + 0.1j), 0.5, 0.3, (0, 1)),
            r"g\(t\) = \(1\+0.1j\) is not real at t = 0.0"),
        "mu-route-mu0-nan": (lambda: darboux_params_mu_route(
            lambda t: 0.3, 0.8, math.nan, (0, 2)), "mu0 = nan is not finite"),
        "mu-route-mu0-complex": (lambda: darboux_params_mu_route(
            lambda t: 0.3, 0.8, 0.4 + 0.1j, (0, 2)), r"mu0 = \(0.4\+0.1j\) is not real"),
        "mu-route-F3-complex": (lambda: darboux_params_mu_route(
            lambda t: 0.3 + 0.1j, 0.8, 0.4, (0, 2)),
            r"F3\(t\) = \(0.3\+0.1j\) is not real at t = 0.0"),
        "mu-route-F3-nan": (lambda: darboux_params_mu_route(
            lambda t: math.nan, 0.8, 0.4, (0, 2)), r"F3\(t\) = nan is not finite at t = 0.0"),
        "mu-route-R-nan": (lambda: darboux_params_mu_route(
            lambda t: 0.3, math.nan, 0.4, (0, 2)), "R = nan is not finite"),
        "mu-route-R-complex": (lambda: darboux_params_mu_route(
            lambda t: 0.3, 0.8 + 0.5j, 0.4, (0, 2)), r"R = \(0.8\+0.5j\) is not real"),
    }

    @staticmethod
    def assert_raises_at_once(capsys, call, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            with pytest.raises(DomainError, match=message):
                call()
            elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert caught == []
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("case", INPUTS)
    @pytest.mark.parametrize("name", SOLVES)
    def test_non_finite_input_raises_at_once(self, capsys, name, case):
        window, tol, message = self.INPUTS[case]
        self.assert_raises_at_once(capsys, lambda: self.SOLVES[name](window, tol), message)

    @pytest.mark.parametrize("case", REAL_INPUTS)
    def test_non_real_or_non_finite_input_raises_at_once(self, capsys, case):
        self.assert_raises_at_once(capsys, *self.REAL_INPUTS[case])

    @pytest.mark.parametrize("name, case", [
        (name, case) for name in _GRIDS for case in _BAD_GRIDS])
    def test_bad_node_grid_raises_domain_error(self, name, case):
        grid, message = _BAD_GRIDS[case]
        with pytest.raises(DomainError, match=message):
            _GRIDS[name](**grid)

    def test_good_node_grids_still_run(self):
        for name in _GRIDS:
            assert len(_GRIDS[name](n_nodes=np.int64(2)).times) == 2

    def test_hamiltonian_check_still_runs_backward(self):
        rep = hamiltonian_check(lambda t: 0.4, lambda t: 0.7, 0.2, 0.3, (1.0, 0.0), n_nodes=5)
        assert rep.times[0] == 1.0 and rep.times[-1] == 0.0


class TestSolveFailure:
    def test_failure_reports_where_the_solver_stopped(self):
        # V1 grows like e^{5t} and overflows near t = 142, far before the
        # second output node at t = 5e299
        with pytest.raises(IntegrationError, match="failed near t = 14") as info:
            propagate(ConstField((0, 0, 1 + 5j)), [1, 0], (0, 1e300), n_nodes=3)
        assert 100 < info.value.t < 150

    def test_non_finite_states_raise(self, monkeypatch):
        # a solve that reports success with non-finite states must not pass
        # them on
        from spineq import _dop853

        def finished_with_nan(fun, t_span, y0, tol, t_eval, *args, **kwargs):
            y = np.ones((len(y0), len(t_eval)), dtype=complex)
            y[0, 2:] = np.nan
            return SimpleNamespace(t=t_eval, y=y, success=True, message="")

        monkeypatch.setattr(_dop853, "solve", finished_with_nan)
        with pytest.raises(IntegrationError, match="non-finite states at t = 0.5") as info:
            propagate(ConstField((0, 0, 1)), [1, 0], (0, 1), n_nodes=5)
        assert info.value.t == 0.5


SOLVER_WORK = json.loads(Path(__file__).with_name("solver_stats_golden.json").read_text())


@pytest.mark.parametrize("eid", range(1, catalog.N_ENTRIES + 1))
def test_solver_work_is_unchanged(monkeypatch, eid):
    """Each entry's propagate and bloch solves at its default parameters and
    window take the steps, right-hand-side calls and smallest step recorded
    in solver_stats_golden.json, with the same types, as they did before the
    stepper's per-call numpy work was cut."""
    sols = []

    def record(*args, **kwargs):
        sols.append(numutil.dop853(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(dynamics, "dop853", record)
    e = catalog.entry(eid)
    window = e.window_for(e.merged(None))
    propagate(CatalogField(eid, {}), [1, 0.5j], window, 1e-10, n_nodes=101)
    bloch_propagate(CatalogField(eid, {}), BlochState(np.array([0.6, 0.0, 0.8]), 0.0, 1.0),
                    window, 1e-10, n_nodes=201)
    want = [c for c in SOLVER_WORK["cases"] if c["entry"] == eid]
    got = [{"entry": eid, "solve": name, "nfev": sol.nfev, "n_accepted": sol.n_accepted,
            "n_rejected": sol.n_rejected, "min_step": float(sol.min_step).hex(),
            "types": [type(getattr(sol, k)).__name__ for k in
                      ("nfev", "n_accepted", "n_rejected", "min_step", "t_last")]}
           for name, sol in zip(("propagate", "bloch"), sols)]
    assert got == want
