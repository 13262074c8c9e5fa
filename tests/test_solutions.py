import math

import numpy as np
import pytest

from spineq.darboux import darboux_apply, darboux_params_constant_f
from spineq.dynamics import Trajectory, field_from_q, propagate, se_residual
from spineq.errors import DomainError
from spineq.fields import ConstField, parse_field_spec
from spineq.solutions import (field_square_from_angles, gauge_from_field,
                              general_solution, invert_field,
                              invert_field_angles, invert_field_selfadjoint)
from spineq.spinors import anticonjugate_arr, l_vector_arr

from conftest import assert_rel, trajectory_se_residuals


def make_traj(times, states, fields=None):
    states = np.asarray(states, dtype=complex)
    if fields is None:
        fields = np.zeros((len(times), 3), dtype=complex)
    return Trajectory(np.asarray(times, float), states,
                      np.asarray(fields, dtype=complex), est_error=0.0)


def trig_field_spec(rng, complex_field):
    terms = []
    for comp in ("F1", "F2", "F3"):
        parts = []
        for m in (1, 2):
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(-0.5, 0.5)
            parts.append(f"{a:.6f}*cos({m}*t) + {b:.6f}*sin({m}*t)")
            if complex_field:
                c = rng.uniform(-0.3, 0.3)
                parts.append(f"{c:.6f}i*cos({m}*t)")
        terms.append(f"{comp} = " + " + ".join(parts))
    return parse_field_spec("; ".join(terms))


# the public functions that differentiate a trajectory's samples with the
# 4th-order stencil (numutil.fd_derivative)
_STENCIL_CALLERS = {
    "invert_field": invert_field,
    "invert_field_selfadjoint": invert_field_selfadjoint,
    "invert_field_angles": invert_field_angles,
    "darboux_apply": lambda traj: darboux_apply(traj, 1.0,
                                                darboux_params_constant_f(0.5, 1.0, 0.1)),
    "field_from_q": lambda traj: field_from_q(traj.times, traj.states[:, [0, 1, 1]]),
}


@pytest.mark.parametrize("name", _STENCIL_CALLERS)
def test_too_few_nodes_for_the_stencil_raise_domain_error(name):
    traj = propagate(ConstField((1, 0, 0.5)), [1, 0], (0, 1), n_nodes=3)
    with pytest.raises(DomainError, match="3 samples: the 4th-order stencil needs at least 5"):
        _STENCIL_CALLERS[name](traj)


class TestGeneralSolution:
    def test_identity_coefficients(self):
        traj = propagate(ConstField((0.3, 0.1, 0.8)), np.array([1.0, 0.2j]),
                         (0, 2), 1e-12, n_nodes=201)
        out = general_solution(traj, 1.0, 0.0)
        assert np.max(np.abs(out.states - traj.states)) == 0.0

    def test_real_field_anticonjugate_branch(self):
        f = 0.9
        times = np.linspace(0, 2, 201)
        states = np.stack([np.exp(-1j * f * times),
                           np.zeros_like(times, dtype=complex)], axis=1)
        fields = np.tile([0.0, 0.0, f], (len(times), 1)).astype(complex)
        traj = make_traj(times, states, fields)
        out = general_solution(traj, 0.0, 1.0)
        want = np.stack([np.zeros_like(times, dtype=complex),
                         np.exp(1j * f * times)], axis=1)
        assert_rel(out.states, want, 1e-12)

    def test_complex_field_second_solution(self):
        spec = ConstField((0.0, 0.0, 1j))
        traj = propagate(spec, np.array([1.0, 0.4]), (0, 2), 1e-12, n_nodes=1201)
        out = general_solution(traj, 0.3 + 0.2j, 1.1 - 0.4j)
        res = trajectory_se_residuals(out)
        assert np.max(res) <= 1e-6

    def test_independence_wronskian(self):
        spec = ConstField((0.4, 0.0, 0.9j))
        traj = propagate(spec, np.array([1.0, 0.3]), (0, 2), 1e-12, n_nodes=1201)
        out = general_solution(traj, 0.0, 1.0)
        w = (traj.states[:, 0] * out.states[:, 1]
             - traj.states[:, 1] * out.states[:, 0])
        assert np.min(np.abs(w)) > 1e-3

    def test_zero_norm_rejected(self):
        times = np.linspace(0, 1, 11)
        states = np.zeros((11, 2), dtype=complex)
        with pytest.raises(DomainError):
            general_solution(make_traj(times, states), 1.0, 0.0)

    @pytest.mark.parametrize("field, v0, n", [((0.0, 0.0, 1j), [1.0, 0.4], 1201),
                                              ((0.4, 0.0, 0.9j), [1.0, 0.3], 1201)])
    def test_bits_of_scipys_simpson(self, field, v0, n):
        # the formula with scipy's cumulative_simpson, pass by pass: the
        # package's Simpson sum is a transcription of it
        from scipy.integrate import cumulative_simpson

        traj = propagate(ConstField(field), np.array(v0), (0, 2), 1e-12, n_nodes=n)
        alpha0, beta0 = 0.3 + 0.2j, 1.1 - 0.4j
        out = general_solution(traj, alpha0, beta0)
        n2 = traj.norms()
        vbar = anticonjugate_arr(traj.states)
        f = np.sum(l_vector_arr(traj.states, vbar) * traj.field_samples.imag, axis=1) / n2 ** 2
        integral = (cumulative_simpson(f.real, x=traj.times, initial=0.0)
                    + 1j * cumulative_simpson(f.imag, x=traj.times, initial=0.0))
        alpha = alpha0 + 2.0 * beta0 * integral
        want = alpha[:, None] * traj.states + (beta0 / n2)[:, None] * vbar
        assert (out.states.view(np.int64) == want.view(np.int64)).all()


class TestInvertField:
    def test_stationary_north_pole(self):
        f = 0.8
        times = np.linspace(0, 2, 401)
        states = np.stack([np.exp(-1j * f * times),
                           np.zeros_like(times, dtype=complex)], axis=1)
        F = invert_field(make_traj(times, states))
        assert_rel(F[2:-2], np.tile([0, 0, f], (len(times) - 4, 1)), 1e-8)
        assert_rel(F, np.tile([0, 0, f], (len(times), 1)), 1e-5)

    def test_rotating_real_vector(self):
        # the real field (0, w, 0) admits this path; it sits at the constant
        # gauge c = -i w/2, while c = 0 gives the complex minimal field
        w = 1.1
        times = np.linspace(0, 2, 401)
        states = np.stack([np.cos(w * times), np.sin(w * times)],
                          axis=1).astype(complex)
        traj = make_traj(times, states)
        F = invert_field(traj, c=lambda t: -0.5j * w)
        assert_rel(F[2:-2], np.tile([0, w, 0], (len(times) - 4, 1)), 1e-8)
        assert_rel(F, np.tile([0, w, 0], (len(times), 1)), 1e-5)
        # the minimal field is a different member of the same family and
        # still admits the path
        Fmin = invert_field(traj)
        idx = len(times) // 2

        def u_fn(t):
            return np.array([math.cos(w * t), math.sin(w * t)], dtype=complex)

        def fmin_fn(t):
            s = u_fn(t)
            sb = anticonjugate_arr(s)
            lv_vb = l_vector_arr(s, sb)
            sdot = np.array([-w * math.sin(w * t), w * math.cos(w * t)],
                            dtype=complex)
            inner_vb_vd = np.sum(sb.conj() * sdot)
            lvv = l_vector_arr(s, s)
            inner_v_vd = np.sum(s.conj() * sdot)
            return 0.5j * (2 * inner_v_vd * lvv + inner_vb_vd * lv_vb)

        assert_rel(Fmin[idx], fmin_fn(times[idx]), 1e-8)
        assert se_residual(u_fn, fmin_fn, times[idx]) <= 1e-8

    def test_gauge_freedom_keeps_solution(self):
        # shifting c by a constant moves F by c L^{vbar,v} and the path
        # still solves the new equation
        w = 1.1
        times = np.linspace(0, 2, 401)
        states = np.stack([np.cos(w * times), np.sin(w * times)],
                          axis=1).astype(complex)
        traj = make_traj(times, states)
        F0 = invert_field(traj, c=lambda t: -0.5j * w)
        F1 = invert_field(traj, c=lambda t: 1.0 - 0.5j * w)
        vbar = anticonjugate_arr(states)
        L_vb_v = l_vector_arr(vbar, states)
        assert_rel(F1, F0 + L_vb_v, 1e-10, scale=float(np.max(np.abs(F1))))

        def u_fn(t):
            return np.array([math.cos(w * t), math.sin(w * t)], dtype=complex)

        def f_fn(t):
            s = u_fn(t)
            sb = anticonjugate_arr(s)
            return np.array([0, w, 0]) + l_vector_arr(sb, s)

        worst = max(se_residual(u_fn, f_fn, t) for t in times[10::80])
        assert worst <= 1e-8

    def test_round_trip_random_fields(self, rng):
        for k in range(6):
            spec = trig_field_spec(rng, complex_field=(k % 2 == 0))
            traj = propagate(spec, np.array([1.0, 0.4 - 0.3j]), (0, 1.5),
                             1e-12, n_nodes=1201)
            c = gauge_from_field(traj)
            F = invert_field(traj, c=c)
            err = np.max(np.abs(F - traj.field_samples)[2:-2])
            assert err <= 1e-5, f"field {k}: {err:.2e}"


class TestInvertSelfAdjoint:
    def test_stationary(self):
        f = 0.8
        times = np.linspace(0, 2, 401)
        states = np.stack([np.exp(-1j * f * times),
                           np.zeros_like(times, dtype=complex)], axis=1)
        F = invert_field_selfadjoint(make_traj(times, states))
        assert np.max(np.abs(F.imag)) <= 1e-8
        assert_rel(F.real, np.tile([0, 0, f], (len(times), 1)), 1e-8)

    def test_rotating(self):
        w = 1.1
        times = np.linspace(0, 2, 401)
        states = np.stack([np.cos(w * times), np.sin(w * times)],
                          axis=1).astype(complex)
        F = invert_field_selfadjoint(make_traj(times, states))
        assert_rel(F.real, np.tile([0, w, 0], (len(times), 1)), 1e-8)

    def test_non_constant_norm_rejected(self):
        times = np.linspace(0, 1, 101)
        states = np.stack([np.exp(0.2 * times),
                           np.zeros_like(times, dtype=complex)], axis=1)
        with pytest.raises(DomainError):
            invert_field_selfadjoint(make_traj(times, states))

    def test_invariance_under_general_solution(self, rng):
        spec = parse_field_spec("F1 = 0.6*cos(t); F2 = 0.2; F3 = 0.5*sin(2*t)")
        traj = propagate(spec, np.array([1.0, 0.3 + 0.4j]), (0, 1.5), 1e-12,
                         n_nodes=801)
        F0 = invert_field_selfadjoint(traj)
        # replace V by a V + b Vbar: same real field must come back
        a, b = 0.8 + 0.3j, 0.4 - 0.5j
        mixed = traj.states * a + anticonjugate_arr(traj.states) * b
        F1 = invert_field_selfadjoint(make_traj(traj.times, mixed))
        assert np.max(np.abs(F1 - F0)[2:-2]) <= 1e-6


def synthetic_constant_norm_path(rng, times):
    """Smooth random constant-norm spinor path staying away from the poles."""
    from spineq.spinors import from_angles, AngleRep

    N = rng.uniform(0.5, 1.5)
    th0 = rng.uniform(1.0, math.pi - 1.0)
    amp = rng.uniform(0.1, 0.35)
    w1, w2, w3 = rng.uniform(0.5, 1.5, size=3)
    d1, d2, d3 = rng.uniform(0, 2 * math.pi, size=3)
    states = np.empty((len(times), 2), dtype=complex)
    for i, t in enumerate(times):
        theta = th0 + amp * math.sin(w1 * t + d1)
        phi = 0.7 * math.sin(w2 * t + d2)
        alpha = 0.9 * math.sin(w3 * t + d3)
        states[i] = from_angles(AngleRep(N, alpha, theta, phi)).as_array()
    return states


class TestAngleRoute:
    def test_agrees_with_l_vector_route(self, rng):
        times = np.linspace(0, 2, 801)
        for _ in range(50):
            states = synthetic_constant_norm_path(rng, times)
            traj = make_traj(times, states)
            Fa = invert_field_angles(traj)
            Fb = invert_field_selfadjoint(traj)
            err = np.max(np.abs(Fa - Fb.real)[2:-2])
            assert err <= 1e-6, f"{err:.3e}"

    def test_field_square_identity(self, rng):
        times = np.linspace(0, 2, 801)
        for _ in range(10):
            states = synthetic_constant_norm_path(rng, times)
            traj = make_traj(times, states)
            F = invert_field_selfadjoint(traj).real
            lhs = field_square_from_angles(traj)
            rhs = np.sum(F * F, axis=1)
            assert np.max(np.abs(lhs - rhs)[2:-2]) <= 1e-8

    def test_angle_route_on_propagated_real_field(self):
        spec = parse_field_spec("F1 = 0.6*cos(t); F2 = 0.2; F3 = 0.5*sin(2*t)")
        traj = propagate(spec, np.array([1.0, 0.3 + 0.4j]), (0, 1.5), 1e-12,
                         n_nodes=801)
        Fa = invert_field_angles(traj)
        err = np.max(np.abs(Fa - traj.field_samples.real)[2:-2])
        assert err <= 1e-6
