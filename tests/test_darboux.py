import math

import numpy as np
import pytest

from spineq.darboux import (DarbouxParams, constant_f_seed_trajectory,
                            constant_f_solution, constant_f_trajectory,
                            darboux_apply, darboux_field,
                            darboux_from_seed, darboux_params_constant_f,
                            darboux_params_mu_route, intertwine_residual,
                            pair_equation_residual)
from spineq.dynamics import Trajectory, propagate, trajectory_se_residuals
from spineq.errors import DomainError
from spineq.fields import ConstField
from spineq.spinors import SIGMA1, SIGMA3, anticonjugate_arr, l_vector_arr

from conftest import assert_rel

F, R, PHI0 = 0.5, 1.0, 0.1
TS = np.linspace(0.0, 2.0, 9)


@pytest.fixture(scope="module")
def const_params():
    return darboux_params_constant_f(F, R, PHI0)


class TestConstantPair:
    def test_fixed_point_is_identity(self):
        # beta = f, alpha = 0 solves the pair equations and keeps the field
        params = DarbouxParams(alpha=lambda t: 0j, beta=lambda t: complex(F),
                               R=complex(F))
        f3 = lambda t: F
        assert max(pair_equation_residual(f3, params, t) for t in TS) <= 1e-12
        assert darboux_field(f3, params, 0.7) == F

    def test_pair_equations(self, const_params):
        f3 = lambda t: F
        worst = max(pair_equation_residual(f3, const_params, t) for t in TS)
        assert worst <= 1e-8

    def test_first_integral(self, const_params):
        for t in TS:
            a, b = const_params.pair(t)
            assert abs(a * a + b * b - R * R) <= 1e-10

    def test_sech_family_shape(self):
        # f = 0, R = 1, phi0 = 0: the partner field is -2 / cosh(2t)
        params = darboux_params_constant_f(0.0, 1.0, 0.0)
        f3 = lambda t: 0.0
        for t in TS:
            got = darboux_field(f3, params, t)
            assert_rel(got, -2.0 / math.cosh(2 * t), 1e-12)

    def test_point_value_residual(self):
        params = darboux_params_constant_f(0.5, 1.0, 0.1)
        assert pair_equation_residual(lambda t: 0.5, params, 0.3) <= 1e-8

    def test_partner_formula(self, const_params):
        # F3' = f + 2 (f^2 - R^2)/(Q - f)
        w0 = math.sqrt(R * R - F * F)
        for t in TS:
            Q = R * math.cosh(2 * (w0 * t + PHI0))
            want = F + 2 * (F * F - R * R) / (Q - F)
            got = darboux_field(lambda s: F, const_params, t)
            assert_rel(got, want, 1e-12)

    def test_realness_hyperbolic_regime(self, const_params):
        for t in TS:
            a, b = const_params.pair(t)
            assert abs(a.imag) <= 1e-12 and abs(b.imag) <= 1e-12
            assert abs(darboux_field(lambda s: F, const_params, t).imag) <= 1e-12

    def test_realness_oscillatory_regime(self):
        # R^2 < f^2: automatic phi0 -> i phi0 keeps everything real
        f, r = 1.0, 0.5
        params = darboux_params_constant_f(f, r, 0.2)
        w = math.sqrt(f * f - r * r)
        for t in TS:
            a, b = params.pair(t)
            assert abs(a.imag) <= 1e-12 and abs(b.imag) <= 1e-12
            got = darboux_field(lambda s: f, params, t)
            Q = r * math.cos(2 * (w * t + 0.2))
            assert_rel(got, f + 2 * (f * f - r * r) / (Q - f), 1e-12)
        assert max(pair_equation_residual(lambda s: f, params, t)
                   for t in TS) <= 1e-8

    def test_imaginary_field_property(self):
        # imaginary f with imaginary R: alpha real, beta imaginary,
        # partner field imaginary
        f, r = 0.4j, 0.9j
        params = darboux_params_constant_f(f, r, 0.0)
        for t in TS:
            a, b = params.pair(t)
            assert abs(a.imag) <= 1e-12
            assert abs(b.real) <= 1e-12
            assert abs(darboux_field(lambda s: f, params, t).real) <= 1e-12

    def test_three_parameter_family_match(self, const_params):
        # the generated family coincides with the known three-parameter
        # family c0 + 2 (c1^2 - c0^2)/(c1 cosh(2(t w + c2)) + c0) under
        # (c0, c1, c2) = (f, -R, phi0)
        c0, c1, c2 = F, -R, PHI0
        w = math.sqrt(abs(c1 * c1 - c0 * c0))
        for t in TS:
            Q = c1 * math.cosh(2 * (w * t + c2))
            want = c0 + 2 * (c1 * c1 - c0 * c0) / (Q + c0)
            got = darboux_field(lambda s: F, const_params, t)
            assert_rel(got, want, 1e-8)


class TestMuRoute:
    def test_matches_direct_route(self, const_params):
        a0, b0 = const_params.pair(0.0)
        mu0 = math.atan2(b0.real, a0.real)
        params = darboux_params_mu_route(lambda t: F, R, mu0, (0.0, 2.0), tol=1e-12)
        for t in TS:
            a, b = params.pair(t)
            aw, bw = const_params.pair(t)
            assert abs(a - aw) <= 1e-6
            assert abs(b - bw) <= 1e-6

    def test_satisfies_pair_equations(self):
        params = darboux_params_mu_route(lambda t: 0.3 + 0.1 * math.sin(t),
                                         0.8, 0.4, (0.0, 2.0), tol=1e-12)
        worst = max(pair_equation_residual(lambda t: 0.3 + 0.1 * math.sin(t),
                                           params, t)
                    for t in np.linspace(0.1, 1.9, 7))
        assert worst <= 1e-6

    def test_zero_length_window_is_refused(self):
        with pytest.raises(DomainError, match="t1 != t0"):
            darboux_params_mu_route(lambda t: 0.3, 0.8, 0.4, (1, 1))


class TestApply:
    def test_generated_solution_residual(self, const_params):
        eps = 0.3
        traj = propagate(ConstField((eps, 0.0, F)), np.array([1.0, 0.2 + 0.1j]),
                         (0.0, 2.0), tol=1e-12, n_nodes=1201)
        out = darboux_apply(traj, eps, const_params)
        res = trajectory_se_residuals(out)
        assert np.max(res[2:-2]) <= 1e-5
        # partner field structure: F1' = eps, F2' = 0
        assert np.all(out.field_samples[:, 0] == eps)
        assert np.all(out.field_samples[:, 1] == 0)

    def test_identity_params_give_sigma_f_action(self):
        # alpha = 0, beta = F3: V' = -i (eps s1 + F3 s3) V solves the same
        # equation for a constant field
        eps = 0.4
        params = DarbouxParams(alpha=lambda t: 0j, beta=lambda t: complex(F),
                               R=complex(F))
        traj = propagate(ConstField((eps, 0.0, F)), np.array([0.7, -0.3j]),
                         (0.0, 2.0), tol=1e-12, n_nodes=1201)
        out = darboux_apply(traj, eps, params)
        assert np.max(np.abs(out.field_samples - traj.field_samples)) == 0
        res = trajectory_se_residuals(out)
        assert np.max(res[2:-2]) <= 1e-5

    def test_linearity(self, const_params):
        eps = 0.3
        traj = propagate(ConstField((eps, 0.0, F)), np.array([1.0, 0.2 + 0.1j]),
                         (0.0, 1.0), tol=1e-12, n_nodes=401)
        scaled = Trajectory(traj.times, 2.5 * traj.states,
                            traj.field_samples, traj.est_error)
        out1 = darboux_apply(traj, eps, const_params)
        out2 = darboux_apply(scaled, eps, const_params)
        assert_rel(out2.states, 2.5 * out1.states, 1e-12,
                   scale=float(np.max(np.abs(out1.states))) * 2.5)

    def test_non_solution_rejected(self, const_params):
        times = np.linspace(0, 1, 101)
        states = np.ones((101, 2), dtype=complex)
        fields = np.tile([0.3, 0.0, F], (101, 1)).astype(complex)
        junk = Trajectory(times, states, fields, 0.0)
        with pytest.raises(DomainError):
            darboux_apply(junk, 0.3, const_params)


def _apply_by_node(traj, eps, params):
    """darboux_apply's map node by node, one 2x2 product per node: the
    reference for the batched product's bits."""
    eps = complex(eps)
    states = np.empty_like(traj.states)
    fields = np.empty_like(traj.field_samples)
    for i, t in enumerate(traj.times):
        a, b = params.pair(t)
        A = a * np.eye(2, dtype=complex) - 1j * (eps * SIGMA1 + b * SIGMA3)
        states[i] = A @ traj.states[i]
        fields[i] = (eps, 0.0, 2.0 * b - traj.field_samples[i, 2])
    return states, fields


def _random_maps(seed, count):
    """Seeded (trajectory, eps, pair) triples: exact constant-field inputs of
    5 to 900 nodes, with closed-form pairs and pairs with signed zeros."""
    rng = np.random.default_rng(seed)

    def rc(scale):
        return complex(*(rng.normal(size=2) * scale))

    for k in range(count):
        n = int(rng.integers(5, 901))
        f, eps = rc(0.5), rc(0.3)
        t0 = float(rng.uniform(-2, 2))
        traj = constant_f_trajectory(f, eps, rc(1), rc(1), (t0, t0 + n * 0.005), n)
        c1, c2 = rc(1), rc(1)
        params = [
            darboux_params_constant_f(f, rc(1), rc(0.2)),
            darboux_params_constant_f(f.real, rng.uniform(0.5, 1.5), rng.uniform(0, 0.3)),
            DarbouxParams(alpha=lambda t, c=c1: c * math.cos(3 * t),
                          beta=lambda t, c=c2: complex(c.real * math.sin(2 * t), -0.0),
                          R=1j),
        ][k % 3]
        yield traj, eps, params


class TestApplyByNode:
    """darboux_apply's batched map against the node-by-node one, bit for bit."""

    def test_states_and_fields(self):
        for traj, eps, params in _random_maps(2024, 30):
            out = darboux_apply(traj, eps, params)
            states, fields = _apply_by_node(traj, eps, params)
            assert out.states.tobytes() == states.tobytes()
            assert out.field_samples.tobytes() == fields.tobytes()
            assert out.times.tobytes() == traj.times.tobytes()

    def test_one_pair_call_per_node(self, const_params):
        calls = []
        params = DarbouxParams(alpha=lambda t: calls.append(t) or const_params.alpha(t),
                               beta=const_params.beta, R=const_params.R)
        traj = constant_f_trajectory(F, 0.3, 1.0, 1.0, (0.0, 1.0), 101)
        darboux_apply(traj, 0.3, params)
        assert calls == traj.times.tolist()


class TestSeedRoute:
    def test_matches_direct_construction(self, const_params):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 1201)
        sp = darboux_from_seed(seed, 1j * R)
        for t in TS:
            a, b = sp.pair(t)
            aw, bw = const_params.pair(t)
            assert abs(a - aw) <= 1e-8
            assert abs(b - bw) <= 1e-8
        # the window's ends answer; past them np.interp would hold the end values
        assert sp.window == (0.0, 2.0)
        sp.pair(0.0), sp.pair(2.0)
        for t in (5.0, -1e-9, math.nextafter(2.0, 3.0), math.nan):
            for fn in (sp.alpha, sp.beta):
                with pytest.raises(DomainError, match="outside the window"):
                    fn(t)

    def test_seed_l_vector_is_null(self):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 401)
        L = l_vector_arr(anticonjugate_arr(seed.states), seed.states)
        L2 = np.sum(L * L, axis=1)
        scale = np.max(np.abs(L)) ** 2
        assert np.max(np.abs(L2)) <= 1e-12 * scale

    def test_first_integral_from_seed(self):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 1201)
        sp = darboux_from_seed(seed, 1j * R)
        for t in TS:
            a, b = sp.pair(t)
            assert abs(a * a + b * b - (-(1j * R) ** 2)) <= 1e-10

    def test_window_truncation_on_l3_zero(self):
        # amplitudes p = 1, q = i make L3 vanish at t = 0
        eps0 = 1j * R
        sol = constant_f_solution(0.0, eps0, 1.0, 1j)
        times = np.linspace(-1.0, 1.0, 801)
        states = np.array([sol(t) for t in times])
        fields = np.tile([eps0, 0.0, 0.0], (len(times), 1)).astype(complex)
        seed = Trajectory(times, states, fields, 0.0)
        sp = darboux_from_seed(seed, eps0)
        lo, hi = sp.window
        assert lo > -1.0 + 1e-9 or hi < 1.0 - 1e-9
        assert any(abs(c) < 0.05 for c in sp.crossings)


    @staticmethod
    def _seed(states):
        n = len(states)
        return Trajectory(np.linspace(0.0, 1.0, n), np.asarray(states, dtype=complex),
                          np.zeros((n, 3), dtype=complex), 0.0)

    def test_a_nan_state_leaves_no_usable_node(self):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 21)
        states = seed.states.copy()
        states[7] = math.nan
        with pytest.raises(DomainError, match="^L3 vanishes everywhere on the seed window$"):
            darboux_from_seed(self._seed(states), 1j * R)

    def test_runs_shorter_than_five_nodes_are_refused(self):
        states = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 14).states.copy()
        states[[4, 9]] = 0.0  # runs of 4, 4 and 4 nodes
        with pytest.raises(DomainError, match="^no usable subwindow between L3 zero-crossings$"):
            darboux_from_seed(self._seed(states), 1j * R)

    def test_the_first_of_two_equal_runs_is_kept(self):
        states = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 11).states.copy()
        states[5] = 0.0  # runs [0, 5) and [6, 11)
        seed = self._seed(states)
        sp = darboux_from_seed(seed, 1j * R)
        assert sp.window == (0.0, float(seed.times[4]))
        assert sp.crossings == (float(seed.times[5]),)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_short_seed_usable_everywhere_is_kept_whole(self, n):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 0.5), n)
        sp = darboux_from_seed(seed, 1j * R)
        assert sp.window == (0.0, 0.5) and sp.crossings == ()
        sp.pair(0.25)


class TestIntertwiner:
    def test_identity_params_zero_residual(self):
        params = DarbouxParams(alpha=lambda t: 0j, beta=lambda t: complex(F),
                               R=complex(F))
        f3 = lambda t: F
        f3p = lambda t: darboux_field(f3, params, t)
        assert max(intertwine_residual(f3, f3p, params, t) for t in TS) <= 1e-12

    def test_constant_f_example(self, const_params):
        f3 = lambda t: F
        f3p = lambda t: darboux_field(f3, const_params, t)
        worst = max(intertwine_residual(f3, f3p, const_params, t) for t in TS)
        assert worst <= 1e-8

    def test_perturbed_pair_fails(self, const_params):
        # negative control: breaking beta must break the relations
        bad = DarbouxParams(alpha=const_params.alpha,
                            beta=lambda t: const_params.beta(t) + 0.01,
                            R=const_params.R)
        f3 = lambda t: F
        f3p = lambda t: darboux_field(f3, bad, t)
        assert max(intertwine_residual(f3, f3p, bad, t) for t in TS) > 1e-3
