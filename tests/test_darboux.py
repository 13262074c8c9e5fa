import cmath
import contextlib
import hashlib
import io
import math
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spineq import catalog, darboux, numutil
from spineq.darboux import (DarbouxParams, constant_f_seed_trajectory,
                            constant_f_solution, constant_f_trajectory,
                            darboux_apply, darboux_field,
                            darboux_from_seed, darboux_params_constant_f,
                            darboux_params_mu_route, intertwine_residual,
                            pair_equation_residual)
from spineq.dynamics import Trajectory, propagate
from spineq.errors import AccuracyError, DomainError, SpinEqError
from spineq.fields import CatalogField, ConstField, field_callable
from spineq.spinors import SIGMA1, SIGMA3, anticonjugate_arr, l_vector_arr, sigma_dot

from conftest import assert_rel, trajectory_se_residuals

F, R, PHI0 = 0.5, 1.0, 0.1
TS = np.linspace(0.0, 2.0, 9)
# _route_values() at the commit before DarbouxParams carried the pair as one function
ROUTE_VALUES_SHA256 = "79bfdf733237f8e36ed65cf9a26879914489c10946b31968f71a8806504e2bd6"


def _bits(values):
    return np.array(values, dtype=complex).view(np.int64).tolist()


@pytest.fixture(scope="module")
def const_params():
    return darboux_params_constant_f(F, R, PHI0)


class TestConstantPair:
    def test_fixed_point_is_identity(self):
        # beta = f, alpha = 0 solves the pair equations and keeps the field
        params = DarbouxParams(pair=lambda t: (0j, complex(F)), R=complex(F))
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


    def test_a_pair_takes_q_minus_f_once(self, monkeypatch):
        cosh, calls = cmath.cosh, []
        monkeypatch.setattr(darboux.cmath, "cosh", lambda x: calls.append(x) or cosh(x))
        f, r, phi0 = 0.5 + 0.1j, 1.0, 0.1
        params = darboux_params_constant_f(f, r, phi0)
        w0 = cmath.sqrt(r * r - f * f)
        for n, t in enumerate(TS.tolist(), start=1):
            a, b = params.pair(t)
            assert len(calls) == n
            d = r * cosh(2 * (w0 * t + phi0)) - f
            qdot = 2 * w0 * r * cmath.sinh(2 * (w0 * t + phi0))
            assert _bits([a, b]) == _bits([-qdot / (2 * d), f + (f * f - r * r) / d])


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

    def test_a_pair_evaluates_the_dense_output_once(self, monkeypatch):
        calls, dense, solve = [], [], darboux.dop853

        def counted(*args, **kwargs):
            dense.append(solve(*args, **kwargs).sol)
            return types.SimpleNamespace(sol=lambda t: calls.append(t) or dense[0](t))

        monkeypatch.setattr(darboux, "dop853", counted)
        r = 0.8
        params = darboux_params_mu_route(lambda t: 0.3 + 0.1 * math.sin(t), r, 0.4, (0.0, 2.0))
        for n, t in enumerate(TS.tolist(), start=1):
            a, b = params.pair(t)
            assert len(calls) == n
            mu = float(dense[0](t)[0])
            assert _bits([a, b]) == _bits([complex(r) * math.cos(mu), complex(r) * math.sin(mu)])

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
        assert np.max(res) <= 1e-5
        # partner field structure: F1' = eps, F2' = 0
        assert np.all(out.field_samples[:, 0] == eps)
        assert np.all(out.field_samples[:, 1] == 0)

    def test_identity_params_give_sigma_f_action(self):
        # alpha = 0, beta = F3: V' = -i (eps s1 + F3 s3) V solves the same
        # equation for a constant field
        eps = 0.4
        params = DarbouxParams(pair=lambda t: (0j, complex(F)), R=complex(F))
        traj = propagate(ConstField((eps, 0.0, F)), np.array([0.7, -0.3j]),
                         (0.0, 2.0), tol=1e-12, n_nodes=1201)
        out = darboux_apply(traj, eps, params)
        assert np.max(np.abs(out.field_samples - traj.field_samples)) == 0
        res = trajectory_se_residuals(out)
        assert np.max(res) <= 1e-5

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

    def test_fewer_than_five_nodes_leave_no_stencil(self, const_params):
        traj = constant_f_trajectory(F, 0.3, 1.0, 1.0, (0.0, 1.0), 4)
        message = "^4 samples: the 4th-order stencil needs at least 5$"
        with pytest.raises(DomainError, match=message):
            darboux_apply(traj, 0.3, const_params)

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
            DarbouxParams(pair=lambda t, c1=c1, c2=c2: (
                c1 * math.cos(3 * t), complex(c2.real * math.sin(2 * t), -0.0)), R=1j),
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
        params = DarbouxParams(pair=lambda t: calls.append(t) or const_params.pair(t),
                               R=const_params.R)
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


    def test_a_pair_takes_four_interpolations(self, monkeypatch):
        seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 41)
        sp = darboux_from_seed(seed, 1j * R)
        L = l_vector_arr(anticonjugate_arr(seed.states), seed.states)
        eps0 = complex(1j * R)
        al, be = -eps0 * L[:, 1] / L[:, 2], -eps0 * L[:, 0] / L[:, 2]
        interp, calls = np.interp, []
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(args[0]) or interp(*args))
        for n, t in enumerate(TS.tolist(), start=1):
            a, b = sp.pair(t)
            assert len(calls) == 4 * n and calls[-4:] == [t] * 4
            want = [complex(interp(t, seed.times, v.real), interp(t, seed.times, v.imag))
                    for v in (al, be)]
            assert _bits([a, b]) == _bits(want)

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


# (R, eps) of the catalog partners: the prototype's set, then three draws
_PARTNER_SETS = [(0.7, 0.9)] + [
    tuple(np.random.default_rng([k, 41]).uniform((0.4, 0.4), (1.2, 1.3))) for k in range(3)]


class TestCatalogPartners:
    """The Darboux partners of entries 16-26, whose F1 = a is constant: the
    entry at a = eps0 = iR is a seed, whose L-vector L = (Vbar, sigma V) gives
    the pair alpha = -eps0 L2/L3, beta = -eps0 L1/L3 in closed form at any
    t, and darboux_apply maps the entry at a = eps to a solution V' for the
    field (eps, 0, 2 beta - F3)."""

    @staticmethod
    def seed_pair(eid, eps0):
        def pair(t):
            v = catalog.entry_solution(eid, {"a": eps0}, t).as_array()[None, :]
            L = l_vector_arr(anticonjugate_arr(v), v)[0]
            return -eps0 * L[1] / L[2], -eps0 * L[0] / L[2]
        return pair

    @pytest.mark.parametrize("R, eps", _PARTNER_SETS)
    @pytest.mark.parametrize("eid", range(16, 27))
    def test_partner_solves_its_field(self, eid, R, eps):
        eps0 = 1j * R
        p = catalog.entry(eid).merged({"a": eps})
        times = np.linspace(*catalog.entry(eid).window_for(p), 401)
        f_fn = field_callable(CatalogField(eid, p))
        states = np.array([catalog.entry_solution(eid, p, t).as_array() for t in times])
        pair = self.seed_pair(eid, eps0)
        out = darboux_apply(Trajectory(times, states, f_fn(times), 0.0), eps,
                            DarbouxParams(pair, R))
        # the first integral alpha^2 + beta^2 = -eps0^2 holds to rounding of
        # the L-vector's quotients: 9.1e-15 measured
        a, b = np.array([pair(t) for t in times]).T
        assert np.max(np.abs(a * a + b * b + eps0 * eps0)) <= 1e-12

        def rhs(t, y):
            F = np.array([eps, 0, 2 * pair(t)[1] - f_fn(t)[2]])
            return -1j * (sigma_dot(F) @ y)

        # against DOP853 from V'(t0) at tol 1e-10, whose global error is a
        # few tol over these windows: 2.5e-10 of max|V'| measured, 100 tol allowed
        sol = numutil.dop853(rhs, (times[0], times[-1]), out.states[0], 1e-10, times, "partner")
        assert np.max(np.abs(sol.y.T - out.states)) <= 1e-8 * np.max(np.abs(out.states))
        # the stencil's truncation at the grid step (window / 400) bounds the
        # residual: 1.4e-7 measured, on entries 17 and 18, whose b/t is steepest
        assert np.max(trajectory_se_residuals(out)) <= 1e-6


class TestIntertwiner:
    def test_identity_params_zero_residual(self):
        params = DarbouxParams(pair=lambda t: (0j, complex(F)), R=complex(F))
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
        bad = DarbouxParams(pair=lambda t: (const_params.alpha(t), const_params.beta(t) + 0.01),
                            R=const_params.R)
        f3 = lambda t: F
        f3p = lambda t: darboux_field(f3, bad, t)
        assert max(intertwine_residual(f3, f3p, bad, t) for t in TS) > 1e-3


def _route_values():
    """Pairs, alpha, beta, the partner field, both residuals and the map of
    a constant-field trajectory, on the three routes (the constant one in
    its hyperbolic, complex and oscillatory regimes), as one complex array."""
    f3m = lambda t: 0.3 + 0.1 * math.sin(t)
    seed = constant_f_seed_trajectory(F, R, PHI0, (0.0, 2.0), 201)
    routes = [
        (darboux_params_constant_f(F, R, PHI0), lambda t: F),
        (darboux_params_constant_f(0.5 + 0.1j, 1.0 - 0.2j, 0.1j), lambda t: 0.5 + 0.1j),
        (darboux_params_constant_f(1.0, 0.5, 0.2), lambda t: 1.0),
        (darboux_params_mu_route(f3m, 0.8, 0.4, (0.0, 2.0)), f3m),
        (darboux_from_seed(seed, 1j * R), lambda t: F),
    ]
    traj = constant_f_trajectory(F, 0.3, 1.0, 0.5j, (0.0, 2.0), 201)
    values = []
    for params, f3 in routes:
        f3p = lambda s, params=params, f3=f3: darboux_field(f3, params, s)
        for t in TS[1:-1].tolist():
            values += [*params.pair(t), params.alpha(t), params.beta(t), f3p(t),
                       pair_equation_residual(f3, params, t),
                       intertwine_residual(f3, f3p, params, t)]
        out = darboux_apply(traj, 0.3, params)
        values += out.states.ravel().tolist() + out.field_samples.ravel().tolist()
    return np.array(values, dtype=complex)


class TestRecordedValues:
    def test_route_values_as_recorded(self):
        # recorded on x86-64 (glibc's cmath) when each route still built
        # alpha and beta as two functions; other C libraries may round
        # cosh, sinh and exp differently
        values = _route_values()
        assert values.size == 5 * (7 * 7 + 5 * 201)
        assert hashlib.sha256(values.tobytes()).hexdigest() == ROUTE_VALUES_SHA256


class TestNotFinite:
    @pytest.mark.parametrize("args, message", [
        ((math.inf, R, PHI0), "f = inf is not finite"),
        ((F, complex(0, math.nan), PHI0), "R = nanj is not finite"),
        ((F, R, -math.inf), "phi0 = -inf is not finite"),
        ((F, 1e200, PHI0), r"w0 = \(inf\+0j\) is not finite"),
    ])
    def test_constant_route_parameters(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            darboux_params_constant_f(*args)

    def test_constant_route_times(self, const_params):
        for t in (math.inf, math.nan):
            with pytest.raises(DomainError, match=f"^t = {t} is not finite$"):
                const_params.pair(t)
        # cosh raises OverflowError past the double range; inf * 0 gives a NaN
        for t in (410.0, 1e300):
            with pytest.raises(AccuracyError, match=f"double range at t = {re.escape(str(t))}$"):
                const_params.pair(t)

    @pytest.mark.parametrize("args, message", [
        ((F, math.nan, 1.0, 1.0), "eps = nan is not finite"),
        ((F, 0.3, 1.0, complex(math.inf, 0)), r"q = \(inf\+0j\) is not finite"),
        ((F, 1e308, 1.0, 1.0), r"w = \(inf\+0j\) is not finite"),
    ])
    def test_constant_field_solution_parameters(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            constant_f_solution(*args)

    def test_constant_field_solution_times(self):
        sol = constant_f_solution(F, 0.3 + 1j, 1.0, 1.0)
        with pytest.raises(DomainError, match="^t = nan is not finite$"):
            sol(math.nan)
        with pytest.raises(AccuracyError, match="leaves the double range at t = 1000.0$"):
            sol(1000.0)

    @pytest.mark.parametrize("window, n_nodes, message", [
        ((0.0, math.inf), 5, r"window \[0.0, inf\] is not finite"),
        ((-1e308, 1e308), 5, "longer than the double range"),
        ((0.0, 1.0), 0, "n_nodes = 0 must be an integer >= 2"),
        ((0.0, 1.0), 1, "n_nodes = 1 must be an integer >= 2"),
    ])
    def test_constant_field_trajectory_nodes(self, window, n_nodes, message):
        with pytest.raises(DomainError, match=message):
            constant_f_trajectory(F, 0.3, 1.0, 1.0, window, n_nodes)

    def test_apply_takes_a_finite_eps(self, const_params):
        traj = constant_f_trajectory(F, 0.3, 1.0, 1.0, (0.0, 1.0), 11)
        with pytest.raises(DomainError, match="^eps = inf is not finite$"):
            darboux_apply(traj, math.inf, const_params)

    def test_apply_refuses_a_nan_residual(self, const_params):
        traj = constant_f_trajectory(F, 0.3, 1.0, 1.0, (0.0, 1.0), 11)
        states = traj.states.copy()
        states[5] = math.nan
        with pytest.raises(DomainError, match=r"\(residual nan > 1e-05\)"):
            darboux_apply(Trajectory(traj.times, states, traj.field_samples, 0.0), 0.3,
                          const_params)

    def test_apply_takes_an_exact_input_near_the_double_range(self):
        # the difference quotient of states near 1e308 overflows: the input
        # residual is taken again on the states over their largest |component|
        params = darboux_params_constant_f(F, R, 0.0)
        big = constant_f_trajectory(F, 0.3, 1e308, 1.0, (0.0, 1.0), 21)
        mapped = darboux_apply(big, 0.3, params).states
        assert 3e307 < np.abs(mapped).max() < 3.2e307
        # the map is linear in V: the p = 1 solution's image, 1e308 times
        small = darboux_apply(constant_f_trajectory(F, 0.3, 1.0, 1e-308, (0.0, 1.0), 21), 0.3,
                              params).states
        assert_rel(mapped / 1e308, small, 1e-14)
        # the same states under another F3 solve no spin equation
        fields = big.field_samples.copy()
        fields[:, 2] += 0.1
        with pytest.raises(DomainError, match=r"\(residual 1.000e-01 > 1e-05\)"):
            darboux_apply(Trajectory(big.times, big.states, fields, 0.0), 0.3, params)


# ±0, subnormals, ±1e308, ±inf, NaN and ordinary values
_REALS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                                    math.inf, -math.inf, math.nan]),
                   st.floats(-3.0, 3.0))
_COMPLEX = st.builds(complex, _REALS, _REALS)


def _finite(value):
    if isinstance(value, Trajectory):
        return all(np.isfinite(a).all() for a in (value.times, value.states,
                                                  value.field_samples))
    return bool(np.isfinite(np.asarray(value)).all())


class TestTypedFailures:
    """Each entry point returns finite values or raises a SpinEqError, and
    says nothing on stderr."""

    @staticmethod
    def assert_finite_or_typed(call):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                assert _finite(call())
            except SpinEqError:
                pass
        assert [str(w.message) for w in caught] == []
        assert err.getvalue() == ""

    @given(_COMPLEX, _COMPLEX, _COMPLEX, _REALS)
    @settings(max_examples=300, deadline=None)
    def test_constant_route(self, f, r, phi0, t):
        self.assert_finite_or_typed(lambda: darboux_params_constant_f(f, r, phi0).pair(t))

    @given(_REALS, _REALS, _REALS, _REALS)
    @settings(max_examples=100, deadline=None)
    def test_mu_route(self, f3, r, mu0, t):
        self.assert_finite_or_typed(
            lambda: darboux_params_mu_route(lambda s: f3, r, mu0, (0.0, 1.0)).pair(t))

    @given(_COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX, _REALS)
    @settings(max_examples=200, deadline=None)
    def test_seed_route(self, f, r, phi0, eps0, t):
        self.assert_finite_or_typed(lambda: darboux_from_seed(
            constant_f_seed_trajectory(f, r, phi0, (0.0, 1.0), 21), eps0).pair(t))

    @given(_COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX, _REALS)
    @settings(max_examples=300, deadline=None)
    def test_constant_field_solution(self, f, eps, p, q, t):
        self.assert_finite_or_typed(lambda: constant_f_solution(f, eps, p, q)(t))

    @given(_COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX, _REALS, _REALS,
           st.sampled_from([0, 1, 2, 5, 21]))
    @settings(max_examples=200, deadline=None)
    def test_constant_field_trajectory(self, f, eps, p, q, t0, t1, n):
        self.assert_finite_or_typed(lambda: constant_f_trajectory(f, eps, p, q, (t0, t1), n))

    @given(_COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX)
    @example(0.5, 0.3, 1e300, 1.0, 0.0, 1e10)  # the map overflowed, a numpy warning
    @settings(max_examples=200, deadline=None)
    def test_apply(self, f, eps, p, r, phi0, eps_map):
        self.assert_finite_or_typed(lambda: darboux_apply(
            constant_f_trajectory(f, eps, p, 1.0, (0.0, 1.0), 21), eps_map,
            darboux_params_constant_f(f, r, phi0)))
