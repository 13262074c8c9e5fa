import cmath
import contextlib
import io
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq.dynamics import constant_field_propagator, se_residual, stationary_solutions
from spineq.errors import DomainError, SingularityError, SpinEqError
from spineq.fields import ConstField, ExprField, parse_field_spec
from spineq.reductions import (ReductionPlan, SigmaMap, reduce_field,
                               reparametrize_time, sigma_map, sigma_map_field,
                               to_schrodinger_potentials, transform_matrix,
                               transform_solution)
from spineq.spinors import CVec3, EigenPair, Spinor, eigenpairs

from conftest import assert_rel


def _raises_quietly(capsys, call):
    """call() raises DomainError, with no warning and nothing on stdout or
    stderr; returns the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError) as info:
            call()
    assert caught == []
    assert capsys.readouterr() == ("", "")
    return info.value


def rabi_spec(f, Omega, F3):
    return parse_field_spec(
        f"F1 = {f}*cos({Omega}*t); F2 = {f}*sin({Omega}*t); F3 = {F3}")


class TestReduceField:
    def test_zero_alpha_is_identity(self, rng):
        spec = ConstField((0.3 + 0.1j, -0.2, 0.7))
        plan = ReductionPlan.make(CVec3(0, 0, 1), lambda t: 0.0, lambda t: 0.0)
        got = reduce_field(spec, plan, 1.3)
        assert_rel(got.as_array(), [0.3 + 0.1j, -0.2, 0.7], 1e-14)

    def test_z_axis_absorbs_f3(self):
        # l = (0,0,1), alpha' = F3' turns (F1', 0, F3') into the rotating pair
        f1p, f3p = 0.8, 0.5
        spec = ConstField((f1p, 0.0, f3p))
        alpha = lambda t: f3p * t
        plan = ReductionPlan.make(CVec3(0, 0, 1), alpha, lambda t: f3p)
        for t in (0.0, 0.4, 1.1):
            got = reduce_field(spec, plan, t).as_array()
            a = alpha(t)
            want = [f1p * math.cos(2 * a), -f1p * math.sin(2 * a), 0.0]
            assert_rel(got, want, 1e-12)

    def test_rabi_becomes_constant(self):
        f, Omega, F3 = 0.7, 1.3, 0.4
        spec = rabi_spec(f, Omega, F3)
        plan = ReductionPlan.make(CVec3(0, 0, 1), lambda t: Omega * t / 2,
                                  lambda t: Omega / 2)
        samples = np.array([reduce_field(spec, plan, t).as_array()
                            for t in np.linspace(0, 4, 41)])
        spread = np.max(np.abs(samples - samples[0]), axis=0)
        assert np.max(spread) <= 1e-10
        assert_rel(samples[0], [f, 0.0, F3 - Omega / 2], 1e-10)

    def test_projection_vanishes_with_matched_alpha_dot(self, rng):
        # alpha' = F'.l forces F.l = 0
        spec = ConstField((0.4 + 0.2j, -0.3, 0.9 - 0.1j))
        l = CVec3(0.6, 0.0, 0.8)
        fl = (0.6 * (0.4 + 0.2j) + 0.8 * (0.9 - 0.1j))
        plan = ReductionPlan.make(l, lambda t: fl * t, lambda t: fl)
        for t in np.linspace(0, 2, 9):
            F = reduce_field(spec, plan, t)
            norm = np.linalg.norm(F.as_array())
            assert abs(F.dot(CVec3(0.6, 0.0, 0.8))) <= 1e-10 * (1 + norm)

    def test_round_trip_inverse_plan(self, rng):
        spec = ConstField((0.5, 0.2 - 0.4j, -0.8))
        alpha = lambda t: 0.3 * math.sin(t)
        alpha_dot = lambda t: 0.3 * math.cos(t)
        plan = ReductionPlan.make(CVec3(0.0, 1.0, 0.0), alpha, alpha_dot)
        inv = plan.inverse()
        mid = lambda t: reduce_field(spec, plan, t)
        for t in np.linspace(0.1, 2.0, 7):
            back = reduce_field(mid, inv, t)
            assert_rel(back.as_array(), [0.5, 0.2 - 0.4j, -0.8], 1e-12)

    def test_null_axis_branch(self):
        spec = ConstField((0.3, 0.0, 0.6))
        plan = ReductionPlan.make(CVec3(1, 1j, 0), lambda t: 0.2 * t,
                                  lambda t: 0.2)
        F = reduce_field(spec, plan, 0.7).as_array()
        # manual evaluation of the null-branch formula
        fp = np.array([0.3, 0.0, 0.6], dtype=complex)
        l = np.array([1, 1j, 0], dtype=complex)
        a = 0.2 * 0.7
        want = fp + 2 * a * np.cross(fp, l) + l * (2 * a * a * (fp @ l) - 0.2)
        assert_rel(F, want, 1e-14)

    @pytest.mark.parametrize("l", [(math.nan, 0, 1), (math.inf, 0, 0),
                                   (0, 1, complex(0, -math.inf))])
    def test_non_finite_axis_rejected(self, l):
        # it once gave a plan of NaN, and a numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="transform axis must be finite"):
                ReductionPlan.make(l, lambda t: 0.0)

    def test_axis_scale_drops_out(self, capsys):
        # l.l once underflowed to 0 (a null axis) or overflowed to inf (l
        # normalized to 0) outside about 1e+-150, with no error
        spec = ConstField((0.5, 0.1, 0.2))
        alpha = lambda t: 0.3 * t + 0.2 * math.sin(t)  # noqa: E731
        l = np.array([0.48, 0.6, 0.64])
        want = reduce_field(spec, ReductionPlan.make(l, alpha), 0.7).as_array()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in [*(10.0 ** k for k in range(-300, 301, 25)), 1.7e308]:
                got = reduce_field(spec, ReductionPlan.make(c * l, alpha), 0.7).as_array()
                assert_rel(got, want, 4e-16)
                # a null axis keeps its length, which is part of the transform
                plan = ReductionPlan.make(c * np.array([1, 1j, 0]), alpha)
                assert plan.null and np.array_equal(plan.l, c * np.array([1, 1j, 0]))
        assert capsys.readouterr() == ("", "")

    def test_zero_axis_rejected(self):
        with pytest.raises(DomainError):
            ReductionPlan.make(CVec3(0, 0, 0), lambda t: 0.0)

    @pytest.mark.parametrize("F, l, alpha", [((1, 0, 1), (0, 0, 1), 400j),
                                             ((10, 0, 1), (0, 0, 1), 355j),
                                             ((1, 0, 1), (1, 1j, 0), 1e200)])
    def test_past_the_double_range_raises_domain_error(self, capsys, F, l, alpha):
        # cos(2 alpha) overflows at 800i; at 710i it is finite, but times
        # F1 = 10 it is not; on the null branch alpha^2 overflows
        plan = ReductionPlan.make(l, lambda t: alpha, lambda t: 0.0)
        err = _raises_quietly(capsys, lambda: reduce_field(CVec3(*F), plan, 0.5))
        assert str(err) == f"reduced field at t = 0.5 (alpha = {complex(alpha)}) is not finite"


class TestTransformSolution:
    def test_identity(self):
        plan = ReductionPlan.make(CVec3(0, 0, 1), lambda t: 0.0, lambda t: 0.0)
        V = Spinor(0.3 + 1j, -0.7)
        assert transform_solution(V, plan, 0.0) == V

    def test_quarter_turn(self):
        plan = ReductionPlan.make(CVec3(0, 0, 1), lambda t: math.pi / 2,
                                  lambda t: 0.0)
        got = transform_solution(Spinor(1, 0), plan, 0.0)
        assert_rel(got.as_array(), [1j, 0], 1e-15)

    def test_null_branch_matrix(self):
        plan = ReductionPlan.make(CVec3(1, 1j, 0), lambda t: 1.0, lambda t: 0.0)
        got = transform_solution(Spinor(0, 1), plan, 0.0)
        # sigma.(1, i, 0) = [[0, 2], [0, 0]]; T = I + i alpha sigma.l
        assert_rel(got.as_array(), [2j, 1], 1e-15)

    @pytest.mark.parametrize("l, alpha", [((0, 0, 1), 1000j), ((1, 1j, 0), 1e308),
                                          ((0, 0, 1), math.nan), ((0, 0, 1), math.inf)])
    def test_past_the_double_range_raises_domain_error(self, capsys, l, alpha):
        plan = ReductionPlan.make(l, lambda t: alpha, lambda t: 0.0)
        for call in (lambda: transform_matrix(plan, 0.5),
                     lambda: transform_solution(Spinor(1, 0), plan, 0.5)):
            err = _raises_quietly(capsys, call)
            assert str(err) == f"transform matrix at t = 0.5 (alpha = {complex(alpha)}) is not finite"

    def test_transformed_pair_solves_reduced_equation(self):
        # V = T V' with V' a constant-field solution: residual of (F, V)
        Fp = np.array([0.4, 0.1, 0.8], dtype=complex)
        spec = ConstField(tuple(Fp))
        V0 = np.array([0.8, 0.1 - 0.4j])
        plan = ReductionPlan.make(CVec3(0.6, 0.0, 0.8),
                                  lambda t: 0.3 * math.sin(t),
                                  lambda t: 0.3 * math.cos(t))

        def u_fn(t):
            vp = constant_field_propagator(Fp, t) @ V0
            return transform_matrix(plan, t) @ vp

        def f_fn(t):
            return reduce_field(spec, plan, t).as_array()

        worst = max(se_residual(u_fn, f_fn, t) for t in np.linspace(0.1, 2.0, 15))
        assert worst <= 1e-6

    def test_null_branch_pair_residual(self):
        Fp = np.array([0.5, 0.0, 0.3], dtype=complex)
        spec = ConstField(tuple(Fp))
        V0 = np.array([1.0, 0.2j])
        plan = ReductionPlan.make(CVec3(1, 1j, 0), lambda t: 0.2 * t,
                                  lambda t: 0.2)

        def u_fn(t):
            return transform_matrix(plan, t) @ (constant_field_propagator(Fp, t) @ V0)

        def f_fn(t):
            return reduce_field(spec, plan, t).as_array()

        worst = max(se_residual(u_fn, f_fn, t) for t in np.linspace(0.1, 2.0, 15))
        assert worst <= 1e-6


class TestSigmaMaps:
    def test_flip3_on_basis(self):
        assert sigma_map(Spinor(1, 0), SigmaMap.FLIP3) == Spinor(0, 1)

    def test_xy_map_unitary(self, rng):
        for _ in range(20):
            V = Spinor(complex(rng.normal(), rng.normal()),
                       complex(rng.normal(), rng.normal()))
            U = sigma_map(V, SigmaMap.XY)
            assert_rel(U.norm2(), V.norm2(), 1e-14)

    def test_involution_up_to_phase(self, rng):
        V = Spinor(0.3 + 0.2j, -0.8 + 0.5j)
        for which in (SigmaMap.FLIP3, SigmaMap.FLIP1, SigmaMap.FLIP13,
                      SigmaMap.SWAP13):
            W = sigma_map(sigma_map(V, which), which)
            ratio = W.v1 / V.v1
            assert_rel(abs(ratio), 1.0, 1e-12)
            assert_rel(W.as_array(), ratio * V.as_array(), 1e-12)
        # the XY map squares to i sigma_1, i.e. the FLIP3 map up to phase
        W = sigma_map(sigma_map(V, SigmaMap.XY), SigmaMap.XY)
        want = 1j * sigma_map(V, SigmaMap.FLIP3).as_array()
        assert_rel(W.as_array(), want, 1e-12)

    @pytest.mark.parametrize("which", list(SigmaMap))
    def test_mapped_solution_solves_partner_field(self, which):
        F = np.array([1.0, 0.0, 2.0], dtype=complex)
        V0 = np.array([0.6, 0.8], dtype=complex)

        def u_fn(t):
            V = constant_field_propagator(F, t) @ V0
            return sigma_map(Spinor.from_array(V), which).as_array()

        partner = sigma_map_field(CVec3.from_array(F), which).as_array()

        def f_fn(t):
            return partner

        worst = max(se_residual(u_fn, f_fn, t) for t in np.linspace(0, 2, 11))
        assert worst <= 1e-8

    def test_partner_field_table(self):
        F = CVec3(1.0, 0.0, 2.0)
        assert sigma_map_field(F, SigmaMap.XY) == CVec3(1.0, 2.0, 0j)
        assert sigma_map_field(F, SigmaMap.FLIP3) == CVec3(1.0, 0j, -2.0)
        assert sigma_map_field(F, SigmaMap.FLIP1) == CVec3(-1.0, 0j, 2.0)
        assert sigma_map_field(F, SigmaMap.FLIP13) == CVec3(-1.0, 0j, -2.0)
        assert sigma_map_field(F, SigmaMap.SWAP13) == CVec3(2.0, 0j, 1.0)


class TestReparametrizeTime:
    def test_identity(self):
        spec = ConstField((0.2, 0.0, 0.9))
        got = reparametrize_time(spec, lambda t: t, 1.1, Tdot=lambda t: 1.0)
        assert_rel(got.as_array(), [0.2, 0.0, 0.9], 1e-14)

    def test_constant_scaling(self):
        spec = ConstField((0.0, 0.0, 1.0))
        got = reparametrize_time(spec, lambda t: 2 * t, 0.6, Tdot=lambda t: 2.0)
        assert_rel(got.as_array(), [0, 0, 2.0], 1e-14)

    def test_chain_rule(self):
        spec = parse_field_spec("F3 = 1/t")
        got = reparametrize_time(spec, lambda t: t * t, 1.7)
        # F3'(t) = (1/t^2) * 2t = 2/t
        assert_rel(got.as_array()[2], 2 / 1.7, 1e-9)

    def test_decreasing_rejected(self):
        spec = ConstField((0, 0, 1))
        with pytest.raises(DomainError):
            reparametrize_time(spec, lambda t: -t, 0.5, Tdot=lambda t: -1.0)

    @pytest.mark.parametrize("T, Tdot, t, match", [
        (lambda t: t, None, math.nan, "time t = nan is not finite"),
        (lambda t: math.nan, lambda t: 1.0, 0.5, r"T\(0.5\) is not finite"),
        (lambda t: t, lambda t: math.nan, 0.5, "finite real nonzero derivative at t = 0.5"),
        (lambda t: t, None, 1e308, "finite real nonzero derivative at t = 1e\\+308"),
        (lambda t: math.inf, lambda t: 1.0, 0.5, r"T\(0.5\) is not finite"),
    ], ids=["t-nan", "T-nan", "Tdot-nan", "t-1e308", "T-inf"])
    def test_non_finite_is_a_domain_error(self, capsys, T, Tdot, t, match):
        # each once returned CVec3(nan, nan, nan), the last after three warnings
        err = _raises_quietly(capsys, lambda: reparametrize_time(ConstField((0.5, 0, 0.2)),
                                                                 T, t, Tdot))
        assert re.search(match, str(err))


class TestSchrodingerPotentials:
    def test_constant_transverse(self):
        # the 1e-5 difference step bounds the achievable accuracy near 1e-6
        a = 0.8
        V1, V2 = to_schrodinger_potentials(ConstField((a, 0.0, 0.0)), 0.9)
        assert_rel(V1, -a * a, 1e-6)
        assert_rel(V2, -a * a, 1e-6)

    def test_constant_tilted(self):
        a, b = 0.8, 0.5
        V1, V2 = to_schrodinger_potentials(ConstField((a, 0.0, b)), 1.2)
        assert_rel(V1, -a * a - b * b, 1e-6)
        assert_rel(V2, -a * a - b * b, 1e-6)

    def test_vanishing_transverse_rejected(self):
        with pytest.raises(DomainError):
            to_schrodinger_potentials(ConstField((0.0, 0.0, 1.0)), 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_a_domain_error(self, capsys, t):
        # a ConstField once gave numbers at these times, a DSL field a
        # SingularityError; reduce_field raised after numpy's warnings
        plan = ReductionPlan.make((0, 0, 1), lambda s: 0.3 * s)
        for call in (lambda: to_schrodinger_potentials(ConstField((0.5, 0.1, 0.2)), t),
                     lambda: to_schrodinger_potentials(parse_field_spec("F1 = 1 + t"), t),
                     lambda: reduce_field(ConstField((0.5, 0.1, 0.2)), plan, t),
                     lambda: transform_matrix(plan, t)):
            assert str(_raises_quietly(capsys, call)) == f"time t = {t} is not finite"

    def test_the_field_is_sampled_once_per_stencil_node(self):
        # t, t +- h, t +- 2h for the first differences, t +- h2, t +- 2h2 for
        # the second: 9 nodes, each sampled once
        nodes = []

        def field(s):
            nodes.append(s)
            return (1.0 + 0.3 * math.sin(s), 0.2 * s, 0.5 * s * s)

        V1, V2 = to_schrodinger_potentials(field, 0.7)
        assert len(nodes) == len(set(nodes)) == 9 and nodes[0] == 0.7
        assert cmath.isfinite(V1) and cmath.isfinite(V2)

    def test_a_vanishing_transverse_field_is_reported_before_a_pole_beside_it(self):
        # A_1 = A_2 = F1 = t - 1 vanishes at t = 1, and every other stencil
        # node is a pole: the A_s check at t comes first
        def field(s):
            if s != 1.0:
                raise SingularityError(f"pole at {s}", t=s)
            return (s - 1.0, 0.0, 0.5)

        with pytest.raises(DomainError, match=re.escape("A_1 = F1 - iF2 vanishes at t = 1.0")):
            to_schrodinger_potentials(field, 1.0)

    def test_component_functions_satisfy_their_equation(self):
        # psi_s = v_s / sqrt(A_s) obeys psi'' = V_s psi along a propagated path
        from spineq.dynamics import propagate
        from spineq.numutil import central_second_difference

        spec = parse_field_spec(
            "F1 = 1 + 0.3*sin(t); F2 = 0.2*cos(t); F3 = 0.5")
        traj = propagate(spec, np.array([1.0, 0.4 - 0.2j]), (0.0, 2.0),
                         tol=1e-13, n_nodes=401)
        h = traj.times[1] - traj.times[0]
        F = traj.field_samples
        A = np.stack([F[:, 0] - 1j * F[:, 1], F[:, 0] + 1j * F[:, 1]], axis=1)
        psi = traj.states / np.sqrt(A)
        d2 = central_second_difference(psi[:-4], psi[1:-3], psi[2:-2], psi[3:-1], psi[4:], h)
        pots = np.array([to_schrodinger_potentials(spec, t) for t in traj.times[2:-2]])
        res = d2 - pots * psi[2:-2]
        worst = np.max(np.abs(res))
        assert worst <= 1e-6


# +-0, subnormals, +-1e308 and the largest double, +-inf, NaN and ordinary values
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                                     sys.float_info.max, -sys.float_info.max,
                                     math.inf, -math.inf, math.nan]),
                    st.floats(-10.0, 10.0))
_COMPLEX = st.builds(complex, _VALUES, _VALUES)
_VEC3 = st.tuples(_COMPLEX, _COMPLEX, _COMPLEX)
_FIELD_TEXT = parse_field_spec("F1 = a*cos(t); F2 = b; F3 = c*t")


def _field(kind, v):
    """A field of each kind the transforms take, from the 3-vector v."""
    if kind == "const":
        return ConstField(v)
    if kind == "expr":
        return ExprField(_FIELD_TEXT.defs, dict(zip("abc", v)))
    if kind == "cvec3":
        return CVec3(*v)
    return lambda t: v


_FIELDS = st.builds(_field, st.sampled_from(["const", "expr", "cvec3", "callable"]), _VEC3)


def _numbers(out):
    """Every number a call returned, flattened."""
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _numbers(item)]
    if isinstance(out, (Spinor, CVec3)):
        return list(out.as_array())
    if isinstance(out, EigenPair):
        return [out.lam, *out.vector.as_array()]
    if isinstance(out, ReductionPlan):
        return list(out.l)
    return list(np.ravel(out))


def _finite_or_typed(call):
    """call() returns finite values or raises a SpinEqError, with nothing on
    stderr and no warning."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except SpinEqError:
            out = None
    assert [str(w.message) for w in caught] == []
    assert err.getvalue() == ""
    if out is not None:
        assert all(cmath.isfinite(x) for x in _numbers(out)), out


def _plan(l, k, given_rate):
    alpha = lambda t: k * t + 0.2 * cmath.sin(t)  # noqa: E731
    rate = (lambda t: k + 0.2 * cmath.cos(t)) if given_rate else None
    return ReductionPlan.make(l, alpha, rate)


class TestTypedFailures:
    """Every public function of the transforms, and the constant-field maps
    whose vector coercion they share, returns finite values or raises a
    SpinEqError, and writes nothing on stderr."""

    @given(l=_VEC3, k=_VALUES, given_rate=st.booleans(), F=_FIELDS,
           V=st.builds(Spinor, _COMPLEX, _COMPLEX), t=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_exponential_transform(self, l, k, given_rate, F, V, t):
        _finite_or_typed(lambda: _plan(l, k, given_rate))
        try:
            plan = _plan(l, k, given_rate)
        except DomainError:
            return
        _finite_or_typed(lambda: reduce_field(F, plan, t))
        _finite_or_typed(lambda: reduce_field(F, plan.inverse(), t))
        _finite_or_typed(lambda: transform_matrix(plan, t))
        _finite_or_typed(lambda: transform_solution(V, plan, t))

    @given(V=st.builds(Spinor, _COMPLEX, _COMPLEX), F=_VEC3, which=st.sampled_from(SigmaMap))
    @settings(max_examples=200, deadline=None)
    def test_sigma_maps(self, V, F, which):
        _finite_or_typed(lambda: sigma_map(V, which))
        _finite_or_typed(lambda: sigma_map_field(F, which))
        _finite_or_typed(lambda: sigma_map_field(CVec3(*F), which))

    @given(F=_FIELDS, c=_VALUES, given_rate=st.booleans(), t=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_reparametrize_time(self, F, c, given_rate, t):
        T = lambda s: c * s + 0.05 * math.sin(s)  # noqa: E731
        Tdot = (lambda s: c + 0.05 * math.cos(s)) if given_rate else None
        _finite_or_typed(lambda: reparametrize_time(F, T, t, Tdot))

    @given(F=_FIELDS, t=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_schrodinger_potentials(self, F, t):
        _finite_or_typed(lambda: to_schrodinger_potentials(F, t))

    @given(F=_VEC3, t=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_constant_field_maps(self, F, t):
        _finite_or_typed(lambda: constant_field_propagator(F, t))
        _finite_or_typed(lambda: constant_field_propagator(CVec3(*F), t))
        _finite_or_typed(lambda: stationary_solutions(F))
        _finite_or_typed(lambda: eigenpairs(CVec3(*F)))
