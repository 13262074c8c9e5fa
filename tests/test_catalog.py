import math

import numpy as np
import pytest

from spineq import catalog
from spineq.dynamics import Trajectory, se_residual, trajectory_se_residuals
from spineq.errors import DomainError
from spineq.fields import CatalogField, eval_field
from spineq.solutions import general_solution

from conftest import assert_rel


def entry_trajectory(eid, params=None, n_nodes=801, window=None):
    """Sample an entry's closed-form solution on a uniform grid."""
    e = catalog.entry(eid)
    p = e.merged(params)
    win = window or e.window_for(p)
    times = np.linspace(win[0], win[1], n_nodes)
    states = np.empty((n_nodes, 2), dtype=complex)
    fields = np.empty((n_nodes, 3), dtype=complex)
    for i, t in enumerate(times):
        u1, u2 = e.solution_components(t, p)
        f1, f3 = e.field_components(t, p)
        states[i] = (u1, u2)
        fields[i] = (f1, 0.0, f3)
    return Trajectory(times, states, fields, est_error=0.0)


class TestEntryAccess:
    def test_all_ids_present(self):
        assert [e.id for e in catalog.entries()] == list(range(1, 27))

    def test_out_of_range(self):
        for bad in (0, 27, -3):
            with pytest.raises(DomainError):
                catalog.entry(bad)

    def test_no_entry_is_flagged(self):
        assert all(e.flagged is None for e in catalog.entries())

    def test_misprint_resolutions_documented(self):
        for eid in (3, 7, 8, 13):
            assert catalog.entry(eid).notes is not None

    def test_constraint_violations(self):
        with pytest.raises(DomainError):
            catalog.entry_solution(16, {"b": 0.0}, 1.0)
        with pytest.raises(DomainError):
            catalog.entry_solution(26, {"b": 0.0}, 0.5)
        with pytest.raises(DomainError):
            catalog.entry_solution(1, {"c": 0.0}, 1.0)

    def test_unevaluable_constraint_is_violated(self):
        # entry 5's constraints divide by w
        e = catalog.entry(5)
        assert "w != 0" in e.failed_constraints(e.merged({"w": 0.0}))
        with pytest.raises(DomainError):
            catalog.verify_entry(5, {"w": 0.0})

    def test_pole_evaluation_raises_singularity(self):
        from spineq.errors import SingularityError

        with pytest.raises(SingularityError) as ei:
            catalog.entry_field(1, None, 0.0)
        assert ei.value.t == 0.0
        with pytest.raises(SingularityError):
            catalog.entry_solution(1, None, 0.0)
        with pytest.raises(SingularityError):
            catalog.entry_field(20, None, math.pi / 2)

    def test_field_examples(self):
        # item 16 shape: F1 = a, F3 = b t + c
        f1, f3 = catalog.entry_field(16, {"a": 1.0, "b": 2.0, "c": 0.0}, 1.0)
        assert_rel(f1, 1.0, 1e-15)
        assert_rel(f3, 2.0, 1e-15)

    def test_poles(self):
        assert catalog.entry(1).poles({"a": 1, "b": 1, "c": 1}, (-1, 1)) == [0.0]
        p = dict(catalog.entry(20).default_params)
        want = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        poles = catalog.entry(20).poles(p, (0.0, 4.8))
        assert_rel(np.array(poles), np.array(want), 1e-12)
        # frequency 2 shifts the pole grid
        p["w"] = 2.0
        poles = catalog.entry(20).poles(p, (0.0, 2.4))
        assert_rel(np.array(poles), np.array(want) / 2, 1e-12)


class TestResiduals:
    @pytest.mark.parametrize("eid", range(1, 27))
    def test_default_params(self, eid):
        rep = catalog.verify_entry(eid)
        assert rep.max_residual <= 1e-6, f"entry {eid}: {rep.max_residual:.3e}"

    def test_spec_spot_checks(self):
        def point_residual(eid, params, t):
            e = catalog.entry(eid)
            p = e.merged(params)

            def u_fn(s):
                return np.array(e.solution_components(s, p))

            def f_fn(s):
                f1, f3 = e.field_components(s, p)
                return np.array([f1, 0, f3])

            return se_residual(u_fn, f_fn, t)

        assert point_residual(16, {"a": 1, "b": 1, "c": 0}, 0.5) <= 1e-6
        assert point_residual(2, {"a": 1, "b": 0, "c": 1}, 1.0) <= 1e-6
        assert point_residual(26, {"a": 1, "b": 0.5, "c": 0.2, "w": 1.0,
                                   "p0": 0.3}, 1.0) <= 1e-6

    def test_random_draws(self, rng):
        for e in catalog.entries():
            for _ in range(5):
                p = e.draw_params(rng)
                rep = catalog.verify_entry(e.id, p)
                assert rep.max_residual <= 1e-6, \
                    f"entry {e.id} params {p}: {rep.max_residual:.3e}"


class TestSecondSolution:
    @pytest.mark.parametrize("eid", range(1, 27))
    def test_general_solution_is_independent(self, eid):
        traj = entry_trajectory(eid, n_nodes=1201)
        out = general_solution(traj, None, 0.0, 1.0)
        res = trajectory_se_residuals(out)
        assert np.max(res[2:-2]) <= 1e-6, f"entry {eid}"
        wronskian = np.abs(traj.states[:, 0] * out.states[:, 1]
                           - traj.states[:, 1] * out.states[:, 0])
        assert np.min(wronskian) > 1e-6


class TestLinearIndependence:
    @pytest.mark.parametrize("eid", range(1, 27))
    def test_gram_determinant(self, eid):
        e = catalog.entry(eid)
        p = e.merged(None)
        win = e.window_for(p)
        times = np.linspace(win[0], win[1], 201)
        f1 = np.empty(len(times), dtype=complex)
        f3 = np.empty(len(times), dtype=complex)
        for i, t in enumerate(times):
            f1[i], f3[i] = e.field_components(t, p)
        g11 = np.trapezoid(np.abs(f1) ** 2, times)
        g33 = np.trapezoid(np.abs(f3) ** 2, times)
        g13 = np.trapezoid(f1 * np.conj(f3), times)
        det = g11 * g33 - abs(g13) ** 2
        assert det > 1e-4 * g11 * g33, f"entry {eid}: near-dependent pair"


class TestScaleFamily:
    def test_identity_scaling(self):
        spec = catalog.scale_family(5, 1.0, 1.0, 1.0, 0.0)
        assert isinstance(spec, CatalogField)
        base = catalog.entry(5).default_params
        for k, v in spec.params.items():
            assert_rel(v, base[k], 1e-15)

    @pytest.mark.parametrize("eid,alpha,beta,omega,phi0", [
        (5, 1.3, 0.8, 1.7, 0.25),
        (20, 0.9, 1.1, 2.0, 0.1),
        (16, 1.2, 0.7, 1.5, 0.3),
        (1, 1.4, 0.6, 2.0, 0.0),
        (17, 0.8, 1.3, 0.7, 0.0),
    ])
    def test_scaled_member_matches_field_and_solves(self, eid, alpha, beta,
                                                    omega, phi0):
        spec = catalog.scale_family(eid, alpha, beta, omega, phi0)
        e = catalog.entry(eid)
        base = e.merged(None)
        win = e.window_for(spec.params if e.kind == "phi"
                           else e.merged(spec.params))
        times = np.linspace(win[0] + 0.01, win[1] - 0.01, 7)
        for t in times:
            got = eval_field(spec, t).as_array()
            phi = omega * t + phi0
            f1, f3 = e.field_components(phi, base) if e.kind == "t" \
                else e.field_components(phi / base["w"].real
                                        if isinstance(base["w"], complex)
                                        else phi / base["w"], base)
            want = np.array([alpha * f1, 0.0, beta * f3])
            assert_rel(got, want, 1e-10, scale=1 + float(np.max(np.abs(want))))
        rep = catalog.verify_entry(eid, spec.params)
        assert rep.max_residual <= 1e-6

    def test_pole_grid_follows_omega(self):
        spec = catalog.scale_family(20, 1.0, 1.0, 2.0, 0.0)
        e = catalog.entry(20)
        poles = e.poles(e.merged(spec.params), (0.0, 2.4))
        assert_rel(np.array(poles), np.array([0.0, math.pi / 4, math.pi / 2,
                                              3 * math.pi / 4]), 1e-12)

    def test_invalid_scalings(self):
        with pytest.raises(DomainError):
            catalog.scale_family(5, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            catalog.scale_family(2, 1.0, 1.0, 1.0, 0.5)  # t-entry needs phi0 = 0
