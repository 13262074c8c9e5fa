import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from spineq import catalog, closed_forms
from spineq.dynamics import Trajectory, se_residual
from spineq.errors import AccuracyError, DomainError, SingularityError, SpinEqError
from spineq.fields import CatalogField, eval_field, field_callable
from spineq.solutions import general_solution

from conftest import assert_rel, trajectory_se_residuals


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

    @pytest.mark.parametrize("call", [
        lambda p: catalog.entry_solution(1, p, 0.5),
        lambda p: catalog.entry_field(1, p, 0.5),
        lambda p: catalog.verify_entry(1, p),
        lambda p: field_callable(CatalogField(1, p))(0.5),
    ])
    def test_unknown_parameter_names_are_refused(self, call):
        # a misspelt or foreign name would otherwise leave its parameter at the default
        with pytest.raises(DomainError, match=re.escape(
                "entry 1 does not take ['A', 'w']; it takes ['a', 'b', 'c']")):
            call({"A": 2.0, "w": 1.0, "b": 0.5})

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


# the poles the catalog's hand-written pole tables gave (captured before the
# poles were read off field_dsl): 26 entries at their defaults and 3 draws,
# w > 0, in 4 windows each, as float.hex
POLES_GOLDEN = json.loads(Path(__file__).with_name("catalog_poles_golden.json").read_text())


class TestPoles:
    def test_bit_identical_to_the_hand_written_tables(self):
        cases = POLES_GOLDEN["cases"]
        assert len(cases) == 26 * 4 * 4
        for case in cases:
            e = catalog.entry(case["entry"])
            p = {k: complex(*v) for k, v in case["params"].items()}
            got = [float.hex(t) for t in e.poles(p, tuple(case["window"]))]
            assert got == case["poles"], case

    # entries with a pole of each shape: sin 2phi, tan + cot, cos, sinh,
    # sinh 2phi, coth
    @pytest.mark.parametrize("eid", [4, 5, 7, 8, 10, 26])
    @pytest.mark.parametrize("w", [1.5, -1.5])
    @pytest.mark.parametrize("p0", [0.7, -0.7])
    def test_every_pole_declared_whatever_the_signs(self, eid, w, p0):
        e = catalog.entry(eid)
        p = e.merged({"w": w, "p0": p0})
        window = (-10.0, 10.0)
        poles = np.array(e.poles(p, window))
        assert len(poles) > 0
        for t in poles:
            with pytest.raises(SingularityError):
                e.field_components(t, p)
        # independently: on a grid of step 1e-3 the field exceeds 100 in
        # modulus next to every declared pole and nowhere else
        times = np.linspace(*window, 20001)
        large = times[np.max(np.abs(field_callable(CatalogField(eid, p))(times)), axis=1) > 100]
        assert np.min(np.abs(large[:, None] - poles[None, :]), axis=1).max() < 1e-2
        assert np.min(np.abs(poles[:, None] - large[None, :]), axis=1).max() < 1e-3

    def test_negative_frequency_wide_window(self):
        e = catalog.entry(5)
        p = e.merged({"w": -1.5, "p0": -0.7})
        assert len(e.poles(p, (-10, 10))) == 19
        # the phase -1.5 t - 0.7 falls through -pi/2 at t = 0.5805...
        assert_rel(np.array(e.poles(p, (0, 4.8))),
                   (np.array([-1, -2, -3, -4, -5]) * math.pi / 2 + 0.7) / -1.5, 1e-15)


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


def _per_node_residuals(eid, params=None, window=None, n_points=50):
    """verify_entry's residuals the slow way: se_residual node by node."""
    e = catalog.entry(eid)
    p = e.merged(params)
    win = tuple(window) if window is not None else e.window_for(p)

    def u_fn(t):
        return np.array(e.solution_components(t, p))

    def f_fn(t):
        f1, f3 = e.field_components(t, p)
        return np.array([f1, 0j, f3])

    return np.array([se_residual(u_fn, f_fn, t)
                     for t in np.linspace(win[0], win[1], n_points)])


class TestGridVerification:
    """verify_entry evaluates each closed form on its whole stencil at once;
    that must give the per-node bits and the per-node errors."""

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_residuals_bit_identical_to_per_node(self, eid, monkeypatch):
        e = catalog.entry(eid)
        rng = np.random.default_rng([eid, 4])
        cases = [None] + [e.draw_params(rng) for _ in range(3)]
        for n_points in (7, 50):
            want = [_per_node_residuals(eid, p, n_points=n_points) for p in cases]
            with monkeypatch.context() as m:
                # the grid path must not fall back to the per-node loop
                m.setattr(catalog.CatalogEntry, "solution_components", None)
                got = [catalog.verify_entry(eid, p, n_points=n_points).residuals
                       for p in cases]
            for p, g, w in zip(cases, got, want):
                assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), \
                    f"entry {eid} params {p} n_points {n_points}"

    def test_rows_past_the_difference_range_stay_on_the_grid(self, monkeypatch):
        # entry 24's values reach 5e303 here, and their central difference at
        # h = 1e-5 overflows on the last rows: se_residuals rescues those rows
        # in the grid call, where the grid used to be replayed node by node
        p = {"a": 0.0, "b": 316.22776601683796, "c": 316.22776601683796}
        want = _per_node_residuals(24, p, window=(1.0, 1.02))
        monkeypatch.setattr(catalog.CatalogEntry, "solution_components", None)
        got = catalog.verify_entry(24, p, window=(1.0, 1.02), n_points=50).residuals
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("eid, window, error", [
        (1, (0, 1), SingularityError),  # t ** (i c) at t = 0
        (7, (0.5, 3), DomainError),     # 2F1 argument where no branch applies
        (16, (-50, 50), AccuracyError),  # a Kummer term that is not finite
    ])
    def test_errors_match_per_node(self, eid, window, error):
        with pytest.raises(error) as got:
            catalog.verify_entry(eid, window=window)
        with pytest.raises(error) as want:
            _per_node_residuals(eid, window=window)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "t", None) == getattr(want.value, "t", None)
        if error is SingularityError:
            assert got.value.t == 0.0

    def test_a_failing_grid_is_replayed_once(self, monkeypatch):
        # every scalar series sum comes from the node replay: two per
        # evaluation of the closed form, none from the failing grid call
        from spineq import specfun
        series, components = [], []

        def counted(calls, fn):
            return lambda *args: calls.append(1) or fn(*args)
        monkeypatch.setattr(specfun, "_series", counted(series, specfun._series))
        monkeypatch.setattr(catalog.CatalogEntry, "solution_components",
                            counted(components, catalog.CatalogEntry.solution_components))
        with pytest.raises(AccuracyError, match=re.escape(
                "Kummer series has a term that is not finite at z=717.6994353039116j")):
            catalog.verify_entry(1, window=(0.2, 40), n_points=400)
        assert components and len(series) == 2 * len(components)

    @pytest.mark.parametrize("n_points", [0, -1, 1.5, None])
    def test_n_points_is_a_positive_integer(self, n_points):
        with pytest.raises(DomainError, match=rf"^n_points = {n_points!r} must be an integer >= 1$"):
            catalog.verify_entry(1, n_points=n_points)

    def test_singular_replay_is_silent(self):
        # np.float64 ** complex at t = 0 is a NaN that numpy would warn of
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError):
                catalog.verify_entry(1, window=(0, 1))


GOLDEN = Path(__file__).with_name("verify_residuals_golden.json")


class TestClosedFormsOnArrays:
    """Each closed form on an object array of times, its two series summed
    in one grid pass, against solution_components node by node."""

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_bit_identical_to_per_node(self, eid):
        e = catalog.entry(eid)
        rng = np.random.default_rng([eid, 5])
        for p in [e.merged(None)] + [e.draw_params(rng) for _ in range(3)]:
            times = np.linspace(*e.window_for(p), 23)
            got = e._solution(np.array(list(times), dtype=object), p)
            want = np.array([e.solution_components(t, p) for t in times])
            for i, g in enumerate(got):
                assert np.asarray(g, dtype=complex).view(np.int64).tolist() == \
                    want[:, i].copy().view(np.int64).tolist(), f"entry {eid} params {p}"

    def test_residuals_as_recorded(self):
        # recorded before the two series of each closed form shared a pass
        golden = json.loads(GOLDEN.read_text())["entries"]
        assert sorted(map(int, golden)) == list(range(1, catalog.N_ENTRIES + 1))
        for eid, rows in golden.items():
            for row in rows:
                p = {k: float.fromhex(v) for k, v in row["params"].items()}
                rep = catalog.verify_entry(int(eid), p, n_points=50)
                assert float(rep.max_residual).hex() == row["max"], f"entry {eid} {p}"
                assert hashlib.sha256(rep.residuals.astype("<f8").tobytes()).hexdigest() \
                    == row["sha256"], f"entry {eid} {p}"


class TestNodePowers:
    """closed_forms._tpow on an object array of np.float64 times, as
    verify_entry builds them, against np.float64(t) ** e at each time, bit
    for bit and type for type, with numpy's warnings off as grid_or_replay
    runs it.  A complex e takes one numpy power over the array.  The class
    that differs under that power is the real e: np.float64 ** float is a
    real power, so a real e keeps the per-element power."""

    NODES = [0.0, -0.0, -2.5, -1.0, 1e-300, 1e300, 0.7, 3.0]

    @pytest.mark.parametrize("e", [
        0, 1, -1, 2, -2, 3, -7, 0.5, -0.5,  # real
        1.5j, -2.3j, 0j,  # complex, real part zero
        0.5 - 1.7j, -1.5 + 0.3j, 2 + 0j, -7 + 0j, 0.5 + 0j,  # complex, real part nonzero
    ], ids=repr)
    def test_bit_identical_to_per_node(self, e):
        with np.errstate(all="ignore"):
            got = closed_forms._tpow(np.array([np.float64(x) for x in self.NODES], dtype=object), e)
            want = [np.float64(x) ** e for x in self.NODES]
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


class TestOverflowingParameters:
    """A finite parameter whose square is not is an input error that names
    the parameter, not a fault of a special function."""

    @pytest.mark.parametrize("eid", range(1, 27))
    @pytest.mark.parametrize("a", [1e200, 1e308])
    def test_named(self, eid, a):
        e = catalog.entry(eid)
        p = e.merged({"a": a})
        with pytest.raises(DomainError) as got:
            catalog.verify_entry(eid, {"a": a})
        failed = e.failed_constraints(p)
        if failed:  # the entry's own constraints come first (16: ['a^2/b finite'])
            assert str(got.value) == f"entry {eid} parameter constraints violated: {failed}"
        else:
            assert str(got.value) == \
                f"entry {eid} parameters too large, squares not finite: ['a']"
        with pytest.raises(DomainError):
            catalog.entry_solution(eid, {"a": a}, e.window_for(p)[0])

    def test_every_parameter_is_checked(self):
        with pytest.raises(DomainError, match=r"squares not finite: \['b', 'w'\]"):
            catalog.entry_solution(4, {"b": -1e160, "w": 1e155j}, 0.5)
        assert catalog.entry(16).failed_constraints(
            catalog.entry(16).merged({"a": 1e200})) == ["a^2/b finite"]


class TestSolutionTimes:
    """A time a closed form cannot take is an input error that names the
    entry and t, not cmath's bare ValueError."""

    @pytest.mark.parametrize("eid", range(1, 27))
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_is_rejected_first(self, eid, t):
        with pytest.raises(DomainError, match=f"entry {eid} solution: t = {t} is not finite"):
            catalog.entry_solution(eid, None, t)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_domain_error_of_a_closed_form_names_entry_and_t(self, t):
        # entry 21 takes exp(-2i phi) with phi past the double range
        want = re.escape(f"entry 21 solution undefined at t = {t}: ")
        with pytest.raises(DomainError, match=want):
            catalog.entry_solution(21, None, t)

    @pytest.mark.parametrize("eid", [14, 15, 22, 23, 24, 25, 26])
    def test_an_arithmetic_failure_away_from_a_pole_is_no_singularity(self, eid):
        # at t = 1e20 a closed form takes 0.0 to a complex power or overflows
        # where the field declares no pole; at a declared pole it still is one
        e = catalog.entry(eid)
        assert e.poles(e.merged(None), (1e19, 1e21)) == []
        want = re.escape(f"entry {eid} solution failed at t = 1e+20, away from a field pole: ")
        with pytest.raises(AccuracyError, match=want):
            catalog.entry_solution(eid, None, 1e20)
        if e.poles(e.merged(None), (-1, 1)) == [0.0]:
            with pytest.raises(SingularityError, match=f"entry {eid} solution singular"):
                catalog.entry_solution(eid, None, 0.0)

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_every_entry_at_the_double_range_is_finite_or_typed(self, eid):
        for t in (1e308, -1e308):
            try:
                u = catalog.entry_solution(eid, None, t)
            except SpinEqError:
                continue
            assert np.isfinite(u.as_array()).all()

    @pytest.mark.parametrize("eid, t", [(16, 1e200), (17, 1e308), (18, 1e200)])
    def test_a_confluent_argument_past_the_double_range_is_an_input_error(self, eid, t):
        # the closed form hands the Kummer series a z that is not finite; for
        # entry 16 that z is parabolic_d's z*z/2, and the error names its z
        message = (r"^parabolic_d argument z = \S+: z\*z/2 is past the double range$"
                   if eid == 16 else r"^Kummer argument z = \S+ is not finite$")
        with pytest.raises(DomainError, match=message):
            catalog.entry_solution(eid, None, t)

    def test_a_malformed_closed_form_is_not_an_input_error(self, monkeypatch):
        # only the closed form's own ValueError is the caller's t; one that
        # returns three components is a fault of the program
        entry = catalog.entry(1)
        monkeypatch.setitem(entry.__dict__, "_solution", lambda t, params: (1, 2, 3))
        with pytest.raises(ValueError, match="too many values to unpack") as info:
            entry.solution_components(0.5, {})
        assert not isinstance(info.value, SpinEqError)


class TestVerifyWindow:
    """verify_entry checks a window given to it with numutil.finite_window,
    after the entry and its parameters: a window past the double range is
    the window's error, with nothing written on stderr."""

    @pytest.mark.parametrize("window, message", [
        ((-1e308, 1e308), "window [-1e+308, 1e+308] is longer than the double range"),
        ((0.2, math.inf), "window [0.2, inf] is not finite"),
        ((math.nan, 1.0), "window [nan, 1.0] is not finite"),
    ], ids=["too-long", "inf", "nan"])
    def test_bad_window_is_its_own_error(self, capfd, window, message):
        # each read "entry 1 solution: t = nan is not finite", two of them
        # after numpy's overflow or invalid-value warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=re.escape(message)):
                catalog.verify_entry(1, window=window, n_points=5)
        assert caught == [] and capfd.readouterr() == ("", "")

    def test_entry_and_parameters_are_checked_first(self):
        with pytest.raises(DomainError, match="catalog entry id"):
            catalog.verify_entry(27, window=(0.2, math.inf))
        with pytest.raises(DomainError, match="parameters not finite"):
            catalog.verify_entry(1, {"a": math.nan}, window=(0.2, math.inf))

    def test_reversed_window_keeps_its_bits(self):
        e = catalog.entry(1)
        rep = catalog.verify_entry(1, window=(1.0, 0.2), n_points=7)
        times, res = closed_forms.residuals(e, e.merged(None), (1.0, 0.2), 7)
        assert rep.window == (1.0, 0.2)
        assert rep.residuals.tobytes() == res.tobytes()


class TestSecondSolution:
    @pytest.mark.parametrize("eid", range(1, 27))
    def test_general_solution_is_independent(self, eid):
        traj = entry_trajectory(eid, n_nodes=1201)
        out = general_solution(traj, 0.0, 1.0)
        res = trajectory_se_residuals(out)
        assert np.max(res) <= 1e-6, f"entry {eid}"
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
