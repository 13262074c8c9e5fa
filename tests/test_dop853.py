"""The package's DOP853 against scipy's solve_ivp(method="DOP853"), bit for bit.

Each solve is recorded where a public function hands it to numutil.dop853,
so the right-hand sides, windows, tolerances and nodes are the ones the
package uses; scipy then solves the same problem at the same rtol = atol.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from spineq import _dop853, catalog, darboux, dynamics, numutil
from spineq.dynamics import BlochState, bloch_propagate, hamiltonian_check, propagate
from spineq.errors import DomainError, IntegrationError
from spineq.fields import CatalogField, ConstField, ExprField, bind_field, parse_field_spec


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def rtol_of(tol):
    return tol / 4.0


@pytest.fixture
def solves(monkeypatch):
    """The (arguments, result) of every numutil.dop853 call made through
    dynamics and darboux."""
    calls = []

    def record(rhs, window, y0, tol, t_eval, what, **kwargs):
        call = [(rhs, window, y0, tol, t_eval, kwargs), None]
        calls.append(call)
        call[1] = numutil.dop853(rhs, window, y0, tol, t_eval, what, **kwargs)
        return call[1]

    monkeypatch.setattr(dynamics, "dop853", record)
    monkeypatch.setattr(darboux, "dop853", record)
    return calls


def scipy_solve(rhs, window, y0, tol, t_eval, dense_output=False, event=None):
    rt = rtol_of(tol)
    with np.errstate(all="ignore"):
        return solve_ivp(rhs, window, y0, method="DOP853", rtol=rt, atol=rt,
                         t_eval=t_eval, dense_output=dense_output, events=event)


def assert_same(ref, sol):
    assert bits(sol.t) == bits(ref.t)
    assert bits(sol.y) == bits(ref.y)
    assert (sol.nfev, sol.status, sol.message) == (ref.nfev, ref.status, ref.message)


def assert_counts(sol, ref):
    """The loop's step counts against scipy's dense solution: one
    interpolant per accepted step, 12 calls per trial step, 3 per
    interpolant and 2 to start."""
    steps = ref.sol.interpolants
    assert sol.n_accepted == len(steps)
    assert sol.nfev == 2 + 12 * (sol.n_accepted + sol.n_rejected) + 3 * len(steps)
    assert sol.min_step == min(abs(s.h) for s in steps)


def test_tableau_is_scipys():
    ours = (_dop853.C, _dop853.A, _dop853.B, _dop853.E3, _dop853.E5, _dop853.D)
    theirs = (dop853_coefficients.C, dop853_coefficients.A, dop853_coefficients.B,
              dop853_coefficients.E3, dop853_coefficients.E5, dop853_coefficients.D)
    for a, b in zip(ours, theirs):
        assert bits(a) == bits(b)


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("eid", [1, 5, 9, 16, 21])
def test_propagate_matches_scipy(solves, eid, tol):
    e = catalog.entry(eid)
    window = e.window_for(e.merged(None))
    propagate(CatalogField(eid, {}), [1, 0.5j], window, tol, n_nodes=101)
    ((rhs, window, y0, tol, t_eval, _), sol), = solves
    assert_same(scipy_solve(rhs, window, y0, tol, t_eval), sol)

    ref = scipy_solve(rhs, window, y0, tol, t_eval, dense_output=True)
    dense = numutil.dop853(rhs, window, y0, tol, t_eval, "propagation", dense_output=True)
    assert_same(ref, dense)
    assert_counts(dense, ref)


def test_backward_window_matches_scipy(solves):
    e = catalog.entry(5)
    propagate(CatalogField(5, {}), [1, 0], e.window_for(e.merged(None)), 1e-10, n_nodes=101)
    ((rhs, (t0, t1), y0, tol, t_eval, _), _), = solves
    ref = scipy_solve(rhs, (t1, t0), y0, tol, t_eval[::-1])
    assert_same(ref, numutil.dop853(rhs, (t1, t0), y0, tol, t_eval[::-1], "propagation"))


def _propagation(solves, eid):
    """The right-hand side, window and initial state of entry eid's
    propagation on its default window."""
    e = catalog.entry(eid)
    propagate(CatalogField(eid, {}), [1, 0.5j], e.window_for(e.merged(None)), n_nodes=3)
    ((rhs, window, y0, _, _, _), _), = solves
    return rhs, window, y0


@pytest.mark.parametrize("eid", [5, 16])
def test_nodes_on_every_step_end_match_scipy(solves, eid):
    # the start and each step's end: a node on a step boundary is sampled in
    # the earlier step, at the end of its interpolant
    rhs, window, y0 = _propagation(solves, eid)
    ends = scipy_solve(rhs, window, y0, 1e-10, None, dense_output=True).sol.ts
    sol = numutil.dop853(rhs, window, y0, 1e-10, ends, "propagation")
    assert_same(scipy_solve(rhs, window, y0, 1e-10, ends), sol)
    assert sol.t.size == sol.n_accepted + 1


@pytest.mark.parametrize("eid", [5, 16])
def test_nodes_on_every_step_end_match_scipy_backward(solves, eid):
    # the same from t1 back to t0: a node on a step boundary is still sampled
    # in the step that reaches it first
    rhs, (t0, t1), y0 = _propagation(solves, eid)
    ends = scipy_solve(rhs, (t1, t0), y0, 1e-10, None, dense_output=True).sol.ts
    sol = numutil.dop853(rhs, (t1, t0), y0, 1e-10, ends, "propagation")
    assert_same(scipy_solve(rhs, (t1, t0), y0, 1e-10, ends), sol)
    assert sol.t.size == sol.n_accepted + 1


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("eid", [5, 16])
def test_dense_output_at_step_ends_and_outside_matches_scipy(solves, eid, backward):
    # a time on a step end takes the earlier step's polynomial, and a time
    # past either end of the window the nearest end step's, as in scipy's
    # OdeSolution, whichever way the solve runs (at a step end the two
    # polynomials meet to the bit here, y_old + (y - y_old) being y)
    rhs, (t0, t1), y0 = _propagation(solves, eid)
    if backward:
        t0, t1 = t1, t0
    ref = scipy_solve(rhs, (t0, t1), y0, 1e-10, None, dense_output=True).sol
    sol = numutil.dop853(rhs, (t0, t1), y0, 1e-10, (), "propagation", dense_output=True).sol
    away = t1 - t0
    outside = [math.nextafter(t0, t0 - away), t0 - away / 10,
               math.nextafter(t1, t1 + away), t1 + away / 10]
    assert len(ref.ts) > 10
    for t in [*ref.ts, *outside]:
        assert bits(sol(t)) == bits(ref(t))


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("eid", [1, 21])
def test_hundreds_of_nodes_per_step_match_scipy(solves, eid, backward):
    rhs, (t0, t1), y0 = _propagation(solves, eid)
    if backward:
        t0, t1 = t1, t0
    t_eval = np.linspace(t0, t1, 2001)
    sol = numutil.dop853(rhs, (t0, t1), y0, 1e-6, t_eval, "propagation")
    assert_same(scipy_solve(rhs, (t0, t1), y0, 1e-6, t_eval), sol)
    assert t_eval.size / sol.n_accepted > 300


@pytest.mark.parametrize("where", [0.0, 0.37, 1.0])
def test_single_node_matches_scipy(solves, where):
    rhs, (t0, t1), y0 = _propagation(solves, 9)
    t_eval = np.array([t0 + where * (t1 - t0)])
    sol = numutil.dop853(rhs, (t0, t1), y0, 1e-10, t_eval, "propagation")
    assert_same(scipy_solve(rhs, (t0, t1), y0, 1e-10, t_eval), sol)
    assert sol.y.shape == (2, 1)


def test_bloch_matches_scipy(solves):
    spec = ConstField((0.3 + 0.2j, 0.1, 1.0 - 0.4j))
    bloch_propagate(spec, BlochState(np.array([0.6, 0.0, 0.8]), 0.1, 2.0), (0, 4),
                    tol=1e-10, n_nodes=201)
    ((rhs, window, y0, tol, t_eval, _), sol), = solves
    assert y0.dtype == float and y0.shape == (5,)
    assert_same(scipy_solve(rhs, window, y0, tol, t_eval), sol)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("state", ["complex", "real"])
def test_dense_output_at_the_nodes_is_the_node_pass(solves, state, backward):
    # sol.sol(t) and the one pass over the t_eval nodes run the same
    # polynomial loop: at each node the dense output gives that node's
    # column, bit for bit, for entry 16's spinor and for a Bloch state
    if state == "complex":
        rhs, (t0, t1), y0 = _propagation(solves, 16)
    else:
        bloch_propagate(ConstField((0.3 + 0.2j, 0.1, 1.0 - 0.4j)),
                        BlochState(np.array([0.6, 0.0, 0.8]), 0.1, 2.0), (0, 4), n_nodes=3)
        ((rhs, (t0, t1), y0, _, _, _), _), = solves
    if backward:
        t0, t1 = t1, t0
    t_eval = np.linspace(t0, t1, 401)
    sol = numutil.dop853(rhs, (t0, t1), y0, 1e-10, t_eval, "solve", dense_output=True)
    assert sol.y.dtype == (complex if state == "complex" else float)
    assert sol.n_accepted > 10
    for t, column in zip(sol.t, sol.y.T):
        assert bits(sol.sol(t)) == bits(column)


def test_mu_route_dense_output_matches_scipy(solves):
    t0, t1 = 0.0, 6.0
    params = darboux.darboux_params_mu_route(lambda t: 0.3 + 0.1 * math.sin(t), 0.8, 0.4,
                                             (t0, t1))
    ((rhs, window, y0, tol, t_eval, kwargs), sol), = solves
    assert kwargs == {"dense_output": True}
    ref = scipy_solve(rhs, window, y0, tol, t_eval, dense_output=True)
    # the pair reads only the dense output, so the solve asks for no node:
    # scipy returns empty lists, the package arrays of shape (n, 0)
    assert len(ref.t) == len(ref.y) == 0 and sol.t.shape == (0,) and sol.y.shape == (1, 0)
    assert (sol.nfev, sol.status, sol.message) == (ref.nfev, ref.status, ref.message)
    assert_counts(sol, ref)
    times = np.linspace(t0, t1, 52)[1:-1] + 0.013
    for t in times:
        assert bits(sol.sol(t)) == bits(ref.sol(t))
        assert params.mu(t) == float(ref.sol(t)[0])


@pytest.mark.parametrize("window", [(0.0, 2.0), (2.0, 0.0)], ids=["forward", "backward"])
def test_mu_route_answers_only_within_its_window(solves, window):
    # at both ends mu is the dense output; a time past either end raises,
    # where the end step's polynomial would answer mu(6) = -2085 on (0, 2)
    params = darboux.darboux_params_mu_route(lambda t: 0.3 + 0.1 * math.sin(t), 0.8, 0.4,
                                             window, tol=1e-12)
    (_, sol), = solves
    for end in window:
        assert params.mu(end) == float(sol.sol(end)[0])
    for t in (math.nextafter(0.0, -1.0), math.nextafter(2.0, 3.0), 6.0, math.nan):
        for f in (params.mu, params.alpha, params.beta):
            with pytest.raises(DomainError, match="outside the window"):
                f(t)


def _node_past_root(s):
    """A drive to the pole whose crossing step holds a node past the root;
    s = -1 reverses time."""
    a, b, c = -0.00016864694516316718, -0.00028028423985490243, 0.7620403150218904
    d, e = -1.7855025921457197, -0.430045185260749
    return (lambda t: a + b * math.sin(c * s * t), lambda t: d + e * math.cos(s * t),
            -0.3591419892941625, s * 1.5703001555116094,
            (s * -0.5048496242693603, s * 3.09692914840012), 1e-6, 401)


# (f, g, q0, p0, window, tol, n_nodes): q' = 2 sqrt(1 - q^2) from p = -pi/2
# (+pi/2 backward), q = sin(2|t| + pi/6), reaches the pole near |t| = 0.52;
# slow drives to it; and a solve whose event comes before its second node
_TRUNCATED = {
    "sine-801": (lambda t: 0.0, lambda t: 1.0, 0.5, -math.pi / 2, (0, 5), 1e-10, 801),
    "sine-801-backward": (lambda t: 0.0, lambda t: 1.0, 0.5, math.pi / 2, (0, -5), 1e-10, 801),
    "sine-4001": (lambda t: 0.0, lambda t: 1.0, 0.5, -math.pi / 2, (0, 5), 1e-8, 4001),
    "sine-4001-backward": (lambda t: 0.0, lambda t: 1.0, 0.5, math.pi / 2, (0, -5), 1e-8, 4001),
    "drive-101": (lambda t: 1e-4 * math.sin(t), lambda t: 0.7 + 0.3 * math.cos(t), -0.3,
                  math.pi / 2 + 1e-4, (0, 4), 1e-10, 101),
    "drive-101-backward": (lambda t: 1e-4 * math.sin(t), lambda t: 0.7 + 0.3 * math.cos(t),
                           -0.3, -math.pi / 2 + 1e-4, (1, -3), 1e-10, 101),
    "node-past-root": _node_past_root(1),
    "node-past-root-backward": _node_past_root(-1),
    "one-node": (lambda t: -0.0009252960676574985,
                 lambda t: -1.6905871615537926 - 1.880825565050287e-05 * math.sin(t),
                 -0.9680704389257996, -1.570249615954165, (0.0, 2.2846487775497524),
                 1.554259223623244e-11, 23),
}


@pytest.mark.parametrize("case", _TRUNCATED)
def test_terminal_event_matches_scipy(solves, case):
    f, g, q0, p0, window, tol, n_nodes = _TRUNCATED[case]
    rep = hamiltonian_check(f, g, q0, p0, window, tol, n_nodes=n_nodes)
    assert rep.truncated
    (rhs, window, y0, tol, t_eval, kwargs), sol = solves[0]
    event = kwargs["event"]
    # scipy's flags; the package's event is always terminal, and falls
    event.terminal, event.direction = True, -1
    ref = scipy_solve(rhs, window, y0, tol, t_eval, event=event)
    assert ref.status == 1 and ref.t_events[0].size == 1
    assert bits(sol.t) == bits(ref.t)
    assert bits(sol.y) == bits(ref.y)
    assert (sol.status, sol.message) == (ref.status, ref.message)
    # scipy builds the crossing step's dense output to root the event, even
    # where the step holds no node
    assert sol.nfev in (ref.nfev, ref.nfev - 3)
    assert rep.t_stop == sol.t[-1]


def test_overflow_failure_matches_scipy(solves):
    # V1 grows like e^{5t}; the step size falls below the float spacing near t = 141
    with pytest.raises(IntegrationError, match="failed near t = 14"):
        propagate(ConstField((0, 0, 1 + 5j)), [1, 0], (0, 1e300), n_nodes=3)
    ((rhs, window, y0, tol, t_eval, _), _), = solves
    ref = scipy_solve(rhs, window, y0, tol, t_eval)
    rt = rtol_of(tol)
    with np.errstate(all="ignore"):
        sol = _dop853.solve(rhs, window, y0, rt, t_eval, max_nfev=numutil.RHS_BUDGET)
    assert ref.status == -1
    assert_same(ref, sol)
    assert 100 < sol.t_last < 150


def test_budget_refuses_the_call_past_it():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    with pytest.raises(_dop853.BudgetExceeded) as info:
        _dop853.solve(rhs, (0, 100), [1.0], 1e-12, [0, 100], max_nfev=50)
    assert len(calls) == 50
    assert 0 < info.value.t < 100


def test_nan_first_slope_ends_the_solve():
    # a NaN slope at t0 makes the first step size NaN, which never changes:
    # scipy's loop tries it forever, the stepper stops at once
    sol = _dop853.solve(lambda t, y: [math.nan, 1.0], (0, 1), [1.0, 0.0], 1e-10,
                        [0, 1], max_nfev=numutil.RHS_BUDGET)
    assert (sol.status, sol.message) == (-1, _dop853.MESSAGES[-1])
    assert sol.nfev == 2 and sol.n_accepted == 0 and sol.t.size == 0


# the stepper's scalars, as 0-d arrays of the operand's dtype, against the
# Python and numpy scalars scipy's arithmetic takes: the same values and the
# same ufunc loop, so the same bytes
_SCALARS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf, -math.inf, math.nan,
            1e300, -1e300, 1e-300, -1e-300, 1.0, -0.7, 2.0]


@pytest.mark.parametrize("dt", [np.dtype(complex), np.dtype(float)], ids=["complex", "real"])
@np.errstate(all="ignore")
def test_zero_d_operands_give_the_scalars_bytes(dt):
    x = np.array(_SCALARS)
    if dt.kind == "c":  # every (re, im) pair of the values
        re, im = np.meshgrid(x, x)
        x = np.empty(re.size, dt)
        x.real, x.imag = re.ravel(), im.ravel()
    for h in _SCALARS:
        zero_d = np.array(h, dt)
        assert bits(x * zero_d) == bits(x * dt.type(h)) == bits(x * h)
        assert bits(zero_d * x) == bits(dt.type(h) * x) == bits(h * x)
        assert bits(zero_d + x) == bits(h + x)
    # the dense output's 2 and the spin equation's -1j
    assert bits(np.array(2, dt) * x) == bits(2 * x)
    assert bits(np.array(-1j) * x) == bits(-1j * x)
    # a real state's |y| * rtol + atol, as the error scale takes them
    assert bits(np.array(1e-300) + np.abs(x) * np.array(2.5e-11)) == \
        bits(1e-300 + np.abs(x) * 2.5e-11)


_coefficient = st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                                  allow_nan=False, allow_infinity=False)


@st.composite
def _spin_problems(draw):
    """A DSL field with three nonzero complex components, its right-hand
    side, a window of either direction, its nodes, a y0, a tolerance and
    whether to ask for the dense output."""
    c = draw(st.lists(_coefficient, min_size=8, max_size=8))
    text = "F1 = a0*cos(a1*t) + a2; F2 = b0*t + b1*sin(t); F3 = c0 + c1*exp(c2*t/4)"
    names = ["a0", "a1", "a2", "b0", "b1", "c0", "c1", "c2"]
    params = dict(zip(names, c))
    _, rhs = bind_field(ExprField(parse_field_spec(text).defs, params))
    t0 = draw(st.floats(-2.0, 2.0))
    t1 = t0 + draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.25, 2.0))
    n = draw(st.integers(2, 40))
    y0 = np.array([draw(_coefficient), draw(_coefficient)])
    tol = 10.0 ** draw(st.floats(-12.0, -4.0))
    return rhs, (t0, t1), np.linspace(t0, t1, n), y0, tol, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_spin_problems())
def test_drawn_spin_equations_match_scipy(problem):
    rhs, window, t_eval, y0, tol, dense = problem
    ref = scipy_solve(rhs, window, y0, tol, t_eval, dense_output=dense)
    rt = rtol_of(tol)
    with np.errstate(all="ignore"):
        sol = _dop853.solve(rhs, window, y0, rt, t_eval, dense, max_nfev=numutil.RHS_BUDGET)
    assert_same(ref, sol)
    if dense:
        assert_counts(sol, ref)
        for t in (t_eval[:-1] + t_eval[1:]) / 2:
            assert bits(sol.sol(t)) == bits(ref.sol(t))
