"""The package's DOP853 against scipy's solve_ivp(method="DOP853"), bit for bit.

Each solve is recorded where a public function hands it to numutil.dop853,
so the right-hand sides, windows, tolerances and nodes are the ones the
package uses; scipy then solves the same problem at the same rtol = atol.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from spineq import _dop853, catalog, darboux, dynamics, numutil
from spineq.dynamics import BlochState, bloch_propagate, hamiltonian_check, propagate
from spineq.errors import IntegrationError
from spineq.fields import CatalogField, ConstField


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def rtol_of(tol):
    return max(tol / 4.0, 2.3e-14)


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


def test_empty_window_matches_scipy(solves):
    params = darboux.darboux_params_mu_route(lambda t: 0.3, 0.8, 0.4, (1, 1))
    ((rhs, window, y0, tol, t_eval, _), sol), = solves
    ref = scipy_solve(rhs, window, y0, tol, t_eval, dense_output=True)
    # no node is reached: scipy returns empty lists, the package arrays of shape (n, 0)
    assert len(ref.t) == len(ref.y) == 0 and sol.t.shape == (0,) and sol.y.shape == (1, 0)
    assert (sol.nfev, sol.status, sol.message) == (ref.nfev, ref.status, ref.message)
    assert bits(sol.sol(1.0)) == bits(ref.sol(1.0)) and params.mu(1.0) == 0.4


def test_terminal_event_matches_scipy(solves):
    # q' = 2 sqrt(1 - q^2) from p = -pi/2: q = sin(2t + pi/6) reaches the pole near t = 0.52
    rep = hamiltonian_check(lambda t: 0.0, lambda t: 1.0, 0.5, -math.pi / 2, (0, 5),
                            n_nodes=801)
    assert rep.truncated
    ((rhs, window, y0, tol, t_eval, kwargs), sol), (_, angle) = solves
    event = kwargs["event"]
    event.terminal = True  # scipy's flag; the package's event is always terminal
    ref = scipy_solve(rhs, window, y0, tol, t_eval, event=event)
    assert ref.status == 1 and ref.t_events[0].size == 1
    assert bits([sol.t_event]) == bits(ref.t_events[0])
    assert_same(ref, sol)
    assert sol.t[-1] < 0.53 and rep.t_stop == sol.t[-1]


def test_event_root_is_scipys_brentq(monkeypatch):
    # the root of the event above, found on the step's interpolant
    roots = []

    def both(f, a, b, xtol, rtol):
        calls = []
        root = brentq(lambda x: calls.append(x) or f(x), a, b, xtol, rtol)
        ref, info = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
        roots.append((root.hex(), len(calls), ref.hex(), info.function_calls))
        return root

    brentq = _dop853.brentq
    monkeypatch.setattr(_dop853, "brentq", both)
    assert hamiltonian_check(lambda t: 0.0, lambda t: 1.0, 0.5, -math.pi / 2, (0, 5)).truncated
    (root, calls, ref, ref_calls), = roots
    assert (root, calls) == (ref, ref_calls)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2 * x - 5, 2, 3),
    (lambda x: math.cos(x) - x, 0, 1),
    (lambda x: math.exp(x) - 10, 0, 5),
    (lambda x: math.atan(x - 0.3), -10, 30),   # extrapolation steps
    (lambda x: 1 / (x - 0.5) if x != 0.5 else 1.0, 0, 1),   # a pole, no root
    (lambda x: x - 1, 0, 1),                   # a root at an end
    (lambda x: (x - 1e-3) ** 5, -1, 2),        # no convergence in 100 steps
    (lambda x: x * x + 1, -1, 1),              # no sign change
    (lambda x: math.nan if x > 0.7 else x - 0.8, 0, 1),
], ids=["cubic", "cos", "exp", "atan", "pole", "end", "flat", "same-sign", "nan"])
@pytest.mark.parametrize("xtol, rtol", [(4 * _dop853.EPS, 4 * _dop853.EPS), (2e-12, 1e-10)])
def test_brentq_is_scipys(f, a, b, xtol, rtol):
    def outcome(solve, **kw):
        calls = []
        try:
            root = solve(lambda x: calls.append(x) or f(x), a, b, xtol=xtol, rtol=rtol, **kw)
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc), calls
        return root.hex(), calls

    assert outcome(_dop853.brentq) == outcome(scipy_brentq)


def test_overflow_failure_matches_scipy(solves):
    # V1 grows like e^{5t}; the step size falls below the float spacing near t = 141
    with pytest.raises(IntegrationError, match="failed near t = 14"):
        propagate(ConstField((0, 0, 1 + 5j)), [1, 0], (0, 1e300), n_nodes=3)
    ((rhs, window, y0, tol, t_eval, _), _), = solves
    ref = scipy_solve(rhs, window, y0, tol, t_eval)
    rt = rtol_of(tol)
    with np.errstate(all="ignore"):
        sol = _dop853.solve(rhs, window, y0, rt, rt, t_eval, max_nfev=numutil.RHS_BUDGET)
    assert ref.status == -1
    assert_same(ref, sol)
    assert 100 < sol.t_last < 150


def test_budget_refuses_the_call_past_it():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    with pytest.raises(_dop853.BudgetExceeded) as info:
        _dop853.solve(rhs, (0, 100), [1.0], 1e-12, 1e-12, [0, 100], max_nfev=50)
    assert len(calls) == 50
    assert 0 < info.value.t < 100
