"""Exact pairs off the catalog's plane, by the paper's exponential
transform: a metamorphic oracle (Chen, Cheung & Yiu, Metamorphic testing,
HKUST-CS98-01, 1998) for propagate, invert_field and the CLI.

Every catalog field is (F1, 0, F3).  If V' solves the spin equation for F',
then V = T V' with T = exp[i alpha(t) sigma.l] solves it for

    l^2 = 1:  F = [F' - l (F'.l)] cos 2a + (F' x l) sin 2a + l (F'.l - a')
    l^2 = 0:  F = F' + 2a (F' x l) + l [2 a^2 (F'.l) - a']

(reductions.reduce_field's formulas), a field with three nonzero
components, complex for a complex l.  Here F is written as DSL text from
the entry's field_dsl, with l = (l1, l2, l3) and alpha = k1 t + k2 sin t
as the document's params, so it runs through the DSL, the solver and the
CLI like any user field, and its poles are the entry's.  The exact V comes
from entry_solution and reductions.transform_matrix, which share no code
with the solve.

Each of the 26 entries at its defaults on its default window, times three
axes: a real one, a complex non-null one (normalized by ReductionPlan.make
to l^2 = 1) and the null axis (1, i, 0).  The bounds are bounds, not bits:
each is derived below from tol and the node spacing h.

The paper's other exact maps close the module: the five discrete sigma
maps, each entry's field taken to its partner field, and a time
reparametrization of each entry.
"""

import cmath
import functools
import json
import math
import re

import numpy as np
import pytest

from spineq import catalog
from spineq.cli import run
from spineq.dynamics import propagate
from spineq.expr import print_expr
from spineq.fields import CatalogField, field_callable, load_field_json
from spineq.reductions import (ReductionPlan, SigmaMap, reparametrize_time, sigma_map,
                               sigma_map_field, transform_matrix)
from spineq.solutions import gauge_from_field, invert_field
from spineq.spinors import Spinor

TOL = 1e-10
NODES = 401
K1, K2 = 0.3, 0.2  # alpha = K1 t + K2 sin t
AXES = {"real": (0.48, 0.6, 0.64), "complex": (0.8, 0.3 + 0.4j, 0.6j), "null": (1, 1j, 0)}

# propagate's bound, |V - T V'| <= STATE_BOUND tol max|V| at every node:
# numutil.dop853 holds each step's error estimate to tol / 4 of the state
# (rtol = atol), and on windows this short DOP853's global error stays a
# small multiple of tol; the 78 pairs read at most 3.8 tol
STATE_BOUND = 10.0
# invert_field's F error per unit error in V', over |V| (see _field_bound)
L_GAIN = 1 + 2**-0.5


def _transformed_dsl(e, null):
    """The DSL text of the field the transform makes of entry e's field."""
    P, Q = (f"({print_expr(e.field_defs[c])})" for c in ("F1", "F3"))
    src = (P, "0", Q)
    cross = (f"(-{Q}*l2)", f"({Q}*l1 - {P}*l3)", f"({P}*l2)")  # F' x l, F' = (P, 0, Q)
    dot = f"({P}*l1 + {Q}*l3)"  # F'.l
    alpha, alpha_dot = "(k1*t + k2*sin(t))", "(k1 + k2*cos(t))"
    if null:
        comps = [f"{src[k]} + 2*{alpha}*{cross[k]} + l{k + 1}*(2*{alpha}^2*{dot} - {alpha_dot})"
                 for k in range(3)]
    else:
        comps = [f"({src[k]} - l{k + 1}*{dot})*cos(2*{alpha}) + {cross[k]}*sin(2*{alpha})"
                 f" + l{k + 1}*({dot} - {alpha_dot})" for k in range(3)]
    return "; ".join(f"F{k + 1} = {c}" for k, c in enumerate(comps))


@functools.cache
def _source(eid):
    """Entry eid's window, its nodes and its exact V' there."""
    e = catalog.entry(eid)
    window = e.window_for(e.merged(None))
    times = np.linspace(window[0], window[1], NODES)
    states = np.array([catalog.entry_solution(eid, None, t).as_array() for t in times])
    return window, times, states


def _document(e, text, **extra):
    """An expr document of the DSL text, with entry e's defaults and extra as params."""
    params = dict(e.merged(None), **extra)
    return {"kind": "expr", "defs": text,
            "params": {k: [complex(v).real, complex(v).imag] for k, v in params.items()}}


@functools.cache
def _pair(eid, axis):
    """(field document, window, nodes, exact V = T V', propagated trajectory)."""
    e = catalog.entry(eid)
    window, times, source = _source(eid)
    plan = ReductionPlan.make(np.array(AXES[axis], dtype=complex),
                              lambda t: K1 * t + K2 * cmath.sin(t))
    doc = _document(e, _transformed_dsl(e, plan.null),
                    l1=plan.l[0], l2=plan.l[1], l3=plan.l[2], k1=K1, k2=K2)
    exact = np.array([transform_matrix(plan, t) @ v for t, v in zip(times, source)])
    traj = propagate(load_field_json(doc), exact[0], window, tol=TOL, n_nodes=NODES)
    return doc, window, times, exact, traj


CASES = [(eid, axis) for axis in AXES for eid in range(1, catalog.N_ENTRIES + 1)]
IDS = [f"{axis}-{eid}" for eid, axis in CASES]


def _state_bound(exact):
    return STATE_BOUND * TOL * np.max(np.linalg.norm(exact, axis=1))


@pytest.mark.parametrize("eid, axis", CASES, ids=IDS)
def test_propagate_follows_the_transformed_solution(eid, axis):
    _, _, times, exact, traj = _pair(eid, axis)
    assert np.array_equal(traj.times, times)
    err = np.max(np.abs(traj.states - exact))
    assert err <= _state_bound(exact), f"{err:.3e}"


def _field_bound(exact, h):
    """Per node, the bound on |invert_field - F| from the trajectory's
    error and the stencils' truncation.

    With |V - exact| <= eps (the propagate bound), a stencil of weights w
    differentiates the error to within sum|w| eps / h, and its truncation
    error is c h^p |V^(p+1)|: the 4th-order central stencil has sum|w| = 3/2,
    c = 1/30, p = 4; the one-sided ones at the two end nodes 20/3, 1/4, 3
    and at the nodes next to them 2, 1/12, 3.  The derivative V^(p+1) is
    read off the exact samples' (p+1)-th differences over h^(p+1), near the
    ends for p = 3, taken twice: it varies over a stencil's span, and the
    real and imaginary parts each take their own mean value.  invert_field
    is F = i/(2 |V|^4) [2 (V,V') L^{v,v} + (Vbar,V') L^{v,vbar}] + c L^{vbar,v},
    with |L^{v,v}| = |V|^2 and |L^{v,vbar}| = sqrt 2 |V|^2: an error d in V'
    moves F by at most (1 + 1/sqrt 2) |d| / |V|.  The 78 pairs reach at most
    0.23 of this bound inside and 0.36 at the end nodes.
    """
    eps = STATE_BOUND * TOL * np.max(np.linalg.norm(exact, axis=1))
    d4 = np.max(np.abs(np.diff(exact, 4, axis=0)), axis=1) / h**4
    d5 = np.max(np.abs(np.diff(exact, 5, axis=0))) / h**5
    near_ends = 2 * max(d4[:2].max(), d4[-2:].max())
    stencil = np.full(len(exact), 1.5 * eps / h + h**4 / 30 * 2 * d5)
    stencil[[0, -1]] = 20 / 3 * eps / h + h**3 / 4 * near_ends
    stencil[[1, -2]] = 2 * eps / h + h**3 / 12 * near_ends
    return L_GAIN * stencil / np.linalg.norm(exact, axis=1)


@pytest.mark.parametrize("eid, axis", CASES, ids=IDS)
def test_invert_field_with_the_gauge_recovers_the_field(eid, axis):
    # c = None gives the minimal field, off by O(1): that is the gauge
    # freedom, so the true gauge is passed
    _, _, times, exact, traj = _pair(eid, axis)
    F = invert_field(traj, c=gauge_from_field(traj))
    err = np.max(np.abs(F - traj.field_samples), axis=1)
    bound = _field_bound(exact, times[1] - times[0])
    inside = slice(2, -2)
    assert np.all(err[inside] <= bound[inside]), f"{np.max(err[inside] / bound[inside]):.3f}"
    ends = [0, 1, -2, -1]
    assert np.all(err[ends] <= bound[ends]), f"{np.max(err[ends] / bound[ends]):.3f}"


@pytest.mark.parametrize("eid, axis", CASES, ids=IDS)
def test_cli_propagates_the_document(eid, axis, tmp_path, capsys):
    doc, window, times, exact, traj = _pair(eid, axis)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    v0 = ",".join(repr(float(x)) for v in exact[0] for x in (v.real, v.imag))
    assert run(["propagate", "--field", str(path), f"--v0={v0}",
                "--window", repr(window[0]), repr(window[1]), "--nodes", str(NODES),
                "--tol", repr(TOL), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.array_equal(np.array(out["times"], dtype=float), times)
    states = np.array([complex(float(re), float(im)) for re, im in out["states"]])
    states = states.reshape(NODES, 2)
    # the text carries the solve's bits
    assert np.array_equal(states, traj.states)
    err = np.max(np.abs(states - exact))
    assert err <= _state_bound(exact), f"{err:.3e}"


# The discrete sigma maps: if V' solves the equation for F = (F1, 0, F3),
# sigma_map(V', which) solves it for the partner field, written here as DSL
# text from the entry's field_defs
PARTNER_TEXT = {
    SigmaMap.XY: "F1 = {P}; F2 = {Q}",
    SigmaMap.FLIP3: "F1 = {P}; F3 = -({Q})",
    SigmaMap.FLIP1: "F1 = -({P}); F3 = {Q}",
    SigmaMap.FLIP13: "F1 = -({P}); F3 = -({Q})",
    SigmaMap.SWAP13: "F1 = {Q}; F3 = {P}",
}
# the partner document's samples against sigma_map_field of the entry's: the
# same ASTs and parameters, so at most a rounding of |F| apart (on x86-64
# they are equal); propagate is held to STATE_BOUND, and the 130 pairs read
# at most 6.0 tol
SAMPLE_BOUND = 2.0**-52
MAP_CASES = [(eid, which) for which in SigmaMap for eid in range(1, catalog.N_ENTRIES + 1)]
MAP_IDS = [f"{which.value}-{eid}" for eid, which in MAP_CASES]


@pytest.mark.parametrize("eid, which", MAP_CASES, ids=MAP_IDS)
def test_sigma_map_pairs(eid, which):
    e = catalog.entry(eid)
    window, times, source = _source(eid)
    P, Q = (print_expr(e.field_defs[c]) for c in ("F1", "F3"))
    spec = load_field_json(_document(e, PARTNER_TEXT[which].format(P=P, Q=Q)))
    mapped = np.array([sigma_map_field(F, which).as_array()
                       for F in field_callable(CatalogField(eid))(times)])
    err = np.abs(field_callable(spec)(times) - mapped)
    assert np.all(err <= SAMPLE_BOUND * np.max(np.abs(mapped), axis=1, keepdims=True))
    exact = np.array([sigma_map(Spinor.from_array(v), which).as_array() for v in source])
    traj = propagate(spec, exact[0], window, tol=TOL, n_nodes=NODES)
    err = np.max(np.abs(traj.states - exact))
    assert err <= _state_bound(exact), f"{err / (TOL * np.max(np.abs(exact))):.2f} tol"


# Time reparametrization: V'(T(t)) solves the equation for F(T(t)) T'(t).
# T(t) = t + c sin(k (t - t0)) with k = pi / (t1 - t0) and c = 0.05 (t1 - t0)
# fixes both ends of the window and keeps T' >= 1 - 0.05 pi > 0.  The
# document substitutes T for t in the entry's ASTs and multiplies by T'.
# reparametrize_time with the given T' computes the same products in another
# order: at most a few roundings of |F| apart (on x86-64 they are equal).
# With T' differenced, the 4th-order stencil's roundoff, about eps |T| / h
# with h = 1e-5 max(1, |t|), dominates: the 26 entries read at most 2.7e-11
# relative, and the bound is 2e-10.  Propagate read at most 1.9 tol.
REPARAM_SAMPLE_BOUND = 8 * 2.0**-52
REPARAM_FD_BOUND = 2e-10


def _reparam(window):
    t0, t1 = window
    k, c = math.pi / (t1 - t0), 0.05 * (t1 - t0)
    T = lambda t: t + c * math.sin(k * (t - t0))  # noqa: E731
    Tdot = lambda t: 1 + c * k * math.cos(k * (t - t0))  # noqa: E731
    text = (f"(t + {c!r}*sin({k!r}*(t - ({t0!r}))))",
            f"(1 + {c * k!r}*cos({k!r}*(t - ({t0!r}))))")
    return T, Tdot, text


@pytest.mark.parametrize("eid", range(1, catalog.N_ENTRIES + 1))
def test_reparametrized_pairs(eid):
    e = catalog.entry(eid)
    window, times, _ = _source(eid)
    T, Tdot, (T_text, Tdot_text) = _reparam(window)
    P, Q = (re.sub(r"\bt\b", T_text, print_expr(e.field_defs[c])) for c in ("F1", "F3"))
    spec = load_field_json(_document(e, f"F1 = ({P})*{Tdot_text}; F3 = ({Q})*{Tdot_text}"))
    exact = np.array([catalog.entry_solution(eid, None, T(t)).as_array() for t in times])
    traj = propagate(spec, exact[0], window, tol=TOL, n_nodes=NODES)
    err = np.max(np.abs(traj.states - exact))
    assert err <= _state_bound(exact), f"{err / (TOL * np.max(np.abs(exact))):.2f} tol"
    inner = times[4:-4:4]
    want = field_callable(spec)(inner)
    scale = np.max(np.abs(want), axis=1)
    for rate, bound in ((Tdot, REPARAM_SAMPLE_BOUND), (None, REPARAM_FD_BOUND)):
        got = np.array([reparametrize_time(CatalogField(eid), T, t, rate).as_array()
                        for t in inner])
        rel = np.max(np.abs(got - want), axis=1) / scale
        assert np.all(rel <= bound), f"{np.max(rel):.2e}"
