"""The closed-form solutions of the 26 catalog entries, and the residual
check verify_entry runs on them.

catalog holds the table (fields, whose ASTs give the poles, parameters,
constraints, windows) and imports this module on the first solution it
needs, so that listing or showing the catalog, or rejecting an entry's
parameters, loads no numpy.

_sol_N is the closed form of entry N, a transcription of the published
formula.  Entries 1-3 and 16-18 are written directly in t; the others use
the phase phi = w t + p0 with parameters w (frequency) and p0 (offset).

The closed forms take one time t or an object array of times: every
operation then applies element by element with the scalar's own Python
or numpy-scalar arithmetic, and the special functions sum their series for
all elements at once, so each element has the bits of the scalar call.
One operation is taken on a typed array instead: the power of the time
nodes, t ** e with a complex e (_tpow, entries 1-3, 17 and 18), one numpy
power over the nodes as complex128.  Its bits hold because a node's own
np.float64 ** e is numpy's scalar complex power, which computes what the
array power computes, and its np.complex128 results are the per-node
type; tests/test_catalog.py's TestNodePowers checks both.  No other
operation is taken on a typed array: numpy's array products may fuse into
FMAs and its array quotients use its own division, so neither has the
bits of the scalar arithmetic a node takes.

Both components are built from series on the same argument, and each
closed form hands them to one call of gauss_2f1_many, kummer_phi_many or
parabolic_d_many, which sums them all in one grid pass.  residuals uses
this to evaluate a whole residual stencil in one call.
"""

from __future__ import annotations

import cmath

import numpy as np

from .fields import CatalogField, field_callable
from .numutil import central_difference, default_step, grid_or_replay, stencil_nodes
from .specfun import gauss_2f1_many, kummer_phi_many, parabolic_d_many, _elementwise

# cmath, element by element on an array, so that the _sol_N closed forms
# run unchanged on an object array of times as well as on one time
_sqrt = _elementwise(cmath.sqrt)
_exp = _elementwise(cmath.exp)
_sin = _elementwise(cmath.sin)
_tanh = _elementwise(cmath.tanh)


def _tpow(t, e):
    """t ** e, at one time t or on an object array of np.float64 times, as
    residuals builds them.  On the array, a complex e takes one numpy power
    over the times as complex128, returned as np.complex128 objects: each
    element's np.float64 ** e is that same complex power, so the bits and
    the type, and hence every later product, are those of the per-element
    power.  A real e stays per element: np.float64 ** float is a real power,
    of another type, and NaN at a negative time where the complex one is not.
    """
    if isinstance(t, np.ndarray) and isinstance(e, complex):
        powers = np.power(t.astype(complex), e)
        return np.array(list(powers.ravel()), dtype=object).reshape(t.shape)
    return t ** e


def _phi(t, p):
    return p["w"] * t + p["p0"]


# ---------------------------------------------------------------------------
# entries written directly in t
# ---------------------------------------------------------------------------

def _sol_1(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    g = 1j * c
    s = _sqrt(a * a + b * b)
    z = 1j * t * t * s
    al = 0.5 * g * (1.0 + b / s)
    e = _exp(-0.5 * z)
    c1 = a * _tpow(t, g + 2) * e
    f1, f2 = kummer_phi_many([(al + 1, g + 2), (al, g)], z)
    return c1 * f1, 2.0 * (1j - c) * _tpow(t, g) * e * f2


def _sol_2(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    s = _sqrt(a * a + b * b)
    z = 1j * c * t * t
    al = 0.5j * (s + b)
    g = 1.0 + 1j * s
    e = _exp(-0.5 * z)
    tg = _tpow(t, g - 1)
    c1 = -a * tg * e
    f1, f2 = kummer_phi_many([(al, g), (al + 1, g)], z)
    return c1 * f1, (s + b) * tg * e * f2


def _sol_3(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    s = _sqrt(a * a + b * b)
    z = 2j * c * t
    al = 1j * (s + b)
    g = 1.0 + 2j * s
    e = _exp(-0.5 * z)
    pref = _tpow(t, 0.5 * (g - 1)) * e
    c1 = -a * pref
    f1, f2 = kummer_phi_many([(al, g), (1 + al, g)], z)
    # second-component coefficient is sqrt(a^2+b^2)+b (as in the sibling
    # family _sol_2); the printed -ia fails residual substitution
    return c1 * f1, (s + b) * pref * f2


def _sol_16(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    sb = _sqrt(b)
    z = (1 + 1j) * (b * t + c) / sb
    mu = -1j * a * a / (2 * b)
    d1, d2 = parabolic_d_many([mu, mu - 1], z)
    return 2 * sb * d1, (1 + 1j) * a * d2


def _sol_17(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    s = _sqrt(a * a + c * c)
    z = 2j * t * s
    g = -1j * b
    al = g * (1.0 - c / s)
    e = _exp(-0.5 * z)
    c1 = (1 - 2j * b) * _tpow(t, g) * e
    f1, f2 = kummer_phi_many([(al, 2 * g), (al + 1, 2 * g + 2)], z)
    return c1 * f1, -1j * a * _tpow(t, g + 1) * e * f2


def _sol_18(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    z = 1j * c * t * t
    al = 1j * a * a / (4 * c)
    g = 0.5 - 1j * b
    e = _exp(-0.5 * z)
    c1 = (2 * b + 1j) * _tpow(t, g - 0.5) * e
    f1, f2 = kummer_phi_many([(al, g), (al + 1, g + 1)], z)
    return c1 * f1, a * _tpow(t, g + 0.5) * e * f2


# ---------------------------------------------------------------------------
# entries in phi = w t + p0
# ---------------------------------------------------------------------------

def _sol_4(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = 0.25j / w * _sqrt(a * a + (b + c) ** 2)
    nu = 0.25j / w * _sqrt(a * a + (b - c) ** 2)
    al = mu + nu - 0.5j * b / w
    be = mu + nu + 0.5j * b / w
    g = 1 + 2 * mu
    pref = z ** mu * (1 - z) ** nu
    c1 = -a * pref
    f1, f2 = gauss_2f1_many([(al + 1, be, g), (al, be + 1, g)], z)
    return c1 * f1, (-4j * w * mu + b + c) * pref * f2


def _sol_5(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j / w * _sqrt(a * a + b * b)
    lam = 0.5j / w * _sqrt(a * a + (b - c) ** 2)
    al = nu + mu + lam
    be = nu + mu - lam
    qn = (1 - z) ** nu
    c1 = 2 * (c + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, 2 * mu), (al + 1, be + 1, 2 * mu + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * qn * f2


def _sol_6(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = -0.5j * b / w
    al = mu - 0.5j * c / w
    be = 0.5 + mu + 2 * nu + 0.5j * c / w
    zm = z ** mu
    c1 = -a * zm * (1 - z) ** (nu + 0.5)
    f1, f2 = gauss_2f1_many([(al + 1, be, 2 * mu + 1), (al, be, 2 * mu + 1)], z)
    return c1 * f1, (_sqrt(a * a + c * c) + c) * zm * (1 - z) ** nu * f2


def _sol_7(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = -_exp(-2j * ph)
    mu = (c - 1j * b) / (2 * w)
    nu = 1j / w * _sqrt(a * a + b * b)
    al = 0.5 + c / w + nu
    be = nu - 1j * b / w
    g = 0.5 + 2 * mu
    qn = (1 - z) ** nu
    c1 = (w + 2 * c - 2j * b) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    # -2ia, not the printed +2ia: the sign is fixed by residual substitution
    # and matches the component ratio of the hyperbolic sibling _sol_24
    return c1 * f1, -2j * a * z ** (mu + 0.5) * qn * f2


def _sol_8(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = 0.5j * (b + c) / w
    be = mu + 0.5j * c / w
    al = 0.5 + 1j * b / w + be
    g = 2 * mu + 1
    zm = z ** mu
    c1 = -a * zm * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g)], z)
    # the source's "-2i w mu a + c" reads as (-2i w mu + c) = sqrt(a^2+c^2)+c
    # (pattern of _sol_6); the grouping with a stray factor a fails residual
    return c1 * f1, (-2j * w * mu + c) * zm * (1 - z) ** (nu + 0.5) * f2


def _sol_9(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j * (b + c) / w
    lam = 0.5 / w * _sqrt(a * a - b * b)
    al = 0.5j * b / w + lam
    be = 0.5j * b / w - lam
    g = 0.5 - 1j * c / w
    c1 = (2 * c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * (1 - z) ** (nu + 0.5) * f2


def _sol_10(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = 0.25j / w * _sqrt(a * a + (b + c) ** 2)
    lam = 0.25j / w * _sqrt(a * a + (b - c) ** 2)
    nu = 0.5j * b / w
    al = mu + nu + lam
    be = mu + nu - lam
    g = 1 + 2 * mu
    zm = z ** mu
    c1 = -a * zm * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (-4j * w * mu + b + c) * zm * (1 - z) ** (nu + 1) * f2


def _sol_11(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    ep = _exp(ph)
    z = ((ep + 1j) / (ep - 1j)) ** 2
    mu = 0.5 / w * _sqrt(a * a + (c - 1j * b) ** 2)
    lam = 0.5 / w * _sqrt(a * a + (c + 1j * b) ** 2)
    nu = 1j * b / w
    al = mu + nu + lam
    be = mu + nu - lam
    g = 1 + 2 * mu
    zm = z ** mu
    c1 = a * zm * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (2 * w * mu - c + 1j * b) * zm * (1 - z) ** (nu + 1) * f2


def _sol_12(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    lam = 0.5j / w * _sqrt(a * a + b * b)
    al = mu + nu + lam
    be = mu + nu - lam
    g = 2 * mu
    qn = (1 - z) ** nu
    c1 = 2 * (c + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * qn * f2


def _sol_13(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    al = mu + nu + 0.5j * b / w
    be = mu + nu - 0.5j * b / w
    g = 1 + 2 * mu
    zm = z ** mu
    qn = (1 - z) ** nu
    c1 = -a * zm * qn
    f1, f2 = gauss_2f1_many([(al + 1, be, g), (al, be + 1, g)], z)
    # -2i w mu + c = sqrt(a^2+c^2) + c (pattern of _sol_6/_sol_8); the
    # printed 2 w mu + c drops the -i and fails residual substitution
    return c1 * f1, (-2j * w * mu + c) * zm * qn * f2


def _sol_14(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = 0.5 * (1 - _tanh(ph))
    mu = 0.5j * (b + c) / w
    nu = 0.5j * (b - c) / w
    lam = _sqrt(a * a - b * b) / w
    al = mu + nu + lam
    be = mu + nu - lam
    g = 0.5 + 2 * mu
    c1 = (2 * b + 2 * c - 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 1)], z)
    return c1 * f1, 2 * a * z ** (mu + 0.5) * (1 - z) ** (nu + 0.5) * f2


def _sol_15(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = 1 - _exp(-2 * ph)
    mu = 1j / w * _sqrt(a * a + b * b)
    nu = 0.5j * (b + c) / w
    al = 0.5 + mu + 1j * c / w
    be = mu + 1j * b / w
    g = 1 + 2 * mu
    zm = z ** mu
    c1 = -a * zm * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g)], z)
    return c1 * f1, (-1j * w * mu + b) * zm * (1 - z) ** (nu + 0.5) * f2


def _sol_19(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = -0.25j * (b + c) / w
    nu = 0.25j * (c - b) / w
    g = 0.5 + 2 * mu
    al = 0.5 / w * (_sqrt(a * a - b * b) - 1j * b)
    be = -0.5 / w * (_sqrt(a * a - b * b) + 1j * b)
    c1 = (b + c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * (1 - z) ** (nu + 0.5) * f2


def _sol_20(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j * b / w
    lam = 0.5 / w * _sqrt(a * a - (b - c) ** 2)
    al = mu + nu + lam
    be = mu + nu - lam
    g = 0.5 + 2 * mu
    c1 = (2 * c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * (1 - z) ** (nu + 0.5) * f2


def _sol_21(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = -_exp(-2j * ph)
    mu = 0.5 / w * _sqrt(a * a + (c - 1j * b) ** 2)
    lam = 0.5 / w * _sqrt(a * a + (c + 1j * b) ** 2)
    nu = 1j * b / w
    al = mu + nu + lam
    be = mu + nu - lam
    g = 1 + 2 * mu
    zm = z ** mu
    c1 = a * zm * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (2 * w * mu - c + 1j * b) * zm * (1 - z) ** (nu + 1) * f2


def _sol_22(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    g = 0.5 + 2 * mu
    al = g + nu + 0.5j * (b + c) / w
    be = nu - 0.5j * (b + c) / w
    qn = (1 - z) ** nu
    c1 = (2 * c + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * qn * f2


def _sol_23(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.25j * (b + c) / w
    nu = 0.5j / w * _sqrt(a * a + b * b)
    al = 0.5 + nu - 0.5j * c / w
    be = nu - 0.5j * b / w
    g = 0.5 + 2 * mu
    qn = (1 - z) ** nu
    c1 = (b + c + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * qn * f2


def _sol_24(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    ep = _exp(ph)
    z = ((ep + 1j) / (ep - 1j)) ** 2
    mu = (c - 1j * b) / (2 * w)
    nu = 1j / w * _sqrt(a * a + b * b)
    al = 0.5 + nu + c / w
    be = nu - 1j * b / w
    g = 0.5 + 2 * mu
    qn = (1 - z) ** nu
    c1 = (2 * b + 2j * c + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, 2 * a * z ** (mu + 0.5) * qn * f2


def _sol_25(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = 0.5 * (1 - _tanh(ph))
    mu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    nu = 0.5j / w * _sqrt(a * a + (b - c) ** 2)
    al = mu + nu + 1j * b / w
    be = mu + nu - 1j * b / w
    g = 1 + 2 * mu
    zm = z ** mu
    qn = (1 - z) ** nu
    c1 = a * zm * qn
    f1, f2 = gauss_2f1_many([(al + 1, be, g), (al, be + 1, g)], z)
    return c1 * f1, -(2j * w * mu + b + c) * zm * qn * f2


def _sol_26(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = 1 - _exp(-2 * ph)
    mu = -1j * b / w
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    lam = 0.5j / w * _sqrt(a * a + (b - c) ** 2)
    al = nu - 1j * b / w + lam
    be = nu - 1j * b / w - lam
    g = -2j * b / w
    qn = (1 - z) ** nu
    c1 = 2 * (2 * b + 1j * w) * z ** mu * qn
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * qn * f2


def solution(entry_id: int):
    """The closed form of an entry: (t, params) -> (u1, u2)."""
    return globals()[f"_sol_{entry_id}"]


def residuals(e, p: dict, window, n_points: int):
    """verify_entry's residuals of entry e with params p: the times and
    dynamics.se_residual at each of them.

    All at once: the closed form is evaluated at all 5 n_points stencil
    nodes in one call on an object array of times, the field at the centre
    nodes in one call, and dynamics.se_residuals takes all the rows, which
    gives the same bits as se_residual node by node.  If that raises or a
    residual is not finite, the node-by-node path is replayed, so an error
    keeps its type, message and t.
    """
    # here, not at module level: entry_solution needs no solver
    from . import dynamics
    times = np.linspace(window[0], window[1], n_points)
    f_fn = field_callable(CatalogField(e.id, p))
    sol = solution(e.id)

    def on_grid(times):
        h = default_step(times)
        nodes = np.stack([*stencil_nodes(times, h), times], axis=1)
        # np.float64 objects, the nodes se_residual passes: np.float64 ** complex
        # does not round as float ** complex does
        t = np.array(list(nodes.ravel()), dtype=object)
        u = np.stack([np.asarray(ui, dtype=complex) for ui in sol(t, p)], axis=-1)
        u = u.reshape(len(times), 5, 2)
        du = central_difference(u[:, 0], u[:, 1], u[:, 2], u[:, 3], h[:, None])
        return dynamics.se_residuals(du, f_fn(times), u[:, 4])

    def u_fn(t):
        return np.array(e.solution_components(t, p))

    return times, grid_or_replay(on_grid, lambda t: dynamics.se_residual(u_fn, f_fn, t), times)
