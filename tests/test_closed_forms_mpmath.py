"""The 26 closed forms against mpmath at 40 digits: an independent oracle
for the catalog's values, where verify's residual checks only that a value
nearly solves its equation.

Each _sol_N is rebuilt with types.FunctionType from its own code, on a copy
of closed_forms' globals in which _sqrt, _exp, _sin, _tanh, _tpow and the
three *_many helpers are mpmath's, with a real time and real parameters as
mpf.  So the same formula text is evaluated at high precision: this checks
the special functions and the double-precision arithmetic, not the
transcription of the paper, which the residual checks.

The bound is on the relative error in the norm of (u1, u2), not on bits:
the double values go through the platform's libm (cmath), and the bound
must hold wherever the tests run.
"""

import types

import mpmath
import numpy as np
import pytest

from spineq import catalog, closed_forms
from spineq.errors import SpinEqError

BOUND = 1e-13

_MP = mpmath.MPContext()
_MP.dps = 40
_GLOBALS = dict(vars(closed_forms))
_GLOBALS.update(
    _sqrt=_MP.sqrt, _exp=_MP.exp, _sin=_MP.sin, _tanh=_MP.tanh, _tpow=_MP.power,
    gauss_2f1_many=lambda sets, z: [_MP.hyp2f1(a, b, c, z) for a, b, c in sets],
    kummer_phi_many=lambda sets, z: [_MP.hyp1f1(a, c, z) for a, c in sets],
    parabolic_d_many=lambda ps, z: [_MP.pcfd(p, z) for p in ps],
)

# each entry's defaults and three draws, drawn in entry order from one seed
_RNG = np.random.default_rng(0)
_PARAMS = {e.id: [dict(e.default_params)] + [e.draw_params(_RNG) for _ in range(3)]
           for e in catalog.entries()}

# entries whose values on windows 10x as long are wrong beyond the bound,
# with no error; CHANGES.md has a FOUND line for each, with the error
# measured here.  Each joins the long-window check when it is mended.
_SILENT_ON_LONG_WINDOWS = {
    1: "1F1 at large imaginary z (ROADMAP item 1 step D)",
    2: "1F1 at large imaginary z (ROADMAP item 1 step D)",
    3: "1F1 at large imaginary z, at drawn parameters (ROADMAP item 1 step D)",
    14: "z = 0.5 (1 - tanh phi) cancels (ROADMAP item 14 step 2)",
    16: "D_p at large |z| (ROADMAP item 1 step C)",
    17: "1F1 at large imaginary z (ROADMAP item 1 step D)",
    18: "1F1 at large imaginary z (ROADMAP item 1 step D)",
    25: "z = 0.5 (1 - tanh phi) cancels (ROADMAP item 14 step 2)",
}


def _mp_number(v):
    v = complex(v)
    return _MP.mpf(v.real) if v.imag == 0.0 else _MP.mpc(v)


def _relative_error(entry_id, params, t):
    """|u - w| / |w| in the norm of (u1, u2), for the double closed form u
    at t (catalog.entry_solution) and its mpmath evaluation w."""
    u = catalog.entry_solution(entry_id, params, t)
    sol = getattr(closed_forms, f"_sol_{entry_id}")
    w = types.FunctionType(sol.__code__, _GLOBALS)(
        _MP.mpf(t), {k: _mp_number(v) for k, v in catalog.entry(entry_id).merged(params).items()})
    diff = _MP.sqrt(abs(_MP.mpc(u.v1) - w[0]) ** 2 + abs(_MP.mpc(u.v2) - w[1]) ** 2)
    return float(diff / _MP.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2))


def _nodes(entry_id, params, stretch, n):
    lo, hi = catalog.entry(entry_id).window_for(params)
    return np.linspace(lo, lo + stretch * (hi - lo), n).tolist()


@pytest.mark.parametrize("entry_id", range(1, catalog.N_ENTRIES + 1))
def test_default_windows(entry_id):
    for params in _PARAMS[entry_id]:
        for t in _nodes(entry_id, params, 1, 8):
            err = _relative_error(entry_id, params, t)
            assert err <= BOUND, (params, t, err)


@pytest.mark.parametrize("entry_id", sorted(set(range(1, catalog.N_ENTRIES + 1))
                                            - _SILENT_ON_LONG_WINDOWS.keys()))
def test_long_windows_agree_or_raise(entry_id):
    # from the same start, 10x as long: near z = 1 the 2F1 entries raise
    agreed = 0
    for params in _PARAMS[entry_id]:
        for t in _nodes(entry_id, params, 10, 16):
            try:
                err = _relative_error(entry_id, params, t)
            except SpinEqError:
                continue
            assert err <= BOUND, (params, t, err)
            agreed += 1
    assert agreed >= 8
