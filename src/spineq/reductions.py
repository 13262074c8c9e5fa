"""Field-equivalence transforms.

An exponential transform V = T(t) V' with T = exp[i alpha(t) (sigma.l)]
maps solutions of one spin equation into solutions of another: the two
fields are then equivalent.  This module implements the reduced field for
both l^2 = 1 and the null l^2 = 0 branch, the five discrete sigma maps
that act inside the (F1, 0, F3) plane, time reparameterization, and the
reduction of the component equations to a pair of one-dimensional
Schrodinger problems with complex potentials.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, Optional

import numpy as np

from ._numbers import record
from .errors import DomainError
from .fields import FieldSpec, field_callable
from .numutil import (central_difference, central_second_difference, default_step,
                      fd_derivative_callable, stencil_nodes)
from .spinors import (CVec3, ID2, SIGMA1, SIGMA2, SIGMA3, Spinor, complex_vector, real_quotient,
                      sigma_exp)

__all__ = ["ReductionPlan", "reduce_field", "transform_solution", "transform_matrix", "SigmaMap",
           "sigma_map", "sigma_map_field", "reparametrize_time", "to_schrodinger_potentials"]


@record
class ReductionPlan:
    """Axis l (normalized so l^2 is exactly 1, or flagged null when l^2 = 0)
    together with the rotation angle alpha(t) and its derivative."""

    l: np.ndarray
    alpha: Callable[[float], complex]
    alpha_dot: Optional[Callable[[float], complex]] = None
    null: bool = False

    @staticmethod
    def make(l, alpha, alpha_dot=None) -> "ReductionPlan":
        lv = ls = complex_vector(l)
        scale = float(np.max(np.abs(lv)))
        if not math.isfinite(scale):
            raise DomainError("transform axis must be finite")
        if scale == 0:
            raise DomainError("transform axis must be nonzero")
        if not 1e-150 < scale < 1e150:  # l.l would overflow or underflow: take l / max|l_i|
            ls, scale = real_quotient(lv, scale), 1.0
        l2 = ls @ ls
        if abs(l2) <= 1e-14 * scale * scale:  # a null axis keeps its length
            return ReductionPlan(lv.copy(), alpha, alpha_dot, null=True)
        return ReductionPlan(ls / cmath.sqrt(l2), alpha, alpha_dot, null=False)

    def inverse(self) -> "ReductionPlan":
        a, ad = self.alpha, self.alpha_dot
        negd = None if ad is None else (lambda t: -ad(t))
        return ReductionPlan(self.l, lambda t: -a(t), negd, self.null)


def _finite(values, what):
    if not np.isfinite(values).all():
        raise DomainError(f"{what()} is not finite")
    return values


@np.errstate(over="ignore", invalid="ignore")
def _rate(f, fdot, t) -> complex:
    """fdot(t), the caller's rate, or else a 4th-order central difference of f
    at t, whose stencil t +- 2h must lie in the double range."""
    if fdot is not None:
        return complex(fdot(t))
    h = default_step(t)
    _finite(abs(t) + 2 * h, lambda: f"difference stencil at t = {t}")
    return complex(fd_derivative_callable(lambda s: complex(f(s)), t, h))


def _bound(spec):
    """A FieldSpec, CVec3 or plain t -> 3-vector callable as t -> complex
    ndarray(3), bound once per call of a transform."""
    if isinstance(spec, CVec3):
        value = spec.as_array()
        return lambda t: value
    if callable(spec):
        return lambda t: complex_vector(spec(t))
    return field_callable(spec)


def reduce_field(Fprime: FieldSpec, plan: ReductionPlan, t: float) -> CVec3:
    """Field equivalent to Fprime under the plan's exponential transform.

    l^2 = 1:  F = [F' - l (F'.l)] cos 2a + [F' x l] sin 2a + l (F'.l - a')
    l^2 = 0:  F = F' + 2a [F' x l] + l [2 a^2 (F'.l) - a']

    Fprime may be a FieldSpec or a plain t -> 3-vector callable.  A
    reduced field that is not finite (alpha past the double range, say)
    raises DomainError, with no warning.
    """
    _finite(t, lambda: f"time t = {t}")
    fp = _bound(Fprime)(t)
    lv = plan.l
    a = complex(plan.alpha(t))
    ad = _rate(plan.alpha, plan.alpha_dot, t)
    with np.errstate(over="ignore", invalid="ignore"):
        fl = fp @ lv
        if plan.null:
            out = fp + 2.0 * a * np.cross(fp, lv) + lv * (2.0 * a * a * fl - ad)
        else:
            out = ((fp - lv * fl) * np.cos(2 * a)
                   + np.cross(fp, lv) * np.sin(2 * a)
                   + lv * (fl - ad))
    return CVec3.from_array(_finite(out, lambda: f"reduced field at t = {t} (alpha = {a})"))


def transform_matrix(plan: ReductionPlan, t: float) -> np.ndarray:
    """T(t) = exp[i alpha (sigma.l)] (spinors.sigma_exp at time -alpha)."""
    _finite(t, lambda: f"time t = {t}")
    a = complex(plan.alpha(t))
    return sigma_exp(plan.l, 0 if plan.null else 1, -a,
                     lambda: f"transform matrix at t = {t} (alpha = {a}) is not finite")


def transform_solution(V: Spinor, plan: ReductionPlan, t: float) -> Spinor:
    """Map a solution V' of the source equation to the reduced one: V = T V'."""
    return _mapped(transform_matrix(plan, t), V)


@np.errstate(over="ignore", invalid="ignore")
def _mapped(M, V: Spinor) -> Spinor:
    return Spinor.from_array(_finite(M @ V.as_array(), lambda: f"image of V = {V}"))


class SigmaMap(enum.Enum):
    """Discrete solution maps for fields of the form (F1, 0, F3), each with
    its partner field (sigma_map_field)."""

    XY = "xy"
    FLIP3 = "flip3"
    FLIP1 = "flip1"
    FLIP13 = "flip13"
    SWAP13 = "swap13"


# each map's matrix on the spinor, and its partner field (F1, F2, F3) of (F1, F3)
_SIGMA_MAPS = {
    SigmaMap.XY: ((ID2 + 1j * SIGMA1) / np.sqrt(2.0), lambda f1, f3: (f1, f3, 0j)),
    SigmaMap.FLIP3: (SIGMA1, lambda f1, f3: (f1, 0j, -f3)),
    SigmaMap.FLIP1: (SIGMA3, lambda f1, f3: (-f1, 0j, f3)),
    SigmaMap.FLIP13: (SIGMA2, lambda f1, f3: (-f1, 0j, -f3)),
    SigmaMap.SWAP13: ((SIGMA1 + SIGMA3) / np.sqrt(2.0), lambda f1, f3: (f3, 0j, f1)),
}


def sigma_map(V: Spinor, which: SigmaMap) -> Spinor:
    """Apply one of the five discrete maps to a solution spinor."""
    return _mapped(_SIGMA_MAPS[which][0], V)


def sigma_map_field(F, which: SigmaMap) -> CVec3:
    """Partner field solved by the mapped spinor, for F = (F1, 0, F3)."""
    f1, _, f3 = _finite(complex_vector(F), lambda: f"field F = {F}")
    return CVec3(*_SIGMA_MAPS[which][1](f1, f3))


@np.errstate(over="ignore", invalid="ignore")
def reparametrize_time(spec: FieldSpec, T, t: float, Tdot=None) -> CVec3:
    """Field seen in the new time variable: F'(t) = F(T(t)) T'(t)."""
    _finite(t, lambda: f"time t = {t}")
    td = _rate(T, Tdot, t)
    if not (cmath.isfinite(td) and abs(td.imag) <= 1e-9 * max(1.0, abs(td)) and td.real != 0):
        raise DomainError(f"reparameterization must have finite real nonzero derivative at t = {t}")
    if td.real < 0.0:
        raise DomainError(f"reparameterization is decreasing at t = {t} (non-monotone window)")
    Tt = _finite(complex(T(t)), lambda: f"reparameterization T({t})")
    F = _bound(spec)(float(Tt.real))
    return CVec3.from_array(_finite(F * td.real, lambda: f"reparametrized field at t = {t}"))


@np.errstate(over="ignore", invalid="ignore")
def to_schrodinger_potentials(spec: FieldSpec, t: float):
    """Complex potentials (V1, V2) of the decoupled second-order equations
    psi_s'' - V_s psi_s = 0 obtained from the component form.

    A_s = F1 + (-1)^s i F2 must be nonzero at t; A_s derivatives and F3'
    are 4th-order finite differences.  First derivatives use step
    1e-5 max(1, |t|); the second derivative needs a larger step
    (2e-3 max(1, |t|)) or stencil roundoff eps/h^2 alone would eat the
    1e-6 accuracy target.
    """
    _finite(t, lambda: f"time t = {t}")
    h = default_step(t)
    h2 = default_step(t, 2e-3)
    _finite(abs(t) + 2 * h2, lambda: f"difference stencil at t = {t}")
    field = _bound(spec)
    f1, f2, f3 = F = field(t)
    a_s = [f1 + sign * 1j * f2 for sign in (-1, 1)]
    for s_idx, a in enumerate(a_s, 1):
        if abs(a) < 1e-14:
            raise DomainError(f"A_{s_idx} = F1 {'-' if s_idx == 1 else '+'} iF2 vanishes at t = {t}")
    # the field once at each of the 9 stencil nodes, in the order the
    # differences take them
    near = [field(s) for s in stencil_nodes(t, h)]
    m2, m1, p1, p2 = (field(s) for s in stencil_nodes(t, h2))
    f3dot = complex(central_difference(*(np.asarray(G[2]) for G in near), h))
    prod = a_s[0] * a_s[1]
    out = []
    for sign, a in zip((-1, 1), a_s):
        A = [np.asarray(G[0] + sign * 1j * G[1]) for G in (*near, m2, m1, F, p1, p2)]
        adot = complex(central_difference(*A[:4], h))
        addot = complex(central_second_difference(*A[4:], h2))
        ratio = adot / a
        out.append(0.75 * ratio * ratio - 0.5 * addot / a - prod - f3 * f3
                   - 1j * sign * (f3 * ratio - f3dot))
    _finite(out, lambda: f"Schrodinger potentials at t = {t}")
    return out[0], out[1]
