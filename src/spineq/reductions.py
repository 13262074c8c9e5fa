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
from typing import Callable, Optional

import numpy as np

from ._numbers import record
from .errors import DomainError
from .fields import FieldSpec, eval_field
from .numutil import (central_difference, central_second_difference, default_step,
                      fd_derivative_callable, stencil_nodes)
from .spinors import CVec3, ID2, SIGMA1, SIGMA2, SIGMA3, Spinor, sigma_exp

__all__ = [
    "ReductionPlan",
    "reduce_field",
    "transform_solution",
    "transform_matrix",
    "SigmaMap",
    "sigma_map",
    "sigma_map_field",
    "reparametrize_time",
    "to_schrodinger_potentials",
]


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
        lv = l.as_array() if isinstance(l, CVec3) else np.asarray(l, dtype=complex)
        if not np.isfinite(lv).all():
            raise DomainError("transform axis must be finite")
        l2 = lv @ lv
        scale = np.max(np.abs(lv))
        if scale == 0:
            raise DomainError("transform axis must be nonzero")
        if abs(l2) <= 1e-14 * scale * scale:
            return ReductionPlan(lv.copy(), alpha, alpha_dot, null=True)
        return ReductionPlan(lv / cmath.sqrt(l2), alpha, alpha_dot, null=False)

    def alpha_dot_at(self, t: float) -> complex:
        if self.alpha_dot is not None:
            return complex(self.alpha_dot(t))
        return complex(fd_derivative_callable(lambda s: complex(self.alpha(s)), t))

    def inverse(self) -> "ReductionPlan":
        neg = self.alpha
        negd = self.alpha_dot
        return ReductionPlan(
            self.l,
            lambda t: -neg(t),
            (lambda t: -negd(t)) if negd is not None else None,
            self.null,
        )


def _field_at(spec, t):
    """Evaluate a FieldSpec, CVec3, or plain callable at t."""
    if callable(spec) and not isinstance(spec, CVec3):
        out = spec(t)
        return out.as_array() if isinstance(out, CVec3) else np.asarray(out, dtype=complex)
    if isinstance(spec, CVec3):
        return spec.as_array()
    return eval_field(spec, t).as_array()


def reduce_field(Fprime: FieldSpec, plan: ReductionPlan, t: float) -> CVec3:
    """Field equivalent to Fprime under the plan's exponential transform.

    l^2 = 1:  F = [F' - l (F'.l)] cos 2a + [F' x l] sin 2a + l (F'.l - a')
    l^2 = 0:  F = F' + 2a [F' x l] + l [2 a^2 (F'.l) - a']

    Fprime may be a FieldSpec or a plain t -> 3-vector callable.  A
    reduced field that is not finite (alpha past the double range, say)
    raises DomainError, with no warning.
    """
    fp = _field_at(Fprime, t)
    lv = plan.l
    a = complex(plan.alpha(t))
    ad = plan.alpha_dot_at(t)
    with np.errstate(over="ignore", invalid="ignore"):
        fl = fp @ lv
        if plan.null:
            out = fp + 2.0 * a * np.cross(fp, lv) + lv * (2.0 * a * a * fl - ad)
        else:
            out = ((fp - lv * fl) * np.cos(2 * a)
                   + np.cross(fp, lv) * np.sin(2 * a)
                   + lv * (fl - ad))
    if not np.isfinite(out).all():
        raise DomainError(f"reduced field at t = {t} (alpha = {a}) is not finite")
    return CVec3.from_array(out)


def transform_matrix(plan: ReductionPlan, t: float) -> np.ndarray:
    """T(t) = exp[i alpha (sigma.l)] (spinors.sigma_exp at time -alpha)."""
    a = complex(plan.alpha(t))
    return sigma_exp(plan.l, 0 if plan.null else 1, -a,
                     lambda: f"transform matrix at t = {t} (alpha = {a}) is not finite")


def transform_solution(V: Spinor, plan: ReductionPlan, t: float) -> Spinor:
    """Map a solution V' of the source equation to the reduced one: V = T V'."""
    return Spinor.from_array(transform_matrix(plan, t) @ V.as_array())


class SigmaMap(enum.Enum):
    """Discrete solution maps for fields of the form (F1, 0, F3).

    The partner fields (see sigma_map_field): XY -> (F1, F3, 0),
    FLIP3 -> (F1, 0, -F3), FLIP1 -> (-F1, 0, F3), FLIP13 -> (-F1, 0, -F3),
    SWAP13 -> (F3, 0, F1).
    """

    XY = "xy"
    FLIP3 = "flip3"
    FLIP1 = "flip1"
    FLIP13 = "flip13"
    SWAP13 = "swap13"


_SIGMA_MAP_MATRIX = {
    SigmaMap.XY: (ID2 + 1j * SIGMA1) / np.sqrt(2.0),
    SigmaMap.FLIP3: SIGMA1,
    SigmaMap.FLIP1: SIGMA3,
    SigmaMap.FLIP13: SIGMA2,
    SigmaMap.SWAP13: (SIGMA1 + SIGMA3) / np.sqrt(2.0),
}


def sigma_map(V: Spinor, which: SigmaMap) -> Spinor:
    """Apply one of the five discrete maps to a solution spinor."""
    return Spinor.from_array(_SIGMA_MAP_MATRIX[which] @ V.as_array())


def sigma_map_field(F, which: SigmaMap) -> CVec3:
    """Partner field solved by the mapped spinor, for F = (F1, 0, F3)."""
    Fv = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    f1, _, f3 = Fv
    table = {
        SigmaMap.XY: (f1, f3, 0j),
        SigmaMap.FLIP3: (f1, 0j, -f3),
        SigmaMap.FLIP1: (-f1, 0j, f3),
        SigmaMap.FLIP13: (-f1, 0j, -f3),
        SigmaMap.SWAP13: (f3, 0j, f1),
    }
    return CVec3(*table[which])


def reparametrize_time(spec: FieldSpec, T, t: float, Tdot=None) -> CVec3:
    """Field seen in the new time variable: F'(t) = F(T(t)) T'(t)."""
    if Tdot is not None:
        td = complex(Tdot(t))
    else:
        td = complex(fd_derivative_callable(lambda s: complex(T(s)), t))
    if abs(td.imag) > 1e-9 * max(1.0, abs(td)) or td.real == 0.0:
        raise DomainError(f"reparameterization must have real nonzero derivative at t = {t}")
    if td.real < 0.0:
        raise DomainError(f"reparameterization is decreasing at t = {t} (non-monotone window)")
    F = _field_at(spec, float(complex(T(t)).real))
    return CVec3.from_array(F * td.real)


def to_schrodinger_potentials(spec: FieldSpec, t: float):
    """Complex potentials (V1, V2) of the decoupled second-order equations
    psi_s'' - V_s psi_s = 0 obtained from the component form.

    A_s = F1 + (-1)^s i F2 must be nonzero at t; A_s derivatives and F3'
    are 4th-order finite differences.  First derivatives use step
    1e-5 max(1, |t|); the second derivative needs a larger step
    (2e-3 max(1, |t|)) or stencil roundoff eps/h^2 alone would eat the
    1e-6 accuracy target.
    """
    h = default_step(t)
    h2 = default_step(t, 2e-3)
    F = _field_at(spec, t)
    f1, f2, f3 = F
    a_vals = {}
    for s_idx in (1, 2):
        sign = (-1) ** s_idx
        a = f1 + sign * 1j * f2
        if abs(a) < 1e-14:
            raise DomainError(f"A_{s_idx} = F1 {'-' if s_idx == 1 else '+'} iF2 vanishes at t = {t}")
        a_vals[s_idx] = a
    # the field once at each of the 9 stencil nodes, in the order the
    # differences take them
    near = [_field_at(spec, s) for s in stencil_nodes(t, h)]
    m2, m1, p1, p2 = (_field_at(spec, s) for s in stencil_nodes(t, h2))
    f3dot = complex(central_difference(*(np.asarray(G[2]) for G in near), h))
    out = []
    prod = a_vals[1] * a_vals[2]
    for s_idx in (1, 2):
        sign = (-1) ** s_idx
        A = [np.asarray(G[0] + sign * 1j * G[1]) for G in (*near, m2, m1, F, p1, p2)]
        adot = complex(central_difference(*A[:4], h))
        addot = complex(central_second_difference(*A[4:], h2))
        a = a_vals[s_idx]
        ratio = adot / a
        V_s = (0.75 * ratio * ratio - 0.5 * addot / a - prod - f3 * f3
               - 1j * sign * (f3 * ratio - f3dot))
        out.append(V_s)
    return out[0], out[1]
