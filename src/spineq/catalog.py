"""The 26 exact (field, solution) families for fields F = (F1, 0, F3).

Each entry packages the field, defined once by its DSL text (field_dsl),
the closed-form solution spinor built from hypergeometric / Kummer /
parabolic-cylinder functions, its auxiliary parameter definitions, pole
set, parameter constraints, and a default verification window.  Entries
are transcriptions of published formulas; verify_entry() checks each one
by residual substitution into the spin equation.  An entry that fails
verification after its transcription has been double-checked is shipped
with ``flagged`` set rather than silently altered.

Entries 1-3 and 16-18 are written directly in t; the others use the
phase phi = w t + p0 with parameters w (frequency) and p0 (offset).

The closed forms take one time t or an object array of times: every
operation then applies element by element with the scalar's own Python
or numpy-scalar arithmetic, and the special functions sum their series for
all elements at once, so each element has the bits of the scalar call.
Both components are built from series on the same argument, and each
closed form hands them to one call of gauss_2f1_many, kummer_phi_many or
parabolic_d_many, which sums them all in one grid pass.  verify_entry uses
this to evaluate a whole residual stencil in one call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, SingularityError
from .expr import FieldCode, compile_expr, parse_statements
from .fields import CatalogField, field_callable
from .numutil import central_difference, default_step, grid_or_replay, stencil_nodes
from .specfun import (gauss_2f1_many, kummer_phi_many, parabolic_d_many, _elementwise,
                      _is_nonpositive_integer)
from .spinors import Spinor

__all__ = [
    "CatalogEntry",
    "EntryReport",
    "entry",
    "entries",
    "entry_solution",
    "entry_field",
    "verify_entry",
    "scale_family",
    "N_ENTRIES",
]

N_ENTRIES = 26

# cmath, element by element on an array, so that the _sol_N closed forms
# run unchanged on an object array of times as well as on one time
_sqrt = _elementwise(cmath.sqrt)
_exp = _elementwise(cmath.exp)
_sin = _elementwise(cmath.sin)
_tanh = _elementwise(cmath.tanh)


def _holds(constraint, params) -> bool:
    try:
        return bool(constraint(params))
    except (ZeroDivisionError, OverflowError, ValueError):
        return False


@dataclass(frozen=True)
class CatalogEntry:
    id: int
    label: str
    kind: str  # "t" or "phi"
    param_names: tuple[str, ...]
    default_params: dict[str, complex]
    default_window: tuple[float, float]
    field_dsl: str  # the one definition of the field
    _solution: Callable
    # pole descriptors: ("periodic", period, offset) / ("point", phi) in phi,
    # or ("origin",) in t
    pole_spec: tuple = ()
    constraints: tuple = ()
    flagged: str | None = None
    notes: str | None = None

    def merged(self, params=None) -> dict:
        p = dict(self.default_params)
        if params:
            p.update(params)
        return p

    def failed_constraints(self, params) -> list[str]:
        """Names of the violated constraints; one that cannot be evaluated
        (say, a division by a zero parameter) counts as violated."""
        return [name for name, ok in self.constraints if not _holds(ok, params)]

    def check_params(self, params) -> None:
        bad = [k for k, v in params.items() if not cmath.isfinite(v)]
        if bad:
            raise DomainError(f"entry {self.id} parameters not finite: {bad}")
        bad = self.failed_constraints(params)
        if bad:
            raise DomainError(f"entry {self.id} parameter constraints violated: {bad}")
        # the closed forms square their parameters (a*a + b*b and the like):
        # past the double range that is NaN in a series or gamma parameter,
        # which would name the special function, not the input
        bad = [k for k, v in params.items() if not cmath.isfinite(v * v)]
        if bad:
            raise DomainError(f"entry {self.id} parameters too large, squares not finite: {bad}")

    @cached_property
    def field_defs(self) -> dict:
        """field_dsl parsed: component name -> AST."""
        return parse_statements(self.field_dsl)

    def bind_field(self, params: dict):
        """field_dsl compiled with params bound: the functions t -> F1 and
        t -> F3, each raising SingularityError carrying t at a pole."""
        return tuple(compile_expr(self.field_defs[comp], params) for comp in ("F1", "F3"))

    def field_components(self, t: float, params: dict):
        """(F1, F3) at one time t; bind_field once to evaluate at many."""
        return FieldCode((self.field_defs["F1"], self.field_defs["F3"]), params)(t)

    def solution_components(self, t: float, params: dict):
        try:
            # numpy warns of the non-finite values that the check below reports
            with np.errstate(all="ignore"):
                u1, u2 = self._solution(t, params)
        except (ZeroDivisionError, OverflowError):
            raise SingularityError(
                f"entry {self.id} solution singular at t = {t}", t=t) from None
        if not (cmath.isfinite(u1) and cmath.isfinite(u2)):
            raise SingularityError(
                f"entry {self.id} solution singular at t = {t}", t=t)
        return u1, u2

    def window_for(self, params: dict) -> tuple[float, float]:
        """Default verification window for these parameters.

        default_window is stated in phi for phase entries (it equals the
        t-window at w = 1, p0 = 0), so it maps through t = (phi - p0)/w.
        """
        if self.kind == "t":
            return self.default_window
        w = complex(params.get("w", 1.0)).real
        p0 = complex(params.get("p0", 0.0)).real
        if w == 0.0:
            raise DomainError("window undefined for w = 0")
        lo = (self.default_window[0] - p0) / w
        hi = (self.default_window[1] - p0) / w
        return (lo, hi) if lo < hi else (hi, lo)

    def poles(self, params: dict, window) -> list[float]:
        """Field poles inside [t0, t1], sorted."""
        t0, t1 = float(window[0]), float(window[1])
        out = []
        if self.kind == "t":
            if ("origin",) in self.pole_spec and t0 <= 0.0 <= t1:
                out.append(0.0)
            return out
        w = complex(params.get("w", 1.0)).real
        p0 = complex(params.get("p0", 0.0)).real
        if w == 0.0:
            return out
        for spec in self.pole_spec:
            if spec[0] == "point":
                t = (spec[1] - p0) / w
                if t0 <= t <= t1:
                    out.append(t)
                continue
            _, period, offset = spec
            # t = (offset + k*period - p0) / w
            k_lo = math.floor((t0 * w + p0 - offset) / period) - 1
            k_hi = math.ceil((t1 * w + p0 - offset) / period) + 1
            for k in range(k_lo, k_hi + 1):
                t = (offset + k * period - p0) / w
                if t0 <= t <= t1:
                    out.append(t)
        return sorted(set(out))

    def draw_params(self, rng: np.random.Generator) -> dict:
        """Random parameters satisfying this entry's constraints."""
        for _ in range(200):
            p = dict(self.default_params)
            p["a"] = rng.uniform(0.8, 1.3)
            if "b" in p:
                lo, hi = (0.6, 1.4) if self.id == 16 else (0.15, 0.55)
                p["b"] = rng.uniform(lo, hi)
            if "c" in p:
                p["c"] = rng.uniform(0.15, 0.45)
            if "w" in p:
                p["w"] = rng.uniform(0.85, 1.2)
            if not self.failed_constraints(p):
                return p
        raise DomainError(f"could not draw valid parameters for entry {self.id}")


@dataclass(frozen=True)
class EntryReport:
    entry_id: int
    params: dict
    window: tuple[float, float]
    times: np.ndarray
    residuals: np.ndarray
    max_residual: float
    flagged: str | None


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
    c1 = a * t ** (g + 2) * e
    f1, f2 = kummer_phi_many([(al + 1, g + 2), (al, g)], z)
    return c1 * f1, 2.0 * (1j - c) * t ** g * e * f2


def _sol_2(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    s = _sqrt(a * a + b * b)
    z = 1j * c * t * t
    al = 0.5j * (s + b)
    g = 1.0 + 1j * s
    e = _exp(-0.5 * z)
    c1 = -a * t ** (g - 1) * e
    f1, f2 = kummer_phi_many([(al, g), (al + 1, g)], z)
    return c1 * f1, (s + b) * t ** (g - 1) * e * f2


def _sol_3(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    s = _sqrt(a * a + b * b)
    z = 2j * c * t
    al = 1j * (s + b)
    g = 1.0 + 2j * s
    e = _exp(-0.5 * z)
    pref = t ** (0.5 * (g - 1)) * e
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
    c1 = (1 - 2j * b) * t ** g * e
    f1, f2 = kummer_phi_many([(al, 2 * g), (al + 1, 2 * g + 2)], z)
    return c1 * f1, -1j * a * t ** (g + 1) * e * f2


def _sol_18(t, p):
    a, b, c = p["a"], p["b"], p["c"]
    z = 1j * c * t * t
    al = 1j * a * a / (4 * c)
    g = 0.5 - 1j * b
    e = _exp(-0.5 * z)
    c1 = (2 * b + 1j) * t ** (g - 0.5) * e
    f1, f2 = kummer_phi_many([(al, g), (al + 1, g + 1)], z)
    return c1 * f1, a * t ** (g + 0.5) * e * f2


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
    c1 = 2 * (c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, 2 * mu), (al + 1, be + 1, 2 * mu + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * (1 - z) ** nu * f2


def _sol_6(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _sin(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = -0.5j * b / w
    al = mu - 0.5j * c / w
    be = 0.5 + mu + 2 * nu + 0.5j * c / w
    c1 = -a * z ** mu * (1 - z) ** (nu + 0.5)
    f1, f2 = gauss_2f1_many([(al + 1, be, 2 * mu + 1), (al, be, 2 * mu + 1)], z)
    return c1 * f1, (_sqrt(a * a + c * c) + c) * z ** mu * (1 - z) ** nu * f2


def _sol_7(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = -_exp(-2j * ph)
    mu = (c - 1j * b) / (2 * w)
    nu = 1j / w * _sqrt(a * a + b * b)
    al = 0.5 + c / w + nu
    be = nu - 1j * b / w
    g = 0.5 + 2 * mu
    c1 = (w + 2 * c - 2j * b) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    # -2ia, not the printed +2ia: the sign is fixed by residual substitution
    # and matches the component ratio of the hyperbolic sibling _sol_24
    return c1 * f1, -2j * a * z ** (mu + 0.5) * (1 - z) ** nu * f2


def _sol_8(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = 0.5j * (b + c) / w
    be = mu + 0.5j * c / w
    al = 0.5 + 1j * b / w + be
    g = 2 * mu + 1
    c1 = -a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g)], z)
    # the source's "-2i w mu a + c" reads as (-2i w mu + c) = sqrt(a^2+c^2)+c
    # (pattern of _sol_6); the grouping with a stray factor a fails residual
    return c1 * f1, (-2j * w * mu + c) * z ** mu * (1 - z) ** (nu + 0.5) * f2


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
    c1 = -a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (-4j * w * mu + b + c) * z ** mu * (1 - z) ** (nu + 1) * f2


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
    c1 = a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (2 * w * mu - c + 1j * b) * z ** mu * (1 - z) ** (nu + 1) * f2


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
    c1 = 2 * (c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * (1 - z) ** nu * f2


def _sol_13(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = 0.5j / w * _sqrt(a * a + c * c)
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    al = mu + nu + 0.5j * b / w
    be = mu + nu - 0.5j * b / w
    g = 1 + 2 * mu
    c1 = -a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al + 1, be, g), (al, be + 1, g)], z)
    # -2i w mu + c = sqrt(a^2+c^2) + c (pattern of _sol_6/_sol_8); the
    # printed 2 w mu + c drops the -i and fails residual substitution
    return c1 * f1, (-2j * w * mu + c) * z ** mu * (1 - z) ** nu * f2


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
    c1 = -a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g)], z)
    return c1 * f1, (-1j * w * mu + b) * z ** mu * (1 - z) ** (nu + 0.5) * f2


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
    c1 = a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g)], z)
    return c1 * f1, (2 * w * mu - c + 1j * b) * z ** mu * (1 - z) ** (nu + 1) * f2


def _sol_22(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.5j * c / w
    nu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    g = 0.5 + 2 * mu
    al = g + nu + 0.5j * (b + c) / w
    be = nu - 0.5j * (b + c) / w
    c1 = (2 * c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * (1 - z) ** nu * f2


def _sol_23(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = _tanh(ph) ** 2
    mu = -0.25j * (b + c) / w
    nu = 0.5j / w * _sqrt(a * a + b * b)
    al = 0.5 + nu - 0.5j * c / w
    be = nu - 0.5j * b / w
    g = 0.5 + 2 * mu
    c1 = (b + c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, a * z ** (mu + 0.5) * (1 - z) ** nu * f2


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
    c1 = (2 * b + 2j * c + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al, be + 1, g + 1)], z)
    return c1 * f1, 2 * a * z ** (mu + 0.5) * (1 - z) ** nu * f2


def _sol_25(t, p):
    a, b, c, w = p["a"], p["b"], p["c"], p["w"]
    ph = _phi(t, p)
    z = 0.5 * (1 - _tanh(ph))
    mu = 0.5j / w * _sqrt(a * a + (b + c) ** 2)
    nu = 0.5j / w * _sqrt(a * a + (b - c) ** 2)
    al = mu + nu + 1j * b / w
    be = mu + nu - 1j * b / w
    g = 1 + 2 * mu
    c1 = a * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al + 1, be, g), (al, be + 1, g)], z)
    return c1 * f1, -(2j * w * mu + b + c) * z ** mu * (1 - z) ** nu * f2


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
    c1 = 2 * (2 * b + 1j * w) * z ** mu * (1 - z) ** nu
    f1, f2 = gauss_2f1_many([(al, be, g), (al + 1, be + 1, g + 2)], z)
    return c1 * f1, a * z ** (mu + 1) * (1 - z) ** nu * f2


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _c_nonzero(p):
    return abs(p["c"]) > 1e-12


def _b_nonzero(p):
    return abs(p["b"]) > 1e-12


def _squares_sum_nonzero(x, y):
    # a sum past the double range (inf, or NaN from inf - inf) is not zero:
    # check_params' squares check then names the parameter that is too large
    return not abs(x * x + y * y) <= 1e-12


def _a2b2_nonzero(p):
    return _squares_sum_nonzero(p["a"], p["b"])


def _a2c2_nonzero(p):
    return _squares_sum_nonzero(p["a"], p["c"])


def _w_nonzero(p):
    return abs(p.get("w", 1.0)) > 1e-12


_DEF_ABC = {"a": 1.0, "b": 0.5, "c": 0.3}
_DEF_PHI = {"a": 1.0, "b": 0.5, "c": 0.3, "w": 1.0, "p0": 0.0}

_T_PARAMS = ("a", "b", "c")
_PHI_PARAMS = ("a", "b", "c", "w", "p0")

_POLE_T0 = (("origin",),)
_P_SIN2 = (("periodic", math.pi / 2, 0.0),)          # zeros of sin(2 phi)
_P_TAN = (("periodic", math.pi, math.pi / 2),)       # poles of tan
_P_COT = (("periodic", math.pi, 0.0),)               # poles of cot
_P_TANCOT = _P_TAN + _P_COT
_P_ZERO = (("point", 0.0),)                          # sinh/coth: only phi = 0


_RAW = [
    (1, "F1 = a t, F3 = b t + c/t", "t", _sol_1, (0.2, 1.4), _POLE_T0,
     (("c != 0", _c_nonzero), ("a^2 + b^2 != 0", _a2b2_nonzero),
      ("i c not a non-positive integer",
       lambda p: not _is_nonpositive_integer(1j * p["c"]))),
     "F1 = a*t; F3 = b*t + c/t"),
    (2, "F1 = a/t, F3 = b/t + c t", "t", _sol_2, (0.2, 1.4), _POLE_T0,
     (("a^2 + b^2 != 0", _a2b2_nonzero),),
     "F1 = a/t; F3 = b/t + c*t"),
    (3, "F1 = a/t, F3 = b/t + c", "t", _sol_3, (0.2, 1.4), _POLE_T0,
     (("a^2 + b^2 != 0", _a2b2_nonzero),),
     "F1 = a/t; F3 = b/t + c"),
    (4, "F1 = a/sin 2phi, F3 = (b cos 2phi + c)/sin 2phi", "phi", _sol_4,
     (0.2, 1.2), _P_SIN2, (("w != 0", _w_nonzero),),
     "F1 = a/sin(2*(w*t + p0)); F3 = (b*cos(2*(w*t + p0)) + c)/sin(2*(w*t + p0))"),
    (5, "F1 = a tan phi, F3 = b tan phi + c cot phi", "phi", _sol_5,
     (0.2, 1.2), _P_TANCOT,
     (("w != 0", _w_nonzero), ("c != 0", _c_nonzero),
      ("2mu = -ic/w not a non-positive integer",
       lambda p: not _is_nonpositive_integer(-1j * p["c"] / p["w"]))),
     "F1 = a*tan(w*t + p0); F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (6, "F1 = a/sin phi, F3 = b tan phi + c cot phi", "phi", _sol_6,
     (0.2, 1.2), _P_TANCOT, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a/sin(w*t + p0); F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (7, "F1 = a/cos phi, F3 = b tan phi + c", "phi", _sol_7,
     (0.2, 0.9), _P_TAN, (("w != 0", _w_nonzero),),
     "F1 = a/cos(w*t + p0); F3 = b*tan(w*t + p0) + c"),
    (8, "F1 = a/sinh phi, F3 = b tanh phi + c coth phi", "phi", _sol_8,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a/sinh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (9, "F1 = a/cosh phi, F3 = b tanh phi + c coth phi", "phi", _sol_9,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (10, "F1 = a/sinh 2phi, F3 = (b cosh 2phi + c)/sinh 2phi", "phi", _sol_10,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a/sinh(2*(w*t + p0)); F3 = (b*cosh(2*(w*t + p0)) + c)/sinh(2*(w*t + p0))"),
    (11, "F1 = a/cosh phi, F3 = (b sinh phi + c)/cosh phi", "phi", _sol_11,
     (0.2, 1.1), (), (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = (b*sinh(w*t + p0) + c)/cosh(w*t + p0)"),
    (12, "F1 = a tanh phi, F3 = b tanh phi + c coth phi", "phi", _sol_12,
     (0.2, 1.5), _P_ZERO,
     (("w != 0", _w_nonzero), ("c != 0", _c_nonzero),
      ("2mu = -ic/w not a non-positive integer",
       lambda p: not _is_nonpositive_integer(-1j * p["c"] / p["w"]))),
     "F1 = a*tanh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (13, "F1 = a coth phi, F3 = b tanh phi + c coth phi", "phi", _sol_13,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a*coth(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (14, "F1 = a/cosh phi, F3 = b tanh phi + c", "phi", _sol_14,
     (0.2, 2.0), (), (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = b*tanh(w*t + p0) + c"),
    (15, "F1 = a/sinh phi, F3 = b coth phi + c", "phi", _sol_15,
     (0.2, 1.1), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + b^2 != 0", _a2b2_nonzero)),
     "F1 = a/sinh(w*t + p0); F3 = b*coth(w*t + p0) + c"),
    (16, "F1 = a, F3 = b t + c", "t", _sol_16, (0.2, 2.0), (),
     # the order -i a^2/(2b) of D_p: past the double range it reaches
     # parabolic_d as NaN, which would name the gamma function, not a or b
     (("b != 0", _b_nonzero),
      ("a^2/b finite", lambda p: not _b_nonzero(p) or cmath.isfinite(p["a"] * p["a"] / p["b"]))),
     "F1 = a; F3 = b*t + c"),
    (17, "F1 = a, F3 = b/t + c", "t", _sol_17, (0.2, 2.0), _POLE_T0,
     (("b != 0", _b_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero),
      ("-2ib not a non-positive integer",
       lambda p: not _is_nonpositive_integer(-2j * p["b"]))),
     "F1 = a; F3 = b/t + c"),
    (18, "F1 = a, F3 = b/t + c t", "t", _sol_18, (0.2, 2.0), _POLE_T0,
     (("c != 0", _c_nonzero),),
     "F1 = a; F3 = b/t + c*t"),
    (19, "F1 = a, F3 = (b cos 2phi + c)/sin 2phi", "phi", _sol_19,
     (0.2, 1.2), _P_SIN2, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*cos(2*(w*t + p0)) + c)/sin(2*(w*t + p0))"),
    (20, "F1 = a, F3 = b tan phi + c cot phi", "phi", _sol_20,
     (0.2, 1.2), _P_TANCOT, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (21, "F1 = a, F3 = b tan phi + c", "phi", _sol_21,
     (0.2, 0.9), _P_TAN, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tan(w*t + p0) + c"),
    (22, "F1 = a, F3 = b tanh phi + c coth phi", "phi", _sol_22,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (23, "F1 = a, F3 = (b cosh 2phi + c)/sinh 2phi", "phi", _sol_23,
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*cosh(2*(w*t + p0)) + c)/sinh(2*(w*t + p0))"),
    (24, "F1 = a, F3 = (b sinh phi + c)/cosh phi", "phi", _sol_24,
     (0.2, 1.1), (), (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*sinh(w*t + p0) + c)/cosh(w*t + p0)"),
    (25, "F1 = a, F3 = b tanh phi + c", "phi", _sol_25,
     (0.2, 2.0), (), (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tanh(w*t + p0) + c"),
    (26, "F1 = a, F3 = b coth phi + c", "phi", _sol_26,
     (0.2, 1.1), _P_ZERO,
     (("w != 0", _w_nonzero), ("b != 0", _b_nonzero),
      ("-2ib/w not a non-positive integer",
       lambda p: not _is_nonpositive_integer(-2j * p["b"] / p["w"]))),
     "F1 = a; F3 = b*coth(w*t + p0) + c"),
]

# source-misprint resolutions, each pinned down by residual substitution
_NOTES = {
    3: "second solution component uses sqrt(a^2+b^2)+b in place of the "
       "printed coefficient -ia (fails residual; sibling of entry 2)",
    7: "second solution component uses -2ia in place of the printed +2ia "
       "(sign fails residual; ratio matches entry 24)",
    8: "ambiguous printed coefficient '-2i w mu a + c' resolved as "
       "(-2i w mu + c); the reading with the factor a fails residual",
    13: "second solution component uses -2i w mu + c in place of the "
        "printed 2 w mu + c (dropped -i; pattern of entries 6 and 8)",
}

_ENTRIES: dict[int, CatalogEntry] = {}
for (eid, label, kind, sfn, window, poles, cons, dsl) in _RAW:
    defaults = dict(_DEF_ABC if kind == "t" else _DEF_PHI)
    if eid == 16:
        defaults = {"a": 1.0, "b": 1.0, "c": 0.0}
    _ENTRIES[eid] = CatalogEntry(
        id=eid, label=label, kind=kind,
        param_names=_T_PARAMS if kind == "t" else _PHI_PARAMS,
        default_params=defaults, default_window=window, field_dsl=dsl,
        _solution=sfn, pole_spec=poles, constraints=cons,
        notes=_NOTES.get(eid),
    )


def entry(entry_id: int) -> CatalogEntry:
    if entry_id not in _ENTRIES:
        raise DomainError(f"catalog entry id must be 1..{N_ENTRIES}, got {entry_id}")
    return _ENTRIES[entry_id]


def entries() -> list[CatalogEntry]:
    return [_ENTRIES[i] for i in range(1, N_ENTRIES + 1)]


def entry_field(entry_id: int, params: dict | None, t: float):
    """Field (F1, 0, F3) of an entry at time t."""
    e = entry(entry_id)
    p = e.merged(params)
    e.check_params(p)
    return e.field_components(t, p)


def entry_solution(entry_id: int, params: dict | None, t: float) -> Spinor:
    """Closed-form solution spinor of an entry at time t."""
    e = entry(entry_id)
    p = e.merged(params)
    e.check_params(p)
    u1, u2 = e.solution_components(t, p)
    return Spinor(u1, u2)


def verify_entry(entry_id: int, params: dict | None = None,
                 window: tuple | None = None, n_points: int = 50) -> EntryReport:
    """Residual-substitute the entry's closed form into the spin equation.

    dynamics.se_residual at n_points nodes of the window, all at once: the
    closed form is evaluated at all 5 n_points stencil nodes in one call on
    an object array of times, the field at the centre nodes in one call,
    and dynamics.se_residuals takes all the rows, which gives the same bits
    as se_residual node by node.  If that raises or a residual is not
    finite, the node-by-node path is replayed, so an error keeps its type,
    message and t.
    """
    # here, not at module level: catalog list and show need no dynamics
    from . import dynamics
    e = entry(entry_id)
    p = e.merged(params)
    e.check_params(p)
    win = tuple(window) if window is not None else e.window_for(p)
    times = np.linspace(win[0], win[1], n_points)
    f_fn = field_callable(CatalogField(entry_id, p))

    def on_grid(times):
        h = default_step(times)
        nodes = np.stack([*stencil_nodes(times, h), times], axis=1)
        # np.float64 objects, the nodes se_residual passes: np.float64 ** complex
        # does not round as float ** complex does
        t = np.array(list(nodes.ravel()), dtype=object)
        u = np.stack([np.asarray(ui, dtype=complex) for ui in e._solution(t, p)], axis=-1)
        u = u.reshape(len(times), 5, 2)
        du = central_difference(u[:, 0], u[:, 1], u[:, 2], u[:, 3], h[:, None])
        return dynamics.se_residuals(du, f_fn(times), u[:, 4])

    def u_fn(t):
        return np.array(e.solution_components(t, p))

    residuals = grid_or_replay(on_grid, lambda t: dynamics.se_residual(u_fn, f_fn, t), times)
    return EntryReport(entry_id, p, win, times, residuals,
                       float(np.max(residuals)), e.flagged)


_T_ENTRY_SCALING = {
    # entry id -> (a', b', c') in terms of (alpha, beta, omega, a, b, c)
    1: lambda al, be, w, a, b, c: (al * a * w, be * b * w, be * c / w),
    2: lambda al, be, w, a, b, c: (al * a / w, be * b / w, be * c * w),
    3: lambda al, be, w, a, b, c: (al * a / w, be * b / w, be * c),
    17: lambda al, be, w, a, b, c: (al * a, be * b / w, be * c),
    18: lambda al, be, w, a, b, c: (al * a, be * b / w, be * c * w),
}


def scale_family(entry_id: int, alpha: float, beta: float, omega: float,
                 phi0: float):
    """Member (alpha F1(phi), 0, beta F3(phi)), phi = omega t + phi0, of an
    entry's scale family, returned as a CatalogField spec.

    Every family is closed under this scaling; for the entries written
    directly in t the scaling is absorbed into (a, b, c), which requires
    phi0 = 0 except for entry 16.
    """
    e = entry(entry_id)
    if omega == 0.0:
        raise DomainError("scale family requires omega != 0")
    p = dict(e.default_params)
    a, b, c = p["a"], p["b"], p["c"]
    if e.kind == "phi":
        new = {"a": alpha * a, "b": beta * b, "c": beta * c,
               "w": omega, "p0": phi0}
    elif entry_id == 16:
        new = {"a": alpha * a, "b": beta * b * omega, "c": beta * (b * phi0 + c)}
    else:
        if phi0 != 0.0:
            raise DomainError(
                f"entry {entry_id} supports the scale family only with phi0 = 0")
        na, nb, nc = _T_ENTRY_SCALING[entry_id](alpha, beta, omega, a, b, c)
        new = {"a": na, "b": nb, "c": nc}
    e.check_params(e.merged(new))
    return CatalogField(entry_id, new)
