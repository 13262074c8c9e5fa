"""The 26 exact (field, solution) families for fields F = (F1, 0, F3).

Each entry packages the field, defined once by its DSL text (field_dsl),
the closed-form solution spinor built from hypergeometric / Kummer /
parabolic-cylinder functions, its auxiliary parameter definitions, pole
set, parameter constraints, and a default verification window.  Entries
are transcriptions of published formulas; verify_entry() checks each one
by residual substitution into the spin equation.  An entry that fails
verification after its transcription has been double-checked is shipped
with ``flagged`` set rather than silently altered.

This module is the table and runs on the standard library alone: listing
and showing the entries, checking their parameters and windows and finding
their poles load no numpy.  The closed forms live in closed_forms, with
the numerical half of verify_entry, and load on the first solution or
verification; the field's code loads from expr on its first evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ._numbers import is_nonpositive_integer
from .errors import DomainError, SingularityError

if TYPE_CHECKING:
    import numpy as np

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
        from .expr import parse_statements
        return parse_statements(self.field_dsl)

    def bind_field(self, params: dict):
        """field_dsl compiled with params bound: the functions t -> F1 and
        t -> F3, each raising SingularityError carrying t at a pole."""
        from .expr import compile_expr
        return tuple(compile_expr(self.field_defs[comp], params) for comp in ("F1", "F3"))

    def field_components(self, t: float, params: dict):
        """(F1, F3) at one time t; bind_field once to evaluate at many."""
        from .expr import FieldCode
        return FieldCode((self.field_defs["F1"], self.field_defs["F3"]), params)(t)

    @cached_property
    def _solution(self):
        """The closed form, (t, params) -> (u1, u2), from closed_forms."""
        from .closed_forms import solution
        return solution(self.id)

    def solution_components(self, t: float, params: dict):
        import numpy as np
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
    (1, "F1 = a t, F3 = b t + c/t", "t", (0.2, 1.4), _POLE_T0,
     (("c != 0", _c_nonzero), ("a^2 + b^2 != 0", _a2b2_nonzero),
      ("i c not a non-positive integer",
       lambda p: not is_nonpositive_integer(1j * p["c"]))),
     "F1 = a*t; F3 = b*t + c/t"),
    (2, "F1 = a/t, F3 = b/t + c t", "t", (0.2, 1.4), _POLE_T0,
     (("a^2 + b^2 != 0", _a2b2_nonzero),),
     "F1 = a/t; F3 = b/t + c*t"),
    (3, "F1 = a/t, F3 = b/t + c", "t", (0.2, 1.4), _POLE_T0,
     (("a^2 + b^2 != 0", _a2b2_nonzero),),
     "F1 = a/t; F3 = b/t + c"),
    (4, "F1 = a/sin 2phi, F3 = (b cos 2phi + c)/sin 2phi", "phi",
     (0.2, 1.2), _P_SIN2, (("w != 0", _w_nonzero),),
     "F1 = a/sin(2*(w*t + p0)); F3 = (b*cos(2*(w*t + p0)) + c)/sin(2*(w*t + p0))"),
    (5, "F1 = a tan phi, F3 = b tan phi + c cot phi", "phi",
     (0.2, 1.2), _P_TANCOT,
     (("w != 0", _w_nonzero), ("c != 0", _c_nonzero),
      ("2mu = -ic/w not a non-positive integer",
       lambda p: not is_nonpositive_integer(-1j * p["c"] / p["w"]))),
     "F1 = a*tan(w*t + p0); F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (6, "F1 = a/sin phi, F3 = b tan phi + c cot phi", "phi",
     (0.2, 1.2), _P_TANCOT, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a/sin(w*t + p0); F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (7, "F1 = a/cos phi, F3 = b tan phi + c", "phi",
     (0.2, 0.9), _P_TAN, (("w != 0", _w_nonzero),),
     "F1 = a/cos(w*t + p0); F3 = b*tan(w*t + p0) + c"),
    (8, "F1 = a/sinh phi, F3 = b tanh phi + c coth phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a/sinh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (9, "F1 = a/cosh phi, F3 = b tanh phi + c coth phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (10, "F1 = a/sinh 2phi, F3 = (b cosh 2phi + c)/sinh 2phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a/sinh(2*(w*t + p0)); F3 = (b*cosh(2*(w*t + p0)) + c)/sinh(2*(w*t + p0))"),
    (11, "F1 = a/cosh phi, F3 = (b sinh phi + c)/cosh phi", "phi",
     (0.2, 1.1), (), (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = (b*sinh(w*t + p0) + c)/cosh(w*t + p0)"),
    (12, "F1 = a tanh phi, F3 = b tanh phi + c coth phi", "phi",
     (0.2, 1.5), _P_ZERO,
     (("w != 0", _w_nonzero), ("c != 0", _c_nonzero),
      ("2mu = -ic/w not a non-positive integer",
       lambda p: not is_nonpositive_integer(-1j * p["c"] / p["w"]))),
     "F1 = a*tanh(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (13, "F1 = a coth phi, F3 = b tanh phi + c coth phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero)),
     "F1 = a*coth(w*t + p0); F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (14, "F1 = a/cosh phi, F3 = b tanh phi + c", "phi",
     (0.2, 2.0), (), (("w != 0", _w_nonzero),),
     "F1 = a/cosh(w*t + p0); F3 = b*tanh(w*t + p0) + c"),
    (15, "F1 = a/sinh phi, F3 = b coth phi + c", "phi",
     (0.2, 1.1), _P_ZERO, (("w != 0", _w_nonzero), ("a^2 + b^2 != 0", _a2b2_nonzero)),
     "F1 = a/sinh(w*t + p0); F3 = b*coth(w*t + p0) + c"),
    (16, "F1 = a, F3 = b t + c", "t", (0.2, 2.0), (),
     # the order -i a^2/(2b) of D_p: past the double range it reaches
     # parabolic_d as NaN, which would name the gamma function, not a or b
     (("b != 0", _b_nonzero),
      ("a^2/b finite", lambda p: not _b_nonzero(p) or cmath.isfinite(p["a"] * p["a"] / p["b"]))),
     "F1 = a; F3 = b*t + c"),
    (17, "F1 = a, F3 = b/t + c", "t", (0.2, 2.0), _POLE_T0,
     (("b != 0", _b_nonzero), ("a^2 + c^2 != 0", _a2c2_nonzero),
      ("-2ib not a non-positive integer",
       lambda p: not is_nonpositive_integer(-2j * p["b"]))),
     "F1 = a; F3 = b/t + c"),
    (18, "F1 = a, F3 = b/t + c t", "t", (0.2, 2.0), _POLE_T0,
     (("c != 0", _c_nonzero),),
     "F1 = a; F3 = b/t + c*t"),
    (19, "F1 = a, F3 = (b cos 2phi + c)/sin 2phi", "phi",
     (0.2, 1.2), _P_SIN2, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*cos(2*(w*t + p0)) + c)/sin(2*(w*t + p0))"),
    (20, "F1 = a, F3 = b tan phi + c cot phi", "phi",
     (0.2, 1.2), _P_TANCOT, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"),
    (21, "F1 = a, F3 = b tan phi + c", "phi",
     (0.2, 0.9), _P_TAN, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tan(w*t + p0) + c"),
    (22, "F1 = a, F3 = b tanh phi + c coth phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tanh(w*t + p0) + c*coth(w*t + p0)"),
    (23, "F1 = a, F3 = (b cosh 2phi + c)/sinh 2phi", "phi",
     (0.2, 1.5), _P_ZERO, (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*cosh(2*(w*t + p0)) + c)/sinh(2*(w*t + p0))"),
    (24, "F1 = a, F3 = (b sinh phi + c)/cosh phi", "phi",
     (0.2, 1.1), (), (("w != 0", _w_nonzero),),
     "F1 = a; F3 = (b*sinh(w*t + p0) + c)/cosh(w*t + p0)"),
    (25, "F1 = a, F3 = b tanh phi + c", "phi",
     (0.2, 2.0), (), (("w != 0", _w_nonzero),),
     "F1 = a; F3 = b*tanh(w*t + p0) + c"),
    (26, "F1 = a, F3 = b coth phi + c", "phi",
     (0.2, 1.1), _P_ZERO,
     (("w != 0", _w_nonzero), ("b != 0", _b_nonzero),
      ("-2ib/w not a non-positive integer",
       lambda p: not is_nonpositive_integer(-2j * p["b"] / p["w"]))),
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
for (eid, label, kind, window, poles, cons, dsl) in _RAW:
    defaults = dict(_DEF_ABC if kind == "t" else _DEF_PHI)
    if eid == 16:
        defaults = {"a": 1.0, "b": 1.0, "c": 0.0}
    _ENTRIES[eid] = CatalogEntry(
        id=eid, label=label, kind=kind,
        param_names=_T_PARAMS if kind == "t" else _PHI_PARAMS,
        default_params=defaults, default_window=window, field_dsl=dsl,
        pole_spec=poles, constraints=cons,
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
    from .spinors import Spinor
    e = entry(entry_id)
    p = e.merged(params)
    e.check_params(p)
    u1, u2 = e.solution_components(t, p)
    return Spinor(u1, u2)


def verify_entry(entry_id: int, params: dict | None = None,
                 window: tuple | None = None, n_points: int = 50) -> EntryReport:
    """Residual-substitute the entry's closed form into the spin equation:
    dynamics.se_residual at n_points nodes of the window, all at once
    (closed_forms.residuals).  The entry and its parameters are checked
    first, before numpy loads."""
    e = entry(entry_id)
    p = e.merged(params)
    e.check_params(p)
    win = tuple(window) if window is not None else e.window_for(p)
    from .closed_forms import residuals
    times, res = residuals(e, p, win, n_points)
    return EntryReport(entry_id, p, win, times, res, float(res.max()), e.flagged)


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
    from .fields import CatalogField
    return CatalogField(entry_id, new)
