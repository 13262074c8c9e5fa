"""The equivalence transforms and the constant-field maps, pinned by the
sha256 of their values' bytes at ordinary inputs: a refactor of how they
bind fields, take rates or coerce vectors must keep every bit.  The
digest was recorded on x86-64 (Linux); the macOS job does not run this
module."""

import cmath
import hashlib
import math

import numpy as np

from spineq.dynamics import constant_field_propagator, stationary_solutions
from spineq.fields import CatalogField, ConstField, parse_field_spec
from spineq.reductions import (ReductionPlan, SigmaMap, reduce_field,
                               reparametrize_time, sigma_map, sigma_map_field,
                               to_schrodinger_potentials)
from spineq.spinors import CVec3, Spinor

DIGEST = "9c2f9289ebeb0e0b9cac8bce251261125c1004e51d86cb645a221dbf53cc2f12"

DSL = "F1 = 1 + 0.3*sin(t); F2 = 0.2*cos(t); F3 = 0.5*t*t"
AXES = [(0.48, 0.6, 0.64), (0.8, 0.3 + 0.4j, 0.6j), (1, 1j, 0), CVec3(0.0, 0.0, 2.0)]
VECTORS = [(0.5, 0.1, 0.2), (0.3 + 0.1j, -0.7, 1.2j), (1, 1j, 0), (1e200, 0, 1e200), (0, 0, 0)]
TIMES = (0.25, 0.7, 1.1)


def _callable_field(s):
    return (1.0 + 0.3 * math.sin(s), 0.2 * s, 0.5 * s * s)


def _cvec3_field(s):
    return CVec3(cmath.cos(s), 0.1 * s, cmath.sin(s))


def _values():
    """Every value, as Python complex, in a fixed order."""
    out = []
    fields = [parse_field_spec(DSL), ConstField((0.5, 0.1, 0.2)), CatalogField(5),
              _callable_field, _cvec3_field, CVec3(0.2, -0.4, 0.9)]
    for t in TIMES:
        for spec in fields[:5]:
            out += to_schrodinger_potentials(spec, t)
    alpha = lambda t: 0.3 * t + 0.2 * cmath.sin(t)  # noqa: E731
    alpha_dot = lambda t: 0.3 + 0.2 * cmath.cos(t)  # noqa: E731
    for l in AXES:
        for ad in (alpha_dot, None):
            plan = ReductionPlan.make(l, alpha, ad)
            out += list(plan.l)
            for p in (plan, plan.inverse()):
                for spec in fields:
                    for t in TIMES:
                        out += reduce_field(spec, p, t).as_array().tolist()
    T, Tdot = (lambda t: t + 0.05 * math.sin(2 * t)), (lambda t: 1 + 0.1 * math.cos(2 * t))
    for spec in fields:
        for td in (Tdot, None):
            for t in TIMES:
                out += reparametrize_time(spec, T, t, td).as_array().tolist()
    V = Spinor(0.3 + 0.2j, -0.8 + 0.5j)
    for which in SigmaMap:
        out += sigma_map(V, which).as_array().tolist()
        for F in (CVec3(1.0, 0.0, 2.0), (0.3 + 0.1j, 0, -1.2), np.array([2.0, 0, 0.5j])):
            out += sigma_map_field(F, which).as_array().tolist()
    for F in VECTORS + [CVec3(0.2, 0.4, -0.1j), np.array([0.1, 0.2, 0.3])]:
        for lam, W in stationary_solutions(F):
            out += [lam, W.v1, W.v2]
        for t in (0.0, 0.6, -1.3):
            out += constant_field_propagator(F, t).ravel().tolist()
    return [complex(v) for v in out]


def _digest():
    return hashlib.sha256(np.array(_values(), dtype=complex).tobytes()).hexdigest()


def test_the_values_keep_their_bits():
    assert _digest() == DIGEST
