"""Complex-parameter special functions: Gauss 2F1, Kummer Phi, parabolic
cylinder D_p, and the complex gamma function.

The raw power-series summation lives in the pure-Python kernels of
spineq._series_py.  Everything else — domain handling, the Pfaff
transformation used near the unit circle, the Lanczos gamma and the
parabolic-cylinder reduction — is plain Python on top.

gauss_2f1, kummer_phi and parabolic_d also take an ndarray of z (an
object array of Python numbers, as the catalog's closed forms build) and
return an object array of Python complex values.  Each element takes the
branch the scalar call would take, the series are summed for all elements
at once by the grid kernels of spineq._series_py, and the values carry the
bits of the pure-Python scalar kernels.  Errors are those of the scalar
call at some failing element, not necessarily the first one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _series_py
from .errors import AccuracyError, DomainError

USING_COMPILED = False  # there is one series backend, the pure-Python one

MAX_TERMS = _series_py.MAX_TERMS

# direct series is used below this argument modulus; above it the engine
# switches to the z -> z/(z-1) Pfaff transformation when that shrinks the
# argument, which covers the catalog entries sitting on the unit circle
_DIRECT_RADIUS = 0.95

__all__ = [
    "SeriesResult",
    "gauss_2f1",
    "gauss_2f1_info",
    "kummer_phi",
    "kummer_phi_info",
    "parabolic_d",
    "complex_gamma",
    "reciprocal_gamma",
    "USING_COMPILED",
]


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    truncation_estimate: float


def _is_nonpositive_integer(z: complex, tol: float = 1e-14) -> bool:
    z = complex(z)
    if abs(z.imag) > tol or not math.isfinite(z.real):
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


def _check_gamma_param(gamma: complex, name: str = "gamma"):
    if not cmath.isfinite(gamma):
        raise DomainError(f"{name} = {gamma} is not finite")
    if _is_nonpositive_integer(gamma):
        raise DomainError(f"{name} = {gamma} is a non-positive integer (series pole)")


def _run_2f1(a, b, c, z) -> SeriesResult:
    value, n, est = _series_py.hyp2f1_series(complex(a), complex(b), complex(c), complex(z))
    if n < 0:
        raise AccuracyError(
            f"2F1 series did not converge within {MAX_TERMS} terms at z={z}"
        )
    return SeriesResult(value, n, est)


def _run_grid(name, grid_kernel, params, z):
    """A grid kernel over the complex array z, as an object array of Python
    complex values; AccuracyError names the first element over the cap."""
    values, n, _ = grid_kernel(*(complex(x) for x in params), z)
    if (n < 0).any():
        raise AccuracyError(f"{name} series did not converge within {MAX_TERMS} "
                            f"terms at z={complex(z.flat[np.argmax(n < 0)])}")
    return _objects(values)


def _objects(values: np.ndarray) -> np.ndarray:
    return np.array(values.tolist(), dtype=object)


def _elementwise(fn):
    """fn on a number, and element by element on an ndarray (an object
    array out), so that scalar code runs unchanged on arrays."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: ufunc(x) if isinstance(x, np.ndarray) else fn(x)


def _pfaff_image(alpha, beta, gamma, z: complex):
    """Branch for |z| above the direct radius: the Pfaff image z/(z-1), or
    None for the slow direct series; DomainError outside both."""
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"2F1 branch cut: z = {z} lies on [1, inf)")
    w = z / (z - 1.0)
    if abs(w) <= _DIRECT_RADIUS:
        return w
    if abs(z) <= 1.0 + 1e-12 and (complex(gamma) - alpha - beta).real > 0.05:
        return None
    raise DomainError(
        f"2F1 argument z = {z} outside the supported domain "
        f"(|z| = {abs(z):.6g}, |z/(z-1)| = {abs(w):.6g})"
    )


def gauss_2f1_info(alpha: complex, beta: complex, gamma: complex, z: complex) -> SeriesResult:
    """Gauss hypergeometric F(alpha, beta; gamma; z) with convergence metadata.

    Supported arguments: |z| below the direct-series radius, any z whose
    Pfaff image z/(z-1) is inside it (this includes the unit circle away
    from z = 1 and exp(+-i pi/3)), and |z| <= 1 with Re(gamma-alpha-beta)
    > 0.05 as a slow-series fallback.  Anything else raises DomainError
    rather than silently diverging.
    """
    _check_gamma_param(gamma)
    z = complex(z)
    if not abs(z) <= _DIRECT_RADIUS:
        w = _pfaff_image(alpha, beta, gamma, z)
        if w is not None:
            # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
            inner = _run_2f1(alpha, gamma - beta, gamma, w)
            pref = (1.0 - z) ** (-alpha)
            return SeriesResult(pref * inner.value, inner.terms_used, inner.truncation_estimate)
    return _run_2f1(alpha, beta, gamma, z)


def _gauss_2f1_grid(alpha, beta, gamma, z: np.ndarray) -> np.ndarray:
    """gauss_2f1 at every element of z, each taking the scalar's branch."""
    _check_gamma_param(gamma)
    zc = np.asarray(z, dtype=complex).ravel()
    out = np.empty(zc.size, dtype=object)
    far = np.flatnonzero(~(np.hypot(zc.real, zc.imag) <= _DIRECT_RADIUS)).tolist()
    direct = np.ones(zc.size, dtype=bool)
    pfaff, images = [], []
    for i in far:
        w = _pfaff_image(alpha, beta, gamma, complex(zc[i]))
        if w is not None:
            direct[i] = False
            pfaff.append(i)
            images.append(w)
    if direct.any():
        out[direct] = _run_grid("2F1", _series_py.hyp2f1_grid, (alpha, beta, gamma), zc[direct])
    if pfaff:
        inner = _run_grid("2F1", _series_py.hyp2f1_grid, (alpha, gamma - beta, gamma),
                          np.array(images))
        out[pfaff] = [(1.0 - complex(zc[i])) ** (-alpha) * v for i, v in zip(pfaff, inner)]
    return out.reshape(np.shape(z))


def gauss_2f1(alpha: complex, beta: complex, gamma: complex, z: complex) -> complex:
    """F(alpha, beta; gamma; z); an ndarray z gives an object array."""
    if isinstance(z, np.ndarray):
        return _gauss_2f1_grid(alpha, beta, gamma, z)
    return gauss_2f1_info(alpha, beta, gamma, z).value


def kummer_phi_info(alpha: complex, gamma: complex, z: complex) -> SeriesResult:
    """Confluent hypergeometric Phi(alpha, gamma; z) with metadata."""
    _check_gamma_param(gamma)
    value, n, est = _series_py.hyp1f1_series(complex(alpha), complex(gamma), complex(z))
    if n < 0:
        raise AccuracyError(
            f"Kummer series did not converge within {MAX_TERMS} terms at z={z}"
        )
    return SeriesResult(value, n, est)


def kummer_phi(alpha: complex, gamma: complex, z: complex) -> complex:
    """Phi(alpha, gamma; z); an ndarray z gives an object array."""
    if isinstance(z, np.ndarray):
        _check_gamma_param(gamma)
        return _run_grid("Kummer", _series_py.hyp1f1_grid, (alpha, gamma),
                         np.asarray(z, dtype=complex))
    return kummer_phi_info(alpha, gamma, z).value


# Lanczos approximation, g = 7, 9 coefficients (~1e-13 relative accuracy)
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z via the Lanczos approximation with reflection."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma argument z = {z} is not finite")
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_C[0] + 0j
    for i, ci in enumerate(_LANCZOS_C[1:], start=1):
        acc += ci / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); zero at the poles of Gamma."""
    if _is_nonpositive_integer(z):
        return 0j
    return 1.0 / complex_gamma(z)


_exp = _elementwise(cmath.exp)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def parabolic_d(p: complex, z: complex) -> complex:
    """Parabolic cylinder function D_p(z).

    Standard reduction to two Kummer functions with complex-gamma weights;
    entire in both p and z.
    """
    p = complex(p)
    z = _objects(np.asarray(z, dtype=complex)) if isinstance(z, np.ndarray) else complex(z)
    zz = 0.5 * z * z
    term1 = _SQRT_PI * reciprocal_gamma(0.5 * (1.0 - p)) * kummer_phi(-0.5 * p, 0.5, zz)
    term2 = _SQRT_2PI * z * reciprocal_gamma(-0.5 * p) * kummer_phi(0.5 * (1.0 - p), 1.5, zz)
    return 2.0 ** (0.5 * p) * _exp(-0.25 * z * z) * (term1 - term2)
