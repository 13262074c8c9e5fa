"""Complex-parameter special functions: Gauss 2F1, Kummer Phi, parabolic
cylinder D_p, and the complex gamma function.

The raw power-series summation lives in the pure-Python kernels of
spineq._series_py.  Everything else — domain handling, the Pfaff
transformation used near the unit circle, the Lanczos gamma and the
parabolic-cylinder reduction — is plain Python on top.

gauss_2f1, kummer_phi and parabolic_d also take an ndarray of z (an
object array of Python numbers, as the catalog's closed forms build) and
return an object array of Python complex values.  gauss_2f1_many and
kummer_phi_many take several parameter sets for one z, as each closed form
needs two series on the same argument, and return one value (or object
array) per set.  On an array, each element of each set takes the branch
the scalar call would take; each series becomes a job (the direct and the
Pfaff-image elements of a 2F1 set are one job each), and the jobs of all
sets are summed in one pass of the grid kernel of spineq._series_py, so the
values carry the bits of the pure-Python scalar kernels.  The one-set
gauss_2f1 and kummer_phi are the many-forms with one set, and parabolic_d
sums its two Kummer series in one pass.  Errors are those of the scalar
call at some failing element, not necessarily the first one, and come in
the order of the sets: the many-forms raise what the one-set calls, made
one after the other, would raise.
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
    "gauss_2f1_many",
    "kummer_phi",
    "kummer_phi_info",
    "kummer_phi_many",
    "parabolic_d",
    "parabolic_d_many",
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


def _in_order(plan, sets, values) -> list:
    """One result per parameter set, with the series of all sets taken from
    values in one go, and the errors that one call per set, made in order,
    would raise.

    plan(*params) checks one set and returns its jobs and an assemble
    function, which takes the iterator of job values (one per job, in
    order) and returns the set's result.  values(jobs) is that iterator for
    the jobs of all sets, summed lazily or in one pass.  A set that fails in
    plan raises once the sets before it are assembled, and an error of a job
    is raised before the sets after it are assembled.
    """
    plans, failure = [], None
    for params in sets:
        try:
            plans.append(plan(*params))
        except Exception as exc:  # raised below, after the sets before it
            failure = exc
            break
    job_values = values([job for jobs, _ in plans for job in jobs])
    out = [assemble(job_values) for _, assemble in plans]
    if failure is not None:
        raise failure
    return out


def _job_values(name, jobs):
    """The values of each (coefficient, z) job as object arrays, in order,
    all summed in one grid pass; AccuracyError names a job's first element
    over the cap.  An OverflowError of the pass is raised by the first job
    that overflows on its own, after the jobs before it, as one pass per job
    would raise it."""
    try:
        results = _series_py._grid_series(jobs)
    except OverflowError:
        if len(jobs) == 1:
            raise
        results = None
    for i, job in enumerate(jobs):
        values, n, _ = results[i] if results else _series_py._grid_series([job])[0]
        if (n < 0).any():
            raise AccuracyError(f"{name} series did not converge within {MAX_TERMS} "
                                f"terms at z={complex(job[1].flat[np.argmax(n < 0)])}")
        yield _objects(values)


def gauss_2f1_many(sets, z) -> list:
    """[gauss_2f1(alpha, beta, gamma, z) for (alpha, beta, gamma) in sets].

    With an ndarray z, every element of every set takes the branch the
    scalar call would take, and the direct and the Pfaff-image series of
    all sets are summed in one grid pass.
    """
    if not isinstance(z, np.ndarray):
        return [gauss_2f1_info(alpha, beta, gamma, z).value for alpha, beta, gamma in sets]
    zc = np.asarray(z, dtype=complex).ravel()
    far = np.flatnonzero(~(np.hypot(zc.real, zc.imag) <= _DIRECT_RADIUS)).tolist()

    def plan(alpha, beta, gamma):
        _check_gamma_param(gamma)
        direct = np.ones(zc.size, dtype=bool)
        pfaff, images = [], []
        for i in far:
            w = _pfaff_image(alpha, beta, gamma, complex(zc[i]))
            if w is not None:
                direct[i] = False
                pfaff.append(i)
                images.append(w)
        jobs = []
        if direct.any():
            jobs.append((_series_py.hyp2f1_coefficient(
                complex(alpha), complex(beta), complex(gamma)), zc[direct]))
        if pfaff:
            # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
            jobs.append((_series_py.hyp2f1_coefficient(
                complex(alpha), complex(gamma - beta), complex(gamma)), np.array(images)))

        def assemble(values):
            out = np.empty(zc.size, dtype=object)
            if direct.any():
                out[direct] = next(values)
            if pfaff:
                out[pfaff] = [(1.0 - complex(zc[i])) ** (-alpha) * v
                              for i, v in zip(pfaff, next(values))]
            return out.reshape(np.shape(z))
        return jobs, assemble

    return _in_order(plan, sets, lambda jobs: _job_values("2F1", jobs))


def gauss_2f1(alpha: complex, beta: complex, gamma: complex, z: complex) -> complex:
    """F(alpha, beta; gamma; z); an ndarray z gives an object array."""
    return gauss_2f1_many([(alpha, beta, gamma)], z)[0]


def kummer_phi_info(alpha: complex, gamma: complex, z: complex) -> SeriesResult:
    """Confluent hypergeometric Phi(alpha, gamma; z) with metadata."""
    _check_gamma_param(gamma)
    value, n, est = _series_py.hyp1f1_series(complex(alpha), complex(gamma), complex(z))
    if n < 0:
        raise AccuracyError(
            f"Kummer series did not converge within {MAX_TERMS} terms at z={z}"
        )
    return SeriesResult(value, n, est)


def _kummer_values(z):
    """jobs -> the iterator of their Phi(alpha, gamma; z), for jobs of
    (alpha, gamma): one scalar call per job when it is taken, or one grid
    pass for all jobs on an ndarray z."""
    if not isinstance(z, np.ndarray):
        return lambda jobs: (kummer_phi_info(alpha, gamma, z).value for alpha, gamma in jobs)
    zc = np.asarray(z, dtype=complex)
    return lambda jobs: _job_values("Kummer", [
        (_series_py.hyp1f1_coefficient(complex(alpha), complex(gamma)), zc)
        for alpha, gamma in jobs])


def kummer_phi_many(sets, z) -> list:
    """[kummer_phi(alpha, gamma, z) for (alpha, gamma) in sets]; with an
    ndarray z, the series of all sets are summed in one grid pass."""
    def plan(alpha, gamma):
        _check_gamma_param(gamma)
        return [(alpha, gamma)], next

    return _in_order(plan, sets, _kummer_values(z))


def kummer_phi(alpha: complex, gamma: complex, z: complex) -> complex:
    """Phi(alpha, gamma; z); an ndarray z gives an object array."""
    return kummer_phi_many([(alpha, gamma)], z)[0]


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


def parabolic_d_many(ps, z) -> list:
    """[parabolic_d(p, z) for p in ps]; with an ndarray z, the two Kummer
    series of every p are summed in one grid pass."""
    z = _objects(np.asarray(z, dtype=complex)) if isinstance(z, np.ndarray) else complex(z)
    zz = 0.5 * z * z

    def plan(p):
        p = complex(p)
        w1 = _SQRT_PI * reciprocal_gamma(0.5 * (1.0 - p))

        def assemble(values):
            term1 = w1 * next(values)
            term2 = _SQRT_2PI * z * reciprocal_gamma(-0.5 * p) * next(values)
            return 2.0 ** (0.5 * p) * _exp(-0.25 * z * z) * (term1 - term2)
        return [(-0.5 * p, 0.5), (0.5 * (1.0 - p), 1.5)], assemble

    return _in_order(plan, [(p,) for p in ps], _kummer_values(zz))


def parabolic_d(p: complex, z: complex) -> complex:
    """Parabolic cylinder function D_p(z).

    Standard reduction to two Kummer functions with complex-gamma weights;
    entire in both p and z.
    """
    return parabolic_d_many([p], z)[0]
