"""Complex-parameter special functions: Gauss 2F1, Kummer Phi, parabolic
cylinder D_p, and the complex gamma function.

The raw power series are summed here, in pure Python and numpy: _series
at one z, _grid_series at every element of arrays of z.  Each series is
given by its term coefficient k -> c_k, the factor of term k+1 over term k
but z (_hyp2f1_coefficient, _hyp1f1_coefficient), which both loops take.
They return (value, terms_used, relative_truncation_estimate); terms_used
== -1 signals that the term cap was reached before convergence.
Everything else — domain handling, the Pfaff transformation used near the
unit circle, the Lanczos gamma and the parabolic-cylinder reduction — is
plain Python on top.

_grid_series takes a list of jobs, each a term coefficient with an array of
z, sums all of them in one pass over blocks of terms, and returns the three
arrays of each job.  Every element reproduces the scalar loop bit for bit:
the term coefficient is the same Python complex, the complex products are
CPython's (xr*yr - xi*yi, xr*yi + xi*yr) on float64 real/imaginary pairs,
abs is hypot, and each element keeps its own STREAK count and MAX_TERMS
cap, leaving the active set when it stops.  So a job gets the same bits in
a pass of its own as beside other jobs, unless a job before it has a term
that overflowed: then it is left out (None).

gauss_2f1, kummer_phi and parabolic_d also take an ndarray of z (an
object array of Python numbers, as the catalog's closed forms build) and
return an object array of Python complex values.  gauss_2f1_many and
kummer_phi_many take several parameter sets for one z, as each closed form
needs two series on the same argument, and return one value (or object
array) per set.  On an array, each element of each set takes the branch
the scalar call would take; each series becomes a job (the direct and the
Pfaff-image elements of a 2F1 set are one job each), and the jobs of all
sets are summed in one pass of _grid_series, so the values carry the bits
of the scalar loop.  The one-set gauss_2f1 and kummer_phi are the
many-forms with one set, and parabolic_d sums its two Kummer series in one
pass.  Errors are those of the scalar call at some failing element, not
necessarily the first one, and come in the order of the sets: the
many-forms raise what the one-set calls, made one after the other, would
raise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._numbers import is_nonpositive_integer
from .errors import AccuracyError, DomainError

# always False, as there is one series backend; kept because the benchmark
# harness (perfbench/harness.py) writes it on its meta line
USING_COMPILED = False

MAX_TERMS = 20000
REL_EPS = 1e-16
STREAK = 3

# the grid kernel takes up to _BLOCK terms per vectorised step, fewer when
# that many terms of all live elements would pass _BLOCK_SIZE (memory)
_BLOCK = 16
_BLOCK_SIZE = 16384

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


def _check_gamma_param(gamma: complex, name: str = "gamma"):
    if not cmath.isfinite(gamma):
        raise DomainError(f"{name} = {gamma} is not finite")
    if is_nonpositive_integer(gamma):
        raise DomainError(f"{name} = {gamma} is a non-positive integer (series pole)")


def _hyp2f1_coefficient(a, b, c):
    """k -> the factor of term k+1 over term k of 2F1(a, b; c; z), but z."""
    a, b, c = complex(a), complex(b), complex(c)
    return lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))


def _hyp1f1_coefficient(a, c):
    """k -> the factor of term k+1 over term k of 1F1(a; c; z), but z."""
    a, c = complex(a), complex(c)
    return lambda k: (a + k) / ((c + k) * (k + 1.0))


def _series(coefficient, z: complex):
    """The raw power series with term ratio coefficient(k) * z at the
    complex z, as (value, terms_used, relative_truncation_estimate)."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    streak = 0
    n_used = -1
    for k in range(MAX_TERMS):
        term *= coefficient(k) * z
        total += term
        if abs(term) < REL_EPS * abs(total):
            streak += 1
            if streak >= STREAK:
                n_used = k + 1
                break
        else:
            streak = 0
    return total, n_used, abs(term) / max(abs(total), 1e-300)


def _not_converged(name, z) -> AccuracyError:
    return AccuracyError(f"{name} series did not converge within {MAX_TERMS} terms at z={z}")


def _run(name, coefficient, z) -> SeriesResult:
    value, n, est = _series(coefficient, complex(z))
    if n < 0:
        raise _not_converged(name, z)
    return SeriesResult(value, n, est)


def _grid_series(jobs):
    """The scalar loop at every element of every job's z, as a list of
    (values, terms, estimates), one per (coefficient, z) job.

    All jobs run in one pass, up to _BLOCK terms at a time.  Only the term
    recurrence and the partial sums run term by term; the magnitudes and
    the STREAK test then cover the whole block at once.  The elements of a
    job stay contiguous among the live ones, so that each job multiplies
    its own slice by its own coefficients.  An element that ends inside a
    block has a few terms computed past its end, which are never read.

    The jobs are read in order, up to the first with an element over the
    cap (_job_values raises there).  An element whose term is not finite can no
    longer converge (every later term is not finite either), so once one is
    seen in a block where a magnitude overflows, which is where such a term
    first appears, the jobs after its own leave the pass and return None.
    """
    zs = [np.asarray(z, dtype=complex) for _, z in jobs]
    sizes = [z.size for z in zs]
    n = sum(sizes)
    flat = np.concatenate([z.ravel() for z in zs]) if zs else np.empty(0, dtype=complex)
    zz = np.stack([flat.real, flat.imag])  # [re, im] of z
    term, total = np.zeros((2, n)), np.zeros((2, n))  # [re, im] of each
    term[0] = total[0] = 1.0
    # whether abs(term) < REL_EPS * abs(total) held at the two last terms
    tail = np.zeros((2, n), dtype=bool)
    live = np.arange(n)
    owner = np.repeat(np.arange(len(jobs)), sizes)  # the job of each live element
    slices = _job_slices(owner, len(jobs))
    last_job = len(jobs) - 1  # the jobs after it have left the pass
    sums = np.empty((2, n))
    terms = np.full(n, -1, dtype=np.int64)
    estimates = np.empty(n)
    k0 = 0
    with np.errstate(all="ignore"):
        while live.size and k0 < MAX_TERMS:
            kb = min(_BLOCK, max(1, _BLOCK_SIZE // live.size), MAX_TERMS - k0)
            x = np.empty((kb,) + zz.shape)
            for j, s, e in slices:
                cf = np.array([jobs[j][0](k) for k in range(k0, k0 + kb)])
                _times_z(cf, zz[:, s:e], x[:, :, s:e])
            block = _block_terms(x, term, total)
            term, total = block[-1].copy()
            small, overflow = _small_terms(block)
            small = np.concatenate([tail, small])
            # three small terms in a row end the sum, as STREAK does
            stop = small[2:] & small[1:-1] & small[:-2]
            done = stop.any(axis=0)
            last = np.where(done, stop.argmax(axis=0), kb - 1)
            if overflow is not None and np.count_nonzero(
                    overflow & (np.arange(kb)[:, None] <= last)):
                raise OverflowError("absolute value too large")  # as CPython's abs
            leave = done
            if overflow is not None:
                # a magnitude overflowed: an element whose term is no longer
                # finite cannot converge, and the caller stops at its job
                bad = ~done & ~np.isfinite(term).all(axis=0)
                if bad.any():
                    last_job = min(last_job, int(owner[bad].min()))
                    leave = done | (owner > last_job)
            if np.count_nonzero(leave):
                keep = ~leave
                if np.count_nonzero(done):
                    j, idx = last[done], live[done]
                    ends = block[j, :, :, np.flatnonzero(done)]  # [element, term/total, re/im]
                    sums[:, idx] = ends[:, 1].T
                    terms[idx] = k0 + j + 1
                    estimates[idx] = _estimate(ends[:, 0].T, ends[:, 1].T)
                live, zz, term, total = live[keep], zz[:, keep], term[:, keep], total[:, keep]
                small, owner = small[:, keep], owner[keep]
                slices = _job_slices(owner, len(jobs))
            tail = small[-2:]
            k0 += kb
            del x, block  # before the next ones are allocated
        sums[:, live] = total
        estimates[live] = _estimate(term, total)
    values = np.empty(n, dtype=complex)
    values.real, values.imag = sums
    cuts = np.cumsum(sizes)[:-1]
    return [None if j > last_job else (v.reshape(z.shape), m.reshape(z.shape), r.reshape(z.shape))
            for j, (z, v, m, r) in enumerate(
                zip(zs, *(np.split(a, cuts) for a in (values, terms, estimates))))]


def _job_slices(owner, n_jobs):
    """(job, start, stop) of each job with live elements, for the sorted
    job index of each live element."""
    stops = np.cumsum(np.bincount(owner, minlength=n_jobs)).tolist()
    starts = [0] + stops[:-1]
    return [(j, s, e) for j, (s, e) in enumerate(zip(starts, stops)) if e > s]


def _times_z(cf, zz, out):
    """cf[k] * z for each coefficient into out, as [k, re/im, element], each
    product as CPython multiplies complex numbers, (xr*yr - xi*yi, xr*yi + xi*yr)."""
    cr, ci = cf.real[:, None], cf.imag[:, None]
    np.subtract(cr * zz[0], ci * zz[1], out=out[:, 0])
    np.add(cr * zz[1], ci * zz[0], out=out[:, 1])


def _block_terms(x, term, total):
    """The term and partial sum after each step term *= x[j], total += term,
    as [step, term/total, re/im, element], multiplied as in _times_z."""
    block = np.empty((len(x), 2) + term.shape)
    prods = np.empty((2,) + term.shape)  # part i of x[j] times part j of the term
    x_parts, prev = x[:, :, None], term[None]
    for j in range(len(x)):
        np.multiply(x_parts[j], prev, out=prods)
        term = block[j, 0]
        np.subtract(prods[0, 0], prods[1, 1], out=term[0])
        np.add(prods[0, 1], prods[1, 0], out=term[1])
        total = np.add(total, term, out=block[j, 1])
        prev = term[None]
    return block


def _small_terms(block):
    """abs(term) < REL_EPS * abs(total) at every step and element of a block,
    and where that abs raises OverflowError, as CPython's does when hypot
    overflows on finite parts (None if nowhere)."""
    mags = np.hypot(block[:, :, 0], block[:, :, 1])  # [step, |term| / |total|, element]
    small = mags[:, 0] < REL_EPS * mags[:, 1]
    inf = np.isinf(mags)
    if not inf.any():
        return small, None
    return small, (inf & np.isfinite(block).all(axis=2)).any(axis=1)


def _estimate(term, total):
    """abs(term) / max(abs(total), 1e-300) for [re, im] pairs, with the
    positive NaN that CPython's abs gives when a part is NaN."""
    mags = np.hypot([term[0], total[0]], [term[1], total[1]])
    mags[np.isnan(mags)] = np.nan
    return mags[0] / np.maximum(mags[1], 1e-300)


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
            inner = _run("2F1", _hyp2f1_coefficient(alpha, gamma - beta, gamma), w)
            pref = (1.0 - z) ** (-alpha)
            return SeriesResult(pref * inner.value, inner.terms_used, inner.truncation_estimate)
    return _run("2F1", _hyp2f1_coefficient(alpha, beta, gamma), z)


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
        results = _grid_series(jobs)
    except OverflowError:
        if len(jobs) == 1:
            raise
        results = None
    for i, job in enumerate(jobs):
        values, n, _ = results[i] if results else _grid_series([job])[0]
        if (n < 0).any():
            raise _not_converged(name, complex(job[1].flat[np.argmax(n < 0)]))
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
            jobs.append((_hyp2f1_coefficient(alpha, beta, gamma), zc[direct]))
        if pfaff:
            # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
            jobs.append((_hyp2f1_coefficient(alpha, gamma - beta, gamma), np.array(images)))

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
    return _run("Kummer", _hyp1f1_coefficient(alpha, gamma), z)


def _kummer_values(z):
    """jobs -> the iterator of their Phi(alpha, gamma; z), for jobs of
    (alpha, gamma): one scalar call per job when it is taken, or one grid
    pass for all jobs on an ndarray z."""
    if not isinstance(z, np.ndarray):
        return lambda jobs: (kummer_phi_info(alpha, gamma, z).value for alpha, gamma in jobs)
    zc = np.asarray(z, dtype=complex)
    return lambda jobs: _job_values("Kummer", [
        (_hyp1f1_coefficient(alpha, gamma), zc) for alpha, gamma in jobs])


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
    if is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    try:
        return _lanczos_gamma(z)
    except OverflowError:
        # t ** (z + 0.5) or the reflection's sin(pi z): Gamma(171.5) = 9.5e307
        # is in range, but its power of t is not
        raise AccuracyError(f"gamma at z = {z} overflows in the Lanczos formula") from None


def _lanczos_gamma(z: complex) -> complex:
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * _lanczos_gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_C[0] + 0j
    for i, ci in enumerate(_LANCZOS_C[1:], start=1):
        acc += ci / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); zero at the poles of Gamma.  Where |Gamma(z)| is below
    the double range (|Im z| in the hundreds) it is AccuracyError."""
    if is_nonpositive_integer(z):
        return 0j
    g = complex_gamma(z)
    # Gamma underflowed to 0, or to a subnormal whose reciprocal overflows
    if g:
        r = 1.0 / g
        if cmath.isfinite(r):
            return r
    raise AccuracyError(f"gamma at z = {complex(z)} underflows in the Lanczos formula")


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
