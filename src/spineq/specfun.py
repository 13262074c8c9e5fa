"""Complex-parameter special functions: Gauss 2F1, Kummer Phi, parabolic
cylinder D_p, and the complex gamma function.

The raw power series are summed here, in pure Python and numpy: _series
at one z, _grid_series at every element of arrays of z.  Each series is
given by its term coefficient k -> c_k, the factor of term k+1 over term k
but z (_hyp2f1_coefficient, _hyp1f1_coefficient), which both loops take.
They return (value, terms_used, relative_truncation_estimate); terms_used
== -1 signals that the term cap was reached before convergence, or that a
term is not finite, which ends the sum at once since NaN and inf never pass
the stop test.
Everything else — domain handling, the Pfaff transformation used near the
unit circle, the Lanczos gamma and the parabolic-cylinder reduction — is
plain Python on top.

_grid_series takes a list of jobs, each a term coefficient with an array of
z, sums all of them in one pass over blocks of terms, and returns the three
arrays of each job.  Every element reproduces the scalar loop bit for bit:
the term coefficient is the same Python complex, the complex products are
CPython's (xr*yr - xi*yi, xr*yi + xi*yr) on float64 real/imaginary pairs,
and each element keeps its own STREAK count and MAX_TERMS cap, leaving the
active set when it stops.  So a job gets the same bits in a pass of its own
as beside other jobs, unless a job before it has a term that overflowed:
then it is left out (None).  The stop test abs(term) < REL_EPS * abs(total)
makes the scalar loop's decisions from squared magnitudes re**2 + im**2:
a ratio of squares more than 1e-12 (relative) away from REL_EPS**2 settles
it, about a thousand times the rounding the two ways can differ by, and
only the ratios inside that margin take hypot, as abs does.  A block whose
squares leave [2**-900, 2**900] (or are NaN) takes hypot whole, which keeps
abs's OverflowError and its NaN.  Each pass allocates its block arrays
once, as views of two workspaces that every block reuses.

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

import numpy as np

from ._numbers import is_nonpositive_integer, record
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

# the squared stop test (_small_terms): its margin around REL_EPS**2, and
# the range of squared magnitudes in which it holds
_Q_SMALL = REL_EPS * REL_EPS * (1.0 - 1e-12)
_Q_LARGE = REL_EPS * REL_EPS * (1.0 + 1e-12)
_SQ_MIN, _SQ_MAX = 2.0 ** -900, 2.0 ** 900

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


@record
class SeriesResult:
    value: complex
    terms_used: int
    truncation_estimate: float


def _check_gamma_param(gamma: complex, name: str = "gamma"):
    if not cmath.isfinite(gamma):
        raise DomainError(f"{name} = {gamma} is not finite")
    if is_nonpositive_integer(gamma):
        raise DomainError(f"{name} = {gamma} is a non-positive integer (series pole)")


def _check_finite_z(name, z):
    """DomainError naming the first element of z, a complex number or
    ndarray, that is not finite: a series there would run to the term cap
    and report that rather than the argument."""
    if isinstance(z, np.ndarray):
        bad = ~np.isfinite(z)
        if bad.any():
            raise DomainError(f"{name} argument z = {z.flat[bad.argmax()]} is not finite")
    elif not cmath.isfinite(z):
        raise DomainError(f"{name} argument z = {z} is not finite")


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
        mag = abs(term)
        if mag < REL_EPS * abs(total):
            streak += 1
            if streak >= STREAK:
                n_used = k + 1
                break
        else:
            streak = 0
            if not mag < math.inf:  # NaN or inf: no later term is finite
                break
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
    recurrence and the partial sums run term by term; the stop test and the
    STREAK count then cover the whole block at once.  The stop test
    (_small_terms) compares squared magnitudes, s_term / s_total against
    REL_EPS**2 with a relative margin of 1e-12 either side, and takes hypot
    only for the ratios inside the margin, or for the whole block where a
    total's square is below 2**-900, a square above 2**900 or one is NaN.
    Each element takes its own job's coefficients, gathered once per block.
    An element that ends inside a block has a few terms computed past its
    end, which are never read.

    The block arrays are views of two workspaces allocated once per call,
    for the most steps * elements that a block can hold: one of four times
    that holds the block's terms and partial sums, where each step's z times
    its coefficient waits in the place of the step's partial sum until it is
    used; one of three times that holds the block's coefficients, gathered
    per element, and then its squared magnitudes.

    An element whose term is not finite ends there, over the cap (terms -1),
    as the scalar loop does: NaN and inf never pass the stop test.  The jobs
    are read in order, up to the first with an element over the cap
    (_job_values raises there), so once a term overflows to inf the jobs
    after its own leave the pass and return None.
    """
    zs = [np.asarray(z, dtype=complex) for _, z in jobs]
    sizes = [z.size for z in zs]
    n = sum(sizes)
    flat = np.concatenate([z.ravel() for z in zs]) if zs else np.empty(0, dtype=complex)
    zz = np.stack([flat.real, flat.imag])  # [re, im] of z
    del flat
    carry = np.zeros((2, 2, n))  # the last term and partial sum, [term/total, re/im, element]
    carry[:, 0] = 1.0
    # whether abs(term) < REL_EPS * abs(total) held at the two last terms
    tail = np.zeros((2, n), dtype=bool)
    live = np.arange(n)
    owner = np.repeat(np.arange(len(jobs)), sizes)  # the job of each live element
    coefficients, which = _live_jobs(jobs, owner)
    last_job = len(jobs) - 1  # the jobs after it have left the pass
    # each element's term and partial sum where it ended, [term/total, re/im, element]
    final = np.empty((2, 2, n))
    terms = np.full(n, -1, dtype=np.int64)
    room = min(_BLOCK * n, max(_BLOCK_SIZE, n))  # the most steps * elements of a block
    block_buf, squares = np.empty(4 * room), np.empty(3 * room)
    small_buf = np.empty(room + 2 * n, dtype=bool)
    k0 = 0
    with np.errstate(all="ignore"):
        while live.size and k0 < MAX_TERMS:
            m = live.size
            kb = min(_BLOCK, max(1, _BLOCK_SIZE // m), MAX_TERMS - k0)
            block = block_buf[:4 * kb * m].reshape(kb, 2, 2, m)
            cf = np.array([[c(k) for c in coefficients] for k in range(k0, k0 + kb)], dtype=complex)
            cf = cf.view(float).reshape(kb, -1, 2).transpose(0, 2, 1)  # [k, re/im, job]
            # each element's coefficients, in the squares' workspace until they are
            # used (mode "clip" writes there unbuffered; the indices are in range)
            cf = cf.take(which, 2, squares[:2 * kb * m].reshape(kb, 2, m), "clip")
            # x[j], the coefficient of step j times z, is kept where step j's partial sum goes
            x = block[:, 1]
            _times_z(cf, zz, x, block[:, 0])
            _block_terms(x, carry, block)
            small = small_buf[:(kb + 2) * m].reshape(kb + 2, m)
            small[:2] = tail
            mags = _small_terms(block, squares, small[2:])
            # three small terms in a row end the sum, as STREAK does, and a
            # term that is not finite ends it over the cap
            ends = small[2:] & small[1:-1] & small[:-2]
            if mags is not None:
                diverged = ~(mags[:, 0] < np.inf)
                ends |= diverged
            done = np.flatnonzero(ends.any(axis=0))
            last = ends[:, done].argmax(axis=0)  # the step at which each one ends
            used = k0 + last + 1
            if mags is not None:
                # abs raises at a step the scalar loop reaches: up to its
                # end at an element done, every step at the others
                reach = np.full(m, kb - 1)
                reach[done] = last
                if np.count_nonzero(_overflows(block, mags) & (np.arange(kb)[:, None] <= reach)):
                    raise OverflowError("absolute value too large")  # as CPython's abs
                over_cap = diverged[last, done]
                used[over_cap] = -1
                inf = done[over_cap & (mags[last, 0, done] == np.inf)]
                if inf.size:  # a term overflowed: the caller stops at its job
                    last_job = min(last_job, int(owner[inf].min()))
            if done.size:
                idx = live[done]
                final[:, :, idx] = block[last, :, :, done].transpose(1, 2, 0)
                terms[idx] = used
            if done.size or owner[-1] > last_job:  # owner is sorted
                keep = owner <= last_job
                keep[done] = False
                keep = np.flatnonzero(keep)
                # one at a time, so that each old array goes before the next new one
                live = live.take(keep)
                zz = zz.take(keep, 1)
                carry = block[-1].take(keep, 2)
                owner = owner.take(keep)
                tail = small[-2:].take(keep, 1)
                coefficients, which = _live_jobs(jobs, owner)
            else:
                carry, tail = block[-1].copy(), small[-2:].copy()
            k0 += kb
        final[:, :, live] = carry
        del block_buf, squares, small_buf  # before the results are assembled
        estimates = _estimate(final)
    values = np.empty(n, dtype=complex)
    values.real, values.imag = final[1]
    cuts = np.cumsum(sizes)[:-1]
    return [None if j > last_job else (v.reshape(z.shape), m.reshape(z.shape), r.reshape(z.shape))
            for j, (z, v, m, r) in enumerate(
                zip(zs, *(np.split(a, cuts) for a in (values, terms, estimates))))]


def _live_jobs(jobs, owner):
    """The term coefficients of the jobs with live elements, in order, and
    the index among them of each live element's job, for the sorted job
    index of each live element."""
    counts = np.bincount(owner, minlength=len(jobs))
    present = np.flatnonzero(counts)
    return [jobs[j][0] for j in present.tolist()], np.repeat(np.arange(present.size), counts[present])


def _times_z(cf, zz, out, prods):
    """Each element's coefficients times its z into out, as [k, re/im,
    element] like cf, each product as CPython multiplies complex numbers,
    (xr*yr - xi*yi, xr*yi + xi*yr); prods, of out's shape, holds two
    products of parts at a time."""
    np.multiply(cf, zz, prods)
    np.subtract(prods[:, 0], prods[:, 1], out[:, 0])
    np.multiply(cf, zz[::-1], prods)
    np.add(prods[:, 0], prods[:, 1], out[:, 1])


def _block_terms(x, carry, block):
    """The term and partial sum after each step term *= x[j], total += term,
    from carry's, into block as [step, term/total, re/im, element],
    multiplied as in _times_z.  x may be block[:, 1]: x[j] is read before
    the partial sum of step j is written over it."""
    prods = np.empty(carry.shape)  # part i of x[j] times part j of the term
    p00, p11, p01, p10 = prods[0, 0], prods[1, 1], prods[0, 1], prods[1, 0]
    term, total = carry
    for x_parts, step, re, im, step_total in zip(
            x[:, :, None], block[:, 0], block[:, 0, 0], block[:, 0, 1], block[:, 1]):
        np.multiply(x_parts, term, prods)
        np.subtract(p00, p11, re)
        np.add(p01, p10, im)
        total = np.add(total, step, step_total)
        term = step


def _small_terms(block, squares, small):
    """abs(term) < REL_EPS * abs(total) at every step and element of a block,
    into small as [step, element].  Returns None if the squared magnitudes
    decided it, or else the hypot magnitudes as [step, term/total, element].

    With s = re**2 + im**2, a ratio q = s_term / s_total below
    REL_EPS**2 (1 - 1e-12) is small and one above REL_EPS**2 (1 + 1e-12) is
    not: q is at most a few units in the last place off the exact ratio of
    squares, and hypot and REL_EPS * abs(total) one unit each, so the two
    tests cannot disagree outside a band some hundreds of times narrower.
    Only the ratios inside the margin take hypot.  That holds while the
    squares keep their relative error: every s_total at least 2**-900 and
    every s at most 2**900, none NaN.  A term square near REL_EPS**2 times
    such a total is still normal, and one that underflows is far below it.
    A block outside that range takes hypot whole, as abs does, NaN and inf
    included.  The flat array squares, of at least three times the block's
    steps * elements, holds the squares.
    """
    kb, m = len(block), block.shape[-1]
    km = kb * m
    # the parts of the terms squared, then of the totals, each pair summed in place
    np.square(block[:, 0], squares[:2 * km].reshape(2, kb, m).transpose(1, 0, 2))
    np.add(squares[:km], squares[km:2 * km], squares[:km])
    np.square(block[:, 1], squares[km:3 * km].reshape(2, kb, m).transpose(1, 0, 2))
    np.add(squares[km:2 * km], squares[2 * km:3 * km], squares[km:2 * km])
    s = squares[:2 * km].reshape(2, kb, m)  # [term/total, step, element]
    if s.max() <= _SQ_MAX and s[1].min() >= _SQ_MIN:
        q = np.divide(s[0], s[1], squares[2 * km:3 * km].reshape(kb, m))
        np.less(q, _Q_SMALL, small)
        maybe = q <= _Q_LARGE
        if np.count_nonzero(maybe) != np.count_nonzero(small):
            k, e = np.nonzero(maybe != small)
            mags = np.hypot(block[k, :, 0, e], block[k, :, 1, e])  # [ratio, term/total]
            small[k, e] = mags[:, 0] < REL_EPS * mags[:, 1]
        return None
    mags = np.hypot(block[:, :, 0], block[:, :, 1])
    np.less(mags[:, 0], REL_EPS * mags[:, 1], small)
    return mags


def _overflows(block, mags):
    """Where abs(term) or abs(total) raises OverflowError, as [step,
    element], from a block and its hypot magnitudes: CPython's abs raises
    where hypot overflows on finite parts."""
    return (np.isinf(mags) & np.isfinite(block).all(axis=2)).any(axis=1)


def _estimate(ends):
    """abs(term) / max(abs(total), 1e-300) for ends = [term/total, re/im,
    element], with the positive NaN that CPython's abs gives when a part is
    NaN."""
    mags = np.hypot(ends[:, 0], ends[:, 1])
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
    _check_finite_z("Kummer", complex(z))
    return _run("Kummer", _hyp1f1_coefficient(alpha, gamma), z)


def _kummer_values(z):
    """jobs -> the iterator of their Phi(alpha, gamma; z), for jobs of
    (alpha, gamma): one scalar call per job when it is taken, or one grid
    pass for all jobs on an ndarray z."""
    if not isinstance(z, np.ndarray):
        return lambda jobs: (kummer_phi_info(alpha, gamma, z).value for alpha, gamma in jobs)
    zc = np.asarray(z, dtype=complex)

    def values(jobs):
        if jobs:  # checked as the scalar calls check it: after each set's gamma
            _check_finite_z("Kummer", zc)
        return _job_values("Kummer", [(_hyp1f1_coefficient(alpha, gamma), zc)
                                      for alpha, gamma in jobs])
    return values


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
    z = np.asarray(z, dtype=complex) if isinstance(z, np.ndarray) else complex(z)
    _check_finite_z("parabolic_d", z)
    z = _objects(z) if isinstance(z, np.ndarray) else z
    with np.errstate(over="ignore", invalid="ignore"):
        zz = 0.5 * z * z
    # the Kummer series take z*z/2: where it overflows, name the caller's z
    big = ~np.isfinite(np.asarray(zz, dtype=complex))
    if big.any():
        raise DomainError(f"parabolic_d argument z = {np.asarray(z).flat[big.argmax()]}: "
                          f"z*z/2 is past the double range")

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
