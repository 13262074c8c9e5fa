"""Complex-parameter special functions: Gauss 2F1, Kummer Phi, parabolic
cylinder D_p, and the complex gamma function.

The raw power series are summed here, in pure Python and numpy: _series
at one z, _grid_series at every element of arrays of z.  Each series is
given by its term coefficient k -> c_k, the factor of term k+1 over term k
but z (_hyp2f1_coefficient, _hyp1f1_coefficient), which both loops take.
They return (value, terms_used, relative_truncation_estimate); terms_used
== -1 signals that the term cap was reached before convergence, or that a
term or a partial sum is not finite, which ends the sum at once: NaN and
inf terms never pass the stop test, and a sum past the double range passes
it at every finite term.  The AccuracyError that _run raises then tells the
three apart: a finite sum ran to the cap, and the estimate is NaN after a
term that is not finite.
Everything else — domain handling, the Pfaff transformation used near the
unit circle, the Lanczos gamma and the parabolic-cylinder reduction — is
plain Python on top.

_grid_series takes a list of jobs, each a term coefficient with an array of
z, sums all of them in one pass over blocks of terms, and returns the three
arrays of each job.  It only computes values: every job is summed to its
end, and it never raises.  Each element reproduces the scalar loop bit for
bit up to its end: the term coefficient is the same Python complex, the
complex products are CPython's (xr*yr - xi*yi, xr*yi + xi*yr) on float64
real/imaginary pairs, and each element keeps its own STREAK count and
MAX_TERMS cap, leaving the active set when it stops.  The stop test
abs(term) < REL_EPS * abs(total) makes the scalar loop's decisions from
squared magnitudes re**2 + im**2: a ratio of squares more than 1e-12
(relative) away from REL_EPS**2 settles it, about a thousand times the
rounding the two ways can differ by, and only the ratios inside that margin
take hypot, as abs does.  A block whose squares leave [2**-900, 2**900] (or
are NaN) takes hypot whole, and an element ends over the cap at the first
step where the magnitude of its term or partial sum is not finite, as the
scalar loop does, which takes a modulus that abs cannot return (finite parts
past the double range) as inf.  Each pass allocates its block arrays once,
as views of two workspaces that every block reuses.

gauss_2f1, kummer_phi and parabolic_d take one z.  The catalog's closed
forms call gauss_2f1_many, kummer_phi_many and parabolic_d_many, which take
several parameter sets for one z, as each closed form needs two series on
the same argument, and return one value per set.  On an ndarray z (an
object array of Python numbers, as the closed forms build) they return an
object array of Python complex values per set: a grid function
(_gauss_grid, _kummer_grid, _parabolic_grid) checks every set, sums the
series of all sets in one pass of _grid_series and assembles the values,
each with the bits of the scalar call at its element.  Any failing check
or any element over the cap raises, with no replay: the caller,
closed_forms.residuals, replays node by node (numutil.grid_or_replay) to
raise the scalar calls' error.  For 2F1 the branches are planned once per
array of z, as numpy masks that all sets share (_pfaff_branches): the image
w = z/(z-1) is each element's own CPython division, on an object array,
and the prefactor (1-z)^(-alpha) is one object-array power per distinct
alpha.
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
# that many terms of all live elements would pass _BLOCK_SIZE (memory), so
# a 400-point verify, whose 2000 stencil nodes make 4000 or 8000 series
# elements, takes blocks of 2-4 terms until its elements thin out.
# The block length changes no bit.  24 was chosen from 24, 32 and 48, run
# interleaved in one process on verify-sweep's op mix (three 50-point
# verify_entry ops to one 400-point op; 104 ops, 40 rounds, Python 3.11.7,
# numpy 2.4.6, 2 vCPU): its median per op was the lowest on four of five
# seeds (3.15-3.44 ms, against 3.17-3.44 at 32 and 3.20-3.49 at 48), and 16
# took 2.3% and 3.5% longer than 24 on the two seeds it was run on.
_BLOCK = 24
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
    "kummer_phi",
    "kummer_phi_info",
    "parabolic_d",
    "complex_gamma",
    "reciprocal_gamma",
    "USING_COMPILED",
]


@record
class SeriesResult:
    value: complex
    terms_used: int
    truncation_estimate: float


def _check_gamma_param(gamma: complex):
    if not cmath.isfinite(gamma):
        raise DomainError(f"gamma = {gamma} is not finite")
    if is_nonpositive_integer(gamma):
        raise DomainError(f"gamma = {gamma} is a non-positive integer (series pole)")


def _check_finite_z(name, z: complex):
    """DomainError naming z if it is not finite: a series there would run
    to the term cap and report that rather than the argument."""
    if not cmath.isfinite(z):
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
    complex z, as (value, terms_used, relative_truncation_estimate).  A
    modulus past the double range, of a term or of a partial sum with
    finite parts, counts as inf, as np.hypot gives it to _grid_series."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    streak = 0
    n_used = -1
    for k in range(MAX_TERMS):
        term *= coefficient(k) * z
        total += term
        try:
            mag, size = abs(term), abs(total)
        except OverflowError:
            mag, size = _modulus(term), _modulus(total)
        if mag < REL_EPS * size:
            if size == math.inf:  # past the double range: every finite term passes
                break
            streak += 1
            if streak >= STREAK:
                n_used = k + 1
                break
        else:
            streak = 0
            if not mag < math.inf:  # NaN or inf: no later term is finite
                break
    return total, n_used, mag / max(size, 1e-300)


def _modulus(x: complex) -> float:
    """abs(x), or inf where it is past the double range."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def _run(name, coefficient, z) -> SeriesResult:
    """The series at z, or AccuracyError if it ended over the cap: with a
    finite sum if it ran to MAX_TERMS, else at a term whose modulus is not
    finite (the estimate is NaN or inf) or at a partial sum whose modulus
    is not (the estimate is 0)."""
    value, n, est = _series(coefficient, complex(z))
    if n < 0:
        if math.isfinite(est) and _modulus(value) < math.inf:
            raise AccuracyError(f"{name} series did not converge within {MAX_TERMS} terms at z={z}")
        what = "a partial sum" if est == 0.0 else "a term"
        raise AccuracyError(f"{name} series has {what} that is not finite at z={z}")
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

    An element ends over the cap (terms -1) at the first step where the
    magnitude of its term or its partial sum is not finite, where the
    scalar loop ends too.  The caller replays every element over the cap
    with the scalar calls.
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
            # term or partial sum that is not finite ends it over the cap
            ends = small[2:] & small[1:-1] & small[:-2]
            if mags is not None:
                diverged = ~np.isfinite(mags).all(axis=1)
                ends |= diverged
            ended = ends.any(axis=0)
            done = np.flatnonzero(ended)
            if done.size:
                last = ends[:, done].argmax(axis=0)  # the step at which each one ends
                used = k0 + last + 1
                if mags is not None:
                    used[diverged[last, done]] = -1
                idx = live[done]
                final[:, :, idx] = block[last, :, :, done].transpose(1, 2, 0)
                terms[idx] = used
                keep = np.flatnonzero(~ended)
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
    return [(v.reshape(z.shape), m.reshape(z.shape), r.reshape(z.shape))
            for z, v, m, r in zip(zs, *(np.split(a, cuts) for a in (values, terms, estimates)))]


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


def _estimate(ends):
    """abs(term) / max(abs(total), 1e-300) for ends = [term/total, re/im,
    element], with the positive NaN that CPython's abs gives when a part is
    NaN."""
    mags = np.hypot(ends[:, 0], ends[:, 1])
    mags[np.isnan(mags)] = np.nan
    return mags[0] / np.maximum(mags[1], 1e-300)


def _elementwise(fn):
    """fn on a number, and element by element on an ndarray (an object
    array out), so that scalar code runs unchanged on arrays."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: ufunc(x) if isinstance(x, np.ndarray) else fn(x)


def _slow_series_ok(alpha, beta, gamma) -> bool:
    """Whether the slow direct series may be taken on |z| <= 1 + 1e-12."""
    return (complex(gamma) - alpha - beta).real > 0.05


def _pfaff_image(alpha, beta, gamma, z: complex, r: float):
    """Branch for r = |z| above the direct radius: the Pfaff image z/(z-1),
    or None for the slow direct series; DomainError outside both."""
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"2F1 branch cut: z = {z} lies on [1, inf)")
    w = z / (z - 1.0)
    if abs(w) <= _DIRECT_RADIUS:
        return w
    if r <= 1.0 + 1e-12 and _slow_series_ok(alpha, beta, gamma):
        return None
    raise DomainError(
        f"2F1 argument z = {z} outside the supported domain "
        f"(|z| = {r:.6g}, |z/(z-1)| = {abs(w):.6g})"
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
    r = math.hypot(z.real, z.imag)  # abs(z), but inf where abs would overflow
    if not r <= _DIRECT_RADIUS:
        w = _pfaff_image(alpha, beta, gamma, z, r)
        if w is not None:
            # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
            inner = _run("2F1", _hyp2f1_coefficient(alpha, gamma - beta, gamma), w)
            pref = (1.0 - z) ** (-alpha)
            return SeriesResult(pref * inner.value, inner.terms_used, inner.truncation_estimate)
    return _run("2F1", _hyp2f1_coefficient(alpha, beta, gamma), z)


def _many(grid, one, sets, z) -> list:
    """[one(*s, z) for s in sets] at a number z, and grid(sets, z) at an
    ndarray z: the values of all sets at once, each element with the bits
    of one at it, or an error if any element fails."""
    if not isinstance(z, np.ndarray):
        return [one(*s, z) for s in sets]
    return grid(sets, z)


def _values(jobs) -> list:
    """The values of each (coefficient, z) job, summed in one grid pass, as
    object arrays of Python complex; AccuracyError if an element ends over
    the cap."""
    results = _grid_series(jobs)
    if any((n < 0).any() for _, n, _ in results):
        raise AccuracyError("a series ended over the term cap")
    return [values.astype(object) for values, _, _ in results]


def _gauss_grid(sets, z) -> list:
    """gauss_2f1_many on an ndarray z, with the direct and the Pfaff-image
    series of all sets summed in one grid pass; raises if an element of a
    set fails its branch or ends over the cap."""
    zc = np.asarray(z, dtype=complex).ravel()
    image, images, base, fails, slow = _pfaff_branches(zc)
    if fails:
        raise DomainError("2F1 argument outside the supported domain")
    direct = np.ones(zc.size, dtype=bool)
    direct[image] = False
    direct = np.flatnonzero(direct)
    jobs = []
    for alpha, beta, gamma in sets:
        _check_gamma_param(gamma)
        if slow and not _slow_series_ok(alpha, beta, gamma):
            raise DomainError("2F1 argument outside the supported domain")
        # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
        jobs += [(_hyp2f1_coefficient(alpha, beta, gamma), zc[direct]),
                 (_hyp2f1_coefficient(alpha, gamma - beta, gamma), images)]
    sums = iter(_values(jobs))
    powers = {}
    out = []
    for alpha, _, _ in sets:
        # (1 - z)^(-alpha) at the images, once per alpha; keyed by its type and
        # bits, as two alphas that differ in the sign of a zero part compare equal
        key = type(alpha), np.complex128(complex(alpha)).tobytes()
        if key not in powers:
            exponent = np.empty((), dtype=object)
            exponent[()] = -alpha  # the scalar call's own exponent object
            powers[key] = np.power(base, exponent)
        values = np.empty(zc.size, dtype=object)
        values[direct] = next(sums)
        values[image] = powers[key] * next(sums)
        out.append(values.reshape(np.shape(z)))
    return out


def gauss_2f1_many(sets, z) -> list:
    """[gauss_2f1(alpha, beta, gamma, z) for (alpha, beta, gamma) in sets]."""
    return _many(_gauss_grid, gauss_2f1, sets, z)


def _pfaff_branches(zc):
    """The branches _pfaff_image takes on the complex array zc, for every
    parameter set at once, as (image, images, base, fails, slow):

    - image, the indices of the elements that take the Pfaff image;
    - images, their w = z / (z - 1.0), each by CPython's own division;
    - base, their 1.0 - z, as an object array of Python complex;
    - fails, whether an element fails for every set (on the cut, or where
      |w| and |z| are both too large or NaN);
    - slow, whether an element takes the slow direct series, which fails
      for a set where _slow_series_ok does not hold.

    np.hypot is the scalar call's math.hypot and the hypot of CPython's
    abs, with the same inf and NaN, so the masks decide as the scalar call
    does.  abs(w) cannot raise at |z| <= 1 + 1e-12: there |z - 1| >= 2**-53,
    or Re z = 1 and CPython's w = 1 - i/Im z has a part that is inf or the
    modulus.
    """
    mag = np.hypot(zc.real, zc.imag)
    far = np.flatnonzero(~(mag <= _DIRECT_RADIUS))
    cut = (zc.imag[far] == 0.0) & (zc.real[far] >= 1.0)
    rest = far[~cut]
    z = zc[rest].astype(object)
    wc = (z / (z - 1.0)).astype(complex)
    inside = np.hypot(wc.real, wc.imag) <= _DIRECT_RADIUS
    slow = ~inside & (mag[rest] <= 1.0 + 1e-12)
    fails = cut.any() or (~inside & ~slow).any()
    return rest[inside], wc[inside], 1.0 - z[inside], fails, slow.any()


def gauss_2f1(alpha: complex, beta: complex, gamma: complex, z: complex) -> complex:
    """F(alpha, beta; gamma; z)."""
    return gauss_2f1_info(alpha, beta, gamma, z).value


def kummer_phi_info(alpha: complex, gamma: complex, z: complex) -> SeriesResult:
    """Confluent hypergeometric Phi(alpha, gamma; z) with metadata."""
    _check_gamma_param(gamma)
    _check_finite_z("Kummer", complex(z))
    return _run("Kummer", _hyp1f1_coefficient(alpha, gamma), z)


def _kummer_grid(sets, z) -> list:
    """kummer_phi_many on an ndarray z, all series in one grid pass.  A z
    that is not finite needs no check: its first term is not finite, which
    ends its series over the cap.  gamma does: every element may end before
    the term whose coefficient divides by zero at a pole."""
    for _, gamma in sets:
        _check_gamma_param(gamma)
    zc = np.asarray(z, dtype=complex)
    return _values([(_hyp1f1_coefficient(alpha, gamma), zc) for alpha, gamma in sets])


def kummer_phi_many(sets, z) -> list:
    """[kummer_phi(alpha, gamma, z) for (alpha, gamma) in sets]."""
    return _many(_kummer_grid, kummer_phi, sets, z)


def kummer_phi(alpha: complex, gamma: complex, z: complex) -> complex:
    """Phi(alpha, gamma; z)."""
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
    if is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    try:
        return _lanczos_gamma(z)
    except (OverflowError, ZeroDivisionError, ValueError):
        # t ** (z + 0.5) or the reflection's sin(pi z): Gamma(171.5) = 9.5e307
        # is in range, but its power of t is not; at |Im z| near 1e308 the
        # power's phase is not finite, which CPython's complex power reports
        # as ZeroDivisionError; at Re z near -1e308, pi z has an infinite
        # real part, whose sine is ValueError
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


def parabolic_d(p: complex, z: complex) -> complex:
    """Parabolic cylinder function D_p(z).

    Standard reduction to two Kummer functions of z*z/2 with complex-gamma
    weights; entire in both p and z.  The checks, in order: z, then z*z/2,
    the weight of the first series, the first series, the weight of the
    second, the second, and 2**(p/2).
    """
    z = complex(z)
    _check_finite_z("parabolic_d", z)
    zz = 0.5 * z * z
    if not cmath.isfinite(zz):  # name the caller's z, not z*z/2 = inf
        raise DomainError(f"parabolic_d argument z = {z}: z*z/2 is past the double range")
    p = complex(p)
    term1 = _SQRT_PI * reciprocal_gamma(0.5 * (1.0 - p)) * kummer_phi_info(-0.5 * p, 0.5, zz).value
    term2 = (_SQRT_2PI * z * reciprocal_gamma(-0.5 * p)
             * kummer_phi_info(0.5 * (1.0 - p), 1.5, zz).value)
    try:
        scale = 2.0 ** (0.5 * p)
    except OverflowError:
        raise DomainError(f"parabolic_d order p = {p}: 2**(p/2) is not finite") from None
    return scale * cmath.exp(-0.25 * z * z) * (term1 - term2)


def _parabolic_grid(sets, z) -> list:
    """parabolic_d_many on an ndarray z, with the two Kummer series of every
    order summed in one grid pass, and each order's weights once.  Where z
    or z*z/2 is not finite, so are the series' first terms (_kummer_grid)."""
    z = np.asarray(z, dtype=complex).astype(object)
    zz = np.asarray(0.5 * z * z, dtype=complex)
    ps = [complex(p) for p, in sets]
    weights = [(_SQRT_PI * reciprocal_gamma(0.5 * (1.0 - p)), reciprocal_gamma(-0.5 * p),
                2.0 ** (0.5 * p)) for p in ps]
    sums = iter(_values([(_hyp1f1_coefficient(alpha, gamma), zz) for p in ps
                         for alpha, gamma in ((-0.5 * p, 0.5), (0.5 * (1.0 - p), 1.5))]))
    root, e = _SQRT_2PI * z, _exp(-0.25 * z * z)
    out = []
    for w1, w2, scale in weights:
        term1 = w1 * next(sums)
        term2 = root * w2 * next(sums)
        out.append(scale * e * (term1 - term2))
    return out


def parabolic_d_many(ps, z) -> list:
    """[parabolic_d(p, z) for p in ps]."""
    return _many(_parabolic_grid, parabolic_d, [(p,) for p in ps], z)
