"""Pure-Python series kernels: hyp2f1_series and hyp1f1_series.

Both return (value, terms_used, relative_truncation_estimate); terms_used
== -1 signals that the term cap was reached before convergence.

_grid_series sums the same series at every element of arrays of z at once.
It takes a list of jobs, each a term coefficient k -> c_k (hyp2f1_coefficient,
hyp1f1_coefficient) with an array of z, sums all of them in one pass over
blocks of terms, and returns the three arrays of each job; hyp2f1_grid and
hyp1f1_grid are its one-job calls.  Every element reproduces the scalar loop
here bit for bit: the term coefficient is the same Python complex, the
complex products are CPython's (xr*yr - xi*yi, xr*yi + xi*yr) on float64
real/imaginary pairs, abs is hypot, and each element keeps its own STREAK
count and MAX_TERMS cap, leaving the active set when it stops.  So a job
gets the same bits in a pass of its own as beside other jobs, unless a job
before it has a term that overflowed: then it is left out (None).
"""

import numpy as np

MAX_TERMS = 20000
REL_EPS = 1e-16
STREAK = 3

# the grid kernel takes up to _BLOCK terms per vectorised step, fewer when
# that many terms of all live elements would pass _BLOCK_SIZE (memory)
_BLOCK = 16
_BLOCK_SIZE = 16384


def hyp2f1_series(a, b, c, z):
    """Raw Gauss hypergeometric power series at z."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    streak = 0
    n_used = MAX_TERMS
    for k in range(MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) < REL_EPS * abs(total):
            streak += 1
            if streak >= STREAK:
                n_used = k + 1
                break
        else:
            streak = 0
    else:
        return total, -1, abs(term) / max(abs(total), 1e-300)
    return total, n_used, abs(term) / max(abs(total), 1e-300)


def hyp1f1_series(a, c, z):
    """Raw confluent hypergeometric (Kummer) power series at z."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    streak = 0
    n_used = MAX_TERMS
    for k in range(MAX_TERMS):
        term *= (a + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) < REL_EPS * abs(total):
            streak += 1
            if streak >= STREAK:
                n_used = k + 1
                break
        else:
            streak = 0
    else:
        return total, -1, abs(term) / max(abs(total), 1e-300)
    return total, n_used, abs(term) / max(abs(total), 1e-300)


def hyp2f1_coefficient(a, b, c):
    """k -> the factor of term k+1 over term k of hyp2f1_series, but z."""
    return lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))


def hyp1f1_coefficient(a, c):
    """k -> the factor of term k+1 over term k of hyp1f1_series, but z."""
    return lambda k: (a + k) / ((c + k) * (k + 1.0))


def hyp2f1_grid(a, b, c, z):
    """hyp2f1_series at every element of the complex array z."""
    return _grid_series([(hyp2f1_coefficient(a, b, c), z)])[0]


def hyp1f1_grid(a, c, z):
    """hyp1f1_series at every element of the complex array z."""
    return _grid_series([(hyp1f1_coefficient(a, c), z)])[0]


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
    cap (specfun raises there).  An element whose term is not finite can no
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
