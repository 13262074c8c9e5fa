"""Pure-Python series kernels: hyp2f1_series and hyp1f1_series.

Both return (value, terms_used, relative_truncation_estimate); terms_used
== -1 signals that the term cap was reached before convergence.

hyp2f1_grid and hyp1f1_grid sum the same series at every element of an
array of z at once and return arrays of the three.  They reproduce the
scalar loops here bit for bit: the term coefficient is the same Python
complex, the complex products are CPython's (xr*yr - xi*yi, xr*yi + xi*yr)
on float64 real/imaginary pairs, abs is hypot, and each element keeps its
own STREAK count and MAX_TERMS cap, leaving the active set when it stops.
"""

import numpy as np

MAX_TERMS = 20000
REL_EPS = 1e-16
STREAK = 3

# the grid kernels take up to _BLOCK terms per vectorised step, fewer when
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


def hyp2f1_grid(a, b, c, z):
    """hyp2f1_series at every element of the complex array z."""
    return _grid_series(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), z)


def hyp1f1_grid(a, c, z):
    """hyp1f1_series at every element of the complex array z."""
    return _grid_series(lambda k: (a + k) / ((c + k) * (k + 1.0)), z)


def _grid_series(coefficient, z):
    """The scalar loop at every element of z, up to _BLOCK terms at a time.

    Only the term recurrence and the partial sums run term by term; the
    magnitudes and the STREAK test then cover the whole block at once.  An
    element that ends inside a block has a few terms computed past its end,
    which are never read.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    zz = np.stack([z.real.ravel(), z.imag.ravel()])  # [re, im] of z
    term, total = np.zeros((2, n)), np.zeros((2, n))  # [re, im] of each
    term[0] = total[0] = 1.0
    # whether abs(term) < REL_EPS * abs(total) held at the two last terms
    tail = np.zeros((2, n), dtype=bool)
    live = np.arange(n)
    sums = np.empty((2, n))
    terms = np.full(n, -1, dtype=np.int64)
    estimates = np.empty(n)
    k0 = 0
    with np.errstate(all="ignore"):
        while live.size and k0 < MAX_TERMS:
            kb = min(_BLOCK, max(4, _BLOCK_SIZE // live.size), MAX_TERMS - k0)
            cf = np.array([coefficient(k) for k in range(k0, k0 + kb)])
            block = _block_terms(_times_z(cf, zz), term, total)
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
            if np.count_nonzero(done):
                j, idx = last[done], live[done]
                ends = block[j, :, :, np.flatnonzero(done)]  # [element, term/total, re/im]
                sums[:, idx] = ends[:, 1].T
                terms[idx] = k0 + j + 1
                estimates[idx] = _estimate(ends[:, 0].T, ends[:, 1].T)
                keep = ~done
                live, zz, term, total = live[keep], zz[:, keep], term[:, keep], total[:, keep]
                small = small[:, keep]
            tail = small[-2:]
            k0 += kb
            del block  # before the next one is allocated
        sums[:, live] = total
        estimates[live] = _estimate(term, total)
    values = np.empty(n, dtype=complex)
    values.real, values.imag = sums
    return values.reshape(z.shape), terms.reshape(z.shape), estimates.reshape(z.shape)


def _times_z(cf, zz):
    """cf[k] * z for each coefficient, as [k, re/im, element], each product
    as CPython multiplies complex numbers, (xr*yr - xi*yi, xr*yi + xi*yr)."""
    cr, ci = cf.real[:, None], cf.imag[:, None]
    x = np.empty((len(cf),) + zz.shape)
    np.subtract(cr * zz[0], ci * zz[1], out=x[:, 0])
    np.add(cr * zz[1], ci * zz[0], out=x[:, 1])
    return x


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
