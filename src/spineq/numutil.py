"""The central difference and its step, stencils, quadrature, the
grid-or-replay rule, the one DOP853 driver and the one float formatter."""

import numpy as np

from ._numbers import E16
from .errors import IntegrationError, SingularityError, SpinEqError

__all__ = [
    "E16",
    "E16_MARGIN",
    "CSV_BLOCK_ROWS",
    "csv_rows",
    "dop853",
    "RHS_BUDGET",
    "grid_or_replay",
    "central_difference",
    "central_second_difference",
    "stencil_nodes",
    "fd_derivative",
    "fd_derivative_callable",
    "fd_second_derivative_callable",
    "cumulative_integral",
    "default_step",
]

# rows formatted and written per block, so that the formatter's temporaries
# (about 130 bytes a value) stay near 0.4 MB for a 12-column table however
# long it is, each array under the 128 KB at which malloc turns to mmap
CSV_BLOCK_ROWS = 256

# 10**0 .. 10**27, exact in an x87 or quad long double: 5**27 < 2**63
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_P16, _P17 = _POW10[16], _POW10[16] * 10

# twice the half ulp of a long double below 2**57; 2**-7 for the x87 format,
# and 16 where long double is just a double, so that there every value takes
# the exact fallback
E16_MARGIN = float(2 * 2.0**55 * np.finfo(np.longdouble).eps)

# the ASCII digits of 0000 .. 9999 as one 4-byte word each, and the exponent
# field "e+dd" / "e-dd" of -99 .. 99 as one word at index e + 99
_DIGITS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                               indexing="ij"), axis=-1).reshape(10000, 4)
_DIGIT_WORDS = _DIGITS.view(np.uint32).ravel()
_EXP = np.arange(-99, 100)
_EXP_WORDS = np.column_stack([np.full(_EXP.size, ord("e")),
                              np.where(_EXP < 0, ord("-"), ord("+")),
                              _DIGITS[abs(_EXP), 2:]]).astype(np.uint8).view(np.uint32).ravel()


def _scaled(a, e):
    """|x| * 10**(16 - e) in long double, rounded once: one factor is 1."""
    k = 16 - e
    return a * _POW10[np.clip(k, 0, 27)] / _POW10[np.clip(-k, 0, 27)]


def _e16_digits(x):
    """The fast path of _e16_block: per value of the float64 array x, whether
    it is accepted, its 17 digits as an integer D and its exponent E.

    With E = floor(log10 |x|), the 17 digits printf writes are D = round(s*),
    s* = |x| * 10**(16 - E) exactly.  For |16 - E| <= 27 the power of ten is
    exact in long double, so s, the product (or quotient) computed there, is
    rounded once: |s - s*| <= ulp(s*) / 2 <= 2**55 * eps for s < 10**17 <
    2**57, with eps = finfo(longdouble).eps.  D = rint(s) is then accepted
    only if |s - D| < 1/2 - E16_MARGIN, E16_MARGIN = 2 * 2**55 * eps, which
    puts s* strictly within 1/2 of D: D is the correctly rounded value and
    s* no tie.  E is taken again where log10 lands across a power of ten (s
    outside [10**16, 10**17)), which it does just below most of them; if the
    rounding of s alone crossed 10**16, the text is the same
    "1.0000000000000000e..." either way.  D = 10**17, a carry into the
    exponent, would need a double within 5e-18 of a power of ten from below,
    and none in this range is: such a D is rejected rather than carried.
    The range of E keeps the accepted exponents at two digits; +-0.0 are
    accepted with D = E = 0.
    """
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a))
        a = a.astype(np.longdouble)
        finite = np.isfinite(e)          # not 0, inf or NaN
        e = np.where(finite, e, 0).astype(np.int64)
        s = _scaled(a, e)
        move = finite & ((s < _P16) | (s >= _P17))
        if move.any():
            e[move] += np.where(s[move] < _P16, -1, 1)
            s[move] = _scaled(a[move], e[move])
        fast = (((s >= _P16) & (s < _P17)) | (a == 0)) & (np.abs(16 - e) <= 27)
        s[~fast] = 0
        d = (s + 0.5).astype(np.uint64)  # no tie is accepted, so round half up
        fast &= (np.abs((s - d).astype(np.float64)) < 0.5 - E16_MARGIN) & (d < 10**17)
    e[~fast] = 0
    return fast, d, e


def _e16_block(table):
    """The CSV text of a 2-D float64 table, each value exactly as E16 % v
    writes it, and the number of values that took the exact fallback.

    The digits come from _e16_digits, in numpy; every value it rejects
    (NaN, +-inf, subnormal or huge values, near-ties) is written with
    E16 % v, the exact fallback.
    """
    rows, cols = table.shape
    x = table.ravel()
    fast, d, e = _e16_digits(x)
    hi, lo = np.divmod(d, 10**8)
    lead, hi = np.divmod(hi, 10**8)
    # per value 7 words: NUL, sign, lead digit, "." | 4 x 4 digits | "e+dd" |
    # separator; the NULs are dropped at the end
    words = np.empty((x.size, 7), np.uint32)
    b = words.view(np.uint8)
    b[:, 0] = 0
    b[:, 1] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    b[:, 2] = lead + ord("0")
    b[:, 3] = ord(".")
    for col, group in enumerate((*np.divmod(hi, 10**4), *np.divmod(lo, 10**4)), 1):
        words[:, col] = _DIGIT_WORDS[group]
    words[:, 5] = _EXP_WORDS[e + 99]
    words[:, 6] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        words[slow, :6] = np.array([E16 % v for v in x[slow].tolist()],
                                   dtype="S24").view(np.uint32).reshape(-1, 6)
    b = b.reshape(rows, cols, 28)
    b[:, :, 24] = ord(",")
    b[:, -1, 24] = ord("\n")
    return str(b[b != 0].data, "ascii"), slow.size


def csv_rows(columns):
    """Yield the CSV text of the rows of ``columns`` (float arrays of one
    length), CSV_BLOCK_ROWS rows per string, every value exactly as
    ``E16 % v`` writes it."""
    for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        yield _e16_block(np.column_stack([c[i:i + CSV_BLOCK_ROWS] for c in columns]))[0]


def grid_or_replay(grid, node, times, ok=np.isfinite):
    """grid(times), one array call, if it returns values that all pass ok;
    else node at each time in turn, which raises the error of the first
    failing time with its type, message and t.  numpy's floating-point
    warnings are silenced in the array call: the replay reports a failure."""
    try:
        with np.errstate(all="ignore"):
            values = grid(times)
    except (SpinEqError, ArithmeticError, ValueError):
        pass
    else:
        if ok(values).all():
            return values
    return np.array([node(t) for t in times])


# right-hand-side calls one solve may make, so that a window the solver cannot
# cross (say [0, 1e300]) fails instead of spinning.  The unit constant field
# takes about 4.0e5 over [0, 1e4] at tol 1e-10, and 9.4e5 at tol 1e-13.
RHS_BUDGET = 10**6


def dop853(rhs, window, y0, tol, t_eval, what, dense_output=False, event=None):
    """Integrate y' = rhs(t, y) over window with DOP853 at
    rtol = atol = max(tol / 4, 2.3e-14), sampled at t_eval; with
    dense_output, the result's ``sol`` gives y at any time, and a terminal
    ``event`` stops the solve where it crosses zero (see _dop853.solve).

    The one solve policy of the package.  A SingularityError out of rhs, a
    failed solve, a solve past RHS_BUDGET right-hand-side calls and a solve
    that ends with non-finite states each raise IntegrationError naming
    ``what``; a failed solve names the last time rhs was called at, where
    the solver stopped.  numpy's floating-point warnings are silenced in the
    solve, since those failures report it.  The result also counts the
    solver's work: nfev, n_accepted, n_rejected and min_step.

    The stepper is the package's own transcription of scipy's DOP853, bit
    for bit the same; it is imported here, so that importing the package
    does not pay for it, and it needs no scipy.integrate, whose import
    costs more than a typical solve.
    """
    from . import _dop853

    budget = RHS_BUDGET
    rt = max(tol / 4.0, 2.3e-14)
    try:
        with np.errstate(all="ignore"):
            sol = _dop853.solve(rhs, window, y0, rt, rt, t_eval, dense_output, event,
                                max_nfev=budget)
    except SingularityError as exc:
        raise IntegrationError(f"field singular during {what}: {exc}", t=exc.t) from exc
    except _dop853.BudgetExceeded as exc:
        raise IntegrationError(f"{what} stopped at t = {exc.t} after {budget} "
                               "right-hand-side calls", t=exc.t) from None
    if not sol.success:
        raise IntegrationError(f"{what} failed near t = {sol.t_last}: {sol.message}",
                               t=sol.t_last)
    bad = ~np.isfinite(sol.y).all(axis=0)
    if bad.any():
        t_bad = sol.t[bad.argmax()]
        raise IntegrationError(f"{what} reached non-finite states at t = {t_bad}",
                               t=t_bad)
    return sol


def default_step(t, scale=1e-5):
    """Step size h = scale * max(1, |t|) for difference stencils, at one time
    or elementwise on an array of times.  One time keeps its own arithmetic:
    a Python float t gives a Python float h, so the nodes t +- h stay Python
    floats, and the closed forms evaluated there keep their bits."""
    if np.ndim(t):
        return scale * np.maximum(1.0, np.abs(t))
    return scale * max(1.0, abs(t))


def stencil_nodes(t, h):
    """Side nodes t-2h, t-h, t+h, t+2h of the 4th-order stencils, in central_difference's order."""
    return t - 2 * h, t - h, t + h, t + 2 * h


def central_difference(fm2, fm1, fp1, fp2, h):
    """The 4th-order central first difference (f(t-2h) - 8 f(t-h) + 8 f(t+h) - f(t+2h)) / 12h
    (Fornberg, Math. Comp. 51 (1988) 699), elementwise on samples of any shape."""
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def central_second_difference(fm2, fm1, f0, fp1, fp2, h):
    """The 4th-order central second difference
    (-f(t-2h) + 16 f(t-h) - 30 f(t) + 16 f(t+h) - f(t+2h)) / 12h^2,
    elementwise on samples of any shape."""
    return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)


def fd_derivative(values, h):
    """Differentiate samples on a uniform grid along axis 0.

    4th-order central stencil in the interior, 3rd-order one-sided at the
    two nodes on each end.
    """
    y = np.asarray(values)
    if y.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    d[2:-2] = central_difference(y[:-4], y[1:-3], y[3:-1], y[4:], h)
    d[0] = (-11 * y[0] + 18 * y[1] - 9 * y[2] + 2 * y[3]) / (6 * h)
    d[1] = (-2 * y[0] - 3 * y[1] + 6 * y[2] - y[3]) / (6 * h)
    d[-2] = (2 * y[-1] + 3 * y[-2] - 6 * y[-3] + y[-4]) / (6 * h)
    d[-1] = (11 * y[-1] - 18 * y[-2] + 9 * y[-3] - 2 * y[-4]) / (6 * h)
    return d


def fd_second_derivative(values, h):
    """Second derivative of samples on a uniform grid along axis 0.

    4th-order central stencil; the two nodes at each end reuse their
    neighbours' values (consumers should discard the edges).
    """
    y = np.asarray(values)
    if y.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    d[2:-2] = central_second_difference(y[:-4], y[1:-3], y[2:-2], y[3:-1], y[4:], h)
    d[0] = d[1] = d[2]
    d[-1] = d[-2] = d[-3]
    return d


def fd_derivative_callable(f, t, h=None):
    """4th-order central difference of a scalar- or array-valued callable at t."""
    if h is None:
        h = default_step(t)
    return central_difference(*(np.asarray(f(s)) for s in stencil_nodes(t, h)), h)


def fd_second_derivative_callable(f, t, h=None):
    """4th-order central second difference of a callable at one point."""
    if h is None:
        h = default_step(t)
    m2, m1, p1, p2 = stencil_nodes(t, h)
    return central_second_difference(*(np.asarray(f(s)) for s in (m2, m1, t, p1, p2)), h)


def cumulative_integral(y, x):
    """Cumulative integral of samples, zero at the first node.

    Simpson-based; falls back to the trapezoid rule for very short inputs.
    """
    y = np.asarray(y)
    x = np.asarray(x)
    if len(x) < 3:
        out = np.zeros_like(y)
        if len(x) == 2:
            out[1] = 0.5 * (y[0] + y[1]) * (x[1] - x[0])
        return out
    from scipy.integrate import cumulative_simpson

    if np.iscomplexobj(y):
        re = cumulative_simpson(y.real, x=x, initial=0.0)
        im = cumulative_simpson(y.imag, x=x, initial=0.0)
        return re + 1j * im
    return cumulative_simpson(y, x=x, initial=0.0)
