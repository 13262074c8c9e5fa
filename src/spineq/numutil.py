"""The central difference and its step, stencils, quadrature, the
grid-or-replay rule, the one DOP853 driver and the one float formatter."""

import cmath
import functools
import heapq
import math

import numpy as np

from ._numbers import E16, MIN_TOL
from .errors import DomainError, IntegrationError, SingularityError, SpinEqError

__all__ = [
    "E16",
    "E16_MARGIN",
    "CSV_BLOCK_ROWS",
    "csv_rows",
    "dop853",
    "finite_window",
    "solve_window",
    "RHS_BUDGET",
    "grid_or_replay",
    "central_difference",
    "central_second_difference",
    "stencil_nodes",
    "stencil_slices",
    "fd_derivative",
    "fd_derivative_callable",
    "real_number",
    "cumulative_integral",
    "gauss_kronrod",
    "default_step",
]

# rows formatted and written per block, so that the formatter's temporaries
# (about 115 bytes a value) stay near 0.4 MB for a 12-column table however
# long it is, each array under the 128 KB at which malloc turns to mmap
CSV_BLOCK_ROWS = 256

# a bound on the error of p + r in _e16_digits: 2**-49 each for the part of
# 10**k beyond ph + pl, for rounding |x| * pl and for rounding r
E16_MARGIN = 2.0**-47


@functools.cache
def _powers_of_ten():
    """Row e + 100, e = -100 .. 100: 10**(16 - e) = n / d as ph + pl, ph the
    double nearest it and pl the double nearest the rest (int / int rounds
    once), then Veltkamp's split hh + hl of ph (see _digits_at); built on
    the first call, so that the import does not pay for it."""
    ph, pl = np.array([(i / j, (n * j - i * d) / (d * j))
                       for n, d in [(10**max(k, 0), 10**max(-k, 0)) for k in range(116, -85, -1)]
                       for i, j in [(n / d).as_integer_ratio()]]).T
    c = ph * 134217729.0
    hh = c - (c - ph)
    return np.column_stack([ph, pl, hh, ph - hh])


# the ASCII digits of 0000 .. 9999 as one 4-byte word each, and the exponent
# field "e+dd" / "e-dd" of -99 .. 99 as one word at index e + 99
_DIGITS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                               indexing="ij"), axis=-1).reshape(10000, 4)
_DIGIT_WORDS = _DIGITS.view(np.uint32).ravel()
_EXP = np.arange(-99, 100)
_EXP_WORDS = np.column_stack([np.full(_EXP.size, ord("e")),
                              np.where(_EXP < 0, ord("-"), ord("+")),
                              _DIGITS[abs(_EXP), 2:]]).astype(np.uint8).view(np.uint32).ravel()


def _digits_at(a, e):
    """a * 10**(16 - e) as p + r (see _e16_digits): D = p + rint(r) and f = r - rint(r)."""
    ph, pl, hh, hl = _powers_of_ten().take(e + 100, axis=0, mode="clip").T
    c = a * 134217729.0
    ah = c - (c - a)  # Veltkamp's split, 2**27 + 1: 26 bits each
    al = a - ah
    p = a * ph
    # Dekker's TwoProduct: a * ph - p, exact; then a * pl
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * pl
    n = np.rint(r)
    return p.astype(np.int64) + n.astype(np.int64), r - n


def _e16_digits(x):
    """The fast path of _e16_block: per value of the float64 array x, whether
    it is accepted, its 17 digits as an integer D and its exponent E.

    With E = floor(log10 |x|), printf writes the 17 digits D = round(s*),
    s* = |x| * 10**(16 - E) exactly.  _digits_at forms s* as p + r in
    float64: 10**(16 - E) is held as ph + pl to within 2**-106 ph, p =
    fl(|x| ph) and r is the exact rest of |x| ph (Veltkamp's split and
    Dekker's TwoProduct, Numer. Math. 18 (1971) 224) plus fl(|x| pl).  For
    p < 2**57, as for every accepted D < 10**17, |x| pl < 16 and |r| < 24,
    so the rest of 10**(16 - E), the rounding of |x| pl and that of r each
    err by at most 2**-49: |s* - p - r| < E16_MARGIN.  p > 2**53 is an
    integer, and D = p + rint(r) is accepted only if f = r - rint(r) has
    |f| < 1/2 - E16_MARGIN: s* is then strictly within 1/2 of D, D is
    correctly rounded and s* no tie.  D is also accepted only below 10**17
    and for s* > 10**16 - 1/20, where printf, if it takes the exponent
    E - 1, rounds 10 s* up to 10**17 and writes "1.0000000000000000e" with
    E all the same.  E is taken again where log10 lands across a power of
    ten, as it does just below most of them; a carry to 10**17 is rejected.
    |E| <= 99 keeps the exponent at two digits; +-0.0 are accepted with
    D = E = 0.
    """
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a))
        finite = np.isfinite(e)          # not 0, inf or NaN
        e = np.where(finite, e, 0).astype(np.int64)
        d, f = _digits_at(a, e)
        below = d - 10**16 + f <= E16_MARGIN - 0.05
        move = finite & (below | (d >= 10**17))
        if move.any():
            e[move] += np.where(below[move], -1, 1)
            d[move], f[move] = _digits_at(a[move], e[move])
        fast = (finite & (np.abs(e) <= 99) & (d < 10**17)
                & (d - 10**16 + f > E16_MARGIN - 0.05)) | (a == 0)
        fast &= np.abs(f) < 0.5 - E16_MARGIN
    d[~fast] = e[~fast] = 0
    return fast, d, e


def _e16_block(table):
    """The CSV text of a 2-D float64 table, each value exactly as E16 % v
    writes it, and the number of values that took the exact fallback.

    The digits come from _e16_digits, in numpy; every value it rejects
    (NaN, +-inf, magnitudes outside [1e-99, 1e100), ties and near-ties) is
    written with E16 % v, the exact fallback.
    """
    rows, cols = table.shape
    x = table.ravel()
    fast, d, e = _e16_digits(x)
    # one uint64 division splits D < 10**17 into its lead digit and 8 digits,
    # and 8 digits; the rest is uint32, where division is faster
    d = d.view(np.uint64)
    hi = d // 10**8
    lo = (d - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    hi -= lead * 10**8
    # per value 25 bytes: sign or NUL | lead digit, "." | 4 words of 4 digits | "e+dd" |
    # NUL | separator; a fallback text fills up to 24 bytes; the NULs are dropped at the end
    b = np.empty((x.size, 25), np.uint8)
    b[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    b[:, 1] = lead + ord("0")
    b[:, 2] = ord(".")
    words = b[:, 3:23].view(np.uint32)
    for col, eight in ((0, hi), (2, lo)):
        four = eight // 10**4
        words[:, col] = _DIGIT_WORDS.take(four)
        words[:, col + 1] = _DIGIT_WORDS.take(eight - four * 10**4)
    words[:, 4] = _EXP_WORDS.take(e + 99)
    b[:, 23] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        b[slow, :24] = np.array([E16 % v for v in x[slow].tolist()],
                                dtype="S24").view(np.uint8).reshape(-1, 24)
    b = b.reshape(rows, cols, 25)
    b[:, :, 24] = ord(",")
    b[:, -1, 24] = ord("\n")
    return str(b.tobytes().translate(None, b"\0"), "ascii"), slow.size


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


def real_number(name, v, t=None):
    """v as a float if it is real (a complex v with imaginary part 0 too)
    and finite, else DomainError naming it, at the time t if given, where
    float() warns and drops a numpy complex's imaginary part or raises a
    bare TypeError, and a solve on a NaN crawls to RHS_BUDGET."""
    v = complex(v)
    at = "" if t is None else f" at t = {t}"
    if v.imag != 0:
        raise DomainError(f"{name} = {v} is not real" + at)
    if not math.isfinite(v.real):
        raise DomainError(f"{name} = {v.real} is not finite" + at)
    return v.real


def finite_window(window):
    """The window's ends as floats, once they and its length are checked
    finite: np.linspace over a longer window warns and returns NaN nodes."""
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"window [{t0}, {t1}] is not finite")
    if not math.isfinite(t1 - t0):
        raise DomainError(f"window [{t0}, {t1}] is longer than the double range")
    return t0, t1


def solve_window(window, tol):
    """The window's ends as floats (finite_window), once tol is checked
    finite and at least MIN_TOL and the ends checked distinct.

    Each solver calls it first, before it builds an array from the window:
    a solve over an infinite window, or at a NaN or infinite tol, would spin
    until RHS_BUDGET runs out, one below MIN_TOL asks for more than double
    precision gives, and the stepper takes no window of length zero."""
    t0, t1 = finite_window(window)
    if not math.isfinite(tol):
        raise DomainError(f"tol = {tol} is not finite")
    if t1 == t0:
        raise DomainError("window must satisfy t1 != t0")
    if tol < MIN_TOL:
        raise DomainError(f"tol = {tol} below the supported minimum {MIN_TOL}")
    return t0, t1


def dop853(rhs, window, y0, tol, t_eval, what, dense_output=False, event=None):
    """Integrate y' = rhs(t, y) over window, of nonzero length (see
    solve_window), with DOP853 at one tolerance, tol / 4 (scipy's rtol and
    atol), sampled at t_eval; with dense_output, the result's ``sol`` gives y at
    any time, and a terminal ``event`` stops the solve, with status 1, after
    the step across which it falls through zero (see _dop853.solve).

    The one solve policy of the package.  A SingularityError out of rhs, a
    failed solve, a solve past RHS_BUDGET right-hand-side calls and a solve
    that ends with non-finite states each raise IntegrationError naming
    ``what``; a failed solve names the last time rhs was called at, where
    the solver stopped.  numpy's floating-point warnings are silenced in the
    solve, since those failures report it.  The result also counts the
    solver's work: nfev, n_accepted, n_rejected and min_step.

    The stepper is the package's own transcription of scipy's DOP853, bit
    for bit the same; it is imported here, so that importing the package
    does not pay for it.
    """
    from . import _dop853

    budget = RHS_BUDGET
    try:
        with np.errstate(all="ignore"):
            sol = _dop853.solve(rhs, window, y0, tol / 4.0, t_eval, dense_output, event,
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


def stencil_slices(values):
    """The 4th-order stencils of the n - 4 interior nodes of samples on a
    uniform grid along axis 0, as views in stencil_nodes' order, then t."""
    y = np.asarray(values)
    if y.shape[0] < 5:
        raise DomainError(f"{y.shape[0]} samples: the 4th-order stencil needs at least 5")
    return y[:-4], y[1:-3], y[3:-1], y[4:], y[2:-2]


def fd_derivative(values, h):
    """Differentiate samples on a uniform grid along axis 0.

    4th-order central stencil in the interior, 3rd-order one-sided at the
    two nodes on each end.
    """
    *sides, _ = stencil_slices(values)
    y = np.asarray(values)
    d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    d[2:-2] = central_difference(*sides, h)
    d[0] = (-11 * y[0] + 18 * y[1] - 9 * y[2] + 2 * y[3]) / (6 * h)
    d[1] = (-2 * y[0] - 3 * y[1] + 6 * y[2] - y[3]) / (6 * h)
    d[-2] = (2 * y[-1] + 3 * y[-2] - 6 * y[-3] + y[-4]) / (6 * h)
    d[-1] = (11 * y[-1] - 18 * y[-2] + 9 * y[-3] - 2 * y[-4]) / (6 * h)
    return d


def fd_derivative_callable(f, t, h=None):
    """4th-order central difference of a scalar- or array-valued callable at t."""
    if h is None:
        h = default_step(t)
    return central_difference(*(np.asarray(f(s)) for s in stencil_nodes(t, h)), h)


def cumulative_integral(y, x):
    """Cumulative integral of samples y at the increasing nodes x, zero at the
    first node, one pass for each part of a complex y: bit for bit scipy
    1.17's cumulative_simpson(y, x=x, initial=0.0), which takes the Simpson
    integral of the first of each pair of intervals over the triple of nodes
    it begins, and of the second and the last over the triple it ends
    (Cartwright, J. Math. Sci. Math. Educ. 12 (2017) 1); below 3 nodes the
    trapezoid rule."""
    y, dx = np.asarray(y), np.diff(np.asarray(x, dtype=float))
    if np.iscomplexobj(y):
        return cumulative_integral(y.real, x) + 1j * cumulative_integral(y.imag, x)
    y = y.astype(float)

    def begun(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          + -x21x21_x31x32 * y[2:])

    if len(y) < 3:
        parts = dx * (y[1:] + y[:-1]) / 2.0
    else:
        parts, ended = np.empty(len(dx)), begun(y[::-1], dx[::-1])[::-1]
        parts[:-1:2], parts[1::2], parts[-1] = begun(y, dx)[::2], ended[::2], ended[-1]
    # the leading 0.0 gives scipy's sums plus its initial 0.0: no -0.0
    return np.cumsum(np.r_[0.0, parts])[:len(y)]  # no nodes, no sums


# QUADPACK's qk15 (Piessens, de Doncker-Kapenga, Uberhuber & Kahaner,
# Springer 1983) to double: the Kronrod nodes in (0, 1), their weights and
# the centre's, and the Gauss weights of _XK[1], _XK[3], _XK[5] and the centre
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
QUAD_INTERVALS = 400


def gauss_kronrod(f, a, b, tol):
    """The integral of the complex function f from a to b and its error
    estimate by QUADPACK's QAG: the subinterval of largest |K15 - G7| is
    halved until the estimates sum to at most tol * max(1, |integral|) or
    QUAD_INTERVALS subintervals are reached; the caller judges the estimate.
    An f that fails (ArithmeticError, ValueError) or is not finite at a node
    raises SingularityError there.  (dop853 on w' = f takes thousands of
    calls on an oscillatory f and crawls to RHS_BUDGET at a pole.)"""
    def node(s):
        try:
            v = complex(f(s))
            if cmath.isfinite(v):
                return v
        except (ArithmeticError, ValueError) as exc:
            v = exc
        raise SingularityError(f"integrand fails at s = {s}: {v}", t=s)

    def rule(lo, hi):  # K15 over [lo, hi] and |K15 - G7|
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fc = node(c)
        k, g = _WK[7] * fc, _WG[3] * fc
        for j, x in enumerate(_XK):
            pair = node(c - h * x) + node(c + h * x)
            k += _WK[j] * pair
            if j % 2:
                g += _WG[j // 2] * pair
        return h * k, abs(h * (k - g))

    val, err = rule(a, b)
    heap = [(-err, a, b, val)]
    while err > tol * max(1.0, abs(val)) and len(heap) < QUAD_INTERVALS:
        minus_e, lo, hi, part = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = rule(lo, mid), rule(mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        val, err = val + v1 + v2 - part, err + e1 + e2 + minus_e
    # the running sums drift; the result is summed afresh, as QAG does
    return sum(v for *_, v in heap), sum(-e for e, *_ in heap)
