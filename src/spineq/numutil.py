"""Stencils, quadrature, the grid-or-replay rule and the one DOP853 driver
used across the package."""

import numpy as np

from .errors import IntegrationError, SingularityError, SpinEqError

__all__ = [
    "dop853",
    "RHS_BUDGET",
    "grid_or_replay",
    "fd_derivative",
    "fd_derivative_callable",
    "fd_second_derivative_callable",
    "cumulative_integral",
    "default_step",
]


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


def dop853(rhs, window, y0, tol, t_eval, what, **solve_ivp_kwargs):
    """Integrate y' = rhs(t, y) over window with scipy's DOP853 at
    rtol = atol = max(tol / 4, 2.3e-14), sampled at t_eval.

    The one solve policy of the package.  A SingularityError out of rhs, a
    failed solve and a solve past RHS_BUDGET right-hand-side calls each raise
    IntegrationError naming ``what``.  scipy.integrate is imported here, so
    that importing the package does not pay for it.
    """
    from scipy.integrate import solve_ivp

    budget = RHS_BUDGET
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise IntegrationError(f"{what} stopped at t = {t} after {budget} "
                                   "right-hand-side calls", t=t)
        return rhs(t, y)

    rt = max(tol / 4.0, 2.3e-14)
    try:
        sol = solve_ivp(counted, window, y0, method="DOP853", rtol=rt, atol=rt,
                        t_eval=t_eval, **solve_ivp_kwargs)
    except SingularityError as exc:
        raise IntegrationError(f"field singular during {what}: {exc}", t=exc.t) from exc
    if not sol.success:
        t_reached = sol.t[-1] if len(sol.t) else window[0]
        raise IntegrationError(f"{what} failed near t = {t_reached}: {sol.message}",
                               t=t_reached)
    return sol


def default_step(t, scale=1e-5):
    """Step size h = scale * max(1, |t|) for difference stencils."""
    return scale * max(1.0, abs(t))


def fd_derivative(values, h):
    """Differentiate samples on a uniform grid along axis 0.

    4th-order central stencil in the interior, 3rd-order one-sided at the
    two nodes on each end.
    """
    y = np.asarray(values)
    if y.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
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
    d[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h * h)
    d[0] = d[1] = d[2]
    d[-1] = d[-2] = d[-3]
    return d


def fd_derivative_callable(f, t, h=None):
    """4th-order central difference of a callable at one point.

    Works for scalar or array-valued f.
    """
    if h is None:
        h = default_step(t)
    fm2, fm1 = f(t - 2 * h), f(t - h)
    fp1, fp2 = f(t + h), f(t + 2 * h)
    return (np.asarray(fm2) - 8 * np.asarray(fm1) + 8 * np.asarray(fp1) - np.asarray(fp2)) / (12 * h)


def fd_second_derivative_callable(f, t, h=None):
    """4th-order central second difference of a callable at one point."""
    if h is None:
        h = default_step(t)
    fm2, fm1 = np.asarray(f(t - 2 * h)), np.asarray(f(t - h))
    f0 = np.asarray(f(t))
    fp1, fp2 = np.asarray(f(t + h)), np.asarray(f(t + 2 * h))
    return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)


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
