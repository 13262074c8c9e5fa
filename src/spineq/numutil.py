"""Finite-difference stencils and quadrature helpers used across the package."""

import numpy as np

__all__ = [
    "fd_derivative",
    "fd_derivative_callable",
    "fd_second_derivative_callable",
    "cumulative_integral",
    "default_step",
]


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
