"""Structure-preserving Darboux transformation for fields (eps, 0, F3(t)).

The intertwiner L = d/dt + A with A = alpha + i (F3 - beta) sigma_3 maps
solutions for the field (eps, 0, F3) to solutions for (eps, 0, 2 beta - F3)
whenever (alpha, beta) solve

    alpha' = 2 beta (F3 - beta),   beta' = -2 alpha (F3 - beta),

which conserves alpha^2 + beta^2.  On solutions the map takes the purely
algebraic form V' = [alpha - i (eps sigma_1 + beta sigma_3)] V.  The pair
(alpha, beta) can be produced three ways: the closed form for constant F3,
integration of the phase equation mu' = 2 (R sin mu - F3), or algebraically
from a seed solution at eps_0 through its null L-vector.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

import numpy as np

from ._numbers import record
from .errors import AccuracyError, DomainError, SingularityError
from .dynamics import Trajectory, se_residuals, _check_uniform, _output_nodes
from .numutil import (default_step, dop853, fd_derivative_callable, finite_window, real_number,
                      solve_window, stencil_slices)
from .spinors import ID2, SIGMA1, SIGMA2, SIGMA3, anticonjugate_arr, l_vector_arr

__all__ = ["DarbouxParams", "darboux_params_constant_f", "darboux_params_mu_route",
           "darboux_field", "darboux_apply", "darboux_from_seed", "intertwine_residual",
           "pair_equation_residual", "constant_f_solution", "constant_f_trajectory",
           "constant_f_seed_trajectory"]

INPUT_RESIDUAL = 1e-5  # darboux_apply's largest SE residual of its input trajectory
L3_REL_FLOOR = 1e-8  # darboux_from_seed's zero of L3: |L3| at most this times its largest


@record
class DarbouxParams:
    """The pair (alpha, beta) = pair(t), two complex numbers, with its
    conserved constant R: alpha^2 + beta^2 = R^2; for seed-built pairs
    R^2 = -eps0^2.  mu is the optional phase parameterization (alpha, beta)
    = (R cos mu, R sin mu).  window is set for a pair that answers only
    within it (the mu route and the seed route): a time outside raises
    DomainError.  crossings are the zeros of L3 a seed pair avoids.
    """

    pair: Callable[[float], tuple[complex, complex]]
    R: complex
    mu: Optional[Callable[[float], float]] = None
    window: Optional[tuple[float, float]] = None
    crossings: tuple[float, ...] = ()

    def alpha(self, t: float) -> complex:
        return self.pair(t)[0]

    def beta(self, t: float) -> complex:
        return self.pair(t)[1]


def _finite(**values) -> list[complex]:
    """The values as complex numbers, once each is checked finite:
    DomainError names the first that is not."""
    for name, v in values.items():
        if not cmath.isfinite(v):
            raise DomainError(f"{name} = {v} is not finite")
    return [complex(v) for v in values.values()]


def _check_in_window(t, window, route):
    """DomainError unless window[0] <= t <= window[1] in either order."""
    if not min(window) <= t <= max(window):
        raise DomainError(f"t = {t} is outside the window [{window[0]}, {window[1]}] "
                          f"of the {route} route")


def darboux_params_constant_f(f: complex, R: complex, phi0: complex) -> DarbouxParams:
    """Closed-form pair for constant F3 = f:

    alpha = -Q' / (2 (Q - f)),  beta = f + (f^2 - R^2)/(Q - f),
    Q = R cosh(2 (w0 t + phi0)),  w0^2 = R^2 - f^2.

    In the oscillatory regime (f, R real with R^2 < f^2) a real phi0 is
    substituted by i phi0, which turns Q into R cos(2(|w0| t + phi0)) and
    keeps the generated pair and partner field real.  f, R, phi0 and w0
    must be finite (DomainError), and so must t; the pair raises
    SingularityError at a pole of Q - f, AccuracyError past the double range.
    """
    f, R, phi0 = _finite(f=f, R=R, phi0=phi0)
    [w0] = _finite(w0=cmath.sqrt(R * R - f * f))
    if (f.imag == 0.0 and R.imag == 0.0 and phi0.imag == 0.0
            and R.real ** 2 < f.real ** 2):
        phi0 = 1j * phi0

    def pair(t):
        _finite(t=t)
        try:
            phase = 2 * (w0 * t + phi0)
            d = R * cmath.cosh(phase) - f  # Q - f
            if abs(d) < 1e-12 * max(1.0, abs(R)):
                raise SingularityError(f"Q - f vanishes at t = {t}", t=t)
            a, b = -(2 * w0 * R * cmath.sinh(phase)) / (2 * d), f + (f * f - R * R) / d
            if cmath.isfinite(a) and cmath.isfinite(b):
                return a, b
        except (OverflowError, ValueError):  # cmath past the double range
            pass
        raise AccuracyError(f"the constant-F3 pair leaves the double range at t = {t}")

    return DarbouxParams(pair, R)


def darboux_params_mu_route(F3_fn, R: complex, mu0: float, window,
                            tol: float = 1e-10) -> DarbouxParams:
    """Pair via the phase equation mu' = 2 (R sin mu - F3), with
    (alpha, beta) = (R cos mu, R sin mu), from the dense output of one
    solve over the window, which must have nonzero length.  R and mu0 must
    be finite and real, and so must the values of F3: one that is not
    raises DomainError naming it.  mu and the pair answer only within the
    window, either end included: a time outside it raises DomainError,
    where the end step's polynomial would be extrapolated."""
    r, mu0 = real_number("R", R), real_number("mu0", mu0)
    window = solve_window(window, tol)
    R = complex(R)

    def rhs(t, y):
        # past the double range a NaN slope, which the stepper rejects
        s = math.sin(y[0]) if math.isfinite(y[0]) else math.nan
        return [2.0 * (r * s - real_number("F3(t)", F3_fn(t), t))]

    # no output nodes: the pair reads only the dense output
    dense = dop853(rhs, window, [mu0], tol, (), "mu integration", dense_output=True).sol

    def mu(t):
        _check_in_window(t, window, "mu")
        return float(dense(t)[0])

    def pair(t):
        m = mu(t)
        return R * math.cos(m), R * math.sin(m)

    return DarbouxParams(pair, R, mu=mu, window=window)


def darboux_field(F3_fn, params: DarbouxParams, t: float) -> complex:
    """Partner field component F3' = 2 beta - F3."""
    return 2.0 * params.beta(t) - complex(F3_fn(t))


def pair_equation_residual(F3_fn, params: DarbouxParams, t: float) -> float:
    """Max residual of alpha' = 2 beta (F3 - beta), beta' = -2 alpha (F3 - beta)
    at t, with derivatives by central differences (numutil.default_step).
    The stencil reaches t +- 2h: for a pair with a window (mu route, seed
    route), t within 2h of an end of it raises DomainError."""
    ad, bd = fd_derivative_callable(lambda s: np.array(params.pair(s)), t).tolist()
    a, b = params.pair(t)
    gap = complex(F3_fn(t)) - b
    return max(abs(ad - 2.0 * b * gap), abs(bd + 2.0 * a * gap))


def darboux_apply(V_traj: Trajectory, eps: complex, params: DarbouxParams) -> Trajectory:
    """Apply V' = [alpha - i (eps sigma_1 + beta sigma_3)] V along a trajectory.

    The input must solve the SE with field (eps, 0, F3) where F3 is the
    trajectory's third field sample; that precondition is checked, the
    largest se_residuals of its interior nodes' stencils (at least 5 nodes)
    at most INPUT_RESIDUAL, and a finite eps (DomainError).  The returned
    trajectory carries the partner field (eps, 0, 2 beta - F3), or
    AccuracyError past the double range.
    """
    [eps] = _finite(eps=eps)
    times, h = _check_uniform(V_traj.times)
    states = V_traj.states
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN fails the tests below
        worst = float(np.max(se_residuals(np.stack(stencil_slices(states), axis=1),
                                          V_traj.field_samples[2:-2], h)))
        if not worst <= INPUT_RESIDUAL:
            raise DomainError(
                f"input trajectory does not solve its spin equation "
                f"(residual {worst:.3e} > {INPUT_RESIDUAL:.0e})")
        # 2 beta in Python's arithmetic, as darboux_field takes it: from 3.14 its
        # real * complex, part by part, keeps signed zeros that numpy's does not
        a, b, b2 = np.array([(*p, 2.0 * p[1]) for p in map(params.pair, times)],
                            dtype=complex).T
        # stacked 2x2 products give the bits of A @ V node by node
        A = a[:, None, None] * ID2 - 1j * (eps * SIGMA1 + b[:, None, None] * SIGMA3)
        out_states = np.matmul(A, states[:, :, None])[:, :, 0]
        out_fields = np.stack([np.full_like(b2, eps), np.zeros_like(b2),
                               b2 - V_traj.field_samples[:, 2]], axis=1)
    if not (np.isfinite(out_states).all() and np.isfinite(out_fields).all()):
        raise AccuracyError("the mapped trajectory leaves the double range")
    return Trajectory(times, out_states, out_fields, V_traj.est_error)


def darboux_from_seed(V_seed: Trajectory, eps0: complex) -> DarbouxParams:
    """Build (alpha, beta) from a seed solution at eps0 via its L-vector:

    L = (Vbar, sigma V),  alpha = -eps0 L2/L3,  beta = -eps0 L1/L3,

    giving alpha^2 + beta^2 = -eps0^2, interpolated linearly between the
    seed's nodes.  Zeros of L3 (nodes where |L3| is at most L3_REL_FLOOR
    times its largest value) truncate the window to the largest clean
    subinterval; the crossing locations are recorded.  No usable subwindow
    (a row past the double range is not usable) and an eps0 that is not
    finite raise DomainError, a pair past the double range AccuracyError.
    The pair answers only within the window, either end included: a time
    outside it raises DomainError, where the interpolation would hold the
    end value.
    """
    times, _ = _check_uniform(V_seed.times)
    [eps0] = _finite(eps0=eps0)
    states = V_seed.states
    with np.errstate(over="ignore", invalid="ignore"):
        L = l_vector_arr(anticonjugate_arr(states), states)
        size = np.abs(L[:, 2])
    scale = float(np.max(size))
    if scale == 0.0:
        raise DomainError("L3 vanishes identically along the seed")
    good = size > L3_REL_FLOOR * scale
    crossings = tuple(float(t) for t in times[~good])
    # runs of usable nodes [start, stop), from the edges of the padded mask;
    # argmax keeps the first of the longest
    edges = np.flatnonzero(np.diff(np.concatenate(([0], good, [0]))))
    starts, stops = edges[::2], edges[1::2]
    if not starts.size:
        raise DomainError("L3 vanishes everywhere on the seed window")
    longest = np.argmax(stops - starts)
    start, stop = int(starts[longest]), int(stops[longest])
    if crossings and stop - start < 5:
        raise DomainError("no usable subwindow between L3 zero-crossings")
    sl = slice(start, stop)
    sub_t = times[sl]
    window = float(sub_t[0]), float(sub_t[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_s = -eps0 * L[sl, 1] / L[sl, 2]
        beta_s = -eps0 * L[sl, 0] / L[sl, 2]
    if not (np.isfinite(alpha_s).all() and np.isfinite(beta_s).all()):
        raise AccuracyError(f"the seed pair at eps0 = {eps0} leaves the double range")

    def pair(t):
        _check_in_window(t, window, "seed")
        return (complex(np.interp(t, sub_t, alpha_s.real), np.interp(t, sub_t, alpha_s.imag)),
                complex(np.interp(t, sub_t, beta_s.real), np.interp(t, sub_t, beta_s.imag)))

    return DarbouxParams(pair, cmath.sqrt(-eps0 * eps0), window=window, crossings=crossings)


def intertwine_residual(F3_fn, F3p_fn, params: DarbouxParams, t: float) -> float:
    """Max matrix-norm residual of the two intertwining relations

    sigma1 A - A sigma1 + sigma2 (F3' - F3) = 0
    sigma1 A' + sigma2 A F3' - sigma2 F3'(dot) - A sigma2 F3 = 0

    with A = alpha + i (F3 - beta) sigma3 and time derivatives by central
    differences, step numutil.default_step(t, 1e-6).  The stencil reaches
    t +- 2h: for a pair with a window (mu route, seed route), t within 2h
    of an end of it raises DomainError.
    """
    def A_of(s):
        a, b = params.pair(s)
        return a * np.eye(2, dtype=complex) + 1j * (complex(F3_fn(s)) - b) * SIGMA3

    A = A_of(t)
    f3 = complex(F3_fn(t))
    f3p = complex(F3p_fn(t))
    r1 = SIGMA1 @ A - A @ SIGMA1 + SIGMA2 * (f3p - f3)
    h = default_step(t, 1e-6)
    Adot = fd_derivative_callable(A_of, t, h)
    f3dot = complex(fd_derivative_callable(lambda s: complex(F3_fn(s)), t, h))
    r2 = SIGMA1 @ Adot + SIGMA2 @ A * f3p - SIGMA2 * f3dot - A @ SIGMA2 * f3
    return float(max(np.linalg.norm(r1), np.linalg.norm(r2)))


def constant_f_solution(f: complex, eps: complex, p: complex, q: complex):
    """General solution for the constant field (eps, 0, f):

    v1 = i (f - w) p e^{iwt} - eps q e^{-iwt}
    v2 = i eps p e^{iwt} + (f - w) q e^{-iwt},     w^2 = f^2 + eps^2.

    f, eps, p, q, w and t must be finite (DomainError), and the solution
    within the double range (AccuracyError).
    """
    f, eps, _, _ = _finite(f=f, eps=eps, p=p, q=q)  # p, q as given: 3.14's real * complex
    [w] = _finite(w=cmath.sqrt(f * f + eps * eps))

    def sol(t):
        _finite(t=t)
        try:
            ep = cmath.exp(1j * w * t)
            em = cmath.exp(-1j * w * t)
            v1 = 1j * (f - w) * p * ep - eps * q * em
            v2 = 1j * eps * p * ep + (f - w) * q * em
            if cmath.isfinite(v1) and cmath.isfinite(v2):
                return np.array([v1, v2])
        except (OverflowError, ValueError):  # cmath past the double range
            pass
        raise AccuracyError(f"the constant-field solution leaves the double range at t = {t}")

    return sol


def constant_f_trajectory(f: complex, eps: complex, p: complex, q: complex,
                          window, n_nodes: int = 801) -> Trajectory:
    """constant_f_solution(f, eps, p, q) on n_nodes uniform nodes of the
    finite window, at least 2 as for a solve, with its field rows (eps, 0, f)."""
    sol = constant_f_solution(f, eps, p, q)
    times = _output_nodes(finite_window(window), n_nodes)
    states = np.array([sol(t) for t in times])
    fields = np.array([(eps, 0.0, complex(f)) for _ in times])
    return Trajectory(times, states, fields, est_error=0.0)


def constant_f_seed_trajectory(f: complex, R: complex, phi0: complex,
                               window, n_nodes: int = 801) -> Trajectory:
    """Seed solution at eps0 = iR whose L-vector reproduces the closed-form
    constant-F3 pair with offset phi0 (amplitudes p = e^{-phi0}, q = e^{phi0})."""
    try:
        p, q = cmath.exp(-phi0), cmath.exp(phi0)
    except (OverflowError, ValueError):
        raise DomainError(f"e^phi0 at phi0 = {phi0} is past the double range") from None
    return constant_f_trajectory(f, 1j * complex(R), p, q, window, n_nodes)
