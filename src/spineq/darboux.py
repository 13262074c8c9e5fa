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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IntegrationError, SingularityError
from .dynamics import Trajectory, trajectory_se_residuals, _check_uniform
from .numutil import fd_derivative_callable
from .spinors import SIGMA1, SIGMA2, SIGMA3, l_vector_arr, anticonjugate_arr

__all__ = [
    "DarbouxParams",
    "darboux_params_constant_f",
    "darboux_params_mu_route",
    "darboux_field",
    "darboux_apply",
    "darboux_from_seed",
    "intertwine_residual",
    "pair_equation_residual",
    "constant_f_solution",
    "constant_f_seed_trajectory",
]


@dataclass(frozen=True)
class DarbouxParams:
    """The pair (alpha(t), beta(t)) with its conserved constant R.

    R satisfies alpha^2 + beta^2 = R^2; for seed-built pairs R^2 = -eps0^2.
    mu is the optional phase parameterization (alpha, beta) =
    (R cos mu, R sin mu).  window/crossings are set when the pair was
    built from samples and had to avoid zeros of L3.
    """

    alpha: Callable[[float], complex]
    beta: Callable[[float], complex]
    R: complex
    mu: Optional[Callable[[float], float]] = None
    window: Optional[tuple[float, float]] = None
    crossings: tuple[float, ...] = ()

    def pair(self, t: float) -> tuple[complex, complex]:
        return complex(self.alpha(t)), complex(self.beta(t))


def darboux_params_constant_f(f: complex, R: complex, phi0: complex) -> DarbouxParams:
    """Closed-form pair for constant F3 = f:

    alpha = -Q' / (2 (Q - f)),  beta = f + (f^2 - R^2)/(Q - f),
    Q = R cosh(2 (w0 t + phi0)),  w0^2 = R^2 - f^2.

    In the oscillatory regime (f, R real with R^2 < f^2) a real phi0 is
    substituted by i phi0, which turns Q into R cos(2(|w0| t + phi0)) and
    keeps the generated pair and partner field real.  Poles of Q - f
    raise SingularityError.
    """
    f = complex(f)
    R = complex(R)
    phi0 = complex(phi0)
    w0 = cmath.sqrt(R * R - f * f)
    if (f.imag == 0.0 and R.imag == 0.0 and phi0.imag == 0.0
            and R.real ** 2 < f.real ** 2):
        phi0 = 1j * phi0

    def Q(t):
        return R * cmath.cosh(2 * (w0 * t + phi0))

    def Qdot(t):
        return 2 * w0 * R * cmath.sinh(2 * (w0 * t + phi0))

    def denom(t):
        d = Q(t) - f
        if abs(d) < 1e-12 * max(1.0, abs(R)):
            raise SingularityError(f"Q - f vanishes at t = {t}", t=t)
        return d

    def alpha(t):
        return -Qdot(t) / (2 * denom(t))

    def beta(t):
        return f + (f * f - R * R) / denom(t)

    return DarbouxParams(alpha, beta, R)


def darboux_params_mu_route(F3_fn, R: complex, mu0: float, window,
                            tol: float = 1e-10, n_nodes: int = 801) -> DarbouxParams:
    """Pair via the phase equation mu' = 2 (R sin mu - F3), with
    (alpha, beta) = (R cos mu, R sin mu).  Real R, F3 and mu assumed."""
    from scipy.integrate import solve_ivp

    t0, t1 = float(window[0]), float(window[1])
    R = complex(R)

    def rhs(t, y):
        return [2.0 * (R.real * math.sin(y[0]) - float(F3_fn(t)))]

    rt = max(tol / 4.0, 2.3e-14)
    t_eval = np.linspace(t0, t1, n_nodes)
    sol = solve_ivp(rhs, (t0, t1), [mu0], method="DOP853", rtol=rt, atol=rt,
                    t_eval=t_eval, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"mu integration failed: {sol.message}")
    dense = sol.sol

    def mu(t):
        return float(dense(t)[0])

    return DarbouxParams(
        alpha=lambda t: R * math.cos(mu(t)),
        beta=lambda t: R * math.sin(mu(t)),
        R=R, mu=mu, window=(t0, t1),
    )


def darboux_field(F3_fn, params: DarbouxParams, t: float) -> complex:
    """Partner field component F3' = 2 beta - F3."""
    return 2.0 * complex(params.beta(t)) - complex(F3_fn(t))


def pair_equation_residual(F3_fn, params: DarbouxParams, t: float,
                           h: float | None = None) -> float:
    """Max residual of alpha' = 2 beta (F3 - beta), beta' = -2 alpha (F3 - beta)
    at t, with derivatives by central differences."""
    ad = complex(fd_derivative_callable(lambda s: complex(params.alpha(s)), t, h))
    bd = complex(fd_derivative_callable(lambda s: complex(params.beta(s)), t, h))
    a, b = params.pair(t)
    gap = complex(F3_fn(t)) - b
    return max(abs(ad - 2.0 * b * gap), abs(bd + 2.0 * a * gap))


def darboux_apply(V_traj: Trajectory, eps: complex, params: DarbouxParams,
                  check_residual: float | None = 1e-5) -> Trajectory:
    """Apply V' = [alpha - i (eps sigma_1 + beta sigma_3)] V along a trajectory.

    The input must solve the SE with field (eps, 0, F3) where F3 is the
    trajectory's third field sample; that precondition is residual-checked
    unless check_residual is None.  The returned trajectory carries the
    partner field (eps, 0, 2 beta - F3).
    """
    times, _ = _check_uniform(V_traj.times)
    if check_residual is not None:
        res = trajectory_se_residuals(V_traj)
        worst = float(np.max(res[2:-2])) if len(res) > 4 else float(np.max(res))
        if worst > check_residual:
            raise DomainError(
                f"input trajectory does not solve its spin equation "
                f"(residual {worst:.3e} > {check_residual:.0e})")
    eps = complex(eps)
    out_states = np.empty_like(V_traj.states)
    out_fields = np.empty_like(V_traj.field_samples)
    for i, t in enumerate(times):
        a, b = params.pair(t)
        A = a * np.eye(2, dtype=complex) - 1j * (eps * SIGMA1 + b * SIGMA3)
        out_states[i] = A @ V_traj.states[i]
        f3 = V_traj.field_samples[i, 2]
        out_fields[i] = (eps, 0.0, 2.0 * b - f3)
    return Trajectory(times, out_states, out_fields, V_traj.est_error)


def darboux_from_seed(V_seed: Trajectory, eps0: complex,
                      l3_rel_floor: float = 1e-8) -> DarbouxParams:
    """Build (alpha, beta) from a seed solution at eps0 via its L-vector:

    L = (Vbar, sigma V),  alpha = -eps0 L2/L3,  beta = -eps0 L1/L3,

    giving alpha^2 + beta^2 = -eps0^2.  Zeros of L3 truncate the window to
    the largest clean subinterval; the crossing locations are recorded.
    If no usable subwindow remains a DomainError is raised.
    """
    times, _ = _check_uniform(V_seed.times)
    states = V_seed.states
    L = l_vector_arr(anticonjugate_arr(states), states)
    l3 = L[:, 2]
    scale = float(np.max(np.abs(l3)))
    if scale == 0.0:
        raise DomainError("L3 vanishes identically along the seed")
    good = np.abs(l3) > l3_rel_floor * scale
    crossings = []
    if not np.all(good):
        # largest contiguous run of usable nodes
        runs = []
        start = None
        for i, ok in enumerate(good):
            if ok and start is None:
                start = i
            elif not ok:
                if start is not None:
                    runs.append((start, i - 1))
                    start = None
                crossings.append(float(times[i]))
        if start is not None:
            runs.append((start, len(good) - 1))
        if not runs:
            raise DomainError("L3 vanishes everywhere on the seed window")
        start, stop = max(runs, key=lambda r: r[1] - r[0])
        if stop - start < 4:
            raise DomainError("no usable subwindow between L3 zero-crossings")
        sl = slice(start, stop + 1)
    else:
        sl = slice(None)
    eps0 = complex(eps0)
    sub_t = times[sl]
    alpha_s = -eps0 * L[sl, 1] / l3[sl]
    beta_s = -eps0 * L[sl, 0] / l3[sl]

    def interp(samples):
        def fn(t):
            re = np.interp(t, sub_t, samples.real)
            im = np.interp(t, sub_t, samples.imag)
            return complex(re, im)
        return fn

    return DarbouxParams(
        alpha=interp(alpha_s), beta=interp(beta_s),
        R=cmath.sqrt(-eps0 * eps0), mu=None,
        window=(float(sub_t[0]), float(sub_t[-1])),
        crossings=tuple(crossings),
    )


def intertwine_residual(F3_fn, F3p_fn, params: DarbouxParams, t: float,
                        h: float | None = None) -> float:
    """Max matrix-norm residual of the two intertwining relations

    sigma1 A - A sigma1 + sigma2 (F3' - F3) = 0
    sigma1 A' + sigma2 A F3' - sigma2 F3'(dot) - A sigma2 F3 = 0

    with A = alpha + i (F3 - beta) sigma3 and time derivatives by central
    differences.
    """
    def A_of(s):
        a, b = params.pair(s)
        return a * np.eye(2, dtype=complex) + 1j * (complex(F3_fn(s)) - b) * SIGMA3

    A = A_of(t)
    f3 = complex(F3_fn(t))
    f3p = complex(F3p_fn(t))
    r1 = SIGMA1 @ A - A @ SIGMA1 + SIGMA2 * (f3p - f3)
    if h is None:
        h = 1e-6 * max(1.0, abs(t))
    Adot = (A_of(t - 2 * h) - 8 * A_of(t - h) + 8 * A_of(t + h) - A_of(t + 2 * h)) / (12 * h)
    f3dot = complex(fd_derivative_callable(lambda s: complex(F3_fn(s)), t, h))
    r2 = SIGMA1 @ Adot + SIGMA2 @ A * f3p - SIGMA2 * f3dot - A @ SIGMA2 * f3
    return float(max(np.linalg.norm(r1), np.linalg.norm(r2)))


def constant_f_solution(f: complex, eps: complex, p: complex, q: complex):
    """General solution for the constant field (eps, 0, f):

    v1 = i (f - w) p e^{iwt} - eps q e^{-iwt}
    v2 = i eps p e^{iwt} + (f - w) q e^{-iwt},     w^2 = f^2 + eps^2.
    """
    f = complex(f)
    eps = complex(eps)
    w = cmath.sqrt(f * f + eps * eps)

    def sol(t):
        ep = cmath.exp(1j * w * t)
        em = cmath.exp(-1j * w * t)
        return np.array([
            1j * (f - w) * p * ep - eps * q * em,
            1j * eps * p * ep + (f - w) * q * em,
        ])

    return sol


def constant_f_seed_trajectory(f: complex, R: complex, phi0: complex,
                               window, n_nodes: int = 801) -> Trajectory:
    """Seed solution at eps0 = iR whose L-vector reproduces the closed-form
    constant-F3 pair with offset phi0 (amplitudes p = e^{-phi0}, q = e^{phi0})."""
    eps0 = 1j * complex(R)
    sol = constant_f_solution(f, eps0, cmath.exp(-phi0), cmath.exp(phi0))
    times = np.linspace(float(window[0]), float(window[1]), n_nodes)
    states = np.array([sol(t) for t in times])
    fields = np.array([(eps0, 0.0, complex(f)) for _ in times])
    return Trajectory(times, states, fields, est_error=0.0)
