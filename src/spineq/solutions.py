"""General solution from one particular solution, and field recovery from a
known spinor trajectory (the inverse problem)."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .dynamics import Trajectory, _check_uniform
from .numutil import cumulative_integral, fd_derivative
from .spinors import anticonjugate_arr, l_vector_arr

__all__ = [
    "general_solution",
    "invert_field",
    "invert_field_selfadjoint",
    "invert_field_angles",
    "field_square_from_angles",
    "gauge_from_field",
    "trajectory_angles",
]

NORM_TOL = 1e-8  # invert_field_selfadjoint's largest relative variation of (V,V)


def general_solution(V_traj: Trajectory, alpha0: complex, beta0: complex) -> Trajectory:
    """Second solution built from a particular one by quadrature.

    Y = [alpha0 + 2 beta0 Int (V,V)^-2 (L^{v,vbar} . G) dt] V
        + beta0 (V,V)^-1 Vbar

    The integral starts at the first trajectory node; G is the imaginary
    part of the trajectory's own field samples.
    """
    times, _ = _check_uniform(V_traj.times)
    states = V_traj.states
    n2 = V_traj.norms()
    if np.min(n2) <= 0.0:
        raise DomainError("general_solution requires (V,V) > 0 along the window")
    vbar = anticonjugate_arr(states)
    G = V_traj.field_samples.imag  # real damping part of F
    l_v_vb = l_vector_arr(states, vbar)
    integrand = np.sum(l_v_vb * G, axis=1) / n2 ** 2
    alpha = complex(alpha0) + 2.0 * complex(beta0) * cumulative_integral(integrand, times)
    beta = complex(beta0) / n2
    Y = alpha[:, None] * states + beta[:, None] * vbar
    return Trajectory(times, Y, V_traj.field_samples.copy(), V_traj.est_error)


def _states_and_derivative(V_traj: Trajectory):
    times, h = _check_uniform(V_traj.times)
    states = V_traj.states
    n2 = V_traj.norms()
    if np.min(n2) <= 0.0:
        raise DomainError("trajectory norm vanishes on the window")
    vdot = fd_derivative(states, h)
    return times, states, vdot, n2


def invert_field(V_traj: Trajectory, c=None) -> np.ndarray:
    """All fields admitting the trajectory as a solution.

    F = i / (2 (V,V)^2) [ 2 (V,V') L^{v,v} + (Vbar,V') L^{v,vbar} ]
        + c(t) L^{vbar,v}

    c is the free gauge function, either a callable of t or an array of
    node samples (default 0: the minimal field).  Returns samples of
    shape (n, 3).
    """
    times, states, vdot, n2 = _states_and_derivative(V_traj)
    vbar = anticonjugate_arr(states)
    inner_v_vd = np.sum(states.conj() * vdot, axis=1)
    inner_vb_vd = np.sum(vbar.conj() * vdot, axis=1)
    L_vv = l_vector_arr(states, states)
    L_v_vb = l_vector_arr(states, vbar)
    L_vb_v = l_vector_arr(vbar, states)
    F = (1j / (2.0 * n2 ** 2))[:, None] * (
        2.0 * inner_v_vd[:, None] * L_vv + inner_vb_vd[:, None] * L_v_vb
    )
    if c is not None:
        if callable(c):
            cv = np.array([complex(c(t)) for t in times])
        else:
            cv = np.asarray(c, dtype=complex)
            if cv.shape != times.shape:
                raise DomainError("gauge samples must match the trajectory grid")
        F = F + cv[:, None] * L_vb_v
    return F


def invert_field_selfadjoint(V_traj: Trajectory) -> np.ndarray:
    """Unique real field recovered from a trajectory whose (V,V) is
    constant to NORM_TOL of its largest value.

    F = i [2 (V,V)]^-1 (L^{v,v'} - L^{v',v})
    """
    times, states, vdot, n2 = _states_and_derivative(V_traj)
    scale = float(np.max(n2))
    if np.max(n2) - np.min(n2) > NORM_TOL * scale:
        raise DomainError(
            "self-adjoint recovery requires (V,V) constant along the trajectory "
            f"(relative variation {(np.max(n2) - np.min(n2)) / scale:.3e})"
        )
    L_v_vd = l_vector_arr(states, vdot)
    L_vd_v = l_vector_arr(vdot, states)
    return (1j / (2.0 * n2))[:, None] * (L_v_vd - L_vd_v)


def trajectory_angles(V_traj: Trajectory):
    """Unwrapped (N, alpha, theta, phi) along a trajectory.

    Phases are unwrapped per component so alpha and phi are smooth; theta
    keeps its [0, pi] branch.  Trajectories passing through a pole
    (v1 = 0 or v2 = 0) make alpha/phi ill-conditioned there.
    """
    states = V_traj.states
    N = np.sqrt(V_traj.norms())
    p1 = np.unwrap(np.angle(states[:, 0]))
    p2 = np.unwrap(np.angle(states[:, 1]))
    theta = 2.0 * np.arctan2(np.abs(states[:, 1]), np.abs(states[:, 0]))
    return N, p1 + p2, theta, p2 - p1


def invert_field_angles(V_traj: Trajectory) -> np.ndarray:
    """Real field via the spherical-angle route (constant-norm trajectories):

    F = 1/2 [ (phi' cos theta - alpha') n - phi' sin theta e_theta
              + theta' e_phi ]
    """
    times, h = _check_uniform(V_traj.times)
    _, alpha, theta, phi = trajectory_angles(V_traj)
    ad = fd_derivative(alpha, h)
    td = fd_derivative(theta, h)
    pd = fd_derivative(phi, h)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    n = np.stack([st * cp, st * sp, ct], axis=1)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    return 0.5 * ((pd * ct - ad)[:, None] * n
                  - (pd * st)[:, None] * e_theta
                  + td[:, None] * e_phi)


def field_square_from_angles(V_traj: Trajectory) -> np.ndarray:
    """F^2 = (theta'^2 + phi'^2 + alpha'^2 - 2 alpha' phi' cos theta) / 4."""
    times, h = _check_uniform(V_traj.times)
    _, alpha, theta, phi = trajectory_angles(V_traj)
    ad = fd_derivative(alpha, h)
    td = fd_derivative(theta, h)
    pd = fd_derivative(phi, h)
    return 0.25 * (td ** 2 + pd ** 2 + ad ** 2 - 2.0 * ad * pd * np.cos(theta))


def gauge_from_field(V_traj: Trajectory) -> np.ndarray:
    """Gauge function c(t) whose inverse-problem field reproduces the
    trajectory's field samples F: the L^{vbar,v} coefficient of F,
    c = (F . L^{v,vbar}) / (2 (V,V)^2)."""
    states = V_traj.states
    n2 = V_traj.norms()
    F = V_traj.field_samples
    vbar = anticonjugate_arr(states)
    L_v_vb = l_vector_arr(states, vbar)
    return np.sum(F * L_v_vb, axis=1) / (2.0 * n2 ** 2)
