"""Propagation and evolution-operator machinery for i dV/dt = (sigma.F) V.

propagate() is the package's independent numerical oracle: an adaptive
high-order explicit Runge-Kutta integration (DOP853 with its embedded error
estimate, the package's own transcription of scipy's, bit for bit) used
everywhere a closed form needs residual verification.  Every solve here
runs through numutil.dop853, and every field solve starts with
_sampled_field; the event of hamiltonian_check is rooted by the package's
transcription of scipy's brentq.  scipy is imported only by
evolution_constant_direction (scipy.integrate.quad).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._numbers import MIN_TOL
from .errors import AccuracyError, DomainError
from .fields import FieldSpec, bind_field, field_callable
from .numutil import csv_rows, dop853, fd_derivative, fd_derivative_callable
from .spinors import CVec3, Spinor, eigenpairs, l_vector_arr, sigma_dot

__all__ = [
    "Trajectory",
    "Mat2",
    "BlochState",
    "BlochPath",
    "HamiltonianReport",
    "propagate",
    "constant_field_propagator",
    "stationary_solutions",
    "field_from_q",
    "evolution_from_q",
    "evolution_constant_direction",
    "bloch_propagate",
    "hamiltonian_check",
    "se_residual",
    "se_residuals",
    "CSV_HEADER",
]

Mat2 = np.ndarray  # 2x2 complex matrices are plain numpy arrays

CSV_HEADER = "t,re_v1,im_v1,re_v2,im_v2,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3,norm"


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, spinor states, field samples, error bound."""

    times: np.ndarray        # (n,) float, strictly increasing
    states: np.ndarray       # (n, 2) complex
    field_samples: np.ndarray  # (n, 3) complex
    est_error: float

    def norms(self) -> np.ndarray:
        """(V,V) at every node; inf where it is past the double range, which
        is its true value there, so numpy's overflow warning is silenced."""
        with np.errstate(over="ignore"):
            return np.sum(np.abs(self.states) ** 2, axis=1)

    def state_at(self, i: int) -> Spinor:
        return Spinor.from_array(self.states[i])

    def to_csv(self, fh) -> None:
        fh.write(CSV_HEADER + "\n")
        v, f = self.states, self.field_samples
        fh.writelines(csv_rows([self.times, v[:, 0].real, v[:, 0].imag,
                                v[:, 1].real, v[:, 1].imag,
                                f[:, 0].real, f[:, 0].imag, f[:, 1].real, f[:, 1].imag,
                                f[:, 2].real, f[:, 2].imag, self.norms()]))


@dataclass(frozen=True)
class BlochState:
    n: np.ndarray   # real unit 3-vector
    alpha: float
    N: float


@dataclass(frozen=True)
class BlochPath:
    times: np.ndarray
    n: np.ndarray       # (k, 3) real, renormalized
    alpha: np.ndarray   # (k,)
    N: np.ndarray       # (k,)
    drift: float        # max | |n|-1 | before renormalization


@dataclass(frozen=True)
class HamiltonianReport:
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H: np.ndarray
    theta: np.ndarray          # from the independent angle-form integration
    Phi: np.ndarray
    angle_mismatch: float      # max |q - cos(theta)|, |p + Phi|
    theta_eq_residual: float   # second-order equation residual for theta(t)
    truncated: bool
    t_stop: float


def _sampled_field(spec: FieldSpec, window, tol: float, params: dict | None,
                   t_eval):
    """The checks every field solve makes before it starts: tol, the window
    and the field's declared poles.  Returns the window as floats, the bound
    field callable, the output nodes and the field sampled there, so a field
    singular at a node fails at once instead of after the solver has crawled
    up to its pole."""
    if tol < MIN_TOL:
        raise DomainError(f"tol = {tol} below the supported minimum {MIN_TOL}")
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise DomainError("window must satisfy t1 > t0")
    declared = getattr(spec, "poles", None)
    if callable(declared):
        hits = declared((t0, t1))
        if hits:
            raise DomainError(
                f"window [{t0}, {t1}] contains declared field poles at {hits}")
    field_fn, rhs = bind_field(spec, params)
    t_eval = np.asarray(t_eval, dtype=float)
    return (t0, t1), field_fn, rhs, t_eval, field_fn(t_eval)


def propagate(spec: FieldSpec, V0, window, tol: float = 1e-10,
              params: dict | None = None, n_nodes: int = 801,
              t_eval=None) -> Trajectory:
    """Adaptive propagation of the spin equation over [t0, t1].

    V0 may be a Spinor or a length-2 complex sequence.  The returned grid
    is t_eval if given, else n_nodes uniform nodes.
    """
    y0 = V0.as_array() if isinstance(V0, Spinor) else np.asarray(V0, dtype=complex)
    if not np.isfinite(y0).all():
        raise DomainError(f"initial state V0 = {y0} is not finite")
    if t_eval is None:
        t_eval = np.linspace(window[0], window[1], n_nodes)
    window, _, rhs, t_eval, fsamp = _sampled_field(spec, window, tol, params, t_eval)
    sol = dop853(rhs, window, y0, tol, t_eval, "propagation")
    return Trajectory(t_eval, sol.y.T.copy(), fsamp, est_error=tol)


def constant_field_propagator(F, t: float) -> Mat2:
    """exp(-i t sigma.F) for a constant field F."""
    Fv = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    s = sigma_dot(Fv)
    f2 = Fv @ Fv
    if abs(f2) < 1e-300:
        return np.eye(2, dtype=complex) - 1j * t * s
    lam = cmath.sqrt(f2)
    return np.eye(2, dtype=complex) * cmath.cos(lam * t) - 1j * cmath.sin(lam * t) / lam * s


def stationary_solutions(F):
    """Pairs (lambda, V) with V(t) = exp(-i lambda t) V solving the constant-F SE."""
    Fv = F if isinstance(F, CVec3) else CVec3.from_array(np.asarray(F, dtype=complex))
    return [(pair.lam, pair.vector) for pair in eigenpairs(Fv)]


def _check_uniform(times):
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    if len(dt) == 0 or np.any(dt <= 0):
        raise DomainError("times must be strictly increasing")
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-300):
        raise DomainError("sampled-path operations require a uniform time grid")
    return times, float(dt[0])


def field_from_q(times, q, F1: FieldSpec | None = None, unit: bool = False,
                 params: dict | None = None) -> np.ndarray:
    """External field generated by a transformation-vector path q(t).

    q is sampled on a uniform grid, shape (n, 3) complex; derivatives are
    4th-order finite differences.  unit=False uses the generic branch
    (q^2 != -1); unit=True requires q^2 = 1 to 1e-10.  F1 is the source
    field spec (None means zero).
    """
    times, h = _check_uniform(times)
    q = np.asarray(q, dtype=complex)
    if q.shape != (len(times), 3):
        raise DomainError("q must have shape (n_times, 3)")
    q2 = np.sum(q * q, axis=1)
    qd = fd_derivative(q, h)
    if F1 is None:
        f1 = np.zeros_like(q)
    else:
        f1 = field_callable(F1, params)(times)
    if unit:
        if np.max(np.abs(q2 - 1.0)) > 1e-10:
            raise DomainError("unit branch requires q^2 = 1 to 1e-10 along the path")
        qf1 = np.sum(q * f1, axis=1)
        return np.cross(q, qd) + 2.0 * q * qf1[:, None] - f1
    bad = np.abs(1.0 + q2) < 1e-12
    if np.any(bad):
        t_bad = times[np.argmax(bad)]
        raise DomainError(f"q^2 = -1 encountered at t = {t_bad}; branch undefined")
    qf1 = np.sum(q * f1, axis=1)
    num = qd + np.cross(q, qd) + 2.0 * np.cross(q, f1) + 2.0 * q * qf1[:, None] \
        - 2.0 * q2[:, None] * f1
    return num / (1.0 + q2)[:, None] + f1


def evolution_from_q(times, q, q0=None, unit: bool = False) -> np.ndarray:
    """Evolution-operator path R(t) built algebraically from q(t), R(0) = I.

    Solves the SE whose field is field_from_q(times, q, F1=None, unit=unit).
    Returns an (n, 2, 2) complex array.
    """
    times, _ = _check_uniform(times)
    q = np.asarray(q, dtype=complex)
    if q0 is None:
        q0 = q[0]
    q0 = np.asarray(q0, dtype=complex)
    if np.max(np.abs(q[0] - q0)) > 1e-10:
        raise DomainError("q(t0) must equal q0")
    eye = np.eye(2, dtype=complex)
    out = np.empty((len(times), 2, 2), dtype=complex)
    if unit:
        if abs(q0 @ q0 - 1.0) > 1e-10:
            raise DomainError("unit branch requires q0^2 = 1")
        s0 = sigma_dot(q0)
        for i in range(len(times)):
            out[i] = sigma_dot(q[i]) @ s0
        return out
    q02 = q0 @ q0
    if abs(1.0 + q02) < 1e-12:
        raise DomainError("q0^2 = -1; branch undefined")
    m0 = eye + 1j * sigma_dot(q0)
    for i in range(len(times)):
        qi2 = q[i] @ q[i]
        if abs(1.0 + qi2) < 1e-12:
            raise DomainError(f"q^2 = -1 encountered at t = {times[i]}")
        denom = cmath.sqrt((1.0 + qi2) * (1.0 + q02))
        out[i] = (eye - 1j * sigma_dot(q[i])) @ m0 / denom
    return out


def evolution_constant_direction(q_fn, lam: complex, t: float,
                                 quad_tol: float = 1e-12) -> Mat2:
    """Evolution operator for F = q(t) (sin(lam), 0, cos(lam)).

    Uses w(t) = integral of q from 0 to t (adaptive quadrature) in
    R = cos(w) I - i (sigma_1 sin(lam) + sigma_3 cos(lam)) sin(w); the
    phase is the integral function w(t), which is what solves the
    evolution equation for non-constant q.
    """
    from scipy.integrate import quad

    def part(fn):
        val, err = quad(fn, 0.0, t, epsabs=quad_tol, epsrel=quad_tol, limit=400)
        if not math.isfinite(val) or err > max(1e-8, 100 * quad_tol * max(1.0, abs(val))):
            raise AccuracyError(f"quadrature for the phase failed (err = {err})")
        return val

    w = part(lambda s: complex(q_fn(s)).real) + 1j * part(lambda s: complex(q_fn(s)).imag)
    axis = np.array([cmath.sin(lam), 0.0, cmath.cos(lam)], dtype=complex)
    return np.eye(2, dtype=complex) * cmath.cos(w) - 1j * cmath.sin(w) * sigma_dot(axis)


def bloch_propagate(spec: FieldSpec, state0: BlochState, window,
                    tol: float = 1e-10, params: dict | None = None,
                    n_nodes: int = 801) -> BlochPath:
    """Integrate the direction/phase/amplitude form of the dynamics.

    n follows dn/dt = 2[G - (G.n) n] + 2[K x n]; alpha and ln N are
    recovered by quadrature along the way.
    """
    n0 = np.asarray(state0.n, dtype=float)
    # written so that a NaN component fails the test too
    if not abs(np.linalg.norm(n0) - 1.0) <= 1e-8:
        raise DomainError("initial Bloch vector must be unit length")
    if not (math.isfinite(state0.alpha) and 0.0 < state0.N < math.inf):
        raise DomainError("initial alpha must be finite and N finite and positive")
    window, field_fn, _, t_eval, _ = _sampled_field(
        spec, window, tol, params, np.linspace(window[0], window[1], n_nodes))

    def rhs(t, y):
        n = y[:3]
        F = field_fn(t)
        K, G = F.real, F.imag
        gn = G @ n
        ndot = 2.0 * (G - gn * n) + 2.0 * np.cross(K, n)
        rho2 = n[0] * n[0] + n[1] * n[1]
        if rho2 < 1e-24:
            phidot_costheta = 0.0  # pole gauge: phi undefined, contribution -> 0
        else:
            phidot = (n[0] * ndot[1] - n[1] * ndot[0]) / rho2
            phidot_costheta = phidot * n[2]
        adot = phidot_costheta - 2.0 * (K @ n)
        return np.array([ndot[0], ndot[1], ndot[2], adot, gn])

    y0 = np.array([n0[0], n0[1], n0[2], state0.alpha, math.log(state0.N)])
    sol = dop853(rhs, window, y0, tol, t_eval, "Bloch propagation")
    n_path = sol.y[:3].T
    norms = np.linalg.norm(n_path, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > 10 * max(tol, 1e-12):
        raise AccuracyError(f"renormalization drift {drift} exceeds tolerance")
    n_path = n_path / norms[:, None]
    return BlochPath(t_eval, n_path, sol.y[3].copy(), np.exp(sol.y[4]), drift)


def hamiltonian_check(f_fn, g_fn, q0: float, p0: float, window,
                      tol: float = 1e-10, n_nodes: int = 801) -> HamiltonianReport:
    """Integrate the canonical form q' = dH/dp, p' = -dH/dq with
    H = 2 g sqrt(1-q^2) cos p + 2 q f, and verify it against the
    equivalent angle form integrated independently.

    |q| -> 1 is a coordinate singularity; the window is truncated there
    and the report flags it.
    """
    if not abs(q0) < 1.0:
        raise DomainError("|q0| must be < 1")
    t0, t1 = float(window[0]), float(window[1])
    if t1 == t0:
        raise DomainError("window must satisfy t1 != t0")

    def rhs(t, y):
        q, p = y
        g = float(g_fn(t))
        f = float(f_fn(t))
        root = math.sqrt(max(1.0 - q * q, 1e-300))
        dq = -2.0 * g * root * math.sin(p)
        dp = 2.0 * g * q * math.cos(p) / root - 2.0 * f
        return [dq, dp]

    def near_pole(t, y):
        return 1.0 - abs(y[0]) - 1e-6

    near_pole.direction = -1

    # the terminal event ends the solve with success still set
    sol = dop853(rhs, (t0, t1), [q0, p0], tol, np.linspace(t0, t1, n_nodes),
                 "canonical integration", event=near_pole)
    truncated = sol.t_event is not None
    times = sol.t
    q, p = sol.y
    g_vals = np.array([float(g_fn(t)) for t in times])
    f_vals = np.array([float(f_fn(t)) for t in times])
    H = 2.0 * g_vals * np.sqrt(np.maximum(1.0 - q * q, 0.0)) * np.cos(p) + 2.0 * q * f_vals

    # independent integration of the angle form:
    # theta' = -2 g sin(Phi),  Phi' = 2 f - 2 g cos(Phi) cot(theta)
    theta0 = math.acos(q0)
    Phi0 = -p0

    def rhs_angle(t, y):
        th, Phi = y
        g = float(g_fn(t))
        f = float(f_fn(t))
        s = math.sin(th)
        if abs(s) < 1e-12:
            s = math.copysign(1e-12, s if s != 0 else 1.0)
        return [-2.0 * g * math.sin(Phi), 2.0 * f - 2.0 * g * math.cos(Phi) * math.cos(th) / s]

    sol_a = dop853(rhs_angle, (t0, times[-1]), [theta0, Phi0], tol, times,
                   "angle-form integration")
    theta, Phi = sol_a.y
    angle_mismatch = float(max(np.max(np.abs(q - np.cos(theta))), np.max(np.abs(p + Phi))))

    # residual of the second-order theta equation on the cos(Phi) >= 0 branch
    h = times[1] - times[0] if len(times) > 1 else 1.0
    if len(times) >= 5:
        thd = fd_derivative(theta, h)
        thdd = fd_derivative(thd, h)
        gd = fd_derivative(g_vals, h)
        rad = 4.0 * g_vals ** 2 - thd ** 2
        mask = (np.cos(Phi) > 0.05) & (np.abs(np.sin(theta)) > 1e-6) & (rad > 0)
        mask[:2] = mask[-2:] = False
        if np.any(mask):
            res = (thdd - gd / g_vals * thd + 2.0 * f_vals * np.sqrt(np.abs(rad))
                   - rad * np.cos(theta) / np.sin(theta))
            theta_eq_residual = float(np.max(np.abs(res[mask])))
        else:
            theta_eq_residual = float("nan")
    else:
        theta_eq_residual = float("nan")
    return HamiltonianReport(times, q, p, H, theta, Phi, angle_mismatch,
                             theta_eq_residual, truncated, float(times[-1]))


def se_residuals(du, F, u) -> np.ndarray:
    """Relative residuals ||i u' - (sigma.F) u|| / max(||u||, 1e-30) of the
    spin equation, one per row of the derivatives du (n, 2), the fields
    F (n, 3) and the states u (n, 2)."""
    du, F, u = (np.asarray(a, dtype=complex) for a in (du, F, u))
    S = np.ascontiguousarray(sigma_dot(F.T).transpose(2, 0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        norm_r, norm_u = _residual_norms(S, du, u)
        res = norm_r / np.maximum(norm_u, 1e-30)
        # past |u| ~ 1e154 the squares overflow: such rows, with finite inputs,
        # are taken again scaled by their largest |component|, which the
        # relative residual does not depend on (the 1e-30 floor scales with them)
        again = ~(np.isfinite(norm_r) & np.isfinite(norm_u))
        if again.any():
            again &= np.isfinite(np.concatenate([du, F, u], axis=1)).all(axis=1)
            scale = np.abs(np.concatenate([du[again].view(float), u[again].view(float)],
                                          axis=1)).max(axis=1, keepdims=True)
            norm_r, norm_u = _residual_norms(S[again], du[again] / scale, u[again] / scale)
            res[again] = norm_r / np.maximum(norm_u, 1e-30 / scale[:, 0])
    return res


def _residual_norms(S, du, u):
    """||i du - S u|| and ||u|| of each row."""
    r = 1j * du - np.matmul(S, u[:, :, None])[:, :, 0]
    # row norms bit for bit as np.linalg.norm: sqrt(re.re + im.im), each dot a stacked
    # matmul on norm's dot kernel; the elementwise sum re0^2 + re1^2 + im0^2 + im1^2
    # moves the last bit of ~15% of random norms and of ~14% of verify_entry's residuals
    x = np.stack([r, u])
    re, im = x.real, x.imag
    return np.sqrt(np.matmul(re[..., None, :], re[..., :, None])
                   + np.matmul(im[..., None, :], im[..., :, None]))[..., 0, 0]


def se_residual(u_fn, field_fn, t: float, h: float | None = None) -> float:
    """Relative residual ||i u' - (sigma.F) u|| / max(||u||, 1e-30) at t.

    u' by the central difference with step h, numutil.default_step(t)
    unless given.  u_fn is called at t-2h, t-h, t+h, t+2h and t, then
    field_fn at t.
    """
    du = fd_derivative_callable(lambda s: np.asarray(u_fn(s), dtype=complex), t, h)
    u = u_fn(t)
    return float(se_residuals([du], [field_fn(t)], [u])[0])


def trajectory_se_residuals(traj: Trajectory) -> np.ndarray:
    """Residual of a sampled trajectory against its own field samples,
    with the derivative taken on the sample grid."""
    _, h = _check_uniform(traj.times)
    return se_residuals(fd_derivative(traj.states, h), traj.field_samples, traj.states)


def bloch_vector_path(traj: Trajectory) -> np.ndarray:
    """n = L^{v,v} / (V,V) along a spinor trajectory."""
    L = l_vector_arr(traj.states, traj.states)
    n2 = traj.norms()
    return (L / n2[:, None]).real
