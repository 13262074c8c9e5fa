"""Propagation and evolution-operator machinery for i dV/dt = (sigma.F) V.

propagate() is the package's independent numerical oracle: an adaptive
high-order explicit Runge-Kutta integration (DOP853 with its embedded error
estimate, the package's own transcription of scipy's, bit for bit) used
everywhere a closed form needs residual verification.  Every solve here
checks its window and tol with numutil.solve_window and runs through
numutil.dop853, and every field solve starts with _sampled_field;
hamiltonian_check's terminal event stops its solve after the step across
which it falls through zero, at the last node before it does.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from ._numbers import record
from .errors import AccuracyError, DomainError
from .fields import FieldSpec, bind_field, check_poles, field_callable
from .numutil import (central_difference, csv_rows, default_step, dop853, fd_derivative,
                      gauss_kronrod, real_number, solve_window, stencil_nodes)
from .spinors import CVec3, ID2, Spinor, eigenpairs, real_quotient, sigma_dot, sigma_exp

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

POLE_BAND = 1e-6  # hamiltonian_check stops where 1 - |q| falls below this
PHASE_QUAD_TOL = 1e-12  # evolution_constant_direction's tolerance for the phase w


@record
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

    def to_csv(self, fh) -> None:
        fh.write(CSV_HEADER + "\n")
        v, f = self.states, self.field_samples
        fh.writelines(csv_rows([self.times, v[:, 0].real, v[:, 0].imag,
                                v[:, 1].real, v[:, 1].imag,
                                f[:, 0].real, f[:, 0].imag, f[:, 1].real, f[:, 1].imag,
                                f[:, 2].real, f[:, 2].imag, self.norms()]))


@record
class BlochState:
    n: np.ndarray   # real unit 3-vector
    alpha: float
    N: float


@record
class BlochPath:
    times: np.ndarray
    n: np.ndarray       # (k, 3) real, renormalized
    alpha: np.ndarray   # (k,)
    N: np.ndarray       # (k,)
    drift: float        # max | |n|-1 | before renormalization


@record
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


def _sampled_field(spec: FieldSpec, window, tol: float, n_nodes: int):
    """The checks every field solve makes before it starts: the window and
    tol (numutil.solve_window, then the order), and the poles the field's
    ASTs declare (fields.check_poles).  Returns the window as floats, the
    bound field callable, the n_nodes uniform output nodes and the field
    sampled there, so that a field singular at a node, at a pole expr.poles
    does not read, fails at once, not after a crawl up to it."""
    t0, t1 = solve_window(window, tol)
    if not t1 > t0:
        raise DomainError("window must satisfy t1 > t0")
    t_eval = _output_nodes((t0, t1), n_nodes)
    field_fn, rhs = bind_field(spec)  # an unbound parameter raises here
    check_poles(spec, (t0, t1))
    return (t0, t1), field_fn, rhs, t_eval, field_fn(t_eval)


def _output_nodes(window, n_nodes: int) -> np.ndarray:
    """n_nodes uniform nodes over window = (t0, t1), finite ends, at least 2
    as on the command line.  DomainError names an n_nodes that fails, which
    np.linspace would otherwise answer with no nodes at all."""
    if not (isinstance(n_nodes, numbers.Integral) and n_nodes >= 2):
        raise DomainError(f"n_nodes = {n_nodes!r} must be an integer >= 2")
    return np.linspace(window[0], window[1], n_nodes)


def propagate(spec: FieldSpec, V0, window, tol: float = 1e-10,
              n_nodes: int = 801) -> Trajectory:
    """Adaptive propagation of the spin equation over [t0, t1].

    V0 may be a Spinor or a length-2 complex sequence.  The returned grid
    is n_nodes uniform nodes.
    """
    y0 = V0.as_array() if isinstance(V0, Spinor) else np.asarray(V0, dtype=complex)
    if not np.isfinite(y0).all():
        raise DomainError(f"initial state V0 = {y0} is not finite")
    window, _, rhs, t_eval, fsamp = _sampled_field(spec, window, tol, n_nodes)
    sol = dop853(rhs, window, y0, tol, t_eval, "propagation")
    return Trajectory(t_eval, sol.y.T.copy(), fsamp, est_error=tol)


def constant_field_propagator(F, t: float) -> Mat2:
    """exp(-i t sigma.F) for a constant field F (spinors.sigma_exp, with
    k^2 = F.F).  A non-finite F or t, or a propagator past the double range
    (|Im k t| above about 710), raises DomainError."""
    Fv = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    if not (np.isfinite(Fv).all() and cmath.isfinite(t)):
        raise DomainError(f"propagator of F = {Fv} over t = {t}: not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = Fv @ Fv
        if cmath.isfinite(f2):
            lam = cmath.sqrt(f2) if abs(f2) >= 1e-300 else 0
        else:  # F.F overflows: k from F / max|F_i|, scaled back
            scale = float(np.max(np.abs(Fv)))
            Fs = real_quotient(Fv, scale)
            lam = cmath.sqrt(Fs @ Fs) * scale
    return sigma_exp(Fv, lam, t, lambda: f"propagator of F = {Fv} over t = {t} is past "
                                         f"the double range (k t = {lam * t})")


def stationary_solutions(F):
    """Pairs (lambda, V) with V(t) = exp(-i lambda t) V solving the constant-F SE."""
    Fv = F if isinstance(F, CVec3) else CVec3.from_array(np.asarray(F, dtype=complex))
    return [(pair.lam, pair.vector) for pair in eigenpairs(Fv)]


def _check_uniform(times):
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    # written so that a NaN time fails them
    if len(dt) == 0 or not (dt > 0).all():
        raise DomainError("times must be strictly increasing")
    if not np.max(np.abs(dt - dt[0])) <= 1e-9 * max(abs(dt[0]), 1e-300):
        raise DomainError("sampled-path operations require a uniform time grid")
    return times, float(dt[0])


def field_from_q(times, q, F1: FieldSpec | None = None, unit: bool = False) -> np.ndarray:
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
        f1 = field_callable(F1)(times)
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


def evolution_from_q(times, q, *, unit: bool = False) -> np.ndarray:
    """Evolution-operator path R(t) built algebraically from q(t), R(t0) = I
    at the first node, q0 = q(t0).

    Solves the SE whose field is field_from_q(times, q, F1=None, unit=unit).
    Returns an (n, 2, 2) complex array.
    """
    times, _ = _check_uniform(times)
    q = np.asarray(q, dtype=complex)
    if q.shape != (len(times), 3):
        raise DomainError("q must have shape (n_times, 3)")
    q0 = q[0]
    # sigma.q at every node, contiguous: stacked 2x2 products then give the
    # bits of the node-by-node ones
    S = sigma_dot(q.T).transpose(2, 0, 1).copy()
    if unit:
        if abs(q0 @ q0 - 1.0) > 1e-10:
            raise DomainError("unit branch requires q0^2 = 1")
        return np.matmul(S, sigma_dot(q0))
    q02 = q0 @ q0
    if abs(1.0 + q02) < 1e-12:
        raise DomainError("q0^2 = -1; branch undefined")
    q2 = np.matmul(q[:, None, :], q[:, :, None])[:, 0, 0]  # each q_i @ q_i, on its dot kernel
    bad = np.abs(1.0 + q2) < 1e-12
    if bad.any():
        raise DomainError(f"q^2 = -1 encountered at t = {times[np.argmax(bad)]}")
    # numpy's scalar complex product: its array loop may fuse a multiply and an add
    denom = np.array([cmath.sqrt((1.0 + x) * (1.0 + q02)) for x in q2])
    return np.matmul(ID2 - 1j * S, ID2 + 1j * sigma_dot(q0)) / denom[:, None, None]


def evolution_constant_direction(q_fn, lam: complex, t: float) -> Mat2:
    """Evolution operator for F = q(t) (sin(lam), 0, cos(lam)).

    R = exp(-i w sigma.axis) (spinors.sigma_exp with k = 1) for the unit
    axis (sin(lam), 0, cos(lam)) and the phase w(t), the integral of q from
    0 to t (numutil.gauss_kronrod at tolerance PHASE_QUAD_TOL), which is
    what solves the evolution equation for non-constant q.  A non-finite t,
    or an operator past the double range (|Im w| or |Im lam| above about
    710), raises DomainError.
    """
    if not math.isfinite(t):
        raise DomainError(f"t = {t} is not finite")
    w, err = gauss_kronrod(q_fn, 0.0, t, PHASE_QUAD_TOL)
    if not cmath.isfinite(w) or err > max(1e-8, 100 * PHASE_QUAD_TOL * max(1.0, abs(w))):
        raise AccuracyError(f"quadrature for the phase failed (err = {err})")
    with np.errstate(over="ignore", invalid="ignore"):  # sigma_exp reports an overflow
        axis = np.array([np.sin(lam), 0.0, np.cos(lam)], dtype=complex)
    return sigma_exp(axis, 1, w, lambda: f"evolution operator past the double range at "
                                         f"t = {t} (phase w = {w}, lam = {lam})")


def _cross(a1, a2, a3, b1, b2, b3):
    """a x b of two real 3-vectors given as floats, with the bits of
    np.cross, which also forms each component as one product minus another;
    np.cross itself spends most of its time on axis bookkeeping."""
    return a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1


def bloch_propagate(spec: FieldSpec, state0: BlochState, window,
                    tol: float = 1e-10, n_nodes: int = 801) -> BlochPath:
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
    window, field_fn, _, t_eval, _ = _sampled_field(spec, window, tol, n_nodes)

    def rhs(t, y):
        # float64 arithmetic on Python floats, operation for operation what
        # numpy's elementwise version did; the two dots stay numpy's, whose
        # BLAS may sum in another order
        n = y[:3]
        F = field_fn(t)
        K, G = F.real, F.imag
        gn = float(G @ n)
        kn = float(K @ n)
        n1, n2, n3 = n.tolist()
        g1, g2, g3 = G.tolist()
        c1, c2, c3 = _cross(*K.tolist(), n1, n2, n3)
        d1 = 2.0 * (g1 - gn * n1) + 2.0 * c1
        d2 = 2.0 * (g2 - gn * n2) + 2.0 * c2
        d3 = 2.0 * (g3 - gn * n3) + 2.0 * c3
        rho2 = n1 * n1 + n2 * n2
        if rho2 < 1e-24:
            phidot_costheta = 0.0  # pole gauge: phi undefined, contribution -> 0
        else:
            phidot = (n1 * d2 - n2 * d1) / rho2
            phidot_costheta = phidot * n3
        adot = phidot_costheta - 2.0 * kn
        return np.array([d1, d2, d3, adot, gn])

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

    |q| -> 1 is a coordinate singularity; the window is truncated where
    1 - |q| falls below POLE_BAND and the report flags it.  A start inside
    that band, 1 - |q0| < POLE_BAND, raises DomainError: the truncating
    event could not fall there.  q0, p0 and the values of f and g must be
    real and finite: one that is not raises DomainError naming it.
    """
    q0, p0 = real_number("q0", q0), real_number("p0", p0)
    if not 1.0 - abs(q0) >= POLE_BAND:
        raise DomainError(f"1 - |q0| must be at least {POLE_BAND}, got q0 = {q0}")
    t0, t1 = solve_window(window, tol)

    def g_at(t):
        return real_number("g(t)", g_fn(t), t)

    def f_at(t):
        return real_number("f(t)", f_fn(t), t)

    def rhs(t, y):
        q, p = y
        g = g_at(t)
        f = f_at(t)
        # math.sin and math.cos raise at +-inf: a NaN slope fails the step
        # instead, and the stepper reports where
        if not math.isfinite(p):
            return [math.nan, math.nan]
        root = math.sqrt(max(1.0 - q * q, 1e-300))
        dq = -2.0 * g * root * math.sin(p)
        dp = 2.0 * g * q * math.cos(p) / root - 2.0 * f
        return [dq, dp]

    def near_pole(t, y):
        return 1.0 - abs(y[0]) - POLE_BAND

    # the terminal event ends the solve with success still set
    sol = dop853(rhs, (t0, t1), [q0, p0], tol, _output_nodes((t0, t1), n_nodes),
                 "canonical integration", event=near_pole)
    truncated = sol.status == 1
    times = sol.t
    q, p = sol.y
    g_vals = np.array([g_at(t) for t in times])
    f_vals = np.array([f_at(t) for t in times])
    H = 2.0 * g_vals * np.sqrt(np.maximum(1.0 - q * q, 0.0)) * np.cos(p) + 2.0 * q * f_vals

    # independent integration of the angle form:
    # theta' = -2 g sin(Phi),  Phi' = 2 f - 2 g cos(Phi) cot(theta)
    theta0 = math.acos(q0)
    Phi0 = -p0

    def rhs_angle(t, y):
        th, Phi = y
        g = g_at(t)
        f = f_at(t)
        if not (math.isfinite(th) and math.isfinite(Phi)):  # as in rhs
            return [math.nan, math.nan]
        s = math.sin(th)
        if abs(s) < 1e-12:
            s = math.copysign(1e-12, s if s != 0 else 1.0)
        return [-2.0 * g * math.sin(Phi), 2.0 * f - 2.0 * g * math.cos(Phi) * math.cos(th) / s]

    if times.size > 1:
        theta, Phi = dop853(rhs_angle, (t0, times[-1]), [theta0, Phi0], tol, times,
                            "angle-form integration").y
    else:  # the event came before the second node
        theta, Phi = np.array([[theta0], [Phi0]])
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


def se_residuals(samples, F, h) -> np.ndarray:
    """Relative residuals ||i u' - (sigma.F) u|| / max(||u||, 1e-30) of the
    spin equation, one per row of samples (n, 5, 2), u at t-2h, t-h, t+h and
    t+2h (numutil.stencil_nodes' order) and at t, with u' their
    numutil.central_difference, of fields F (n, 3) at t and of h, one step
    or one per row as an (n, 1) array.  Rows with finite inputs past the
    double range are taken again over their largest |part| (the residual is
    scale-free): the samples where the difference overflows, |u| ~ 1e306, u'
    and u where the squares do, ~1e154 (the 1e-30 floor scales with them)."""
    samples, F = np.asarray(samples, dtype=complex), np.asarray(F, dtype=complex)
    S = np.ascontiguousarray(sigma_dot(F.T).transpose(2, 0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        du, u = central_difference(*samples.swapaxes(0, 1)[:4], h), samples[:, 4].copy()
        over = ~np.isfinite(du).all(axis=1) & np.isfinite(samples).all(axis=(1, 2))
        if over.any():
            part = samples[over]
            part = part / np.abs(part.view(float)).max(axis=(1, 2), keepdims=True)
            du[over] = central_difference(*part.swapaxes(0, 1)[:4], h[over] if np.ndim(h) else h)
            u[over] = part[:, 4]
        norm_r, norm_u = _residual_norms(S, du, u)
        res = norm_r / np.maximum(norm_u, 1e-30)
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


def se_residual(u_fn, field_fn, t: float) -> float:
    """se_residuals at one time t, on u's stencil at step h =
    numutil.default_step(t): u_fn is called at t-2h, t-h, t+h, t+2h and t,
    then field_fn at t."""
    h = default_step(t)
    samples = [np.asarray(u_fn(s), dtype=complex) for s in (*stencil_nodes(t, h), t)]
    return float(se_residuals([samples], [field_fn(t)], h)[0])
