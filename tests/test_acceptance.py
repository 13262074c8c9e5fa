"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its bound."""

import cmath
import math
import time

import numpy as np

from spineq import catalog
from spineq.cli import run as cli_run
from spineq.darboux import (constant_f_seed_trajectory, darboux_apply,
                            darboux_field, darboux_from_seed,
                            darboux_params_constant_f)
from spineq.dynamics import (BlochState, Trajectory, bloch_propagate,
                             constant_field_propagator,
                             evolution_constant_direction, evolution_from_q,
                             field_from_q, hamiltonian_check, propagate)
from spineq.fields import CatalogField, ConstField, parse_field_spec
from spineq.numutil import fd_derivative
from spineq.reductions import ReductionPlan, reduce_field, transform_matrix
from spineq.solutions import (gauge_from_field, invert_field,
                              invert_field_angles, invert_field_selfadjoint)
from spineq.specfun import complex_gamma, gauss_2f1, kummer_phi, parabolic_d
from spineq.spinors import (AngleRep, Spinor, anticonjugate, frame,
                            from_angles, inner, l_vector, sigma_dot)

from conftest import bloch_vector_path, trajectory_se_residuals


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_catalog_verification(capsys):
    t0 = time.perf_counter()
    rc = cli_run(["verify", "--all"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()  # swallow the table
    worst = 0.0
    n_pass = 0
    for e in catalog.entries():
        rep = catalog.verify_entry(e.id, n_points=50)
        worst = max(worst, rep.max_residual)
        if rep.max_residual <= 1e-6 and e.flagged is None:
            n_pass += 1
    ok = rc == 0 and worst <= 1e-6 and n_pass >= 20 and elapsed < 60.0
    with capsys.disabled():
        report(1, ok,
               f"26 entries, worst residual {worst:.2e} <= 1e-6, "
               f"{n_pass}/26 unflagged pass (>= 20), "
               f"verify --all {elapsed:.2f}s < 60s")


def test_criterion_2_oracle_cross_check(capsys):
    worst = 0.0
    for eid in (1, 5, 16, 26):
        e = catalog.entry(eid)
        p = e.merged(None)
        win = e.window_for(p)
        times = np.linspace(win[0], win[1], 101)
        closed = np.array([e.solution_components(t, p) for t in times])
        traj = propagate(CatalogField(eid, {}), closed[0], (win[0], win[1]),
                         tol=1e-10, n_nodes=101)
        worst = max(worst, float(np.max(np.abs(traj.states - closed))))
    ok = worst <= 1e-6
    with capsys.disabled():
        report(2, ok, f"entries 1/5/16/26 oracle deviation {worst:.2e} <= 1e-6")


def test_criterion_3_spinor_identity_suite(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0

    def track(err):
        nonlocal worst
        worst = max(worst, float(err))

    for _ in range(1000):
        raw = rng.normal(size=8)
        V = Spinor(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        U = Spinor(complex(raw[4], raw[5]), complex(raw[6], raw[7]))
        if V.norm2() < 1e-4:
            continue
        Vb = anticonjugate(V)
        n2 = V.norm2()
        s = 1 + n2 ** 2
        # double anticonjugation, norms, orthogonality
        track(abs((anticonjugate(Vb) + V).v1) / s)
        track(abs((anticonjugate(Vb) + V).v2) / s)
        track(abs(inner(Vb, Vb) - n2) / s)
        track(abs(inner(Vb, V)) / s)
        # completeness
        v = V.as_array()[:, None]
        vb = Vb.as_array()[:, None]
        track(np.max(np.abs(v @ v.conj().T + vb @ vb.conj().T
                            - n2 * np.eye(2))) / s)
        # identity groups of the bilinear-vector calculus
        Ub = anticonjugate(U)
        track(np.max(np.abs(l_vector(U, V).as_array().conj()
                            - l_vector(V, U).as_array())) / s)
        track(np.max(np.abs(l_vector(Ub, Vb).as_array()
                            + l_vector(V, U).as_array())) / s)
        Up, Vp = Spinor(complex(raw[7], raw[0]), complex(raw[5], raw[2])), U
        track(abs(l_vector(U, V).dot(l_vector(Up, Vp))
                  - (2 * inner(U, Vp) * inner(Up, V)
                     - inner(U, V) * inner(Up, Vp))) / s)
        track(abs(l_vector(V, V).dot(l_vector(V, V)) - n2 ** 2) / s)
        track(abs(l_vector(Vb, V).dot(l_vector(Vb, V))) / s)
        track(abs(l_vector(Vb, V).dot(l_vector(V, Vb)) - 2 * n2 ** 2) / s)
        track(abs(l_vector(V, V).dot(l_vector(Vb, V))) / s)
        track(np.max(np.abs((l_vector(V, Vb).cross(l_vector(Vb, V))
                             - 2j * n2 * l_vector(V, V)).as_array())) / s)
        track(np.max(np.abs((l_vector(Vb, V).cross(l_vector(V, V))
                             - 1j * n2 * l_vector(Vb, V)).as_array())) / s)
        lhs = l_vector(U, V)
        rhs = (inner(U, V) * l_vector(V, V)
               + inner(U, Vb) * l_vector(Vb, V)) * (1.0 / n2)
        track(np.max(np.abs((lhs - rhs).as_array())) / s)
        # triad orthonormality, handedness, and inverse relations
        e1, e2, nn = frame(V)
        E = np.stack([e1.as_array(), e2.as_array(), nn.as_array()]).real
        track(np.max(np.abs(E @ E.T - np.eye(3))))
        track(np.max(np.abs(np.cross(E[0], E[1]) - E[2])))
        track(np.max(np.abs(l_vector(V, V).as_array() - n2 * E[2])) / s)
        track(np.max(np.abs(l_vector(Vb, V).as_array()
                            - n2 * (E[0] + 1j * E[1]))) / s)
        track(np.max(np.abs(l_vector(V, Vb).as_array()
                            - n2 * (E[0] - 1j * E[1]))) / s)
    ok = worst <= 1e-12
    with capsys.disabled():
        report(3, ok, f"1000 random spinors, worst identity error "
                      f"{worst:.2e} <= 1e-12 (relative)")


def _random_trig_spec(rng, complex_field):
    terms = []
    for comp in ("F1", "F2", "F3"):
        parts = []
        for m in (1, 2):
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(-0.5, 0.5)
            parts.append(f"{a:.6f}*cos({m}*t) + {b:.6f}*sin({m}*t)")
            if complex_field:
                c = rng.uniform(-0.3, 0.3)
                parts.append(f"{c:.6f}i*cos({m}*t)")
        terms.append(f"{comp} = " + " + ".join(parts))
    return parse_field_spec("; ".join(terms))


def _synthetic_constant_norm(rng, times):
    N = rng.uniform(0.5, 1.5)
    th0 = rng.uniform(1.0, math.pi - 1.0)
    amp = rng.uniform(0.1, 0.35)
    w = rng.uniform(0.5, 1.5, size=3)
    d = rng.uniform(0, 2 * math.pi, size=3)
    states = np.empty((len(times), 2), dtype=complex)
    for i, t in enumerate(times):
        states[i] = from_angles(AngleRep(
            N, 0.9 * math.sin(w[2] * t + d[2]),
            th0 + amp * math.sin(w[0] * t + d[0]),
            0.7 * math.sin(w[1] * t + d[1]))).as_array()
    return states


def test_criterion_4_inverse_round_trip(capsys):
    rng = np.random.default_rng(23)
    worst_rt = 0.0
    for k in range(20):
        spec = _random_trig_spec(rng, complex_field=(k >= 10))
        traj = propagate(spec, np.array([1.0, 0.4 - 0.3j]), (0, 1.5),
                         tol=1e-12, n_nodes=1201)
        F = invert_field(traj, c=gauge_from_field(traj))
        worst_rt = max(worst_rt, float(np.max(np.abs(F - traj.field_samples)[2:-2])))
    times = np.linspace(0, 2, 801)
    worst_routes = 0.0
    for _ in range(20):
        states = _synthetic_constant_norm(rng, times)
        traj = Trajectory(times, states, np.zeros((len(times), 3), complex), 0.0)
        Fa = invert_field_angles(traj)
        Fb = invert_field_selfadjoint(traj)
        worst_routes = max(worst_routes,
                           float(np.max(np.abs(Fa - Fb.real)[2:-2])))
    ok = worst_rt <= 1e-5 and worst_routes <= 1e-6
    with capsys.disabled():
        report(4, ok, f"20-field round trip {worst_rt:.2e} <= 1e-5; "
                      f"self-adjoint vs angle route {worst_routes:.2e} <= 1e-6")


def test_criterion_5_evolution_operators(capsys):
    times = np.linspace(0, 2.0, 801)
    q = np.stack([0.3 * np.sin(times), 0.2 * times,
                  0.4 * np.cos(2 * times)], axis=1).astype(complex)
    R = evolution_from_q(times, q)
    dets = np.array([np.linalg.det(Ri) for Ri in R])
    det_drift = float(np.max(np.abs(dets - dets[0])))

    def residual(times, R, F):
        h = times[1] - times[0]
        Rd = fd_derivative(R, h)
        worst = 0.0
        for i in range(2, len(times) - 2):
            res = 1j * Rd[i] - sigma_dot(F[i]) @ R[i]
            worst = max(worst, float(np.linalg.norm(res)))
        return worst

    F = field_from_q(times, q)
    res_generic = residual(times, R, F)

    w = 0.8
    qu = np.stack([np.cos(w * times), np.sin(w * times),
                   np.zeros_like(times)], axis=1).astype(complex)
    Fu = field_from_q(times, qu, unit=True)
    Ru = evolution_from_q(times, qu, unit=True)
    res_unit = residual(times, Ru, Fu)

    lam = 0.4
    axis = np.array([math.sin(lam), 0.0, math.cos(lam)])
    h = 1e-5
    res_cd = 0.0
    for t in (0.3, 0.8, 1.4):
        Rs = [evolution_constant_direction(lambda s: 2 * s, lam, tt)
              for tt in (t - 2 * h, t - h, t, t + h, t + 2 * h)]
        Rd = (Rs[0] - 8 * Rs[1] + 8 * Rs[3] - Rs[4]) / (12 * h)
        res = 1j * Rd - sigma_dot(2 * t * axis) @ Rs[2]
        res_cd = max(res_cd, float(np.linalg.norm(res)))

    ok = det_drift <= 1e-10 and res_generic <= 1e-6 and res_unit <= 1e-6 \
        and res_cd <= 1e-8
    with capsys.disabled():
        report(5, ok, f"det drift {det_drift:.2e} <= 1e-10; "
                      f"generic/unit-branch residuals {res_generic:.2e}/"
                      f"{res_unit:.2e} <= 1e-6; "
                      f"constant-direction residual {res_cd:.2e} <= 1e-8")


def test_criterion_6_darboux_suite(capsys):
    f, R, phi0 = 0.5, 1.0, 0.1
    params = darboux_params_constant_f(f, R, phi0)
    w0 = math.sqrt(R * R - f * f)
    worst_field = 0.0
    for t in np.linspace(0, 2, 21):
        Q = R * math.cosh(2 * (w0 * t + phi0))
        want = f + 2 * (f * f - R * R) / (Q - f)
        worst_field = max(worst_field,
                          abs(darboux_field(lambda s: f, params, t) - want))

    eps = 0.3
    traj = propagate(ConstField((eps, 0.0, f)), np.array([1.0, 0.2 + 0.1j]),
                     (0, 2), tol=1e-12, n_nodes=1201)
    out = darboux_apply(traj, eps, params)
    res_v = float(np.max(trajectory_se_residuals(out)))

    seed = constant_f_seed_trajectory(f, R, phi0, (0, 2), 1201)
    sp = darboux_from_seed(seed, 1j * R)
    worst_seed = 0.0
    worst_integral = 0.0
    for t in np.linspace(0.05, 1.95, 13):
        a, b = sp.pair(t)
        aw, bw = params.pair(t)
        worst_seed = max(worst_seed, abs(a - aw), abs(b - bw))
        worst_integral = max(worst_integral, abs(a * a + b * b - R * R))

    worst_real = 0.0
    for t in np.linspace(0, 2, 21):
        a, b = params.pair(t)
        worst_real = max(worst_real, abs(a.imag), abs(b.imag),
                         abs(darboux_field(lambda s: f, params, t).imag))
    pi_params = darboux_params_constant_f(0.4j, 0.9j, 0.0)
    for t in np.linspace(0, 2, 21):
        a, b = pi_params.pair(t)
        worst_real = max(worst_real, abs(a.imag), abs(b.real),
                         abs(darboux_field(lambda s: 0.4j, pi_params, t).real))

    ok = worst_field <= 1e-10 and res_v <= 1e-5 and worst_seed <= 1e-8 \
        and worst_integral <= 1e-10 and worst_real <= 1e-12
    with capsys.disabled():
        report(6, ok, f"partner field {worst_field:.2e} <= 1e-10; "
                      f"generated residual {res_v:.2e} <= 1e-5; "
                      f"seed vs direct {worst_seed:.2e} <= 1e-8; "
                      f"first integral {worst_integral:.2e} <= 1e-10; "
                      f"realness {worst_real:.2e} <= 1e-12")


def test_criterion_7_special_functions(capsys):
    worst_closed = 0.0
    worst_closed = max(worst_closed,
                       abs(gauss_2f1(1, 1, 2, 0.5) + math.log(0.5) / 0.5))
    worst_closed = max(worst_closed,
                       abs(kummer_phi(1.7, 1.7, 1.0) - math.e))
    worst_closed = max(worst_closed, abs(parabolic_d(0, 2.0) - math.exp(-1)))
    worst_closed = max(worst_closed, abs(parabolic_d(1, 1.0) - math.exp(-0.25)))
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        worst_closed = max(worst_closed,
                           abs(complex_gamma(z + 1) - z * complex_gamma(z))
                           / (1 + abs(complex_gamma(z + 1))))

    worst_kummer = 0.0
    worst_pfaff = 0.0
    for _ in range(100):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        lhs = kummer_phi(a, g, z)
        rhs = cmath.exp(z) * kummer_phi(g - a, g, -z)
        worst_kummer = max(worst_kummer, abs(lhs - rhs) / (1 + abs(lhs)))

        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        zz = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
        lhs = gauss_2f1(a / 2, b, c, zz)
        rhs = (1 - zz) ** (-a / 2) * gauss_2f1(a / 2, c - b, c, zz / (zz - 1))
        worst_pfaff = max(worst_pfaff, abs(lhs - rhs) / (1 + abs(lhs)))

    ok = worst_closed <= 1e-10 and worst_kummer <= 1e-9 and worst_pfaff <= 1e-9
    with capsys.disabled():
        report(7, ok, f"closed forms {worst_closed:.2e} <= 1e-10; "
                      f"Kummer identity {worst_kummer:.2e} and Pfaff identity "
                      f"{worst_pfaff:.2e} <= 1e-9 at 100 random points")


def test_criterion_8_dynamics_consistency(capsys):
    spec = parse_field_spec(
        "F1 = 0.5 + 0.1i; F2 = 0.3*sin(t); F3 = 0.4*cos(t) + 0.2i")
    V0 = np.array([1.0, 0.3 + 0.2j])
    traj = propagate(spec, V0, (0, 3), 1e-12, n_nodes=401)
    n_spin = bloch_vector_path(traj)
    path = bloch_propagate(spec, BlochState(n_spin[0], 0.0,
                                            math.sqrt(traj.norms()[0])),
                           (0, 3), 1e-12, n_nodes=401)
    bloch_dev = float(np.max(np.abs(path.n - n_spin)))

    n2 = traj.norms()
    h = traj.times[1] - traj.times[0]
    lhs = fd_derivative(np.sqrt(n2), h)
    G = traj.field_samples.imag
    rhs = np.sqrt(n2) * np.sum(G * n_spin, axis=1)
    norm_law = float(np.max(np.abs(lhs - rhs)[2:-2]))

    rep = hamiltonian_check(lambda t: 0.4 + 0.1 * math.sin(t),
                            lambda t: 0.7 + 0.2 * math.cos(t),
                            0.2, 0.3, (0, 4), 1e-11, n_nodes=801)
    rep_const = hamiltonian_check(lambda t: 0.4, lambda t: 0.7, 0.2, 0.3,
                                  (0, 5), 1e-11, n_nodes=801)
    h_drift = float(np.max(np.abs(rep_const.H - rep_const.H[0])))

    ok = bloch_dev <= 1e-6 and norm_law <= 1e-6 \
        and rep.angle_mismatch <= 1e-6 and h_drift <= 1e-8
    with capsys.disabled():
        report(8, ok, f"Bloch vs spinor {bloch_dev:.2e} <= 1e-6; "
                      f"amplitude law {norm_law:.2e} <= 1e-6; "
                      f"canonical vs angle form {rep.angle_mismatch:.2e} <= 1e-6; "
                      f"energy drift {h_drift:.2e} <= 1e-8")


def test_criterion_9_rabi_reduction(capsys):
    f, Omega, F3 = 0.7, 1.3, 0.4
    spec = parse_field_spec(
        f"F1 = {f}*cos({Omega}*t); F2 = {f}*sin({Omega}*t); F3 = {F3}")
    plan = ReductionPlan.make(np.array([0, 0, 1.0]), lambda t: Omega * t / 2,
                              lambda t: Omega / 2)
    samples = np.array([reduce_field(spec, plan, t).as_array()
                        for t in np.linspace(0, 5, 101)])
    variation = float(np.max(np.abs(samples - samples[0])))

    Fred = samples[0]
    V0 = np.array([0.8, 0.1 - 0.4j])
    traj = propagate(spec, V0, (0, 5), 1e-12, n_nodes=101)
    worst = 0.0
    for i, t in enumerate(traj.times):
        lab = np.linalg.inv(transform_matrix(plan, t)) @ (
            constant_field_propagator(Fred, t) @ V0)
        worst = max(worst, float(np.max(np.abs(lab - traj.states[i]))))

    ok = variation <= 1e-10 and worst <= 1e-8
    with capsys.disabled():
        report(9, ok, f"reduced-field time variation {variation:.2e} <= 1e-10; "
                      f"lab-frame reconstruction {worst:.2e} <= 1e-8")
