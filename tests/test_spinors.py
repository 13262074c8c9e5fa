import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq.errors import DomainError
from spineq.spinors import (AngleRep, CVec3, Spinor, anticonjugate, decompose,
                            eigenpairs, frame, from_angles, inner, l_vector,
                            sigma_apply, sigma_dot, sigma_exp, to_angles,
                            vector_from_eigenvectors)

from conftest import assert_rel, rand_cvec3, rand_spinor


finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestInner:
    def test_orthogonal_basis(self):
        assert inner(Spinor(1, 0), Spinor(0, 1)) == 0

    def test_norm_of_one_i(self):
        assert inner(Spinor(1, 1j), Spinor(1, 1j)) == 2

    def test_conjugation(self):
        assert inner(Spinor(1 + 1j, 0), Spinor(1, 0)) == 1 - 1j

    def test_conjugate_symmetry(self, rng):
        for _ in range(50):
            U, V = rand_spinor(rng), rand_spinor(rng)
            assert_rel(inner(U, V), inner(V, U).conjugate(), 1e-14)


class TestAnticonjugate:
    def test_basis(self):
        assert anticonjugate(Spinor(1, 0)) == Spinor(0, 1)
        assert anticonjugate(Spinor(0, 1)) == Spinor(-1, 0)

    def test_double_is_minus(self):
        V = Spinor(3, 2j)
        W = anticonjugate(anticonjugate(V))
        assert W == Spinor(-3, -2j)

    @given(finite_complex, finite_complex)
    @settings(max_examples=100, deadline=None)
    def test_relations_hold(self, v1, v2):
        V = Spinor(v1, v2)
        Vb = anticonjugate(V)
        assert anticonjugate(Vb) == Spinor(-v1, -v2)
        assert abs(inner(Vb, Vb) - inner(V, V)) <= 1e-12 * (1 + abs(inner(V, V)))
        assert abs(inner(Vb, V)) <= 1e-12 * (1 + V.norm2())
        assert abs(inner(V, Vb)) <= 1e-12 * (1 + V.norm2())

    def test_orthogonality_random(self, rng):
        for _ in range(1000):
            V = rand_spinor(rng)
            assert abs(inner(anticonjugate(V), V)) <= 1e-12 * (1 + V.norm2())


class TestLVector:
    def test_north_pole(self):
        assert l_vector(Spinor(1, 0), Spinor(1, 0)) == CVec3(0, 0, 1)

    def test_south_pole(self):
        assert l_vector(Spinor(0, 1), Spinor(0, 1)) == CVec3(0, 0, -1)

    def test_dot_product_identity(self, rng):
        # L^{u,v} . L^{u',v'} = 2 (U,V')(U',V) - (U,V)(U',V')
        for _ in range(200):
            U, V = rand_spinor(rng), rand_spinor(rng)
            Up, Vp = rand_spinor(rng), rand_spinor(rng)
            lhs = l_vector(U, V).dot(l_vector(Up, Vp))
            rhs = 2 * inner(U, Vp) * inner(Up, V) - inner(U, V) * inner(Up, Vp)
            assert_rel(lhs, rhs, 1e-12, scale=1 + abs(rhs))

    def test_identity_suite(self, rng):
        # the seven property groups of the L-vector calculus
        for _ in range(200):
            V = rand_spinor(rng)
            U = rand_spinor(rng)
            Vb = anticonjugate(V)
            Ub = anticonjugate(U)
            n2 = inner(V, V)
            s = 1 + abs(n2) ** 2

            # i) conjugation and anticonjugation
            luv = l_vector(U, V)
            assert_rel(CVec3(*[x.conjugate() for x in luv.as_array()]).as_array(),
                       l_vector(V, U).as_array(), 1e-12, scale=s)
            assert_rel(l_vector(Ub, Vb).as_array(), (-l_vector(V, U)).as_array(),
                       1e-12, scale=s)
            # iii)
            assert_rel(l_vector(V, V).dot(l_vector(V, V)), n2 ** 2, 1e-12, scale=s)
            assert abs(l_vector(Vb, V).dot(l_vector(Vb, V))) <= 1e-12 * s
            assert abs(l_vector(V, Vb).dot(l_vector(V, Vb))) <= 1e-12 * s
            # iv)
            assert_rel(l_vector(Vb, V).dot(l_vector(V, Vb)), 2 * n2 ** 2,
                       1e-12, scale=s)
            assert abs(l_vector(V, V).dot(l_vector(Vb, V))) <= 1e-12 * s
            assert abs(l_vector(V, V).dot(l_vector(V, Vb))) <= 1e-12 * s
            # v) cross products
            assert_rel(l_vector(V, Vb).cross(l_vector(Vb, V)).as_array(),
                       (2j * n2 * l_vector(V, V)).as_array(), 1e-12, scale=s)
            assert_rel(l_vector(Vb, V).cross(l_vector(V, V)).as_array(),
                       (1j * n2 * l_vector(Vb, V)).as_array(), 1e-12, scale=s)
            assert_rel(l_vector(V, V).cross(l_vector(V, Vb)).as_array(),
                       (1j * n2 * l_vector(V, Vb)).as_array(), 1e-12, scale=s)
            # vii) decomposition of a mixed L-vector
            rhs = (inner(U, V) * l_vector(V, V) + inner(U, Vb) * l_vector(Vb, V)) \
                * (1.0 / n2)
            assert_rel(l_vector(U, V).as_array(), rhs.as_array(), 1e-12, scale=s)

    def test_completeness(self, rng):
        for _ in range(1000):
            V = rand_spinor(rng)
            if V.norm2() < 1e-12:
                continue
            Vb = anticonjugate(V)
            v = V.as_array()[:, None]
            vb = Vb.as_array()[:, None]
            lhs = v @ v.conj().T + vb @ vb.conj().T
            assert_rel(lhs, V.norm2() * np.eye(2), 1e-12, scale=1 + V.norm2())


class TestFrame:
    def test_north(self):
        e1, e2, n = frame(Spinor(1, 0))
        assert_rel(n.as_array(), [0, 0, 1], 1e-15)
        assert abs(e1.z) < 1e-15 and abs(e2.z) < 1e-15

    def test_equator(self):
        e1, e2, n = frame(Spinor(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert_rel(n.as_array(), [1, 0, 0], 1e-15)

    def test_zero_spinor(self):
        with pytest.raises(DomainError):
            frame(Spinor(0, 0))

    def test_orthonormal_right_handed(self, rng):
        for _ in range(300):
            V = rand_spinor(rng)
            if V.norm2() < 1e-6:
                continue
            e1, e2, n = frame(V)
            vecs = [e1.as_array(), e2.as_array(), n.as_array()]
            for v in vecs:
                assert np.max(np.abs(v.imag)) <= 1e-12
            for i in range(3):
                for j in range(3):
                    want = 1.0 if i == j else 0.0
                    assert_rel(vecs[i] @ vecs[j], want, 1e-12)
            assert_rel(np.cross(vecs[0], vecs[1]), vecs[2], 1e-12)

    def test_inverse_relations(self, rng):
        # L^{v,v} = (V,V) n, L^{vbar,v} = (V,V)(e1 + i e2), L^{v,vbar} = c.c.
        for _ in range(300):
            V = rand_spinor(rng)
            if V.norm2() < 1e-6:
                continue
            Vb = anticonjugate(V)
            e1, e2, n = frame(V)
            n2 = V.norm2()
            assert_rel(l_vector(V, V).as_array(), n2 * n.as_array(), 1e-12,
                       scale=1 + n2)
            assert_rel(l_vector(Vb, V).as_array(),
                       n2 * (e1.as_array() + 1j * e2.as_array()), 1e-12, scale=1 + n2)
            assert_rel(l_vector(V, Vb).as_array(),
                       n2 * (e1.as_array() - 1j * e2.as_array()), 1e-12, scale=1 + n2)


class TestAngles:
    def test_north_pole_gauge(self):
        rep = to_angles(Spinor(1, 0))
        assert rep.N == 1.0 and rep.theta == 0.0 and rep.phi == 0.0

    def test_equator_value(self):
        got = from_angles(AngleRep(2.0, 0.0, math.pi / 2, 0.0))
        assert_rel(got.as_array(), [math.sqrt(2), math.sqrt(2)], 1e-15)

    def test_round_trip(self, rng):
        for _ in range(500):
            V = rand_spinor(rng)
            if V.norm2() < 1e-10:
                continue
            W = from_angles(to_angles(V))
            assert_rel(W.as_array(), V.as_array(), 1e-12,
                       scale=math.sqrt(V.norm2()))

    def test_anticonjugate_matches_angle_form(self, rng):
        # Vbar = N e^{-i alpha/2} (-e^{-i phi/2} sin(theta/2), e^{i phi/2} cos(theta/2))
        for _ in range(100):
            V = rand_spinor(rng)
            if V.norm2() < 1e-6:
                continue
            a = to_angles(V)
            half = cmath.exp(-0.5j * a.alpha)
            want = np.array([
                -a.N * half * cmath.exp(-0.5j * a.phi) * math.sin(a.theta / 2),
                a.N * half * cmath.exp(0.5j * a.phi) * math.cos(a.theta / 2),
            ])
            assert_rel(anticonjugate(V).as_array(), want, 1e-12,
                       scale=math.sqrt(V.norm2()))

    def test_zero_spinor(self):
        with pytest.raises(DomainError):
            to_angles(Spinor(0, 0))


class TestSigmaApply:
    def test_sigma3_eigenvector(self):
        assert sigma_apply(CVec3(0, 0, 1), Spinor(1, 0)) == Spinor(1, 0)

    def test_sigma1_swap(self):
        assert sigma_apply(CVec3(1, 0, 0), Spinor(1, 0)) == Spinor(0, 1)

    def test_matches_decomposition_identity(self, rng):
        # (sigma.p) V = (V,V)^-1 [ (L^{v,v}.p) V + (L^{vbar,v}.p) Vbar ]
        for _ in range(300):
            p = rand_cvec3(rng)
            V = rand_spinor(rng)
            if V.norm2() < 1e-6:
                continue
            direct = sigma_apply(p, V)
            Vb = anticonjugate(V)
            via = (l_vector(V, V).dot(p) * V + l_vector(Vb, V).dot(p) * Vb) \
                * (1.0 / V.norm2())
            assert_rel(direct.as_array(), via.as_array(), 1e-12,
                       scale=1 + math.sqrt(direct.norm2()))


class TestSigmaExp:
    @staticmethod
    def _unused():
        raise AssertionError("error text asked for on success")

    def test_null_vector_is_linear_in_t(self):
        # sigma.(1, i, 0) = [[0, 2], [0, 0]] squares to zero
        U = sigma_exp(np.array([1, 1j, 0]), 0, 0.7 - 0.2j, self._unused)
        assert (U == [[1, -1.4j - 0.4], [0, 1]]).all()

    def test_matches_mpmath_expm(self):
        F = np.array([0.3 + 0.1j, -0.5, 0.8j])
        k = cmath.sqrt(F @ F)
        U = sigma_exp(F, k, 1.3, self._unused)
        with mpmath.workdps(40):
            want = mpmath.expm(-1.3j * mpmath.matrix(sigma_dot(F).tolist()))
            want = np.array([[complex(want[i, j]) for j in range(2)] for i in range(2)])
        assert_rel(U, want, 1e-14)

    @pytest.mark.parametrize("F, k, t", [((0, 0, 1), 1, 1000j), ((1, 1j, 0), 0, 1e308),
                                         ((1.7e308, 0, 0), 0.5, 2.0), ((1, 0, 0), 1, math.nan)])
    def test_past_the_double_range_raises_the_callers_error(self, capsys, F, k, t):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="^the caller's text$"):
                sigma_exp(np.array(F, dtype=complex), k, t, lambda: "the caller's text")
        assert caught == []
        assert capsys.readouterr() == ("", "")


class TestDecompose:
    def test_self(self, rng):
        V = rand_spinor(rng)
        cv, cvb = decompose(V, V)
        assert_rel(cv, 1.0, 1e-14)
        assert abs(cvb) < 1e-14

    def test_anticonjugate_part(self, rng):
        V = rand_spinor(rng)
        cv, cvb = decompose(anticonjugate(V), V)
        assert abs(cv) < 1e-14
        assert_rel(cvb, 1.0, 1e-14)

    def test_reconstruction(self, rng):
        for _ in range(200):
            U, V = rand_spinor(rng), rand_spinor(rng)
            if V.norm2() < 1e-6:
                continue
            cv, cvb = decompose(U, V)
            W = cv * V + cvb * anticonjugate(V)
            assert_rel(W.as_array(), U.as_array(), 1e-12,
                       scale=1 + math.sqrt(U.norm2()))

    def test_zero_base(self):
        with pytest.raises(DomainError):
            decompose(Spinor(1, 0), Spinor(0, 0))


class TestEigenpairs:
    def test_z_axis(self):
        pairs = eigenpairs(CVec3(0, 0, 1))
        lams = sorted((p.lam for p in pairs), key=lambda z: -z.real)
        assert_rel(lams[0], 1.0, 1e-14)
        assert_rel(lams[1], -1.0, 1e-14)
        by_lam = {round(p.lam.real): p.vector for p in pairs}
        assert_rel(by_lam[1].as_array(), [1, 0], 1e-14)
        assert_rel(by_lam[-1].as_array(), [0, 1], 1e-14)

    def test_x_axis(self):
        pairs = eigenpairs(CVec3(1, 0, 0))
        by_lam = {round(p.lam.real): p.vector for p in pairs}
        assert_rel(by_lam[1].as_array(), np.array([1, 1]) / math.sqrt(2), 1e-14)
        assert_rel(by_lam[-1].as_array(), np.array([1, -1]) / math.sqrt(2), 1e-14)

    def test_null_vector(self):
        pairs = eigenpairs(CVec3(1, 1j, 0))
        assert len(pairs) == 1
        p = pairs[0]
        assert p.lam == 0
        res = sigma_dot(CVec3(1, 1j, 0)) @ p.vector.as_array()
        assert np.max(np.abs(res)) <= 1e-13

    def test_zero_vector_degenerate(self):
        pairs = eigenpairs(CVec3(0, 0, 0))
        assert len(pairs) == 2 and all(p.degenerate for p in pairs)

    def test_residuals_random(self, rng):
        for _ in range(300):
            a = rand_cvec3(rng)
            norm_a = np.linalg.norm(a.as_array())
            for p in eigenpairs(a):
                res = sigma_dot(a) @ p.vector.as_array() - p.lam * p.vector.as_array()
                assert np.linalg.norm(res) <= 1e-12 * (1 + norm_a)
                assert_rel(p.vector.norm2(), 1.0, 1e-12)


class TestVectorFromEigenvectors:
    def test_basis_pair(self):
        a = vector_from_eigenvectors(Spinor(1, 0), Spinor(0, 1))
        arr = a.as_array()
        nz = arr[np.argmax(np.abs(arr))]
        assert_rel(arr / nz, [0, 0, 1], 1e-14)  # proportional to the z axis
        # U is an eigenvector of sigma.a
        res = sigma_dot(a) @ np.array([1, 0]) - (-inner(anticonjugate(Spinor(1, 0)), Spinor(0, 1))) * np.array([1, 0])
        assert np.max(np.abs(res)) < 1e-13

    def test_eigen_directions_random(self, rng):
        for _ in range(100):
            U, V = rand_spinor(rng), rand_spinor(rng)
            det = U.v1 * V.v2 - U.v2 * V.v1
            if abs(det) < 1e-3:
                continue
            a = vector_from_eigenvectors(U, V)
            lam = inner(anticonjugate(U), V)
            sU = sigma_dot(a) @ U.as_array()
            sV = sigma_dot(a) @ V.as_array()
            scale = 1 + float(np.linalg.norm(a.as_array()))
            assert np.max(np.abs(sU + lam * U.as_array())) <= 1e-12 * scale * (1 + abs(U.v1) + abs(U.v2))
            assert np.max(np.abs(sV - lam * V.as_array())) <= 1e-12 * scale * (1 + abs(V.v1) + abs(V.v2))

    def test_orthogonal_pair_gives_real_direction(self, rng):
        V = rand_spinor(rng)
        U = anticonjugate(V)
        a = vector_from_eigenvectors(U, V).as_array()
        # proportional to the real vector L^{v,v}
        lvv = l_vector(V, V).as_array()
        cross = np.cross(a, lvv)
        assert np.max(np.abs(cross)) <= 1e-12 * (1 + np.max(np.abs(a)) * np.max(np.abs(lvv)))

    def test_matrix_identity(self, rng):
        # sigma . L^{u,v} = 2 V U^+ - (U,V) I
        for _ in range(100):
            U, V = rand_spinor(rng), rand_spinor(rng)
            lhs = sigma_dot(l_vector(U, V))
            rhs = 2 * np.outer(V.as_array(), U.as_array().conj()) \
                - inner(U, V) * np.eye(2)
            assert_rel(lhs, rhs, 1e-12, scale=1 + float(np.max(np.abs(rhs))))

    def test_dependent_inputs(self):
        with pytest.raises(DomainError):
            vector_from_eigenvectors(Spinor(1, 1), Spinor(2, 2))
