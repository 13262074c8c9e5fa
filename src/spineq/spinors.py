"""Two-component spinor algebra.

Conventions: the inner product (U,V) = u1* v1 + u2* v2 conjugates the first
slot; the anticonjugate spinor is Vbar = -i sigma_2 V* = (-v2*, v1*); vector
dot products on complex 3-vectors are bilinear (no conjugation).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._numbers import record
from .errors import DomainError

__all__ = [
    "Spinor",
    "CVec3",
    "AngleRep",
    "EigenPair",
    "SIGMA",
    "sigma_dot",
    "sigma_exp",
    "inner",
    "anticonjugate",
    "l_vector",
    "l_vector_arr",
    "frame",
    "to_angles",
    "from_angles",
    "sigma_apply",
    "decompose",
    "eigenpairs",
    "vector_from_eigenvectors",
]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)
ID2 = np.eye(2, dtype=complex)


@record
class Spinor:
    v1: complex
    v2: complex

    def as_array(self):
        return np.array([self.v1, self.v2], dtype=complex)

    @staticmethod
    def from_array(a) -> "Spinor":
        return Spinor(complex(a[0]), complex(a[1]))

    def norm2(self) -> float:
        """(V,V) = |v1|^2 + |v2|^2."""
        return abs(self.v1) ** 2 + abs(self.v2) ** 2

    def __add__(self, other):
        return Spinor(self.v1 + other.v1, self.v2 + other.v2)

    def __sub__(self, other):
        return Spinor(self.v1 - other.v1, self.v2 - other.v2)

    def __mul__(self, c):
        return Spinor(self.v1 * c, self.v2 * c)

    __rmul__ = __mul__

    def __neg__(self):
        return Spinor(-self.v1, -self.v2)


@record
class CVec3:
    x: complex
    y: complex
    z: complex

    def as_array(self):
        return np.array([self.x, self.y, self.z], dtype=complex)

    @staticmethod
    def from_array(a) -> "CVec3":
        return CVec3(complex(a[0]), complex(a[1]), complex(a[2]))

    def dot(self, other: "CVec3") -> complex:
        """Bilinear dot product (no conjugation)."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "CVec3") -> "CVec3":
        return CVec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def square(self) -> complex:
        return self.dot(self)

    def __add__(self, other):
        return CVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return CVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, c):
        return CVec3(self.x * c, self.y * c, self.z * c)

    __rmul__ = __mul__

    def __neg__(self):
        return CVec3(-self.x, -self.y, -self.z)


def complex_vector(v) -> np.ndarray:
    """The components of a Spinor or CVec3, or of any sequence, as a complex ndarray."""
    return v.as_array() if isinstance(v, (Spinor, CVec3)) else np.asarray(v, dtype=complex)


@record
class AngleRep:
    """Polar form of a spinor: overall amplitude N, total phase alpha and
    Bloch angles theta in [0, pi], phi."""

    N: float
    alpha: float
    theta: float
    phi: float


@record
class EigenPair:
    lam: complex
    vector: Spinor
    degenerate: bool = False


def real_quotient(a, s: float) -> np.ndarray:
    """The complex array a over the real s, part by part: numpy's complex
    division by a real rounds (1e308 + 0j) / 1e308 to 1 - 2**-53."""
    return (np.ascontiguousarray(a, dtype=complex).view(float) / s).view(complex)


def sigma_dot(p) -> np.ndarray:
    """The 2x2 matrix sigma . p for a complex 3-vector p."""
    p = complex_vector(p)
    return np.array(
        [[p[2], p[0] - 1j * p[1]], [p[0] + 1j * p[1], -p[2]]], dtype=complex
    )


def sigma_exp(F, k: complex, t: complex, error) -> np.ndarray:
    """exp(-i t sigma.F) = cos(k t) I - i (sin(k t) / k) sigma.F for a
    constant 3-vector F with F.F = k^2, and exactly I - i t sigma.F at
    k = 0 (a nilpotent sigma.F included).  The caller passes k: for a unit
    axis with a large imaginary part, F.F in floating point is far from 1.
    A result past the double range raises DomainError(error()), with no
    warning; error is called only then, so its formatting costs nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if k == 0:
                U = ID2 - 1j * t * sigma_dot(F)
            else:
                U = ID2 * cmath.cos(k * t) - 1j * cmath.sin(k * t) / k * sigma_dot(F)
        except (OverflowError, ValueError):
            U = None
    if U is None or not np.isfinite(U).all():
        raise DomainError(error())
    return U


def inner(U: Spinor, V: Spinor) -> complex:
    return U.v1.conjugate() * V.v1 + U.v2.conjugate() * V.v2


def anticonjugate(V: Spinor) -> Spinor:
    return Spinor(-V.v2.conjugate(), V.v1.conjugate())


def l_vector(U: Spinor, V: Spinor) -> CVec3:
    """The bilinear 3-vector (U, sigma V)."""
    u1c, u2c = U.v1.conjugate(), U.v2.conjugate()
    return CVec3(
        u1c * V.v2 + u2c * V.v1,
        1j * (u2c * V.v1 - u1c * V.v2),
        u1c * V.v1 - u2c * V.v2,
    )


def l_vector_arr(u, v):
    """Vectorized l_vector for state arrays of shape (..., 2) -> (..., 3)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    u1c, u2c = u[..., 0].conj(), u[..., 1].conj()
    v1, v2 = v[..., 0], v[..., 1]
    return np.stack(
        [u1c * v2 + u2c * v1, 1j * (u2c * v1 - u1c * v2), u1c * v1 - u2c * v2],
        axis=-1,
    )


def anticonjugate_arr(v):
    """Vectorized anticonjugate for state arrays of shape (..., 2)."""
    v = np.asarray(v, dtype=complex)
    return np.stack([-v[..., 1].conj(), v[..., 0].conj()], axis=-1)


def frame(V: Spinor):
    """Orthonormal right-handed triad (e1, e2, n) attached to a nonzero spinor."""
    n2 = V.norm2()
    if n2 == 0.0:
        raise DomainError("frame of the zero spinor is undefined")
    Vb = anticonjugate(V)
    l_vb_v = l_vector(Vb, V)
    l_v_vb = l_vector(V, Vb)
    l_v_v = l_vector(V, V)
    e1 = (l_v_vb + l_vb_v) * (1.0 / (2 * n2))
    e2 = (l_v_vb - l_vb_v) * (1j / (2 * n2))
    n = l_v_v * (1.0 / n2)
    return e1, e2, n


def to_angles(V: Spinor) -> AngleRep:
    n2 = V.norm2()
    if n2 == 0.0:
        raise DomainError("zero spinor has no angle representation")
    N = math.sqrt(n2)
    a1, a2 = abs(V.v1), abs(V.v2)
    theta = 2.0 * math.atan2(a2, a1)
    # at the poles phi is a gauge artifact; set phi = 0 and absorb the phase
    if a2 == 0.0:
        return AngleRep(N, 2.0 * cmath.phase(V.v1), 0.0, 0.0)
    if a1 == 0.0:
        return AngleRep(N, 2.0 * cmath.phase(V.v2), math.pi, 0.0)
    p1 = cmath.phase(V.v1)
    p2 = cmath.phase(V.v2)
    return AngleRep(N, p1 + p2, theta, p2 - p1)


def from_angles(a: AngleRep) -> Spinor:
    half = cmath.exp(0.5j * a.alpha)
    return Spinor(
        a.N * half * cmath.exp(-0.5j * a.phi) * math.cos(0.5 * a.theta),
        a.N * half * cmath.exp(0.5j * a.phi) * math.sin(0.5 * a.theta),
    )


def sigma_apply(p, V: Spinor) -> Spinor:
    w = sigma_dot(p) @ V.as_array()
    return Spinor.from_array(w)


def decompose(U: Spinor, V: Spinor):
    """Coefficients (c_v, c_vbar) with U = c_v V + c_vbar Vbar."""
    n2 = V.norm2()
    if n2 == 0.0:
        raise DomainError("cannot decompose against the zero spinor")
    Vb = anticonjugate(V)
    return inner(V, U) / n2, inner(Vb, U) / n2


def _normalized(vec: np.ndarray) -> Spinor:
    nrm = math.sqrt(float(np.sum(np.abs(vec) ** 2)))
    v = vec / nrm
    # gauge: first component above roundoff is made real positive
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    v = v * cmath.exp(-1j * cmath.phase(lead))
    return Spinor.from_array(v)


def eigenpairs(a) -> list[EigenPair]:
    """Eigenvalues and eigenvectors of sigma . a.

    For a^2 != 0 returns the two pairs lambda = +/- sqrt(a^2) (principal
    branch); for a^2 = 0, a != 0 the single lambda = 0 null mode; for a = 0
    both basis spinors flagged degenerate.
    """
    av = complex_vector(a)
    a1, a2, a3 = av
    scale = float(np.max(np.abs(av)))
    if scale == 0.0:
        return [
            EigenPair(0j, Spinor(1, 0), degenerate=True),
            EigenPair(0j, Spinor(0, 1), degenerate=True),
        ]
    if not math.isfinite(scale):
        raise DomainError(f"eigenpairs of sigma . a: a = {av} is not finite")
    if not 1e-150 < scale < 1e150:
        # the squares below would overflow or underflow: sigma . (a / scale)
        # has the eigenvectors of sigma . a and its eigenvalues over scale
        pairs = [EigenPair(p.lam * scale, p.vector, p.degenerate)
                 for p in eigenpairs(real_quotient(av, scale))]
        if not all(cmath.isfinite(p.lam) for p in pairs):
            raise DomainError(f"eigenvalues of sigma . a: a = {av} are past the double range")
        return pairs
    asq = a1 * a1 + a2 * a2 + a3 * a3
    if abs(asq) <= 1e-14 * scale * scale:
        cand = [np.array([1j * a2 - a1, a3]), np.array([a3, a1 + 1j * a2])]
        vec = max(cand, key=lambda w: float(np.sum(np.abs(w) ** 2)))
        return [EigenPair(0j, _normalized(vec))]
    lam = cmath.sqrt(asq)
    out = []
    for ell in (lam, -lam):
        cand = [np.array([a3 + ell, a1 + 1j * a2]), np.array([a1 - 1j * a2, ell - a3])]
        vec = max(cand, key=lambda w: float(np.sum(np.abs(w) ** 2)))
        out.append(EigenPair(ell, _normalized(vec)))
    return out


def vector_from_eigenvectors(U: Spinor, V: Spinor) -> CVec3:
    """A vector whose sigma . a eigenvectors point along U and V.

    Equals (Ubar, sigma V); defined up to an overall complex factor.
    """
    det = U.v1 * V.v2 - U.v2 * V.v1
    if abs(det) <= 1e-12 * math.sqrt(U.norm2() * V.norm2()):
        raise DomainError("eigenvector directions must be linearly independent")
    return l_vector(anticonjugate(U), V)
