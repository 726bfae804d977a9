"""Quaternion scalars, quaternionic 2x2 matrices and the local group sections.

Conventions: q = q0 + q1*i + q2*j + q3*k with i^2 = j^2 = k^2 = ijk = -1,
conjugation qbar = q0 - q1*i - q2*j - q3*k, |q|^2 = qbar q.  The sphere S^7
sits in H^2 as |x|^2 + |y|^2 = 1 and carries two sections of the quaternionic
unitary group, one valid where x != 0 and one where y != 0, related on the
overlap by right multiplication with diag(tau, 1).
"""

import math

import numpy as np

from .tolerances import TAU_PATCH


class PatchError(ValueError):
    """Raised when a chart/section is evaluated where it is not defined."""


class Quaternion:
    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        self.q0 = float(q0)
        self.q1 = float(q1)
        self.q2 = float(q2)
        self.q3 = float(q3)

    @classmethod
    def from_seq(cls, seq):
        q0, q1, q2, q3 = seq
        return cls(q0, q1, q2, q3)

    def components(self):
        return np.array([self.q0, self.q1, self.q2, self.q3])

    def __add__(self, other):
        other = _as_quat(other)
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_quat(other)
        return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                          self.q2 - other.q2, self.q3 - other.q3)

    def __neg__(self):
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 * other, self.q1 * other,
                              self.q2 * other, self.q3 * other)
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = other.q0, other.q1, other.q2, other.q3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return _as_quat(other) * self

    def conj(self):
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def normsq(self):
        return self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def norm(self):
        return math.sqrt(self.normsq())

    def inv(self):
        n = self.normsq()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion")
        return Quaternion(self.q0 / n, -self.q1 / n, -self.q2 / n, -self.q3 / n)

    def __repr__(self):
        return (f"Quaternion({self.q0:.6g}, {self.q1:.6g}, "
                f"{self.q2:.6g}, {self.q3:.6g})")


def _as_quat(x):
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float)):
        return Quaternion(x)
    return Quaternion.from_seq(x)


QONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)

# QMUL[4 i + j]: the integer components of the product e_i e_j of the basis
# quaternions (e_0, e_1, e_2, e_3) = (1, i, j, k)
QMUL = np.array([(Quaternion.from_seq(a) * Quaternion.from_seq(b))
                 .components() for a in np.eye(4) for b in np.eye(4)],
                dtype=int)


def qexp(q):
    """Quaternion exponential exp(q0) (cos|v| + vhat sin|v|)."""
    v = math.sqrt(q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2)
    s = math.exp(q.q0)
    if v < 1e-300:
        return Quaternion(s * math.cos(v), 0.0, 0.0, 0.0)
    f = s * math.sin(v) / v
    return Quaternion(s * math.cos(v), f * q.q1, f * q.q2, f * q.q3)


def qlog(q):
    """Principal logarithm; for unit q this is theta * vhat."""
    n = q.norm()
    if n == 0.0:
        raise ZeroDivisionError("zero quaternion")
    v = math.sqrt(q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2)
    theta = math.atan2(v, q.q0)
    if v < 1e-300:
        if q.q0 < 0:
            # log of -|q|: direction is ambiguous, pick i
            return Quaternion(math.log(n), math.pi, 0.0, 0.0)
        return Quaternion(math.log(n), 0.0, 0.0, 0.0)
    f = theta / v
    return Quaternion(math.log(n), f * q.q1, f * q.q2, f * q.q3)


class QMatrix2:
    """Row-major 2x2 quaternionic matrix [[w, x], [z, y]]."""

    __slots__ = ("w", "x", "z", "y")

    def __init__(self, w, x, z, y):
        self.w = _as_quat(w)
        self.x = _as_quat(x)
        self.z = _as_quat(z)
        self.y = _as_quat(y)

    @classmethod
    def identity(cls):
        return cls(QONE, Quaternion(), Quaternion(), QONE)

    @classmethod
    def diag(cls, a, b):
        return cls(a, Quaternion(), Quaternion(), b)

    def __mul__(self, other):
        return QMatrix2(
            self.w * other.w + self.x * other.z,
            self.w * other.x + self.x * other.y,
            self.z * other.w + self.y * other.z,
            self.z * other.x + self.y * other.y,
        )

    def __add__(self, other):
        return QMatrix2(self.w + other.w, self.x + other.x,
                        self.z + other.z, self.y + other.y)

    def __sub__(self, other):
        return QMatrix2(self.w - other.w, self.x - other.x,
                        self.z - other.z, self.y - other.y)

    def scale(self, c):
        return QMatrix2(self.w * c, self.x * c, self.z * c, self.y * c)

    def dagger(self):
        """Quaternionic conjugate transpose."""
        return QMatrix2(self.w.conj(), self.z.conj(),
                        self.x.conj(), self.y.conj())

    def unitarity_defect(self):
        d = self.dagger() * self - QMatrix2.identity()
        return max(d.w.norm(), d.x.norm(), d.z.norm(), d.y.norm())

    def entries(self):
        return (self.w, self.x, self.z, self.y)

    def max_norm(self):
        return max(e.norm() for e in self.entries())

    def __repr__(self):
        return f"QMatrix2([[{self.w}, {self.x}], [{self.z}, {self.y}]])"


def section_s(p):
    """Group element [[-xbar^-1 ybar xbar, x], [xbar, y]] over the x != 0 patch.

    Its second column is the point (x, y) itself.
    """
    x, y = p.x, p.y
    if x.norm() < TAU_PATCH:
        raise PatchError("patch violation: x = 0 on the s patch")
    xb = x.conj()
    w = -(xb.inv() * y.conj() * xb)
    return QMatrix2(w, x, xb, y)


def section_n(p):
    """Group element [[ybar, x], [-ybar^-1 xbar ybar, y]] over the y != 0 patch."""
    x, y = p.x, p.y
    if y.norm() < TAU_PATCH:
        raise PatchError("patch violation: y = 0 on the n patch")
    yb = y.conj()
    z = -(yb.inv() * x.conj() * yb)
    return QMatrix2(yb, x, z, y)


def transition_tau(p):
    """Unit quaternion tau = -xbar^-1 ybar^-1 xbar ybar linking the sections.

    section_n(p) = section_s(p) * diag(tau, 1) on the overlap.
    """
    x, y = p.x, p.y
    if x.norm() < TAU_PATCH or y.norm() < TAU_PATCH:
        raise PatchError("patch violation: overlap needs x != 0 and y != 0")
    xb, yb = x.conj(), y.conj()
    return -(xb.inv() * yb.inv() * xb * yb)
