"""Quaternions and quaternionic 2x2 matrices as arrays; the group sections.

A quaternion q = q0 + q1*i + q2*j + q3*k is a float array whose last axis
holds (q0, q1, q2, q3); a quaternionic 2x2 matrix [[w, x], [z, y]] is an
array of shape (..., 2, 2, 4).  Every product goes through the one table
QMUL of i^2 = j^2 = k^2 = ijk = -1; qcomplex gives the complex 4x4 form.
Conjugation is qbar = q0 - q1*i - q2*j - q3*k and |q|^2 = qbar q.  The
sphere S^7 sits in H^2 as |x|^2 + |y|^2 = 1 and carries two sections of the
quaternionic unitary group, one valid where x != 0 and one where y != 0,
related on the overlap by right multiplication with diag(tau, 1).
"""

import numpy as np

from .tolerances import TAU_PATCH


class PatchError(ValueError):
    """Raised when a chart/section is evaluated where it is not defined."""


# QMUL[4 a + b]: the components of the product e_a e_b of the basis
# quaternions (e_0, e_1, e_2, e_3) = (1, i, j, k)
QMUL = np.array([
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],      # 1 e_b
    [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0],    # i e_b
    [0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0],    # j e_b
    [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0],    # k e_b
])
QCONJ = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(a, b):
    """Quaternion products a b, broadcast over the leading axes."""
    ab = a[..., :, None] * b[..., None, :]
    return ab.reshape(ab.shape[:-2] + (16,)) @ QMUL


def qnorm(q):
    return np.sqrt(np.sum(q * q, axis=-1))


def qinv(q):
    """qbar / |q|^2; a zero quaternion gives inf or nan, so callers check
    the patch first."""
    return q * QCONJ / np.sum(q * q, axis=-1)[..., None]


def qmatmul(a, b):
    """Products of quaternionic 2x2 matrices, broadcast over the leading
    axes; exact on integer entries."""
    return np.einsum("...rki,...kcj,ijl->...rcl", a, b,
                     QMUL.reshape(4, 4, 4))


def qdagger(a):
    """Quaternionic conjugate transpose of 2x2 matrices."""
    return a.swapaxes(-3, -2) * QCONJ


# _QBLOCK[a]: the complex 2x2 block of the basis quaternion e_a
_QBLOCK = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                    [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])


def qcomplex(a):
    """The complex 4x4 form of quaternionic 2x2 matrices (..., 2, 2, 4):
    entry q becomes the block [[q0 + i q1, q2 + i q3], [-q2 + i q3,
    q0 - i q1]].  It takes qmatmul to @ and qdagger to the conjugate
    transpose, exactly on integer entries."""
    out = np.einsum("...rca,aij->...ricj", a, _QBLOCK)
    return out.reshape(out.shape[:-4] + (4, 4))


def section_s(p):
    """Group element [[-xbar^-1 ybar xbar, x], [xbar, y]] over the x != 0
    patch.  Its second column is the point (x, y) itself."""
    x, y = p.x, p.y
    if qnorm(x) < TAU_PATCH:
        raise PatchError(f"patch violation: x = 0 on the s patch at {p}")
    xb = x * QCONJ
    w = -qmul(qmul(qinv(xb), y * QCONJ), xb)
    return np.array([[w, x], [xb, y]])


def section_n(p):
    """Group element [[ybar, x], [-ybar^-1 xbar ybar, y]] over the y != 0
    patch."""
    x, y = p.x, p.y
    if qnorm(y) < TAU_PATCH:
        raise PatchError(f"patch violation: y = 0 on the n patch at {p}")
    yb = y * QCONJ
    z = -qmul(qmul(qinv(yb), x * QCONJ), yb)
    return np.array([[yb, x], [z, y]])


def transition_tau(p):
    """Unit quaternion tau = -xbar^-1 ybar^-1 xbar ybar linking the sections:
    section_n(p) = section_s(p) diag(tau, 1) on the overlap."""
    x, y = p.x, p.y
    if qnorm(x) < TAU_PATCH or qnorm(y) < TAU_PATCH:
        raise PatchError("patch violation: overlap needs x != 0 and y != 0")
    xb, yb = x * QCONJ, y * QCONJ
    return -qmul(qmul(qmul(qinv(xb), qinv(yb)), xb), yb)
