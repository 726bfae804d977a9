"""Points, tangents and the pulled-back coframe on the seven-sphere.

The unit sphere in H^2 carries, over the patch x != 0, the coframe

    kappa = 2(xbar dx + ybar dy)                   (global, purely imaginary)
    nu    = 2(x dy - x y x^-1 dx)                  (full quaternion)
    mu    = (2/|x|^2)(x dxbar + x y dybar xbar)
            + 2 x y x^-1 d(xbar^-1) ybar xbar      (purely imaginary)

with d(xbar^-1) = -xbar^-1 dxbar xbar^-1, and mirror formulas with x and y
exchanged over the patch y != 0.  The coframe is the pulled-back
Maurer-Cartan form 2 g^-1 dg = [[mu, nu], [-nubar, kappa]] of the patch's
section g; components10 are its coefficients on the vector generators of
u2h, and the u2h basis change turns them into the complex coefficients of
the spinor generators.  Its ten identities are the structure equations
dw + [w, w]/2 = 0 with the u2h bracket, checked by finite differences along
normalized-chart lines.  The two patches' forms differ by the gauge
transition diag(tau, 1), which connection.gauge_matrix lifts to a level.
"""

import math
import warnings

import numpy as np

from .quaternions import QCONJ, PatchError, qinv, qmul, qnorm
from .tolerances import TAU_PATCH, TAU_SPHERE
from .u2h import basis_maps, bracket_table, float_image

# _SPINOR[a, g]: coefficient of spinor generator g in vector generator a, so
# components10 rows c pair with the spinor generators as c @ _SPINOR
_SPINOR = float_image(basis_maps()[1])
# _BRACKET[a, b, c]: coefficient of vector generator a in [b, c] (all real)
_BRACKET = np.ascontiguousarray(np.moveaxis(
    float_image(bracket_table("vector")).real, 2, 0))


def _warn_if_off(viol, constraint, action):
    if viol > TAU_SPHERE:
        warnings.warn(f"{constraint} constraint violated by {viol:.3g}; "
                      f"input {action}")


def _rescaled(v, size):
    """(w, size(w), |v|): w is v (..., k) with each row whose norm size(v)
    lies outside [2**-250, 2**250] divided by its largest |entry|, as there
    the norm, or a product of two, can overflow or lose digits to underflow;
    |v| is the norm of v itself, inf past the float range.  Rows inside the
    range pass bit for bit."""
    with np.errstate(over="ignore", under="ignore"):
        n = size(v)
        far = ~((n >= 2.0 ** -250) & (n <= 2.0 ** 250)) & np.any(v, axis=-1)
        if not far.any():
            return v, n, n
        scale = np.where(far, np.max(np.abs(v), axis=-1), 1.0)
        v = v / scale[..., None]
        n = size(v)
        return v, n, scale * n


def _norm8(p8):
    sq = p8 * p8
    return np.sqrt(np.sum(sq[:, :4], axis=1) + np.sum(sq[:, 4:], axis=1))


def to_sphere(p8):
    """Rows of p8 scaled onto the unit sphere, with a warning when a row was
    off it by more than TAU_SPHERE."""
    p8, n, norm = _rescaled(p8, _norm8)
    if np.any(n == 0.0):
        raise ValueError("cannot project the origin to the sphere")
    _warn_if_off(float(np.max(np.abs(norm - 1.0))), "sphere", "normalized")
    return p8 * (1.0 / n)[:, None]


def to_tangent(p8, u8):
    """Rows of u8 projected onto the tangent spaces at the unit rows of p8,
    with a warning when a row was off by more than TAU_SPHERE."""
    radial = (p8[:, None, :] @ u8[:, :, None])[:, 0, 0]
    _warn_if_off(float(np.max(np.abs(radial))), "tangency", "projected")
    return u8 - radial[:, None] * p8


def _as8(x, y):
    return np.concatenate([x, y], dtype=float)[None]


class _Coordinate(np.ndarray):
    """A point's coordinate quaternion, a (4,) array whose norm() is its
    qnorm, for callers that read it as an object with a norm."""

    def norm(self):
        return float(qnorm(self))


class SpherePoint:
    """A point (x, y) of the unit sphere in H^2, x and y (4,) quaternion
    arrays; inputs are projected."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        p8 = to_sphere(_as8(x, y))[0].view(_Coordinate)
        self.x, self.y = p8[:4], p8[4:]

    @classmethod
    def from_array8(cls, arr):
        return cls(arr[:4], arr[4:])

    def as_array8(self):
        return np.concatenate([self.x, self.y])

    def __repr__(self):
        return f"SpherePoint(x={self.x}, y={self.y})"


class TangentVector:
    """Ambient vector (dx, dy) at a base point, projected onto the sphere."""

    __slots__ = ("base", "dx", "dy")

    def __init__(self, base, dx, dy):
        u8 = to_tangent(base.as_array8()[None], _as8(dx, dy))[0]
        self.base = base
        self.dx, self.dy = u8[:4], u8[4:]

    @classmethod
    def from_array8(cls, base, arr):
        return cls(base, arr[:4], arr[4:])

    def as_array8(self):
        return np.concatenate([self.dx, self.dy])

    def __repr__(self):
        return f"TangentVector(dx={self.dx}, dy={self.dy} at {self.base})"


def random_point(rng, min_patch=0.0):
    while True:
        arr = rng.standard_normal(8)
        arr /= np.linalg.norm(arr)
        p = SpherePoint.from_array8(arr)
        if qnorm(p.x) > min_patch and qnorm(p.y) > min_patch:
            return p


def random_unit_tangent(rng, p, length=1.0):
    """Tangent drawn uniformly on the tangent sphere, rescaled to `length`."""
    p8 = p.as_array8()
    u8 = rng.standard_normal(8)
    u8 -= (p8 @ u8) * p8
    u8 *= length / np.linalg.norm(u8)
    return TangentVector.from_array8(p, u8)


class CoframeSample:
    """Values of the ten coframe components on one tangent vector.

    mu, kappa hold the imaginary components (index 1..3 of the quaternion);
    nu holds all four.  `alpha` is the global contact form
    -kappa^3/2 = 2 kappa^{+.-.}.
    """

    __slots__ = ("mu", "nu", "kappa", "mu_real", "kappa_real")

    def __init__(self, mu, nu, kappa):
        self.mu = mu[1:]
        self.nu = nu
        self.kappa = kappa[1:]
        self.mu_real = float(mu[0])
        self.kappa_real = float(kappa[0])

    def components10(self):
        """(mu1..3, nu0..3, kappa1..3), the coefficients on the vector
        generators (j1..3, p0..3, k1..3), as a flat real vector."""
        return np.concatenate([self.mu, self.nu, self.kappa])

    def alpha(self):
        return -self.kappa[2] / 2.0

    def kappa_dd(self):
        """The double-index kappa coefficients; K+- pairs with 2 kappa^{+.-.}."""
        k = (self.components10() @ _SPINOR)[7:]
        return {"++": k[0], "+-": k[1] / 2, "--": k[2]}


def _coframe(p8, u8, patch):
    """mu, nu, kappa as (N, 4) quaternion rows on the tangents u8 at the
    points p8, over the chart where a is invertible: (a, b) = (x, y) on the
    s patch and (y, x) on the n patch; kappa is the same on both."""
    a, b, da, db = p8[:, :4], p8[:, 4:], u8[:, :4], u8[:, 4:]
    if patch == "n":
        a, b, da, db = b, a, db, da
    normsq = np.sum(a * a, axis=1)
    if np.min(np.sqrt(normsq)) < TAU_PATCH:
        name = "x" if patch == "s" else "y"
        raise PatchError(f"patch violation: |{name}| ~ 0 on the {patch} patch")
    ab = a * QCONJ
    kappa = (qmul(ab, da) + qmul(b * QCONJ, db)) * 2.0
    a_b = qmul(a, b)
    a_b_ainv = qmul(a_b, qinv(a))
    nu = (qmul(a, db) - qmul(a_b_ainv, da)) * 2.0
    abinv = qinv(ab)
    d_abinv = -qmul(qmul(abinv, da * QCONJ), abinv)
    mu = ((qmul(a, da * QCONJ) + qmul(qmul(a_b, db * QCONJ), ab))
          * (2.0 / normsq)[:, None]
          + qmul(qmul(qmul(a_b_ainv, d_abinv), b * QCONJ), ab) * 2.0)
    return mu, nu, kappa


def _pullback(p8, u8, patch):
    """(N, 10) complex generator coefficients of the coframe over the patch
    on the tangents u8 at the points p8, in SPINOR_GENERATORS order; J+- and
    K+- carry the factor 2 of the symmetric index pair."""
    mu, nu, kappa = _coframe(p8, u8, patch)
    return np.concatenate([mu[:, 1:], nu, kappa[:, 1:]], axis=1) @ _SPINOR


def preferred_patch(p):
    """The chart with the larger coordinate at p."""
    return "s" if qnorm(p.x) >= qnorm(p.y) else "n"


def pullback(u, patch="auto"):
    """The coframe on u over the patch: "s" (x != 0), "n" (y != 0), or
    "auto", the preferred_patch of u's base point."""
    patch = preferred_patch(u.base) if patch == "auto" else patch
    rows = _coframe(u.base.as_array8()[None], u.as_array8()[None], patch)
    return CoframeSample(*(r[0] for r in rows))


class Chart:
    """Normalized-affine chart around a base point.

    Coordinate lines are s -> (p + sum_i s_i d_i)/|...|; the associated
    coordinate vector fields commute, and their pushforwards at displaced
    points are analytic, so only the outer derivative of a form evaluation
    needs finite differencing.
    """

    def __init__(self, p, directions):
        self.p8 = p.as_array8()
        self.dirs = [d.as_array8() for d in directions]

    def frame_vector(self, i, s):
        """Pushforward of the i-th coordinate field at chart coordinates s."""
        q = self.p8 + sum(si * di for si, di in zip(s, self.dirs))
        nq = np.linalg.norm(q)
        e = self.dirs[i]
        v = e / nq - q * (q @ e) / nq ** 3
        base = SpherePoint.from_array8(q / nq)
        return TangentVector.from_array8(base, v)

    def exterior_derivative(self, form, h):
        """u[w(V)] - v[w(U)] by central differences of step h, where
        form(i, s) is w on the i-th coordinate field at chart coordinates s."""
        d_u_wv = (form(1, (h, 0.0)) - form(1, (-h, 0.0))) / (2 * h)
        d_v_wu = (form(0, (0.0, h)) - form(0, (0.0, -h))) / (2 * h)
        return d_u_wv - d_v_wu


def eds_residual(p, u, v, h=1e-4):
    """Absolute residuals of the structure equations dw + [w, w]/2 = 0 of
    the coframe w at (p; u, v), in components10 order.

    The exterior derivative is evaluated as u[w(V)] - v[w(U)] for the
    commuting chart extensions of u and v, by central differences of step h.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    chart = Chart(p, [u, v])

    def omega(i_field, s):
        return pullback(chart.frame_vector(i_field, s), "s").components10()

    dw = chart.exterior_derivative(omega, h)  # dω(u, v) componentwise
    cu, cv = (pullback(TangentVector(p, w.dx, w.dy), "s").components10()
              for w in (u, v))
    # [w, w](u, v)/2 = [w(u), w(v)], componentwise B[a, b, c] cu[b] cv[c]
    return np.abs(dw + _BRACKET @ cv @ cu)


# ---------------------------------------------------------------------------
# toric coordinates and the Reeb flow
# ---------------------------------------------------------------------------

class ToricPoint:
    """Radii/angle coordinates adapted to the four circle actions.

    x = r1 e^{-k t1} + j r2 e^{-k t2},  y = r3 e^{-k t3} + j r4 e^{-k t4},
    with r1^2 + .. + r4^2 = 1.  Angles at vanishing radii are stored but
    meaningless; the embedding stays well defined there.
    """

    __slots__ = ("r", "theta")

    def __init__(self, r, theta):
        r, n, norm = _rescaled(np.asarray(r, dtype=float), np.linalg.norm)
        theta = np.mod(np.asarray(theta, dtype=float), 2 * math.pi)
        if n == 0.0:
            raise ValueError("all radii vanish")
        _warn_if_off(abs(float(norm) - 1.0), "radius", "normalized")
        self.r = r / n
        self.theta = theta


# ambient coordinates of a toric point from z_i = r_i e^{i theta_i}:
# x = (Re z1, -Im z2, Re z2, -Im z1), y likewise from z3, z4, as columns of
# [Re z, -Im z]
_TORIC_COLS = [0, 5, 1, 4, 2, 7, 3, 6]


def _toric8(re, im):
    return np.concatenate([re, -im], axis=1)[:, _TORIC_COLS]


def toric_rows(r, theta, dtheta):
    """Ambient points and velocities (N, 8), not yet projected, of the toric
    coordinates with fixed radii r and angle rows theta (N, 4) moving with
    angular velocity dtheta."""
    c, s = np.cos(theta), np.sin(theta)
    rd = r * np.asarray(dtheta)
    return _toric8(r * c, r * s), _toric8(-rd * s, rd * c)


def toric_embed(t):
    return SpherePoint.from_array8(toric_rows(t.r, t.theta[None], 0.0)[0][0])


def toric_tangent(t, dtheta):
    """Pushforward of an angular velocity at fixed radii to the ambient
    tangent."""
    p8, u8 = toric_rows(t.r, t.theta[None], dtheta)
    return TangentVector.from_array8(SpherePoint.from_array8(p8[0]), u8[0])


def reeb_flow(t, s):
    """Advance every angle by s; one period is s = 2*pi."""
    return ToricPoint(t.r, t.theta + s)


def reeb_tangent(t):
    return toric_tangent(t, (1.0, 1.0, 1.0, 1.0))
