"""Points, tangents and the pulled-back coframe on the seven-sphere.

The unit sphere in H^2 carries, over the patch x != 0, the coframe

    kappa = 2(xbar dx + ybar dy)                   (global, purely imaginary)
    nu    = 2(x dy - x y x^-1 dx)                  (full quaternion)
    mu    = (2/|x|^2)(x dxbar + x y dybar xbar)
            + 2 x y x^-1 d(xbar^-1) ybar xbar      (purely imaginary)

with d(xbar^-1) = -xbar^-1 dxbar xbar^-1, and mirror formulas with x and y
exchanged over the patch y != 0.  Components are repackaged into the complex
double-index coefficients used to couple the coframe to Lie algebra
generators.  Finite differences along normalized-chart lines verify the ten
first-order identities the coframe satisfies.
"""

import json
import math
import warnings

import numpy as np

from .quaternions import (PatchError, QJ, QMatrix2, Quaternion, section_n,
                          section_s, transition_tau)
from .tolerances import TAU_PATCH, TAU_SPHERE


def _eps3(i, j, k):
    if {i, j, k} != {0, 1, 2}:
        return 0
    return 1 if (j - i) % 3 == 1 else -1


class SpherePoint:
    """A point (x, y) of the unit sphere in H^2; inputs are projected."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = x if isinstance(x, Quaternion) else Quaternion.from_seq(x)
        y = y if isinstance(y, Quaternion) else Quaternion.from_seq(y)
        n = math.sqrt(x.normsq() + y.normsq())
        if n == 0.0:
            raise ValueError("cannot project the origin to the sphere")
        if abs(n - 1.0) > TAU_SPHERE:
            warnings.warn(f"sphere constraint violated by {abs(n-1.0):.3g}; "
                          "input normalized")
        self.x = x * (1.0 / n)
        self.y = y * (1.0 / n)

    @classmethod
    def from_array8(cls, arr):
        return cls(Quaternion.from_seq(arr[:4]), Quaternion.from_seq(arr[4:]))

    def as_array8(self):
        return np.concatenate([self.x.components(), self.y.components()])

    def in_patch_s(self, tol=TAU_PATCH):
        return self.x.norm() >= tol

    def in_patch_n(self, tol=TAU_PATCH):
        return self.y.norm() >= tol

    def to_json(self):
        return {"x": list(self.x.components()), "y": list(self.y.components())}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(obj["x"], obj["y"])

    def __repr__(self):
        return f"SpherePoint(x={self.x}, y={self.y})"


class TangentVector:
    """Ambient vector (dx, dy) at a base point, projected onto the sphere."""

    __slots__ = ("base", "dx", "dy")

    def __init__(self, base, dx, dy):
        dx = dx if isinstance(dx, Quaternion) else Quaternion.from_seq(dx)
        dy = dy if isinstance(dy, Quaternion) else Quaternion.from_seq(dy)
        p8 = base.as_array8()
        u8 = np.concatenate([dx.components(), dy.components()])
        viol = float(p8 @ u8)
        if abs(viol) > TAU_SPHERE:
            warnings.warn(f"tangency constraint violated by {abs(viol):.3g}; "
                          "input projected")
        u8 = u8 - viol * p8
        self.base = base
        self.dx = Quaternion.from_seq(u8[:4])
        self.dy = Quaternion.from_seq(u8[4:])

    @classmethod
    def from_array8(cls, base, arr):
        return cls(base, Quaternion.from_seq(arr[:4]),
                   Quaternion.from_seq(arr[4:]))

    def as_array8(self):
        return np.concatenate([self.dx.components(), self.dy.components()])

    def scale(self, c):
        return TangentVector(self.base, self.dx * c, self.dy * c)

    def to_json(self):
        return {**self.base.to_json(),
                "dx": list(self.dx.components()),
                "dy": list(self.dy.components())}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        base = SpherePoint(obj["x"], obj["y"])
        return cls(base, obj["dx"], obj["dy"])

    def __repr__(self):
        return f"TangentVector(dx={self.dx}, dy={self.dy} at {self.base})"


def random_point(rng, min_patch=0.0):
    while True:
        arr = rng.standard_normal(8)
        arr /= np.linalg.norm(arr)
        p = SpherePoint.from_array8(arr)
        if p.x.norm() > min_patch and p.y.norm() > min_patch:
            return p


def random_tangent(rng, p, scale=1.0):
    p8 = p.as_array8()
    u8 = rng.standard_normal(8) * scale
    u8 -= (p8 @ u8) * p8
    return TangentVector.from_array8(p, u8)


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
    nu holds all four.  The complex double-index coefficients are derived
    fields; `alpha` is the global contact form -kappa^3/2 = 2 kappa^{+.-.}.
    """

    __slots__ = ("mu", "nu", "kappa", "mu_real", "kappa_real", "patch")

    def __init__(self, mu_q, nu_q, kappa_q, patch):
        self.mu = mu_q.vec()
        self.nu = nu_q.components()
        self.kappa = kappa_q.vec()
        self.mu_real = mu_q.q0
        self.kappa_real = kappa_q.q0
        self.patch = patch

    def components10(self):
        """(mu1..3, nu0..3, kappa1..3) as a flat real vector."""
        return np.concatenate([self.mu, self.nu, self.kappa])

    def alpha(self):
        return -self.kappa[2] / 2.0

    def mu_dd(self):
        m1, m2, m3 = self.mu
        return {"++": (-m1 - 1j * m2) / 4, "+-": -m3 / 4,
                "--": (m1 - 1j * m2) / 4}

    def nu_dd(self):
        """Keys 'a adot': first char undotted index, second dotted."""
        n0, n1, n2, n3 = self.nu
        return {"++": (-n3 + 1j * n0) / 2, "-+": (n1 - 1j * n2) / 2,
                "+-": -(n1 + 1j * n2) / 2, "--": -(n3 + 1j * n0) / 2}

    def kappa_dd(self):
        k1, k2, k3 = self.kappa
        return {"++": (k1 - 1j * k2) / 4, "+-": -k3 / 4,
                "--": -(k1 + 1j * k2) / 4}


def _pullback(a, b, da, db, patch):
    """Coframe over the chart where a is invertible: (a, b) = (x, y) on the
    s patch and (y, x) on the n patch; kappa is the same on both."""
    ab = a.conj()
    kappa = (ab * da + b.conj() * db) * 2.0
    ainv = a.inv()
    nu = (a * db - a * b * ainv * da) * 2.0
    dab = da.conj()
    abinv = ab.inv()
    d_abinv = -(abinv * dab * abinv)
    mu = ((a * dab + a * b * db.conj() * ab) * (2.0 / a.normsq())
          + (a * b * ainv * d_abinv * b.conj() * ab) * 2.0)
    return CoframeSample(mu, nu, kappa, patch)


def pullback_s(u):
    """Coframe over the x != 0 patch evaluated on u."""
    p = u.base
    if not p.in_patch_s():
        raise PatchError("patch violation: |x| ~ 0 in pullback_s")
    return _pullback(p.x, p.y, u.dx, u.dy, "s")


def pullback_n(u):
    """Coframe over the y != 0 patch evaluated on u."""
    p = u.base
    if not p.in_patch_n():
        raise PatchError("patch violation: |y| ~ 0 in pullback_n")
    return _pullback(p.y, p.x, u.dy, u.dx, "n")


def pullback(u, patch="auto"):
    if patch == "s":
        return pullback_s(u)
    if patch == "n":
        return pullback_n(u)
    p = u.base
    # prefer the chart with the larger coordinate
    return pullback_s(u) if p.x.norm() >= p.y.norm() else pullback_n(u)


def contact_alpha(u):
    """alpha(u) = -kappa^3(u)/2 = 2 kappa^{+.-.}(u), patch independent."""
    return pullback(u).alpha()


def maurer_cartan_matrix(u, patch="s"):
    """(1/2)[[mu, nu], [-nubar, kappa]] assembled from the coframe values."""
    c = pullback(u, patch)
    mu = Quaternion(c.mu_real, *c.mu)
    nu = Quaternion.from_seq(c.nu)
    kappa = Quaternion(c.kappa_real, *c.kappa)
    return QMatrix2(mu, nu, -nu.conj(), kappa).scale(0.5)


def section_pullback_fd(u, patch="s", h=1e-6):
    """Finite-difference oracle g^dagger (dg/dt) for the coframe formulas."""
    p8 = u.base.as_array8()
    u8 = u.as_array8()
    sec = section_s if patch == "s" else section_n

    def g_at(s):
        q = p8 + s * u8
        return sec(SpherePoint.from_array8(q / np.linalg.norm(q)))

    gp, gm = g_at(h), g_at(-h)
    dg = (gp - gm).scale(1.0 / (2 * h))
    return sec(u.base).dagger() * dg


class Chart:
    """Normalized-affine chart around a base point.

    Coordinate lines are s -> (p + sum_i s_i d_i)/|...|; the associated
    coordinate vector fields commute, and their pushforwards at displaced
    points are analytic, so only the outer derivative of a form evaluation
    needs finite differencing.
    """

    def __init__(self, p, directions):
        self.p8 = p.as_array8()
        self.dirs = [d.as_array8() if isinstance(d, TangentVector) else
                     np.asarray(d, dtype=float) for d in directions]

    def point(self, s):
        q = self.p8 + sum(si * di for si, di in zip(s, self.dirs))
        return SpherePoint.from_array8(q / np.linalg.norm(q))

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


def _coframe10(u, patch):
    return pullback(u, patch).components10()


def eds_residual(p, u, v, h=1e-4, patch="s", richardson=False):
    """Absolute residuals of the ten exterior-system identities at (p; u, v).

    The exterior derivative is evaluated as u[w(V)] - v[w(U)] for the
    commuting chart extensions of u and v, by central differences of step h
    (optionally Richardson-extrapolated with the half step).  Returns a
    length-10 array ordered (mu^i, nu^i, nu^0, kappa^i).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    chart = Chart(p, [u, v])

    def omega(i_field, s):
        return _coframe10(chart.frame_vector(i_field, s), patch)

    dw = chart.exterior_derivative(omega, h)  # dω(u, v) componentwise
    if richardson:
        dw = (4.0 * chart.exterior_derivative(omega, h / 2) - dw) / 3.0

    cu = _coframe10(TangentVector(p, u.dx, u.dy), patch)
    cv = _coframe10(TangentVector(p, v.dx, v.dy), patch)

    def wedge(a, b):
        # (w_a ^ w_b)(u, v) for component indices a, b of the 10-vector
        return cu[a] * cv[b] - cv[a] * cu[b]

    MU, NU0, NU, KAP = 0, 3, 4, 7  # offsets into the 10-vector
    res = np.zeros(10)
    for i in range(3):
        acc = dw[MU + i]
        for j in range(3):
            for k in range(3):
                e = _eps3(i, j, k)
                if e:
                    acc += 0.5 * e * (wedge(MU + j, MU + k)
                                      + wedge(NU + j, NU + k))
        acc += wedge(NU0, NU + i)
        res[i] = acc
    for i in range(3):
        acc = dw[NU + i]
        for j in range(3):
            for k in range(3):
                e = _eps3(i, j, k)
                if e:
                    acc += 0.5 * e * (wedge(MU + j, NU + k)
                                      + wedge(KAP + j, NU + k))
        acc -= 0.5 * (wedge(NU0, MU + i) - wedge(NU0, KAP + i))
        res[3 + i] = acc
    acc = dw[NU0]
    for i in range(3):
        acc += 0.5 * (wedge(NU + i, MU + i) - wedge(NU + i, KAP + i))
    res[6] = acc
    for i in range(3):
        acc = dw[KAP + i]
        for j in range(3):
            for k in range(3):
                e = _eps3(i, j, k)
                if e:
                    acc += 0.5 * e * (wedge(KAP + j, KAP + k)
                                      + wedge(NU + j, NU + k))
        acc -= wedge(NU0, NU + i)
        res[7 + i] = acc
    return np.abs(res)


def gauge_overlap_check(p, u, h=1e-5):
    """Residual of mu_n = taubar mu tau + 2 taubar (d tau) on one tangent.

    The derivative of the transition quaternion along u is a central
    difference on the normalized chart line through p with velocity u.
    """
    mu_s = pullback_s(u)
    mu_n = pullback_n(u)
    q_mu_s = Quaternion(mu_s.mu_real, *mu_s.mu)
    q_mu_n = Quaternion(mu_n.mu_real, *mu_n.mu)
    tau = transition_tau(p)
    chart = Chart(p, [u])
    tp = transition_tau(chart.point((h,)))
    tm = transition_tau(chart.point((-h,)))
    dtau = (tp - tm) * (1.0 / (2 * h))
    predicted = tau.conj() * q_mu_s * tau + tau.conj() * dtau * 2.0
    return (q_mu_n - predicted).norm()


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
        r = np.asarray(r, dtype=float)
        theta = np.mod(np.asarray(theta, dtype=float), 2 * math.pi)
        n = float(np.linalg.norm(r))
        if n == 0.0:
            raise ValueError("all radii vanish")
        if abs(n - 1.0) > TAU_SPHERE:
            warnings.warn(f"radius constraint violated by {abs(n-1.0):.3g}; "
                          "input normalized")
        self.r = r / n
        self.theta = theta


def _circ(theta):
    # e^{-k theta}
    return Quaternion(math.cos(theta), 0.0, 0.0, -math.sin(theta))


def toric_embed(t):
    x = _circ(t.theta[0]) * t.r[0] + QJ * _circ(t.theta[1]) * t.r[1]
    y = _circ(t.theta[2]) * t.r[2] + QJ * _circ(t.theta[3]) * t.r[3]
    return SpherePoint(x, y)


def toric_tangent(t, dtheta, dr=(0.0, 0.0, 0.0, 0.0)):
    """Pushforward of a toric-coordinate velocity to the ambient tangent."""
    dtheta = np.asarray(dtheta, dtype=float)
    dr = np.asarray(dr, dtype=float)
    mk = Quaternion(0.0, 0.0, 0.0, -1.0)
    parts = []
    for idx in range(4):
        circ = _circ(t.theta[idx])
        d_ang = mk * circ * (t.r[idx] * dtheta[idx])
        d_rad = circ * dr[idx]
        q = d_ang + d_rad
        parts.append(QJ * q if idx % 2 else q)
    dx = parts[0] + parts[1]
    dy = parts[2] + parts[3]
    return TangentVector(toric_embed(t), dx, dy)


def reeb_flow(t, s):
    """Advance every angle by s; one period is s = 2*pi."""
    return ToricPoint(t.r, t.theta + s)


def reeb_tangent(t):
    return toric_tangent(t, (1.0, 1.0, 1.0, 1.0))
