"""Connection forms on the truncated Hilbert bundles, transport, probabilities.

In a trivializing patch the exact connection pairs the coframe coefficients
with the level-m generator matrices,

    A(u) = sum kappa^{ab.}(u) rho(K_ab.) + nu^{a.}_a(u) rho(P^a_a.)
           + mu_{ab}(u) rho(J^{ab}),

is antihermitean, and is flat (the coframe identities are the Maurer-Cartan
equation).  The truncated variant replaces the square roots by partial sums
to order ell+1 and maps level m into the ambient level m+1 block; it is flat
only to the corresponding grade and is not antihermitean, so transport is
offered for the exact mode only.  Parallel transport integrates

    U'(t) = -A(gamma'(t)) U(t),  U(0) = Id

with fixed-step RK4, switching trivialization when the s-patch coordinate
gets small; Born probabilities are |<psi_f, U psi_i>|^2 normalized.
"""

import math
from functools import lru_cache

import numpy as np

from .coframe import (SpherePoint, TangentVector, pullback, toric_embed,
                      toric_tangent)
from .fock import (_lie_to_matrix, build_rho, build_rho_partial, dim,
                   exponentiate)
from .quaternions import qlog
from .u2h import VECTOR_IN_SPINOR

# |x| level at which transport abandons the s patch (and mirrored for n)
PATCH_SWITCH_LEVEL = 0.05


@lru_cache(maxsize=None)
def _rho(m):
    return build_rho(m)


@lru_cache(maxsize=None)
def _rho_partial(m, ell, domain_m):
    return build_rho_partial(m, ell, domain_m=domain_m)


@lru_cache(maxsize=None)
def _rho_j_vector(m):
    return {g: _lie_to_matrix(_rho(m), VECTOR_IN_SPINOR[g])
            for g in ("j1", "j2", "j3")}


def generator_coefficients(u, patch="s"):
    """Complex pairing coefficients of the ten generators on a tangent."""
    c = pullback(u, patch)
    mu, nu, ka = c.mu_dd(), c.nu_dd(), c.kappa_dd()
    return {
        "J++": mu["++"], "J+-": 2 * mu["+-"], "J--": mu["--"],
        "P++": nu["++"], "P+-": nu["+-"], "P-+": nu["-+"], "P--": nu["--"],
        "K++": ka["++"], "K+-": 2 * ka["+-"], "K--": ka["--"],
    }


def connection_matrix(u, m, mode="exact", ell=None, patch="s", domain_m=None):
    """The connection form evaluated on one tangent vector.

    exact mode: D(m) x D(m), antihermitean.  truncated mode: the square
    roots are replaced by partial sums through order ell+1 and the result is
    a D(domain+1) x D(domain) map into the ambient block (domain defaults
    to m; hbar stays 1/m).
    """
    coeffs = generator_coefficients(u, patch)
    if mode == "exact":
        rep = _rho(m)
        d = dim(m)
        out = np.zeros((d, d), dtype=complex)
    elif mode == "truncated":
        if ell is None:
            raise ValueError("truncated mode needs ell")
        dm = m if domain_m is None else domain_m
        rep = _rho_partial(m, ell + 1, dm)
        out = np.zeros((dim(dm + 1), dim(dm)), dtype=complex)
    else:
        raise ValueError("mode must be exact or truncated")
    for name, c in coeffs.items():
        if c:
            out += c * rep[name]
    return out


def connection_sample(u, m, mode="exact", ell=None, patch="s"):
    """Value plus diagnostics; exact mode reports the antihermiticity defect."""
    mat = connection_matrix(u, m, mode, ell, patch)
    info = {"m": m, "mode": mode, "ell": ell, "patch": patch}
    if mode == "exact":
        info["antihermiticity"] = float(np.max(np.abs(mat + mat.conj().T)))
    return mat, info


def curvature_residual(p, u, v, m, mode="exact", ell=None, h=1e-4, patch="s"):
    """Sup-entry norm of dA(u,v) + [A(u), A(v)] via chart central differences.

    u and v are extended to commuting coordinate fields of the normalized
    chart; exact mode residual is O(h^2) plus rounding, truncated mode
    residual decreases with ell at fixed m.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    from .coframe import Chart
    chart = Chart(p, [u, v])

    if mode == "exact":
        def a_of(i_field, s):
            return connection_matrix(chart.frame_vector(i_field, s), m,
                                     "exact", patch=patch)
        a_u = a_of(0, (0.0, 0.0))
        a_v = a_of(1, (0.0, 0.0))
        comm = a_u @ a_v - a_v @ a_u
        return float(np.max(np.abs(chart.exterior_derivative(a_of, h) + comm)))

    if mode != "truncated":
        raise ValueError("mode must be exact or truncated")
    if ell is None:
        raise ValueError("truncated mode needs ell")

    def a_dom(i_field, s):
        return connection_matrix(chart.frame_vector(i_field, s), m,
                                 "truncated", ell, patch, domain_m=m)

    def a_up(w):
        return connection_matrix(w, m, "truncated", ell, patch, domain_m=m + 1)

    u0 = chart.frame_vector(0, (0.0, 0.0))
    v0 = chart.frame_vector(1, (0.0, 0.0))
    comm = a_up(u0) @ a_dom(1, (0.0, 0.0)) - a_up(v0) @ a_dom(0, (0.0, 0.0))
    curv = np.zeros((dim(m + 2), dim(m)), dtype=complex)
    curv[:dim(m + 1), :] = chart.exterior_derivative(a_dom, h)
    curv += comm
    return float(np.max(np.abs(curv)))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

class PathSpec:
    """Parametric curve with analytic tangent, sampled on [t0, t1]."""

    def __init__(self, point_fn, tangent_fn, t0=0.0, t1=1.0, steps=1000,
                 label="path"):
        self.point_fn = point_fn
        self.tangent_fn = tangent_fn
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.steps = int(steps)
        self.label = label

    def point(self, t):
        return self.point_fn(t)

    def tangent(self, t):
        return self.tangent_fn(t)

    @classmethod
    def great_circle(cls, p0, p1, steps=1000):
        """Geodesic arc from p0 to p1 (non-antipodal)."""
        a = p0.as_array8()
        b = p1.as_array8()
        cosw = float(np.clip(a @ b, -1.0, 1.0))
        w = math.acos(cosw)
        if w < 1e-12 or math.pi - w < 1e-12:
            raise ValueError("endpoints coincide or are antipodal")
        bp = (b - cosw * a) / math.sin(w)  # unit, orthogonal to a

        def pt(t):
            return SpherePoint.from_array8(math.cos(w * t) * a
                                           + math.sin(w * t) * bp)

        def tg(t):
            vel = w * (-math.sin(w * t) * a + math.cos(w * t) * bp)
            return TangentVector.from_array8(pt(t), vel)

        return cls(pt, tg, 0.0, 1.0, steps, "great-circle")

    @classmethod
    def great_circle_loop(cls, p0, direction, steps=1000):
        """Full great circle through p0 with initial velocity direction."""
        a = p0.as_array8()
        d = (direction.as_array8() if isinstance(direction, TangentVector)
             else np.asarray(direction, dtype=float))
        d = d - (a @ d) * a
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            raise ValueError("direction is radial")
        d = d / nd
        tau = 2 * math.pi

        def pt(t):
            return SpherePoint.from_array8(math.cos(tau * t) * a
                                           + math.sin(tau * t) * d)

        def tg(t):
            vel = tau * (-math.sin(tau * t) * a + math.cos(tau * t) * d)
            return TangentVector.from_array8(pt(t), vel)

        return cls(pt, tg, 0.0, 1.0, steps, "great-circle-loop")

    @classmethod
    def toric_line(cls, t0, dtheta, steps=1000, label="toric-line"):
        """Fixed radii, angles advancing linearly by dtheta over [0, 1]."""
        from .coframe import ToricPoint
        dtheta = np.asarray(dtheta, dtype=float)

        def at(t):
            return ToricPoint(t0.r, t0.theta + t * dtheta)

        def pt(t):
            return toric_embed(at(t))

        def tg(t):
            return toric_tangent(at(t), dtheta)

        return cls(pt, tg, 0.0, 1.0, steps, label)

    @classmethod
    def reeb_loop(cls, t0, steps=1000):
        """One full Reeb period of the toric flow."""
        tau = 2 * math.pi
        return cls.toric_line(t0, (tau, tau, tau, tau), steps, "reeb-loop")

    @classmethod
    def piecewise(cls, points, steps=1000):
        """Chordal interpolation through sphere points, reprojected.

        Each segment is traversed with a quintic easing, so the composite
        velocity vanishes smoothly at the knots and fixed-step integrators
        keep their order across them.
        """
        arrs = [p.as_array8() if isinstance(p, SpherePoint)
                else np.asarray(p, dtype=float) for p in points]
        nseg = len(arrs) - 1
        if nseg < 1:
            raise ValueError("need at least two points")

        def chord(t):
            s = min(max(t, 0.0), 1.0) * nseg
            i = min(int(s), nseg - 1)
            x = s - i
            lam = x * x * x * (10.0 + x * (-15.0 + 6.0 * x))
            dlam = 30.0 * x * x * (1.0 - x) ** 2
            c = (1 - lam) * arrs[i] + lam * arrs[i + 1]
            dc = (arrs[i + 1] - arrs[i]) * (dlam * nseg)
            return c, dc

        def pt(t):
            c, _ = chord(t)
            return SpherePoint.from_array8(c / np.linalg.norm(c))

        def tg(t):
            c, dc = chord(t)
            nc = np.linalg.norm(c)
            vel = dc / nc - c * (c @ dc) / nc ** 3
            return TangentVector.from_array8(pt(t), vel)

        return cls(pt, tg, 0.0, 1.0, steps, "piecewise")

    @classmethod
    def constant(cls, p0, steps=2):
        def pt(t):
            return p0

        def tg(t):
            return TangentVector(p0, [0.0] * 4, [0.0] * 4)

        return cls(pt, tg, 0.0, 1.0, steps, "constant")

    def to_json(self):
        return {"label": self.label, "t0": self.t0, "t1": self.t1,
                "steps": self.steps}


class TransportResult:
    """Transport unitary with integration diagnostics."""

    __slots__ = ("matrix", "unitarity_residual", "steps", "switches",
                 "start_frame", "end_frame")

    def __init__(self, matrix, unitarity_residual, steps, switches,
                 start_frame, end_frame):
        self.matrix = matrix
        self.unitarity_residual = unitarity_residual
        self.steps = steps
        self.switches = switches
        self.start_frame = start_frame
        self.end_frame = end_frame

    def holonomy_distance(self):
        d = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix - np.eye(d))))

    def to_json(self):
        return {"unitarity_residual": self.unitarity_residual,
                "holonomy_distance": self.holonomy_distance(),
                "steps": self.steps,
                "switches": [[t, a, b] for (t, a, b) in self.switches],
                "start_frame": self.start_frame,
                "end_frame": self.end_frame}


def gauge_matrix(m, p):
    """Unitary representing the transition element diag(tau, 1) at level m.

    diag(log tau, 0) = 2 sum_i (log tau)_i j_i, exponentiated through the
    compact-subalgebra matrices.
    """
    from .quaternions import transition_tau
    tau = transition_tau(p)
    q = qlog(tau)
    rho_j = _rho_j_vector(m)
    gen = 2.0 * (q.q1 * rho_j["j1"] + q.q2 * rho_j["j2"] + q.q3 * rho_j["j3"])
    return exponentiate(gen, 1.0, tol=1e-8)


def _preferred_frame(p):
    return "s" if p.x.norm() >= p.y.norm() else "n"


def parallel_transport(path, m, steps=None, reproject=False,
                       start_frame=None):
    """Integrate the exact flat connection along a path with fixed-step RK4.

    Frames switch between the two trivializing patches when the active
    coordinate drops below PATCH_SWITCH_LEVEL; each switch conjugates the
    accumulated operator by the transition unitary and is logged.  Transports
    compose, U(g2 after g1) = U(g2) U(g1), when computed in matching frames;
    start_frame pins the trivialization (default: the larger coordinate at
    the start point).  With reproject=True the operator is polar-reprojected
    onto the unitary group after every step (off by default; drift is a
    useful diagnostic).
    """
    steps = path.steps if steps is None else int(steps)
    if steps < 2:
        raise ValueError("need at least 2 steps")
    d = dim(m)
    u_op = np.eye(d, dtype=complex)
    t0, t1 = path.t0, path.t1
    h = (t1 - t0) / steps
    frame = (_preferred_frame(path.point(t0)) if start_frame is None
             else start_frame)
    start_frame = frame
    switches = []

    def rhs(t, frame):
        a = connection_matrix(path.tangent(t), m, "exact", patch=frame)
        return -a

    for k in range(steps):
        t = t0 + k * h
        p_next = path.point(t + h)
        a0 = rhs(t, frame)
        amid = rhs(t + h / 2, frame)
        a1 = rhs(t + h, frame)
        k1 = a0 @ u_op
        k2 = amid @ (u_op + (h / 2) * k1)
        k3 = amid @ (u_op + (h / 2) * k2)
        k4 = a1 @ (u_op + h * k3)
        u_op = u_op + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if reproject:
            w, _, vh = np.linalg.svd(u_op)
            u_op = w @ vh
        # patch management at the end of the step
        coord = p_next.x.norm() if frame == "s" else p_next.y.norm()
        if coord < PATCH_SWITCH_LEVEL:
            new_frame = "n" if frame == "s" else "s"
            g = gauge_matrix(m, p_next)
            u_op = (g.conj().T @ u_op) if frame == "s" else (g @ u_op)
            switches.append((t + h, frame, new_frame))
            frame = new_frame

    end_frame = frame
    if end_frame != start_frame:
        # express the result in the frame the path started in (the endpoint
        # must lie in the overlap for this to be meaningful)
        p_end = path.point(t1)
        g = gauge_matrix(m, p_end)
        u_op = (g @ u_op) if end_frame == "n" else (g.conj().T @ u_op)
        end_frame = start_frame
    res = float(np.max(np.abs(u_op.conj().T @ u_op - np.eye(d))))
    return TransportResult(u_op, res, steps, switches, start_frame, end_frame)


def born_probability(psi_i, psi_f, path, m, steps=None):
    """|<psi_f, U psi_i>|^2 / (|psi_f|^2 |psi_i|^2) for the path transport."""
    psi_i = np.asarray(psi_i, dtype=complex)
    psi_f = np.asarray(psi_f, dtype=complex)
    ni = float(np.vdot(psi_i, psi_i).real)
    nf = float(np.vdot(psi_f, psi_f).real)
    if ni == 0.0 or nf == 0.0:
        raise ValueError("states must be nonzero")
    result = parallel_transport(path, m, steps)
    amp = complex(np.vdot(psi_f, result.matrix @ psi_i))
    return abs(amp) ** 2 / (ni * nf), result


def reeb_transport(t0, m, steps=10_000):
    """Transport around one Reeb period; flat + contractible means U ~ Id."""
    return parallel_transport(PathSpec.reeb_loop(t0, steps), m)


def alpha_coefficient_probe(u, m1=2, m2=3, ell=0):
    """Extract the deformation-leading scalar of the truncated connection.

    The diagonal entry at the vacuum state is exactly linear in the level,
    <0|A|0> = i alpha(u) (m - 1), so a two-point difference recovers the
    coefficient of the identity block in the hbar^{-1} term; it must equal
    alpha(u).
    """
    a1 = connection_matrix(u, m1, "truncated", ell)
    a2 = connection_matrix(u, m2, "truncated", ell)
    val = (a2[0, 0] - a1[0, 0]) / (1j * (m2 - m1))
    return complex(val)
