"""Connection forms on the truncated Hilbert bundles, transport, probabilities.

In a trivializing patch the exact connection pairs the coframe coefficients
with the level-m generator matrices,

    A(u) = sum kappa^{ab.}(u) rho(K_ab.) + nu^{a.}_a(u) rho(P^a_a.)
           + mu_{ab}(u) rho(J^{ab}),

is antihermitean, and is flat (the coframe identities are the Maurer-Cartan
equation).  The truncated variant replaces the square roots by partial sums
to order ell+1 and maps level m into the ambient level m+1 block; it is flat
only to the corresponding grade and is not antihermitean, so transport is
offered for the exact connection only; ell=None selects it, an integer
ell the truncation.  A PathSpec is a curve gamma on [0, 1] with its step
count.  The exact connection is A = rho(g^-1 dg) for the section g of a
patch, so U'(t) = -A(gamma'(t)) U(t), U(0) = Id, is solved by
rho(g(gamma(t)))^-1 rho(g(gamma(0))); parallel_transport(path, m) takes g
from the frame the path starts in, and the steps resolve only the scan
for patch switches.  That scan evaluates only the steps near a chart
crossing, which every PathSpec has in closed form, so its work does not
grow with the steps.  A TransportResult holds the one unitary U of a path,
and every Born probability |<psi_f, U psi_i>|^2 (normalized) is read
from it.

The ten level matrices are kept on the union of their nonzero patterns
(flat indices plus one value row per generator), so a connection matrix is
a 10-term combination of short rows scattered into zeros.  A transition
unitary is the symmetric power of one exact conjugation at level 2.
"""

import math
from functools import lru_cache, partial

import numpy as np

from .coframe import (Chart, SpherePoint, TangentVector, _pullback, _rescaled,
                      preferred_patch, to_sphere, to_tangent, toric_rows)
from .fock import (GENERATOR_NAMES, _entries, build_rho, build_rho_partial,
                   sym_power)
from .quaternions import (PatchError, qcomplex, section_n, section_s,
                          transition_tau)
from .tolerances import TAU_PATCH

# |x| level at which transport abandons the s patch (and mirrored for n)
PATCH_SWITCH_LEVEL = 0.05
# relative widening of that level for the closed-form crossings, far above
# the rounding of a node's coordinates
_LEVEL_MARGIN = 1e-9
# candidate steps whose nodes _switch_log evaluates at once; it bounds the
# memory of a path that runs along a chart edge
_BLOCK_STEPS = 256
# W W^H = 2 I; level 2 is C^4 with rho_2(g) = W c(g) W^H / 2 for a group
# element g and rho_2(X) = W c(X) W^H / 2 for an algebra element X, c the
# complex form quaternions.qcomplex
W = np.array([[0, 0, 1j, -1j], [-1, -1, 0, 0], [1, -1, 0, 0],
              [0, 0, -1j, -1j]])


@lru_cache(maxsize=None)
def _rho_stack(m, ell=None, domain_m=None):
    """The matrices of GENERATOR_NAMES on the union of their nonzero
    patterns: the row-major flat indices of the pattern, the (10, nnz)
    values on it, and the matrices' shape.  Level m exact, or with ell its
    partial sums on level domain_m."""
    rep = (build_rho(m) if ell is None
           else build_rho_partial(m, ell, domain_m=domain_m))
    shape = rep[GENERATOR_NAMES[0]].shape
    (g, i, j, v), _ = _entries(rep)
    flat, at = np.unique(i * shape[1] + j, return_inverse=True)
    vals = np.zeros((len(GENERATOR_NAMES), len(flat)), dtype=complex)
    vals[g, at] = v
    return flat, vals, shape


def connection_matrix(u, m, ell=None, patch="s", domain_m=None):
    """The connection form evaluated on one tangent vector.

    ell=None, the exact connection: D(m) x D(m), antihermitean; it has no
    other domain, so a domain_m other than m is refused.  Otherwise the
    truncated one: the square roots are replaced by partial sums through
    order ell+1 and the result is a D(domain+1) x D(domain) map into the
    ambient block (domain defaults to m; hbar stays 1/m).
    """
    if ell is None and domain_m not in (None, m):
        raise ValueError("the exact connection acts on level m only")
    if ell is not None and ell < 0:
        raise ValueError("ell must be >= 0")
    flat, vals, shape = (_rho_stack(m) if ell is None else _rho_stack(
        m, ell + 1, m if domain_m is None else domain_m))
    out = np.zeros(shape, dtype=complex)
    out.flat[flat] = _pullback(u.base.as_array8()[None], u.as_array8()[None],
                               patch)[0] @ vals
    return out


def curvature_residual(p, u, v, m, ell=None, h=1e-4, patch="s"):
    """Sup-entry norm of dA(u,v) + [A(u), A(v)] via chart central differences.

    u and v are extended to commuting coordinate fields of the normalized
    chart; the exact residual (ell=None) is O(h^2) plus rounding, the
    truncated one decreases with ell at fixed m.  [A(u), A(v)] is read as
    A_up(u) A(v) - A_up(v) A(u), A_up the domain-(m+1) block of a truncated
    A (A itself when exact), and dA fills its leading rows.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    chart = Chart(p, [u, v])

    def a_of(i_field, s, domain_m=m):
        return connection_matrix(chart.frame_vector(i_field, s), m, ell,
                                 patch, domain_m=domain_m)

    origin = (0.0, 0.0)
    up = m if ell is None else m + 1
    curv = (a_of(0, origin, up) @ a_of(1, origin)
            - a_of(1, origin, up) @ a_of(0, origin))
    da = chart.exterior_derivative(a_of, h)
    curv[:len(da)] += da
    return float(np.max(np.abs(curv)))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _arc(a, b, w, t):
    """cos(w t) a + sin(w t) b and its velocity, one row per time."""
    c, s = np.cos(w * t)[:, None], np.sin(w * t)[:, None]
    return c * a + s * b, w * (c * b - s * a)


def _toric_line(r, theta0, dtheta, t):
    return toric_rows(r, theta0 + t[:, None] * dtheta, dtheta)


def _chordal(knots, t):
    """Quintic-eased chords through the knot rows, normalized, and their
    velocity."""
    nseg = len(knots) - 1
    s = np.clip(t, 0.0, 1.0) * nseg
    i = np.minimum(s.astype(int), nseg - 1)
    x = (s - i)[:, None]
    lam = x * x * x * (10.0 + x * (-15.0 + 6.0 * x))
    dlam = 30.0 * x * x * (1.0 - x) ** 2
    c = (1 - lam) * knots[i] + lam * knots[i + 1]
    dc = (knots[i + 1] - knots[i]) * (dlam * nseg)
    nc = np.linalg.norm(c, axis=1)[:, None]
    return c / nc, dc / nc - c * np.sum(c * dc, axis=1)[:, None] / nc ** 3


def _arc_below(a, b, w, level):
    """For |x| and for |y| of P = cos(w t) a + sin(w t) b, the t-intervals
    on which it is below level |P|.  |x|^2 - level^2 |P|^2 is a quadratic
    form in (cos w t, sin w t): it changes sign only at its null directions,
    once per half turn, so its sign between them is read at midpoints."""
    ab = np.stack([a, b])
    gx, gy = (ab[:, h:h + 4] @ ab[:, h:h + 4].T for h in (0, 4))
    out = ([], [])
    for spans, g in zip(out, (gx, gy)):
        (g00, g01), (_, g11) = (g - level * level * (gx + gy)).tolist()
        cuts, d = {0.0, w}, g01 * g01 - g00 * g11
        if d >= 0.0:
            q = -(g01 + math.copysign(math.sqrt(d), g01))
            cuts |= {math.atan2(v1, v0) % math.pi + k * math.pi
                     for v0, v1 in ((g11, q), (q, g00))
                     for k in range(int(w / math.pi) + 1)}
        cuts = sorted(c for c in cuts if c <= w)
        for u, v in zip(cuts, cuts[1:]):
            c, s = math.cos((u + v) / 2), math.sin((u + v) / 2)
            if g00 * c * c + 2 * g01 * c * s + g11 * s * s < 0.0:
                spans.append((u / w, v / w))
    return out


def _uneased(psi):
    """The x in [0, 1] at which (1 - lam, lam), lam the quintic easing of x,
    points at the angle psi; the easing is monotone, so by bisection."""
    lam, x = math.sin(psi) / (math.sin(psi) + math.cos(psi)), 0.0
    for k in range(1, 60):
        y = x + 2.0 ** -k
        x = y if y * y * y * (10.0 + y * (-15.0 + 6.0 * y)) < lam else x
    return x


def _chord_below(knots, level):
    """For |x| and for |y| of the eased chords through the knots, the
    t-intervals on which it is below level times the point's norm: on a
    segment, v = (1 - lam, lam) turns a quarter turn, as on an arc."""
    nseg, out = len(knots) - 1, ([], [])
    for i in range(nseg):
        for spans, arc in zip(out, _arc_below(knots[i], knots[i + 1],
                                              math.pi / 2, level)):
            spans += [tuple((i + _uneased(math.pi / 2 * s)) / nseg for s in p)
                      for p in arc]
    return out


class PathSpec:
    """Parametric curve with analytic tangent on [0, 1], scanned for patch
    switches in `steps` equal steps.

    curve(t) maps an array of N times to ambient points and velocities, both
    (N, 8); `arrays` puts them on the sphere and its tangent spaces.
    below(level) gives, for |x| and for |y| of the unit point, t-intervals
    outside which it stays at or above level, in closed form: every curve is
    an arc or chord v0 a + v1 b, or keeps |x| and |y| fixed.
    """

    def __init__(self, curve, below, steps=1000, label="path"):
        self.curve = curve
        self.below = below
        self.steps = int(steps)
        self.label = label

    def arrays(self, t):
        """Unit points and projected tangents (N, 8) at the times t."""
        p8, u8 = self.curve(np.atleast_1d(np.asarray(t, dtype=float)))
        p8 = to_sphere(p8)
        return p8, to_tangent(p8, u8)

    def point(self, t):
        return SpherePoint.from_array8(self.arrays(t)[0][0])

    def tangent(self, t):
        p8, u8 = self.arrays(t)
        return TangentVector.from_array8(SpherePoint.from_array8(p8[0]),
                                         u8[0])

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
        return cls(partial(_arc, a, bp, w), partial(_arc_below, a, bp, w),
                   steps, "great-circle")

    @classmethod
    def great_circle_loop(cls, p0, direction, steps=1000):
        """Full great circle through p0 with initial velocity direction."""
        a = p0.as_array8()
        d, size, _ = _rescaled(np.asarray(direction, dtype=float),
                               np.linalg.norm)
        d = d - (a @ d) * a
        nd = np.linalg.norm(d)
        if nd <= 1e-12 * size:
            raise ValueError("direction is radial")
        arc = (a, d / nd, 2 * math.pi)
        return cls(partial(_arc, *arc), partial(_arc_below, *arc), steps,
                   "great-circle-loop")

    @classmethod
    def toric_line(cls, t0, dtheta, steps=1000, label="toric-line"):
        """Fixed radii, angles advancing linearly by dtheta over [0, 1]."""
        curve = partial(_toric_line, t0.r, t0.theta,
                        np.asarray(dtheta, dtype=float))
        # |x| and |y| stay fixed, as on the arc cos(t) p(0), t in [0, 1]
        below = partial(_arc_below, curve(np.zeros(1))[0][0], np.zeros(8), 1)
        return cls(curve, below, steps, label)

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
        keep their order across them.  Consecutive knots must not be
        antipodal.
        """
        knots = np.array([p.as_array8() for p in points])
        if len(knots) < 2:
            raise ValueError("need at least two points")
        unit = knots / np.linalg.norm(knots, axis=1)[:, None]
        cos = np.sum(unit[:-1] * unit[1:], axis=1)
        if np.any(cos + 1.0 < 1e-12):
            i = int(np.argmin(cos))
            raise ValueError(f"knots {i} and {i + 1} are antipodal: the chord "
                             "between them passes through the origin")
        return cls(partial(_chordal, knots), partial(_chord_below, knots),
                   steps, "piecewise")

    @classmethod
    def constant(cls, p0, steps=2):
        p8 = p0.as_array8()
        return cls(partial(_arc, p8, np.zeros(8), 0.0),
                   partial(_arc_below, p8, np.zeros(8), 1),  # one ray
                   steps, "constant")

    def to_json(self):
        return {"label": self.label, "t0": 0.0, "t1": 1.0,
                "steps": self.steps}


class TransportResult:
    """Transport unitary with its switch log and rounding diagnostic; it is
    expressed in start_frame at both ends, which to_json writes as both."""

    __slots__ = ("matrix", "unitarity_residual", "steps", "switches",
                 "start_frame")

    def __init__(self, matrix, unitarity_residual, steps, switches,
                 start_frame):
        self.matrix = matrix
        self.unitarity_residual = unitarity_residual
        self.steps = steps
        self.switches = switches
        self.start_frame = start_frame

    def probability(self, psi_i, psi_f):
        """The Born probability |<psi_f, U psi_i>|^2 / (|psi_f|^2 |psi_i|^2)
        of the final state psi_f given the initial state psi_i.  It does not
        depend on their scale, so a state whose norm would overflow or
        underflow is scaled first."""
        psi_i, psi_f = (_rescaled(np.asarray(v, dtype=complex),
                                  np.linalg.norm)[0] for v in (psi_i, psi_f))
        ni = float(np.vdot(psi_i, psi_i).real)
        nf = float(np.vdot(psi_f, psi_f).real)
        if ni == 0.0 or nf == 0.0:
            raise ValueError("states must be nonzero")
        # U psi_i by an einsum, which calls no BLAS: OpenBLAS runs a zgemv at
        # D = 120 on a second thread, which then spins
        amp = complex(np.vdot(psi_f, np.einsum("ij,j->i", self.matrix, psi_i)))
        return abs(amp) ** 2 / (ni * nf)

    def holonomy_distance(self):
        d = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix - np.eye(d))))

    def to_json(self):
        return {"unitarity_residual": self.unitarity_residual,
                "holonomy_distance": self.holonomy_distance(),
                "steps": self.steps,
                "switches": [[t, a, b] for (t, a, b) in self.switches],
                "start_frame": self.start_frame,
                "end_frame": self.start_frame}


def _rho2(g):
    """The level-2 image W c(g) W^H / 2 of quaternionic 2x2 matrices g."""
    return W @ qcomplex(g) @ W.conj().T / 2


def gauge_matrix(m, p):
    """Unitary representing the transition element diag(tau, 1) at level m,
    the symmetric power of its level-2 image."""
    g = np.zeros((2, 2, 4))
    g[0, 0], g[1, 1, 0] = transition_tau(p), 1.0
    return sym_power(_rho2(g), m)


def _step_runs(path):
    """For |x| and for |y|, sorted runs [lo, hi) of steps that hold every
    step with a node where it can be below PATCH_SWITCH_LEVEL: the steps that
    meet path.below at that level widened by _LEVEL_MARGIN, and one more on
    each side."""
    n, level = path.steps, PATCH_SWITCH_LEVEL * (1 + _LEVEL_MARGIN)
    return [sorted((max(math.ceil(t0 * n) - 2, 0),
                    min(math.floor(t1 * n) + 2, n)) for t0, t1 in spans)
            for spans in path.below(level)]


def _switch_log(path, frame):
    """The patch switches (t, old, new) of a path that starts in frame: a
    step switches where the current frame's coordinate is below
    PATCH_SWITCH_LEVEL at one of its nodes t_k, t_k + h/2, t_k + h, and is
    refused where the new frame's is below TAU_PATCH, as the coframe there
    would be.  Only the current frame's _step_runs can switch."""
    steps, north, switches, k = path.steps, "sn".index(frame), [], 0
    runs = _step_runs(path)
    while run := next(((max(lo, k), hi) for lo, hi in runs[north] if hi > k),
                      None):
        k, n = run[0], min(_BLOCK_STEPS, run[1] - run[0])
        nodes = np.arange(2 * k, 2 * (k + n) + 1) * (0.5 / steps)
        p8 = to_sphere(path.curve(nodes)[0])
        r = np.linalg.norm(p8.reshape(-1, 2, 4), axis=2)  # |x|, |y| per node
        low = np.minimum(np.minimum(r[:-1:2], r[1::2]), r[2::2])
        hit = np.flatnonzero(low[:, north] < PATCH_SWITCH_LEVEL)[:1]
        k += int(hit[0]) + 1 if hit.size else n
        for i in hit:
            north = 1 - north
            switches.append((float(nodes[2 * i]), "ns"[north], "sn"[north]))
            if low[i, north] < TAU_PATCH:
                raise PatchError(f"{steps} steps are too coarse for this path "
                                 f"(patch violation: |{'xy'[north]}| ~ 0 on "
                                 f"the {'sn'[north]} patch)")
    return switches


def parallel_transport(path, m, *, start_frame=None):
    """Parallel transport of the exact flat connection along a path, in
    closed form: at level 2 it is rho_2(s(q))^H rho_2(s(p)) from the path's
    start p to its end q, s the section of the start frame, and one
    fock.sym_power lifts it to level m.  p and q are read in one call of
    path.curve at t = 0 and 1, points only; the curve is evaluated again
    only at the nodes _switch_log scans.

    The result is expressed in that frame: start_frame, None, "s" or "n",
    pins it (None: the larger coordinate at p), and p and q must lie in its
    chart.  The path's steps set only the resolution of _switch_log.
    Transports compose, U(g2 after g1) = U(g2) U(g1), in matching frames.
    The rounding drift max |u^H u - I| of the level-2 transport u is a
    diagnostic; the lift's drift Gamma(u^H u) - I is fixed by it.
    """
    if start_frame not in (None, "s", "n"):
        raise ValueError(f"start_frame must be None, 's' or 'n', got "
                         f"{start_frame!r}")
    if path.steps < 2:
        raise ValueError("need at least 2 steps")
    p, q = (SpherePoint.from_array8(row)
            for row in to_sphere(path.curve(np.array([0.0, 1.0]))[0]))
    frame = start_frame or preferred_patch(p)
    switches = _switch_log(path, frame)
    section = section_s if frame == "s" else section_n
    try:
        end, start = (_rho2(section(x)) for x in (q, p))
    except PatchError as exc:
        msg = f"the path must start and end in the {frame} chart its "
        raise PatchError(f"{msg}transport is expressed in ({exc})") from None
    u2 = end.conj().T @ start
    drift = float(np.max(np.abs(u2.conj().T @ u2 - np.eye(4))))
    return TransportResult(sym_power(u2, m), drift, path.steps, switches,
                           frame)
