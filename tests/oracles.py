"""Dict-walk oracles of the exact layer and of one symmetry of the level
matrices.

The bracket kernel of sphere7.weyl is checked against the bracket bodies it
replaced: the contraction-only normal ordering of the oscillator ring, the
biderivation of the Poisson ring, the grade-by-grade Laurent bracket and the
45-pair report built from them one pair and one term pair at a time.

The exact arrays of sphere7.u2h are checked against the Lie algebra as dicts
{(g1, g2): {gen: CRat}} walked one key at a time: the vector brackets and
Casimir pairs as tests/u2h_tables.json records them, dict views of the spinor
brackets and of the change of basis, the inverse change of basis by
Gauss-Jordan elimination and the reality table derived through it.  The
contraction and grading of the spinor algebra live here too.

conjugation is the antiunitary symmetry of the level matrices of
sphere7.fock, and qlog the quaternion logarithm through which a transition
unitary of sphere7.connection is checked as the exponential of a generator.

The closed-form transport of sphere7.connection is checked against
reference_transport, fixed-step RK4 of U' = -A U with the connection
assembled node by node through connection_matrix and the gauges built by
expm; it must converge to the closed form at fourth order.  tensor_lift
lifts a level-2 unitary to level m through tensor powers.  The scan that
logs its patch switches, which evaluates only the steps near a closed-form
chart crossing, is checked against reference_switch_log, a walk over every
step.
"""

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import scipy.linalg

from sphere7.classical import PoissonElement
from sphere7.connection import PATCH_SWITCH_LEVEL, connection_matrix
from sphere7.fock import GENERATOR_NAMES, _rank, basis, build_rho, dim
from sphere7.quaternions import PatchError, qnorm, transition_tau
from sphere7.rational import CRat, Combination, I, add_into, gaussian
from sphere7.tolerances import TAU_PATCH
from sphere7.u2h import (GENERATOR_PAIRS, SPINOR_GENERATORS, VECTOR_GENERATORS,
                         basis_maps, bracket_table, float_image)
from sphere7.weyl import (LaurentElement, WeylElement, _contractions,
                          _min_cap, embedded_generators)


def _contracted(out, x, y, sign):
    """Add sign * x y, normal ordered, into the dict out, leaving out the
    uncontracted j = (0, 0, 0) term of each term pair."""
    for k1, c1 in x.terms.items():
        d1, d2, d3, e1, e2, e3 = k1
        for k2, c2 in y.terms.items():
            f1, f2, f3, g1, g2, g3 = k2
            if not (e1 and f1 or e2 and f2 or e3 and f3):
                continue
            skip = True
            for j1, w1 in enumerate(_contractions(e1, f1)):
                for j2, w2 in enumerate(_contractions(e2, f2)):
                    w2 = sign * w1 * (-w2 if j2 % 2 else w2)
                    for j3, w3 in enumerate(_contractions(e3, f3)):
                        if skip:  # the first term is the uncontracted one
                            skip = False
                            continue
                        key = (d1 + f1 - j1, d2 + f2 - j2, d3 + f3 - j3,
                               e1 - j1 + g1, e2 - j2 + g2, e3 - j3 + g3)
                        add_into(out, ((key, c1 * c2 * (w2 * w3)),))
    return out


def weyl_comm(x, y):
    """x y - y x from the terms with at least one contraction."""
    return x._wrap(_contracted(_contracted({}, x, y, 1), y, x, -1))


# {z_i, z_j} for the ordered slot pairs with a nonzero bracket
FUNDAMENTAL = ((3, 0, -I), (0, 3, I), (4, 1, I), (1, 4, -I),
               (2, 5, I), (5, 2, -I))


def deriv(x, slot):
    # lowering one exponent is injective on the monomials it keeps
    return x._wrap({k[:slot] + (k[slot] - 1,) + k[slot + 1:]: c * k[slot]
                    for k, c in x.terms.items() if k[slot]})


def poisson_comm(x, y):
    """Poisson bracket: the biderivation extending FUNDAMENTAL."""
    out = {}
    for i, j, c in FUNDAMENTAL:
        df, dg = deriv(x, i), deriv(y, j)
        if df and dg:
            add_into(out, ((k, v * c) for k, v in (df * dg).terms.items()))
    return x._wrap(out)


RING_COMM = {WeylElement: weyl_comm, PoissonElement: poisson_comm}


def laurent_comm(x, y):
    """Bracket grade by grade with the ring's dict bracket; a grade pair
    above the cap is skipped and marks the result dropped."""
    cap = _min_cap(x.cap, y.cap)
    out = {}
    dropped = x.dropped or y.dropped
    for g1, w1 in x.grades.items():
        for g2, w2 in y.grades.items():
            g = g1 + g2
            if cap is not None and g > cap:
                dropped = True
                continue
            p = RING_COMM[type(w1)](w1, w2)
            out[g] = p if g not in out else out[g] + p
    out = {g: w for g, w in out.items() if not w.is_zero()}
    return LaurentElement(out, cap=cap, dropped=dropped)


def verify_oracle(ell, gradecap=None, ring=WeylElement):
    """weyl.verify_embedding, one pair at a time with the dict brackets."""
    if gradecap is None:
        gradecap = 2 * ell + 4
    gens = embedded_generators(ell, cap=gradecap, ring=ring)
    table = SPINOR_TABLE
    report = {}
    for x, y in GENERATOR_PAIRS:
        target = LaurentElement(cap=gradecap)
        for g, c in table[(x, y)].items():
            target = target + gens[g].scale(ring.BRACKET_NORM * c)
        res = laurent_comm(gens[x], gens[y]) - target
        report[f"{x}|{y}"] = {
            "pair": [x, y],
            "residual_min_grade": res.min_grade(),
            "exact": res.is_zero() and not res.dropped,
            "cap": gradecap,
        }
    return report


# ---------------------------------------------------------------------------
# the Lie algebra as dicts of exact coefficients
# ---------------------------------------------------------------------------

class LieElement(Combination):
    """Finitely supported exact-coefficient combination of basis generators."""

    __slots__ = ("basis",)

    def __init__(self, coeffs=None, basis="spinor"):
        super().__init__(coeffs)
        self.basis = basis

    def _wrap(self, terms):
        res = super()._wrap(terms)
        res.basis = self.basis
        return res

    @classmethod
    def gen(cls, name, basis=None):
        if basis is None:
            basis = "spinor" if name in SPINOR_GENERATORS else "vector"
        return cls({name: 1}, basis)

    def __add__(self, other):
        assert self.basis == other.basis
        return super().__add__(other)

    def conj(self):
        """Conjugate every coefficient."""
        return self._wrap({k: c.conj() for k, c in self.terms.items()})

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def __eq__(self, other):
        return self.basis == other.basis and super().__eq__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g}" for g, c in sorted(self.terms.items()))


def table_view(x, rows, cols):
    """The exact array x on the given rows and columns as the table
    {row: {col: CRat}}, zero entries left out."""
    num, den = x
    num = num.reshape(len(rows), len(cols), 2).tolist()
    return {r: {c: gaussian(re, im, den) for c, (re, im) in zip(cols, row)
                if re or im} for r, row in zip(rows, num)}


_RECORDS = json.loads(Path(__file__).with_name("u2h_tables.json").read_text())


def recorded(name):
    """The table name of u2h_tables.json as {key: {gen: CRat}}."""
    return {k: {g: CRat(Fraction(re), Fraction(im)) for g, (re, im)
                in v.items()} for k, v in _RECORDS[name].items()}


VECTOR_TABLE = {key: {} for key in product(VECTOR_GENERATORS, repeat=2)} | {
    tuple(key.split("|")): v for key, v in recorded("vector_brackets").items()}
# C2 = sum of coeff * g_a g_b over the Casimir pairs (g_a, g_b, coeff)
CASIMIR_PAIRS = tuple((a, b, Fraction(c))
                      for a, b, c in _RECORDS["casimir_pairs"])


def bracket_dicts(basis="spinor", mutate=None):
    """u2h.bracket_table(basis, mutate) as {(g1, g2): {gen: CRat}}."""
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    return table_view(bracket_table(basis, mutate),
                      list(product(gens, repeat=2)), gens)


SPINOR_TABLE = bracket_dicts("spinor")


def bracket(x, y, table=None):
    """Bilinear bracket of two LieElements in a common basis."""
    assert x.basis == y.basis
    if table is None:
        table = SPINOR_TABLE if x.basis == "spinor" else VECTOR_TABLE
    out = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            c12 = c1 * c2
            add_into(out, ((g, c12 * c) for g, c in table[(g1, g2)].items()))
    return LieElement(out, x.basis)


def frac_mat_inverse(rows):
    """Invert a square matrix of Fractions or CRats by Gauss-Jordan
    elimination; the inverse has entries of the same type."""
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def inverse_map(s_in_v):
    """The vector generators in the spinor basis: the exact inverse of the
    change of basis s_in_v."""
    inv = frac_mat_inverse([[s_in_v[s].get(v, CRat())
                             for v in VECTOR_GENERATORS]
                            for s in SPINOR_GENERATORS])
    return {v: {s: c for s, c in zip(SPINOR_GENERATORS, row) if c}
            for v, row in zip(VECTOR_GENERATORS, inv)}


# the change of basis, spinor generators in the vector basis, and its inverse
SPINOR_IN_VECTOR = table_view(basis_maps()[0], SPINOR_GENERATORS,
                              VECTOR_GENERATORS)
VECTOR_IN_SPINOR = inverse_map(SPINOR_IN_VECTOR)


def _linear_image(x, images, basis):
    """The LieElement sum of c * images[g] over the terms c * g of x."""
    return LieElement(add_into({}, ((g2, c * s) for g, c in x.terms.items()
                                    for g2, s in images[g].items())), basis)


def basis_change(x, to, maps=(SPINOR_IN_VECTOR, VECTOR_IN_SPINOR)):
    """Map a LieElement to the other basis through maps, the change of basis
    and its inverse; round trips are exact."""
    if x.basis == to:
        return x
    return _linear_image(x, maps[to == "spinor"], to)


def reality(x, table=None):
    """Conjugate-linear involution X -> X^dagger extended to elements.

    Every vector-basis generator is antihermitean, X^dagger = -X; on the
    spinor generators it is table, by default REALITY_SPINOR, which is
    derived from that.
    """
    if isinstance(x, str):
        x = LieElement.gen(x)
    if x.basis == "spinor":
        return _linear_image(x.conj(), table or REALITY_SPINOR, "spinor")
    return x.conj().scale(-1)


# the conjugate-linear involution X -> X^dagger on the spinor generators,
# carried over from X^dagger = -X on the vector basis
REALITY_SPINOR = {g: basis_change(reality(basis_change(
    LieElement.gen(g), "vector")), "spinor").terms for g in SPINOR_GENERATORS}


def casimir_weights():
    """W[x][y] with C2 = sum of W[x][y] x y over the spinor generators, from
    the recorded Casimir pairs and inverse change of basis."""
    v_in_s = recorded("vector_in_spinor")
    w = {x: {} for x in SPINOR_GENERATORS}
    for ga, gb, coeff in CASIMIR_PAIRS:
        for x, cx in v_in_s[ga].items():
            add_into(w[x], ((y, cx * cy * coeff)
                            for y, cy in v_in_s[gb].items()))
    return w


# ---------------------------------------------------------------------------
# contraction to the three-oscillator Heisenberg algebra plus one compact factor
# ---------------------------------------------------------------------------

# the rescaled generators, in the order of the spinor generators they scale
CONTRACTED_GENERATORS = ("J++", "J+-", "J--",
                         "pi++", "pi+-", "pi-+", "pi--",
                         "Z++", "I", "Z--")


def _rescaled_brackets():
    """The brackets of the rescaled generators, each original generator g
    divided by lambda^e(g), as {(g1, g2): {gen: (CRat, power of 1/lambda)}};
    e is 1 on the momenta and the off-diagonal compact pair and 2 on the
    future central element."""
    names = dict(zip(SPINOR_GENERATORS, CONTRACTED_GENERATORS))
    power = dict(zip(CONTRACTED_GENERATORS, (0, 0, 0, 1, 1, 1, 1, 1, 2, 1)))
    out = {}
    for (o1, o2), res in SPINOR_TABLE.items():
        g1, g2 = names[o1], names[o2]
        out[g1, g2] = {names[g]: (c, power[g1] + power[g2] - power[names[g]])
                       for g, c in res.items()}
        if any(e < 0 for _, e in out[g1, g2].values()):
            raise ValueError("contraction limit does not exist")
    return out


def contraction_constants(lam):
    """Structure constants of the rescaled basis at a finite parameter; at
    lambda -> infinity they converge to contraction_limit() with per-entry
    residual O(1/lambda)."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return {key: {g: c * (1 / lam ** e) for g, (c, e) in res.items()}
            for key, res in _rescaled_brackets().items()}


def contraction_limit():
    """The lambda -> infinity structure constants; "I" is central."""
    return {key: {g: c for g, (c, e) in res.items() if not e}
            for key, res in _rescaled_brackets().items()}


def grading_decomposition(d):
    """Partition the generators by exact ad(d) eigenvalue.

    Raises ValueError when some generator is not an eigenvector of ad(d).
    Eigenvalue keys are (re, im) Fraction pairs; for the documented grading
    elements they are integers (im = 0).
    """
    if isinstance(d, str):
        d = LieElement.gen(d)
    gens = SPINOR_GENERATORS if d.basis == "spinor" else VECTOR_GENERATORS
    grades = {}
    for g in gens:
        res = bracket(d, LieElement.gen(g, d.basis))
        if set(res.terms) - {g}:
            raise ValueError(f"not a grading element: ad on {g} is not diagonal")
        ev = res.terms.get(g, CRat())
        grades.setdefault((ev.re, ev.im), set()).add(g)
    return grades


GRADING_ELEMENT = LieElement({"K+-": CRat(0, -1)})  # -i K_{+.-.}


# ---------------------------------------------------------------------------
# the antiunitary symmetry of the level matrices
# ---------------------------------------------------------------------------

def conjugation(m):
    """The antiunitary J that commutes with the level-m representation, as
    the signed permutation J|i> = s_i |sigma(i)> on the basis(m) indices.

    sigma(n1, n2, n3) = (m-1-n1-n2-n3, n3, n2) swaps n1 with the vacuum slot
    and n2 with n3, and s = (-1)^(n1+n2).  J^2 = (-1)^(m-1): level m is
    Sym^(m-1) of the quaternionic C^4 = H^2 of U(2,H), quaternionic for even
    m and real for odd m (Frobenius-Schur).  A unitary generated by real
    multiples of the level matrices satisfies
    U[sigma i, sigma j] = s_i s_j conj(U[i, j]).  Returns (sigma, s) as an
    integer and a float array.
    """
    n1, n2, n3 = np.array(basis(m)).T
    return (_rank(m - 1 - n1 - n2 - n3, n3, n2).astype(np.intp),
            (-1.0) ** (n1 + n2))


def qlog(q):
    """Principal logarithm log|q| + theta vhat, theta = atan2(|v|, q0), of
    q = q0 + v.  The direction of log(-|q|) is ambiguous; i is taken."""
    q = np.asarray(q, dtype=float)
    n = qnorm(q)
    if np.any(n == 0.0):
        raise ZeroDivisionError("zero quaternion")
    v = qnorm(q[..., 1:])
    theta = np.arctan2(v, q[..., 0])
    real = v < 1e-300
    f = np.divide(theta, v, out=np.zeros_like(v), where=~real)
    out = np.concatenate([np.log(n)[..., None], f[..., None] * q[..., 1:]],
                         axis=-1)
    out[..., 1] = np.where(real & (q[..., 0] < 0), np.pi, out[..., 1])
    return out


# ---------------------------------------------------------------------------
# transport by RK4 node by node, gauges by expm, lifts by tensor powers
# ---------------------------------------------------------------------------

def expm_gauge(m, p):
    """gauge_matrix(m, p) through scipy.linalg.expm on dense generators."""
    rep = build_rho(m)
    rows = float_image(basis_maps()[1])[:3]     # j1, j2, j3
    j1, j2, j3 = [sum(c * rep[g].toarray() for c, g in zip(r, GENERATOR_NAMES))
                  for r in rows]
    q1, q2, q3 = qlog(transition_tau(p))[1:]
    return scipy.linalg.expm(2.0 * (q1 * j1 + q2 * j2 + q3 * j3))


def reference_transport(path, m, frame="s", switches=()):
    """Fixed-step RK4 on [0, 1] in the path's steps, with the connection
    assembled node by node through the scalar API.  At the start of each
    step that `switches` logs, the operator is conjugated into the new frame
    by an expm-built gauge; a transport that ends in the other frame is
    converted back to `frame`."""
    u_op = np.eye(dim(m), dtype=complex)
    steps = path.steps
    h = 1.0 / steps
    at_step = {round(t / h): (a, b) for t, a, b in switches}

    def a(t):
        return -connection_matrix(path.tangent(t), m, patch=frame)

    start = frame
    for k in range(steps):
        t = k * h
        if k in at_step:
            old, frame = at_step[k]
            g = expm_gauge(m, path.point(t))
            u_op = (g.conj().T @ u_op) if old == "s" else (g @ u_op)
        a0, amid, a1 = a(t), a(t + h / 2), a(t + h)
        k1 = a0 @ u_op
        k2 = amid @ (u_op + (h / 2) * k1)
        k3 = amid @ (u_op + (h / 2) * k2)
        k4 = a1 @ (u_op + h * k3)
        u_op = u_op + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    if frame != start:
        g = expm_gauge(m, path.point(1.0))
        u_op = (g @ u_op) if frame == "n" else (g.conj().T @ u_op)
    return u_op


def tensor_lift(u, m):
    """P^H u^(x)(m-1) P, P the isometry of basis(m) onto the normalized
    symmetric tensors of (C^4)^(m-1) (Fulton-Harris, Representation Theory,
    1991, 6.1).  State (n1, n2, n3) has the mode counts
    k = (m-1-n1-n2-n3, n3, n2, n1); its tensor is sqrt(k! / (m-1)!) times
    the sum of the words with those counts."""
    n = m - 1
    big = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        big = np.kron(big, u)
    words = np.array(list(product(range(4), repeat=n)))
    counts = (words[:, :, None] == np.arange(4)).sum(axis=1)
    state = {(n - n1 - n2 - n3, n3, n2, n1): i
             for i, (n1, n2, n3) in enumerate(basis(m))}
    p = np.zeros((len(words), dim(m)))
    for w, k in enumerate(map(tuple, counts.tolist())):
        p[w, state[k]] = math.sqrt(math.prod(map(math.factorial, k))
                                   / math.factorial(n))
    return p.T @ big @ p


def lifted_reference(path, m, frame="s", switches=()):
    """The level-2 reference transport, lifted to level m by tensor_lift."""
    ref = reference_transport(path, 2, frame, switches)
    return ref if m == 2 else tensor_lift(ref, m)


# steps whose nodes reference_switch_log reads at once; a refusal aborts the
# whole walk, so the log does not depend on it
_WALK_STEPS = 256


def reference_switch_log(path, frame):
    """The patch switches (t, old, new) of a path that starts in frame, one
    step at a time: each block of _WALK_STEPS steps reads the points and
    tangents at its nodes, carries the frame through every step and refuses
    the block before logging its switches."""
    steps, north, switches = path.steps, frame == "n", []
    for k0 in range(0, steps, _WALK_STEPS):
        n = min(_WALK_STEPS, steps - k0)
        nodes = np.arange(2 * k0, 2 * (k0 + n) + 1) * (0.5 / steps)
        r = np.linalg.norm(path.arrays(nodes)[0].reshape(-1, 2, 4), axis=2)
        low = np.minimum(np.minimum(r[:-1:2], r[1::2]), r[2::2])
        frames, switched = [], []
        for low_s, low_n in (low < PATCH_SWITCH_LEVEL).tolist():
            flip = low_n if north else low_s
            north ^= flip
            frames.append(north)
            switched.append(flip)
        active = np.where(frames, low[:, 1], low[:, 0])
        if np.min(active) < TAU_PATCH:
            bad = frames[int(np.argmax(active < TAU_PATCH))]
            raise PatchError(f"{steps} steps are too coarse for this path "
                             f"(patch violation: |{'xy'[bad]}| ~ 0 on the "
                             f"{'sn'[bad]} patch)")
        for i in np.flatnonzero(switched):
            old, frame = frame, "sn"[frames[i]]
            switches.append((float(nodes[2 * i]), old, frame))
    return switches
