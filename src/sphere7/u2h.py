"""The ten-dimensional quaternionic unitary Lie algebra, exactly.

Two bases are carried in parallel:

* the vector basis (j1, j2, j3, p0, p1, p2, p3, k1, k2, k3) of the
  antihermitean quaternionic 2x2 matrices X, each written once as the exact
  integer matrix 2X = [[mu, nu], [-nubar, kappa]] with one unit component;
* the spinor basis (J^{ab}, P^a_{adot}, K_{adot bdot}) obtained from the
  complex linear change of basis

      J^{++} = -2 j1 + 2i j2     J^{+-} = -2 j3      J^{--} = 2 j1 + 2i j2
      P^+_+. = -p3 - i p0        P^+_-. = -p1 + i p2
      P^-_+. =  p1 + i p2        P^-_-. = -p3 + i p0
      K_+.+. = 2 k1 + 2i k2      K_+.-. = -2 k3      K_-.-. = -2 k1 + 2i k2

Data: the spinor brackets (the paper's epsilon contractions) and the change
of basis above, SPINOR_IN_VECTOR.  Derived: the vector brackets, from the
commutators of the integer matrices; VECTOR_IN_SPINOR, the exact inverse of
SPINOR_IN_VECTOR; and REALITY_SPINOR, from X^dagger = -X on the vector
basis.  cross_basis_residual therefore compares the paper's spinor brackets
with the matrix algebra itself.

Spinor generator names use two sign characters: "J++", "J+-", "J--" (the
undotted symmetric pair), "P++" .. "P--" (first sign undotted, second dotted),
"K++", "K+-", "K--" (dotted symmetric pair).  All coefficients are exact
complex rationals; every identity checked here is checked exactly.

An exact array is a pair (num, den): an int64 array num whose last axis holds
real and imaginary numerators, over one positive int den.
structure_constants gives f[a, b, c], the coefficient of generator c in
[a, b]; basis_maps gives S = SPINOR_IN_VECTOR, S^-1 = VECTOR_IN_SPINOR and
R = REALITY_SPINOR, row g the image of generator g.  The exact checks are
integer einsum contractions of these: verify_jacobi sums f[y, z, d] f[x, d, e]
over d with its two cyclic terms, cross_basis_residual compares f S with S S f
in both bases, and reality_bracket_residual conj(f) R with -R R f.

int64 cannot wrap in them: exact_array refuses a numerator or denominator
above ENTRY_MAX = 2**10.  The largest number a check forms is an entry of
f m - m m f (20 real products of two entries against 400 of three) brought to
a common denominator by at most two more denominators: a sum of at most 420
products of at most five factors, so it, its |re| + |im| and every partial sum
stay below 2 * 420 * 2**50 < 2**60.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm

import numpy as np

from .quaternions import QMUL, qmatmul
from .rational import (I, ZERO, CRat, Combination, add_into, crat,
                       frac_mat_inverse)

SPINOR_GENERATORS = ("J++", "J+-", "J--",
                     "P++", "P+-", "P-+", "P--",
                     "K++", "K+-", "K--")

VECTOR_GENERATORS = ("j1", "j2", "j3", "p0", "p1", "p2", "p3",
                     "k1", "k2", "k3")

# epsilon^{ab} with (-eps^{ab}) = [[0,-1],[1,0]], indices in {+,-}
EPS_UP = {("+", "+"): 0, ("+", "-"): 1, ("-", "+"): -1, ("-", "-"): 0}
# eps_{adot bdot} = [[0,-1],[1,0]]
EPS_DN = {("+", "+"): 0, ("+", "-"): -1, ("-", "+"): 1, ("-", "-"): 0}
# the 45 unordered generator pairs, in combinations order
GENERATOR_PAIRS = tuple(combinations(SPINOR_GENERATORS, 2))


def _sym(letter, a, b):
    """The J (undotted) or K (dotted) generator of the symmetric pair a, b."""
    return letter + "".join(sorted((a, b), key="+-".index))


def _pkey(a, adot):
    return "P" + a + adot


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

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def __eq__(self, other):
        return self.basis == other.basis and super().__eq__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g}" for g, c in sorted(self.terms.items()))


# _GMUL[a, b]: the components of e_a e_b for (e_0, e_1) = (1, i), the
# quaternion table on its complex subalgebra
_GMUL = QMUL.reshape(4, 4, 4)[:2, :2, :2]
ENTRY_MAX = 2 ** 10


def _checked(num, den):
    """The read-only exact array (num, den) of a table; OverflowError when
    an entry is above ENTRY_MAX, past which int64 contractions could wrap."""
    if max(den, np.abs(num).max(initial=0)) > ENTRY_MAX:
        raise OverflowError(f"exact table entry above {ENTRY_MAX}")
    num = np.ascontiguousarray(num)
    num.flags.writeable = False
    return num, den


def exact_array(table, rows, cols):
    """The exact table {row: {col: CRat}} on the given rows and columns as
    an exact array over the lcm of its denominators; an absent entry is
    zero."""
    at = {c: k for k, c in enumerate(cols)}
    items = [(r, at[c], v.re, v.im) for r, row in enumerate(rows)
             for c, v in table[row].items()]
    den = lcm(*(x.denominator for *_, re, im in items for x in (re, im)))
    num = np.zeros((len(rows), len(cols), 2), dtype=np.int64)
    for r, c, re, im in items:
        num[r, c] = int(re * den), int(im * den)
    return _checked(num, den)


def float_image(x):
    """The complex floats of an exact array (num, den), each part num / den."""
    return (x[0] / x[1]).view(complex)[..., 0]


def _contract(spec, x, y):
    """The einsum spec of two numerator arrays and _GMUL, their
    Gaussian-integer product; x meets _GMUL first."""
    return np.einsum(spec, x, y, _GMUL,
                     optimize=["einsum_path", (0, 2), (0, 1)])


def _build_spinor_table():
    """All nonvanishing spinor-basis brackets from the epsilon contractions."""
    table = {}
    signs = ("+", "-")

    def put(g1, g2, contractions):
        # [g1, g2] = sum of i * coe * key over the (coe, key) contractions
        add_into(table.setdefault((g1, g2), {}),
                 ((key, I * coe) for coe, key in contractions if coe))

    pairs = [("+", "+"), ("+", "-"), ("-", "-")]   # symmetric index pairs
    # J-J and K-K
    for x, eps in (("J", EPS_UP), ("K", EPS_DN)):
        for a, b in pairs:
            for c, d in pairs:
                put(_sym(x, a, b), _sym(x, c, d),
                    ((eps[a, c], _sym(x, b, d)), (eps[a, d], _sym(x, b, c)),
                     (eps[b, c], _sym(x, a, d)), (eps[b, d], _sym(x, a, c))))
    # J-P
    for a, b in pairs:
        for c in signs:
            for cd in signs:
                put(_sym("J", a, b), _pkey(c, cd),
                    ((EPS_UP[a, c], _pkey(b, cd)),
                     (EPS_UP[b, c], _pkey(a, cd))))
    # P-P
    for a in signs:
        for ad in signs:
            for b in signs:
                for bd in signs:
                    put(_pkey(a, ad), _pkey(b, bd),
                        ((EPS_DN[ad, bd], _sym("J", a, b)),
                         (EPS_UP[a, b], _sym("K", ad, bd))))
    # K-P
    for ad, bd in pairs:
        for c in signs:
            for cd in signs:
                put(_sym("K", ad, bd), _pkey(c, cd),
                    ((EPS_DN[ad, cd], _pkey(c, bd)),
                     (EPS_DN[bd, cd], _pkey(c, ad))))
    # fill antisymmetric partners and the J-K zeros
    full = {}
    for g1 in SPINOR_GENERATORS:
        for g2 in SPINOR_GENERATORS:
            res = table.get((g1, g2))
            if res is None:
                res = {g: -c for g, c in table.get((g2, g1), {}).items()}
            full[(g1, g2)] = res
    return full


# flat (2, 2, 4) positions of mu1..3, nu0..3 and kappa1..3: the entry of an
# antihermitean matrix at _SLOTS[a] is its coefficient on the a-th matrix
_SLOTS = (1, 2, 3, 4, 5, 6, 7, 13, 14, 15)


def _vector_matrices():
    """2X for the vector generators X as (10, 2, 2, 4) integer quaternion
    components: [[mu, nu], [-nubar, kappa]] with one unit component, the
    layout of the pulled-back Maurer-Cartan form 2 g^-1 dg."""
    out = np.zeros((10, 16), dtype=int)
    out[range(10), _SLOTS] = 1
    out[3:7, 8:12] = np.diag([-1, 1, 1, 1])     # -nubar for nu = 1, i, j, k
    return out.reshape(10, 2, 2, 4)


def _vector_constants(mats):
    """The structure constants of the matrices A = 2X in mats, from
    [X, Y] = (AB - BA)/4 in integer arithmetic, as an exact array over 2."""
    ab = qmatmul(mats[:, None], mats[None, :])
    # AB - BA = 2 sum_c f_c (2 X_c) for [X, Y] = sum_c f_c X_c
    twice = (ab - ab.swapaxes(0, 1)).reshape(10, 10, 16)[..., _SLOTS]
    return _checked(np.stack([twice, 0 * twice], axis=-1), 2)


def _vector_table(f):
    """The real structure constants f as {(g1, g2): {gen: CRat}}."""
    num, den = f
    return {(g1, g2): {g: crat(Fraction(int(x), den))
                       for g, x in zip(VECTOR_GENERATORS, num[a, b, :, 0])
                       if x}
            for a, g1 in enumerate(VECTOR_GENERATORS)
            for b, g2 in enumerate(VECTOR_GENERATORS)}


_SPINOR_TABLE = _build_spinor_table()
_VECTOR_F = _vector_constants(_vector_matrices())
_VECTOR_TABLE = _vector_table(_VECTOR_F)

# spinor generators written in the vector basis, (re, im) coefficients
SPINOR_IN_VECTOR = {k: {g: crat(c) for g, c in v.items()} for k, v in {
    "J++": {"j1": -2, "j2": (0, 2)},
    "J+-": {"j3": -2},
    "J--": {"j1": 2, "j2": (0, 2)},
    "P++": {"p3": -1, "p0": (0, -1)},
    "P+-": {"p1": -1, "p2": (0, 1)},
    "P-+": {"p1": 1, "p2": (0, 1)},
    "P--": {"p3": -1, "p0": (0, 1)},
    "K++": {"k1": 2, "k2": (0, 2)},
    "K+-": {"k3": -2},
    "K--": {"k1": -2, "k2": (0, 2)},
}.items()}

# vector generators written in the spinor basis: the exact inverse map
VECTOR_IN_SPINOR = {
    v: {s: c for s, c in zip(SPINOR_GENERATORS, row) if c}
    for v, row in zip(VECTOR_GENERATORS, frac_mat_inverse(
        [[SPINOR_IN_VECTOR[s].get(v, ZERO) for v in VECTOR_GENERATORS]
         for s in SPINOR_GENERATORS]))}


def bracket_table(basis="spinor", mutate=None):
    """Structure constants as {(g1, g2): {gen: CRat}}.

    mutate="k-bracket" deliberately corrupts one K-K constant, in the
    (K++, K+-) orientation the checks read, and negates it into its partner so
    the table stays antisymmetric; it exists so that failure paths of the
    verification drivers can be exercised.
    """
    table = _SPINOR_TABLE if basis == "spinor" else _VECTOR_TABLE
    if mutate is None:
        return table
    if mutate == "k-bracket":
        bad = {k: dict(v) for k, v in table.items()}
        key = ("K++", "K+-") if basis == "spinor" else ("k1", "k2")
        tgt = bad[key]
        first = next(iter(tgt))
        tgt[first] = tgt[first] + 1
        bad[key[::-1]] = {g: -c for g, c in tgt.items()}
        return bad
    raise ValueError(f"unknown mutation {mutate!r}")


def bracket(x, y, table=None):
    """Bilinear bracket of two LieElements in a common basis."""
    assert x.basis == y.basis
    if table is None:
        table = bracket_table(x.basis)
    out = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            c12 = c1 * c2
            add_into(out, ((g, c12 * c) for g, c in table[(g1, g2)].items()))
    return LieElement(out, x.basis)


def structure_constants(basis="spinor", mutate=None):
    """f[a, b, c], the coefficient of generator c in [a, b], as an exact
    array of shape (10, 10, 10, 2); mutate as in bracket_table."""
    if basis == "vector" and mutate is None:
        return _VECTOR_F
    return _constants(basis, mutate)


@cache
def _constants(basis, mutate):
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    num, den = exact_array(bracket_table(basis, mutate),
                           list(product(gens, repeat=2)), gens)
    return num.reshape(10, 10, 10, 2), den


def verify_jacobi(basis="spinor", mutate=None):
    """Max residual of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]] over generator triples.

    Returns (max_residual, worst_triple), the worst triple the first in
    combinations order with the largest residual; the residual is exactly
    zero for the genuine tables, and the triple then None.
    """
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    f, den = structure_constants(basis, mutate)
    triples = list(combinations(range(len(gens)), 3))
    x, y, z = np.array(triples).T
    # [A, [B, C]] = sum over d, e of f[b, c, d] f[a, d, e] g_e
    r = np.abs(sum(_contract("tdi,tdej,ijk->tek", f[b, c], f[a])
                   for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
               ).sum(axis=2).max(axis=1)
    k = int(np.argmax(r))
    if not r[k]:
        return Fraction(0), None
    return Fraction(int(r[k]), den * den), tuple(gens[i] for i in triples[k])


def reality(x):
    """Conjugate-linear involution X -> X^dagger extended to elements.

    Every vector-basis generator is antihermitean, X^dagger = -X; on the
    spinor generators it is REALITY_SPINOR, which is derived from that.
    """
    if isinstance(x, str):
        x = LieElement.gen(x)
    if x.basis == "spinor":
        return _linear_image(x.conj(), REALITY_SPINOR, "spinor")
    return x.conj().scale(-1)


def _linear_image(x, images, basis):
    """The LieElement sum of c * images[g] over the terms c * g of x."""
    return LieElement(add_into({}, ((g2, c * s) for g, c in x.terms.items()
                                    for g2, s in images[g].items())), basis)


def basis_change(x, to):
    """Map a LieElement to the other basis; round trips are exact."""
    if x.basis == to:
        return x
    return _linear_image(x, SPINOR_IN_VECTOR if to == "vector"
                         else VECTOR_IN_SPINOR, to)


# the conjugate-linear involution X -> X^dagger on the spinor generators,
# carried over from X^dagger = -X on the vector basis
REALITY_SPINOR = {g: basis_change(reality(basis_change(
    LieElement.gen(g), "vector")), "spinor").terms for g in SPINOR_GENERATORS}


@cache
def basis_maps():
    """(S, S^-1, R): SPINOR_IN_VECTOR, VECTOR_IN_SPINOR and REALITY_SPINOR as
    10 x 10 exact arrays, row g the image of generator g."""
    return tuple(exact_array(table, rows, cols) for table, rows, cols in (
        (SPINOR_IN_VECTOR, SPINOR_GENERATORS, VECTOR_GENERATORS),
        (VECTOR_IN_SPINOR, VECTOR_GENERATORS, SPINOR_GENERATORS),
        (REALITY_SPINOR, SPINOR_GENERATORS, SPINOR_GENERATORS)))


# ---------------------------------------------------------------------------
# contraction to the three-oscillator Heisenberg algebra plus one compact factor
# ---------------------------------------------------------------------------

CONTRACTED_GENERATORS = ("J++", "J+-", "J--",
                         "pi++", "pi+-", "pi-+", "pi--",
                         "Z++", "Z--", "I")

# contracted generator -> (original generator, power of 1/lambda)
_CONTRACTION_SCALING = {
    "J++": ("J++", 0), "J+-": ("J+-", 0), "J--": ("J--", 0),
    "pi++": ("P++", 1), "pi+-": ("P+-", 1),
    "pi-+": ("P-+", 1), "pi--": ("P--", 1),
    "Z++": ("K++", 1), "Z--": ("K--", 1),
    "I": ("K+-", 2),
}
_ORIG_TO_CONTRACTED = {v[0]: (k, v[1]) for k, v in _CONTRACTION_SCALING.items()}


def _contraction_bracket_laurent(g1, g2):
    """[g1, g2] of rescaled generators as {lambda-exponent: {gen: CRat}}."""
    o1, e1 = _CONTRACTION_SCALING[g1]
    o2, e2 = _CONTRACTION_SCALING[g2]
    out = {}
    for g, c in _SPINOR_TABLE[(o1, o2)].items():
        gc, eg = _ORIG_TO_CONTRACTED[g]
        # bracket of old/lambda^e generators re-expanded: exponent of 1/lambda
        e = e1 + e2 - eg
        if e < 0:
            raise ValueError("contraction limit does not exist")
        out.setdefault(e, {})[gc] = c
    return out


def contraction_constants(lam):
    """Structure constants of the rescaled basis at a finite parameter.

    The rescaled generators are the original ones divided by lambda (momenta
    and the off-diagonal compact pair) or lambda^2 (the future central
    element); at lambda -> infinity the constants converge to
    contraction_limit() with per-entry residual O(1/lambda).
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    table = {}
    for g1 in CONTRACTED_GENERATORS:
        for g2 in CONTRACTED_GENERATORS:
            acc = {}
            for e, res in _contraction_bracket_laurent(g1, g2).items():
                w = crat(Fraction(1) / lam ** e)
                add_into(acc, ((g, c * w) for g, c in res.items()))
            table[(g1, g2)] = acc
    return table


def contraction_limit():
    """The lambda -> infinity structure constants; "I" is central."""
    table = {}
    for g1 in CONTRACTED_GENERATORS:
        for g2 in CONTRACTED_GENERATORS:
            res = _contraction_bracket_laurent(g1, g2).get(0, {})
            table[(g1, g2)] = {g: c for g, c in res.items() if c}
    return table


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
        if res.is_zero():
            ev = CRat()
        elif set(res.terms) == {g}:
            ev = res.terms[g]
        else:
            raise ValueError(f"not a grading element: ad on {g} is not diagonal")
        key = (ev.re, ev.im)
        grades.setdefault(key, set()).add(g)
    return grades


GRADING_ELEMENT = LieElement({"K+-": CRat(0, -1)})  # -i K_{+.-.}


# ---------------------------------------------------------------------------
# Killing form and quadratic Casimir data
# ---------------------------------------------------------------------------

def killing_form():
    """B(X,Y) = tr(ad X ad Y) on the vector basis, exact Fractions."""
    # ad[a][c][b]: coefficient of generator c in [a, b], all real
    ad = [[[_VECTOR_TABLE[g, h].get(c, ZERO).re for h in VECTOR_GENERATORS]
           for c in VECTOR_GENERATORS] for g in VECTOR_GENERATORS]
    return [[sum(x[i][j] * y[j][i] for i in range(10) for j in range(10))
             for y in ad] for x in ad]


@cache
def casimir_pairs():
    """Dual-basis pairs (g_a, g_b, coeff) with C2 = sum coeff * g_a g_b."""
    binv = frac_mat_inverse(killing_form())
    return tuple((ga, gb, binv[a][b])
                 for a, ga in enumerate(VECTOR_GENERATORS)
                 for b, gb in enumerate(VECTOR_GENERATORS) if binv[a][b] != 0)


def _max_abs(x, y):
    """The largest |re| + |im| (CRat's abs) over the entries of x - y, two
    exact arrays, as a Fraction."""
    (a, p), (b, q) = x, y
    d = lcm(p, q)
    return Fraction(int(np.abs(a * (d // p) - b * (d // q)).sum(-1).max()), d)


def _image(f, m):
    """sum over c of f[a, b, c] m[c]: each bracket mapped through m."""
    return _contract("abci,cdj,ijk->abdk", f[0], m[0]), f[1] * m[1]


def _bracket_of_images(m, f):
    """sum over x, y of m[a, x] m[b, y] f[x, y]: [m a, m b] in the table f."""
    inner = _contract("byi,xydj,ijk->bxdk", m[0], f[0])
    return _contract("axi,bxdj,ijk->abdk", m[0], inner), m[1] ** 2 * f[1]


def cross_basis_residual():
    """Exact max deviation between brackets computed in either basis.

    For every spinor generator pair, [X, Y] computed from the spinor table
    is mapped to the vector basis and compared against the bracket of the
    mapped arguments computed with the vector table, and vice versa.
    """
    s, s_inv, _ = basis_maps()
    fs, fv = structure_constants("spinor"), structure_constants("vector")
    return max(_max_abs(_image(fs, s), _bracket_of_images(s, fv)),
               _max_abs(_image(fv, s_inv), _bracket_of_images(s_inv, fs)))


def reality_bracket_residual():
    """Exact check that the involution antiautomorphizes the bracket:
    [X, Y]^dagger = -[X^dagger, Y^dagger], the involution conjugate-linear."""
    (f, den), r = structure_constants("spinor"), basis_maps()[2]
    rhs, d = _bracket_of_images(r, (f, den))
    return _max_abs(_image((f * [1, -1], den), r), (-rhs, d))
