"""The ten-dimensional quaternionic unitary Lie algebra, exactly.

Two bases are carried in parallel:

* the vector basis (j1, j2, j3, p0, p1, p2, p3, k1, k2, k3) of the
  antihermitean quaternionic 2x2 matrices X, each written once as the exact
  integer matrix 2X = [[mu, nu], [-nubar, kappa]] with one unit component;
* the spinor basis (J^{ab}, P^a_{adot}, K_{adot bdot}) obtained from the
  complex linear change of basis S

      J^{++} = -2 j1 + 2i j2     J^{+-} = -2 j3      J^{--} = 2 j1 + 2i j2
      P^+_+. = -p3 - i p0        P^+_-. = -p1 + i p2
      P^-_+. =  p1 + i p2        P^-_-. = -p3 + i p0
      K_+.+. = 2 k1 + 2i k2      K_+.-. = -2 k3      K_-.-. = -2 k1 + 2i k2

Spinor generator names use two sign characters: "J++", "J+-", "J--" (the
undotted symmetric pair), "P++" .. "P--" (first sign undotted, second dotted),
"K++", "K+-", "K--" (dotted symmetric pair).

Every table is an exact array: a pair (num, den), an int64 array num whose
last axis holds real and imaginary numerators, over one positive int den, in
lowest terms.  Data: the spinor brackets, written from the paper's epsilon
contractions, and S.  Derived: the vector brackets, from the commutators of
the integer matrices; S^-1 = S^H (S S^H)^-1, S S^H being diagonal (checked);
the reality map R = -conj(S) S^-1, from X^dagger = -X on the vector basis;
the Killing form B, a real integer einsum of the vector brackets (no
imaginary axis); and the Casimir weights W = S^-1^T B^-1 S^-1.
cross_basis_residual therefore compares the paper's spinor brackets with the
matrix algebra itself.

bracket_table gives f[a, b, c], the coefficient of generator c in [a, b];
basis_maps gives S, S^-1 and R, row g the image of generator g.  The exact
checks are integer einsum contractions of these: verify_jacobi sums
f[y, z, d] f[x, d, e] over d with its two cyclic terms, cross_basis_residual
compares f S with S S f in both bases, and reality_bracket_residual
conj(f) R with -R R f.  They return Fractions.

int64 cannot wrap in them: _checked refuses a numerator or denominator
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

SPINOR_GENERATORS = ("J++", "J+-", "J--",
                     "P++", "P+-", "P-+", "P--",
                     "K++", "K+-", "K--")

VECTOR_GENERATORS = ("j1", "j2", "j3", "p0", "p1", "p2", "p3",
                     "k1", "k2", "k3")

# the 45 unordered generator pairs, in combinations order
GENERATOR_PAIRS = tuple(combinations(SPINOR_GENERATORS, 2))

# _GMUL[a, b]: the components of e_a e_b for (e_0, e_1) = (1, i), the
# quaternion table on its complex subalgebra
_GMUL = QMUL.reshape(4, 4, 4)[:2, :2, :2]
ENTRY_MAX = 2 ** 10


def _checked(num, den):
    """The read-only exact array (num, den) in lowest terms; OverflowError
    when an entry is above ENTRY_MAX, past which int64 contractions could
    wrap."""
    g = int(np.gcd(np.gcd.reduce(num, axis=None), den))
    num, den = num // g, den // g
    if max(den, np.abs(num).max(initial=0)) > ENTRY_MAX:
        raise OverflowError(f"exact table entry above {ENTRY_MAX}")
    num = np.ascontiguousarray(num)
    num.flags.writeable = False
    return num, den


def float_image(x):
    """The complex floats of an exact array (num, den), each part num / den."""
    return (x[0] / x[1]).view(complex)[..., 0]


def _contract(spec, x, y):
    """The einsum spec of two numerator arrays and _GMUL, their
    Gaussian-integer product; x meets _GMUL first."""
    return np.einsum(spec, x, y, _GMUL,
                     optimize=["einsum_path", (0, 2), (0, 1)])


# epsilon^{ab} with (-eps^{ab}) = [[0,-1],[1,0]] and eps_{adot bdot} =
# [[0,-1],[1,0]], the sign indices 0 for + and 1 for -
EPS_UP = ((0, 1), (-1, 0))
EPS_DN = ((0, -1), (1, 0))


def _p(a, adot):
    """The index of P^a_adot; J^{ab} has index a + b and K_{ab} 7 + a + b."""
    return 3 + 2 * a + adot


def _spinor_constants():
    """The spinor brackets from the epsilon contractions as an exact array:
    [g1, g2] is i times the sum of eps g over the contractions (eps, g)."""
    f = np.zeros((10, 10, 10), dtype=np.int64)
    pairs, signs = ((0, 0), (0, 1), (1, 1)), (0, 1)
    for k, eps in ((0, EPS_UP), (7, EPS_DN)):             # J-J and K-K
        for (a, b), (c, d) in product(pairs, pairs):
            for e, (x, y) in ((eps[a][c], (b, d)), (eps[a][d], (b, c)),
                              (eps[b][c], (a, d)), (eps[b][d], (a, c))):
                f[k + a + b, k + c + d, k + x + y] += e
    for (a, b), c, cd in product(pairs, signs, signs):
        f[a + b, _p(c, cd), _p(b, cd)] += EPS_UP[a][c]     # J-P
        f[a + b, _p(c, cd), _p(a, cd)] += EPS_UP[b][c]
        f[7 + a + b, _p(c, cd), _p(c, b)] += EPS_DN[a][cd]     # K-P
        f[7 + a + b, _p(c, cd), _p(c, a)] += EPS_DN[b][cd]
    for a, ad, b, bd in product(signs, repeat=4):            # P-P
        f[_p(a, ad), _p(b, bd), a + b] += EPS_DN[ad][bd]
        f[_p(a, ad), _p(b, bd), 7 + ad + bd] += EPS_UP[a][b]
    # P-J and P-K by antisymmetry; J and K commute
    f[3:7, :3] = -f[:3, 3:7].swapaxes(0, 1)
    f[3:7, 7:] = -f[7:, 3:7].swapaxes(0, 1)
    return _checked(np.stack([0 * f, f], axis=-1), 1)


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


_SPINOR_F = _spinor_constants()
_VECTOR_F = _vector_constants(_vector_matrices())

# S, row g the spinor generator g in the vector basis: the display above
_S = np.array([
    # j1  j2  j3  p0   p1  p2  p3  k1  k2  k3
    [-2, 2j, 0, 0, 0, 0, 0, 0, 0, 0],         # J++
    [0, 0, -2, 0, 0, 0, 0, 0, 0, 0],          # J+-
    [2, 2j, 0, 0, 0, 0, 0, 0, 0, 0],          # J--
    [0, 0, 0, -1j, 0, 0, -1, 0, 0, 0],        # P++
    [0, 0, 0, 0, -1, 1j, 0, 0, 0, 0],         # P+-
    [0, 0, 0, 0, 1, 1j, 0, 0, 0, 0],          # P-+
    [0, 0, 0, 1j, 0, 0, -1, 0, 0, 0],         # P--
    [0, 0, 0, 0, 0, 0, 0, 2, 2j, 0],          # K++
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -2],          # K+-
    [0, 0, 0, 0, 0, 0, 0, -2, 2j, 0]])        # K--


def bracket_table(basis="spinor", mutate=None):
    """f[a, b, c], the coefficient of generator c in [a, b], as an exact
    array of shape (10, 10, 10, 2).

    mutate="k-bracket" deliberately adds 1 to one K-K constant, the K++
    coefficient of [K++, K+-] (the k3 coefficient of [k1, k2]), the
    orientation the checks read, and subtracts it from the partner so the
    table stays antisymmetric; it exists so that failure paths of the
    verification drivers can be exercised.
    """
    num, den = _SPINOR_F if basis == "spinor" else _VECTOR_F
    if mutate is None:
        return num, den
    if mutate != "k-bracket":
        raise ValueError(f"unknown mutation {mutate!r}")
    a, b, c = (7, 8, 7) if basis == "spinor" else (7, 8, 9)
    num = num.copy()
    num[a, b, c, 0] += den
    num[b, a, c, 0] -= den
    return _checked(num, den)


# the generators (x, y) of each pair of GENERATOR_PAIRS, the upper triangle
# in row-major order; PAIR_INDEX[x, y] = PAIR_INDEX[y, x] is its position
_PAIR_X, _PAIR_Y = np.triu_indices(len(SPINOR_GENERATORS), 1)
PAIR_INDEX = np.zeros((len(SPINOR_GENERATORS),) * 2, dtype=np.intp)
PAIR_INDEX[_PAIR_X, _PAIR_Y] = PAIR_INDEX[_PAIR_Y, _PAIR_X] = range(
    len(GENERATOR_PAIRS))


def pair_brackets(mutate=None):
    """Row p: [x, y] for the p-th pair {x, y} of GENERATOR_PAIRS, from
    bracket_table("spinor", mutate), as an exact array (45, 10, 2)."""
    num, den = bracket_table("spinor", mutate)
    return num[_PAIR_X, _PAIR_Y], den


def verify_jacobi(basis="spinor", mutate=None):
    """Max residual of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]] over generator triples.

    Returns (max_residual, worst_triple), the worst triple the first in
    combinations order with the largest residual; the residual is exactly
    zero for the genuine tables, and the triple then None.
    """
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    f, den = bracket_table(basis, mutate)
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


@cache
def basis_maps():
    """(S, S^-1, R) as 10 x 10 exact arrays, row g the image of generator g:
    S the change of basis above, S^-1 = S^H (S S^H)^-1 and R = -conj(S) S^-1,
    the conjugate-linear involution X -> X^dagger on the spinor generators
    carried over from X^dagger = -X on the vector basis.  ValueError unless
    S S^H is diagonal with a nonzero diagonal."""
    s = np.stack([_S.real, _S.imag], axis=-1).astype(np.int64)
    conj = s * [1, -1]
    gram = _contract("gvi,hvj,ijk->ghk", s, conj)
    d = gram[range(10), range(10), 0]
    if (d <= 0).any() or np.count_nonzero(gram) != len(d):
        raise ValueError("S S^H is not diagonal")
    den = lcm(*d.tolist())
    s_inv = conj.swapaxes(0, 1) * (den // d)[None, :, None]
    r = _contract("gvi,vhj,ijk->ghk", conj, s_inv)
    return _checked(s, 1), _checked(s_inv, den), _checked(-r, den)


def killing_form():
    """B(X, Y) = tr(ad X ad Y) on the vector basis as (num, den), num a
    10 x 10 integer array: the vector brackets are real."""
    f, den = bracket_table("vector")
    # ad X [c, d] = f[x, d, c]
    return _checked(np.einsum("xdc,ycd->xy", f[..., 0], f[..., 0]), den * den)


def casimir_weights():
    """W with C2 = sum over x, y of W[x, y] x y on the spinor generators, as
    an exact array: W = S^-1^T B^-1 S^-1.  ValueError unless the Killing form
    B is diagonal in the vector basis, as it is."""
    (b, bden), (s_inv, den) = killing_form(), basis_maps()[1]
    d = np.diagonal(b)
    if not d.all() or np.count_nonzero(b) != len(d):
        raise ValueError("the Killing form is not diagonal")
    # B^-1 = diag(bden / d) = diag(bden (lcd / d)) / lcd
    lcd = lcm(*d.tolist())
    w = s_inv * (bden * lcd // d)[:, None, None]
    return _checked(_contract("axi,ayj,ijk->xyk", w, s_inv), den * den * lcd)


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
    fs, fv = bracket_table("spinor"), bracket_table("vector")
    return max(_max_abs(_image(fs, s), _bracket_of_images(s, fv)),
               _max_abs(_image(fv, s_inv), _bracket_of_images(s_inv, fs)))


def reality_bracket_residual():
    """Exact check that the involution antiautomorphizes the bracket:
    [X, Y]^dagger = -[X^dagger, Y^dagger], the involution conjugate-linear."""
    (f, den), r = bracket_table("spinor"), basis_maps()[2]
    rhs, d = _bracket_of_images(r, (f, den))
    return _max_abs(_image((f * [1, -1], den), r), (-rhs, d))
