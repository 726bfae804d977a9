"""Finite-dimensional representations on truncated three-oscillator Fock spaces.

The space at level m is spanned by occupation states |n1, n2, n3> with
n1 + n2 + n3 <= m - 1, dimension binom(m+2, 3), ordered graded-lex by
(total, n1, n2) ascending, so each level is the prefix of the next.

One evaluator applies slot words to the occupation states: build_rho the
words of weyl.GENERATOR_TERMS with the exact operator square root S
(deformation parameter 1/m), build_rho_partial with its partial sums, and
matrix_of_laurent the monomials of symbolic Laurent elements, which closes
the algebra <-> operator loop.  The first two return LevelMatrix values.
A word moves the occupations by a fixed shift, so a level is a sum of a few
shifted diagonals: the checks multiply those, two gathered vectors each.
"""

import json
import math
import pathlib
from functools import lru_cache

import numpy as np

from .u2h import (GENERATOR_PAIRS, PAIR_INDEX, SPINOR_GENERATORS,
                  basis_maps, casimir_weights, float_image, pair_brackets)
from .weyl import GENERATOR_TERMS, _runs

GENERATOR_NAMES = SPINOR_GENERATORS

# Largest level the command line builds.  `verify --m M..M --ell 0..0` on
# 2 vCPUs measured 35 MiB / 0.18 s at M = 12 and 38 MiB / 0.22 s at M = 20
# (whole process, median of seven); the bound is transport's dense level-m
# matrix: a 2000-step loop at M = 20 (D = 1540) took 0.51-0.74 s, 124 MiB.
M_MAX = 20

# Largest truncation order `verify` and `table` run.  The formal embedding
# and its classical mirror took 3.0 + 0.1 s at ell = 8, 8.4 + 0.2 s at
# ell = 10 and 33 + 0.3 s at ell = 12 (392 MiB peak) on 2 vCPUs (one run
# each), roughly doubling with each ell.
ELL_MAX = 12

# Largest level `dump-rep --format json` writes.  The JSON dump holds every
# generator's dense nested lists at once: on 2 vCPUs it peaked at 109 / 246
# / 584 MiB RSS and took 0.8 / 3.0 / 8.5 s at m = 8 / 10 / 12, growing as
# dim(m)^2; binary dumps stream one generator at a time.
JSON_DUMP_M_MAX = 12


def dim(m):
    if m < 1:
        raise ValueError("m must be a positive integer")
    return math.comb(m + 2, 3)


def basis(m):
    """Occupation triples with total <= m-1, graded-lex (total, n1, n2)."""
    out = []
    for total in range(m):
        for n1 in range(total + 1):
            for n2 in range(total - n1 + 1):
                out.append((n1, n2, total - n1 - n2))
    return out


def basis_index(m):
    return {state: i for i, state in enumerate(basis(m))}


@lru_cache(maxsize=None)
def _occupations(m):
    """np.array(basis(m)).T, read-only: its callers share it."""
    occ = np.array(basis(m)).T
    occ.flags.writeable = False
    return occ


def _rank(n1, n2, n3):
    """The graded-lex position of (n1, n2, n3) in basis(): dim(t) states lie
    below total t, n1 (t + 1) - n1 (n1 - 1)/2 below n1 within it."""
    t = n1 + n2 + n3
    return t * (t + 1) * (t + 2) // 6 + n1 * (t + 1) - n1 * (n1 - 1) // 2 + n2


# columns of a level that sym_power fills at once: the slice of the level
# below that they read stays in cache
_LIFT_COLUMNS = 32


@lru_cache(maxsize=None)
def _lowered(m):
    """The states of level m as sym_power reads them: for each state the
    mode j of its largest occupation k_j, the position of k - e_j in
    basis(m - 1) and 1/sqrt(k_j); and for each mode i the states with
    k_i > 0, sqrt(k_i) on them (a column) and the positions of k - e_i."""
    n = _occupations(m)
    k = np.stack([m - 1 - n.sum(axis=0), n[2], n[1], n[0]])
    drop = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])
    down = _rank(*(n[None] - drop[:, :, None]).transpose(1, 0, 2))
    j = np.argmax(k, axis=0)
    col = np.arange(len(j))
    modes = [(rows, np.sqrt(ki[rows])[:, None], di[rows])
             for ki, di in zip(k, down) for rows in [np.flatnonzero(ki)]]
    return j, down[j, col], 1.0 / np.sqrt(k[j, col]), modes


def sym_power(u, m):
    """The matrix of Gamma(u) on level m = Sym^(m-1) C^4, in basis(m) order,
    for a 4 x 4 matrix u of level 2.

    State (n1, n2, n3) has the occupations k = (m-1-n1-n2-n3, n3, n2, n1),
    so level-2 index i is mode i.  Gamma(u) sends a_j^dagger to
    sum_i u[i, j] a_i^dagger, so each level follows from the one below,
    _LIFT_COLUMNS columns at a time:

        U_m[k', k] = sum_i u[i, j] sqrt(k'_i / k_j) U_(m-1)[k' - e_i, k - e_j]

    for any j with k_j > 0, here the largest.  Gamma is multiplicative and
    Gamma(u^H) = Gamma(u)^H (Bargmann, Commun. Pure Appl. Math. 14, 187
    (1961)).
    """
    dim(m)
    u = np.asarray(u, dtype=complex)
    out = u.copy() if m > 1 else np.ones((1, 1), dtype=complex)
    for level in range(3, m + 1):
        j, src, scale, modes = _lowered(level)
        d = len(j)
        new = np.empty((d, d), dtype=complex)
        for c in range(0, d, _LIFT_COLUMNS):
            cs = slice(c, c + _LIFT_COLUMNS)
            w = out[:, src[cs]] * scale[cs]
            acc = np.zeros((d, w.shape[1]), dtype=complex)
            for ui, (rows, root, down) in zip(u[:, j[cs]], modes):
                term = (w * ui)[down]
                term *= root
                acc[rows] += term
            new[:, cs] = acc
        out = new
    return out


def _apply_words(words, occ, cod_m, sides=(), s=None):
    """Slot words on the occupation columns occ (3, D): the word, the row in
    level cod_m, the column and the real amplitude of every nonzero entry,
    word by word.

    A word acts right to left.  Each oscillator gives one square root, of
    the product of its integer ladder radicands, and each app a sign.  S,
    on the side that sides names, is s[tau] at tau = total occupation + 1:
    of the output left of the word, of the input right of it.  Lowering an
    empty mode gives radicand 0, so every nonzero entry lands on an
    occupation state; one outside level cod_m raises ValueError.
    """
    # each slot multiplies the radicand of its mode by n + offset, n the
    # mode's input occupation; shift is the word's net change of n
    slots, shift, sign = [], [], []
    for w, word in enumerate(words):
        net = [0, 0, 0]
        for slot in reversed(word):
            k = slot % 3
            net[k] += slot < 3
            slots += (w, k, net[k])
            net[k] -= slot >= 3
        shift += net
        sign.append((-1.0) ** word.count(4))
    owner, mode, off = np.array(slots, dtype=np.int64).reshape(-1, 3).T
    rad = np.ones((len(words), *occ.shape), dtype=np.int64)
    np.multiply.at(rad, (owner, mode), occ[mode] + off[:, None])
    amp = np.array(sign)[:, None] * np.sqrt(rad).prod(axis=1)
    out = occ + np.array(shift, dtype=np.int64).reshape(-1, 3, 1)
    if s is not None:
        with_s = [w for w, side in enumerate(sides) if side is not None]
        left = np.array([sides[w] == "left" for w in with_s])
        amp[with_s] *= s[np.where(left[:, None], out[with_s].sum(axis=1),
                                  occ.sum(axis=0)) + 1]
    word, col = np.nonzero(amp)
    out = out[word, :, col]
    t = out.sum(axis=1)
    if t.size and t.max() >= cod_m:
        raise ValueError(f"state {tuple(out[np.argmax(t)].tolist())} "
                         "escapes the codomain block")
    return word, _rank(*out.T), col, amp[word, col]


# the terms of GENERATOR_TERMS, each with the position of its generator
_GEN, _COEFF, _GRADE, _WORDS, _SIDES = zip(*(
    (g, *term) for g, terms in enumerate(GENERATOR_TERMS.values())
    for term in terms))


class LevelMatrix:
    """A level matrix as its stored entries: the row, column and value of
    every nonzero in row-major order, each position once.  np.asarray and
    toarray give the dense matrix."""

    __slots__ = ("row", "col", "val", "shape")

    def __init__(self, row, col, val, shape):
        self.row, self.col, self.val, self.shape = row, col, val, shape

    @property
    def nbytes(self):
        return self.row.nbytes + self.col.nbytes + self.val.nbytes

    def toarray(self):
        out = np.zeros(self.shape, dtype=complex)
        out[self.row, self.col] += self.val  # a -0.0 part reads +0.0
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype)


def _grouped(key):
    """A stable order of key, its runs of equal keys (the starts and, for
    n = 1, 2, ..., the runs with an n-th term and its position), their keys."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    run, at = _runs(np.diff(first, append=len(key)), first)
    n = at - first[run]
    steps = [(run[n == k], at[n == k]) for k in range(1, n.max(initial=0) + 1)]
    return order, (first, steps), key[first]


def _fold(val, runs):
    """The sum v1 + v2 + ... of each run of the values (or rows) val."""
    out = val[runs[0]]
    for live, at in runs[1]:
        out[live] += val[at]
    return out


def _assemble(m, s, dom_m, cod_m):
    """GENERATOR_TERMS at hbar = 1/m with S = s[tau], as D(cod_m) x D(dom_m)
    level matrices."""
    occ = _occupations(dom_m)
    word, row, col, amp = _apply_words(_WORDS, occ, cod_m, _SIDES, s)
    coeff = np.array([c.to_complex() * float(m) ** (-grade / 2)
                      for c, grade in zip(_COEFF, _GRADE)])
    # the terms of a generator on one position sum in word order; the
    # diagonal terms of K+- and J+- cancel on some states
    shape = (dim(cod_m), occ.shape[1])
    gen = np.array(_GEN)[word]
    order, runs, _ = _grouped((gen * shape[0] + row) * shape[1] + col)
    val = _fold((coeff[word] * amp)[order], runs)
    at, val = order[runs[0]][val != 0], val[val != 0]
    row, col = row[at].astype(np.int32), col[at].astype(np.int32)
    bounds = np.searchsorted(gen[at], np.arange(len(GENERATOR_TERMS) + 1))
    return {name: LevelMatrix(row[a:b], col[a:b], val[a:b], shape)
            for name, a, b in zip(GENERATOR_TERMS, bounds, bounds[1:])}


def build_rho(m):
    """The exact level-m representation: ten D x D level matrices."""
    return _assemble(m, np.sqrt(m - np.arange(m + 1.0)), m, m)


def sqrt_series_value(ell, x):
    """Partial sum of the sqrt(1 - x) Taylor series through order ell.

    At x = 1 it is C(2 ell, ell) / 4^ell (Concrete Mathematics, eq. 5.16),
    taken from ell = 512 on from the Stirling series of its logarithm, good
    to a few ulp.  For 0 <= x < 1 the sum stops at the first term that leaves
    it unchanged; the later terms are smaller and of the same sign.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if x == 1 and ell >= 512:
        return math.exp(-0.5 * math.log(math.pi * ell) - 1 / (8 * ell)
                        + 1 / (192 * ell ** 3) - 1 / (640 * ell ** 5))
    acc, c = 0.0, 1.0
    for k in range(ell + 1):
        term = c * x ** k
        if acc + term == acc and 0 <= x < 1:
            break
        acc += term
        c *= (2 * k - 1) / (2 * k + 2)
    return acc


def build_rho_partial(m, ell, domain_m=None):
    """Square roots replaced by partial sums; maps level m into level m+1.

    Matrices are D(domain_m + 1) x D(domain_m) with hbar fixed at 1/m
    (domain_m defaults to m; passing domain_m = m + 1 gives the next block
    of the same operator, as needed for curvature compositions).  S at tau
    is sqrt(m) times the series at tau/m.
    """
    dm = m if domain_m is None else domain_m
    s = math.sqrt(m) * np.array([sqrt_series_value(ell, t / m)
                                 for t in range(dm + 1)])
    return _assemble(m, s, dm, dm + 1)


def matrix_of_laurent(lau, m, m_domain, m_codomain):
    """Evaluate the Laurent elements {name: element} at hbar = 1/m, grade
    g -> m^(-g/2), as dense D(m_codomain) x D(m_domain) matrices
    {name: matrix}, all in one evaluator call."""
    blocks = [(name, g) for name, x in lau.items() for g in x.grades]
    terms = [(b, sum(((slot,) * e for slot, e in enumerate(key)), ()), c)
             for b, (name, g) in enumerate(blocks)
             for key, c in lau[name].grades[g].terms.items()]
    b, words, coeff = zip(*terms) if terms else ((), (), ())
    occ = _occupations(m_domain)
    word, row, col, amp = _apply_words(words, occ, m_codomain)
    # each (element, grade) block is summed before it is scaled, which fixes
    # the rounding the commuting-diagram residuals are reported with
    shape = (dim(m_codomain), dim(m_domain))
    mats = np.zeros((len(blocks), *shape), dtype=complex)
    np.add.at(mats, (np.array(b, dtype=np.intp)[word], row, col),
              np.array([c.to_complex() for c in coeff])[word] * amp)
    out = {name: np.zeros(shape, dtype=complex) for name in lau}
    for (name, g), mat in zip(blocks, mats):
        out[name] += float(m) ** (-g / 2.0) * mat
    return out


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

# level checks: columns per block, most diagonals (a level has 14; the work
# arrays hold a block's row per product of two diagonals)
_COLUMNS, _DIAGONALS = 256, 32


@lru_cache(maxsize=None)
def _bracket_coefficients(mutate=None):
    """Row p: the coefficients of [x, y] for the p-th pair {x, y}."""
    return float_image(pair_brackets(mutate))


@lru_cache(maxsize=None)
def _reality_coefficients():
    return float_image(basis_maps()[2])


@lru_cache(maxsize=None)
def _casimir_weights():
    """W with C2 = sum over x, y of W[x, y] rho_x rho_y."""
    return float_image(casimir_weights())


def _stored(mat):
    """The row, column and value arrays of a level matrix's stored entries,
    or of a dense matrix's nonzeros, in row-major order."""
    if isinstance(mat, LevelMatrix):
        return mat.row, mat.col, mat.val
    mat = np.asarray(mat)
    i, j = np.nonzero(mat)
    return i, j, mat[i, j]


def _entries(rep):
    """The stored entries of the ten matrices of rep as arrays
    (g, i, j, value), g the position in GENERATOR_NAMES, ordered by
    (g, i, j), and their number of rows d.  Dense input, such as a loaded
    dump, is accepted."""
    parts = [_stored(rep[g]) for g in GENERATOR_NAMES]
    i, j, v = (np.concatenate(x) for x in zip(*parts))
    g = np.repeat(np.arange(len(parts)), [len(p[2]) for p in parts])
    return ((g, i.astype(np.int64), j.astype(np.int64), v),
            rep[GENERATOR_NAMES[0]].shape[0])


def _ladder(rep):
    """rep as at most _DIAGONALS diagonals, else ValueError: the stored
    entries (dense input too) grouped by generator g and shift t = occ(i) -
    occ(j), in order of the codes g B + L(t) + B/2, L(t) = ((t1 + t2 + t3) b
    + t1) b + t2 linear, b = 8m, B = b^3, graded-lex for |t_k| < 2m.  Gives
    (m, the codes as bytes), the plans' key; the amplitudes of the diagonals,
    then of their adjoints, 0 on column d; the rows, d in empty columns."""
    (g, i, j, v), d = _entries(rep)
    m = next(m for m in range(1, d + 2) if dim(m) >= d)
    b, (n1, n2, n3) = 8 * m, _occupations(m)
    span, lin = b ** 3, ((n1 + n2 + n3) * b + n1) * b + n2
    codes, diag = np.unique(g * span + span // 2 + lin[i] - lin[j],
                            return_inverse=True)
    if len(codes) > _DIAGONALS:
        raise ValueError(f"{len(codes)} diagonals, over {_DIAGONALS}")
    amp = np.zeros((2 * len(codes), d + 1), dtype=complex)
    amp[diag, j], amp[len(codes) + diag, i] = v, v.conj()
    row = np.full((len(codes), d), d)
    row[diag, j] = i
    return (m, codes.tobytes()), amp, row


@lru_cache(maxsize=64)
def _plan(m, codes, check, mutate=None):
    """The terms of a level check on the diagonals of the _ladder codes,
    summed in two rounds, each term by term in order.  The first sums the
    products dx dy of diagonals on each (x, y, net shift code code(dx) +
    code(dy) - B/2) in order of dy's shift, the order of the inner index,
    and the terms c times diagonal e on each (p, shift, kind); the second
    those sums, times a weight, on each (group, net shift)."""
    span, n = (8 * m) ** 3, len(GENERATOR_NAMES)
    gen, code = np.divmod(np.frombuffer(codes, dtype=np.int64), span)
    dy, dx = (a.ravel() for a in np.indices((len(gen),) * 2))
    x, y, u = gen[dx], gen[dy], code[dx] + code[dy] - span // 2
    # the adjoints follow, of generators g + n and codes B - code
    gen, code = np.concatenate([gen, gen + n]), np.append(code, span - code)
    # weights: rho_x rho_y - rho_y rho_x - rho([x, y]) of pair p, x first in
    # GENERATOR_NAMES; C2, one group, W[x, y]; (rho X)^dagger - rho(X^dagger)
    on, at, w = x != y, PAIR_INDEX[x, y] * span + u, 1.0 - 2 * (x > y)
    if check == "casimir":
        w = _casimir_weights()[x, y]
        on, at = w != 0, u
    coeffs = (_bracket_coefficients(mutate) if check == "brackets" else
              np.hstack([_reality_coefficients(), np.eye(n)])
              if check == "reality" else np.zeros((0, n)))
    on &= check != "reality"
    p, g = np.nonzero(coeffs)
    count = np.bincount(gen, minlength=coeffs.shape[1])
    t, e = _runs(count[g], (np.cumsum(count) - count)[g])
    c, lin = coeffs[p[t], g[t]], 2 * (p[t] * span + code[e]) + (g[t] < n)
    order, runs, _ = _grouped(((x * n + y) * span + u)[on])
    lin_order, lin_runs, lin_k = _grouped(lin)
    head = order[runs[0]]
    by_key, sums, k = _grouped(np.concatenate([at[on][head], lin_k // 2]))
    w = np.concatenate([w[on][head], 1.0 - 2.0 * (lin_k % 2)])
    return (dx[on][order], dy[on][order], runs, e[lin_order], c[lin_order],
            lin_runs, by_key, w[by_key, None], sums,
            k == span // 2 if check == "casimir" else k // span)


def _sums(rep, check, mutate=None):
    """The check's groups and sums, a block of _COLUMNS columns at a time."""
    key, amp, row = _ladder(rep)
    dx, dy, runs, e, c, lin, order, w, sums, group = _plan(*key, check, mutate)
    for c0 in range(0, row.shape[1], _COLUMNS):
        cs = slice(c0, min(c0 + _COLUMNS, row.shape[1]))
        first = np.concatenate([
            _fold(amp[dx[:, None], row[dy, cs]] * amp[dy, cs], runs),
            _fold(c[:, None] * amp[e, cs], lin)])
        yield group, _fold(w * first[order], sums)


def verify_brackets(rep, mutate=None):
    """(max residual, worst pair) of [rho X, rho Y] = rho([X, Y]), the
    brackets those of u2h.bracket_table("spinor", mutate).

    The worst pair is the first in combinations order with the maximal
    residual, None when every residual is zero.
    """
    res = np.zeros(len(GENERATOR_PAIRS))
    for pair, sums in _sums(rep, "brackets", mutate):
        np.maximum.at(res, pair, np.abs(sums).max(axis=1))
    k = int(np.argmax(res))
    return (float(res[k]), GENERATOR_PAIRS[k]) if res[k] > 0 else (0.0, None)


def verify_reality(rep):
    """Max residual of (rho X)^dagger = rho(X^dagger)."""
    return max(float(np.abs(sums).max(initial=0.0))
               for _, sums in _sums(rep, "reality"))


def verify_traceless(rep):
    (g, i, j, v), d = _entries(rep)
    on = i == j
    diag = np.zeros((len(GENERATOR_NAMES), d), dtype=complex)
    diag[g[on], i[on]] = v[on]
    return float(np.abs(diag.sum(axis=1)).max())


def _k_diagonal(rep):
    """The diagonal of rho(K_+.-.); an off-diagonal nonzero raises
    ValueError."""
    i, j, v = _stored(rep["K+-"])
    if np.any((i != j) & (v != 0)):
        raise ValueError("rho(K+-) has an off-diagonal nonzero")
    diag = np.zeros(rep["K+-"].shape[0], dtype=complex)
    diag[i] = v
    return diag


def k_spectrum(rep):
    """Sorted eigenvalues of -i rho(K_+.-.), exactly integer in theory.

    rho(K_+.-.) is diagonal in the occupation basis, so they are its sorted
    diagonal; an off-diagonal nonzero raises ValueError.
    """
    return np.sort((-1j * _k_diagonal(rep)).real)


def expected_k_spectrum(m):
    vals = [m - 2 * n1 - n2 - n3 - 1 for (n1, n2, n3) in basis(m)]
    return np.sort(np.array(vals, dtype=float))


def commutant_dimension(rep):
    """1, the dimension of {M : [M, rho X] = 0 for all X}, by an exact
    witness on the stored matrices that rho is irreducible:

    (i)   rho(K_+.-.) is diagonal, and the entry of the vacuum, basis
          state 0, occurs on its diagonal exactly once;
    (ii)  the walk from the vacuum along every column that holds exactly
          one nonzero, from column to row, reaches every basis state;
    (iii) so does the walk along every row with exactly one nonzero, from
          row to column.

    Proof.  K is diagonal, so an invariant subspace V is the direct sum of
    its intersections with K's eigenspaces; by (i) V contains the vacuum or
    lies in the kernel of the vacuum's coordinate functional.  A column
    with one nonzero maps its state to a multiple of its row's state, so in
    the first case (ii) puts every state in V.  In the second the
    annihilator of V is invariant under the transposes and contains that
    functional, so (iii) makes the annihilator everything and V = 0.
    Schur's lemma then leaves only the scalars in the commutant.  This is
    the highest-weight argument (Humphreys, Introduction to Lie Algebras
    and Representation Theory, 1972).

    The nonzero pattern is read from the matrices as given, so dense input,
    such as a loaded dump, is checked too.  The witness is sufficient, not
    necessary: a failed condition raises ValueError naming it.
    """
    diag = _k_diagonal(rep)
    if np.count_nonzero(diag == diag[0]) != 1:
        raise ValueError(f"the vacuum's rho(K+-) entry {diag[0]} is not "
                         "simple on the diagonal")
    (g, i, j, v), d = _entries(rep)
    g, i, j = g[v != 0], i[v != 0], j[v != 0]
    for src, dst, lines in ((j, i, "columns"), (i, j, "rows")):
        # the entries alone in their column (row) of their generator
        alone = np.bincount(g * d + src)[g * d + src] == 1
        src, dst = src[alone], dst[alone]
        reached = np.arange(d) == 0
        while not reached[step := dst[reached[src]]].all():
            reached[step] = True
        missing = np.flatnonzero(~reached).tolist()
        if missing:
            raise ValueError(
                f"basis states {missing[:8]}{' ...' * (len(missing) > 8)} "
                f"({len(missing)} of {d}) are not reached from the vacuum "
                f"along the {lines} with one nonzero")
    return 1


def casimir_deviation(rep):
    """Distance of the quadratic Casimir from a scalar matrix.

    The Casimir is built from the exact inverse Killing form on the vector
    basis, with the vector generators expressed through the spinor
    matrices: C2 = sum W[x, y] rho_x rho_y, summed over (x, y) ascending
    on each position from the terms of every product.
    """
    diag, worst = [], 0.0
    for on, c2 in _sums(rep, "casimir"):
        diag.append(c2[on].sum(axis=0))
        worst = max(worst, float(np.abs(c2[~on]).max(initial=0.0)))
    diag = np.concatenate(diag)
    return max(worst, float(np.abs(diag - diag.sum() / len(diag)).max()))


# ---------------------------------------------------------------------------
# partial-sum convergence diagnostics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tail_terms(m, block):
    """The S entries of partial_sum_distance: |coefficient|, amplitude, tau."""
    occ = _occupations(m)
    if block == "interior":
        occ = occ[:, occ.sum(axis=0) < m - 1]
    word, row, col, amp = _apply_words(_WORDS, occ, m + 1)
    left = np.array([side == "left" for side in _SIDES])[word]
    tau = np.where(left, _occupations(m + 1).sum(axis=0)[row],
                   occ.sum(axis=0)[col]) + 1
    scale = np.array([abs(c.to_complex()) if side else 0.0
                      for c, side in zip(_COEFF, _SIDES)])[word]
    return scale[scale != 0], amp[scale != 0], tau[scale != 0]


def partial_sum_distance(m, ell, block="all"):
    """Sup-entry distance between the truncated and exact level-m operators.

    Computed from the closed form: every differing entry is a term of
    GENERATOR_TERMS that takes S, its amplitude times the series tail at
    x = tau/m; only the tail depends on ell.  block="interior" restricts to
    columns whose states have total < m-1 (where x < 1 and the tail is
    geometric); boundary columns decay only like 1/sqrt(ell).
    """
    err = np.array([abs(math.sqrt(m) * (sqrt_series_value(ell, t / m)
                                        - math.sqrt(1.0 - t / m)))
                    for t in range(m + 1)])
    scale, amp, tau = _tail_terms(m, block)
    return float(np.max(scale * np.abs(amp * err[tau]), initial=0.0))


def full_convergence_ell(m, threshold=1e-3):
    """Smallest ell with partial_sum_distance(m, ell) < threshold.

    The distance is nonincreasing in ell (every series term after the first
    is <= 0 at 0 <= x <= 1), so doubling ell brackets the crossing and
    bisection finds it.  The boundary tail decays like 1/sqrt(ell), so this
    can be millions.  Measured at the default threshold: m=2 -> 5_092_958,
    m=3 -> 11_459_156, m=4 -> 20_371_833 (the interior block alone is
    already below 1e-6 by ell ~ 30).  A threshold that is not positive, or
    whose crossing lies past ell = 2**53, where consecutive orders are no
    longer distinct floats, raises ValueError.
    """
    if not threshold > 0:
        raise ValueError(f"threshold {threshold!r} is not positive")
    limit = 2 ** 53
    lo, hi = -1, 0  # the distance at lo (or before 0) is >= threshold
    while partial_sum_distance(m, hi) >= threshold:
        if hi == limit:
            raise ValueError(
                f"threshold {threshold!r} is not reached by ell = 2**53 "
                f"in float arithmetic (m = {m})")
        lo, hi = hi, min(2 * hi + 1, limit)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if partial_sum_distance(m, mid) < threshold:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# matrix dumps
# ---------------------------------------------------------------------------

def dump_representation(m, outdir, mode="binary"):
    """Write the level-m matrices with their basis-order header.

    binary mode: one JSON header plus per-generator little-endian float64
    [re, im] row-major sidecars; json mode inlines the matrices.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rep = build_rho(m)
    header = {"m": m, "dim": dim(m),
              "basis_order": [list(s) for s in basis(m)],
              "layout": "row-major", "dtype": "float64-le-re-im-pairs",
              "generators": list(GENERATOR_NAMES), "mode": mode}
    files = {}
    for name in GENERATOR_NAMES:
        mat = rep[name].toarray()
        safe = name.replace("+", "p").replace("-", "m")
        if mode == "binary":
            pairs = np.stack([mat.real, mat.imag], axis=-1).astype("<f8")
            fname = f"rho_m{m}_{safe}.bin"
            pairs.tofile(outdir / fname)
            files[name] = fname
        elif mode == "json":
            files[name] = [[[float(v.real), float(v.imag)] for v in row]
                           for row in mat]
        else:
            raise ValueError("mode must be binary or json")
    header["matrices"] = files
    path = outdir / f"rho_m{m}.json"
    path.write_text(json.dumps(header, indent=1, sort_keys=True))
    return path


def load_representation(path):
    path = pathlib.Path(path)
    header = json.loads(path.read_text())
    d = header["dim"]
    rep = {}
    for name, src in header["matrices"].items():
        if header["mode"] == "binary":
            pairs = np.fromfile(path.parent / src, dtype="<f8")
            pairs = pairs.reshape(d, d, 2)
            rep[name] = pairs[..., 0] + 1j * pairs[..., 1]
        else:
            rep[name] = np.array([[complex(re, im) for re, im in row]
                                  for row in src])
    return header, rep
