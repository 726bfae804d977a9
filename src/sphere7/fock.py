"""Finite-dimensional representations on truncated three-oscillator Fock spaces.

The space at level m is spanned by occupation states |n1, n2, n3> with
n1 + n2 + n3 <= m - 1, dimension binom(m+2, 3), ordered graded-lex by
(total, n1, n2) ascending, so each level is the prefix of the next.

Two constructions are provided: build_rho transcribes the closed-form matrix
elements of the exact representation (deformation parameter 1/m), and
build_rho_partial substitutes the finite square-root partial sums, producing
operators that map level m into the ambient level m+1 block.  Both return
scipy.sparse CSR arrays: every generator is a ladder operator with at most
two nonzeros per column.  The checks read them through stacked sparse
products and accept dense matrices too.  The symbolic Laurent generators
of the weyl module can be evaluated to the same matrices, which closes the
algebra <-> operator consistency loop.
"""

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse

from .rational import CRat, add_into
from .tolerances import TAU_REP
from .u2h import (REALITY_SPINOR, SPINOR_GENERATORS, VECTOR_IN_SPINOR,
                  bracket_table, casimir_pairs)

GENERATOR_NAMES = SPINOR_GENERATORS

# Largest level the command line builds.  `verify --m M..M --ell 0..0` on
# 2 vCPUs measured 90 MiB / 1.0 s at M = 12 and 263 MiB / 4.6 s at M = 16;
# the cost is the dense Gram of commutant_dimension, of side 3504 at M = 16
# and 8140 at M = 20 (0.5 GiB in float64).
M_MAX = 20


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


def _sq(v):
    # radicands that are analytically >= 0 may float slightly negative
    if v < 0:
        if v < -1e-12:
            raise ValueError(f"negative radicand {v}")
        return 0.0
    return math.sqrt(v)


def _ladder_actions(m):
    """name -> (state -> [(out_state, amplitude, radial_at)]) for the ten
    generators.

    A term with radial_at = t is multiplied by the square-root factor at
    total occupation t: sqrt(m - t) for the exact representation, the S_ell
    partial sum for the truncated one.  The J rows, K+- and the P terms that
    move an occupation between two slots carry none (radial_at is None).
    """

    def k_pp(n1, n2, n3):
        return [((n1 - 1, n2, n3), -2j * _sq(n1), n1 + n2 + n3)]

    def k_pm(n1, n2, n3):
        return [((n1, n2, n3), 1j * (m - 2 * n1 - n2 - n3 - 1), None)]

    def k_mm(n1, n2, n3):
        return [((n1 + 1, n2, n3), 2j * _sq(n1 + 1), n1 + n2 + n3 + 1)]

    def p_pp(n1, n2, n3):
        return [((n1 - 1, n2, n3 + 1), -_sq(n1) * _sq(n3 + 1), None),
                ((n1, n2 - 1, n3), -_sq(n2), n1 + n2 + n3)]

    def p_mm(n1, n2, n3):
        return [((n1 + 1, n2, n3 - 1), _sq(n1 + 1) * _sq(n3), None),
                ((n1, n2 + 1, n3), _sq(n2 + 1), n1 + n2 + n3 + 1)]

    def p_mp(n1, n2, n3):
        return [((n1 - 1, n2 + 1, n3), -_sq(n1) * _sq(n2 + 1), None),
                ((n1, n2, n3 - 1), _sq(n3), n1 + n2 + n3)]

    def p_pm(n1, n2, n3):
        return [((n1 + 1, n2 - 1, n3), -_sq(n1 + 1) * _sq(n2), None),
                ((n1, n2, n3 + 1), _sq(n3 + 1), n1 + n2 + n3 + 1)]

    def j_pp(n1, n2, n3):
        return [((n1, n2 - 1, n3 + 1), 2j * _sq(n3 + 1) * _sq(n2), None)]

    def j_pm(n1, n2, n3):
        return [((n1, n2, n3), -1j * (n3 - n2), None)]

    def j_mm(n1, n2, n3):
        return [((n1, n2 + 1, n3 - 1), -2j * _sq(n2 + 1) * _sq(n3), None)]

    return {"K++": k_pp, "K+-": k_pm, "K--": k_mm,
            "P++": p_pp, "P--": p_mm, "P-+": p_mp, "P+-": p_pm,
            "J++": j_pp, "J+-": j_pm, "J--": j_mm}


def _assemble(m, radial, dom_m, cod_m):
    """The ladder table of level m with the square-root factor radial(t),
    as sparse D(cod_m) x D(dom_m) CSR arrays."""
    dom_basis, cod_index = basis(dom_m), basis_index(cod_m)
    shape = (len(cod_index), len(dom_basis))
    mats = {}
    for name, act in _ladder_actions(m).items():
        rows, cols, amps = [], [], []
        for col, st in enumerate(dom_basis):
            for out, amp, at in act(*st):
                if at is not None:
                    amp = amp * radial(at)
                if amp == 0:
                    continue
                if min(out) < 0:
                    if abs(amp) > 1e-12:
                        raise ValueError("nonzero amplitude out of the lattice")
                    continue
                row = cod_index.get(out)
                if row is None:
                    raise ValueError(f"state {out} escapes the codomain block")
                rows.append(row)
                cols.append(col)
                amps.append(amp)
        mats[name] = scipy.sparse.csr_array(
            (np.array(amps, dtype=complex),
             (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))),
            shape=shape)
    return mats


def build_rho(m):
    """The exact level-m representation: ten sparse D x D complex matrices."""
    return _assemble(m, lambda t: _sq(m - t), m, m)


def sqrt_series_value(ell, x):
    """Partial sum of the sqrt(1 - x) Taylor series through order ell.

    At x = 1 it is C(2 ell, ell) / 4^ell (Concrete Mathematics, eq. 5.16),
    taken from ell = 512 on from the Stirling series of its logarithm, good
    to a few ulp.  For 0 <= x < 1 the sum stops at the first term that leaves
    it unchanged; the later terms are smaller and of the same sign.
    """
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


def _partial_svals(m, ell, max_total):
    # diagonal values of the truncated square-root operator: argument tau is
    # the (total+1) eigenvalue, hbar = 1/m
    return {t: math.sqrt(m) * sqrt_series_value(ell, t / m)
            for t in range(max_total + 2)}


def build_rho_partial(m, ell, domain_m=None):
    """Square roots replaced by partial sums; maps level m into level m+1.

    Matrices are D(domain_m + 1) x D(domain_m) with hbar fixed at 1/m
    (domain_m defaults to m; passing domain_m = m + 1 gives the next block
    of the same operator, as needed for curvature compositions).
    """
    dm = m if domain_m is None else domain_m
    return _assemble(m, _partial_svals(m, ell, dm).__getitem__, dm, dm + 1)


def embed_exact_in_ambient(m):
    """build_rho(m) in the D(m+1) x D(m) ambient shape: the exact radial
    assembled into the level-(m+1) codomain, whose extra rows stay zero."""
    return _assemble(m, lambda t: _sq(m - t), m, m + 1)


def matrix_of_weyl(w, m_domain, m_codomain):
    """Evaluate a normal-ordered symbolic element on occupation states.

    Monomial amplitudes are products of ladder factors (the a^+_+. slot
    carries the sign of its Fock action); no intermediate truncation occurs.
    """
    dom = basis(m_domain)
    cod = basis_index(m_codomain)
    mat = np.zeros((dim(m_codomain), len(dom)), dtype=complex)
    for key, coeff in w.terms.items():
        d1, d2, d3, e1, e2, e3 = key
        c = coeff.to_complex()
        for col, (n1, n2, n3) in enumerate(dom):
            if e1 > n1 or e2 > n2 or e3 > n3:
                continue
            amp = 1.0
            for base, down, up in ((n1, e1, d1), (n2, e2, d2), (n3, e3, d3)):
                for t in range(down):
                    amp *= math.sqrt(base - t)
                for t in range(up):
                    amp *= math.sqrt(base - down + 1 + t)
            if e2 % 2:
                amp = -amp
            out = (n1 - e1 + d1, n2 - e2 + d2, n3 - e3 + d3)
            row = cod.get(out)
            if row is None:
                raise ValueError(f"state {out} escapes the codomain block")
            mat[row, col] += c * amp
    return mat


def matrix_of_laurent(lau, m, m_domain=None, m_codomain=None):
    """Evaluate a Laurent element at hbar = 1/m, grade g -> m^(-g/2)."""
    md = m if m_domain is None else m_domain
    mc = md + 1 if m_codomain is None else m_codomain
    total = np.zeros((dim(mc), dim(md)), dtype=complex)
    for g, w in lau.grades.items():
        total += float(m) ** (-g / 2.0) * matrix_of_weyl(w, md, mc)
    return total


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

_INDEX = {g: k for k, g in enumerate(GENERATOR_NAMES)}
_PAIRS = tuple(combinations(GENERATOR_NAMES, 2))
# _PAIR_INDEX[x, y]: the position in _PAIRS of the pair {x, y}; the upper
# triangle in row-major order is the combinations order
_PAIR_INDEX = np.zeros((len(GENERATOR_NAMES),) * 2, dtype=np.intp)
_PAIR_INDEX[np.triu_indices(len(GENERATOR_NAMES), 1)] = range(len(_PAIRS))
_PAIR_INDEX += _PAIR_INDEX.T


def _coefficient_rows(table, keys):
    """The Lie elements table[key] as the rows of a sparse
    (len(keys), 10) array over GENERATOR_NAMES."""
    out = np.zeros((len(keys), len(GENERATOR_NAMES)), dtype=complex)
    for r, key in enumerate(keys):
        for g, c in table[key].items():
            out[r, _INDEX[g]] = (c.to_complex() if isinstance(c, CRat)
                                 else complex(c))
    return scipy.sparse.csr_array(out)


@lru_cache(maxsize=None)
def _bracket_coefficients():
    return _coefficient_rows(bracket_table("spinor"), _PAIRS)


@lru_cache(maxsize=None)
def _reality_coefficients():
    return _coefficient_rows(REALITY_SPINOR, GENERATOR_NAMES)


@lru_cache(maxsize=None)
def _casimir_weights():
    """W with C2 = sum over x, y of W[x, y] rho_x rho_y: the Casimir pairs
    of the vector basis written through the spinor generators, exactly."""
    w = {}
    for ga, gb, coeff in casimir_pairs():
        add_into(w, (((_INDEX[x], _INDEX[y]), cx * cy * coeff)
                     for x, cx in VECTOR_IN_SPINOR[ga].items()
                     for y, cy in VECTOR_IN_SPINOR[gb].items()))
    out = np.zeros((len(GENERATOR_NAMES),) * 2, dtype=complex)
    for xy, c in w.items():
        out[xy] = c.to_complex()
    return out


def _entries(rep):
    """The stored entries of the ten square matrices of rep as arrays
    (g, i, j, value), g the position in GENERATOR_NAMES, and their size d.
    Dense input, such as a loaded dump, is accepted."""
    mats = [scipy.sparse.csr_array(rep[g]) for g in GENERATOR_NAMES]
    d = mats[0].shape[0]
    g = np.repeat(np.arange(len(mats)), [x.nnz for x in mats])
    i = np.concatenate([np.repeat(np.arange(d), np.diff(x.indptr))
                        for x in mats])
    j = np.concatenate([x.indices for x in mats])
    return (g, i, j, np.concatenate([x.data for x in mats])), d


def _flat(g, i, j, v, d):
    """The matrices flattened row-major, as the rows of one sparse array."""
    return scipy.sparse.csr_array((v, (g, i * d + j)),
                                  shape=(len(GENERATOR_NAMES), d * d))


def _stacks(g, i, j, v, d):
    """vstack(rho) and hstack(rho): the matrices one below the other and
    side by side."""
    n = len(GENERATOR_NAMES)
    return (scipy.sparse.csr_array((v, (g * d + i, j)), shape=(n * d, d)),
            scipy.sparse.csr_array((v, (i, g * d + j)), shape=(d, n * d)))


def _products(g, i, j, v, d):
    """Every product rho_x rho_y from one vstack(rho) @ hstack(rho), whose
    block (x, y) it is, as COO coordinates (x, y, i, j, value)."""
    vstack, hstack = _stacks(g, i, j, v, d)
    prod = (vstack @ hstack).tocoo()
    x, i = np.divmod(prod.row, d)
    y, j = np.divmod(prod.col, d)
    return x, y, i, j, prod.data


def verify_brackets(rep, table=None):
    """(max residual, worst pair) of [rho X, rho Y] = rho([X, Y]).

    The worst pair is the first in combinations order with the maximal
    residual, None when every residual is zero.
    """
    entries, d = _entries(rep)
    coeffs = (_bracket_coefficients() if table is None
              else _coefficient_rows(table, _PAIRS))
    x, y, i, j, v = _products(*entries, d)
    off = x != y
    x, y, i, j, v = x[off], y[off], i[off], j[off], v[off]
    # block (x, y) enters the commutator of its pair with sign +1 when x
    # comes first in GENERATOR_NAMES, -1 otherwise
    lhs = scipy.sparse.csr_array(
        (np.where(x < y, v, -v), (_PAIR_INDEX[x, y], i * d + j)),
        shape=(len(_PAIRS), d * d))
    res = abs(lhs - coeffs @ _flat(*entries, d)).max(axis=1).toarray()
    k = int(np.argmax(res))
    return (float(res[k]), _PAIRS[k]) if res[k] > 0 else (0.0, None)


def verify_reality(rep):
    """Max residual of (rho X)^dagger = rho(X^dagger)."""
    (g, i, j, v), d = _entries(rep)
    adjoints = _flat(g, j, i, v.conj(), d)
    return float(abs(adjoints - _reality_coefficients() @ _flat(g, i, j, v, d))
                 .max())


def verify_traceless(rep):
    return max(abs(complex(rep[x].trace())) for x in GENERATOR_NAMES)


def k_spectrum(rep):
    """Sorted eigenvalues of -i rho(K_+.-.), exactly integer in theory.

    rho(K_+.-.) is diagonal in the occupation basis, so they are its sorted
    diagonal; an off-diagonal nonzero raises ValueError.
    """
    k = scipy.sparse.coo_array(rep["K+-"])
    if np.any((k.row != k.col) & (k.data != 0)):
        raise ValueError("rho(K+-) has an off-diagonal nonzero")
    return np.sort((-1j * k.diagonal()).real)


def expected_k_spectrum(m):
    vals = [m - 2 * n1 - n2 - n3 - 1 for (n1, n2, n3) in basis(m)]
    return np.sort(np.array(vals, dtype=float))


def commutant_dimension(rep, tol=1e-8):
    """Dimension of {M : [M, rho X] = 0 for all X}; 1 means irreducible.

    M is restricted upfront to the joint eigenspaces of the two diagonal
    generators (their eigenvalues are exact integers read off the basis),
    then the remaining commutation constraints are solved by a dense
    eigenvalue count on the small Gram matrix.
    """
    entries, d = _entries(rep)
    m = next((mm for mm in range(1, 4096) if dim(mm) == d), None)
    if m is None:
        raise ValueError(f"matrix dimension {d} is not a truncation level")
    blocks = {}
    for k, (n1, n2, n3) in enumerate(basis(m)):
        blocks.setdefault((2 * n1 + n2 + n3, n2 - n3), []).append(k)
    # the unknowns: the entries (mi[c], mj[c]) of M inside the blocks, with
    # which the diagonal generators commute
    mi, mj = np.array([(a, b) for ids in blocks.values()
                       for a in ids for b in ids], dtype=np.intp).T
    n = len(mi)
    off = ~np.isin(entries[0], (_INDEX["K+-"], _INDEX["J+-"]))
    vstack, hstack = _stacks(*(e[off] for e in entries), d)

    def select(idx):
        # the n x d matrix that picks the rows idx
        return scipy.sparse.csr_array((np.ones(n), (np.arange(n), idx)),
                                      shape=(n, d))

    # [M, X] = MX - XM: entry (i, j) of M meets X[j, l] at (i, l) and
    # -X[k, i] at (k, j).  right[c, (x, l)] = X_x[mj[c], l] and
    # left[c, (x, k)] = X_x[k, mi[c]] gather them for every generator x.
    right = (select(mj) @ hstack).tocoo()
    left = (select(mi) @ vstack.T).tocoo()
    xr, lr = np.divmod(right.col, d)
    xl, kl = np.divmod(left.col, d)
    # constraint (x, a, b) is entry (a, b) of [M, X_x]; renumbering the ones
    # that occur drops the empty rows without changing the Gram
    _, rows = np.unique(np.concatenate([(xr * d + mi[right.row]) * d + lr,
                                        (xl * d + kl) * d + mj[left.row]]),
                        return_inverse=True)
    c = scipy.sparse.csr_array(
        (np.concatenate([right.data, -left.data]),
         (rows, np.concatenate([right.row, left.row]))),
        shape=(len(rows), n))
    gram = c.conj().T @ c
    # entries of one generator share a phase, so the Gram is real for every
    # level matrix; the real solver is several times faster
    if not gram.data.imag.any():
        gram = gram.real
    evals = np.linalg.eigvalsh(gram.toarray())
    scale = max(1.0, float(evals[-1]) if len(evals) else 1.0)
    return int(np.sum(evals < tol * scale))


def casimir_deviation(rep):
    """Distance of the quadratic Casimir from a scalar matrix.

    The Casimir is built from the exact inverse Killing form on the vector
    basis, with the vector generators expressed through the spinor
    matrices: C2 = sum W[x, y] rho_x rho_y, read off one stacked product.
    """
    entries, d = _entries(rep)
    x, y, i, j, v = _products(*entries, d)
    c2 = scipy.sparse.csr_array((_casimir_weights()[x, y] * v, (i, j)),
                                shape=(d, d))
    scalar = c2.trace() / d
    return float(abs(c2 - scalar * scipy.sparse.eye_array(d)).max())


def exponentiate(x, t=1.0, tol=TAU_REP):
    """exp(t X) for antihermitean X; rejects non-antihermitean input.

    The Hermitian H = i t (X - X^H)/2 is diagonalized, H = V diag(l) V^H,
    and exp(t X) = V diag(exp(-i l)) V^H; for a normal matrix the
    eigenvector method is well conditioned (Moler-Van Loan 2003).
    """
    defect = float(np.max(np.abs(x + x.conj().T)))
    if defect > tol:
        raise ValueError(f"matrix is not antihermitean (defect {defect:.3g})")
    lam, v = np.linalg.eigh((0.5j * t) * (x - x.conj().T))
    return (v * np.exp(-1j * lam)) @ v.conj().T


def filtration_check(m_max):
    """Basis-compatibility of the level inclusions, and the off-block fact.

    Verifies that dimensions strictly increase and each level's basis is the
    prefix of the next level's.  Restricting the level-(m+1) matrices to the
    level-m block is NOT a subrepresentation; the maximal off-block column
    entry per level is reported as evidence.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    report = {"dims": [dim(m) for m in range(1, m_max + 1)],
              "prefix_ok": True, "off_block_norm": {}}
    for m in range(1, m_max):
        if dim(m) >= dim(m + 1):
            report["prefix_ok"] = False
        if basis(m) != basis(m + 1)[:dim(m)]:
            report["prefix_ok"] = False
        rep = build_rho(m + 1)
        d = dim(m)
        off = max(float(np.max(np.abs(rep[g].toarray()[d:, :d])))
                  for g in rep)
        report["off_block_norm"][m + 1] = off
    report["is_subrepresentation"] = all(
        v < 1e-14 for v in report["off_block_norm"].values())
    return report


# ---------------------------------------------------------------------------
# partial-sum convergence diagnostics
# ---------------------------------------------------------------------------

def partial_sum_distance(m, ell, block="all"):
    """Sup-entry distance between the truncated and exact level-m operators.

    Computed from the closed form: every differing entry is a ladder term
    that takes the square-root factor, its amplitude times the series tail
    at x = tau/m.  block="interior" restricts to columns whose states have
    total < m-1 (where x < 1 and the tail is geometric); boundary columns
    decay only like 1/sqrt(ell).
    """
    err = {t: abs(math.sqrt(m) * (sqrt_series_value(ell, t / m)
                                  - _sq(1.0 - t / m)))
           for t in range(m + 1)}
    actions = _ladder_actions(m).values()
    worst = 0.0
    for st in basis(m):
        if block == "interior" and sum(st) >= m - 1:
            continue
        worst = max(worst, *(abs(amp) * err[at] for act in actions
                             for _, amp, at in act(*st) if at is not None))
    return worst


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
    import pathlib
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rep = build_rho(m)
    header = {"m": m, "dim": dim(m),
              "basis_order": [list(s) for s in basis(m)],
              "layout": "row-major", "dtype": "float64-le-re-im-pairs",
              "generators": list(GENERATOR_NAMES), "mode": mode}
    files = {}
    for name in GENERATOR_NAMES:
        # stored values placed as they are: toarray adds them to zeros,
        # which turns a -0.0 part into +0.0 and changes the dump
        coo = rep[name].tocoo()
        mat = np.zeros(coo.shape, dtype=complex)
        mat[coo.row, coo.col] = coo.data
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
    import pathlib
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
