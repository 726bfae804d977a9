"""The level matrices, stored as entry arrays, and the checks that read
them, against dense references: a dense assembly of hand-derived ladder
closures and the dense forms of the bracket, reality, Casimir and commutant
checks.  scipy serves only as the commutant oracle's sparse Kronecker
products."""

import math
import os
import pathlib
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse

from oracles import (CASIMIR_PAIRS, REALITY_SPINOR, SPINOR_TABLE,
                     VECTOR_IN_SPINOR)
from sphere7 import fock
from sphere7.fock import (GENERATOR_NAMES, LevelMatrix, basis, basis_index,
                          build_rho, build_rho_partial, casimir_deviation,
                          commutant_dimension, dim, dump_representation,
                          k_spectrum, load_representation, sqrt_series_value,
                          verify_brackets, verify_reality, verify_traceless)
from sphere7.rational import CRat


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------

def _sq(v):
    # radicands that are analytically >= 0 may float slightly negative
    if v < 0:
        if v < -1e-12:
            raise ValueError(f"negative radicand {v}")
        return 0.0
    return math.sqrt(v)


def _ladder_actions(m):
    """name -> (state -> [(out_state, amplitude, radial_at)]) for the ten
    generators, derived by hand from the oscillator recipe.

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


def _dense_assemble(m, radial, dom_m, cod_m):
    dom_basis, cod_index = basis(dom_m), basis_index(cod_m)
    mats = {}
    for name, act in _ladder_actions(m).items():
        mat = np.zeros((len(cod_index), len(dom_basis)), dtype=complex)
        for col, st in enumerate(dom_basis):
            for out, amp, at in act(*st):
                if at is not None:
                    amp = amp * radial(at)
                if amp != 0 and min(out) >= 0:
                    mat[cod_index[out], col] = amp
        mats[name] = mat
    return mats


def _lie_to_matrix(rep, coeffs):
    out = np.zeros(next(iter(rep.values())).shape, dtype=complex)
    for g, c in coeffs.items():
        cc = c.to_complex() if isinstance(c, CRat) else complex(c)
        out += cc * rep[g]
    return out


def _dense_verify_brackets(rep, table=None):
    if table is None:
        table = SPINOR_TABLE
    worst, worst_pair = 0.0, None
    for x, y in combinations(GENERATOR_NAMES, 2):
        lhs = rep[x] @ rep[y] - rep[y] @ rep[x]
        r = float(np.max(np.abs(lhs - _lie_to_matrix(rep, table[(x, y)]))))
        if r > worst:
            worst, worst_pair = r, (x, y)
    return worst, worst_pair


def _dense_verify_reality(rep):
    return max(float(np.max(np.abs(
        rep[x].conj().T - _lie_to_matrix(rep, REALITY_SPINOR[x]))))
        for x in GENERATOR_NAMES)


def _dense_casimir_deviation(rep):
    d = next(iter(rep.values())).shape[0]
    rho_vec = {g: _lie_to_matrix(rep, VECTOR_IN_SPINOR[g])
               for g in VECTOR_IN_SPINOR}
    c2 = np.zeros((d, d), dtype=complex)
    for ga, gb, coeff in CASIMIR_PAIRS:
        c2 += float(coeff) * (rho_vec[ga] @ rho_vec[gb])
    return float(np.max(np.abs(c2 - np.trace(c2) / d * np.eye(d))))


def _dense_commutant_dimension(rep, tol=1e-8):
    d = next(iter(rep.values())).shape[0]
    m = next(mm for mm in range(1, 64) if dim(mm) == d)
    blocks = {}
    for i, (n1, n2, n3) in enumerate(basis(m)):
        blocks.setdefault((2 * n1 + n2 + n3, n2 - n3), []).append(i)
    cols = [i * d + j for ids in blocks.values() for i in ids for j in ids]
    eye = scipy.sparse.identity(d, format="csr")
    gram = np.zeros((len(cols), len(cols)), dtype=complex)
    for name in GENERATOR_NAMES:
        if name in ("K+-", "J+-"):
            continue
        xs = scipy.sparse.csr_matrix(rep[name])
        c = (scipy.sparse.kron(eye, xs.T, format="csc")
             - scipy.sparse.kron(xs, eye, format="csc"))[:, cols]
        gram += (c.getH() @ c).toarray()
    evals = np.linalg.eigvalsh(gram)
    return int(np.sum(evals < tol * max(1.0, float(evals[-1]))))


def _dense(rep):
    return {g: x.toarray() for g, x in rep.items()}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _assert_same(sparse_rep, dense_rep):
    assert sparse_rep.keys() == dense_rep.keys()
    for g, x in sparse_rep.items():
        want = dense_rep[g]
        assert np.array_equal(x.toarray(), want)
        # one stored entry per nonzero, each with the dense value's bits;
        # + 0.0 clears only the sign of a zero part, which differs where
        # the reference stores 1j * (negative int) and the assembly a sum
        assert len(x.val) == np.count_nonzero(want)
        assert np.array_equal((x.val + 0.0).view(np.uint64),
                              (want[x.row, x.col] + 0.0).view(np.uint64))


@pytest.mark.parametrize("m", range(1, 11))
def test_assembly_matches_the_dense_ladder_table(m):
    exact = lambda t: math.sqrt(m - t)  # noqa: E731
    _assert_same(build_rho(m), _dense_assemble(m, exact, m, m))
    # build_rho(m) assembled into the level-(m+1) codomain
    _assert_same(fock._assemble(m, np.sqrt(m - np.arange(m + 1.0)), m,
                                m + 1),
                 _dense_assemble(m, exact, m, m + 1))
    for ell in range(5):
        def partial(t):
            return math.sqrt(m) * sqrt_series_value(ell, t / m)
        _assert_same(build_rho_partial(m, ell),
                     _dense_assemble(m, partial, m, m + 1))


def test_binary_dump_keeps_the_stored_bits(tmp_path):
    # + 0.0 clears only the sign of a zero part: the reference's K+-
    # diagonal, 1j * (negative int), has -0.0 real parts where the
    # assembly's sums store +0.0
    path = dump_representation(3, tmp_path)
    want = _dense_assemble(3, lambda t: math.sqrt(3 - t), 3, 3)
    for g in GENERATOR_NAMES:
        safe = g.replace("+", "p").replace("-", "m")
        pairs = np.stack([want[g].real, want[g].imag], axis=-1) + 0.0
        got = np.fromfile(path.parent / f"rho_m3_{safe}.bin", dtype="<f8")
        assert ((got + 0.0).astype("<f8").tobytes()
                == pairs.astype("<f8").tobytes())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_checks_match_the_dense_oracle(m):
    rep = build_rho(m)
    dense = _dense(rep)
    res, pair = verify_brackets(rep)
    want_res, want_pair = _dense_verify_brackets(dense)
    assert pair == want_pair
    assert abs(res - want_res) < 1e-14
    assert abs(verify_reality(rep) - _dense_verify_reality(dense)) < 1e-14
    assert abs(casimir_deviation(rep)
               - _dense_casimir_deviation(dense)) < 1e-14
    assert commutant_dimension(rep) == _dense_commutant_dimension(dense) == 1
    # dense input, as a loaded dump gives, reads the same
    assert verify_brackets(dense) == (res, pair)
    assert commutant_dimension(dense) == 1


def test_level_one_checks_run_on_no_stored_entries():
    # D = 1: the K+- and J+- diagonal terms cancel, so every check reduces
    # over empty entry arrays and returns the empty level's value
    rep = build_rho(1)
    assert all(len(x.val) == 0 for x in rep.values())
    for r in (rep, _dense(rep)):
        assert verify_brackets(r) == (0.0, None)
        assert verify_reality(r) == 0.0
        assert verify_traceless(r) == 0.0
        assert casimir_deviation(r) == 0.0
        assert commutant_dimension(r) == 1
        assert k_spectrum(r).tolist() == [0.0]


@pytest.mark.parametrize("m", range(1, 9))
def test_checks_read_a_binary_dump_as_the_level_matrices(tmp_path, m):
    rep = build_rho(m)
    _, dense = load_representation(dump_representation(m, tmp_path))
    assert verify_brackets(dense) == verify_brackets(rep)
    assert verify_reality(dense) == verify_reality(rep)
    assert casimir_deviation(dense) == casimir_deviation(rep)


def _bits(rep):
    br, pair = verify_brackets(rep)
    return (br.hex(), pair, verify_reality(rep).hex(),
            casimir_deviation(rep).hex())


@pytest.mark.parametrize("m", (4, 9))
def test_column_blocks_give_the_one_block_results(m, monkeypatch):
    # each position is summed within its column, so cutting the columns
    # finer changes no bit
    rep = build_rho(m)
    rep["P++"].val[3] *= 1.25  # nonzero residuals on every check
    whole = _bits(rep)
    for columns in (1, 3):
        monkeypatch.setattr(fock, "_COLUMNS", columns)
        assert _bits(rep) == whole


def _with_entry(x, i, j, value):
    """The level matrix x with one more stored entry, in row-major order."""
    at = np.searchsorted(x.row.astype(np.int64) * x.shape[1] + x.col,
                         i * x.shape[1] + j)
    return LevelMatrix(np.insert(x.row, at, i), np.insert(x.col, at, j),
                       np.insert(x.val, at, value), x.shape)


@pytest.mark.parametrize("m", (3, 6))
def test_an_entry_off_every_ladder_reads_as_the_dense_oracle(m, tmp_path):
    # (0, D - 1) takes the last state to the vacuum: no generator's term
    # moves occupations by (0, 0, 1 - m)
    d = dim(m)
    rep = build_rho(m)
    rep["P++"] = _with_entry(rep["P++"], 0, d - 1, 0.3 - 0.2j)
    dense = _dense(rep)
    res, pair = verify_brackets(rep)
    want_res, want_pair = _dense_verify_brackets(dense)
    assert res > 0.1 and pair == want_pair
    assert abs(res - want_res) < 1e-14
    real = verify_reality(rep)
    assert real > 0.1 and abs(real - _dense_verify_reality(dense)) < 1e-14
    cas = casimir_deviation(rep)
    assert cas > 0.01 and abs(cas - _dense_casimir_deviation(dense)) < 1e-14
    # the same entry written into a binary dump reads the same bits
    path = dump_representation(m, tmp_path)
    pairs = np.memmap(path.parent / f"rho_m{m}_Ppp.bin", dtype="<f8",
                      mode="r+", shape=(d, d, 2))
    pairs[0, d - 1] = (0.3, -0.2)
    pairs.flush()
    del pairs
    _, loaded = load_representation(path)
    assert _bits(loaded) == _bits(rep)


def test_corrupted_ladder_amplitude_fails_the_bracket_check():
    rep = build_rho(4)
    rep["P++"].val[3] *= 1.25
    res, pair = verify_brackets(rep)
    want_res, want_pair = _dense_verify_brackets(_dense(rep))
    assert res > 0.1
    assert "P++" in pair
    assert pair == want_pair
    assert abs(res - want_res) < 1e-14


def test_a_matrix_of_noise_everywhere_is_refused():
    # every entry nonzero makes 130 diagonals at m = 2; the checks refuse
    # such input rather than multiply every pair of them
    rng = np.random.default_rng(5)
    rep = {g: rng.standard_normal((4, 4)) + 0j for g in GENERATOR_NAMES}
    for check in (verify_brackets, verify_reality, casimir_deviation):
        with pytest.raises(ValueError, match="130 diagonals"):
            check(rep)


def _run(code):
    """The standard output of code run in a fresh interpreter on src/."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_level_checks_keep_to_the_stored_entries_at_m_30():
    # the bracket check reads the stored entries as diagonals, a block of
    # columns at a time; a layout with rows D^2 wide once took about
    # 1.07 GiB at D = 4960
    code = ("import resource\n"
            "from sphere7.fock import build_rho, verify_brackets, "
            "verify_reality\n"
            "rep = build_rho(30)\n"
            "print(verify_brackets(rep)[0], verify_reality(rep),\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    brackets, reality, max_rss_kib = _run(code).split()
    assert float(brackets) < 1e-10 and float(reality) < 1e-10
    assert int(max_rss_kib) < 400 * 1024


def test_an_entry_off_every_ladder_keeps_the_checks_bounded_at_m_30():
    # the off-ladder entry (0, D - 1) of the dense-oracle test adds one
    # diagonal, and with it one product per diagonal of every other
    # generator, to the checks' work arrays; row 0 of P++ holds one entry,
    # in column 2, so the new one is stored second
    code = ("import resource\n"
            "import numpy as np\n"
            "from sphere7 import fock\n"
            "rep = fock.build_rho(30)\n"
            "x = rep['P++']\n"
            "rep['P++'] = fock.LevelMatrix(\n"
            "    np.insert(x.row, 1, 0), np.insert(x.col, 1, 4959),\n"
            "    np.insert(x.val, 1, 2j), x.shape)\n"
            "print(fock.verify_brackets(rep)[0], fock.verify_reality(rep),\n"
            "      fock.casimir_deviation(rep),\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    *values, max_rss_kib = _run(code).split()
    assert all(float(v) > 0.01 for v in values)
    assert int(max_rss_kib) < 400 * 1024
